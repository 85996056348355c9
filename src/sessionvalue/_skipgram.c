/* The training loop of embed.train: skip-gram over a hierarchical-softmax
 * output, the loop of the reference word2vec trainer (Mikolov et al. 2013).
 *
 * One call runs every iteration over every sentence. For each center token
 * with a non-empty Huffman path, every other token in its window takes one
 * gradient step against the center's path rows of syn1, in window order.
 * The learning rate decays linearly per center token down to lr_floor.
 *
 * These rules keep the model dump byte-identical to the numpy trainer
 * (tests/oracles.py) after rounding:
 *   - every dot product is a sequential sum;
 *   - neu is accumulated from a path row before that row is updated;
 *   - the logistic function is 1 / (1 + exp(-f));
 *   - the build disables floating-point contraction (no fused multiply-add)
 *     and never reassociates (no -ffast-math);
 *   - syn1 rows are updated in place, which is exact because a Huffman path
 *     never visits a node twice.
 *
 * The reference trainer takes a (center, context) step node by node: dot,
 * gradient, then the update of neu and of the node's row. This loop does the
 * same float operations on the same operands, and every value is summed in
 * the same order, but the work that does not depend on other work overlaps:
 *   - dots: the context vector v changes only once the whole path is done,
 *     each path row is read before it is written, and a path never repeats a
 *     node. So the dots f_p = l2_p . v of all path nodes are independent.
 *     path_dots sums up to 8 of them at once, each one still a sequential
 *     sum in d order;
 *   - gradients: g_p = alpha * (1 - code_p - 1 / (1 + exp(-f_p))), unchanged;
 *   - update: blocked over d, 8 components at a time plus a scalar tail. The
 *     block's 8 components of v and of neu stay in vector registers while
 *     the path rows pass through one at a time, in path order. neu starts
 *     from 0.0 and adds g_p * l2_p[d], each row read before its own update.
 *     As the rows are distinct, no node sees another node's update, which is
 *     the value the node-by-node loop reads too. Each row then takes
 *     l2_p[d] += g_p * v[d] from the unchanged v, and finally v[d] += neu[d].
 * tests/skipgram_reference.c keeps the node-by-node loop as the oracle that
 * tests/test_kernel.py compares bit for bit with this one.
 *
 * Measured with timing-only variants that skip one pass (one training at the
 * 60-day slice of the full.yaml shape, AVX2), the dots take about 45% of the
 * time and the update about 50%. The update is written once with GCC vector
 * types and defined twice: a generic copy with 16-byte vectors, four per
 * block, and a copy compiled with target("avx2") with 32-byte vectors, two
 * per block. sv_skipgram_train runs the AVX2 copy when
 * __builtin_cpu_supports says the CPU has AVX2, and the generic copy
 * otherwise; each is also exported as its own entry point. The dots stay
 * generic in both: an AVX2 build of them was slower, because each node's
 * sum is bound by the latency of its chain of adds. The bits are the same,
 * because target("avx2") does not enable FMA, -ffp-contract=off still holds,
 * and no sum is reassociated: a vector operation does the same IEEE
 * operation lane by lane, on the same operands in the same order. No -mavx2
 * or -march flag is used, so the build still runs on a CPU without AVX2.
 *
 * Layout: syn0 is n_entries x dims and syn1 is (n_entries - 1) x dims, both
 * row-major. Sentence s is tokens[sentence_offsets[s] .. sentence_offsets[s+1]).
 * Entry w's path is points[path_offsets[w] .. path_offsets[w+1]), with
 * one_minus_code holding 1 - code for the same positions. scratch holds one
 * double per node of the longest path: a step writes its dots there, then
 * overwrites each with its gradient. The caller guarantees every index is in
 * range and that no two arrays overlap.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define BLOCK 8

/* f[p] = syn1[points[p]] . v for the first `width` nodes, one sequential sum
 * each, interleaved so that the `width` chains overlap. Inlined with a
 * constant width, the accumulators stay in registers. */
static inline __attribute__((always_inline)) void dot_chains(
    int width, const double *restrict syn1, const int64_t *points,
    const double *restrict v, int64_t dims, double *restrict f)
{
    const double *row[BLOCK];
    double acc[BLOCK];
    for (int k = 0; k < width; k++) {
        row[k] = syn1 + points[k] * dims;
        acc[k] = 0.0;
    }
    for (int64_t d = 0; d < dims; d++)
        for (int k = 0; k < width; k++)
            acc[k] += row[k][d] * v[d];
    for (int k = 0; k < width; k++)
        f[k] = acc[k];
}

/* The dots of the whole path: blocks of 8 nodes, then the remaining 1 to 7
 * nodes in one pass, so that no node's sum waits alone on the latency of its
 * adds. */
static void path_dots(
    const double *restrict syn1, const int64_t *points, int64_t n,
    const double *restrict v, int64_t dims, double *restrict f)
{
    int64_t p = 0;
    for (; p + BLOCK <= n; p += BLOCK)
        dot_chains(BLOCK, syn1, points + p, v, dims, f + p);
    switch (n - p) {
    case 7: dot_chains(7, syn1, points + p, v, dims, f + p); break;
    case 6: dot_chains(6, syn1, points + p, v, dims, f + p); break;
    case 5: dot_chains(5, syn1, points + p, v, dims, f + p); break;
    case 4: dot_chains(4, syn1, points + p, v, dims, f + p); break;
    case 3: dot_chains(3, syn1, points + p, v, dims, f + p); break;
    case 2: dot_chains(2, syn1, points + p, v, dims, f + p); break;
    case 1: dot_chains(1, syn1, points + p, v, dims, f + p); break;
    }
}

/* AVX2 and the CPU check exist on x86 only. Elsewhere the AVX2 copy below is
 * a second generic copy, which the dispatch never picks. */
#if defined(__x86_64__) || defined(__i386__)
#define TARGET_AVX2 __attribute__((target("avx2")))
#define CPU_HAS_AVX2() (__builtin_cpu_init(), __builtin_cpu_supports("avx2"))
#else
#define TARGET_AVX2
#define CPU_HAS_AVX2() 0
#endif

#define UPDATE_PARAMS \
    double *restrict syn1, const int64_t *points, int64_t n, \
    const double *restrict g, double *restrict v, int64_t dims

/* The update of one (center, context) step: g holds the path's gradients
 * and v is the context's row of syn0. One body, defined twice with the GCC
 * vector type `vec`: each 8-double block of v and of neu is held in
 * BLOCK / LANES vector locals, which stay in registers, and the path rows
 * pass through it one at a time, in path order: load the row's block,
 * neu += g * row, row += g * x, store the row. Then v = x + neu. Loads and
 * stores go through memcpy, which makes no alignment or aliasing claim. A
 * scalar g times a vector multiplies each lane by g, so every component
 * sees the operations of the node-by-node loop, in its order. The remaining
 * dims % 8 components run in a scalar loop. */
#define DEFINE_PATH_UPDATE(name, attributes, vec)                              \
    attributes static void name(UPDATE_PARAMS)                                 \
    {                                                                          \
        enum { LANES = sizeof(vec) / sizeof(double), NVEC = BLOCK / LANES };   \
        int64_t d = 0;                                                         \
        for (; d + BLOCK <= dims; d += BLOCK) {                                \
            vec x[NVEC], neu[NVEC];                                            \
            for (int k = 0; k < NVEC; k++) {                                   \
                memcpy(&x[k], v + d + k * LANES, sizeof(vec));                 \
                neu[k] = (vec){0};                                             \
            }                                                                  \
            for (int64_t p = 0; p < n; p++) {                                  \
                double *row = syn1 + points[p] * dims + d;                     \
                const double gp = g[p];                                        \
                for (int k = 0; k < NVEC; k++) {                               \
                    vec a;                                                     \
                    memcpy(&a, row + k * LANES, sizeof(vec));                  \
                    neu[k] += gp * a;                                          \
                    a += gp * x[k];                                            \
                    memcpy(row + k * LANES, &a, sizeof(vec));                  \
                }                                                              \
            }                                                                  \
            for (int k = 0; k < NVEC; k++) {                                   \
                const vec out = x[k] + neu[k];                                 \
                memcpy(v + d + k * LANES, &out, sizeof(vec));                  \
            }                                                                  \
        }                                                                      \
        for (; d < dims; d++) {                                                \
            const double x = v[d];                                             \
            double neu = 0.0;                                                  \
            for (int64_t p = 0; p < n; p++) {                                  \
                double *restrict l2 = syn1 + points[p] * dims + d;             \
                neu += g[p] * *l2;                                             \
                *l2 += g[p] * x;                                               \
            }                                                                  \
            v[d] = x + neu;                                                    \
        }                                                                      \
    }

/* The two copies of the update: 16-byte vectors for the build's baseline
 * instruction set, and 32-byte vectors compiled for AVX2, which only runs
 * where the CPU has it. Each copy needs its own width: without AVX, gcc
 * lowers a 32-byte vector into slow pieces. */
typedef double vec2 __attribute__((vector_size(16)));
typedef double vec4 __attribute__((vector_size(32)));
DEFINE_PATH_UPDATE(path_update_generic, , vec2)
DEFINE_PATH_UPDATE(path_update_avx2, TARGET_AVX2, vec4)

#define TRAIN_PARAMS \
    double *restrict syn0, double *restrict syn1, double *restrict scratch, int64_t dims, \
    const int64_t *tokens, const int64_t *sentence_offsets, int64_t n_sentences, \
    const int64_t *points, const double *one_minus_code, const int64_t *path_offsets, \
    int64_t iterations, int64_t window, double lr0, double lr_floor
#define TRAIN_ARGS \
    syn0, syn1, scratch, dims, tokens, sentence_offsets, n_sentences, \
    points, one_minus_code, path_offsets, iterations, window, lr0, lr_floor

/* The whole training with `update` as the update pass. Inlined into each
 * entry point below with a constant `update`, so that it makes a direct call. */
static inline __attribute__((always_inline)) void train(
    void (*update)(UPDATE_PARAMS), TRAIN_PARAMS)
{
    const double budget = (double)(iterations * sentence_offsets[n_sentences]);
    int64_t processed = 0;
    for (int64_t it = 0; it < iterations; it++) {
        for (int64_t s = 0; s < n_sentences; s++) {
            const int64_t *sent = tokens + sentence_offsets[s];
            const int64_t m = sentence_offsets[s + 1] - sentence_offsets[s];
            for (int64_t i = 0; i < m; i++) {
                double alpha = lr0 * (1.0 - (double)processed / budget);
                if (alpha < lr_floor)
                    alpha = lr_floor;
                processed++;
                const int64_t first = path_offsets[sent[i]];
                const int64_t n = path_offsets[sent[i] + 1] - first;
                if (n == 0)
                    continue;
                const int64_t *path = points + first;
                const double *omc = one_minus_code + first;
                const int64_t lo = i > window ? i - window : 0;
                const int64_t hi = i + window + 1 < m ? i + window + 1 : m;
                for (int64_t j = lo; j < hi; j++) {
                    if (j == i)
                        continue;
                    double *v = syn0 + sent[j] * dims;
                    path_dots(syn1, path, n, v, dims, scratch);
                    for (int64_t p = 0; p < n; p++)
                        scratch[p] = alpha * (omc[p] - 1.0 / (1.0 + exp(-scratch[p])));
                    update(syn1, path, n, scratch, v, dims);
                }
            }
        }
    }
}

/* The training with each copy of the update. Both are exported, so that the
 * tests can compare each one with the reference loop. */
void sv_skipgram_train_generic(TRAIN_PARAMS)
{
    train(path_update_generic, TRAIN_ARGS);
}

void sv_skipgram_train_avx2(TRAIN_PARAMS)
{
    train(path_update_avx2, TRAIN_ARGS);
}

/* Whether this CPU runs AVX2 instructions. */
int sv_skipgram_cpu_has_avx2(void)
{
    return CPU_HAS_AVX2() != 0;
}

typedef void train_fn(TRAIN_PARAMS);

/* The entry point that sv_skipgram_train runs on this CPU. */
train_fn *sv_skipgram_pick(void)
{
    return sv_skipgram_cpu_has_avx2() ? sv_skipgram_train_avx2 : sv_skipgram_train_generic;
}

void sv_skipgram_train(TRAIN_PARAMS)
{
    sv_skipgram_pick()(TRAIN_ARGS);
}
