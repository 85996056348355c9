/* The training loop of embed.train: skip-gram over a hierarchical-softmax
 * output, the loop of the reference word2vec trainer (Mikolov et al. 2013).
 *
 * One call runs every iteration over every sentence. For each center token
 * with a non-empty Huffman path, every other token in its window takes one
 * gradient step against the center's path rows of syn1, in window order.
 * The learning rate decays linearly per center token down to lr_floor. The
 * call returns its node steps: one per (center, context, path node), so a
 * center with n path nodes and c contexts in its window adds n * c.
 *
 * These rules keep the model dump byte-identical to the numpy trainer
 * (tests/oracles.py) after rounding:
 *   - every dot product is summed in the lane order: lane k (k = 0..7) starts
 *     at 0.0 and adds l2[d] * v[d] for every d = k (mod 8) below
 *     dims - dims % 8, in increasing d; then
 *     f = ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)), and the
 *     dims % 8 tail components are added one at a time, in d order. Below
 *     8 dimensions this is a sequential sum;
 *   - neu is accumulated from a path row before that row is updated;
 *   - the logistic function is 1 / (1 + exp(-f));
 *   - the build disables floating-point contraction (no fused multiply-add)
 *     and never reassociates (no -ffast-math);
 *   - syn1 rows are updated in place, which is exact because a Huffman path
 *     never visits a node twice.
 * The numpy trainer's matrix products (BLAS calls) sum in orders of their
 * own, so the unrounded vectors of the two differ in the last bits, far below
 * the rounding (tests/test_kernel.py measures how far).
 *
 * The reference trainer takes a (center, context) step node by node: dot,
 * gradient, then the update of neu and of the node's row. This loop does the
 * same float operations on the same operands, and every value is summed in
 * the same order, but the work that does not depend on other work overlaps:
 *   - dots: the context vector v changes only once the whole path is done,
 *     each path row is read before it is written, and a path never repeats a
 *     node. So the dots f_p = l2_p . v of all path nodes are independent.
 *     The path's nodes go in groups that share each pass over v, and each
 *     node's 8 lanes are vector locals;
 *   - gradients: g_p = alpha * (1 - code_p - 1 / (1 + exp(-f_p))), unchanged;
 *   - update: in sweeps over d. A sweep holds its components of v and of neu
 *     in vector registers while the path rows pass through one at a time, in
 *     path order. neu starts from 0.0 and adds g_p * l2_p[d], each row read
 *     before its own update. As the rows are distinct, no node sees another
 *     node's update, which is the value the node-by-node loop reads too.
 *     Each row then takes l2_p[d] += g_p * v[d] from the unchanged v, and
 *     finally v[d] += neu[d]. A sweep covers SWEEP 8-double blocks while they
 *     fit, then one block, then the dims % 8 tail one component at a time.
 *     Every component gets the same operations in the same order in any
 *     sweep, so SWEEP changes no bit. With one block per sweep, each vector
 *     of neu is one chain of n dependent adds; more blocks give independent
 *     chains that overlap. The AVX-512 copy takes 5 blocks (40 doubles, so
 *     200 dimensions are exactly 5 sweeps): its 32 registers hold 10 vectors
 *     of v and neu. The AVX2 copy keeps one block, because 2 or 3 blocks per
 *     sweep made it slower. The generic copy keeps one block: one block
 *     already takes 8 of its 16 SSE registers for v and neu.
 * tests/skipgram_reference.c keeps the node-by-node loop, with the lane-order
 * dot written as a plain scalar loop, as the oracle that tests/test_kernel.py
 * compares bit for bit with this one.
 *
 * Both passes are written once with GCC vector types and defined three
 * times: a generic copy with 16-byte vectors (four per 8-double block), a
 * copy compiled with target("avx2") with 32-byte vectors (two per block) and
 * a copy compiled with target("avx512f") with 64-byte vectors (one per
 * block). The lane order is what adding vector halves gives, so the three
 * copies compute the same bits. sv_skipgram_train runs the AVX-512 copy when
 * __builtin_cpu_supports says the CPU has AVX-512F, else the AVX2 copy when
 * it has AVX2, else the generic copy; each is also exported as its own entry
 * point. The bits hold because -ffp-contract=off keeps every multiply and
 * add apart in every copy (AVX-512F has fused multiply-add instructions, but
 * nothing contracts into them) and no sum is reassociated: a vector
 * operation does the same IEEE operation lane by lane, on the same operands
 * in the same order.
 * No -mavx2, -mavx512f or -march flag is used, so the build still runs on a
 * CPU without them. The update takes most of a training's time, then the
 * dots, then libm's exp.
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

/* AVX2, AVX-512 and the CPU checks exist on x86 only. Elsewhere the AVX2 and
 * AVX-512 copies below are more generic copies, which the dispatch never
 * picks. */
#if defined(__x86_64__) || defined(__i386__)
#define TARGET_AVX2 __attribute__((target("avx2")))
#define TARGET_AVX512 __attribute__((target("avx512f")))
#define CPU_HAS(feature) (__builtin_cpu_init(), __builtin_cpu_supports(feature))
#else
#define TARGET_AVX2
#define TARGET_AVX512
#define CPU_HAS(feature) 0
#endif

#define DOTS_PARAMS \
    const double *restrict syn1, const int64_t *points, int64_t n, \
    const double *restrict v, int64_t dims, double *restrict f

/* f[p] = syn1[points[p]] . v for every node of the path, in the lane order:
 * lane k of the BLOCK lanes starts at 0.0 and adds row[d] * v[d] for every
 * d = k (mod BLOCK) below dims - dims % BLOCK, in increasing d; then
 * f = ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)), and the tail
 * components are added one at a time, in d order. The lanes are BLOCK / LANES
 * vector locals of the GCC vector type `vec`, so each copy adds the same
 * operands in the same order whatever its width. NODES nodes share each pass
 * over v, so that their chains of adds overlap; in the last group, the nodes
 * past the path's end read the group's first row, and their sums are
 * dropped. A pass holds NODES x NVEC accumulators and NVEC vectors of v:
 * 4 nodes in the wider copies, 2 in the generic copy, where 4 would spill
 * accumulators out of its 16 SSE registers. */
#define DEFINE_PATH_DOTS(name, attributes, vec)                                \
    attributes static void name(DOTS_PARAMS)                                   \
    {                                                                          \
        enum { LANES = sizeof(vec) / sizeof(double), NVEC = BLOCK / LANES };   \
        enum { NODES = NVEC > 2 ? 2 : 4 };                                     \
        const int64_t body = dims - dims % BLOCK;                              \
        for (int64_t p = 0; p < n; p += NODES) {                               \
            const double *row[NODES];                                          \
            vec acc[NODES][NVEC];                                              \
            for (int j = 0; j < NODES; j++) {                                  \
                row[j] = syn1 + points[p + j < n ? p + j : p] * dims;          \
                for (int k = 0; k < NVEC; k++)                                 \
                    acc[j][k] = (vec){0};                                      \
            }                                                                  \
            for (int64_t d = 0; d < body; d += BLOCK) {                        \
                vec x[NVEC];                                                   \
                for (int k = 0; k < NVEC; k++)                                 \
                    memcpy(&x[k], v + d + k * LANES, sizeof(vec));             \
                for (int j = 0; j < NODES; j++)                                \
                    for (int k = 0; k < NVEC; k++) {                           \
                        vec a;                                                 \
                        memcpy(&a, row[j] + d + k * LANES, sizeof(vec));       \
                        acc[j][k] += a * x[k];                                 \
                    }                                                          \
            }                                                                  \
            for (int j = 0; j < NODES && p + j < n; j++) {                     \
                double l[BLOCK];                                               \
                memcpy(l, acc[j], sizeof(l));                                  \
                double s = ((l[0] + l[4]) + (l[2] + l[6]))                     \
                         + ((l[1] + l[5]) + (l[3] + l[7]));                    \
                for (int64_t d = body; d < dims; d++)                          \
                    s += row[j][d] * v[d];                                     \
                f[p + j] = s;                                                  \
            }                                                                  \
        }                                                                      \
    }

#define UPDATE_PARAMS \
    double *restrict syn1, const int64_t *points, int64_t n, \
    const double *restrict g, double *restrict v, int64_t dims

/* One sweep of the update over the W vectors of type T that start at
 * component d: the W vectors of v and of neu stay in registers, and the path
 * rows pass through them one at a time, in path order: load the row's
 * vectors, neu += g * row, row += g * x, store them. Then v = x + neu, and d
 * moves past the sweep. Loads and stores go through memcpy, which makes no
 * alignment or aliasing claim. A scalar g times a vector multiplies each lane
 * by g, so every component sees the operations of the node-by-node loop, in
 * its order, whatever T and W are. */
#define UPDATE_SWEEP(T, W)                                                     \
    do {                                                                       \
        enum { L = sizeof(T) / sizeof(double) };                               \
        T x[W], neu[W];                                                        \
        for (int k = 0; k < (W); k++) {                                        \
            memcpy(&x[k], v + d + k * L, sizeof(T));                           \
            neu[k] = (T){0};                                                   \
        }                                                                      \
        for (int64_t p = 0; p < n; p++) {                                      \
            double *row = syn1 + points[p] * dims + d;                         \
            const double gp = g[p];                                            \
            for (int k = 0; k < (W); k++) {                                    \
                T a;                                                           \
                memcpy(&a, row + k * L, sizeof(T));                            \
                neu[k] += gp * a;                                              \
                a += gp * x[k];                                                \
                memcpy(row + k * L, &a, sizeof(T));                            \
            }                                                                  \
        }                                                                      \
        for (int k = 0; k < (W); k++) {                                        \
            const T out = x[k] + neu[k];                                       \
            memcpy(v + d + k * L, &out, sizeof(T));                            \
        }                                                                      \
        d += (W) * L;                                                          \
    } while (0)

/* The update of one (center, context) step: g holds the path's gradients
 * and v is the context's row of syn0. One body, defined three times with the
 * GCC vector type `vec` and SWEEP, the number of 8-double blocks per sweep
 * over the path rows: sweeps of SWEEP blocks while they fit, then one block
 * at a time, then the dims % 8 tail one component at a time. Each component
 * is in exactly one sweep, so the bits do not depend on SWEEP (see the
 * header for the counts each copy uses). */
#define DEFINE_PATH_UPDATE(name, attributes, vec, SWEEP)                       \
    attributes static void name(UPDATE_PARAMS)                                 \
    {                                                                          \
        enum { NVEC = BLOCK / (sizeof(vec) / sizeof(double)) };                \
        int64_t d = 0;                                                         \
        while (d + (SWEEP) * BLOCK <= dims)                                    \
            UPDATE_SWEEP(vec, (SWEEP) * NVEC);                                 \
        while (d + BLOCK <= dims)                                              \
            UPDATE_SWEEP(vec, NVEC);                                           \
        while (d < dims)                                                       \
            UPDATE_SWEEP(double, 1);                                           \
    }

/* The three copies of both passes: 16-byte vectors for the build's baseline
 * instruction set, 32-byte vectors compiled for AVX2 and 64-byte vectors
 * compiled for AVX-512, each of which only runs where the CPU has it. Each
 * copy needs its own width: without AVX, gcc lowers a 32-byte vector into
 * slow pieces. */
typedef double vec2 __attribute__((vector_size(16)));
typedef double vec4 __attribute__((vector_size(32)));
typedef double vec8 __attribute__((vector_size(64)));
DEFINE_PATH_DOTS(path_dots_generic, , vec2)
DEFINE_PATH_DOTS(path_dots_avx2, TARGET_AVX2, vec4)
DEFINE_PATH_DOTS(path_dots_avx512, TARGET_AVX512, vec8)
DEFINE_PATH_UPDATE(path_update_generic, , vec2, 1)
DEFINE_PATH_UPDATE(path_update_avx2, TARGET_AVX2, vec4, 1)
DEFINE_PATH_UPDATE(path_update_avx512, TARGET_AVX512, vec8, 5)

#define TRAIN_PARAMS \
    double *restrict syn0, double *restrict syn1, double *restrict scratch, int64_t dims, \
    const int64_t *tokens, const int64_t *sentence_offsets, int64_t n_sentences, \
    const int64_t *points, const double *one_minus_code, const int64_t *path_offsets, \
    int64_t iterations, int64_t window, double lr0, double lr_floor
#define TRAIN_ARGS \
    syn0, syn1, scratch, dims, tokens, sentence_offsets, n_sentences, \
    points, one_minus_code, path_offsets, iterations, window, lr0, lr_floor

/* The whole training with `dots` and `update` as its passes, returning its
 * node steps. Inlined into each entry point below with constant passes, so
 * that it makes direct calls. */
static inline __attribute__((always_inline)) int64_t train(
    void (*dots)(DOTS_PARAMS), void (*update)(UPDATE_PARAMS), TRAIN_PARAMS)
{
    const double budget = (double)(iterations * sentence_offsets[n_sentences]);
    int64_t processed = 0, steps = 0;
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
                steps += n * (hi - lo - 1);
                for (int64_t j = lo; j < hi; j++) {
                    if (j == i)
                        continue;
                    double *v = syn0 + sent[j] * dims;
                    dots(syn1, path, n, v, dims, scratch);
                    for (int64_t p = 0; p < n; p++)
                        scratch[p] = alpha * (omc[p] - 1.0 / (1.0 + exp(-scratch[p])));
                    update(syn1, path, n, scratch, v, dims);
                }
            }
        }
    }
    return steps;
}

/* The training with each copy of the passes. All three are exported, so that
 * the tests can compare each one with the reference loop. */
int64_t sv_skipgram_train_generic(TRAIN_PARAMS)
{
    return train(path_dots_generic, path_update_generic, TRAIN_ARGS);
}

int64_t sv_skipgram_train_avx2(TRAIN_PARAMS)
{
    return train(path_dots_avx2, path_update_avx2, TRAIN_ARGS);
}

int64_t sv_skipgram_train_avx512(TRAIN_PARAMS)
{
    return train(path_dots_avx512, path_update_avx512, TRAIN_ARGS);
}

/* Whether this CPU runs AVX2 instructions. */
int sv_skipgram_cpu_has_avx2(void)
{
    return CPU_HAS("avx2") != 0;
}

/* Whether this CPU (and its operating system) runs AVX-512F instructions. */
int sv_skipgram_cpu_has_avx512(void)
{
    return CPU_HAS("avx512f") != 0;
}

typedef int64_t train_fn(TRAIN_PARAMS);

/* The entry point that sv_skipgram_train runs on this CPU: the widest copy
 * it runs. */
train_fn *sv_skipgram_pick(void)
{
    if (sv_skipgram_cpu_has_avx512())
        return sv_skipgram_train_avx512;
    if (sv_skipgram_cpu_has_avx2())
        return sv_skipgram_train_avx2;
    return sv_skipgram_train_generic;
}

int64_t sv_skipgram_train(TRAIN_PARAMS)
{
    return sv_skipgram_pick()(TRAIN_ARGS);
}
