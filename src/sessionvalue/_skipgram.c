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
 *   - update: blocked over d, 8 components at a time plus a scalar tail, with
 *     the path nodes inner. neu[d] starts from 0.0 and adds g_p * l2_p[d] in
 *     path order, each row read before its own update. As the rows are
 *     distinct, no node sees another node's update, which is the value the
 *     node-by-node loop reads too. Each row then takes l2_p[d] += g_p * v[d]
 *     from the unchanged v, and finally v[d] += neu[d].
 * tests/skipgram_reference.c keeps the node-by-node loop as the oracle that
 * tests/test_kernel.py compares bit for bit with this one.
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

/* The update of one (center, context) step: g holds the path's gradients
 * and v is the context's row of syn0. The block's neu and v stay in two
 * 8-entry local arrays, and each pass over them takes two path rows, in path
 * order, so neu is loaded and stored once per two rows. The loop over the
 * block is kept a loop, so that the compiler turns it into 2-wide vector
 * operations, which are exact lane by lane; fully unrolled, it stays scalar
 * (measured slower). */
static void path_update(
    double *restrict syn1, const int64_t *points, int64_t n,
    const double *restrict g, double *restrict v, int64_t dims)
{
    int64_t d = 0;
    for (; d + BLOCK <= dims; d += BLOCK) {
        double x[BLOCK], neu[BLOCK];
        for (int k = 0; k < BLOCK; k++) {
            x[k] = v[d + k];
            neu[k] = 0.0;
        }
        int64_t p = 0;
        for (; p + 2 <= n; p += 2) {
            double *restrict a = syn1 + points[p] * dims + d;
            double *restrict b = syn1 + points[p + 1] * dims + d;
            const double ga = g[p], gb = g[p + 1];
#pragma GCC unroll 1
            for (int k = 0; k < BLOCK; k++) {
                neu[k] += ga * a[k];
                a[k] += ga * x[k];
                neu[k] += gb * b[k];
                b[k] += gb * x[k];
            }
        }
        if (p < n) {
            double *restrict l2 = syn1 + points[p] * dims + d;
            const double gp = g[p];
#pragma GCC unroll 1
            for (int k = 0; k < BLOCK; k++) {
                neu[k] += gp * l2[k];
                l2[k] += gp * x[k];
            }
        }
        for (int k = 0; k < BLOCK; k++)
            v[d + k] = x[k] + neu[k];
    }
    for (; d < dims; d++) {
        const double x = v[d];
        double neu = 0.0;
        for (int64_t p = 0; p < n; p++) {
            double *restrict l2 = syn1 + points[p] * dims + d;
            neu += g[p] * *l2;
            *l2 += g[p] * x;
        }
        v[d] = x + neu;
    }
}

void sv_skipgram_train(
    double *restrict syn0, double *restrict syn1, double *restrict scratch, int64_t dims,
    const int64_t *tokens, const int64_t *sentence_offsets, int64_t n_sentences,
    const int64_t *points, const double *one_minus_code, const int64_t *path_offsets,
    int64_t iterations, int64_t window, double lr0, double lr_floor)
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
                    path_update(syn1, path, n, scratch, v, dims);
                }
            }
        }
    }
}
