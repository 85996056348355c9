/* The node-by-node skip-gram loop, kept as the bitwise oracle of
 * src/sessionvalue/_skipgram.c (see tests/test_kernel.py). It is the loop of
 * the reference word2vec trainer (Mikolov et al. 2013) over a
 * hierarchical-softmax output, with the same entry point and arguments as the
 * production kernel, except that the scratch argument is neu, dims doubles.
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
 * Layout: syn0 is n_entries x dims and syn1 is (n_entries - 1) x dims, both
 * row-major. Sentence s is tokens[sentence_offsets[s] .. sentence_offsets[s+1]).
 * Entry w's path is points[path_offsets[w] .. path_offsets[w+1]), with
 * one_minus_code holding 1 - code for the same positions. neu is scratch of
 * dims doubles. The caller guarantees every index is in range.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

void sv_skipgram_train(
    double *syn0, double *syn1, double *neu, int64_t dims,
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
                const int64_t last = path_offsets[sent[i] + 1];
                if (first == last)
                    continue;
                const int64_t lo = i > window ? i - window : 0;
                const int64_t hi = i + window + 1 < m ? i + window + 1 : m;
                for (int64_t j = lo; j < hi; j++) {
                    if (j == i)
                        continue;
                    double *v = syn0 + sent[j] * dims;
                    memset(neu, 0, (size_t)dims * sizeof(double));
                    for (int64_t p = first; p < last; p++) {
                        double *l2 = syn1 + points[p] * dims;
                        double f = 0.0;
                        for (int64_t d = 0; d < dims; d++)
                            f += l2[d] * v[d];
                        const double g = alpha * (one_minus_code[p] - 1.0 / (1.0 + exp(-f)));
                        for (int64_t d = 0; d < dims; d++) {
                            neu[d] += g * l2[d];
                            l2[d] += g * v[d];
                        }
                    }
                    for (int64_t d = 0; d < dims; d++)
                        v[d] += neu[d];
                }
            }
        }
    }
}
