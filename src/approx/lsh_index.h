// Near-pair candidate generation for the stratified approximate build:
// enumerates row pairs likely to sit in the low-level (small-distance)
// cells of the matching relation, so those influential-but-rare pairs
// are counted exactly while the uniform tail sample covers the rest.
//
// Correctness note (why this can be aggressive): stratified estimation
// is valid for ANY near stratum — the tail sampler excludes exactly the
// surfaced pairs and the estimator weights the remainder, so blocking
// recall affects only estimator VARIANCE, never its validity. Caps,
// bucket skips, and family heuristics below are therefore safe; what is
// dropped is counted in LshStats and the approx.blocking_dropped
// counter instead of silently vanishing.
//
// Schemes by BlockingFamily (metric/metric.h):
//  * kTokenSet  — minhash banding over whitespace token sets.
//  * kQGram     — minhash banding over the value's q-gram set.
//  * kEdit      — minhash banding over 2-grams, with a length bucket
//                 folded into each band key (|len(a)-len(b)| lower-
//                 bounds edit distance, so distant length buckets can
//                 never be near); adjacent buckets are bridged by
//                 emitting each value into its own and the next bucket.
//  * kNumeric   — sort distinct values, pair each with its
//                 kNumericWindow nearest neighbors.
//  * kNone      — the attribute contributes no candidates.
//
// Everything operates on distinct values (matching/value_cache.h
// interning) and expands value-id pairs to row pairs at the end; all
// hashing is seeded and the output is a sorted, deduplicated, capped
// list of triangular pair indices — deterministic for a given relation
// and options at any thread count.

#ifndef DD_APPROX_LSH_INDEX_H_
#define DD_APPROX_LSH_INDEX_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "matching/builder.h"

namespace dd::approx {

struct LshStats {
  std::uint64_t candidate_pairs = 0;  // surfaced (post-dedup, pre-cap)
  std::uint64_t dropped = 0;          // cut by the pair cap / expansion cap
  std::uint64_t skipped_buckets = 0;  // buckets over the bucket cap
};

// Collects candidate near row pairs across all attributes of
// `resolved`, as sorted unique triangular indices over
// relation.num_rows() rows. The banding shape, the caps and the hash
// seed are fixed constants of lsh_index.cc. `stats` may be null.
std::vector<std::uint64_t> CollectNearPairs(const Relation& relation,
                                            const ResolvedMetrics& resolved,
                                            LshStats* stats);

}  // namespace dd::approx

#endif  // DD_APPROX_LSH_INDEX_H_
