// Stratified sampled matching build — the tentpole of the approximate
// determination subsystem. Instead of materializing all N(N-1)/2
// matching tuples, it materializes two strata:
//
//   near — every LSH-blocked candidate near pair (lsh_index.h),
//          computed EXACTLY and weighted 1. This keeps the rare low-
//          level cells that dominate confidence/quality exact.
//   tail — a uniform without-replacement sample of the remaining pairs
//          (matching/pair_sampler.h), weighted tail_population /
//          tail_sampled by the approx provider.
//
// Both strata are filled by the exact build's sampled-pair materializer
// (FillSampledPairs over one PairLevelSource, matching/builder.h),
// parallelized over the shared worker pool with bit-identical results
// at any thread count (the pair sets are fixed before any parallel work
// starts, and rows are written by global index). Growing the tail
// sample APPENDS rows — previously computed levels are never recomputed
// or moved.

#ifndef DD_APPROX_SAMPLED_BUILDER_H_
#define DD_APPROX_SAMPLED_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "approx/lsh_index.h"
#include "common/result.h"
#include "data/relation.h"
#include "matching/builder.h"
#include "matching/matching_relation.h"
#include "matching/pair_sampler.h"

namespace dd::approx {

// Knobs of the approximate determination pipeline. `matching`-level
// options (dmax, metrics, threads) ride along in the MatchingOptions
// passed next to this.
struct ApproxOptions {
  // Initial tail sample size in pairs; the refinement driver grows it
  // geometrically from here. Clamped to the tail population.
  std::uint64_t sample_target = 100000;

  // Refinement convergence slack: the top-l ranking counts as settled
  // when the l-th utility lower bound clears the runner-up's upper
  // bound minus epsilon (refine.h).
  double epsilon = 0.01;

  // Seed of the tail pair sample (independent of MatchingOptions::seed,
  // which governs the exact builder's plain max_pairs sampling).
  std::uint64_t seed = 7;

  // Round cap of the refinement driver, which doubles the tail sample
  // each round (refine.cc).
  std::size_t max_rounds = 6;

  // Near-stratum LSH blocking (lsh_index.h); false means pure uniform
  // sampling.
  bool blocking = true;
};

class SampledMatchingBuilder {
 public:
  // Builds both strata at approx.sample_target tail pairs. `relation`
  // must outlive the returned builder. matching.max_pairs must be 0 —
  // the tail target already bounds |M|.
  static Result<std::unique_ptr<SampledMatchingBuilder>> Build(
      const Relation& relation, const std::vector<std::string>& attributes,
      const MatchingOptions& matching, const ApproxOptions& approx);

  const MatchingRelation& near() const { return near_; }
  const MatchingRelation& tail() const { return tail_; }
  int dmax() const { return near_.dmax(); }

  std::uint64_t total_pairs() const { return total_pairs_; }
  std::uint64_t near_pairs() const { return near_.num_tuples(); }
  std::uint64_t tail_population() const {
    return total_pairs_ - near_pairs();
  }
  std::uint64_t tail_sampled() const { return tail_.num_tuples(); }

  // True when every pair is materialized (near + full tail): estimates
  // degenerate to exact counts and intervals to zero width.
  bool exhaustive() const {
    return near_pairs() + tail_sampled() == total_pairs_;
  }

  // Materialized fraction of the pair population, in [0, 1].
  double sample_fraction() const;

  const LshStats& lsh_stats() const { return lsh_stats_; }

  // Grows the tail sample to `target` pairs (clamped to the tail
  // population; no-op when already reached), appending the new rows.
  // Returns the number of rows appended.
  std::uint64_t GrowTo(std::uint64_t target);

  // Heap bytes across both strata, the sampler state, and the value
  // cache; feeds the mem.approx_bytes gauge.
  std::size_t MemoryUsageBytes() const;

 private:
  SampledMatchingBuilder(std::vector<std::string> attributes, int dmax)
      : near_(attributes, dmax), tail_(attributes, dmax) {}

  std::unique_ptr<ResolvedMetrics> resolved_;
  std::unique_ptr<PairLevelSource> source_;
  std::unique_ptr<PairSampler> sampler_;
  std::uint64_t num_rows_ = 0;
  std::uint64_t total_pairs_ = 0;
  std::size_t threads_ = 0;
  MatchingRelation near_;
  MatchingRelation tail_;
  LshStats lsh_stats_;
};

}  // namespace dd::approx

#endif  // DD_APPROX_SAMPLED_BUILDER_H_
