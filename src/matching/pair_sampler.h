// Uniform without-replacement sampling of triangular pair indices: the
// max_pairs sample of BuildMatchingRelation and the tail stratum of the
// approximate matching build (approx/sampled_builder.h). Indices are drawn
// from {0, ..., total_pairs-1} minus a sorted exclusion list (the
// LSH-blocked near stratum, which is materialized exactly and must not
// be double-counted).
//
// Determinism and growth: the sampler owns one seeded RNG stream, so a
// given (total_pairs, exclusions, seed) always yields the same draw
// sequence, and growing the target only APPENDS draws — every index
// from a smaller target is kept (prefix property). The refinement
// driver relies on this to reuse already-computed pair levels across
// rounds instead of rebuilding the sample.

#ifndef DD_MATCHING_PAIR_SAMPLER_H_
#define DD_MATCHING_PAIR_SAMPLER_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace dd {

class PairSampler {
 public:
  // `excluded` must be sorted ascending and duplicate-free; every entry
  // must be < total_pairs.
  PairSampler(std::uint64_t total_pairs, std::uint64_t seed,
              std::vector<std::uint64_t> excluded);

  // Draws until `target` indices are held in total (clamped to
  // population(); no-op when already reached) and returns ONLY the
  // newly drawn indices, sorted ascending. Rejection-samples while the
  // target is a minority of the population; switches to exhaustive
  // enumeration of the never-drawn remainder when asked for everything
  // (the fraction-1.0 path, where rejection would never terminate in
  // reasonable time).
  std::vector<std::uint64_t> GrowTo(std::uint64_t target);

  // Pairs available to the tail stratum: total minus exclusions.
  std::uint64_t population() const { return population_; }

  // Pairs drawn so far.
  std::uint64_t sampled() const { return sampled_; }

  bool exhausted() const { return sampled_ == population_; }

  std::size_t MemoryUsageBytes() const;

 private:
  bool Excluded(std::uint64_t k) const;

  std::uint64_t total_pairs_;
  std::uint64_t population_;
  std::uint64_t sampled_ = 0;
  Rng rng_;
  std::vector<std::uint64_t> excluded_;  // sorted
  std::unordered_set<std::uint64_t> chosen_;
};

}  // namespace dd

#endif  // DD_MATCHING_PAIR_SAMPLER_H_
