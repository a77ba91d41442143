// Uniform without-replacement sampling of triangular pair indices: the
// max_pairs sample of BuildMatchingRelation and the tail stratum of the
// approximate matching build (approx/sampled_builder.h). Indices are drawn
// from {0, ..., total_pairs-1} minus a sorted exclusion list (the
// LSH-blocked near stratum, which is materialized exactly and must not
// be double-counted).
//
// The sample is defined by rejection: draw uniform indices from one
// seeded RNG stream and keep the first `target` distinct, non-excluded
// ones. Asking for the whole population enumerates the never-drawn
// remainder instead (rejection would pay a coupon-collector tail there).
//
// Memory: the drawn indices live in one of two forms, chosen by the
// target. A hash set costs about 40 B per drawn index whatever the
// population; a bitmap over the whole triangular index space costs
// total_pairs / 8 bytes. The bitmap is used once it costs at most 8 B
// per drawn index (target * 64 >= total_pairs), with the exclusions
// pre-marked in it so a draw tests one bit. Below that the set stays:
// at 100k rows a bitmap would take 625 MB. A sampler grown past the
// switch point moves its set into the bitmap and never switches back.
// Both forms keep the same draws, so the form never changes a sample.
//
// Determinism and growth: a given (total_pairs, exclusions, seed) always
// yields the same draw sequence, and growing the target only APPENDS
// draws — every index from a smaller target is kept (prefix property).
// The refinement driver relies on this to reuse already-computed pair
// levels across rounds instead of rebuilding the sample.

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
  // newly drawn indices, sorted ascending.
  std::vector<std::uint64_t> GrowTo(std::uint64_t target);

  // Pairs available to the tail stratum: total minus exclusions.
  std::uint64_t population() const { return population_; }

  // Pairs drawn so far.
  std::uint64_t sampled() const { return sampled_; }

  bool exhausted() const { return sampled_ == population_; }

  // Whether the drawn indices are held in the bitmap form.
  bool uses_bitmap() const { return !bits_.empty(); }

  // Heap bytes held between calls: the bitmap's words, or the exclusion
  // list plus the hash set's buckets and nodes. A GrowTo in bitmap form
  // also holds, while it runs, a second bitmap of its own draws.
  std::size_t MemoryUsageBytes() const;

 private:
  bool Excluded(std::uint64_t k) const;
  void SwitchToBitmap();
  void DrawIntoSet(std::uint64_t target, std::vector<std::uint64_t>* fresh);
  void DrawIntoBitmap(std::uint64_t target, std::vector<std::uint64_t>* fresh);
  void EnumerateRest(std::vector<std::uint64_t>* fresh);

  std::uint64_t total_pairs_;
  std::uint64_t population_;
  std::uint64_t sampled_ = 0;
  Rng rng_;
  // Set form: the exclusions (sorted) and the drawn indices. Both are
  // released on the switch to the bitmap.
  std::vector<std::uint64_t> excluded_;
  std::unordered_set<std::uint64_t> chosen_;
  // Bitmap form: bit k is set when index k is excluded or drawn.
  std::vector<std::uint64_t> bits_;
};

}  // namespace dd

#endif  // DD_MATCHING_PAIR_SAMPLER_H_
