#include "matching/pair_sampler.h"

#include <algorithm>

#include "common/logging.h"

namespace dd {

PairSampler::PairSampler(std::uint64_t total_pairs, std::uint64_t seed,
                         std::vector<std::uint64_t> excluded)
    : total_pairs_(total_pairs),
      population_(total_pairs - excluded.size()),
      rng_(seed),
      excluded_(std::move(excluded)) {
  DD_CHECK_LE(excluded_.size(), total_pairs_);
}

bool PairSampler::Excluded(std::uint64_t k) const {
  return std::binary_search(excluded_.begin(), excluded_.end(), k);
}

std::vector<std::uint64_t> PairSampler::GrowTo(std::uint64_t target) {
  target = std::min(target, population_);
  std::vector<std::uint64_t> fresh;
  if (target <= sampled_) return fresh;
  fresh.reserve(target - sampled_);

  // Rejection stays cheap while some pairs remain undrawn; asking for
  // the WHOLE population makes its tail a coupon-collector blowup, so
  // that case enumerates instead.
  const bool enumerate = target == population_;
  if (!enumerate) {
    chosen_.reserve(target * 2);
    while (sampled_ < target) {
      const std::uint64_t k = rng_.NextBounded(total_pairs_);
      if (Excluded(k)) continue;
      if (!chosen_.insert(k).second) continue;
      fresh.push_back(k);
      ++sampled_;
    }
  } else {
    // The fraction-1.0 path: take every not-yet-drawn tail index, in
    // order. No RNG involvement, so a full sample is the same set
    // whatever the growth schedule that led here.
    for (std::uint64_t k = 0; k < total_pairs_ && sampled_ < target; ++k) {
      if (Excluded(k)) continue;
      if (chosen_.count(k) != 0) continue;
      fresh.push_back(k);
      ++sampled_;
    }
    chosen_.insert(fresh.begin(), fresh.end());
  }
  std::sort(fresh.begin(), fresh.end());
  return fresh;
}

std::size_t PairSampler::MemoryUsageBytes() const {
  return excluded_.capacity() * sizeof(std::uint64_t) +
         chosen_.size() * (sizeof(std::uint64_t) + sizeof(void*) * 2);
}

}  // namespace dd
