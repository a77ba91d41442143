#include "matching/pair_sampler.h"

#include <algorithm>
#include <bit>

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
  // target * 64 >= total_pairs, without the overflow.
  if (!uses_bitmap() && target >= (total_pairs_ + 63) / 64) SwitchToBitmap();
  if (target == population_) {
    EnumerateRest(&fresh);
  } else if (uses_bitmap()) {
    DrawIntoBitmap(target, &fresh);
  } else {
    DrawIntoSet(target, &fresh);
  }
  return fresh;
}

void PairSampler::SwitchToBitmap() {
  bits_.assign((total_pairs_ + 63) / 64, 0);
  auto mark = [this](std::uint64_t k) {
    bits_[k >> 6] |= std::uint64_t{1} << (k & 63);
  };
  for (const std::uint64_t k : excluded_) mark(k);
  for (const std::uint64_t k : chosen_) mark(k);
  std::vector<std::uint64_t>().swap(excluded_);
  std::unordered_set<std::uint64_t>().swap(chosen_);
}

void PairSampler::DrawIntoSet(std::uint64_t target,
                              std::vector<std::uint64_t>* fresh) {
  chosen_.reserve(target);
  while (sampled_ < target) {
    const std::uint64_t k = rng_.NextBounded(total_pairs_);
    if (Excluded(k)) continue;
    if (!chosen_.insert(k).second) continue;
    fresh->push_back(k);
    ++sampled_;
  }
  std::sort(fresh->begin(), fresh->end());
}

void PairSampler::DrawIntoBitmap(std::uint64_t target,
                                 std::vector<std::uint64_t>* fresh) {
  // This call's draws, so that they come out ascending from one scan.
  std::vector<std::uint64_t> drawn(bits_.size(), 0);
  // The loop works on local copies: a store through a bitmap word could
  // otherwise alias the members, and every draw would reload the RNG
  // state and redo NextBounded's divisions.
  Rng rng = rng_;
  const std::uint64_t total = total_pairs_;
  std::uint64_t* const bits = bits_.data();
  std::uint64_t* const fresh_bits = drawn.data();
  std::uint64_t sampled = sampled_;
  while (sampled < target) {
    const std::uint64_t k = rng.NextBounded(total);
    const std::uint64_t bit = std::uint64_t{1} << (k & 63);
    // Zero when k is excluded or drawn before. Branch-free: whether a
    // draw is new cannot be predicted.
    const std::uint64_t is_new = ~bits[k >> 6] & bit;
    bits[k >> 6] |= bit;
    fresh_bits[k >> 6] |= is_new;
    sampled += is_new != 0 ? 1 : 0;
  }
  rng_ = rng;
  sampled_ = sampled;
  for (std::size_t w = 0; w < drawn.size(); ++w) {
    for (std::uint64_t word = drawn[w]; word != 0; word &= word - 1) {
      fresh->push_back(w * 64 + std::countr_zero(word));
    }
  }
}

// The fraction-1.0 path: take every not-yet-drawn index, in order. No
// RNG involvement, so a full sample is the same set whatever the growth
// schedule that led here.
void PairSampler::EnumerateRest(std::vector<std::uint64_t>* fresh) {
  if (uses_bitmap()) {
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      std::uint64_t rest = ~bits_[w];
      if (w + 1 == bits_.size() && total_pairs_ % 64 != 0) {
        rest &= (std::uint64_t{1} << (total_pairs_ % 64)) - 1;
      }
      for (; rest != 0; rest &= rest - 1) {
        fresh->push_back(w * 64 + std::countr_zero(rest));
      }
      bits_[w] = ~std::uint64_t{0};
    }
  } else {
    for (std::uint64_t k = 0; k < total_pairs_; ++k) {
      if (Excluded(k) || chosen_.count(k) != 0) continue;
      fresh->push_back(k);
    }
    chosen_.insert(fresh->begin(), fresh->end());
  }
  sampled_ = population_;
}

std::size_t PairSampler::MemoryUsageBytes() const {
  if (uses_bitmap()) return bits_.capacity() * sizeof(std::uint64_t);
  // A node holds the next pointer and the index.
  return excluded_.capacity() * sizeof(std::uint64_t) +
         chosen_.bucket_count() * sizeof(void*) +
         chosen_.size() * (sizeof(void*) + sizeof(std::uint64_t));
}

}  // namespace dd
