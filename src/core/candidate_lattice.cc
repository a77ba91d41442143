#include "core/candidate_lattice.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace dd {

const char* ProcessingOrderName(ProcessingOrder order) {
  switch (order) {
    case ProcessingOrder::kMidFirst:
      return "mid-first";
    case ProcessingOrder::kTopFirst:
      return "top-first";
    case ProcessingOrder::kBottomFirst:
      return "bottom-first";
    case ProcessingOrder::kLexicographic:
      return "lexicographic";
  }
  return "unknown";
}

namespace {

std::size_t LatticeSize(std::size_t dims, int dmax) {
  std::size_t size = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    size *= static_cast<std::size_t>(dmax) + 1;
  }
  return size;
}

}  // namespace

CandidateLattice::CandidateLattice(std::size_t dims, int dmax)
    : dims_(dims), dmax_(dmax), cursor_(dims, 0), reach_(dims, 0) {
  DD_CHECK_GE(dims, 1u);
  DD_CHECK_GE(dmax, 1);
  const std::size_t size = LatticeSize(dims, dmax);
  DD_CHECK_LE(size, std::size_t{1} << 28);  // Guard runaway lattices.
  strides_.resize(dims);
  std::size_t stride = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    strides_[d] = stride;
    stride *= static_cast<std::size_t>(dmax) + 1;
  }
  alive_.assign(size, 1);
  alive_count_ = size;
}

void CandidateLattice::Reset() {
  std::fill(alive_.begin(), alive_.end(), 1);
  alive_count_ = alive_.size();
}

bool CandidateLattice::Kill(std::size_t idx) {
  DD_CHECK_LT(idx, alive_.size());
  if (alive_[idx] == 0) return false;
  alive_[idx] = 0;
  --alive_count_;
  return true;
}

Levels CandidateLattice::LevelsOf(std::size_t idx) const {
  Levels levels;
  DecodeInto(idx, &levels);
  return levels;
}

void CandidateLattice::DecodeInto(std::size_t idx, Levels* out) const {
  out->resize(dims_);
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  for (std::size_t d = 0; d < dims_; ++d) {
    (*out)[d] = static_cast<int>(idx % base);
    idx /= base;
  }
}

std::size_t CandidateLattice::IndexOf(const Levels& levels) const {
  DD_CHECK_EQ(levels.size(), dims_);
  std::size_t idx = 0;
  for (std::size_t d = 0; d < dims_; ++d) {
    DD_CHECK_GE(levels[d], 0);
    DD_CHECK_LE(levels[d], dmax_);
    idx += static_cast<std::size_t>(levels[d]) * strides_[d];
  }
  return idx;
}

long CandidateLattice::MinPruneSum(const Levels& dominator,
                                   double max_quality) const {
  DD_CHECK_EQ(dominator.size(), dims_);
  for (int level : dominator) {
    DD_CHECK_GE(level, 0);
    DD_CHECK_LE(level, dmax_);
  }
  // Q(ϕ) <= q  <=>  LevelSum(ϕ) >= dims * dmax * (1 - q).
  const double min_sum_d =
      static_cast<double>(dims_) * dmax_ * (1.0 - max_quality);
  // Guard against floating-point jitter at the boundary: Q is a ratio of
  // small integers, so nudge by an epsilon before taking the ceiling.
  // The clamp keeps a huge q (Vmax over a tiny confidence) in range of
  // the cast without changing which cells it selects.
  const double max_sum = static_cast<double>(dims_) * dmax_;
  return static_cast<long>(
      std::ceil(std::clamp(min_sum_d, -1.0, max_sum + 1.0) - 1e-9));
}

std::vector<std::uint32_t> CandidateLattice::MakeOrder(std::size_t dims,
                                                       int dmax,
                                                       ProcessingOrder order) {
  const std::size_t size = LatticeSize(dims, dmax);
  DD_CHECK_LE(size, std::size_t{1} << 28);
  std::vector<std::uint32_t> idx(size);
  std::iota(idx.begin(), idx.end(), 0u);
  if (order == ProcessingOrder::kLexicographic) return idx;

  // Level sum per cell, computed without materializing Levels.
  const std::size_t base = static_cast<std::size_t>(dmax) + 1;
  std::vector<std::uint32_t> sums(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::size_t v = i;
    std::uint32_t s = 0;
    for (std::size_t d = 0; d < dims; ++d) {
      s += static_cast<std::uint32_t>(v % base);
      v /= base;
    }
    sums[i] = s;
  }
  const double mid = static_cast<double>(dims) * dmax / 2.0;
  switch (order) {
    case ProcessingOrder::kMidFirst:
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return std::fabs(sums[a] - mid) <
                                std::fabs(sums[b] - mid);
                       });
      break;
    case ProcessingOrder::kTopFirst:
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return sums[a] > sums[b];
                       });
      break;
    case ProcessingOrder::kBottomFirst:
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return sums[a] < sums[b];
                       });
      break;
    case ProcessingOrder::kLexicographic:
      break;
  }
  return idx;
}

}  // namespace dd
