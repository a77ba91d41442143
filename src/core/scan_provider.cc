#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "core/measure_provider.h"
#include "core/simd_count.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

namespace {

bool IsSparse(std::uint64_t nonzero_words, std::size_t words) {
  return nonzero_words * ScanMeasureProvider::kSparseWordRatio < words;
}

}  // namespace

ScanMeasureProvider::ScanMeasureProvider(const MatchingRelation& matching,
                                         const ResolvedRule& rule)
    : total_(matching.num_tuples()),
      dmax_(matching.dmax()),
      words_(simd::MaskWords(matching.num_tuples())),
      lhs_dims_(rule.lhs.size()),
      rhs_dims_(rule.rhs.size()) {
  obs::TraceSpan span("scan_index_build");
  // Word indices of the sparse ϕ[X] list are uint32.
  DD_CHECK_LE(words_, std::size_t{std::numeric_limits<std::uint32_t>::max()});
  std::vector<std::size_t> attrs = rule.lhs;
  attrs.insert(attrs.end(), rule.rhs.begin(), rule.rhs.end());
  const std::size_t levels = dmax_ > 0 ? static_cast<std::size_t>(dmax_) : 0;
  std::vector<std::uint64_t> index(attrs.size() * levels * words_);
  for (std::size_t slot = 0; slot < attrs.size(); ++slot) {
    const simd::ColumnView view = simd::View(matching.column(attrs[slot]));
    for (std::size_t t = 0; t < levels; ++t) {
      const std::uint8_t bound = static_cast<std::uint8_t>(t);
      simd::MaskLeq(&view, &bound, 1, total_,
                    index.data() + (slot * levels + t) * words_);
    }
  }
  index_ = std::make_shared<const std::vector<std::uint64_t>>(std::move(index));
  obs::SetMemoryGauge("scan_index", MemoryUsageBytes());
}

bool ScanMeasureProvider::AppendBitmaps(std::size_t first_slot,
                                        const Levels& levels) {
  for (std::size_t a = 0; a < levels.size(); ++a) {
    if (levels[a] < 0) return false;
    if (levels[a] >= dmax_) continue;  // Every tuple passes.
    const std::size_t slot = first_slot + a;
    inputs_.push_back(index_->data() +
                      (slot * static_cast<std::size_t>(dmax_) +
                       static_cast<std::size_t>(levels[a])) *
                          words_);
  }
  return true;
}

std::uint64_t ScanMeasureProvider::BuildLhsMask(const Levels& lhs) {
  DD_CHECK_EQ(lhs.size(), lhs_dims_);
  current_lhs_ = lhs;
  lhs_mask_.resize(words_);
  inputs_.clear();
  std::uint64_t count = 0;
  if (!AppendBitmaps(0, lhs)) {
    std::fill(lhs_mask_.begin(), lhs_mask_.end(), std::uint64_t{0});
  } else if (inputs_.empty()) {
    count = simd::MaskLeq(nullptr, nullptr, 0, total_, lhs_mask_.data());
  } else {
    stats_.words_scanned += inputs_.size() * words_;
    count = simd::AndCount(inputs_.data(), inputs_.size(), words_,
                           lhs_mask_.data());
  }
  RecordNonzeroWords(count);
  return count;
}

void ScanMeasureProvider::RecordNonzeroWords(std::uint64_t count) {
  // A word holds at most 64 rows, so a mask of `count` rows has at
  // least ⌈count/64⌉ nonzero words: when that is past the cut-off, the
  // mask is dense and the pass below is skipped.
  lhs_word_count_ = 0;
  lhs_sparse_ = IsSparse((count + 63) / 64, words_);
  if (!lhs_sparse_ || count == 0) return;
  lhs_words_.resize(words_);
  std::size_t nonzero = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    lhs_words_[nonzero] = static_cast<std::uint32_t>(w);
    nonzero += static_cast<std::size_t>(lhs_mask_[w] != 0);
  }
  lhs_word_count_ = nonzero;
  lhs_sparse_ = IsSparse(nonzero, words_);
}

void ScanMeasureProvider::SetLhs(const Levels& lhs) {
  ++stats_.lhs_evaluations;
  stats_.rows_scanned += total_;
  lhs_count_ = BuildLhsMask(lhs);
}

void ScanMeasureProvider::SetLhsWithKnownCount(const Levels& lhs,
                                               std::uint64_t known_count) {
  // Still one LHS evaluation (stats contract above); only the O(M)
  // charge is saved. Rebuilding the mask costs one AND pass and checks
  // the caller's count for free.
  ++stats_.lhs_evaluations;
  lhs_count_ = BuildLhsMask(lhs);
  DD_CHECK_EQ(lhs_count_, known_count);
}

std::uint64_t ScanMeasureProvider::CountXY(const Levels& rhs) {
  DD_CHECK_EQ(rhs.size(), rhs_dims_);
  DD_CHECK_EQ(current_lhs_.size(), lhs_dims_);
  DD_CHECK_EQ(lhs_mask_.size(), words_);  // SetLhs came first.
  ++stats_.xy_evaluations;
  stats_.rows_scanned += total_;
  inputs_.assign(1, lhs_mask_.data());
  if (!AppendBitmaps(lhs_dims_, rhs)) return 0;
  if (lhs_sparse_) {
    // The mask is 0 outside its listed words, so the AND is too.
    stats_.words_scanned += inputs_.size() * lhs_word_count_;
    return simd::AndCountWords(inputs_.data(), inputs_.size(),
                               lhs_words_.data(), lhs_word_count_);
  }
  stats_.words_scanned += inputs_.size() * words_;
  return simd::AndCount(inputs_.data(), inputs_.size(), words_, nullptr);
}

std::unique_ptr<MeasureProvider> ScanMeasureProvider::CloneForThread() const {
  auto clone = std::unique_ptr<ScanMeasureProvider>(new ScanMeasureProvider());
  clone->total_ = total_;
  clone->dmax_ = dmax_;
  clone->words_ = words_;
  clone->lhs_dims_ = lhs_dims_;
  clone->rhs_dims_ = rhs_dims_;
  clone->index_ = index_;
  return clone;
}

}  // namespace dd
