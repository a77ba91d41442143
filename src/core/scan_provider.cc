#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/measure_provider.h"
#include "core/simd_count.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

namespace {

// Latency histogram over individual O(M) counting passes. One Observe()
// per pass (two clock reads) disappears against the pass itself.
obs::Histogram& ScanLatencyHistogram() {
  static obs::Histogram& histogram = obs::MetricsRegistry::Global().GetHistogram(
      "provider.scan_ms", obs::DefaultLatencyBoundsMs());
  return histogram;
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
  if (!AppendBitmaps(0, lhs)) {
    std::fill(lhs_mask_.begin(), lhs_mask_.end(), std::uint64_t{0});
    return 0;
  }
  if (inputs_.empty()) {
    return simd::MaskLeq(nullptr, nullptr, 0, total_, lhs_mask_.data());
  }
  return simd::AndCount(inputs_.data(), inputs_.size(), words_,
                        lhs_mask_.data());
}

void ScanMeasureProvider::SetLhs(const Levels& lhs) {
  ++stats_.lhs_evaluations;
  stats_.rows_scanned += total_;
  Stopwatch scan_timer;
  lhs_count_ = BuildLhsMask(lhs);
  ScanLatencyHistogram().Observe(scan_timer.ElapsedMillis());
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
  Stopwatch scan_timer;
  inputs_.assign(1, lhs_mask_.data());
  const std::uint64_t count =
      AppendBitmaps(lhs_dims_, rhs)
          ? simd::AndCount(inputs_.data(), inputs_.size(), words_, nullptr)
          : 0;
  ScanLatencyHistogram().Observe(scan_timer.ElapsedMillis());
  return count;
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
