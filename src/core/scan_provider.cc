#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/measure_provider.h"
#include "core/simd_count.h"
#include "obs/metrics.h"

namespace dd {

namespace {

// Latency histogram over individual O(M) counting scans. One Observe()
// per scan (two clock reads) disappears against the scan itself; the
// per-row loop below stays untouched.
obs::Histogram& ScanLatencyHistogram() {
  static obs::Histogram& histogram = obs::MetricsRegistry::Global().GetHistogram(
      "provider.scan_ms", obs::DefaultLatencyBoundsMs());
  return histogram;
}

// Shared row predicate for the random-access subset path: does matching
// tuple `row` satisfy `levels` on the columns of `attrs`? The
// sequential scans go through the simd_count kernels instead.
inline bool Satisfies(const MatchingRelation& matching,
                      const std::vector<std::size_t>& attrs,
                      const Levels& levels, std::size_t row) {
  for (std::size_t a = 0; a < attrs.size(); ++a) {
    if (static_cast<int>(matching.level(row, attrs[a])) > levels[a]) {
      return false;
    }
  }
  return true;
}

// A threshold pattern compiled to kernel arguments: one column view and
// one uint8 bound per attribute. Levels are ints; a negative bound can
// never be satisfied (levels are >= 0), so the pattern is flagged
// impossible instead of clamped, and bounds above 255 clamp down (every
// level is <= dmax <= 255, so they match everything either way).
struct CompiledPattern {
  std::vector<simd::ColumnView> views;
  std::vector<std::uint8_t> bounds;
  bool impossible = false;

  void Append(const MatchingRelation& matching,
              const std::vector<std::size_t>& attrs, const Levels& levels) {
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      const int bound = levels[a];
      if (bound < 0) {
        impossible = true;
        return;
      }
      views.push_back(simd::View(matching.column(attrs[a])));
      bounds.push_back(bound > 255 ? std::uint8_t{255}
                                   : static_cast<std::uint8_t>(bound));
    }
  }
};

}  // namespace

ScanMeasureProvider::ScanMeasureProvider(const MatchingRelation& matching,
                                         ResolvedRule rule, bool full_scan)
    : matching_(matching), rule_(std::move(rule)), full_scan_(full_scan) {}

std::uint64_t ScanMeasureProvider::total() const {
  return matching_.num_tuples();
}

void ScanMeasureProvider::SetLhs(const Levels& lhs) {
  DD_CHECK_EQ(lhs.size(), rule_.lhs.size());
  current_lhs_ = lhs;
  lhs_rows_.clear();
  const std::size_t m = matching_.num_tuples();
  ++stats_.lhs_evaluations;
  stats_.rows_scanned += m;

  Stopwatch scan_timer;
  if (full_scan_) {
    lhs_count_ = BuildLhsMask();
  } else {
    CompiledPattern pattern;
    pattern.Append(matching_, rule_.lhs, lhs);
    // A negative bound matches no row; the row list stays empty
    // without touching M.
    if (!pattern.impossible) {
      simd::CollectLeq(pattern.views.data(), pattern.bounds.data(),
                       pattern.views.size(), 0, m, &lhs_rows_);
    }
    lhs_count_ = lhs_rows_.size();
  }
  ScanLatencyHistogram().Observe(scan_timer.ElapsedMillis());
}

void ScanMeasureProvider::SetLhsWithKnownCount(const Levels& lhs,
                                               std::uint64_t known_count) {
  if (!full_scan_) {
    SetLhs(lhs);  // The satisfying-row list must be rebuilt anyway.
    return;
  }
  DD_CHECK_EQ(lhs.size(), rule_.lhs.size());
  // Still one LHS evaluation (stats contract, measure_provider.h) —
  // only the O(M) scan is saved, not the candidate.
  ++stats_.lhs_evaluations;
  current_lhs_ = lhs;
  lhs_count_ = known_count;
  lhs_mask_stale_ = true;
}

std::uint64_t ScanMeasureProvider::BuildLhsMask() {
  const std::size_t m = matching_.num_tuples();
  lhs_mask_.resize(simd::MaskWords(m));
  lhs_mask_stale_ = false;
  CompiledPattern pattern;
  pattern.Append(matching_, rule_.lhs, current_lhs_);
  // A negative bound matches no row: an all-zero bitmap, without
  // touching M.
  if (pattern.impossible) {
    std::fill(lhs_mask_.begin(), lhs_mask_.end(), std::uint64_t{0});
    return 0;
  }
  return simd::MaskLeq(pattern.views.data(), pattern.bounds.data(),
                       pattern.views.size(), m, lhs_mask_.data());
}

std::uint64_t ScanMeasureProvider::CountXY(const Levels& rhs) {
  DD_CHECK_EQ(rhs.size(), rule_.rhs.size());
  DD_CHECK_EQ(current_lhs_.size(), rule_.lhs.size());
  ++stats_.xy_evaluations;

  if (full_scan_) {
    // Accounted as one O(M) pass, the paper's cost model, although the
    // kernel reads only the ϕ[Y] columns plus the ϕ[X] bitmap.
    const std::size_t m = matching_.num_tuples();
    stats_.rows_scanned += m;
    Stopwatch scan_timer;
    if (lhs_mask_stale_) BuildLhsMask();
    CompiledPattern pattern;
    pattern.Append(matching_, rule_.rhs, rhs);
    const std::uint64_t count =
        pattern.impossible
            ? 0
            : simd::CountLeqMasked(pattern.views.data(),
                                   pattern.bounds.data(), pattern.views.size(),
                                   lhs_mask_.data(), m);
    ScanLatencyHistogram().Observe(scan_timer.ElapsedMillis());
    return count;
  }

  stats_.rows_scanned += lhs_rows_.size();
  std::uint64_t count = 0;
  for (const std::uint32_t row : lhs_rows_) {
    if (Satisfies(matching_, rule_.rhs, rhs, row)) ++count;
  }
  return count;
}

std::unique_ptr<MeasureProvider> ScanMeasureProvider::CloneForThread() const {
  return std::unique_ptr<MeasureProvider>(
      new ScanMeasureProvider(matching_, rule_, full_scan_));
}

}  // namespace dd
