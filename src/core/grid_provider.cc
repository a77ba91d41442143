#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/grid_util.h"
#include "core/measure_provider.h"
#include "core/simd_count.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

Result<std::unique_ptr<GridMeasureProvider>> GridMeasureProvider::Create(
    const MatchingRelation& matching, ResolvedRule rule,
    std::size_t max_cells) {
  // Build cost is the grid's entire scan budget; CountXY stays O(1) and
  // deliberately uninstrumented beyond the inherited ProviderStats.
  obs::TraceSpan span("grid_build");
  const std::size_t base = static_cast<std::size_t>(matching.dmax()) + 1;
  const std::size_t lhs_dims = rule.lhs.size();
  const std::size_t dims = lhs_dims + rule.rhs.size();
  DD_ASSIGN_OR_RETURN(std::size_t cells,
                      grid::GridCells(base, dims, max_cells));
  DD_ASSIGN_OR_RETURN(std::size_t lhs_cells,
                      grid::GridCells(base, lhs_dims, max_cells));

  // Histogram pass: one increment per matching tuple in each grid.
  std::vector<simd::ColumnView> views;
  for (const auto* side : {&rule.lhs, &rule.rhs}) {
    for (std::size_t a : *side) views.push_back(simd::View(matching.column(a)));
  }
  std::vector<std::uint64_t> joint(cells, 0);
  std::vector<std::uint64_t> lhs_grid(lhs_cells, 0);
  const std::size_t m = matching.num_tuples();
  grid::AddRowsToHistograms(views.data(), lhs_dims, dims, base, m, 1,
                            joint.data(), lhs_grid.data());

  DD_ASSIGN_OR_RETURN(
      auto provider,
      CreateFromHistograms(std::move(joint), std::move(lhs_grid), m,
                           matching.dmax(), lhs_dims, rule.rhs.size()));
  provider->rule_ = std::move(rule);
  DD_LOG(INFO) << "grid provider built: " << cells << " cells over "
               << m << " matching tuples";
  return provider;
}

Result<std::unique_ptr<GridMeasureProvider>>
GridMeasureProvider::CreateFromHistograms(std::vector<std::uint64_t> joint,
                                          std::vector<std::uint64_t> lhs_grid,
                                          std::uint64_t total, int dmax,
                                          std::size_t lhs_dims,
                                          std::size_t rhs_dims) {
  if (dmax < 1 || dmax > 255) {
    return Status::InvalidArgument(
        StrFormat("dmax %d outside [1, 255]", dmax));
  }
  const std::size_t base = static_cast<std::size_t>(dmax) + 1;
  const std::size_t dims = lhs_dims + rhs_dims;
  const Result<std::size_t> joint_cells =
      grid::GridCells(base, dims, joint.size());
  const Result<std::size_t> lhs_cells =
      grid::GridCells(base, lhs_dims, lhs_grid.size());
  if (!joint_cells.ok() || !lhs_cells.ok() || *joint_cells != joint.size() ||
      *lhs_cells != lhs_grid.size()) {
    return Status::InvalidArgument(StrFormat(
        "histogram sizes %zu/%zu do not match (dmax+1)^dims for dims %zu/%zu",
        joint.size(), lhs_grid.size(), dims, lhs_dims));
  }
  auto provider =
      std::unique_ptr<GridMeasureProvider>(new GridMeasureProvider());
  provider->total_ = total;
  provider->dmax_ = dmax;
  for (std::size_t d = 0; d < dims; ++d) {
    (d < lhs_dims ? provider->rule_.lhs : provider->rule_.rhs).push_back(d);
  }
  provider->Publish(std::move(joint), std::move(lhs_grid));
  if (provider->joint_->back() != total ||
      provider->lhs_grid_->back() != total) {
    return Status::InvalidArgument("histograms do not sum to the total");
  }
  obs::MetricsRegistry::Global().GetGauge("provider.grid_cells").Set(
      static_cast<double>(*joint_cells));
  obs::SetMemoryGauge("grid", provider->MemoryUsageBytes());
  return provider;
}

void GridMeasureProvider::Publish(std::vector<std::uint64_t> joint,
                                  std::vector<std::uint64_t> lhs_grid) {
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  grid::PrefixSumAllDims(&joint, rule_.lhs.size() + rule_.rhs.size(), base);
  grid::PrefixSumAllDims(&lhs_grid, rule_.lhs.size(), base);
  if (joint_ != nullptr) {
    // Merging a delta: the sums wrap, and are exact whenever every true
    // count stays in [0, total_].
    for (std::size_t c = 0; c < joint.size(); ++c) joint[c] += (*joint_)[c];
    for (std::size_t c = 0; c < lhs_grid.size(); ++c) {
      lhs_grid[c] += (*lhs_grid_)[c];
    }
  }
  joint_ =
      std::make_shared<const std::vector<std::uint64_t>>(std::move(joint));
  lhs_grid_ =
      std::make_shared<const std::vector<std::uint64_t>>(std::move(lhs_grid));
}

void GridMeasureProvider::Apply(const MatchingDelta& delta) {
  obs::TraceSpan span("incr/grid_apply");
  static obs::Counter& applies_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.grid_applies");
  static obs::Counter& merged_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.grid_tuples_merged");
  if (delta.empty()) return;
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::vector<std::size_t> columns = rule_.lhs;
  columns.insert(columns.end(), rule_.rhs.begin(), rule_.rhs.end());
  std::vector<std::uint64_t> joint(joint_->size(), 0);
  std::vector<std::uint64_t> lhs_grid(lhs_grid_->size(), 0);
  grid::AddLevelRowsToHistograms(delta.added_levels.data(), delta.num_added(),
                                 delta.num_attributes, columns,
                                 rule_.lhs.size(), base, 1, joint.data(),
                                 lhs_grid.data());
  grid::AddLevelRowsToHistograms(
      delta.removed_levels.data(), delta.num_removed(), delta.num_attributes,
      columns, rule_.lhs.size(), base, ~std::uint64_t{0}, joint.data(),
      lhs_grid.data());

  DD_CHECK_GE(total_ + delta.num_added(), delta.num_removed());
  total_ = total_ + delta.num_added() - delta.num_removed();
  Publish(std::move(joint), std::move(lhs_grid));
  // The all-dmax corners count every tuple.
  DD_CHECK_EQ(joint_->back(), total_);
  DD_CHECK_EQ(lhs_grid_->back(), total_);
  applies_counter.Increment();
  merged_counter.Add(delta.num_added() + delta.num_removed());
}

void GridMeasureProvider::SetLhs(const Levels& lhs) {
  DD_CHECK_EQ(lhs.size(), rule_.lhs.size());
  ++stats_.lhs_evaluations;
  current_lhs_ = lhs;
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::size_t idx = 0;
  for (std::size_t a = lhs.size(); a-- > 0;) {
    DD_CHECK_GE(lhs[a], 0);
    DD_CHECK_LE(lhs[a], dmax_);
    idx = idx * base + static_cast<std::size_t>(lhs[a]);
  }
  lhs_count_ = (*lhs_grid_)[idx];
  DD_CHECK_LE(lhs_count_, total_);
}

std::size_t GridMeasureProvider::JointIndex(const Levels& rhs) const {
  DD_CHECK_EQ(rhs.size(), rule_.rhs.size());
  DD_CHECK_EQ(current_lhs_.size(), rule_.lhs.size());
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::size_t idx = 0;
  for (std::size_t a = rhs.size(); a-- > 0;) {
    DD_CHECK_GE(rhs[a], 0);
    DD_CHECK_LE(rhs[a], dmax_);
    idx = idx * base + static_cast<std::size_t>(rhs[a]);
  }
  for (std::size_t a = current_lhs_.size(); a-- > 0;) {
    idx = idx * base + static_cast<std::size_t>(current_lhs_[a]);
  }
  return idx;
}

std::uint64_t GridMeasureProvider::CountXY(const Levels& rhs) {
  ++stats_.xy_evaluations;
  const std::uint64_t count = (*joint_)[JointIndex(rhs)];
  DD_CHECK_LE(count, total_);
  return count;
}

std::unique_ptr<MeasureProvider> GridMeasureProvider::CloneForThread() const {
  auto clone = std::unique_ptr<GridMeasureProvider>(new GridMeasureProvider());
  clone->total_ = total_;
  clone->dmax_ = dmax_;
  clone->rule_ = rule_;
  clone->joint_ = joint_;
  clone->lhs_grid_ = lhs_grid_;
  return clone;
}

Result<std::unique_ptr<MeasureProvider>> MakeMeasureProvider(
    const MatchingRelation& matching, const ResolvedRule& rule,
    std::string_view kind, std::size_t /*ignored*/) {
  if (kind == "scan") {
    return std::unique_ptr<MeasureProvider>(
        new ScanMeasureProvider(matching, rule));
  }
  if (kind == "grid") {
    DD_ASSIGN_OR_RETURN(auto grid, GridMeasureProvider::Create(matching, rule));
    return std::unique_ptr<MeasureProvider>(std::move(grid));
  }
  return Status::InvalidArgument("unknown provider kind: " + std::string(kind));
}

}  // namespace dd
