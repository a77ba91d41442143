#include <algorithm>
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
  const std::size_t dims = rule.lhs.size() + rule.rhs.size();
  DD_ASSIGN_OR_RETURN(std::size_t cells,
                      grid::GridCells(base, dims, max_cells));

  auto provider = std::unique_ptr<GridMeasureProvider>(new GridMeasureProvider());
  provider->total_ = matching.num_tuples();
  provider->dmax_ = matching.dmax();
  provider->lhs_dims_ = rule.lhs.size();
  provider->rhs_dims_ = rule.rhs.size();
  std::vector<std::uint64_t> joint(cells, 0);

  std::size_t lhs_cells = 1;
  for (std::size_t d = 0; d < rule.lhs.size(); ++d) lhs_cells *= base;
  std::vector<std::uint64_t> lhs_grid(lhs_cells, 0);

  // Histogram pass: one increment per matching tuple in each grid. The
  // cell-index computation runs through the vector kernel in block
  // batches (lhs dims are low-order in the joint layout, so the first
  // lhs_dims strides double as the marginal grid's strides); the
  // increments themselves stay scalar — they scatter, and cells ≤ 2^27
  // means conflicts would be frequent.
  const std::size_t m = matching.num_tuples();
  std::vector<simd::ColumnView> views;
  std::vector<std::uint32_t> strides;
  views.reserve(dims);
  strides.reserve(dims);
  std::uint64_t stride = 1;  // every pushed stride < cells, which fits uint32
  for (std::size_t a = 0; a < rule.lhs.size(); ++a) {
    views.push_back(simd::View(matching.column(rule.lhs[a])));
    strides.push_back(static_cast<std::uint32_t>(stride));
    stride *= base;
  }
  for (std::size_t a = 0; a < rule.rhs.size(); ++a) {
    views.push_back(simd::View(matching.column(rule.rhs[a])));
    strides.push_back(static_cast<std::uint32_t>(stride));
    stride *= base;
  }
  constexpr std::size_t kBlock = 4096;
  std::vector<std::uint32_t> joint_idx(kBlock);
  std::vector<std::uint32_t> lhs_idx(kBlock);
  for (std::size_t row = 0; row < m; row += kBlock) {
    const std::size_t n = std::min(kBlock, m - row);
    simd::GridIndices(views.data(), strides.data(), dims, row, row + n,
                      joint_idx.data());
    simd::GridIndices(views.data(), strides.data(), rule.lhs.size(), row,
                      row + n, lhs_idx.data());
    for (std::size_t i = 0; i < n; ++i) {
      ++joint[joint_idx[i]];
      ++lhs_grid[lhs_idx[i]];
    }
  }

  grid::PrefixSumAllDims(&joint, dims, base);
  grid::PrefixSumAllDims(&lhs_grid, rule.lhs.size(), base);
  provider->joint_ =
      std::make_shared<const std::vector<std::uint64_t>>(std::move(joint));
  provider->lhs_grid_ =
      std::make_shared<const std::vector<std::uint64_t>>(std::move(lhs_grid));
  obs::MetricsRegistry::Global().GetGauge("provider.grid_cells").Set(
      static_cast<double>(cells));
  obs::SetMemoryGauge("grid", provider->MemoryUsageBytes());
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
  std::size_t joint_cells = 1;
  for (std::size_t d = 0; d < dims; ++d) joint_cells *= base;
  std::size_t lhs_cells = 1;
  for (std::size_t d = 0; d < lhs_dims; ++d) lhs_cells *= base;
  if (joint.size() != joint_cells || lhs_grid.size() != lhs_cells) {
    return Status::InvalidArgument(StrFormat(
        "histogram sizes %zu/%zu do not match (dmax+1)^dims %zu/%zu",
        joint.size(), lhs_grid.size(), joint_cells, lhs_cells));
  }
  auto provider =
      std::unique_ptr<GridMeasureProvider>(new GridMeasureProvider());
  provider->total_ = total;
  provider->dmax_ = dmax;
  provider->lhs_dims_ = lhs_dims;
  provider->rhs_dims_ = rhs_dims;
  grid::PrefixSumAllDims(&joint, dims, base);
  grid::PrefixSumAllDims(&lhs_grid, lhs_dims, base);
  provider->joint_ =
      std::make_shared<const std::vector<std::uint64_t>>(std::move(joint));
  provider->lhs_grid_ =
      std::make_shared<const std::vector<std::uint64_t>>(std::move(lhs_grid));
  obs::MetricsRegistry::Global().GetGauge("provider.grid_cells").Set(
      static_cast<double>(joint_cells));
  obs::SetMemoryGauge("grid", provider->MemoryUsageBytes());
  return provider;
}

void GridMeasureProvider::SetLhs(const Levels& lhs) {
  DD_CHECK_EQ(lhs.size(), lhs_dims_);
  ++stats_.lhs_evaluations;
  current_lhs_ = lhs;
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::size_t idx = 0;
  for (std::size_t a = lhs_dims_; a-- > 0;) {
    DD_CHECK_GE(lhs[a], 0);
    DD_CHECK_LE(lhs[a], dmax_);
    idx = idx * base + static_cast<std::size_t>(lhs[a]);
  }
  lhs_count_ = (*lhs_grid_)[idx];
}

std::size_t GridMeasureProvider::JointIndex(const Levels& rhs) const {
  DD_CHECK_EQ(rhs.size(), rhs_dims_);
  DD_CHECK_EQ(current_lhs_.size(), lhs_dims_);
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::size_t idx = 0;
  for (std::size_t a = rhs_dims_; a-- > 0;) {
    DD_CHECK_GE(rhs[a], 0);
    DD_CHECK_LE(rhs[a], dmax_);
    idx = idx * base + static_cast<std::size_t>(rhs[a]);
  }
  for (std::size_t a = lhs_dims_; a-- > 0;) {
    idx = idx * base + static_cast<std::size_t>(current_lhs_[a]);
  }
  return idx;
}

std::uint64_t GridMeasureProvider::CountXY(const Levels& rhs) {
  ++stats_.xy_evaluations;
  return (*joint_)[JointIndex(rhs)];
}

std::unique_ptr<MeasureProvider> GridMeasureProvider::CloneForThread() const {
  auto clone = std::unique_ptr<GridMeasureProvider>(new GridMeasureProvider());
  clone->total_ = total_;
  clone->dmax_ = dmax_;
  clone->lhs_dims_ = lhs_dims_;
  clone->rhs_dims_ = rhs_dims_;
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
