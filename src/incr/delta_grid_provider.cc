#include "incr/delta_grid_provider.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/grid_util.h"
#include "core/simd_count.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

namespace {

// Cell indices of one matching tuple's level row in the joint and lhs
// grids. `at` maps an attribute column to its level.
template <typename LevelAt>
std::pair<std::size_t, std::size_t> CellsOf(const ResolvedRule& rule,
                                            std::size_t base,
                                            const LevelAt& at) {
  std::size_t joint_idx = 0;
  for (std::size_t a = rule.rhs.size(); a-- > 0;) {
    joint_idx = joint_idx * base + static_cast<std::size_t>(at(rule.rhs[a]));
  }
  std::size_t lhs_idx = 0;
  for (std::size_t a = rule.lhs.size(); a-- > 0;) {
    joint_idx = joint_idx * base + static_cast<std::size_t>(at(rule.lhs[a]));
    lhs_idx = lhs_idx * base + static_cast<std::size_t>(at(rule.lhs[a]));
  }
  return {joint_idx, lhs_idx};
}

}  // namespace

Result<std::unique_ptr<DeltaGridProvider>> DeltaGridProvider::Create(
    const MatchingRelation& matching, ResolvedRule rule,
    std::size_t max_cells) {
  obs::TraceSpan span("grid_build");
  const std::size_t base = static_cast<std::size_t>(matching.dmax()) + 1;
  const std::size_t dims = rule.lhs.size() + rule.rhs.size();
  DD_ASSIGN_OR_RETURN(std::size_t cells,
                      grid::GridCells(base, dims, max_cells));
  std::size_t lhs_cells = 1;
  for (std::size_t d = 0; d < rule.lhs.size(); ++d) lhs_cells *= base;

  auto provider = std::unique_ptr<DeltaGridProvider>(new DeltaGridProvider());
  provider->total_ = matching.num_tuples();
  provider->dmax_ = matching.dmax();
  provider->rule_ = std::move(rule);
  provider->joint_.assign(cells, 0);
  provider->lhs_grid_.assign(lhs_cells, 0);

  // Histogram pass in vector-kernel blocks, exactly the layout CellsOf
  // produces: lhs dims low-order, so the first lhs strides double as
  // the marginal grid's strides. Scalar increments (scattered).
  const std::size_t m = matching.num_tuples();
  std::vector<simd::ColumnView> views;
  std::vector<std::uint32_t> strides;
  views.reserve(dims);
  strides.reserve(dims);
  std::uint64_t stride = 1;  // every pushed stride < cells, which fits uint32
  for (std::size_t a = 0; a < provider->rule_.lhs.size(); ++a) {
    views.push_back(simd::View(matching.column(provider->rule_.lhs[a])));
    strides.push_back(static_cast<std::uint32_t>(stride));
    stride *= base;
  }
  for (std::size_t a = 0; a < provider->rule_.rhs.size(); ++a) {
    views.push_back(simd::View(matching.column(provider->rule_.rhs[a])));
    strides.push_back(static_cast<std::uint32_t>(stride));
    stride *= base;
  }
  constexpr std::size_t kBlock = 4096;
  std::vector<std::uint32_t> joint_idx(kBlock);
  std::vector<std::uint32_t> lhs_idx(kBlock);
  for (std::size_t row = 0; row < m; row += kBlock) {
    const std::size_t count = std::min(kBlock, m - row);
    simd::GridIndices(views.data(), strides.data(), dims, row, row + count,
                      joint_idx.data());
    simd::GridIndices(views.data(), strides.data(),
                      provider->rule_.lhs.size(), row, row + count,
                      lhs_idx.data());
    for (std::size_t i = 0; i < count; ++i) {
      ++provider->joint_[joint_idx[i]];
      ++provider->lhs_grid_[lhs_idx[i]];
    }
  }
  grid::PrefixSumAllDims(&provider->joint_, dims, base);
  grid::PrefixSumAllDims(&provider->lhs_grid_, provider->rule_.lhs.size(),
                         base);
  DD_LOG(INFO) << "delta grid provider built: " << cells << " cells over "
               << m << " matching tuples";
  obs::SetMemoryGauge("delta_grid", provider->MemoryUsageBytes());
  return provider;
}

void DeltaGridProvider::Apply(const MatchingDelta& delta) {
  obs::TraceSpan span("incr/grid_apply");
  static obs::Counter& applies_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.grid_applies");
  static obs::Counter& merged_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.grid_tuples_merged");
  if (delta.empty()) return;
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  const std::size_t dims = rule_.lhs.size() + rule_.rhs.size();
  scratch_joint_.assign(joint_.size(), 0);
  scratch_lhs_.assign(lhs_grid_.size(), 0);

  for (std::size_t k = 0; k < delta.num_added(); ++k) {
    const Level* row = delta.added_row(k);
    auto [joint_idx, lhs_idx] =
        CellsOf(rule_, base, [&](std::size_t a) { return row[a]; });
    ++scratch_joint_[joint_idx];
    ++scratch_lhs_[lhs_idx];
  }
  for (std::size_t k = 0; k < delta.num_removed(); ++k) {
    const Level* row = delta.removed_row(k);
    auto [joint_idx, lhs_idx] =
        CellsOf(rule_, base, [&](std::size_t a) { return row[a]; });
    --scratch_joint_[joint_idx];
    --scratch_lhs_[lhs_idx];
  }

  grid::PrefixSumAllDims(&scratch_joint_, dims, base);
  grid::PrefixSumAllDims(&scratch_lhs_, rule_.lhs.size(), base);
  for (std::size_t c = 0; c < joint_.size(); ++c) {
    joint_[c] += scratch_joint_[c];
  }
  for (std::size_t c = 0; c < lhs_grid_.size(); ++c) {
    lhs_grid_[c] += scratch_lhs_[c];
  }

  DD_CHECK_GE(total_ + delta.num_added(), delta.num_removed());
  total_ = total_ + delta.num_added() - delta.num_removed();
  // The all-dmax corner of the joint grid counts every tuple.
  DD_CHECK_EQ(static_cast<std::uint64_t>(joint_.back()), total_);
  applies_counter.Increment();
  merged_counter.Add(delta.num_added() + delta.num_removed());
}

void DeltaGridProvider::SetLhs(const Levels& lhs) {
  DD_CHECK_EQ(lhs.size(), rule_.lhs.size());
  ++stats_.lhs_evaluations;
  current_lhs_ = lhs;
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::size_t idx = 0;
  for (std::size_t a = rule_.lhs.size(); a-- > 0;) {
    DD_CHECK_GE(lhs[a], 0);
    DD_CHECK_LE(lhs[a], dmax_);
    idx = idx * base + static_cast<std::size_t>(lhs[a]);
  }
  const std::int64_t count = lhs_grid_[idx];
  DD_CHECK_GE(count, 0);
  lhs_count_ = static_cast<std::uint64_t>(count);
}

std::size_t DeltaGridProvider::JointIndex(const Levels& rhs) const {
  DD_CHECK_EQ(rhs.size(), rule_.rhs.size());
  DD_CHECK_EQ(current_lhs_.size(), rule_.lhs.size());
  const std::size_t base = static_cast<std::size_t>(dmax_) + 1;
  std::size_t idx = 0;
  for (std::size_t a = rule_.rhs.size(); a-- > 0;) {
    DD_CHECK_GE(rhs[a], 0);
    DD_CHECK_LE(rhs[a], dmax_);
    idx = idx * base + static_cast<std::size_t>(rhs[a]);
  }
  for (std::size_t a = rule_.lhs.size(); a-- > 0;) {
    idx = idx * base + static_cast<std::size_t>(current_lhs_[a]);
  }
  return idx;
}

std::uint64_t DeltaGridProvider::CountXY(const Levels& rhs) {
  ++stats_.xy_evaluations;
  const std::int64_t count = joint_[JointIndex(rhs)];
  DD_CHECK_GE(count, 0);
  return static_cast<std::uint64_t>(count);
}

std::unique_ptr<MeasureProvider> DeltaGridProvider::CloneForThread() const {
  auto clone = std::unique_ptr<DeltaGridProvider>(new DeltaGridProvider());
  clone->total_ = total_;
  clone->dmax_ = dmax_;
  clone->rule_ = rule_;
  clone->joint_ = joint_;
  clone->lhs_grid_ = lhs_grid_;
  return clone;
}

}  // namespace dd
