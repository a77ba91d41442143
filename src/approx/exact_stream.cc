#include "approx/exact_stream.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/parallel.h"
#include "core/grid_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd::approx {

Result<std::unique_ptr<MeasureProvider>> BuildStreamingGridProvider(
    const Relation& relation, const RuleSpec& rule,
    const MatchingOptions& matching) {
  obs::TraceSpan span("approx_exact_stream");
  if (rule.lhs.empty() || rule.rhs.empty()) {
    return Status::InvalidArgument("rule needs attributes on both sides");
  }
  for (const std::string& x : rule.lhs) {
    if (std::find(rule.rhs.begin(), rule.rhs.end(), x) != rule.rhs.end()) {
      return Status::InvalidArgument("attribute on both rule sides: " + x);
    }
  }
  const std::vector<std::string> attributes = rule.AllAttributes();
  DD_ASSIGN_OR_RETURN(
      ResolvedMetrics resolved,
      ResolveMatchingMetrics(relation.schema(), attributes, matching));

  const std::size_t base = static_cast<std::size_t>(matching.dmax) + 1;
  const std::size_t lhs_dims = rule.lhs.size();
  const std::size_t rhs_dims = rule.rhs.size();
  const std::size_t dims = lhs_dims + rhs_dims;
  DD_ASSIGN_OR_RETURN(const std::size_t joint_cells,
                      grid::GridCells(base, dims, std::size_t{1} << 27));
  std::size_t lhs_cells = 1;
  for (std::size_t d = 0; d < lhs_dims; ++d) lhs_cells *= base;

  const std::uint64_t n = relation.num_rows();
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  const std::size_t threads =
      matching.threads == 0 ? DefaultThreads() : matching.threads;
  const PairLevelSource source(relation, AllRows(n), resolved, total_pairs,
                               threads);

  const std::size_t chunks = EffectiveChunks(total_pairs, threads);
  std::vector<std::vector<std::uint64_t>> joint_per_chunk(
      chunks, std::vector<std::uint64_t>(joint_cells, 0));
  std::vector<std::vector<std::uint64_t>> lhs_per_chunk(
      chunks, std::vector<std::uint64_t>(lhs_cells, 0));
  std::atomic<std::uint64_t> metric_calls{source.precomputed_distances()};

  // The pair levels are in rule order, lhs attributes first.
  std::vector<std::size_t> columns(dims);
  std::iota(columns.begin(), columns.end(), std::size_t{0});

  ParallelFor(
      "approx_exact_stream.pairs", total_pairs, threads,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<Level> run_levels;  // row-major pair levels
        std::uint64_t calls = 0;
        ForEachTriangularRun(
            begin, end, n,
            [&](std::uint64_t, std::uint32_t i, std::uint32_t j_begin,
                std::uint32_t j_end) {
              run_levels.resize((j_end - j_begin) * dims);
              source.Levels(i, j_begin, j_end, run_levels.data(), &calls);
              grid::AddLevelRowsToHistograms(
                  run_levels.data(), j_end - j_begin, dims, columns, lhs_dims,
                  base, 1, joint_per_chunk[chunk].data(),
                  lhs_per_chunk[chunk].data());
            });
        metric_calls.fetch_add(calls, std::memory_order_relaxed);
      });

  std::vector<std::uint64_t> joint(joint_cells, 0);
  std::vector<std::uint64_t> lhs_grid(lhs_cells, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t idx = 0; idx < joint_cells; ++idx) {
      joint[idx] += joint_per_chunk[c][idx];
    }
    for (std::size_t idx = 0; idx < lhs_cells; ++idx) {
      lhs_grid[idx] += lhs_per_chunk[c][idx];
    }
  }

  obs::MetricsRegistry::Global()
      .GetCounter("matching.distances_computed")
      .Add(metric_calls.load(std::memory_order_relaxed));
  DD_LOG(INFO) << "streaming grid built: " << total_pairs << " pairs into "
               << joint_cells << " cells, threads=" << threads;
  DD_ASSIGN_OR_RETURN(
      auto provider,
      GridMeasureProvider::CreateFromHistograms(
          std::move(joint), std::move(lhs_grid), total_pairs, matching.dmax,
          lhs_dims, rhs_dims));
  return std::unique_ptr<MeasureProvider>(std::move(provider));
}

}  // namespace dd::approx
