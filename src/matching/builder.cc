#include "matching/builder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "matching/value_cache.h"
#include "metric/metric.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

PairLevelSource::PairLevelSource(const Relation& relation,
                                 const ResolvedMetrics& resolved,
                                 const MatchingOptions& options,
                                 std::uint64_t pairs_to_compute,
                                 std::size_t threads)
    : relation_(relation), resolved_(resolved) {
  if (!options.value_cache) return;
  attrs_.resize(resolved.num_attributes());
  for (std::size_t a = 0; a < attrs_.size(); ++a) {
    attrs_[a].index = InternColumn(relation, resolved.attr_idx[a]);
    attrs_[a].interned = true;
    attrs_[a].table = ValuePairLevelTable::Build(
        attrs_[a].index, *resolved.metrics[a], resolved.scales[a],
        resolved.dmax, pairs_to_compute, options.value_cache_max_cells,
        threads);
    if (attrs_[a].table != nullptr) {
      precomputed_distances_ += attrs_[a].table->distances_computed();
    }
  }
}

std::pair<std::uint32_t, std::uint32_t> DecodeTriangularPair(std::uint64_t k,
                                                             std::uint64_t n) {
  // Row r holds the n-1-r pairs (r, r+1..n-1), so pairs before row r
  // number r*(n-1) - r*(r-1)/2. Start from the quadratic-formula
  // estimate of the row, then correct by +-1 steps.
  double nd = static_cast<double>(n);
  double kd = static_cast<double>(k);
  double approx = nd - 0.5 - std::sqrt((nd - 0.5) * (nd - 0.5) - 2.0 * kd);
  std::uint64_t i = approx > 0 ? static_cast<std::uint64_t>(approx) : 0;
  if (i >= n - 1) i = n - 2;
  auto row_start = [n](std::uint64_t r) {
    return r * (n - 1) - r * (r - 1) / 2;  // offset of pair (r, r+1)
  };
  while (i + 1 < n && row_start(i + 1) <= k) ++i;
  while (i > 0 && row_start(i) > k) --i;
  std::uint64_t j = i + 1 + (k - row_start(i));
  return {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)};
}

std::uint64_t EncodeTriangularPair(std::uint64_t i, std::uint64_t j,
                                   std::uint64_t n) {
  return i * (n - 1) - i * (i - 1) / 2 + (j - i - 1);
}

Level BucketDistance(double raw, double scale, int dmax) {
  if (!(raw >= 0.0)) raw = 0.0;  // NaN or negative metrics clamp to 0.
  double scaled = raw * scale;
  if (std::isinf(scaled) || scaled >= static_cast<double>(dmax)) {
    return static_cast<Level>(dmax);
  }
  long level = std::lround(scaled);
  if (level < 0) level = 0;
  if (level > dmax) level = dmax;
  return static_cast<Level>(level);
}

Level ResolvedMetrics::ComputeLevel(const Relation& relation, std::uint32_t i,
                                    std::uint32_t j, std::size_t a) const {
  const std::string& va = relation.at(i, attr_idx[a]);
  const std::string& vb = relation.at(j, attr_idx[a]);
  // The cap at which BoundedDistance may stop early: any raw distance
  // mapping to >= dmax is equivalent, so raw cap = dmax / scale.
  const double cap = static_cast<double>(dmax) / scales[a];
  const double raw = metrics[a]->BoundedDistance(va, vb, cap);
  return BucketDistance(raw, scales[a], dmax);
}

void ResolvedMetrics::ComputeLevels(const Relation& relation, std::uint32_t i,
                                    std::uint32_t j, Level* levels) const {
  for (std::size_t a = 0; a < attr_idx.size(); ++a) {
    levels[a] = ComputeLevel(relation, i, j, a);
  }
}

Result<ResolvedMetrics> ResolveMatchingMetrics(
    const Schema& schema, const std::vector<std::string>& attributes,
    const MatchingOptions& options) {
  if (options.dmax < 1 || options.dmax > 255) {
    return Status::InvalidArgument(
        StrFormat("dmax %d outside [1, 255]", options.dmax));
  }
  if (attributes.empty()) {
    return Status::InvalidArgument("no attributes given");
  }
  ResolvedMetrics resolved;
  resolved.dmax = options.dmax;
  DD_ASSIGN_OR_RETURN(resolved.attr_idx, schema.ResolveAll(attributes));
  resolved.metrics.reserve(attributes.size());
  for (std::size_t a = 0; a < attributes.size(); ++a) {
    const Attribute& attr = schema.attribute(resolved.attr_idx[a]);
    std::string metric_name =
        attr.type == AttributeType::kNumeric ? "numeric_abs" : "levenshtein";
    auto it = options.metric_overrides.find(attr.name);
    if (it != options.metric_overrides.end()) metric_name = it->second;
    DD_ASSIGN_OR_RETURN(auto metric,
                        MetricRegistry::Default().Create(metric_name));
    double scale = metric->is_normalized() ? static_cast<double>(options.dmax)
                                           : 1.0;
    auto sit = options.scale_overrides.find(attr.name);
    if (sit != options.scale_overrides.end()) scale = sit->second;
    // An infinite scale turns a zero distance into 0 * inf = NaN.
    if (!(scale > 0.0) || !std::isfinite(scale)) {
      return Status::InvalidArgument("scale must be positive and finite for " +
                                     attr.name);
    }
    resolved.metrics.push_back(std::move(metric));
    resolved.scales.push_back(scale);
  }
  return resolved;
}

Result<MatchingRelation> BuildMatchingRelation(
    const Relation& relation, const std::vector<std::string>& attributes,
    const MatchingOptions& options) {
  if (options.mode != MatchingMode::kExact) {
    return Status::InvalidArgument(
        "MatchingMode::kApprox is owned by approx::SampledMatchingBuilder; "
        "BuildMatchingRelation only builds exact relations");
  }
  obs::TraceSpan span("matching_build");
  static obs::Counter& pairs_counter =
      obs::MetricsRegistry::Global().GetCounter("matching.pairs_computed");
  static obs::Counter& distance_counter =
      obs::MetricsRegistry::Global().GetCounter("matching.distances_computed");
  DD_ASSIGN_OR_RETURN(
      ResolvedMetrics resolved,
      ResolveMatchingMetrics(relation.schema(), attributes, options));

  const std::uint64_t n = relation.num_rows();
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  const std::size_t threads =
      options.threads == 0 ? DefaultThreads() : options.threads;
  MatchingRelation out(attributes, options.dmax);

  const bool full =
      options.max_pairs == 0 || options.max_pairs >= total_pairs;
  const std::uint64_t pairs_to_compute =
      full ? total_pairs : options.max_pairs;
  const PairLevelSource source(relation, resolved, options, pairs_to_compute,
                               threads);
  std::atomic<std::uint64_t> metric_calls{source.precomputed_distances()};
  const std::size_t num_attrs = attributes.size();

  if (full) {
    out.ResizeRows(total_pairs);
    ParallelFor("matching_build.pairs", total_pairs, threads,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  if (begin >= end) return;
                  std::vector<Level> levels(num_attrs);
                  std::uint64_t calls = 0;
                  auto [i, j] = DecodeTriangularPair(begin, n);
                  for (std::size_t k = begin; k < end; ++k) {
                    source.Levels(i, j, levels.data(), &calls);
                    out.SetTuple(k, i, j, levels.data());
                    if (++j == n) {
                      ++i;
                      j = i + 1;
                    }
                  }
                  metric_calls.fetch_add(calls, std::memory_order_relaxed);
                });
    pairs_counter.Add(total_pairs);
    distance_counter.Add(metric_calls.load(std::memory_order_relaxed));
    DD_LOG(INFO) << "matching relation built: all " << total_pairs
                 << " pairs over " << n << " rows, " << attributes.size()
                 << " attribute(s), dmax=" << options.dmax << ", threads="
                 << threads << ", cached level tables: "
                 << source.tables_built() << "/" << attributes.size();
    obs::SetMemoryGauge("matching", out.MemoryUsageBytes());
    obs::SetMemoryGauge("value_cache", source.cache_bytes());
    return out;
  }

  // Uniform sample without replacement over the triangular enumeration.
  Rng rng(options.seed);
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(options.max_pairs * 2);
  std::vector<std::uint64_t> ks;
  ks.reserve(options.max_pairs);
  while (ks.size() < options.max_pairs) {
    std::uint64_t k = rng.NextBounded(total_pairs);
    if (chosen.insert(k).second) ks.push_back(k);
  }
  std::sort(ks.begin(), ks.end());
  out.ResizeRows(ks.size());
  ParallelFor("matching_build.sampled", ks.size(), threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                std::vector<Level> levels(num_attrs);
                std::uint64_t calls = 0;
                for (std::size_t r = begin; r < end; ++r) {
                  auto [i, j] = DecodeTriangularPair(ks[r], n);
                  source.Levels(i, j, levels.data(), &calls);
                  out.SetTuple(r, i, j, levels.data());
                }
                metric_calls.fetch_add(calls, std::memory_order_relaxed);
              });
  pairs_counter.Add(ks.size());
  distance_counter.Add(metric_calls.load(std::memory_order_relaxed));
  DD_LOG(INFO) << "matching relation built: sampled " << ks.size() << " of "
               << total_pairs << " pairs over " << n << " rows, dmax="
               << options.dmax << ", threads=" << threads
               << ", cached level tables: " << source.tables_built() << "/"
               << attributes.size();
  obs::SetMemoryGauge("matching", out.MemoryUsageBytes());
  obs::SetMemoryGauge("value_cache", source.cache_bytes());
  return out;
}

}  // namespace dd
