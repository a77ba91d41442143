#include "matching/builder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "common/parallel.h"
#include "common/string_util.h"
#include "matching/pair_sampler.h"
#include "matching/value_cache.h"
#include "metric/metric.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

PairLevelSource::PairLevelSource(const Relation& relation,
                                 std::span<const std::uint32_t> rows,
                                 const ResolvedMetrics& resolved,
                                 std::uint64_t pairs_to_compute,
                                 std::size_t threads)
    : resolved_(resolved), attrs_(resolved.num_attributes()) {
  for (std::size_t a = 0; a < attrs_.size(); ++a) {
    attrs_[a].index = InternColumn(relation, rows, resolved.attr_idx[a]);
    attrs_[a].table = ValuePairLevelTable::Build(
        attrs_[a].index, *resolved.metrics[a], resolved.scales[a],
        resolved.dmax, pairs_to_compute, threads);
    if (attrs_[a].table != nullptr) {
      precomputed_distances_ += attrs_[a].table->distances_computed();
    }
  }
}

void PairLevelSource::Levels(std::uint32_t i, std::uint32_t j_begin,
                             std::uint32_t j_end, Level* out,
                             std::uint64_t* metric_calls) const {
  const std::size_t num_attrs = attrs_.size();
  const std::size_t run = j_end - j_begin;
  // The metric route's operands; per thread, so concurrent callers
  // never share them and a run allocates nothing once warm.
  thread_local std::vector<std::string_view> others;
  thread_local std::vector<double> raw;
  for (std::size_t a = 0; a < num_attrs; ++a) {
    const AttrLevelSource& attr = attrs_[a];
    const std::uint32_t* ids = attr.index.row_ids.data() + j_begin;
    const std::uint32_t id_i = attr.index.row_ids[i];
    Level* column = out + a;
    if (attr.table != nullptr) {
      for (std::size_t r = 0; r < run; ++r) {
        column[r * num_attrs] = attr.table->LevelOf(id_i, ids[r]);
      }
      continue;
    }
    others.clear();
    for (std::size_t r = 0; r < run; ++r) {
      if (ids[r] != id_i) others.emplace_back(*attr.index.values[ids[r]]);
    }
    const DistanceMetric& metric = *resolved_.metrics[a];
    const double scale = resolved_.scales[a];
    const std::string_view value = *attr.index.values[id_i];
    // Any raw distance mapping to >= dmax is equivalent, so the metric
    // may stop early at raw cap = dmax / scale.
    const double cap = static_cast<double>(resolved_.dmax) / scale;
    raw.resize(others.size());
    if (others.size() == 1) {
      raw[0] = metric.BoundedDistance(value, others[0], cap);
    } else if (!others.empty()) {
      metric.BoundedDistanceMany(value, others, cap, raw);
    }
    *metric_calls += others.size();
    for (std::size_t r = 0, k = 0; r < run; ++r) {
      column[r * num_attrs] =  // d(x, x) = 0, a metric axiom.
          ids[r] == id_i ? 0 : BucketDistance(raw[k++], scale, resolved_.dmax);
    }
  }
}

std::uint64_t FillAllPairs(const PairLevelSource& source,
                           std::span<const std::uint32_t> rows,
                           std::size_t threads, MatchingRelation* out) {
  const std::uint64_t n = rows.size();
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  const std::size_t num_attrs = out->num_attributes();
  out->ResizeRows(total_pairs);
  std::atomic<std::uint64_t> metric_calls{0};
  ParallelFor("matching_build.pairs", total_pairs, threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                std::vector<Level> levels;
                std::uint64_t calls = 0;
                ForEachTriangularRun(
                    begin, end, n,
                    [&](std::uint64_t k, std::uint32_t i, std::uint32_t j_begin,
                        std::uint32_t j_end) {
                      levels.resize((j_end - j_begin) * num_attrs);
                      source.Levels(i, j_begin, j_end, levels.data(), &calls);
                      for (std::uint32_t j = j_begin; j < j_end; ++j) {
                        out->SetTuple(k + (j - j_begin), rows[i], rows[j],
                                      &levels[(j - j_begin) * num_attrs]);
                      }
                    });
                metric_calls.fetch_add(calls, std::memory_order_relaxed);
              });
  return metric_calls.load(std::memory_order_relaxed);
}

std::uint64_t FillSampledPairs(const PairLevelSource& source, std::uint64_t n,
                               std::span<const std::uint64_t> ks,
                               std::size_t threads, MatchingRelation* out) {
  const std::size_t offset = out->num_tuples();
  const std::size_t num_attrs = out->num_attributes();
  out->ResizeRows(offset + ks.size());
  std::atomic<std::uint64_t> metric_calls{0};
  ParallelFor("matching_build.sampled", ks.size(), threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                std::vector<Level> levels(num_attrs);
                std::uint64_t calls = 0;
                for (std::size_t r = begin; r < end; ++r) {
                  auto [i, j] = DecodeTriangularPair(ks[r], n);
                  source.Levels(i, j, j + 1, levels.data(), &calls);
                  out->SetTuple(offset + r, i, j, levels.data());
                }
                metric_calls.fetch_add(calls, std::memory_order_relaxed);
              });
  return metric_calls.load(std::memory_order_relaxed);
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
  const std::vector<std::uint32_t> rows = AllRows(n);
  const PairLevelSource source(relation, rows, resolved, pairs_to_compute,
                               threads);
  std::uint64_t metric_calls = source.precomputed_distances();
  if (full) {
    metric_calls += FillAllPairs(source, rows, threads, &out);
  } else {
    // Uniform sample without replacement over the triangular enumeration.
    const std::vector<std::uint64_t> ks =
        PairSampler(total_pairs, options.seed, {}).GrowTo(options.max_pairs);
    metric_calls += FillSampledPairs(source, n, ks, threads, &out);
  }
  pairs_counter.Add(out.num_tuples());
  distance_counter.Add(metric_calls);
  DD_LOG(INFO) << "matching relation built: " << out.num_tuples() << " of "
               << total_pairs << " pairs over " << n << " rows, "
               << attributes.size() << " attribute(s), dmax=" << options.dmax
               << ", threads=" << threads << ", cached level tables: "
               << source.tables_built() << "/" << attributes.size();
  obs::SetMemoryGauge("matching", out.MemoryUsageBytes());
  obs::SetMemoryGauge("value_cache", source.cache_bytes());
  return out;
}

}  // namespace dd
