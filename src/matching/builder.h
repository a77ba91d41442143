// Pair-wise matching: computes the matching relation M from a data
// relation by evaluating a distance metric per attribute on every tuple
// pair (optionally a uniform sample of pairs, to bound |M| like the
// paper's 1,000,000-matching-tuple preparation) and bucketing raw
// distances into the threshold domain {0..dmax}. Every producer of M —
// this one-shot build, src/approx and src/incr — gets its levels from
// PairLevelSource below.

#ifndef DD_MATCHING_BUILDER_H_
#define DD_MATCHING_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "matching/matching_relation.h"
#include "matching/value_cache.h"
#include "metric/metric.h"

namespace dd {

struct MatchingOptions {
  // Number of distance levels is dmax + 1 (levels 0..dmax). The paper's
  // experiments use a domain like {0, 1, ..., 10}.
  int dmax = 10;

  // Upper bound on |M|. 0 means all N(N-1)/2 pairs; otherwise a uniform
  // sample without replacement of exactly min(max_pairs, total) pairs.
  std::size_t max_pairs = 0;

  // Seed for pair sampling.
  std::uint64_t seed = 1;

  // Metric per attribute name; attributes not listed default to
  // "levenshtein" for string attributes and "numeric_abs" for numerics.
  std::map<std::string, std::string> metric_overrides;

  // Raw distances are mapped to levels as
  //   level = min(round(raw * scale), dmax).
  // Default scale is 1.0 for unbounded metrics (raw edit distance counts
  // directly) and dmax for normalized metrics (so [0,1] spreads over the
  // full domain). Overrides replace the default per attribute.
  std::map<std::string, double> scale_overrides;

  // Concurrency of the pair-distance computation. 0 = DefaultThreads()
  // (the --threads flag / DD_THREADS env). The produced relation is
  // bit-identical at any thread count.
  std::size_t threads = 0;
};

// Metric machinery resolved once per (schema, attributes, options):
// schema column of every matching attribute, its distance metric, and
// its level scale. Shared by every matching producer; the incremental
// builder (incr/incremental_builder.h) keeps one resolution alive
// across many delta batches.
struct ResolvedMetrics {
  std::vector<std::size_t> attr_idx;  // schema columns, one per attribute
  std::vector<std::unique_ptr<DistanceMetric>> metrics;
  std::vector<double> scales;
  int dmax = 10;

  std::size_t num_attributes() const { return attr_idx.size(); }
};

// Resolves metrics and scales for `attributes` against `schema`. Fails
// on unknown attributes/metrics, non-positive or non-finite scales, or
// a dmax outside [1, 255].
Result<ResolvedMetrics> ResolveMatchingMetrics(
    const Schema& schema, const std::vector<std::string>& attributes,
    const MatchingOptions& options);

// Per-attribute state of a PairLevelSource: the interned values, the
// metric prepared over them and, when it pays off, the distinct-pair
// level table or the query values' level rows (at most one of the two).
struct AttrLevelSource {
  AttributeValueIndex index;
  std::unique_ptr<PreparedColumn> column;      // views index.values
  std::unique_ptr<ValuePairLevelTable> table;  // may be null
  std::unique_ptr<ValueLevelRows> rows;        // may be null
};

// Metric work of a matching producer: `computed` counts the pairs a
// metric answered (level-table cells plus queries), `bounded` the subset
// a lower bound settled without running the distance kernel.
struct MetricWork {
  std::uint64_t computed = 0;
  std::uint64_t bounded = 0;

  MetricWork& operator+=(const MetricWork& other) {
    computed += other.computed;
    bounded += other.bounded;
    return *this;
  }
};

// Adds `work` to the matching.distances_computed and
// matching.distances_bounded counters; each producer calls it once.
void PublishMetricWork(const MetricWork& work);

// The pair-level kernel behind every matching producer: the one-shot
// build below, the streaming exact grid build and the sampled builder
// (src/approx), and the incremental delta build and its Rebuild()
// (src/incr). It is the only code outside src/metric that evaluates a
// metric. Holds a reference to `resolved`, which must outlive it; after
// construction it reads only its own index, never the relation.
class PairLevelSource {
 public:
  // From one index per attribute: indexes[a] interns attribute a at
  // every position, and every position below indexes them. Runs are
  // headed only by positions >= `first_query`: whole-relation producers
  // pass 0, a delta build the position of its first new tuple.
  // `pairs_to_compute` is the expected number of pairs queried. Per
  // attribute, ChooseLevelRoute (matching/value_cache.h) weighs it
  // against a distinct-pair table and against one level row per
  // distinct value at the query positions. The indexes' values must
  // outlive the source.
  PairLevelSource(std::vector<AttributeValueIndex> indexes,
                  std::uint32_t first_query, const ResolvedMetrics& resolved,
                  std::uint64_t pairs_to_compute, std::size_t threads);

  // Interns `rows` of `relation` (InternColumn) and builds the source
  // from those indexes: position p is rows[p]. One-shot producers pass
  // AllRows(n).
  PairLevelSource(const Relation& relation,
                  std::span<const std::uint32_t> rows,
                  std::uint32_t first_query, const ResolvedMetrics& resolved,
                  std::uint64_t pairs_to_compute, std::size_t threads);

  // Levels of the position pairs (i, j) for j in [j_begin, j_end) into
  // `out`, in the layout the caller names: the level of the r-th pair
  // on attribute a goes to out[a * attr_stride + r * pair_stride]
  // (row-major [pair][attribute]: 1, num_attributes; column-major
  // [attribute][pair]: run length, 1). i must be >= first_query. Per
  // attribute a pair is a table lookup, a lookup in value i's level
  // row, level 0 for equal values, or a metric evaluation: one
  // PreparedColumn::BoundedDistanceMany of value i over the run's
  // remaining values. Adds the metric evaluations to *work. Safe to call
  // concurrently.
  void Levels(std::uint32_t i, std::uint32_t j_begin, std::uint32_t j_end,
              Level* out, std::size_t attr_stride, std::size_t pair_stride,
              MetricWork* work) const;

  // The same for the listed positions: the r-th pair is (i, js[r]), and
  // the listed pairs form one run.
  void Levels(std::uint32_t i, std::span<const std::uint32_t> js, Level* out,
              std::size_t attr_stride, std::size_t pair_stride,
              MetricWork* work) const;

  // Metric work spent on the level tables and rows.
  const MetricWork& precomputed() const { return precomputed_; }

  // How attribute `a` is answered.
  LevelRoute route(std::size_t a) const {
    if (attrs_[a].table != nullptr) return LevelRoute::kTable;
    return attrs_[a].rows != nullptr ? LevelRoute::kRows : LevelRoute::kMetric;
  }

  std::size_t tables_built() const {
    std::size_t n = 0;
    for (const auto& a : attrs_) n += a.table != nullptr ? 1 : 0;
    return n;
  }

  // Heap bytes across the per-attribute level tables, level rows and
  // prepared columns (mem.value_cache).
  std::size_t cache_bytes() const {
    std::size_t bytes = 0;
    for (const auto& a : attrs_) {
      bytes += a.column->MemoryUsageBytes();
      if (a.table != nullptr) bytes += a.table->MemoryUsageBytes();
      if (a.rows != nullptr) bytes += a.rows->MemoryUsageBytes();
    }
    return bytes;
  }

 private:
  // Both forms of Levels for attribute `a`: the levels of value id_i
  // against ids[0, run) into column[r * pair_stride].
  void AttrLevels(std::size_t a, std::uint32_t id_i, const std::uint32_t* ids,
                  std::size_t run, Level* column, std::size_t pair_stride,
                  MetricWork* work) const;

  const ResolvedMetrics& resolved_;
  std::vector<AttrLevelSource> attrs_;
  MetricWork precomputed_;
};

// Fills `out` with every position pair of `source` in row-major
// triangular order, as tuple pairs (rows[i], rows[j]). Each run of
// pairs under one i is computed column-major and stored one column at
// a time (MatchingRelation::StoreLevels). Parallel over `threads`; the
// result is bit-identical at any thread count. Returns the metric work
// of the queries (table cells not included).
MetricWork FillAllPairs(const PairLevelSource& source,
                        std::span<const std::uint32_t> rows,
                        std::size_t threads, MatchingRelation* out);

// Appends to `out` the pairs at the sorted triangular indices `ks` over
// `n` positions, which equal tuple ids (a whole-relation source). The
// sampled partners of one row i are one run of the listed-positions
// Levels, stored one column at a time. Parallel over `threads`; a chunk
// boundary may split a row's run, and the result is bit-identical at
// any thread count. Returns the metric work of the queries.
MetricWork FillSampledPairs(const PairLevelSource& source, std::uint64_t n,
                            std::span<const std::uint64_t> ks,
                            std::size_t threads, MatchingRelation* out);

// Builds M over `attributes` (the union of the rule's X and Y). Fails on
// unknown attributes/metrics or a dmax outside [1, 255].
Result<MatchingRelation> BuildMatchingRelation(
    const Relation& relation, const std::vector<std::string>& attributes,
    const MatchingOptions& options);

// Maps one raw distance to a level (exposed for tests and the detector).
Level BucketDistance(double raw, double scale, int dmax);

// Decodes the k-th pair (0-based) of the row-major upper-triangular
// enumeration over n items into (i, j) with i < j. The builder chunks
// the triangular pair range by this global index, so any chunking
// reproduces the sequential pair order.
//
// Overflow note: pair indices are 64-bit BY CONTRACT. n(n-1)/2 exceeds
// uint32_t already at n ≈ 93k, so every call site must carry k (and any
// row-offset arithmetic) in std::uint64_t — audited in PR 7, regression-
// tested at n = 100k in tests/approx_test.cc.
std::pair<std::uint32_t, std::uint32_t> DecodeTriangularPair(std::uint64_t k,
                                                             std::uint64_t n);

// Inverse of DecodeTriangularPair: the global triangular index of pair
// (i, j), i < j < n. All arithmetic in 64 bits.
std::uint64_t EncodeTriangularPair(std::uint64_t i, std::uint64_t j,
                                   std::uint64_t n);

// Walks the row-major triangular range [begin, end) over n items as
// runs of pairs (i, j), j in [j_begin, j_end), under a fixed i: calls
// fn(k, i, j_begin, j_end) per run, k being the global index of
// (i, j_begin). The shape every run-at-a-time consumer of the range
// takes (the level table build, FillAllPairs, the streaming grid).
template <typename Fn>
void ForEachTriangularRun(std::uint64_t begin, std::uint64_t end,
                          std::uint64_t n, Fn&& fn) {
  if (begin >= end) return;
  auto [i, j] = DecodeTriangularPair(begin, n);
  for (std::uint64_t k = begin; k < end;) {
    const std::uint64_t run = std::min<std::uint64_t>(end - k, n - j);
    fn(k, i, j, static_cast<std::uint32_t>(j + run));
    k += run;
    ++i;
    j = i + 1;
  }
}

}  // namespace dd

#endif  // DD_MATCHING_BUILDER_H_
