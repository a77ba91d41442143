// Pair-wise matching: computes the matching relation M from a data
// relation by evaluating a distance metric per attribute on every tuple
// pair (optionally a uniform sample of pairs, to bound |M| like the
// paper's 1,000,000-matching-tuple preparation) and bucketing raw
// distances into the threshold domain {0..dmax}.

#ifndef DD_MATCHING_BUILDER_H_
#define DD_MATCHING_BUILDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "matching/matching_relation.h"
#include "matching/value_cache.h"
#include "metric/metric.h"

namespace dd {

// How pairs enter the matching relation. kExact is the builder in this
// file: every pair, or a plain uniform `max_pairs` sample. kApprox
// selects the stratified near/tail build owned by
// approx::SampledMatchingBuilder (src/approx/sampled_builder.h), which
// carries estimation weights that a single MatchingRelation cannot
// express — BuildMatchingRelation therefore rejects kApprox instead of
// silently ignoring it.
enum class MatchingMode { kExact, kApprox };

struct MatchingOptions {
  // Build mode; see MatchingMode. Facades (ddtool, discover) route
  // kApprox to the approx subsystem.
  MatchingMode mode = MatchingMode::kExact;

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

  // Value-pair distance cache (matching/value_cache.h): intern distinct
  // attribute values and compute each distinct (value_i, value_j)
  // distance once. Never changes the produced relation; disable only to
  // measure the uncached build.
  bool value_cache = true;

  // Per-attribute cell bound for the precomputed distinct-pair level
  // table (one byte per cell). Attributes whose table would exceed it
  // fall back to the equal-value shortcut alone.
  std::uint64_t value_cache_max_cells = std::uint64_t{1} << 26;
};

// Metric machinery resolved once per (schema, attributes, options):
// schema column of every matching attribute, its distance metric, and
// its level scale. Shared by the one-shot build below and the
// incremental builder (incr/incremental_builder.h), which keeps one
// resolution alive across many delta batches.
struct ResolvedMetrics {
  std::vector<std::size_t> attr_idx;  // schema columns, one per attribute
  std::vector<std::unique_ptr<DistanceMetric>> metrics;
  std::vector<double> scales;
  int dmax = 10;

  std::size_t num_attributes() const { return attr_idx.size(); }

  // Bucketed distance levels of the data-tuple pair (i, j) of
  // `relation`; `levels` must hold num_attributes() entries. Uses each
  // metric's BoundedDistance early-exit at the level-dmax raw cap.
  void ComputeLevels(const Relation& relation, std::uint32_t i,
                     std::uint32_t j, Level* levels) const;

  // Same, for a single attribute (position `a` in attr_idx).
  Level ComputeLevel(const Relation& relation, std::uint32_t i,
                     std::uint32_t j, std::size_t a) const;
};

// Resolves metrics and scales for `attributes` against `schema`. Fails
// on unknown attributes/metrics, non-positive or non-finite scales, or
// a dmax outside [1, 255].
Result<ResolvedMetrics> ResolveMatchingMetrics(
    const Schema& schema, const std::vector<std::string>& attributes,
    const MatchingOptions& options);

// Per-attribute cached level source: the precomputed distinct-pair
// table when it pays off, else interning with the equal-value shortcut,
// else the raw metric. All three produce identical levels.
struct AttrLevelSource {
  AttributeValueIndex index;                    // empty when cache disabled
  std::unique_ptr<ValuePairLevelTable> table;   // may be null
  bool interned = false;
};

// Levels of arbitrary (i, j) data-tuple pairs through the value cache —
// the per-pair kernel shared by the one-shot build below, the streaming
// exact grid build, and the sampled builder (src/approx). Holds
// references to `relation` and `resolved`; both must outlive it.
class PairLevelSource {
 public:
  // `pairs_to_compute` is the expected number of Levels() calls — the
  // payoff signal deciding whether an attribute's distinct-pair table
  // is worth precomputing (matching/value_cache.h).
  PairLevelSource(const Relation& relation, const ResolvedMetrics& resolved,
                  const MatchingOptions& options,
                  std::uint64_t pairs_to_compute, std::size_t threads);

  // Levels of pair (i, j); adds the number of metric evaluations it
  // performed to *metric_calls. Safe to call concurrently.
  void Levels(std::uint32_t i, std::uint32_t j, Level* levels,
              std::uint64_t* metric_calls) const {
    for (std::size_t a = 0; a < resolved_.num_attributes(); ++a) {
      if (a < attrs_.size() && attrs_[a].interned) {
        const AttrLevelSource& attr = attrs_[a];
        const std::uint32_t ia = attr.index.row_ids[i];
        const std::uint32_t ib = attr.index.row_ids[j];
        if (attr.table != nullptr) {
          levels[a] = attr.table->LevelOf(ia, ib);
          continue;
        }
        if (ia == ib) {  // d(x, x) = 0, a metric axiom.
          levels[a] = 0;
          continue;
        }
      }
      levels[a] = resolved_.ComputeLevel(relation_, i, j, a);
      ++*metric_calls;
    }
  }

  std::uint64_t precomputed_distances() const {
    return precomputed_distances_;
  }

  std::size_t tables_built() const {
    std::size_t n = 0;
    for (const auto& a : attrs_) n += a.table != nullptr ? 1 : 0;
    return n;
  }

  // Heap bytes across the per-attribute level tables (mem.value_cache).
  std::size_t cache_bytes() const {
    std::size_t bytes = 0;
    for (const auto& a : attrs_) {
      if (a.table != nullptr) bytes += a.table->MemoryUsageBytes();
    }
    return bytes;
  }

 private:
  const Relation& relation_;
  const ResolvedMetrics& resolved_;
  std::vector<AttrLevelSource> attrs_;
  std::uint64_t precomputed_distances_ = 0;
};

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

}  // namespace dd

#endif  // DD_MATCHING_BUILDER_H_
