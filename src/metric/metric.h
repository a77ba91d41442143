// Distance metric interface and registry. The paper treats the choice
// of metric as orthogonal (citing the Bilenko et al. survey); this
// module provides the common ones — edit distance (optionally with
// q-grams, as in the paper's preprocessing), token Jaccard, token
// cosine, and numeric absolute difference — behind one interface, plus a
// registry so applications can plug in their own.

#ifndef DD_METRIC_METRIC_H_
#define DD_METRIC_METRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dd {

// Coarse similarity-family tag the approximation subsystem
// (src/approx/lsh_index.h) uses to pick a near-pair candidate scheme
// per attribute: minhash banding over token sets (kTokenSet) or q-gram
// sets (kQGram), length-bucketed q-gram banding for edit distance
// (kEdit, |len(a)-len(b)| lower-bounds the distance), sorted-neighbor
// windows for numerics (kNumeric). kNone opts the attribute out of
// blocking entirely — still correct, because stratified estimation
// never depends on WHICH pairs the blocker surfaces, only variance
// does.
enum class BlockingFamily { kNone, kTokenSet, kQGram, kEdit, kNumeric };

// A column of distinct values prepared once for many bounded-distance
// queries: the shape of the matching build, which compares each interned
// value against runs of others (matching/builder.h). A metric may keep
// per-value state here (the Levenshtein count sketches) and prepare the
// query value once per call (its pattern masks, its q-gram profile).
// Keeps views of the values span, the bytes it points at and the metric
// that prepared it; all must outlive the column. Safe to query from
// several threads at once.
class PreparedColumn {
 public:
  virtual ~PreparedColumn() = default;

  // out[k] = BoundedDistance(values[id_a], values[ids_b[k]], cap) under
  // BoundedDistance's contract, for out.size() == ids_b.size(). Returns
  // how many of the pairs a lower bound settled above the cap without
  // running the distance kernel.
  virtual std::uint64_t BoundedDistanceMany(
      std::uint32_t id_a, std::span<const std::uint32_t> ids_b, double cap,
      std::span<double> out) const = 0;

  // Heap bytes of the per-value state.
  virtual std::size_t MemoryUsageBytes() const { return 0; }
};

// A distance function on attribute values. Implementations must be
// symmetric, non-negative, and return 0 for identical inputs.
class DistanceMetric {
 public:
  virtual ~DistanceMetric() = default;

  // Stable metric name, e.g. "levenshtein".
  virtual std::string_view name() const = 0;

  // Distance between two values.
  virtual double Distance(std::string_view a, std::string_view b) const = 0;

  // Bounded-distance contract:
  //  * If the true distance d satisfies d <= cap, the return value MUST
  //    equal Distance(a, b) exactly.
  //  * Once the true distance exceeds cap, ANY value strictly greater
  //    than cap may be returned — cap + 1, the exact distance, or
  //    anything in between. Callers must not interpret magnitudes above
  //    the cap: matching/builder.cc maps every raw > cap to the same
  //    saturated level, so the choice of sentinel cannot change a
  //    matching relation.
  // This licence is what lets the Levenshtein kernel stop as soon as the
  // distance provably exceeds the cap. Default falls back to the exact
  // distance.
  virtual double BoundedDistance(std::string_view a, std::string_view b,
                                 double cap) const {
    (void)cap;
    return Distance(a, b);
  }

  // Prepares `values` for BoundedDistance queries by id; see
  // PreparedColumn. The default column answers each pair with
  // BoundedDistance.
  virtual std::unique_ptr<PreparedColumn> Prepare(
      std::span<const std::string_view> values) const;

  // True when distances always lie in [0, 1].
  virtual bool is_normalized() const { return false; }

  // Candidate-generation family for LSH blocking (see BlockingFamily).
  // Custom metrics default to kNone: no blocking, sampling-only.
  virtual BlockingFamily blocking_family() const {
    return BlockingFamily::kNone;
  }
};

// Levenshtein (unit-cost insert/delete/substitute) edit distance. One
// kernel answers every call (metric/levenshtein.h): bit-vector Myers in
// ceil(m/64) words, exact for any length, which returns cap + 1 as soon
// as the length difference or the running score proves the distance
// exceeds the cap. The prepared column keeps a 64-byte count sketch per
// value and settles a pair at cap + 1 without the kernel when the
// sketches' lower bound already exceeds the cap; it builds the pattern
// masks of the query value once per call, for the first pair the
// sketch leaves.
class LevenshteinMetric : public DistanceMetric {
 public:
  std::string_view name() const override { return "levenshtein"; }
  double Distance(std::string_view a, std::string_view b) const override;
  double BoundedDistance(std::string_view a, std::string_view b,
                         double cap) const override;
  std::unique_ptr<PreparedColumn> Prepare(
      std::span<const std::string_view> values) const override;
  BlockingFamily blocking_family() const override {
    return BlockingFamily::kEdit;
  }
};

// Positional q-gram distance: multiset symmetric difference of the
// q-gram profiles (strings padded with q-1 sentinel characters), a
// standard DBMS-friendly approximation of edit distance [Gravano et al.].
// A profile is the sorted list of the value's grams, each packed into
// one 64-bit word (so q <= 8); the distance is a merge count. The
// prepared column builds the profile of the query value once per call.
class QGramMetric : public DistanceMetric {
 public:
  explicit QGramMetric(std::size_t q = 2);
  std::string_view name() const override { return "qgram"; }
  double Distance(std::string_view a, std::string_view b) const override;
  std::unique_ptr<PreparedColumn> Prepare(
      std::span<const std::string_view> values) const override;
  std::size_t q() const { return q_; }
  BlockingFamily blocking_family() const override {
    return BlockingFamily::kQGram;
  }

 private:
  std::size_t q_;
};

// Jaccard distance on whitespace token sets, in [0, 1].
class JaccardMetric : public DistanceMetric {
 public:
  std::string_view name() const override { return "jaccard"; }
  double Distance(std::string_view a, std::string_view b) const override;
  bool is_normalized() const override { return true; }
  BlockingFamily blocking_family() const override {
    return BlockingFamily::kTokenSet;
  }
};

// Cosine distance on whitespace token term-frequency vectors, in [0, 1].
class CosineMetric : public DistanceMetric {
 public:
  std::string_view name() const override { return "cosine"; }
  double Distance(std::string_view a, std::string_view b) const override;
  bool is_normalized() const override { return true; }
  BlockingFamily blocking_family() const override {
    return BlockingFamily::kTokenSet;
  }
};

// Absolute difference of the parsed numeric values. Values that do not
// parse, and pairs whose difference is not a number ("nan" against
// anything, "inf" against "infinity"), are treated as infinitely far
// apart (unless equal as strings).
class NumericAbsMetric : public DistanceMetric {
 public:
  std::string_view name() const override { return "numeric_abs"; }
  double Distance(std::string_view a, std::string_view b) const override;
  BlockingFamily blocking_family() const override {
    return BlockingFamily::kNumeric;
  }
};

// Name -> factory registry. The default registry contains all built-in
// metrics ("levenshtein", "qgram2", "qgram3", "jaccard", "cosine",
// "numeric_abs").
class MetricRegistry {
 public:
  using Factory = std::function<std::unique_ptr<DistanceMetric>()>;

  // Process-wide registry pre-populated with the built-ins.
  static MetricRegistry& Default();

  // Registers a factory; fails with AlreadyExists on duplicates.
  Status Register(std::string name, Factory factory);

  // Instantiates the metric called `name`, or NotFound.
  Result<std::unique_ptr<DistanceMetric>> Create(std::string_view name) const;

  // Names of all registered metrics, sorted.
  std::vector<std::string> Names() const;

 private:
  std::vector<std::pair<std::string, Factory>> factories_;
};

}  // namespace dd

#endif  // DD_METRIC_METRIC_H_
