// Process-wide metrics registry: named counters, gauges and fixed-bucket
// latency histograms. Handles are created (or found) once per call site
// and then updated lock-free with relaxed atomics, so instrumentation is
// safe from the worker threads spawned by common/parallel.h and cheap
// enough for the counting hot paths. Reads go through Snapshot(), which
// copies a consistent-enough view for reporting (individual values are
// atomically read; cross-metric skew is acceptable for run reports).
//
// Typical call-site idiom (the static keeps registry lookups off the hot
// path):
//
//   static dd::obs::Counter& rows =
//       dd::obs::MetricsRegistry::Global().GetCounter("provider.rows_scanned");
//   rows.Add(m);

#ifndef DD_OBS_METRICS_H_
#define DD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dd::obs {

class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: bucket i counts observations with
// value <= bounds[i] (first matching bucket); one implicit overflow
// bucket counts the rest. Observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  // bucket_count(bounds().size()) is the overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;  // Strictly increasing upper bounds.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Default bounds for millisecond-scale latency histograms.
std::vector<double> DefaultLatencyBoundsMs();

// Plain-struct copy of the registry state for exporters.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  // Constant string facts keyed by name and label, e.g.
  // simd.dispatch{mode="avx2"}.
  struct InfoValue {
    std::string name;
    std::string label;
    std::string value;
  };
  std::vector<CounterValue> counters;    // sorted by name
  std::vector<GaugeValue> gauges;        // sorted by name
  std::vector<HistogramValue> histograms;  // sorted by name
  std::vector<InfoValue> infos;          // sorted by name
};

// Percentile estimate from the fixed buckets, q in [0, 1]: the target
// rank is interpolated linearly inside the bucket it falls in (bucket
// i spans (bounds[i-1], bounds[i]], the first bucket starts at 0), so
// the estimate is exact when the rank lands on a bucket bound.
// Observations in the overflow bucket are clamped to the last bound —
// there is no upper edge to interpolate toward. Two cases are exact by
// construction: an empty histogram has no percentile and returns NaN
// (callers render "no data" explicitly), and a histogram whose
// observations all fell into one bucket returns that bucket's upper
// bound without interpolating.
double HistogramPercentile(const MetricsSnapshot::HistogramValue& hist,
                           double q);

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Finds or creates the named metric. References stay valid for the
  // registry's lifetime (metrics are never deleted, only Reset()).
  // Creating the same name as two different kinds is a programmer error
  // and aborts via DD_CHECK.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // `bounds` is used on first creation only; later calls return the
  // existing histogram regardless of bounds.
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  // Sets (or replaces) a constant info metric carrying a string fact
  // (e.g. simd.dispatch{mode="avx2"}). Exported by the JSON run report
  // and the crash dump's metrics section; survives ResetAll (it
  // describes the process, not a run).
  void SetInfo(const std::string& name, const std::string& label,
               const std::string& value);

  // Zeroes every registered metric (names and handles survive; info
  // metrics are process facts and are kept).
  void ResetAll();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* Find(const std::string& name);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<MetricsSnapshot::InfoValue> infos_;
};

}  // namespace dd::obs

#endif  // DD_OBS_METRICS_H_
