// Micro-benchmarks for the observability primitives (src/obs): the
// numbers here bound the per-event cost that instrumentation adds to
// the determination hot paths. The budget (DESIGN.md §Observability) is
// a few nanoseconds per counter increment / suppressed log statement
// and tens of nanoseconds per aggregated trace span, so that
// whole-pipeline overhead stays within noise (<= 3% on micro_counting).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "benchmarks/bench_util.h"
#include "common/parallel.h"
#include "core/determiner.h"
#include "obs/diag/flight_recorder.h"
#include "obs/explain/recorder.h"
#include "obs/pool_stats.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof/profiler.h"
#include "obs/trace.h"

namespace {

void BM_CounterIncrement(benchmark::State& state) {
  dd::obs::Counter& counter =
      dd::obs::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterIncrement)->Threads(1)->Threads(4);

void BM_GaugeSet(benchmark::State& state) {
  dd::obs::Gauge& gauge =
      dd::obs::MetricsRegistry::Global().GetGauge("bench.gauge");
  double v = 0.0;
  for (auto _ : state) {
    gauge.Set(v);
    v += 1.0;
  }
  benchmark::DoNotOptimize(gauge.value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  dd::obs::Histogram& hist = dd::obs::MetricsRegistry::Global().GetHistogram(
      "bench.histogram", dd::obs::DefaultLatencyBoundsMs());
  double v = 0.0;
  for (auto _ : state) {
    hist.Observe(v);
    v += 0.37;
    if (v > 2000.0) v = 0.0;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramObserve)->Threads(1)->Threads(4);

// Registry lookup by name: not for hot loops (linear scan under a
// mutex) — handles should be cached, as every instrumented call site
// does with a function-local static.
void BM_RegistryLookup(benchmark::State& state) {
  dd::obs::MetricsRegistry& registry = dd::obs::MetricsRegistry::Global();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.GetCounter("bench.lookup"));
  }
}
BENCHMARK(BM_RegistryLookup);

// Aggregated span enter/exit on an existing node (the steady-state cost
// of a per-LHS span): two clock reads plus two relaxed fetch_adds.
void BM_TraceSpanEnabled(benchmark::State& state) {
  dd::obs::Tracer::Global().set_enabled(true);
  for (auto _ : state) {
    dd::obs::TraceSpan span("bench_span");
  }
}
BENCHMARK(BM_TraceSpanEnabled)->Threads(1)->Threads(4);

void BM_TraceSpanDisabled(benchmark::State& state) {
  dd::obs::Tracer::Global().set_enabled(false);
  for (auto _ : state) {
    dd::obs::TraceSpan span("bench_span_off");
  }
  dd::obs::Tracer::Global().set_enabled(true);
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_NestedTraceSpans(benchmark::State& state) {
  dd::obs::Tracer::Global().set_enabled(true);
  for (auto _ : state) {
    dd::obs::TraceSpan outer("bench_outer");
    dd::obs::TraceSpan inner("bench_inner");
  }
}
BENCHMARK(BM_NestedTraceSpans);

// A log statement below the runtime threshold: one relaxed load, the
// stream operands are never evaluated.
void BM_LogSuppressed(benchmark::State& state) {
  dd::obs::SetLogLevel(dd::obs::LogLevel::kError);
  std::uint64_t n = 0;
  for (auto _ : state) {
    DD_LOG(INFO) << "suppressed " << ++n;
  }
  benchmark::DoNotOptimize(n);
  dd::obs::ReloadLogLevelFromEnv();
}
BENCHMARK(BM_LogSuppressed);

// DD_VLOG without -DDD_ENABLE_VLOG: must compile to nothing.
void BM_VlogCompiledOut(benchmark::State& state) {
  std::uint64_t n = 0;
  for (auto _ : state) {
    DD_VLOG(1) << "never " << ++n;
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_VlogCompiledOut);

// The disabled pool-observer fast path: the one atomic load per
// ParallelFor invocation (plus a branch per chunk on the snapshotted
// pointer) that the worker pool pays when pool stats are off. Budget:
// <= 2 ns — same bar as the EXPLAIN active check below.
void BM_PoolObserverDisabledCheck(benchmark::State& state) {
  dd::obs::PoolStatsCollector::Global().Disable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dd::GetPoolObserver());
  }
}
BENCHMARK(BM_PoolObserverDisabledCheck)->Threads(1)->Threads(4);

// Enabled per-chunk recording: two clock reads happen in the pool; here
// we isolate the collector's seqlock ring append + live counter bumps.
void BM_PoolStatsOnChunkEnabled(benchmark::State& state) {
  dd::obs::PoolStatsCollector& collector =
      dd::obs::PoolStatsCollector::Global();
  dd::PoolChunkEvent event{};
  event.phase = "bench_pool";
  event.invocation = 1;
  event.chunk = 0;
  event.begin = 0;
  event.end = 64;
  event.start_ns = 1000;
  event.end_ns = 2000;
  event.caller = true;
  for (auto _ : state) {
    collector.OnChunk(event);
  }
  collector.Reset();
}
BENCHMARK(BM_PoolStatsOnChunkEnabled);

// The disabled-recorder fast path that every instrumented call site in
// core/pa.cc pays when EXPLAIN is off: one relaxed load and a branch.
// This is the "disabled costs nothing" half of the DESIGN.md §11
// contract; the enabled half is measured end-to-end below.
void BM_ExplainDisabledActiveCheck(benchmark::State& state) {
  dd::obs::ExplainRecorder::Global().Disable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dd::obs::ExplainRecorder::Active());
  }
}
BENCHMARK(BM_ExplainDisabledActiveCheck)->Threads(1)->Threads(4);

// Per-candidate cost of an enabled recorder at the CI sampling rate:
// exact waterfall counters every call, ring retention for every 64th
// event plus the forced keeps.
void BM_ExplainRecordEvaluated(benchmark::State& state) {
  dd::obs::ExplainRecorder& recorder = dd::obs::ExplainRecorder::Global();
  dd::obs::ExplainConfig config;
  config.sample_every = 64;
  config.ring_capacity = 1 << 12;
  recorder.Enable(config);
  recorder.SetRhsGeometry(2, 10);
  const std::uint32_t lhs_seq = recorder.BeginLhs(
      {5, 5}, 100, 2000, 0.0, dd::obs::ExplainBound::kInitial);
  std::uint32_t rhs_index = 0;
  double confidence = 0.05;
  for (auto _ : state) {
    recorder.RecordEvaluated(lhs_seq, rhs_index, rhs_index, 40, confidence,
                             0.5, confidence * 0.5, 0.4,
                             dd::obs::ExplainBound::kInitial,
                             /*offered=*/false, /*eval_ns=*/0.0);
    rhs_index = (rhs_index + 1) % 121;
    confidence += 0.001;
    if (confidence > 0.35) confidence = 0.05;
  }
  recorder.Disable();
}
BENCHMARK(BM_ExplainRecordEvaluated);

// End-to-end recorder overhead on a real determination (Rule 3,
// restaurant) at --explain_sample=64 — the budget is < 5% determiner
// slowdown. Reported with its budget as a BENCH_JSON line so CI can
// collect it alongside the google-benchmark table. The exit does not
// gate it yet: the recorder still costs about +30% (DESIGN.md §11).
int ReportExplainOverhead() {
  const std::size_t pairs = dd::bench::BenchPairs(8000);
  dd::bench::RuleWorkload w = dd::bench::MakeRuleWorkload(3, pairs);
  dd::DetermineOptions opts = dd::bench::ApproachOptions("DAP+PAP");

  auto timed_run = [&](bool enabled) {
    if (enabled) {
      dd::obs::ExplainConfig config;
      config.sample_every = 64;
      dd::obs::ExplainRecorder::Global().Enable(config);
    }
    const auto start = std::chrono::steady_clock::now();
    auto result = dd::DetermineThresholds(w.matching, w.rule, opts);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (enabled) dd::obs::ExplainRecorder::Global().Disable();
    if (!result.ok()) {
      std::fprintf(stderr, "explain overhead run: %s\n",
                   result.status().ToString().c_str());
      return -1.0;
    }
    return elapsed;
  };

  // Warm both paths once (provider caches, page faults), then take the
  // minimum of 9 alternating reps per path: the minimum estimates the
  // true cost best when scheduler noise only ever adds time.
  if (timed_run(false) < 0.0 || timed_run(true) < 0.0) return 1;
  double off_s = 1e30;
  double on_s = 1e30;
  for (int rep = 0; rep < 9; ++rep) {
    const double off = timed_run(false);
    const double on = timed_run(true);
    if (off < 0.0 || on < 0.0) return 1;
    off_s = std::min(off_s, off);
    on_s = std::min(on_s, on);
  }
  const double overhead = off_s > 0.0 ? on_s / off_s - 1.0 : 0.0;
  std::printf("\n%s: explain off %.6fs, on(sample=64) %.6fs, "
              "overhead %+.2f%%\n",
              w.label.c_str(), off_s, on_s, overhead * 100.0);
  std::printf(
      "BENCH_JSON {\"bench\": \"micro_obs_explain\", \"pairs\": %zu, "
      "\"sample_every\": 64, \"off_s\": %.6f, \"on_s\": %.6f, "
      "\"overhead\": %.4f, \"overhead_budget\": 0.05}\n",
      w.matching.num_tuples(), off_s, on_s, overhead);
  std::fflush(stdout);
  return 0;
}

// The ISSUE acceptance number for the pool-observer hook: per-chunk
// disabled-path cost, measured as the exact instruction sequence the
// pool runs when stats are off (observer load + null test). Reported
// as a BENCH_JSON line with the budget so CI trends it.
int ReportPoolStatsOverhead() {
  dd::obs::PoolStatsCollector& collector =
      dd::obs::PoolStatsCollector::Global();
  collector.Disable();
  constexpr std::uint64_t kIters = 1 << 25;
  std::uint64_t hits = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    if (dd::GetPoolObserver() != nullptr) ++hits;
    benchmark::DoNotOptimize(hits);
  }
  const double disabled_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(kIters);

  collector.Enable();
  collector.Reset();
  dd::PoolChunkEvent event{};
  event.phase = "bench_pool_overhead";
  event.end = 64;
  event.end_ns = 1000;
  constexpr std::uint64_t kEnabledIters = 1 << 20;
  start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kEnabledIters; ++i) {
    event.invocation = i;
    collector.OnChunk(event);
  }
  const double enabled_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(kEnabledIters);
  collector.Disable();
  collector.Reset();

  std::printf("\npool observer: disabled check %.3f ns (budget 2 ns), "
              "enabled ring append %.1f ns\n",
              disabled_ns, enabled_ns);
  std::printf(
      "BENCH_JSON {\"bench\": \"micro_obs_pool\", \"iters\": %llu, "
      "\"disabled_check_ns\": %.3f, \"enabled_record_ns\": %.3f, "
      "\"budget_ns\": 2.0}\n",
      static_cast<unsigned long long>(kIters), disabled_ns, enabled_ns);
  std::fflush(stdout);
  return disabled_ns <= 2.0 ? 0 : 1;
}

// Flight-recorder record path with recording on: clock read + 56-byte
// ring slot write + release store.
void BM_FlightRecordEnabled(benchmark::State& state) {
  dd::obs::diag::FlightRecorder::Enable(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    dd::obs::diag::FlightRecord(dd::obs::diag::EventType::kCustom, "bench",
                                ++i, 0);
  }
  if (state.thread_index() == 0) dd::obs::diag::FlightRecorder::Disable();
}
BENCHMARK(BM_FlightRecordEnabled)->Threads(1)->Threads(4);

// The always-on gate every instrumented call site pays when diagnostics
// are off: one relaxed load and a branch.
void BM_FlightRecordDisabled(benchmark::State& state) {
  dd::obs::diag::FlightRecorder::Disable();
  std::uint64_t i = 0;
  for (auto _ : state) {
    dd::obs::diag::FlightRecord(dd::obs::diag::EventType::kCustom, "bench",
                                ++i, 0);
  }
  benchmark::DoNotOptimize(i);
}
BENCHMARK(BM_FlightRecordDisabled);

// The ISSUE acceptance numbers for the flight recorder: <= 50 ns per
// recorded event, <= 2 ns for the disabled gate. Hard-gated like the
// pool-observer budget so CI fails on regression, and reported as a
// BENCH_JSON line so the perf harness trends it.
int ReportFlightRecorderOverhead() {
  using dd::obs::diag::EventType;
  using dd::obs::diag::FlightRecord;
  using dd::obs::diag::FlightRecorder;

  FlightRecorder::Disable();
  constexpr std::uint64_t kDisabledIters = 1 << 25;
  std::uint64_t i = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t n = 0; n < kDisabledIters; ++n) {
    FlightRecord(EventType::kCustom, "gate", ++i, 0);
    benchmark::DoNotOptimize(i);
  }
  const double disabled_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(kDisabledIters);

  FlightRecorder::Enable(1024);
  FlightRecorder::ResetForTest();
  constexpr std::uint64_t kEnabledIters = 1 << 22;
  start = std::chrono::steady_clock::now();
  for (std::uint64_t n = 0; n < kEnabledIters; ++n) {
    FlightRecord(EventType::kCustom, "record", n, 0);
  }
  const double enabled_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(kEnabledIters);
  const std::uint64_t recorded = FlightRecorder::TotalRecorded();
  FlightRecorder::Disable();

  std::printf("\nflight recorder: record %.1f ns (budget 50 ns), "
              "disabled gate %.3f ns (budget 2 ns), recorded %llu\n",
              enabled_ns, disabled_ns,
              static_cast<unsigned long long>(recorded));
  std::printf(
      "BENCH_JSON {\"bench\": \"micro_obs_flightrec\", \"iters\": %llu, "
      "\"record_ns\": %.3f, \"disabled_gate_ns\": %.3f, "
      "\"record_budget_ns\": 50.0, \"gate_budget_ns\": 2.0}\n",
      static_cast<unsigned long long>(kEnabledIters), enabled_ns, disabled_ns);
  std::fflush(stdout);
  if (recorded != kEnabledIters) return 1;  // Lost events: broken ring.
  return (enabled_ns <= 50.0 && disabled_ns <= 2.0) ? 0 : 1;
}

// The ISSUE acceptance numbers for the sampling profiler (DESIGN.md
// §16): < 2% end-to-end determiner slowdown with a 99 Hz capture
// running, and <= 2 ns for the ProfilerActive() disabled gate — the
// only cost the process pays when no capture is live. Hard-gated like
// the flight-recorder budgets, reported as a BENCH_JSON line.
int ReportProfilerOverhead() {
  // Disabled gate: one relaxed atomic load.
  constexpr std::uint64_t kGateIters = 1 << 25;
  auto start = std::chrono::steady_clock::now();
  std::uint64_t active = 0;
  for (std::uint64_t n = 0; n < kGateIters; ++n) {
    if (dd::obs::prof::ProfilerActive()) ++active;
    benchmark::DoNotOptimize(active);
  }
  const double disabled_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(kGateIters);

  // Larger workload than the EXPLAIN gate: resolving a 2% bound needs
  // runs long enough that scheduler jitter (~1 ms on a busy CI host)
  // is well under the budget.
  const std::size_t pairs = dd::bench::BenchPairs(30000);
  dd::bench::RuleWorkload w = dd::bench::MakeRuleWorkload(3, pairs);
  dd::DetermineOptions opts = dd::bench::ApproachOptions("DAP+PAP");

  auto timed_run = [&](bool profiled) {
    if (profiled) {
      dd::obs::prof::ProfilerOptions options;
      options.hz = 99;
      const dd::Status started =
          dd::obs::prof::Profiler::Global().Start(options);
      if (!started.ok()) {
        std::fprintf(stderr, "profiler start: %s\n",
                     started.ToString().c_str());
        return -1.0;
      }
    }
    const auto run_start = std::chrono::steady_clock::now();
    auto result = dd::DetermineThresholds(w.matching, w.rule, opts);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
    if (profiled) dd::obs::prof::Profiler::Global().Stop();
    if (!result.ok()) {
      std::fprintf(stderr, "profiler overhead run: %s\n",
                   result.status().ToString().c_str());
      return -1.0;
    }
    return elapsed;
  };

  // Same protocol as the EXPLAIN gate: warm both paths, then min of 9
  // alternating reps per path — scheduler noise only ever adds time.
  if (timed_run(false) < 0.0 || timed_run(true) < 0.0) return 1;
  double off_s = 1e30;
  double on_s = 1e30;
  for (int rep = 0; rep < 9; ++rep) {
    const double off = timed_run(false);
    const double on = timed_run(true);
    if (off < 0.0 || on < 0.0) return 1;
    off_s = std::min(off_s, off);
    on_s = std::min(on_s, on);
  }
  const double overhead = off_s > 0.0 ? on_s / off_s - 1.0 : 0.0;
  std::printf("\nprofiler: off %.6fs, on(99 Hz) %.6fs, overhead %+.2f%% "
              "(budget 2%%), disabled gate %.3f ns (budget 2 ns)\n",
              off_s, on_s, overhead * 100.0, disabled_ns);
  std::printf(
      "BENCH_JSON {\"bench\": \"micro_obs_prof\", \"pairs\": %zu, "
      "\"hz\": 99, \"off_s\": %.6f, \"on_s\": %.6f, \"overhead\": %.4f, "
      "\"disabled_gate_ns\": %.3f, \"overhead_budget\": 0.02, "
      "\"gate_budget_ns\": 2.0}\n",
      w.matching.num_tuples(), off_s, on_s, overhead, disabled_ns);
  std::fflush(stdout);
  return (overhead < 0.02 && disabled_ns <= 2.0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const int explain_rc = ReportExplainOverhead();
  const int pool_rc = ReportPoolStatsOverhead();
  const int flight_rc = ReportFlightRecorderOverhead();
  const int prof_rc = ReportProfilerOverhead();
  if (explain_rc != 0) return explain_rc;
  if (pool_rc != 0) return pool_rc;
  if (flight_rc != 0) return flight_rc;
  return prof_rc;
}
