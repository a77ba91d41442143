// Micro-benchmarks of matching-relation construction: all-pairs vs
// sampled builds over the synthetic generators, and the pair fill
// (FillAllPairs) alone.

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "data/generators.h"
#include "matching/builder.h"
#include "matching/value_cache.h"

namespace {

void BM_BuildMatchingAllPairs(benchmark::State& state) {
  dd::RestaurantOptions gopts;
  gopts.num_entities = static_cast<std::size_t>(state.range(0));
  dd::GeneratedData data = dd::GenerateRestaurant(gopts);
  dd::MatchingOptions mopts;
  mopts.dmax = 10;
  std::size_t tuples = 0;
  for (auto _ : state) {
    auto m = dd::BuildMatchingRelation(data.relation,
                                       {"name", "address", "city"}, mopts);
    benchmark::DoNotOptimize(m);
    tuples = m.ok() ? m->num_tuples() : 0;
  }
  state.counters["matching_tuples"] = static_cast<double>(tuples);
  state.counters["pairs_per_second"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsIterationInvariantRate);
}
// Real time: the build runs on the worker pool, so the main thread's
// CPU time would make pairs_per_second grow with pool width.
BENCHMARK(BM_BuildMatchingAllPairs)->Arg(30)->Arg(60)->Arg(120)->UseRealTime();

void BM_BuildMatchingSampled(benchmark::State& state) {
  dd::CoraOptions gopts;
  gopts.num_entities = 150;
  dd::GeneratedData data = dd::GenerateCora(gopts);
  dd::MatchingOptions mopts;
  mopts.dmax = 10;
  mopts.max_pairs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto m = dd::BuildMatchingRelation(data.relation, {"author", "title"},
                                       mopts);
    benchmark::DoNotOptimize(m);
  }
  state.counters["pairs_per_second"] = benchmark::Counter(
      static_cast<double>(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BuildMatchingSampled)->Arg(5000)->Arg(20000)->Arg(50000);

// A sampled build against the full build of the same relation, one
// thread. Arg = max_pairs; 0 is the full build, and a negative arg
// leaves that many pairs out of the total. Each row reports the wall
// time per built pair of its fastest iteration (ns_per_pair) and that
// cost over the full build's (ratio_to_full: the fastest of three
// untimed full builds and of the Arg(0) row's iterations). Fastest
// against fastest keeps a noisy host's slow phases out of the ratio.
struct SampledShape {
  dd::Relation relation;
  std::vector<std::string> attrs;
  dd::MatchingOptions options;
};

double BuildNsPerPair(const SampledShape& shape,
                      const dd::MatchingOptions& options,
                      std::size_t* pairs) {
  const auto start = std::chrono::steady_clock::now();
  auto m = dd::BuildMatchingRelation(shape.relation, shape.attrs, options);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(m);
  *pairs = m.ok() ? m->num_tuples() : 0;
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(std::max<std::size_t>(*pairs, 1));
}

void RunSampledVsFull(benchmark::State& state, const SampledShape& shape,
                      double* full_ns_per_pair) {
  dd::MatchingOptions options = shape.options;
  std::size_t pairs = 0;
  if (*full_ns_per_pair == 0) {
    *full_ns_per_pair = BuildNsPerPair(shape, options, &pairs);
    for (int rep = 0; rep < 2; ++rep) {
      *full_ns_per_pair =
          std::min(*full_ns_per_pair, BuildNsPerPair(shape, options, &pairs));
    }
  }
  const std::uint64_t n = shape.relation.num_rows();
  const std::int64_t arg = state.range(0);
  options.max_pairs = arg >= 0 ? static_cast<std::size_t>(arg)
                               : n * (n - 1) / 2 - static_cast<std::size_t>(
                                                       -arg);
  double ns_per_pair = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    ns_per_pair =
        std::min(ns_per_pair, BuildNsPerPair(shape, options, &pairs));
  }
  if (arg == 0) *full_ns_per_pair = std::min(*full_ns_per_pair, ns_per_pair);
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["ns_per_pair"] = ns_per_pair;
  state.counters["ratio_to_full"] = ns_per_pair / *full_ns_per_pair;
}

// scan-search's set-up (perfbench): about 700 Cora rows, the rule's four
// attributes with qgram2 on year, 200k of about 245k pairs.
void BM_SampledVsFullScanSearchShape(benchmark::State& state) {
  static const SampledShape shape = [] {
    dd::CoraOptions gopts;
    gopts.num_entities = 200;
    SampledShape s{dd::GenerateCora(gopts).relation,
                   {"author", "title", "venue", "year"},
                   {}};
    s.options.dmax = 10;
    s.options.threads = 1;
    s.options.metric_overrides["year"] = "qgram2";
    return s;
  }();
  static double full_ns_per_pair = 0;
  RunSampledVsFull(state, shape, &full_ns_per_pair);
}
BENCHMARK(BM_SampledVsFullScanSearchShape)
    ->Arg(0)
    ->Arg(200000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A larger relation, one attribute: 1373 Cora rows (941,878 pairs) at
// 200k, 600k and all but 376 pairs, the near-total sample that pays the
// rejection draws' coupon-collector tail.
void BM_SampledVsFullCora1373(benchmark::State& state) {
  static const SampledShape shape = [] {
    dd::CoraOptions gopts;
    gopts.num_entities = 400;
    SampledShape s{dd::GenerateCora(gopts).relation.Slice(0, 1373).value(),
                   {"title"},
                   {}};
    s.options.dmax = 10;
    s.options.threads = 1;
    return s;
  }();
  static double full_ns_per_pair = 0;
  RunSampledVsFull(state, shape, &full_ns_per_pair);
}
BENCHMARK(BM_SampledVsFullCora1373)
    ->Arg(0)
    ->Arg(200000)
    ->Arg(600000)
    ->Arg(-376)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Thread sweep of the parallel triangular build (arg = worker-pool
// size); compare against Arg(1) for the speedup.
void BM_BuildMatchingThreads(benchmark::State& state) {
  dd::RestaurantOptions gopts;
  gopts.num_entities = 120;
  dd::GeneratedData data = dd::GenerateRestaurant(gopts);
  dd::MatchingOptions mopts;
  mopts.dmax = 10;
  mopts.threads = static_cast<std::size_t>(state.range(0));
  std::size_t tuples = 0;
  for (auto _ : state) {
    auto m = dd::BuildMatchingRelation(data.relation,
                                       {"name", "address", "city"}, mopts);
    benchmark::DoNotOptimize(m);
    tuples = m.ok() ? m->num_tuples() : 0;
  }
  state.counters["matching_tuples"] = static_cast<double>(tuples);
  state.counters["pairs_per_second"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BuildMatchingThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// FillAllPairs alone over a prebuilt PairLevelSource, in the shape of
// one perfbench csv-determine instance: 485 Citeseer rows (117,370
// pairs) over four attributes, every one on a level table, so the row
// times the table lookups and the column-wise store of M, not the
// metric. Arg = worker-pool width; rates are per wall-clock second.
void BM_FillAllPairs(benchmark::State& state) {
  constexpr std::size_t kRows = 485;
  dd::CiteseerOptions gopts;
  gopts.num_entities = 250;
  auto relation = dd::GenerateCiteseer(gopts).relation.Slice(0, kRows);
  if (!relation.ok()) {
    state.SkipWithError("citeseer slice failed");
    return;
  }
  const std::vector<std::string> attrs = {"address", "affiliation",
                                          "description", "subject"};
  dd::MatchingOptions mopts;
  mopts.dmax = 10;
  auto resolved =
      dd::ResolveMatchingMetrics(relation->schema(), attrs, mopts);
  if (!resolved.ok()) {
    state.SkipWithError("metric resolution failed");
    return;
  }
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint32_t> rows = dd::AllRows(kRows);
  const std::uint64_t pairs = kRows * (kRows - 1) / 2;
  const dd::PairLevelSource source(*relation, rows, /*first_query=*/0,
                                   *resolved, pairs, threads);
  if (source.tables_built() != attrs.size()) {
    state.SkipWithError("an attribute has no level table");
    return;
  }
  for (auto _ : state) {
    dd::MatchingRelation m(attrs, mopts.dmax);
    dd::FillAllPairs(source, rows, threads, &m);
    benchmark::DoNotOptimize(m);
  }
  state.counters["pairs_per_second"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FillAllPairs)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
