// Micro-benchmarks of matching-relation construction: all-pairs vs
// sampled builds over the synthetic generators, and the pair fill
// (FillAllPairs) alone.

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
