// Micro-benchmarks of the distance metric substrate: exact and capped
// Levenshtein, the kernel one-vs-many against per-pair, q-gram, Jaccard
// and cosine throughput on realistic attribute values.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "metric/levenshtein.h"
#include "metric/metric.h"

namespace {

std::vector<std::string> SampleValues() {
  return {
      "West Wood Hotel",
      "Fifth Avenue, 61st Street",
      "5th Avenue, 61st St.",
      "Proceedings of the International Conference on Data Engineering",
      "Proc. of the Intl. Conf. on Data Engineering",
      "Department of Computer Science and Engineering, HKUST",
      "No.3, West Lake Road.",
      "#3, West Lake Rd.",
      "efficient discovery of functional dependencies from relational data",
  };
}

void BM_LevenshteinExact(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const auto values = SampleValues();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(lev.Distance(a, b));
    ++i;
  }
}
BENCHMARK(BM_LevenshteinExact);

void BM_LevenshteinBounded(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const auto values = SampleValues();
  const double cap = static_cast<double>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(lev.BoundedDistance(a, b, cap));
    ++i;
  }
}
BENCHMARK(BM_LevenshteinBounded)->Arg(2)->Arg(10)->Arg(30);

// Random lowercase strings of the arg length, for the kernel benches.
std::pair<std::string, std::string> RandomPair(std::size_t length) {
  dd::Rng rng(length * 2654435761u + 17);
  auto make = [&] {
    std::string s(length, 'a');
    for (auto& c : s) c = static_cast<char>('a' + rng.NextBounded(26));
    return s;
  };
  return {make(), make()};
}

void BM_LevKernelReferenceDp(benchmark::State& state) {
  const auto [a, b] = RandomPair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dd::lev::ReferenceDp(a, b));
  }
}
BENCHMARK(BM_LevKernelReferenceDp)->Arg(16)->Arg(64)->Arg(200);

// One value against a row of 64 others at cap 10 — the value-pair level
// table's shape — at about the arg length (±2). Half the row are near
// copies of the pattern (a few substitutions), half unrelated strings.
// The one-vs-many form builds the pattern masks once for the row; the
// per-pair form calls BoundedDistance for each. Items are pairs.
std::vector<std::string> KernelRow(std::size_t length) {
  dd::Rng rng(length * 40503u + 5);
  auto make = [&] {
    std::string s(length - 2 + rng.NextBounded(5), 'a');
    for (auto& c : s) c = static_cast<char>('a' + rng.NextBounded(26));
    return s;
  };
  std::vector<std::string> row = {make()};
  for (int k = 0; k < 64; ++k) {
    std::string s = k % 2 == 0 ? row[0] : make();
    for (std::uint64_t e = rng.NextBounded(6); e > 0; --e) {
      s[rng.NextBounded(s.size())] = static_cast<char>('a' + rng.NextBounded(26));
    }
    row.push_back(std::move(s));
  }
  return row;
}

void BM_LevOneVsMany(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const auto row = KernelRow(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::string_view> texts(row.begin() + 1, row.end());
  std::vector<double> out(texts.size());
  for (auto _ : state) {
    lev.BoundedDistanceMany(row[0], texts, 10.0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(texts.size()));
}
BENCHMARK(BM_LevOneVsMany)->Arg(17)->Arg(30)->Arg(55)->Arg(90);

void BM_LevPerPair(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const auto row = KernelRow(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (std::size_t k = 1; k < row.size(); ++k) {
      benchmark::DoNotOptimize(lev.BoundedDistance(row[0], row[k], 10.0));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(row.size() - 1));
}
BENCHMARK(BM_LevPerPair)->Arg(17)->Arg(30)->Arg(55)->Arg(90);

void BM_QGram(benchmark::State& state) {
  dd::QGramMetric qgram(static_cast<std::size_t>(state.range(0)));
  const auto values = SampleValues();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(qgram.Distance(a, b));
    ++i;
  }
}
BENCHMARK(BM_QGram)->Arg(2)->Arg(3);

void BM_Jaccard(benchmark::State& state) {
  dd::JaccardMetric jac;
  const auto values = SampleValues();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(jac.Distance(a, b));
    ++i;
  }
}
BENCHMARK(BM_Jaccard);

void BM_Cosine(benchmark::State& state) {
  dd::CosineMetric cos;
  const auto values = SampleValues();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(cos.Distance(a, b));
    ++i;
  }
}
BENCHMARK(BM_Cosine);

}  // namespace

BENCHMARK_MAIN();
