// Ablation micro-benchmarks for the measure providers (DESIGN.md §5):
// paper-faithful O(M) scan counting vs the O(1) prefix-sum grid
// extension, plus grid build cost, expected-utility integration, and
// lattice prune cost.
//
// Before the google-benchmark suite, main() emits a SIMD-vs-scalar
// kernel matrix (DESIGN.md §17) as BENCH_JSON rows: packing × dmax ×
// rows for the fused MaskLeq and the GridIndices kernels,
//   BENCH_JSON {"bench": "micro_counting", "phase":
//               "countxy_avx2_d4_r100000", "rows": N, "dmax": D,
//               "packing": "4bit", "elapsed_s": W,
//               "speedup_vs_scalar": S, "host_cores": C,
//               "run_id": "..."}
// and AndCount over n = 2 and 3 row bitmaps (the CountXY shapes of a
// one- and a two-attribute ϕ[Y]),
//   BENCH_JSON {"bench": "micro_counting", "phase":
//               "andcount_avx2_n2_r100000", "rows": N, "bitmaps": n,
//               "elapsed_s": W, "speedup_vs_scalar": S, ...}
// and AndCountWords over the same shapes at 200k rows with d% of the
// words listed,
//   BENCH_JSON {"bench": "micro_counting", "phase":
//               "andcount_words_avx2_n2_d8_r200000", "rows": N,
//               "bitmaps": n, "listed_words": K, "elapsed_s": W,
//               "speedup_vs_scalar": S, "speedup_vs_dense": V, ...}
// speedup_vs_scalar divides the scalar kernel's wall time for the same
// shape by this row's (1.0 on scalar rows); speedup_vs_dense divides
// the same kernel table's AndCount time over all the words per call by
// this row's. Then the scan provider
// times a full ϕ[Y] sweep (121 CountXY calls) at a broad ϕ[X] {10,10}
// and a selective one {2,2}, on the active kernels:
//   BENCH_JSON {"bench": "micro_counting", "phase":
//               "provider_scan_x2_r100000", "rows": N,
//               "lhs_count": L, "sweeps": K, "elapsed_s": W,
//               "host_cores": C, "run_id": "..."}
// elapsed_s is the best-of-3 time of K back-to-back sweeps (or kernel
// passes). AVX2 rows appear only on
// hosts that pass the CPUID dispatch check; tools/benchcmp reports
// unmatched keys without failing, so captures from AVX2 and non-AVX2
// hosts stay comparable on the scalar rows. The matrix runs even when
// --benchmark_filter skips every google benchmark, which is how the CI
// smoke keeps it cheap.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/candidate_lattice.h"
#include "core/expected_utility.h"
#include "core/measure_provider.h"
#include "core/simd_count.h"
#include "matching/matching_relation.h"

namespace {

dd::MatchingRelation RandomMatching(std::size_t attrs, int dmax,
                                    std::size_t tuples, std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t a = 0; a < attrs; ++a) {
    // Sequential append sidesteps a GCC 12 -Wrestrict false positive
    // (PR105329) on "literal" + std::to_string(...).
    std::string name = "a";
    name += std::to_string(a);
    names.push_back(std::move(name));
  }
  dd::MatchingRelation m(std::move(names), dmax);
  dd::Rng rng(seed);
  std::vector<dd::Level> levels(attrs);
  for (std::size_t t = 0; t < tuples; ++t) {
    for (auto& l : levels) {
      l = static_cast<dd::Level>(
          rng.NextBounded(static_cast<std::uint64_t>(dmax) + 1));
    }
    m.AddTuple(static_cast<std::uint32_t>(2 * t),
               static_cast<std::uint32_t>(2 * t + 1), levels);
  }
  return m;
}

void BM_ScanCountXY(benchmark::State& state) {
  const std::size_t tuples = static_cast<std::size_t>(state.range(0));
  dd::MatchingRelation m = RandomMatching(4, 10, tuples, 1);
  dd::ResolvedRule rule{{0, 1}, {2, 3}};
  dd::ScanMeasureProvider provider(m, rule);
  provider.SetLhs({5, 5});
  int y = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.CountXY({y % 11, (y + 3) % 11}));
    ++y;
  }
  state.counters["rows_per_second"] = benchmark::Counter(
      static_cast<double>(tuples),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ScanCountXY)->Arg(20000)->Arg(100000)->Arg(500000);

void BM_GridCountXY(benchmark::State& state) {
  const std::size_t tuples = static_cast<std::size_t>(state.range(0));
  dd::MatchingRelation m = RandomMatching(4, 10, tuples, 1);
  dd::ResolvedRule rule{{0, 1}, {2, 3}};
  auto provider = dd::GridMeasureProvider::Create(m, rule);
  if (!provider.ok()) {
    state.SkipWithError("grid creation failed");
    return;
  }
  provider.value()->SetLhs({5, 5});
  int y = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.value()->CountXY({y % 11, (y + 3) % 11}));
    ++y;
  }
}
BENCHMARK(BM_GridCountXY)->Arg(20000)->Arg(100000)->Arg(500000);

void BM_GridBuild(benchmark::State& state) {
  const std::size_t tuples = static_cast<std::size_t>(state.range(0));
  dd::MatchingRelation m = RandomMatching(4, 10, tuples, 1);
  dd::ResolvedRule rule{{0, 1}, {2, 3}};
  for (auto _ : state) {
    auto provider = dd::GridMeasureProvider::Create(m, rule);
    benchmark::DoNotOptimize(provider);
  }
}
BENCHMARK(BM_GridBuild)->Arg(20000)->Arg(100000);

void BM_ExpectedUtility(benchmark::State& state) {
  dd::UtilityOptions opts;
  opts.prior_mean_cq = 0.3;
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t total = n * 2;
  double cq = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dd::ExpectedUtility(total, n, cq, 0.9, opts));
    cq += 0.01;
    if (cq > 0.9) cq = 0.1;
  }
}
BENCHMARK(BM_ExpectedUtility)->Arg(100)->Arg(100000)->Arg(1000000);

void BM_ExpectedUtilityIntegration(benchmark::State& state) {
  dd::UtilityOptions opts;
  opts.prior_mean_cq = 0.3;
  opts.method = dd::UtilityMethod::kNumericIntegration;
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t total = n * 2;
  double cq = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dd::ExpectedUtility(total, n, cq, 0.9, opts));
    cq += 0.01;
    if (cq > 0.9) cq = 0.1;
  }
}
BENCHMARK(BM_ExpectedUtilityIntegration)->Arg(100)->Arg(100000);

void BM_LatticePrune(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    dd::CandidateLattice lat(dims, 10);
    dd::Levels top(dims, 10);
    lat.Prune(top, 0.5);
    benchmark::DoNotOptimize(lat.alive_count());
  }
}
BENCHMARK(BM_LatticePrune)->Arg(1)->Arg(2)->Arg(3);

void BM_MakeOrder(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto order = dd::CandidateLattice::MakeOrder(
        dims, 10, dd::ProcessingOrder::kMidFirst);
    benchmark::DoNotOptimize(order);
  }
}
BENCHMARK(BM_MakeOrder)->Arg(2)->Arg(3);

// ---------------------------------------------------------------------
// SIMD kernel matrix.

// Correlation id for this capture: DD_BENCH_RUN_ID when set, else
// wall-clock microseconds + pid (the micro_parallel scheme).
std::string BenchRunId() {
  if (const char* env = std::getenv("DD_BENCH_RUN_ID");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(now).count();
  return dd::StrFormat("%011llx-%04x",
                       static_cast<unsigned long long>(us) & 0xfffffffffffULL,
                       static_cast<unsigned>(::getpid()) & 0xffff);
}

// Best-of-3 wall time of `iters` back-to-back kernel passes.
template <typename Fn>
double TimeBest(int iters, const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    dd::Stopwatch timer;
    for (int i = 0; i < iters; ++i) fn();
    const double s = timer.ElapsedSeconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

// Three row bitmaps of "level <= 7" over random levels at dmax 10, and
// pointers to them in the AndCount input layout.
struct Bitmaps {
  explicit Bitmaps(std::size_t rows)
      : words(3, std::vector<std::uint64_t>(dd::simd::MaskWords(rows))) {
    dd::MatchingRelation m = RandomMatching(3, 10, rows, 1);
    for (std::size_t a = 0; a < words.size(); ++a) {
      const dd::simd::ColumnView view = dd::simd::View(m.column(a));
      const std::uint8_t bound = 7;
      dd::simd::MaskLeq(&view, &bound, 1, rows, words[a].data());
      inputs.push_back(words[a].data());
    }
  }
  // `inputs` points into `words`, so a copy would point into this one.
  Bitmaps(const Bitmaps&) = delete;
  Bitmaps& operator=(const Bitmaps&) = delete;

  std::vector<std::vector<std::uint64_t>> words;
  std::vector<const std::uint64_t*> inputs;
};

void EmitKernelMatrix() {
  using dd::simd::internal::Avx2Kernels;
  using dd::simd::internal::kScalarKernels;
  const dd::simd::internal::KernelTable* avx2 =
      dd::simd::CpuSupportsAvx2() ? Avx2Kernels() : nullptr;
  const unsigned host_cores =
      std::max(1u, std::thread::hardware_concurrency());
  const std::string run_id = BenchRunId();
  constexpr std::size_t kAttrs = 4;  // The BM_ScanCountXY rule shape.

  for (int dmax : {4, 14, 200}) {
    for (std::size_t rows : {std::size_t{100000}, std::size_t{1000000}}) {
      dd::MatchingRelation m = RandomMatching(kAttrs, dmax, rows, 1);
      std::vector<dd::simd::ColumnView> views;
      std::vector<std::uint8_t> bounds;
      std::vector<std::uint32_t> strides;
      const std::uint32_t base = static_cast<std::uint32_t>(dmax) + 1;
      std::uint32_t stride = 1;
      for (std::size_t a = 0; a < kAttrs; ++a) {
        views.push_back(dd::simd::View(m.column(a)));
        bounds.push_back(static_cast<std::uint8_t>(dmax / 2));
        strides.push_back(stride);
        stride *= base;  // 201^3 < 2^32: indices stay in range.
      }
      const char* packing = m.column(0).packed4() ? "4bit" : "8bit";
      // Enough passes that the scalar leg clears benchcmp's absolute
      // noise floor by orders of magnitude.
      const int iters = rows >= 1000000 ? 8 : 40;
      std::vector<std::uint32_t> cells(rows);
      std::vector<std::uint64_t> words(dd::simd::MaskWords(rows));

      struct Shape {
        const char* kernel;
        double scalar_s;
        double avx2_s;  // 0 when AVX2 is unavailable.
      };
      std::uint64_t sink = 0;
      Shape shapes[] = {
          {"countxy",
           TimeBest(iters,
                    [&] {
                      sink += kScalarKernels.mask_leq(
                          views.data(), bounds.data(), kAttrs, rows,
                          words.data());
                    }),
           avx2 == nullptr
               ? 0.0
               : TimeBest(iters,
                          [&] {
                            sink += avx2->mask_leq(views.data(),
                                                   bounds.data(), kAttrs,
                                                   rows, words.data());
                          })},
          {"grid",
           TimeBest(iters,
                    [&] {
                      kScalarKernels.grid_indices(views.data(), strides.data(),
                                                  kAttrs, 0, rows,
                                                  cells.data());
                    }),
           avx2 == nullptr
               ? 0.0
               : TimeBest(iters, [&] {
                   avx2->grid_indices(views.data(), strides.data(), kAttrs, 0,
                                      rows, cells.data());
                 })},
      };
      if (sink == 0xdeadbeef) std::fprintf(stderr, "impossible\n");

      for (const Shape& shape : shapes) {
        std::printf(
            "BENCH_JSON {\"bench\": \"micro_counting\", \"phase\": "
            "\"%s_scalar_d%d_r%zu\", \"rows\": %zu, \"dmax\": %d, "
            "\"packing\": \"%s\", \"elapsed_s\": %.6f, "
            "\"speedup_vs_scalar\": 1.000, \"host_cores\": %u, "
            "\"run_id\": \"%s\"}\n",
            shape.kernel, dmax, rows, rows, dmax, packing, shape.scalar_s,
            host_cores, run_id.c_str());
        if (shape.avx2_s > 0.0) {
          std::printf(
              "BENCH_JSON {\"bench\": \"micro_counting\", \"phase\": "
              "\"%s_avx2_d%d_r%zu\", \"rows\": %zu, \"dmax\": %d, "
              "\"packing\": \"%s\", \"elapsed_s\": %.6f, "
              "\"speedup_vs_scalar\": %.3f, \"host_cores\": %u, "
              "\"run_id\": \"%s\"}\n",
              shape.kernel, dmax, rows, rows, dmax, packing, shape.avx2_s,
              shape.scalar_s / shape.avx2_s, host_cores, run_id.c_str());
        }
      }
    }
  }

  // AndCount over bitmaps of "level <= 7" at dmax 10 (8/11 of the rows
  // set), with no output store, as CountXY calls it.
  for (std::size_t rows : {std::size_t{100000}, std::size_t{1000000}}) {
    const Bitmaps bitmaps(rows);
    const std::vector<const std::uint64_t*>& inputs = bitmaps.inputs;
    const std::size_t words = dd::simd::MaskWords(rows);
    // About 10M words per timed repetition.
    const int iters = static_cast<int>(10000000 / words);
    for (std::size_t n : {std::size_t{2}, std::size_t{3}}) {
      std::uint64_t sink = 0;
      const double scalar_s = TimeBest(iters, [&] {
        sink += kScalarKernels.and_count(inputs.data(), n, words, nullptr);
      });
      const double avx2_s =
          avx2 == nullptr ? 0.0 : TimeBest(iters, [&] {
            sink += avx2->and_count(inputs.data(), n, words, nullptr);
          });
      if (sink == 0xdeadbeef) std::fprintf(stderr, "impossible\n");
      std::printf(
          "BENCH_JSON {\"bench\": \"micro_counting\", \"phase\": "
          "\"andcount_scalar_n%zu_r%zu\", \"rows\": %zu, \"bitmaps\": %zu, "
          "\"elapsed_s\": %.6f, \"speedup_vs_scalar\": 1.000, "
          "\"host_cores\": %u, \"run_id\": \"%s\"}\n",
          n, rows, rows, n, scalar_s, host_cores, run_id.c_str());
      if (avx2_s > 0.0) {
        std::printf(
            "BENCH_JSON {\"bench\": \"micro_counting\", \"phase\": "
            "\"andcount_avx2_n%zu_r%zu\", \"rows\": %zu, \"bitmaps\": %zu, "
            "\"elapsed_s\": %.6f, \"speedup_vs_scalar\": %.3f, "
            "\"host_cores\": %u, \"run_id\": \"%s\"}\n",
            n, rows, rows, n, avx2_s, scalar_s / avx2_s, host_cores,
            run_id.c_str());
      }
    }
  }

  // AndCountWords over the same kind of bitmaps at 200000 rows (3125
  // words, the scan-search M) with d% of the words listed, ascending,
  // as a sparse ϕ[X] mask's nonzero words reach CountXY.
  // speedup_vs_dense divides the same table's AndCount time over all
  // the words by this row's: CountXY's sparse path pays off where it
  // is above 1 (ScanMeasureProvider::kSparseWordRatio).
  {
    constexpr std::size_t kRows = 200000;
    const Bitmaps bitmaps(kRows);
    const std::vector<const std::uint64_t*>& inputs = bitmaps.inputs;
    const std::size_t words = dd::simd::MaskWords(kRows);
    dd::Rng rng(3);
    for (std::size_t n : {std::size_t{2}, std::size_t{3}}) {
      const int dense_iters = static_cast<int>(10000000 / words);
      std::uint64_t sink = 0;
      const double dense_scalar_s = TimeBest(dense_iters, [&] {
        sink += kScalarKernels.and_count(inputs.data(), n, words, nullptr);
      });
      const double dense_avx2_s =
          avx2 == nullptr ? 0.0 : TimeBest(dense_iters, [&] {
            sink += avx2->and_count(inputs.data(), n, words, nullptr);
          });
      for (unsigned density : {1u, 8u, 25u, 100u}) {
        std::vector<std::uint32_t> listed;
        for (std::size_t w = 0; w < words; ++w) {
          if (rng.NextBounded(100) < density) {
            listed.push_back(static_cast<std::uint32_t>(w));
          }
        }
        // About 10M listed words per timed repetition, as above.
        const int iters =
            static_cast<int>(10000000 / std::max<std::size_t>(1, listed.size()));
        const double scalar_s = TimeBest(iters, [&] {
          sink += kScalarKernels.and_count_words(inputs.data(), n,
                                                 listed.data(), listed.size());
        });
        const double avx2_s =
            avx2 == nullptr ? 0.0 : TimeBest(iters, [&] {
              sink += avx2->and_count_words(inputs.data(), n, listed.data(),
                                            listed.size());
            });
        // Scales the dense time to `iters` calls.
        const double call_ratio = static_cast<double>(iters) / dense_iters;
        std::printf(
            "BENCH_JSON {\"bench\": \"micro_counting\", \"phase\": "
            "\"andcount_words_scalar_n%zu_d%u_r%zu\", \"rows\": %zu, "
            "\"bitmaps\": %zu, \"listed_words\": %zu, \"elapsed_s\": %.6f, "
            "\"speedup_vs_scalar\": 1.000, \"speedup_vs_dense\": %.3f, "
            "\"host_cores\": %u, \"run_id\": \"%s\"}\n",
            n, density, kRows, kRows, n, listed.size(), scalar_s,
            dense_scalar_s * call_ratio / scalar_s, host_cores, run_id.c_str());
        if (avx2_s > 0.0) {
          std::printf(
              "BENCH_JSON {\"bench\": \"micro_counting\", \"phase\": "
              "\"andcount_words_avx2_n%zu_d%u_r%zu\", \"rows\": %zu, "
              "\"bitmaps\": %zu, \"listed_words\": %zu, "
              "\"elapsed_s\": %.6f, \"speedup_vs_scalar\": %.3f, "
              "\"speedup_vs_dense\": %.3f, \"host_cores\": %u, "
              "\"run_id\": \"%s\"}\n",
              n, density, kRows, kRows, n, listed.size(), avx2_s,
              scalar_s / avx2_s, dense_avx2_s * call_ratio / avx2_s, host_cores,
              run_id.c_str());
        }
      }
      if (sink == 0xdeadbeef) std::fprintf(stderr, "impossible\n");
    }
  }
  std::fflush(stdout);
}

// One ϕ[Y] sweep of the scan provider after SetLhs, at a broad and a
// selective ϕ[X]; the index build and SetLhs are not timed.
void EmitProviderSweep() {
  const unsigned host_cores =
      std::max(1u, std::thread::hardware_concurrency());
  const std::string run_id = BenchRunId();
  const dd::ResolvedRule rule{{0, 1}, {2, 3}};
  for (std::size_t rows : {std::size_t{100000}, std::size_t{500000}}) {
    dd::MatchingRelation m = RandomMatching(4, 10, rows, 1);
    dd::ScanMeasureProvider provider(m, rule);
    for (int x : {10, 2}) {
      provider.SetLhs({x, x});
      std::uint64_t sink = 0;
      const int sweeps = rows >= 500000 ? 2 : 10;
      const double s = TimeBest(sweeps, [&] {
        for (int y0 = 0; y0 <= 10; ++y0) {
          for (int y1 = 0; y1 <= 10; ++y1) {
            sink += provider.CountXY({y0, y1});
          }
        }
      });
      if (sink == 0xdeadbeef) std::fprintf(stderr, "impossible\n");
      std::printf(
          "BENCH_JSON {\"bench\": \"micro_counting\", \"phase\": "
          "\"provider_scan_x%d_r%zu\", \"rows\": %zu, \"lhs_count\": %llu, "
          "\"sweeps\": %d, \"elapsed_s\": %.6f, \"host_cores\": %u, "
          "\"run_id\": \"%s\"}\n",
          x, rows, rows,
          static_cast<unsigned long long>(provider.lhs_count()), sweeps, s,
          host_cores, run_id.c_str());
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  EmitKernelMatrix();
  EmitProviderSweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
