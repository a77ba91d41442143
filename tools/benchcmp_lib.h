// Perf-regression gate over BENCH_JSON rows: loads two bench captures
// (a committed baseline and a fresh run), matches rows by
// (bench, phase, threads), and fails when a fresh time exceeds the
// baseline by more than a noise-aware threshold. Designed for the
// benchmarks/baselines/ workflow — see tools/benchcmp.cc for the CLI
// and .github/workflows/ci.yml for the smoke gate.
//
// Accepted inputs (auto-detected per file):
//   * a baseline document: one JSON object with a "rows" array, plus
//     optional top-level "bench", "host_cores", "run_id" defaults
//     (benchmarks/baselines/BENCH_micro_parallel.json);
//   * raw harness stdout: any text where measurement lines carry a
//     "BENCH_JSON {...}" prefix (what build/bench/micro_parallel
//     prints), one JSON object per line.
//
// Noise handling, in order of importance:
//   * min-of-k — duplicate keys collapse to the minimum time, so
//     harnesses can emit repeated sweeps and only the best counts
//     (minimum is the right estimator when noise only adds time);
//   * relative tolerance — fail only past base * (1 + rel);
//   * absolute floor — sub-floor rows never fail, however large the
//     ratio (a 0.2ms phase doubling is scheduler jitter, not a
//     regression);
//   * host check — rows captured on hosts with different core counts
//     are incomparable for a wall-time gate. Host cores are carried per
//     row (a baseline document stamps its own rows), so a directory of
//     baselines captured on different hosts is checked file by file:
//     mismatching benches are refused (CompareReport::host_mismatches)
//     unless explicitly allowed, and the rest are still compared.

#ifndef DD_TOOLS_BENCHCMP_LIB_H_
#define DD_TOOLS_BENCHCMP_LIB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace dd::bench {

// One measurement after min-of-k dedup.
struct BenchRow {
  std::string bench;
  std::string phase;
  std::int64_t threads = 0;  // 0 when the row carries no threads key.
  double value = 0.0;        // The compared metric (seconds).
  int samples = 1;           // Rows merged into this key.
  // Capture host's cores; 0 = unstamped (the file's host_cores applies).
  std::int64_t host_cores = 0;
};

// One parsed capture.
struct BenchFile {
  std::vector<BenchRow> rows;   // Deduped, sorted by (bench,phase,threads).
  std::int64_t host_cores = 0;  // First stamp seen; 0 = not stamped.
  std::string run_id;
  std::size_t skipped_rows = 0;  // Rows without the metric key.
};

// Parses `content` (either accepted input shape) extracting
// `metric_key` (e.g. "elapsed_s") from every row object.
Result<BenchFile> ParseBenchContent(const std::string& content,
                                    const std::string& metric_key);

// Reads `path` and parses it. When `path` is a directory, parses every
// regular *.json file inside and merges their rows (min-of-k across
// files too) — the benchmarks/baselines/ layout.
Result<BenchFile> LoadBenchFile(const std::string& path,
                                const std::string& metric_key);

struct CompareOptions {
  // Fail when fresh > base * (1 + rel_tolerance) + ... .
  double rel_tolerance = 0.5;
  // ... and fresh - base > abs_floor_s (both must hold).
  double abs_floor_s = 0.002;
  bool allow_host_mismatch = false;
};

struct RowComparison {
  BenchRow base;
  BenchRow fresh;
  double ratio = 0.0;  // fresh / base; 0 when base is 0.
  bool regressed = false;
};

// Matched rows of one bench refused for differing host cores.
struct HostMismatch {
  std::string bench;
  std::int64_t base_host_cores = 0;
  std::int64_t fresh_host_cores = 0;
  std::size_t rows = 0;
};

struct CompareReport {
  std::vector<RowComparison> rows;  // Keys present in both captures.
  std::vector<BenchRow> only_base;   // Baseline keys the fresh run lacks.
  std::vector<BenchRow> only_fresh;  // New keys with no baseline yet.
  // Rows refused for their host, by bench; empty when every matched
  // row's hosts are comparable or the mismatch is allowed.
  std::vector<HostMismatch> host_mismatches;
  std::size_t regressions = 0;
  double worst_ratio = 0.0;  // Max fresh/base over matched rows.

  // True when the gate passes: no row refused for its host and no row
  // regressed.
  bool ok() const { return host_mismatches.empty() && regressions == 0; }
};

CompareReport CompareBench(const BenchFile& base, const BenchFile& fresh,
                           const CompareOptions& options);

// Human-readable pass/fail table.
std::string CompareReportToText(const CompareReport& report,
                                const CompareOptions& options);

// One appendable JSONL row for BENCH_trajectory.json: the fresh run's
// timings plus the comparison verdict, stamped with `captured_unix`
// (caller supplies the clock) and the fresh run's id/host.
std::string TrajectoryRow(const CompareReport& report,
                          const BenchFile& fresh,
                          std::int64_t captured_unix);

}  // namespace dd::bench

#endif  // DD_TOOLS_BENCHCMP_LIB_H_
