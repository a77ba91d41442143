// Tests for the perf-regression gate (tools/benchcmp_lib.h): input
// auto-detection (baseline documents vs raw BENCH_JSON stdout),
// min-of-k dedup, the noise-aware pass/fail rule, the host-cores
// refusal, and the trajectory row.

#include "tools/benchcmp_lib.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "gtest/gtest.h"

namespace dd::bench {
namespace {

constexpr char kBaselineDoc[] = R"({
  "bench": "micro_parallel",
  "host_cores": 1,
  "rows": [
    {"phase": "matching_build", "threads": 1, "elapsed_s": 0.010},
    {"phase": "matching_build", "threads": 2, "elapsed_s": 0.012},
    {"phase": "determine", "threads": 1, "elapsed_s": 0.500}
  ]
})";

TEST(BenchcmpParseTest, BaselineDocument) {
  auto file = ParseBenchContent(kBaselineDoc, "elapsed_s");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->rows.size(), 3u);
  EXPECT_EQ(file->host_cores, 1);
  EXPECT_EQ(file->rows[0].bench, "micro_parallel");  // Top-level default.
  EXPECT_EQ(file->rows[0].phase, "determine");       // Sorted by key.
  EXPECT_DOUBLE_EQ(file->rows[0].value, 0.500);
  EXPECT_EQ(file->rows[1].phase, "matching_build");
  EXPECT_EQ(file->rows[1].threads, 1);
}

TEST(BenchcmpParseTest, RawStdoutWithBenchJsonLines) {
  const std::string stdout_text =
      "=== harness banner ===\n"
      "  matching_build  threads=1  0.0100s\n"
      "BENCH_JSON {\"bench\": \"micro_parallel\", \"phase\": "
      "\"matching_build\", \"threads\": 1, \"elapsed_s\": 0.010000, "
      "\"host_cores\": 8, \"run_id\": \"abc-123\"}\n"
      "BENCH_JSON {\"bench\": \"micro_parallel\", \"phase\": "
      "\"matching_build\", \"threads\": 2, \"elapsed_s\": 0.008000}\n"
      "trailing chatter\n";
  auto file = ParseBenchContent(stdout_text, "elapsed_s");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->rows.size(), 2u);
  EXPECT_EQ(file->host_cores, 8);
  EXPECT_EQ(file->run_id, "abc-123");
}

TEST(BenchcmpParseTest, MinOfKDedup) {
  const std::string stdout_text =
      "BENCH_JSON {\"bench\": \"b\", \"phase\": \"p\", \"threads\": 1, "
      "\"elapsed_s\": 0.030}\n"
      "BENCH_JSON {\"bench\": \"b\", \"phase\": \"p\", \"threads\": 1, "
      "\"elapsed_s\": 0.010}\n"
      "BENCH_JSON {\"bench\": \"b\", \"phase\": \"p\", \"threads\": 1, "
      "\"elapsed_s\": 0.020}\n";
  auto file = ParseBenchContent(stdout_text, "elapsed_s");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(file->rows[0].value, 0.010);
  EXPECT_EQ(file->rows[0].samples, 3);
}

TEST(BenchcmpParseTest, RowsWithoutMetricAreSkippedNotFatal) {
  const std::string stdout_text =
      "BENCH_JSON {\"bench\": \"micro_obs_pool\", \"disabled_check_ns\": "
      "0.9}\n"
      "BENCH_JSON {\"bench\": \"b\", \"phase\": \"p\", \"threads\": 1, "
      "\"elapsed_s\": 0.010}\n";
  auto file = ParseBenchContent(stdout_text, "elapsed_s");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->rows.size(), 1u);
  EXPECT_EQ(file->skipped_rows, 1u);
}

TEST(BenchcmpParseTest, GarbageIsRejected) {
  EXPECT_FALSE(ParseBenchContent("no bench rows here", "elapsed_s").ok());
  EXPECT_FALSE(ParseBenchContent("{\"no_rows\": 1}", "elapsed_s").ok());
  EXPECT_FALSE(
      ParseBenchContent("BENCH_JSON {broken", "elapsed_s").ok());
}

BenchFile MakeFile(std::vector<BenchRow> rows, std::int64_t host_cores) {
  BenchFile file;
  file.rows = std::move(rows);
  file.host_cores = host_cores;
  return file;
}

TEST(BenchcmpCompareTest, PassesOnIdenticalRun) {
  const BenchFile base =
      MakeFile({{"b", "p", 1, 0.100, 1}, {"b", "p", 2, 0.060, 1}}, 4);
  const CompareReport report = CompareBench(base, base, CompareOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_DOUBLE_EQ(report.worst_ratio, 1.0);
}

TEST(BenchcmpCompareTest, FailsOnInjectedSlowdown) {
  const BenchFile base = MakeFile({{"b", "p", 1, 0.100, 1}}, 4);
  const BenchFile fresh = MakeFile({{"b", "p", 1, 0.200, 1}}, 4);
  CompareOptions options;
  options.rel_tolerance = 0.5;
  options.abs_floor_s = 0.002;
  const CompareReport report = CompareBench(base, fresh, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1u);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_TRUE(report.rows[0].regressed);
  EXPECT_DOUBLE_EQ(report.rows[0].ratio, 2.0);
}

TEST(BenchcmpCompareTest, AbsoluteFloorAbsorbsTinyPhases) {
  // A 0.5ms phase tripling stays under the 2ms absolute floor: noise.
  const BenchFile base = MakeFile({{"b", "tiny", 1, 0.0005, 1}}, 4);
  const BenchFile fresh = MakeFile({{"b", "tiny", 1, 0.0015, 1}}, 4);
  const CompareReport report = CompareBench(base, fresh, CompareOptions{});
  EXPECT_TRUE(report.ok());
}

TEST(BenchcmpCompareTest, RelativeToleranceAbsorbsNoise) {
  // +40% on a big phase is inside the default 50% tolerance.
  const BenchFile base = MakeFile({{"b", "big", 1, 1.000, 1}}, 4);
  const BenchFile fresh = MakeFile({{"b", "big", 1, 1.400, 1}}, 4);
  const CompareReport report = CompareBench(base, fresh, CompareOptions{});
  EXPECT_TRUE(report.ok());
}

TEST(BenchcmpCompareTest, UnmatchedKeysReportedNotFailed) {
  const BenchFile base =
      MakeFile({{"b", "gone", 1, 0.1, 1}, {"b", "kept", 1, 0.1, 1}}, 4);
  const BenchFile fresh =
      MakeFile({{"b", "kept", 1, 0.1, 1}, {"b", "new", 1, 0.1, 1}}, 4);
  const CompareReport report = CompareBench(base, fresh, CompareOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows.size(), 1u);
  ASSERT_EQ(report.only_base.size(), 1u);
  EXPECT_EQ(report.only_base[0].phase, "gone");
  ASSERT_EQ(report.only_fresh.size(), 1u);
  EXPECT_EQ(report.only_fresh[0].phase, "new");
}

TEST(BenchcmpCompareTest, HostMismatchRefused) {
  const BenchFile base = MakeFile({{"b", "p", 1, 0.1, 1}}, 1);
  const BenchFile fresh = MakeFile({{"b", "p", 1, 0.1, 1}}, 8);
  CompareOptions options;
  const CompareReport refused = CompareBench(base, fresh, options);
  EXPECT_FALSE(refused.ok());
  EXPECT_FALSE(refused.host_mismatches.empty());
  EXPECT_TRUE(refused.rows.empty());

  options.allow_host_mismatch = true;
  const CompareReport allowed = CompareBench(base, fresh, options);
  EXPECT_TRUE(allowed.ok());
  EXPECT_EQ(allowed.rows.size(), 1u);

  // Unstamped captures (host_cores 0) compare freely.
  const BenchFile unstamped = MakeFile({{"b", "p", 1, 0.1, 1}}, 0);
  EXPECT_TRUE(CompareBench(unstamped, fresh, CompareOptions{}).ok());
}

// A baseline directory mixing a 1-core and a 4-core capture against a
// 4-core fresh run: only the 1-core file's rows are refused, the 4-core
// file's rows are still compared.
TEST(BenchcmpCompareTest, HostCoresCheckedPerBaselineFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("benchcmp_hosts_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  // Sorted first, so it also stamps the directory's file-level cores.
  std::ofstream(dir / "BENCH_a.json")
      << R"({"bench": "a", "host_cores": 1, "rows": [
             {"phase": "p", "threads": 1, "elapsed_s": 0.1}]})";
  std::ofstream(dir / "BENCH_b.json")
      << R"({"bench": "b", "host_cores": 4, "rows": [
             {"phase": "p", "threads": 1, "elapsed_s": 0.1},
             {"phase": "q", "threads": 2, "elapsed_s": 0.1}]})";
  auto base = LoadBenchFile(dir.string(), "elapsed_s");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  auto fresh = ParseBenchContent(
      "BENCH_JSON {\"bench\": \"a\", \"phase\": \"p\", \"threads\": 1, "
      "\"elapsed_s\": 0.1, \"host_cores\": 4}\n"
      "BENCH_JSON {\"bench\": \"b\", \"phase\": \"p\", \"threads\": 1, "
      "\"elapsed_s\": 0.1, \"host_cores\": 4}\n"
      "BENCH_JSON {\"bench\": \"b\", \"phase\": \"q\", \"threads\": 2, "
      "\"elapsed_s\": 0.5, \"host_cores\": 4}\n",
      "elapsed_s");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  const CompareReport report = CompareBench(*base, *fresh, CompareOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.host_mismatches.empty());
  ASSERT_EQ(report.host_mismatches.size(), 1u);
  EXPECT_EQ(report.host_mismatches[0].bench, "a");
  EXPECT_EQ(report.host_mismatches[0].base_host_cores, 1);
  EXPECT_EQ(report.host_mismatches[0].fresh_host_cores, 4);
  EXPECT_EQ(report.host_mismatches[0].rows, 1u);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].base.bench, "b");
  EXPECT_EQ(report.rows[1].base.bench, "b");
  EXPECT_EQ(report.regressions, 1u);  // b/q ran 5x slower.
  const std::string text = CompareReportToText(report, CompareOptions{});
  EXPECT_NE(text.find("REFUSED: a: baseline captured on a 1-core host"),
            std::string::npos);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);

  CompareOptions allow;
  allow.allow_host_mismatch = true;
  const CompareReport allowed = CompareBench(*base, *fresh, allow);
  EXPECT_TRUE(allowed.host_mismatches.empty());
  EXPECT_EQ(allowed.rows.size(), 3u);
}

TEST(BenchcmpCompareTest, TrajectoryRowShape) {
  const BenchFile base = MakeFile({{"b", "p", 1, 0.100, 1}}, 4);
  BenchFile fresh = MakeFile({{"b", "p", 1, 0.110, 1}}, 4);
  fresh.run_id = "run-42";
  const CompareReport report = CompareBench(base, fresh, CompareOptions{});
  const std::string row = TrajectoryRow(report, fresh, 1754600000);
  EXPECT_NE(row.find("\"captured_unix\":1754600000"), std::string::npos);
  EXPECT_NE(row.find("\"run_id\":\"run-42\""), std::string::npos);
  EXPECT_NE(row.find("\"host_cores\":4"), std::string::npos);
  EXPECT_NE(row.find("\"regressions\":0"), std::string::npos);
  EXPECT_NE(row.find("\"phase\":\"p\""), std::string::npos);
  // One line, parseable back by the same reader.
  EXPECT_EQ(row.find('\n'), std::string::npos);
  auto reparsed = ParseBenchContent("BENCH_JSON " + row, "worst_ratio");
  EXPECT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

}  // namespace
}  // namespace dd::bench
