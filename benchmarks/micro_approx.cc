// Accuracy-vs-speed frontier of the approximation subsystem
// (src/approx): end-to-end determination time and top-l answer recall
// of the sampled pipeline against the exact one, swept over sample
// rate × dataset × algorithm (pure uniform sampling vs LSH-blocked
// stratification vs the adaptive refinement driver).
//
// The exact leg is the streaming grid build (approx/exact_stream.h):
// one pass over all N(N-1)/2 pairs into the (dmax+1)^dims histogram,
// never materializing the matching relation — the only exact pipeline
// that is feasible at the row counts this harness targets. Every
// measurement is emitted as
//   BENCH_JSON {"bench": "micro_approx", "phase": "...", "threads": T,
//               "rows": N, "pairs": P, "elapsed_s": W,
//               "sample_fraction": F, "near_pairs": B, "rounds": R,
//               "converged": 0|1, "recall_top1": ...,
//               "recall_top5": ..., "speedup_vs_exact": S,
//               "host_cores": C, "run_id": "..."}
// with the dataset and sample rate encoded in the phase key so
// tools/benchcmp can join fresh runs against
// benchmarks/baselines/BENCH_micro_approx.json at equal configs.
// recall_topK = |exact top-K patterns found in the approx top-K| / K;
// the exact leg's rows carry recall 1 and speedup 1 by definition.
//
// Knobs:
//   DD_BENCH_APPROX_ROWS   numeric synthetic rows (default 20000;
//                          the committed 200k baseline row was captured
//                          with DD_BENCH_APPROX_ROWS=200000)
//   DD_BENCH_APPROX_CORA   cora entities (default 60)
//   DD_BENCH_APPROX_RATES  comma list of fixed sample rates
//                          (default "0.001,0.01,0.1")

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "approx/exact_stream.h"
#include "approx/refine.h"
#include "benchmarks/bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/determiner.h"
#include "data/generators.h"
#include "data/relation.h"
#include "matching/builder.h"

namespace {

struct Row {
  std::string phase;
  std::size_t threads = 1;
  std::size_t rows = 0;
  std::uint64_t pairs = 0;
  double elapsed_s = 0.0;
  double sample_fraction = 1.0;
  std::uint64_t near_pairs = 0;
  std::size_t rounds = 0;
  bool converged = true;
  double recall_top1 = 1.0;
  double recall_top5 = 1.0;
  double speedup_vs_exact = 1.0;
};

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

// A numeric relation with 50 planted value clusters: rows of one
// cluster sit within |Δ| <= 2 on x1/x2 and |Δ| <= 1 on y, distinct
// clusters are >= 4 apart, so close-(x1, x2) pairs imply close y — the
// dependency the determination should find. Values are small integers,
// which keeps the distinct-value count ~150 per attribute and lets the
// exact leg run off precomputed distinct-pair level tables.
dd::Relation MakeSyntheticNumeric(std::size_t rows) {
  dd::Schema schema({{"x1", dd::AttributeType::kNumeric},
                     {"x2", dd::AttributeType::kNumeric},
                     {"y", dd::AttributeType::kNumeric}});
  dd::Relation relation(schema);
  relation.Reserve(rows);
  std::mt19937_64 rng(20260808);
  constexpr std::uint64_t kClusters = 50;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t g = rng() % kClusters;
    const std::uint64_t x1 = 4 * g + rng() % 3;
    const std::uint64_t x2 = 4 * ((g * 7 + 3) % kClusters) + rng() % 3;
    const std::uint64_t y = 4 * ((g * 13 + 5) % kClusters) + rng() % 2;
    if (!relation
             .AddRow({std::to_string(x1), std::to_string(x2),
                      std::to_string(y)})
             .ok()) {
      std::abort();
    }
  }
  return relation;
}

// Fraction of the exact top-k patterns present anywhere in the approx
// top-k (order-insensitive: recall, not rank correlation).
double RecallTopK(const std::vector<dd::DeterminedPattern>& exact,
                  const std::vector<dd::DeterminedPattern>& approx,
                  std::size_t k) {
  const std::size_t want = std::min(k, exact.size());
  if (want == 0) return 1.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < want; ++i) {
    for (std::size_t j = 0; j < std::min(k, approx.size()); ++j) {
      if (exact[i].pattern == approx[j].pattern) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(want);
}

std::vector<double> SampleRates() {
  std::vector<double> rates;
  if (const char* env = std::getenv("DD_BENCH_APPROX_RATES");
      env != nullptr && env[0] != '\0') {
    const std::string list(env);
    for (std::size_t pos = 0; pos < list.size();) {
      std::size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      const double r = std::atof(list.substr(pos, comma - pos).c_str());
      if (r > 0.0 && r <= 1.0) rates.push_back(r);
      pos = comma + 1;
    }
  }
  if (rates.empty()) rates = {0.001, 0.01, 0.1};
  return rates;
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name); env != nullptr && env[0] != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

// Runs the full frontier for one dataset: the exact streaming leg,
// fixed-rate sampling with and without blocking, and the adaptive
// refinement driver.
void RunDataset(const std::string& tag, const dd::Relation& relation,
                const dd::RuleSpec& rule, const dd::MatchingOptions& matching,
                const std::vector<double>& rates, std::vector<Row>* rows) {
  const std::uint64_t n = relation.num_rows();
  const std::uint64_t total = n * (n - 1) / 2;

  // Exact leg: streaming grid build + top-5 search.
  dd::DetermineOptions determine;
  determine.top_l = 5;
  dd::Stopwatch exact_timer;
  auto provider = dd::approx::BuildStreamingGridProvider(relation, rule,
                                                         matching);
  if (!provider.ok()) {
    std::fprintf(stderr, "%s: exact stream failed: %s\n", tag.c_str(),
                 provider.status().ToString().c_str());
    return;
  }
  auto exact = dd::DetermineWithProvider(
      provider->get(), rule.lhs.size(), rule.rhs.size(), matching.dmax,
      determine, "stream");
  if (!exact.ok()) {
    std::fprintf(stderr, "%s: exact determine failed: %s\n", tag.c_str(),
                 exact.status().ToString().c_str());
    return;
  }
  const double exact_s = exact_timer.ElapsedSeconds();
  rows->push_back({tag + "_exact", 1, static_cast<std::size_t>(n), total,
                   exact_s});
  std::printf("  %-28s %9.3fs  (pairs %llu)\n", (tag + "_exact").c_str(),
              exact_s, static_cast<unsigned long long>(total));
  std::fflush(stdout);

  // Approx legs. One lambda per configuration keeps the measurement
  // identical across the frontier.
  const auto run_approx = [&](const std::string& phase, double rate,
                              bool blocking, bool adaptive) {
    dd::approx::ApproxDetermineOptions options;
    options.determine.top_l = 5;
    options.approx.sample_target = std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(rate * static_cast<double>(total)));
    options.approx.blocking = blocking;
    if (!adaptive) options.approx.max_rounds = 1;
    dd::Stopwatch timer;
    auto result = dd::approx::ApproxDetermineThresholds(relation, rule,
                                                        matching, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: approx failed: %s\n", phase.c_str(),
                   result.status().ToString().c_str());
      return;
    }
    const double s = timer.ElapsedSeconds();
    Row row;
    row.phase = phase;
    row.rows = static_cast<std::size_t>(n);
    row.pairs = total;
    row.elapsed_s = s;
    row.sample_fraction = result->sample_fraction;
    row.near_pairs = result->near_pairs;
    row.rounds = result->rounds;
    row.converged = result->converged;
    row.recall_top1 =
        RecallTopK(exact->patterns, result->determine.patterns, 1);
    row.recall_top5 =
        RecallTopK(exact->patterns, result->determine.patterns, 5);
    row.speedup_vs_exact = s > 0.0 ? exact_s / s : 0.0;
    rows->push_back(row);
    std::printf("  %-28s %9.3fs  %7.1fx  recall@1 %.2f  recall@5 %.2f  "
                "fraction %.2e%s\n",
                phase.c_str(), s, row.speedup_vs_exact, row.recall_top1,
                row.recall_top5, row.sample_fraction,
                adaptive ? dd::StrFormat("  rounds %zu%s", result->rounds,
                                         result->converged ? "" : " (cap)")
                               .c_str()
                         : "");
    std::fflush(stdout);
  };

  for (const double rate : rates) {
    run_approx(dd::StrFormat("%s_sample_r%g", tag.c_str(), rate), rate,
               /*blocking=*/false, /*adaptive=*/false);
    run_approx(dd::StrFormat("%s_blocked_r%g", tag.c_str(), rate), rate,
               /*blocking=*/true, /*adaptive=*/false);
  }
  run_approx(tag + "_adaptive", /*rate=*/0.0, /*blocking=*/true,
             /*adaptive=*/true);
}

void Emit(const std::vector<Row>& rows) {
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  const std::string run_id = BenchRunId();
  for (const Row& row : rows) {
    std::printf(
        "BENCH_JSON {\"bench\": \"micro_approx\", \"phase\": \"%s\", "
        "\"threads\": %zu, \"rows\": %zu, \"pairs\": %llu, "
        "\"elapsed_s\": %.6f, \"sample_fraction\": %.6e, "
        "\"near_pairs\": %llu, \"rounds\": %zu, \"converged\": %d, "
        "\"recall_top1\": %.3f, \"recall_top5\": %.3f, "
        "\"speedup_vs_exact\": %.3f, \"host_cores\": %u, "
        "\"run_id\": \"%s\"}\n",
        row.phase.c_str(), row.threads, row.rows,
        static_cast<unsigned long long>(row.pairs), row.elapsed_s,
        row.sample_fraction, static_cast<unsigned long long>(row.near_pairs),
        row.rounds, row.converged ? 1 : 0, row.recall_top1, row.recall_top5,
        row.speedup_vs_exact, host_cores, run_id.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  dd::bench::ApplyThreadsArg(argc, argv);
  const std::size_t numeric_rows = EnvSize("DD_BENCH_APPROX_ROWS", 20000);
  const std::size_t cora_entities = EnvSize("DD_BENCH_APPROX_CORA", 60);
  const std::vector<double> rates = SampleRates();

  std::printf("=== micro_approx: accuracy-vs-speed frontier of the sampled "
              "determination ===\n");

  std::vector<Row> rows;

  // Dataset 1: planted-rule numeric synthetic (the N >= 200k acceptance
  // workload; blocking uses the sorted-neighbor numeric family).
  {
    std::printf("\nnumeric synthetic, %zu rows:\n", numeric_rows);
    const dd::Relation relation = MakeSyntheticNumeric(numeric_rows);
    const dd::RuleSpec rule{{"x1", "x2"}, {"y"}};
    dd::MatchingOptions matching;
    matching.dmax = 8;
    RunDataset(dd::StrFormat("numeric_n%zu", numeric_rows), relation, rule,
               matching, rates, &rows);
  }

  // Dataset 2: cora strings (edit-distance metrics; blocking uses
  // q-gram minhash banding and length buckets).
  {
    dd::CoraOptions options;
    options.num_entities = cora_entities;
    const dd::GeneratedData cora = dd::GenerateCora(options);
    std::printf("\ncora, %zu entities (%zu rows):\n", cora_entities,
                cora.relation.num_rows());
    const dd::RuleSpec rule{{"author", "title"}, {"venue"}};
    dd::MatchingOptions matching;
    matching.dmax = 8;
    RunDataset(dd::StrFormat("cora_e%zu", cora_entities), cora.relation, rule,
               matching, rates, &rows);
  }

  std::printf("\n");
  Emit(rows);
  return 0;
}
