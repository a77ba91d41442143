// Thread-sweep harness for the parallel hot paths (DESIGN.md §12):
// matching-relation construction, the DA+PA / DAP+PAP determination
// searches, and the incremental batch path, each measured at every
// worker-pool size in the sweep. Every measurement is emitted as
//   BENCH_JSON {"bench": "micro_parallel", "phase": "...",
//               "threads": T, "pairs": M, "elapsed_s": W,
//               "speedup_vs_1": S, "host_cores": C, "run_id": "..."}
// where speedup_vs_1 divides the 1-thread wall time of the same phase
// by this run's (1.0 at T=1; 0 when the sweep skipped T=1). The
// results at every T are bit-identical by construction — this harness
// measures wall time only. host_cores stamps the machine's hardware
// concurrency so tools/benchcmp can refuse wall-time comparisons
// across differently-sized hosts; run_id (DD_BENCH_RUN_ID, default
// clock+pid) correlates rows of one capture in BENCH_trajectory.json.
//
// Knobs: DD_BENCH_PAIRS (default 20000 matching tuples),
// DD_BENCH_THREADS (default "1,2,4,8"), --threads N (pool default for
// the setup work outside the sweep).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/determiner.h"
#include "data/generators.h"
#include "incr/incremental_builder.h"
#include "matching/builder.h"

namespace {

constexpr int kRepetitions = 3;  // Keep the best (min) wall time.

struct Row {
  std::string phase;
  std::size_t threads = 0;
  std::size_t pairs = 0;
  double elapsed_s = 0.0;
};

// Best-of-kRepetitions wall time of `fn`.
template <typename Fn>
double TimeBest(const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    dd::Stopwatch timer;
    fn();
    const double s = timer.ElapsedSeconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

// Correlation id for this capture: DD_BENCH_RUN_ID when set, else
// wall-clock microseconds + pid (the same scheme as ddtool feeds).
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

void Emit(const std::vector<Row>& rows) {
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  const std::string run_id = BenchRunId();
  // speedup_vs_1 joins each row against the same phase's 1-thread run.
  for (const Row& row : rows) {
    double base = 0.0;
    for (const Row& other : rows) {
      if (other.phase == row.phase && other.threads == 1) {
        base = other.elapsed_s;
        break;
      }
    }
    const double speedup =
        base > 0.0 && row.elapsed_s > 0.0 ? base / row.elapsed_s : 0.0;
    std::printf(
        "BENCH_JSON {\"bench\": \"micro_parallel\", \"phase\": \"%s\", "
        "\"threads\": %zu, \"pairs\": %zu, \"elapsed_s\": %.6f, "
        "\"speedup_vs_1\": %.3f, \"host_cores\": %u, \"run_id\": \"%s\"}\n",
        row.phase.c_str(), row.threads, row.pairs, row.elapsed_s, speedup,
        host_cores, run_id.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  dd::bench::ApplyThreadsArg(argc, argv);
  const std::vector<std::size_t> sweep = dd::bench::ThreadSweep();
  const std::size_t pairs = dd::bench::BenchPairs(20000);

  std::printf("=== micro_parallel: thread sweep over the parallel hot paths "
              "(|M| = %zu) ===\n", pairs);

  // Cora rule 1 drives everything: long author/title strings make the
  // per-pair metric work realistic (edit distance dominates the build).
  dd::CoraOptions gopts;
  gopts.num_entities =
      static_cast<std::size_t>(1.0 + std::sqrt(2.0 * pairs) / 3.5) + 2;
  const dd::GeneratedData data = dd::GenerateCora(gopts);
  const dd::RuleSpec rule{{"author", "title"}, {"venue", "year"}};

  std::vector<Row> rows;

  // Phase 1: matching-relation build (the triangular pair loop).
  for (std::size_t t : sweep) {
    dd::MatchingOptions mopts;
    mopts.dmax = 10;
    mopts.max_pairs = pairs;
    mopts.seed = 1;
    mopts.threads = t;
    std::size_t tuples = 0;
    const double s = TimeBest([&] {
      auto m = dd::BuildMatchingRelation(data.relation, rule.AllAttributes(),
                                         mopts);
      tuples = m.ok() ? m->num_tuples() : 0;
    });
    rows.push_back({"matching_build", t, tuples, s});
    std::printf("  matching_build   threads=%zu  %.4fs\n", t, s);
    std::fflush(stdout);
  }

  // Phases 2-3: the determination searches over one shared relation.
  dd::MatchingOptions mopts;
  mopts.dmax = 10;
  mopts.max_pairs = pairs;
  mopts.seed = 1;
  auto matching = dd::BuildMatchingRelation(data.relation,
                                            rule.AllAttributes(), mopts);
  if (!matching.ok()) {
    std::fprintf(stderr, "matching build failed: %s\n",
                 matching.status().ToString().c_str());
    return 1;
  }
  for (const char* approach : {"DA+PA", "DAP+PAP"}) {
    const std::string phase =
        std::string("determine_") + (approach[1] == 'A' && approach[2] == '+'
                                         ? "da_pa" : "dap_pap");
    for (std::size_t t : sweep) {
      dd::DetermineOptions opts = dd::bench::ApproachOptions(approach);
      opts.threads = t;
      const double s = TimeBest([&] {
        auto result = dd::DetermineThresholds(*matching, rule, opts);
        if (!result.ok()) std::abort();
      });
      rows.push_back({phase, t, matching->num_tuples(), s});
      std::printf("  %-16s threads=%zu  %.4fs\n", phase.c_str(), t, s);
      std::fflush(stdout);
    }
  }

  // Phase 4: the incremental builder's batch path (delta distance
  // computations spread over the pool).
  for (std::size_t t : sweep) {
    const double s = TimeBest([&] {
      dd::IncrementalOptions iopts;
      iopts.matching.dmax = 10;
      iopts.matching.threads = t;
      auto builder = dd::IncrementalMatchingBuilder::Create(
          data.relation.schema(), rule.AllAttributes(), iopts);
      if (!builder.ok()) std::abort();
      const std::size_t batch = 64;
      std::vector<std::vector<std::string>> inserts;
      for (std::size_t r = 0; r < data.relation.num_rows(); ++r) {
        inserts.push_back(data.relation.row(r));
        if (inserts.size() == batch) {
          if (!builder->ApplyBatch(inserts, {}).ok()) std::abort();
          inserts.clear();
        }
      }
      if (!inserts.empty() && !builder->ApplyBatch(inserts, {}).ok()) {
        std::abort();
      }
    });
    rows.push_back({"incr_batches", t, pairs, s});
    std::printf("  incr_batches     threads=%zu  %.4fs\n", t, s);
    std::fflush(stdout);
  }

  Emit(rows);
  return 0;
}
