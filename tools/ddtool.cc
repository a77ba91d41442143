// ddtool — command-line front end for the ddthreshold library.
//
//   ddtool generate  --dataset cora --entities 200 --out clean.csv
//                    [--seed 42] [--dirty-out dirty.csv --truth-out t.csv
//                     --corrupt-fraction 0.08 --corrupt-attrs city]
//   ddtool determine --input clean.csv --lhs author,title --rhs venue,year
//                    [--dmax 10] [--max-pairs 100000] [--top 5]
//                    [--algo DAP+PAP|DA+PAP|DA+PA] [--order top|mid]
//                    [--metric attr=levenshtein ...] [--provider scan|grid]
//                    [--approx] [--sample_target 100000] [--epsilon 0.01]
//                    [--seed 7] [--no_blocking]
//                    (sampled + LSH-blocked determination, src/approx:
//                     counts become estimates with Wilson error bounds,
//                     refined until the top-l ranking is stable;
//                     incompatible with --max-pairs/--save-matching/
//                     --load-matching)
//                    [--collapse] [--json]
//                    [--trace_json report.json] [--print_stats]
//                    (trace_json writes the span-tree + metrics run
//                     report; print_stats summarizes search cost —
//                     pruning rate, candidates evaluated, rows scanned)
//                    [--save-matching m.ddmr | --load-matching m.ddmr]
//                    (persist / reuse the pairwise matching relation,
//                     the expensive step, across invocations)
//   ddtool explain   same matching/rule/search flags as determine, but
//                    runs with the EXPLAIN decision recorder enabled
//                    and renders the audit: pruning waterfall,
//                    winner-vs-runner-up diff, per-candidate events
//                    [--explain_sample K] keep every K-th event
//                     (winner / bound-advancing / skyline events are
//                     always kept; waterfall totals stay exact)
//                    [--ring_capacity N] per-thread event ring size
//                     (1 .. 2^24)
//                    [--audit_json audit.json] write the JSON audit doc
//                    [--landscape surface.csv|.jsonl] utility landscape
//                     (ϕ coordinates -> D,C,Q,CQ,Ū) for plotting
//                    [--json] print the audit document on stdout
//   ddtool detect    --input dirty.csv --lhs a,b --rhs c --pattern "4,2->3"
//                    [--dmax 10] [--metric ...] [--out pairs.csv]
//                    [--trace_json report.json]
//
// DD_LOG_LEVEL=info|warn|error|off raises/lowers library logging on
// stderr (default warn). --threads N (any subcommand; DD_THREADS=N
// equivalently) sets the worker-pool concurrency for the matching
// build and DA's LHS sweep (DAP searches serially) — results are
// bit-identical at any thread count, N=1 forces the sequential paths.
// --simd auto|avx2|scalar (any subcommand; DD_SIMD equivalently)
// selects the counting-kernel dispatch — bit-identical either way.
//   ddtool discover  --input clean.csv [--max-lhs 2] [--top 10]
//                    [--dmax 10] [--max-pairs 50000]
//                    [--approx] [--sample_target 100000] [--seed 7]
//                    [--no_blocking]  (one shared stratified sample
//                     serves every candidate rule; utilities print
//                     with their error bounds)
//   ddtool append    --rows new.csv --lhs a,b --rhs c [--input base.csv]
//                    [--batch 16] [--retire 0] [--drift 0.5]
//                    [--dmax 10] [--metric ...] [--algo ...] [--json]
//                    [--trace_json report.json]
//                    (feeds base.csv, then new.csv in --batch-row
//                     batches, through the incremental maintenance
//                     engine; --retire k deletes the k oldest live rows
//                     per batch; --drift sets the re-determination
//                     drift bound as a fraction of the published
//                     pattern's utility lead, negative = re-determine
//                     every batch; prints the final threshold)
//   ddtool watch     same flags as append, but streams one change-feed
//                    line per batch (drift, bound, re-determined or
//                    kept, published pattern) instead of only the
//                    final state; feed JSON lines carry a per-run
//                    run_id and a monotonically increasing seq
//   ddtool serve     long-running daemon: loads --input for the base
//                    instance and schema, then reads headerless CSV
//                    rows from stdin, applying them in --batch-row
//                    chunks until EOF; same feed lines as watch
//   ddtool prof      offline consumer of .folded CPU profiles (from
//                    --profile):
//                    ddtool prof a.folded [b.folded ...] [--top N]
//                      [--json] [--merge out.folded]   hot-function
//                      table (or JSON summary) of the merged inputs
//                    ddtool prof --diff before.folded after.folded
//                      [--top N]   per-function self-sample deltas
//
// Run telemetry (every subcommand):
//   --run_id ID          correlation id stamped on feed lines and the
//                        --trace_json run report
//                        (default: derived from clock and pid)
//   --trace_json f.json  also turns on the worker-pool stats collector,
//                        which fills the report's "parallel" section
//                        (per-phase, per-worker chunks and busy/wait)
//   --profile            run the subcommand under the sampling CPU
//                        profiler (src/obs/prof): per-thread SIGPROF
//                        timers, stacks tagged with the active trace
//                        span and pool phase. Writes <out>.folded
//                        (flamegraph.pl-ready collapsed stacks) and
//                        <out>.json (summary); <out> defaults to
//                        ddtool.<command>.prof, override with
//                        --profile_out PREFIX. The run report gains a
//                        "profile" section.
//   --profile_hz N       samples per second of each thread's CPU time
//                        (default 99; implies --profile)
//
// A flag no subcommand reads (a typo, or a flag that was removed) is
// refused with exit status 1.
//
// Exit status 0 on success, 1 on bad usage or data errors.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "approx/refine.h"
#include "common/build_info.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/determiner.h"
#include "core/result_filter.h"
#include "core/result_io.h"
#include "core/simd_count.h"
#include "incr/maintenance.h"
#include "data/corruptor.h"
#include "data/csv.h"
#include "data/generators.h"
#include "detect/violation_detector.h"
#include "discover/rule_explorer.h"
#include "matching/builder.h"
#include "matching/serialization.h"
#include "obs/diag/crash_dump.h"
#include "obs/diag/dump_reader.h"
#include "obs/diag/flight_recorder.h"
#include "obs/diag/watchdog.h"
#include "obs/explain/audit.h"
#include "obs/explain/recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/pool_stats.h"
#include "obs/prof/folded.h"
#include "obs/prof/profiler.h"
#include "obs/report.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace {

// Every flag some subcommand reads. main() refuses any other.
const std::vector<std::string> kKnownFlags = {
    "algo", "approx", "audit_json", "batch", "collapse", "corrupt-attrs",
    "corrupt-fraction", "dataset", "diag_dir", "diff", "dirty-out", "dmax",
    "drift", "entities", "epsilon", "explain_sample", "input", "json",
    "landscape", "lhs", "load-matching", "max-lhs", "max-pairs", "merge",
    "metric", "no_blocking", "no_symbolize", "order", "out", "pattern",
    "print_stats", "profile", "profile_hz", "profile_out", "provider",
    "retire", "rhs", "ring_capacity", "rows", "run_id", "sample_target",
    "save-matching", "seed", "simd", "stall_timeout_ms", "threads", "top",
    "trace_json", "truth-out",
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: ddtool "
      "<generate|determine|explain|detect|discover|append|watch|serve|diag|"
      "prof> [flags]\n"
      "       ddtool --version\n"
      "see the header of tools/ddtool.cc or README.md for flags\n");
  return 1;
}

int Fail(const dd::Status& status) {
  std::fprintf(stderr, "ddtool: %s\n", status.ToString().c_str());
  return 1;
}

// Applies repeated --metric attr=name flags onto matching options.
dd::Status ApplyMetricFlags(const dd::ArgParser& args,
                            dd::MatchingOptions* options) {
  for (const auto& spec : args.GetAll("metric")) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      return dd::Status::InvalidArgument("--metric expects attr=name, got '" +
                                         spec + "'");
    }
    options->metric_overrides[spec.substr(0, eq)] = spec.substr(eq + 1);
  }
  return dd::Status::Ok();
}

dd::Result<dd::MatchingOptions> MatchingFromFlags(const dd::ArgParser& args) {
  dd::MatchingOptions options;
  DD_ASSIGN_OR_RETURN(std::int64_t dmax, args.GetInt("dmax", 10));
  DD_ASSIGN_OR_RETURN(std::int64_t max_pairs, args.GetInt("max-pairs", 0));
  DD_ASSIGN_OR_RETURN(std::int64_t seed, args.GetInt("seed", 1));
  options.dmax = static_cast<int>(dmax);
  options.max_pairs = static_cast<std::size_t>(max_pairs);
  options.seed = static_cast<std::uint64_t>(seed);
  DD_RETURN_IF_ERROR(ApplyMetricFlags(args, &options));
  return options;
}

// Shared by determine / append / watch: --top, --algo, --order,
// --provider.
dd::Result<dd::DetermineOptions> DetermineFromFlags(const dd::ArgParser& args) {
  dd::DetermineOptions options;
  DD_ASSIGN_OR_RETURN(std::int64_t top, args.GetInt("top", 5));
  options.top_l = static_cast<std::size_t>(top);
  options.provider = args.GetString("provider", "scan");
  const std::string algo = args.GetString("algo", "DAP+PAP");
  if (algo == "DA+PA") {
    options.lhs_algorithm = dd::LhsAlgorithm::kDa;
    options.rhs_algorithm = dd::RhsAlgorithm::kPa;
  } else if (algo == "DA+PAP") {
    options.lhs_algorithm = dd::LhsAlgorithm::kDa;
    options.rhs_algorithm = dd::RhsAlgorithm::kPap;
    options.order = dd::ProcessingOrder::kMidFirst;
  } else if (algo == "DAP+PAP") {
    options.lhs_algorithm = dd::LhsAlgorithm::kDap;
    options.rhs_algorithm = dd::RhsAlgorithm::kPap;
  } else {
    return dd::Status::InvalidArgument("--algo must be DA+PA|DA+PAP|DAP+PAP");
  }
  if (args.GetString("order", "top") == "mid") {
    options.order = dd::ProcessingOrder::kMidFirst;
  }
  return options;
}

// --approx family shared by determine / discover. The sample seed rides
// on --seed (also the matching-build sampling seed; approx builds
// reject --max-pairs so the two uses never collide).
dd::Result<dd::approx::ApproxOptions> ApproxFromFlags(
    const dd::ArgParser& args) {
  dd::approx::ApproxOptions options;
  DD_ASSIGN_OR_RETURN(std::int64_t target,
                      args.GetInt("sample_target", 100000));
  if (target < 1) {
    return dd::Status::InvalidArgument("--sample_target must be >= 1");
  }
  options.sample_target = static_cast<std::uint64_t>(target);
  DD_ASSIGN_OR_RETURN(options.epsilon, args.GetDouble("epsilon", 0.01));
  if (options.epsilon < 0) {
    return dd::Status::InvalidArgument("--epsilon must be >= 0");
  }
  DD_ASSIGN_OR_RETURN(std::int64_t seed, args.GetInt("seed", 7));
  options.seed = static_cast<std::uint64_t>(seed);
  options.blocking = !args.Has("no_blocking");
  return options;
}

// Writes the global span-tree + metrics run report when --trace_json
// was given, stamped with the run's correlation id. Returns non-OK on
// I/O failure.
dd::Status MaybeWriteTraceReport(const dd::ArgParser& args,
                                 const std::string& run_name,
                                 const std::string& run_id) {
  const std::string path = args.GetString("trace_json");
  if (path.empty()) return dd::Status::Ok();
  dd::obs::RunReport report = dd::obs::CaptureRunReport(run_name);
  report.run_id = run_id;
  DD_RETURN_IF_ERROR(dd::obs::WriteRunReportJson(report, path));
  std::fprintf(stderr, "wrote trace report to %s\n", path.c_str());
  return dd::Status::Ok();
}

// Correlation id for feed lines and the run report: --run_id, or else
// wall clock microseconds + pid, hex.
std::string RunId(const dd::ArgParser& args) {
  const std::string given = args.GetString("run_id");
  if (!given.empty()) return given;
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(now).count();
  return dd::StrFormat("%011llx-%04x",
                       static_cast<unsigned long long>(us) & 0xfffffffffffULL,
                       static_cast<unsigned>(::getpid()) & 0xffff);
}

// The --print_stats summary: search cost in the units of the paper's
// evaluation (pruning rate of Figure 4, candidates evaluated, rows
// scanned by the provider).
void PrintSearchStats(const dd::DetermineResult& result) {
  const dd::DaStats& s = result.stats;
  const dd::ProviderStats& p = result.provider_stats;
  std::fprintf(stderr, "search stats:\n");
  std::fprintf(stderr, "  lhs candidates evaluated   %zu of %zu\n", s.lhs_evaluated,
              s.lhs_total);
  std::fprintf(stderr, "  rhs lattice size           %zu\n", s.rhs.lattice_size);
  std::fprintf(stderr, "  rhs candidates evaluated   %zu\n", s.rhs.evaluated);
  std::fprintf(stderr, "  rhs candidates pruned      %zu\n", s.rhs.pruned);
  std::fprintf(stderr, "  pruning rate               %.4f\n", s.PruningRate());
  std::fprintf(stderr, "  provider lhs evaluations   %llu\n",
              static_cast<unsigned long long>(p.lhs_evaluations));
  std::fprintf(stderr, "  provider xy evaluations    %llu\n",
              static_cast<unsigned long long>(p.xy_evaluations));
  std::fprintf(stderr, "  provider rows scanned      %llu\n",
              static_cast<unsigned long long>(p.rows_scanned));
}

// Parses "4,2->3,1" into a Pattern with the given arities.
dd::Result<dd::Pattern> ParsePattern(const std::string& text,
                                     std::size_t lhs_size,
                                     std::size_t rhs_size) {
  const std::size_t arrow = text.find("->");
  if (arrow == std::string::npos) {
    return dd::Status::InvalidArgument(
        "--pattern expects 'x1,x2->y1,y2', got '" + text + "'");
  }
  auto parse_side = [](const std::string& side,
                       std::size_t expected) -> dd::Result<dd::Levels> {
    dd::Levels levels;
    for (const auto& token : dd::SplitFlagList(side)) {
      double value = 0.0;
      if (!dd::ParseDouble(token, &value) || value < 0) {
        return dd::Status::InvalidArgument("bad threshold '" + token + "'");
      }
      levels.push_back(static_cast<int>(value));
    }
    if (levels.size() != expected) {
      return dd::Status::InvalidArgument(dd::StrFormat(
          "pattern side has %zu thresholds, rule needs %zu", levels.size(),
          expected));
    }
    return levels;
  };
  dd::Pattern pattern;
  DD_ASSIGN_OR_RETURN(pattern.lhs, parse_side(text.substr(0, arrow), lhs_size));
  DD_ASSIGN_OR_RETURN(pattern.rhs, parse_side(text.substr(arrow + 2), rhs_size));
  return pattern;
}

int RunGenerate(const dd::ArgParser& args) {
  const std::string dataset = args.GetString("dataset", "restaurant");
  const std::string out = args.GetString("out");
  if (out.empty()) return Fail(dd::Status::InvalidArgument("--out required"));
  auto entities = args.GetInt("entities", 200);
  if (!entities.ok()) return Fail(entities.status());
  auto seed = args.GetInt("seed", 42);
  if (!seed.ok()) return Fail(seed.status());

  dd::GeneratedData data;
  if (dataset == "hotel") {
    data = dd::HotelExample();
  } else if (dataset == "cora") {
    dd::CoraOptions options;
    options.num_entities = static_cast<std::size_t>(*entities);
    options.seed = static_cast<std::uint64_t>(*seed);
    data = dd::GenerateCora(options);
  } else if (dataset == "restaurant") {
    dd::RestaurantOptions options;
    options.num_entities = static_cast<std::size_t>(*entities);
    options.seed = static_cast<std::uint64_t>(*seed);
    data = dd::GenerateRestaurant(options);
  } else if (dataset == "citeseer") {
    dd::CiteseerOptions options;
    options.num_entities = static_cast<std::size_t>(*entities);
    options.seed = static_cast<std::uint64_t>(*seed);
    data = dd::GenerateCiteseer(options);
  } else {
    return Fail(dd::Status::InvalidArgument(
        "--dataset must be hotel|cora|restaurant|citeseer"));
  }

  dd::Status write = dd::WriteCsvFile(data.relation, out);
  if (!write.ok()) return Fail(write);
  std::printf("wrote %zu rows to %s\n", data.relation.num_rows(), out.c_str());

  const std::string dirty_out = args.GetString("dirty-out");
  if (!dirty_out.empty()) {
    auto fraction = args.GetDouble("corrupt-fraction", 0.05);
    if (!fraction.ok()) return Fail(fraction.status());
    std::vector<std::string> attrs =
        dd::SplitFlagList(args.GetString("corrupt-attrs"));
    if (attrs.empty()) {
      return Fail(dd::Status::InvalidArgument(
          "--dirty-out requires --corrupt-attrs a,b"));
    }
    dd::CorruptorOptions coptions;
    coptions.corrupt_fraction = *fraction;
    coptions.seed = static_cast<std::uint64_t>(*seed) + 1;
    auto corrupted = dd::InjectViolations(data, attrs, coptions);
    if (!corrupted.ok()) return Fail(corrupted.status());
    write = dd::WriteCsvFile(corrupted->dirty, dirty_out);
    if (!write.ok()) return Fail(write);
    std::printf("wrote dirty copy (%zu corrupted rows) to %s\n",
                corrupted->corrupted_rows.size(), dirty_out.c_str());

    const std::string truth_out = args.GetString("truth-out");
    if (!truth_out.empty()) {
      dd::Schema schema({{"row_i", dd::AttributeType::kNumeric},
                         {"row_j", dd::AttributeType::kNumeric}});
      dd::Relation truth(schema);
      for (const auto& [i, j] : corrupted->truth_pairs) {
        dd::Status s = truth.AddRow(
            {dd::StrFormat("%u", i), dd::StrFormat("%u", j)});
        if (!s.ok()) return Fail(s);
      }
      write = dd::WriteCsvFile(truth, truth_out);
      if (!write.ok()) return Fail(write);
      std::printf("wrote %zu truth pairs to %s\n",
                  corrupted->truth_pairs.size(), truth_out.c_str());
    }
  }
  return 0;
}

// Shared by determine / explain: the matching relation, either
// deserialized from --load-matching or built from --input.
dd::Result<dd::MatchingRelation> LoadMatching(const dd::ArgParser& args,
                                              const dd::RuleSpec& rule) {
  dd::obs::TraceSpan span("load_input");
  const std::string load_matching = args.GetString("load-matching");
  if (!load_matching.empty()) return dd::ReadMatchingFile(load_matching);
  const std::string input = args.GetString("input");
  if (input.empty()) {
    return dd::Status::InvalidArgument(
        "--input (CSV) or --load-matching (.ddmr) required");
  }
  DD_ASSIGN_OR_RETURN(dd::Relation relation, dd::ReadCsvFile(input));
  DD_ASSIGN_OR_RETURN(dd::MatchingOptions moptions, MatchingFromFlags(args));
  return dd::BuildMatchingRelation(relation, rule.AllAttributes(), moptions);
}

// The --approx leg of `ddtool determine`: progressive-refinement
// determination over the stratified sample instead of the exact
// matching relation.
int RunDetermineApprox(const dd::ArgParser& args, const dd::RuleSpec& rule) {
  if (args.Has("save-matching") || args.Has("load-matching")) {
    return Fail(dd::Status::InvalidArgument(
        "--approx never materializes the matching relation; "
        "--save-matching/--load-matching require an exact run"));
  }
  const std::string input = args.GetString("input");
  if (input.empty()) {
    return Fail(dd::Status::InvalidArgument("--input (CSV) required"));
  }
  auto relation = dd::ReadCsvFile(input);
  if (!relation.ok()) return Fail(relation.status());

  auto moptions = MatchingFromFlags(args);
  if (!moptions.ok()) return Fail(moptions.status());
  dd::approx::ApproxDetermineOptions options;
  auto doptions = DetermineFromFlags(args);
  if (!doptions.ok()) return Fail(doptions.status());
  options.determine = *doptions;
  auto aoptions = ApproxFromFlags(args);
  if (!aoptions.ok()) return Fail(aoptions.status());
  options.approx = *aoptions;

  auto result =
      dd::approx::ApproxDetermineThresholds(*relation, rule, *moptions, options);
  if (!result.ok()) return Fail(result.status());
  dd::Status trace_status = MaybeWriteTraceReport(
      args, "ddtool determine --approx " + args.GetString("algo", "DAP+PAP"),
      RunId(args));
  if (!trace_status.ok()) return Fail(trace_status);

  if (args.Has("json")) {
    std::printf("%s\n", dd::approx::ApproxResultToJson(*result, rule).c_str());
    if (args.Has("print_stats")) PrintSearchStats(result->determine);
    return 0;
  }
  std::printf(
      "approx determination: %zu round(s), %s, sample fraction %.4f "
      "(%llu near + %llu sampled of %llu pairs)%s\n",
      result->rounds, result->converged ? "converged" : "round cap hit",
      result->sample_fraction,
      static_cast<unsigned long long>(result->near_pairs),
      static_cast<unsigned long long>(result->sampled_pairs),
      static_cast<unsigned long long>(result->total_pairs),
      result->exhaustive ? " [exhaustive = exact]" : " [estimated]");
  std::printf("determined %zu pattern(s) in %.3fs (prior CQ %.3f)\n",
              result->determine.patterns.size(),
              result->determine.elapsed_seconds,
              result->determine.prior_mean_cq);
  std::printf("%-30s %8s %8s %6s %9s %21s\n", "pattern", "D", "C", "Q",
              "utility", "utility 95% bounds");
  for (std::size_t i = 0; i < result->determine.patterns.size(); ++i) {
    const auto& p = result->determine.patterns[i];
    const auto& iv = result->intervals[i];
    std::printf("%-30s %8.4f %8.4f %6.2f %9.4f   [%8.4f, %8.4f]\n",
                dd::PatternToString(p.pattern).c_str(), p.measures.d,
                p.measures.confidence, p.measures.quality, p.utility,
                iv.utility.lo, iv.utility.hi);
  }
  if (args.Has("print_stats")) PrintSearchStats(result->determine);
  return 0;
}

int RunDetermine(const dd::ArgParser& args) {
  std::vector<std::string> lhs = dd::SplitFlagList(args.GetString("lhs"));
  std::vector<std::string> rhs = dd::SplitFlagList(args.GetString("rhs"));
  if (lhs.empty() || rhs.empty()) {
    return Fail(dd::Status::InvalidArgument("--lhs and --rhs required"));
  }
  dd::RuleSpec rule{std::move(lhs), std::move(rhs)};
  if (args.Has("approx")) return RunDetermineApprox(args, rule);

  dd::Result<dd::MatchingRelation> matching = LoadMatching(args, rule);
  if (!matching.ok()) return Fail(matching.status());
  if (!args.Has("json")) {
    // Keep stdout pure JSON under --json (pipe-friendly).
    std::printf("matching relation: %zu tuples (dmax=%d)\n",
                matching->num_tuples(), matching->dmax());
  }
  const std::string save_matching = args.GetString("save-matching");
  if (!save_matching.empty()) {
    dd::Status save = dd::WriteMatchingFile(*matching, save_matching);
    if (!save.ok()) return Fail(save);
    std::printf("saved matching relation to %s\n", save_matching.c_str());
  }

  auto doptions = DetermineFromFlags(args);
  if (!doptions.ok()) return Fail(doptions.status());

  auto result = dd::DetermineThresholds(*matching, rule, *doptions);
  if (!result.ok()) return Fail(result.status());
  if (args.Has("collapse")) {
    result->patterns = dd::CollapseEquivalent(std::move(result->patterns));
  }
  dd::Status trace_status = MaybeWriteTraceReport(
      args, "ddtool determine " + args.GetString("algo", "DAP+PAP"),
      RunId(args));
  if (!trace_status.ok()) return Fail(trace_status);
  if (args.Has("json")) {
    std::printf("%s\n", dd::DetermineResultToJson(*result, rule).c_str());
    if (args.Has("print_stats")) PrintSearchStats(*result);
    return 0;
  }
  std::printf("determined %zu pattern(s) in %.3fs (pruning rate %.3f, prior "
              "CQ %.3f)\n",
              result->patterns.size(), result->elapsed_seconds,
              result->stats.PruningRate(), result->prior_mean_cq);
  std::printf("%-30s %8s %8s %8s %6s %9s\n", "pattern", "D", "C", "S", "Q",
              "utility");
  for (const auto& p : result->patterns) {
    std::printf("%-30s %8.4f %8.4f %8.4f %6.2f %9.4f\n",
                dd::PatternToString(p.pattern).c_str(), p.measures.d,
                p.measures.confidence, p.measures.support, p.measures.quality,
                p.utility);
  }
  if (args.Has("print_stats")) PrintSearchStats(*result);
  return 0;
}

// Writes `content` to `path` (overwriting), fopen-based like the obs
// report writers.
dd::Status WriteTextFile(const std::string& content, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return dd::Status::Internal("cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int closed = std::fclose(f);
  if (written != content.size() || closed != 0) {
    return dd::Status::Internal("short write to " + path);
  }
  return dd::Status::Ok();
}

// `ddtool explain`: a determination run with the EXPLAIN recorder on,
// followed by the audit consumers — JSON audit document, pruning
// waterfall, winner-vs-runner-up diff, utility-landscape export.
int RunExplain(const dd::ArgParser& args) {
  std::vector<std::string> lhs = dd::SplitFlagList(args.GetString("lhs"));
  std::vector<std::string> rhs = dd::SplitFlagList(args.GetString("rhs"));
  if (lhs.empty() || rhs.empty()) {
    return Fail(dd::Status::InvalidArgument("--lhs and --rhs required"));
  }
  dd::RuleSpec rule{std::move(lhs), std::move(rhs)};

  // --approx audits the sampled run instead: the snapshot carries the
  // "estimated" marker and the waterfall totals come from estimated
  // counts.
  const bool approx_mode = args.Has("approx");
  std::optional<dd::Relation> relation;
  std::optional<dd::MatchingRelation> matching;
  if (approx_mode) {
    if (args.Has("save-matching") || args.Has("load-matching")) {
      return Fail(dd::Status::InvalidArgument(
          "--approx never materializes the matching relation; "
          "--save-matching/--load-matching require an exact run"));
    }
    const std::string input = args.GetString("input");
    if (input.empty()) {
      return Fail(dd::Status::InvalidArgument("--input (CSV) required"));
    }
    auto rel = dd::ReadCsvFile(input);
    if (!rel.ok()) return Fail(rel.status());
    relation.emplace(std::move(*rel));
  } else {
    auto loaded = LoadMatching(args, rule);
    if (!loaded.ok()) return Fail(loaded.status());
    matching.emplace(std::move(*loaded));
  }
  auto doptions = DetermineFromFlags(args);
  if (!doptions.ok()) return Fail(doptions.status());

  dd::obs::ExplainConfig config;
  auto sample = args.GetInt("explain_sample", 1);
  if (!sample.ok()) return Fail(sample.status());
  if (*sample < 1) {
    return Fail(dd::Status::InvalidArgument("--explain_sample must be >= 1"));
  }
  config.sample_every = static_cast<std::size_t>(*sample);
  auto ring = args.GetInt("ring_capacity", 1 << 16);
  if (!ring.ok()) return Fail(ring.status());
  if (*ring < 1 ||
      static_cast<std::uint64_t>(*ring) > dd::obs::kMaxRingCapacity) {
    return Fail(dd::Status::InvalidArgument(
        "--ring_capacity must be in [1, " +
        std::to_string(dd::obs::kMaxRingCapacity) + "]"));
  }
  config.ring_capacity = static_cast<std::size_t>(*ring);

  dd::obs::ExplainRecorder& recorder = dd::obs::ExplainRecorder::Global();
  recorder.Enable(config);
  std::optional<dd::DetermineResult> result;
  dd::Status run_status = dd::Status::Ok();
  if (approx_mode) {
    auto moptions = MatchingFromFlags(args);
    if (!moptions.ok()) {
      recorder.Disable();
      return Fail(moptions.status());
    }
    dd::approx::ApproxDetermineOptions approx_options;
    approx_options.determine = *doptions;
    auto aoptions = ApproxFromFlags(args);
    if (!aoptions.ok()) {
      recorder.Disable();
      return Fail(aoptions.status());
    }
    approx_options.approx = *aoptions;
    auto approx_result = dd::approx::ApproxDetermineThresholds(
        *relation, rule, *moptions, approx_options);
    if (approx_result.ok()) {
      result.emplace(std::move(approx_result->determine));
    } else {
      run_status = approx_result.status();
    }
  } else {
    auto exact = dd::DetermineThresholds(*matching, rule, *doptions);
    if (exact.ok()) {
      result.emplace(std::move(*exact));
    } else {
      run_status = exact.status();
    }
  }
  const dd::obs::ExplainSnapshot snapshot = recorder.Snapshot();
  recorder.Disable();
  if (!run_status.ok()) return Fail(run_status);

  const std::string audit =
      dd::ExplainAuditToJson(snapshot, *result, rule, doptions->utility);
  const std::string audit_path = args.GetString("audit_json");
  if (!audit_path.empty()) {
    dd::Status written = WriteTextFile(audit, audit_path);
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr, "wrote audit document to %s\n", audit_path.c_str());
  }
  const std::string landscape_path = args.GetString("landscape");
  if (!landscape_path.empty()) {
    const bool jsonl = landscape_path.size() >= 6 &&
                       landscape_path.rfind(".jsonl") ==
                           landscape_path.size() - 6;
    const std::string landscape =
        jsonl ? dd::LandscapeToJsonl(snapshot, rule, doptions->utility,
                                     result->prior_mean_cq)
              : dd::LandscapeToCsv(snapshot, rule, doptions->utility,
                                   result->prior_mean_cq);
    dd::Status written = WriteTextFile(landscape, landscape_path);
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr, "wrote utility landscape to %s\n",
                 landscape_path.c_str());
  }

  dd::Status trace_status = MaybeWriteTraceReport(
      args, "ddtool explain " + args.GetString("algo", "DAP+PAP"),
      RunId(args));
  if (!trace_status.ok()) return Fail(trace_status);

  if (args.Has("json")) {
    std::printf("%s", audit.c_str());
    return 0;
  }
  if (approx_mode) {
    std::printf("approx run over %zu rows%s\n", relation->num_rows(),
                snapshot.estimated ? " [estimated counts]" : "");
  } else {
    std::printf("matching relation: %zu tuples (dmax=%d)\n",
                matching->num_tuples(), matching->dmax());
  }
  std::printf("%s: %" PRIu64 " event(s) recorded, %" PRIu64
              " sampled out, %" PRIu64 " dropped (sample_every=%zu)\n",
              snapshot.run_label.c_str(), snapshot.recorded,
              snapshot.sampled_out, snapshot.dropped,
              snapshot.config.sample_every);
  std::printf("\n%s", dd::PruningWaterfallToText(snapshot, *result).c_str());
  std::printf("\n%s", dd::WhyChosenToText(*result).c_str());
  std::printf("\n%-30s %8s %8s %8s %6s %9s\n", "pattern", "D", "C", "S", "Q",
              "utility");
  for (const auto& p : result->patterns) {
    std::printf("%-30s %8.4f %8.4f %8.4f %6.2f %9.4f\n",
                dd::PatternToString(p.pattern).c_str(), p.measures.d,
                p.measures.confidence, p.measures.support, p.measures.quality,
                p.utility);
  }
  if (args.Has("print_stats")) PrintSearchStats(*result);
  return 0;
}

int RunDetect(const dd::ArgParser& args) {
  const std::string input = args.GetString("input");
  if (input.empty()) return Fail(dd::Status::InvalidArgument("--input required"));
  std::vector<std::string> lhs = dd::SplitFlagList(args.GetString("lhs"));
  std::vector<std::string> rhs = dd::SplitFlagList(args.GetString("rhs"));
  if (lhs.empty() || rhs.empty()) {
    return Fail(dd::Status::InvalidArgument("--lhs and --rhs required"));
  }
  auto relation = dd::ReadCsvFile(input);
  if (!relation.ok()) return Fail(relation.status());
  auto moptions = MatchingFromFlags(args);
  if (!moptions.ok()) return Fail(moptions.status());
  auto pattern =
      ParsePattern(args.GetString("pattern"), lhs.size(), rhs.size());
  if (!pattern.ok()) return Fail(pattern.status());

  dd::RuleSpec rule{std::move(lhs), std::move(rhs)};
  auto found = dd::DetectViolations(*relation, rule, *pattern, *moptions);
  if (!found.ok()) return Fail(found.status());
  dd::Status trace_status =
      MaybeWriteTraceReport(args, "ddtool detect", RunId(args));
  if (!trace_status.ok()) return Fail(trace_status);
  std::printf("%zu violating pair(s)\n", found->size());

  const std::string out = args.GetString("out");
  if (!out.empty()) {
    dd::Schema schema({{"row_i", dd::AttributeType::kNumeric},
                       {"row_j", dd::AttributeType::kNumeric}});
    dd::Relation pairs(schema);
    for (const auto& [i, j] : *found) {
      dd::Status s =
          pairs.AddRow({dd::StrFormat("%u", i), dd::StrFormat("%u", j)});
      if (!s.ok()) return Fail(s);
    }
    dd::Status write = dd::WriteCsvFile(pairs, out);
    if (!write.ok()) return Fail(write);
    std::printf("wrote pairs to %s\n", out.c_str());
  } else {
    for (std::size_t k = 0; k < found->size() && k < 20; ++k) {
      std::printf("  (%u, %u)\n", (*found)[k].first, (*found)[k].second);
    }
    if (found->size() > 20) std::printf("  ... (%zu more)\n", found->size() - 20);
  }
  return 0;
}

int RunDiscover(const dd::ArgParser& args) {
  const std::string input = args.GetString("input");
  if (input.empty()) return Fail(dd::Status::InvalidArgument("--input required"));
  auto relation = dd::ReadCsvFile(input);
  if (!relation.ok()) return Fail(relation.status());

  dd::ExploreOptions options;
  auto moptions = MatchingFromFlags(args);
  if (!moptions.ok()) return Fail(moptions.status());
  options.matching = *moptions;
  if (args.Has("approx")) {
    // The stratified sample owns the pair budget (--sample_target);
    // --max-pairs would make the build reject below.
    options.approx = true;
    auto aoptions = ApproxFromFlags(args);
    if (!aoptions.ok()) return Fail(aoptions.status());
    options.approx_options = *aoptions;
  } else if (options.matching.max_pairs == 0) {
    options.matching.max_pairs = 50000;
  }
  auto max_lhs = args.GetInt("max-lhs", 2);
  if (!max_lhs.ok()) return Fail(max_lhs.status());
  options.max_lhs_size = static_cast<std::size_t>(*max_lhs);
  auto top = args.GetInt("top", 10);
  if (!top.ok()) return Fail(top.status());
  options.top_rules = static_cast<std::size_t>(*top);

  auto rules = dd::DiscoverRules(*relation, options);
  if (!rules.ok()) return Fail(rules.status());
  dd::Status trace_status =
      MaybeWriteTraceReport(args, "ddtool discover", RunId(args));
  if (!trace_status.ok()) return Fail(trace_status);
  std::printf("%zu rule(s):\n", rules->size());
  for (const auto& r : *rules) {
    if (r.estimated) {
      std::printf(
          "  [%s] -> [%s]  pattern %s  C=%.3f Q=%.2f utility~%.4f "
          "[%.4f, %.4f]\n",
          dd::Join(r.rule.lhs, ", ").c_str(),
          dd::Join(r.rule.rhs, ", ").c_str(),
          dd::PatternToString(r.best.pattern).c_str(),
          r.best.measures.confidence, r.best.measures.quality, r.best.utility,
          r.utility.lo, r.utility.hi);
    } else {
      std::printf("  [%s] -> [%s]  pattern %s  C=%.3f Q=%.2f utility=%.4f\n",
                  dd::Join(r.rule.lhs, ", ").c_str(),
                  dd::Join(r.rule.rhs, ", ").c_str(),
                  dd::PatternToString(r.best.pattern).c_str(),
                  r.best.measures.confidence, r.best.measures.quality,
                  r.best.utility);
    }
  }
  return 0;
}

// Streams one change-feed line per applied batch (watch / serve).
// JSON lines are stamped with the run_id and a monotonically
// increasing seq so they join against the --trace_json run report.
class FeedPrinter {
 public:
  FeedPrinter(bool json, std::string run_id)
      : json_(json), run_id_(std::move(run_id)) {}

  void Print(const dd::MaintenanceEngine& engine, const dd::BatchOutcome& o,
             std::size_t inserts, std::size_t deletes) {
    ++seq_;
    const dd::DeterminedPattern* pub = engine.published();
    const std::string pattern =
        pub ? dd::PatternToString(pub->pattern) : std::string("none");
    if (json_) {
      std::printf(
          "{\"run_id\":\"%s\",\"seq\":%llu,\"batch\":%llu,\"inserts\":%zu,"
          "\"deletes\":%zu,\"pairs_computed\":%zu,\"rows_removed\":%zu,"
          "\"drift\":%.6g,\"bound\":%.6g,\"redetermined\":%s,"
          "\"published\":\"%s\",\"utility\":%.6g}\n",
          run_id_.c_str(), static_cast<unsigned long long>(seq_),
          static_cast<unsigned long long>(o.batch_seq), inserts, deletes,
          o.pairs_computed, o.matching_removed, o.drift, o.bound,
          o.redetermined ? "true" : "false", pattern.c_str(),
          pub ? pub->utility : 0.0);
    } else {
      std::printf(
          "batch %llu: +%zu/-%zu rows, %zu pairs computed, drift %.4g "
          "(bound %.4g) -> %s, published %s (utility %.4f)\n",
          static_cast<unsigned long long>(o.batch_seq), inserts, deletes,
          o.pairs_computed, o.drift, o.bound,
          o.redetermined ? "re-determined" : "kept", pattern.c_str(),
          pub ? pub->utility : 0.0);
    }
    std::fflush(stdout);
  }

 private:
  bool json_;
  std::string run_id_;
  std::uint64_t seq_ = 0;
};

// Engine construction shared by append / watch / serve.
dd::Result<dd::MaintenanceEngine> EngineFromFlags(const dd::ArgParser& args,
                                                  const dd::Schema& schema) {
  std::vector<std::string> lhs = dd::SplitFlagList(args.GetString("lhs"));
  std::vector<std::string> rhs = dd::SplitFlagList(args.GetString("rhs"));
  if (lhs.empty() || rhs.empty()) {
    return dd::Status::InvalidArgument("--lhs and --rhs required");
  }
  dd::MaintenanceOptions options;
  DD_ASSIGN_OR_RETURN(options.incremental.matching, MatchingFromFlags(args));
  DD_ASSIGN_OR_RETURN(options.determine, DetermineFromFlags(args));
  DD_ASSIGN_OR_RETURN(options.drift_fraction, args.GetDouble("drift", 0.5));
  return dd::MaintenanceEngine::Create(
      schema, dd::RuleSpec{std::move(lhs), std::move(rhs)}, options);
}

// Prints the end-of-run summary shared by append / watch / serve.
int PrintFinalState(const dd::MaintenanceEngine& engine, bool watch,
                    bool json) {
  const dd::DeterminedPattern* pub = engine.published();
  const std::string pattern =
      pub ? dd::PatternToString(pub->pattern) : std::string("none");
  if (json) {
    if (!watch) {
      std::printf(
          "{\"live\":%zu,\"matching\":%zu,\"redeterminations\":%llu,"
          "\"skipped\":%llu,\"updates\":%zu,\"published\":\"%s\","
          "\"utility\":%.6g}\n",
          engine.builder().store().num_live(),
          engine.builder().matching().num_tuples(),
          static_cast<unsigned long long>(engine.redeterminations()),
          static_cast<unsigned long long>(engine.skipped()),
          engine.updates().size(), pattern.c_str(), pub ? pub->utility : 0.0);
    }
    return 0;  // Watch keeps stdout to feed lines only under --json.
  }
  std::printf(
      "final: %zu live tuples, %zu matching tuples, %llu re-determinations "
      "(%llu skipped), %zu threshold update(s)\n",
      engine.builder().store().num_live(),
      engine.builder().matching().num_tuples(),
      static_cast<unsigned long long>(engine.redeterminations()),
      static_cast<unsigned long long>(engine.skipped()),
      engine.updates().size());
  if (pub != nullptr) {
    std::printf("published %s  D=%.4f C=%.4f S=%.4f Q=%.2f utility=%.4f\n",
                pattern.c_str(), pub->measures.d, pub->measures.confidence,
                pub->measures.support, pub->measures.quality, pub->utility);
  } else {
    std::printf("no threshold published (empty instance)\n");
  }
  return 0;
}

// Shared driver of `append` (prints the final state) and `watch`
// (streams one change-feed line per batch). Feeds --input as the first
// batch, then --rows in --batch-row chunks; --retire k deletes the k
// oldest live tuples with every chunk to exercise the delete path.
int RunIncremental(const dd::ArgParser& args, bool watch) {
  if (args.Has("approx")) {
    return Fail(dd::Status::InvalidArgument(
        "--approx is not supported for append/watch: incremental "
        "maintenance needs the exact matching relation it maintains "
        "(run determine or discover with --approx instead)"));
  }
  const std::string rows_path = args.GetString("rows");
  if (rows_path.empty()) {
    return Fail(
        dd::Status::InvalidArgument("--rows (CSV of rows to append) required"));
  }
  auto rows = dd::ReadCsvFile(rows_path);
  if (!rows.ok()) return Fail(rows.status());

  dd::Relation base;
  const std::string input = args.GetString("input");
  if (!input.empty()) {
    auto base_rel = dd::ReadCsvFile(input);
    if (!base_rel.ok()) return Fail(base_rel.status());
    if (!(base_rel->schema() == rows->schema())) {
      return Fail(dd::Status::InvalidArgument(
          "--input and --rows disagree on schema: " +
          base_rel->schema().ToString() + " vs " + rows->schema().ToString()));
    }
    base = std::move(*base_rel);
  }

  auto batch = args.GetInt("batch", 16);
  if (!batch.ok()) return Fail(batch.status());
  if (*batch < 1) {
    return Fail(dd::Status::InvalidArgument("--batch must be >= 1"));
  }
  auto retire = args.GetInt("retire", 0);
  if (!retire.ok()) return Fail(retire.status());
  const std::size_t batch_rows = static_cast<std::size_t>(*batch);
  const std::size_t retire_rows =
      *retire < 0 ? 0 : static_cast<std::size_t>(*retire);

  auto engine = EngineFromFlags(args, rows->schema());
  if (!engine.ok()) return Fail(engine.status());
  const std::string run_id = RunId(args);

  const bool json = args.Has("json");
  FeedPrinter printer(json, run_id);
  // The heartbeat is armed only while a batch is being applied: the
  // feed loop legitimately idles between batches, and an armed-but-idle
  // heartbeat would read as a stall to the watchdog.
  static dd::obs::diag::Heartbeat* feed_heartbeat =
      dd::obs::diag::RegisterHeartbeat("feed.loop");
  auto feed = [&](const std::vector<std::vector<std::string>>& inserts,
                  const std::vector<std::uint32_t>& deletes) -> dd::Status {
    dd::obs::diag::ScopedHeartbeat scoped_heartbeat(feed_heartbeat);
    auto outcome = engine->ApplyBatch(inserts, deletes);
    if (!outcome.ok()) return outcome.status();
    dd::obs::diag::FlightRecord(dd::obs::diag::EventType::kServe, "feed_batch",
                                outcome->batch_seq, inserts.size());
    if (watch) printer.Print(*engine, *outcome, inserts.size(), deletes.size());
    return dd::Status::Ok();
  };

  if (base.num_rows() > 0) {
    std::vector<std::vector<std::string>> inserts;
    inserts.reserve(base.num_rows());
    for (std::size_t r = 0; r < base.num_rows(); ++r) {
      inserts.push_back(base.row(r));
    }
    dd::Status fed = feed(inserts, {});
    if (!fed.ok()) return Fail(fed);
  }
  for (std::size_t begin = 0; begin < rows->num_rows(); begin += batch_rows) {
    const std::size_t end = std::min(begin + batch_rows, rows->num_rows());
    std::vector<std::vector<std::string>> inserts;
    inserts.reserve(end - begin);
    for (std::size_t r = begin; r < end; ++r) inserts.push_back(rows->row(r));
    std::vector<std::uint32_t> deletes;
    if (retire_rows > 0) {
      const std::vector<std::uint32_t> live = engine->builder().store().LiveIds();
      deletes.assign(live.begin(),
                     live.begin() + std::min(retire_rows, live.size()));
    }
    dd::Status fed = feed(inserts, deletes);
    if (!fed.ok()) return Fail(fed);
  }

  dd::Status trace_status =
      MaybeWriteTraceReport(args, watch ? "ddtool watch" : "ddtool append",
                            run_id);
  if (!trace_status.ok()) return Fail(trace_status);

  return PrintFinalState(*engine, watch, json);
}

// Long-running daemon: base instance from --input, then headerless CSV
// rows from stdin in --batch-row chunks until EOF. SIGUSR2 with
// --diag_dir dumps its state on demand.
int RunServe(const dd::ArgParser& args) {
  if (args.Has("approx")) {
    return Fail(dd::Status::InvalidArgument(
        "--approx is not supported for serve: incremental maintenance "
        "needs the exact matching relation it maintains (run determine "
        "or discover with --approx instead)"));
  }
  const std::string input = args.GetString("input");
  if (input.empty()) {
    return Fail(dd::Status::InvalidArgument(
        "--input (base CSV; also fixes the schema for stdin rows) required"));
  }
  auto base = dd::ReadCsvFile(input);
  if (!base.ok()) return Fail(base.status());

  auto batch = args.GetInt("batch", 16);
  if (!batch.ok()) return Fail(batch.status());
  if (*batch < 1) {
    return Fail(dd::Status::InvalidArgument("--batch must be >= 1"));
  }
  const std::size_t batch_rows = static_cast<std::size_t>(*batch);

  auto engine = EngineFromFlags(args, base->schema());
  if (!engine.ok()) return Fail(engine.status());
  const std::string run_id = RunId(args);

  const bool json = args.Has("json");
  FeedPrinter printer(json, run_id);
  // Armed only while applying: serve blocks on stdin indefinitely
  // between batches, which must not look like a stall.
  static dd::obs::diag::Heartbeat* serve_heartbeat =
      dd::obs::diag::RegisterHeartbeat("serve.loop");
  auto apply = [&](const std::vector<std::vector<std::string>>& inserts)
      -> dd::Status {
    dd::obs::diag::ScopedHeartbeat scoped_heartbeat(serve_heartbeat);
    auto outcome = engine->ApplyBatch(inserts, {});
    if (!outcome.ok()) return outcome.status();
    dd::obs::diag::FlightRecord(dd::obs::diag::EventType::kServe, "serve_batch",
                                outcome->batch_seq, inserts.size());
    printer.Print(*engine, *outcome, inserts.size(), 0);
    return dd::Status::Ok();
  };

  if (base->num_rows() > 0) {
    std::vector<std::vector<std::string>> inserts;
    inserts.reserve(base->num_rows());
    for (std::size_t r = 0; r < base->num_rows(); ++r) {
      inserts.push_back(base->row(r));
    }
    dd::Status fed = apply(inserts);
    if (!fed.ok()) return Fail(fed);
  }

  const std::size_t columns = base->schema().num_attributes();
  dd::CsvOptions line_options;
  line_options.has_header = false;
  std::vector<std::vector<std::string>> pending;
  std::string line;
  std::uint64_t line_number = 0;
  // A malformed stdin row (unparseable CSV, wrong column count) must
  // not kill a long-running daemon, and must not vanish silently
  // either: log a structured warning naming the line, count it, and
  // keep serving.
  static dd::obs::Counter& rejected_counter =
      dd::obs::MetricsRegistry::Global().GetCounter("serve.rows_rejected");
  auto reject = [&](const std::string& why) {
    rejected_counter.Increment();
    DD_LOG(WARN) << "serve: rejected stdin line " << line_number << ": "
                 << why;
  };
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() != '\n') continue;  // Long line.
    ++line_number;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (!line.empty()) {
      auto row = dd::ParseCsv(line, line_options);
      if (!row.ok()) {
        reject(row.status().ToString());
      } else {
        for (std::size_t r = 0; r < row->num_rows(); ++r) {
          if (row->schema().num_attributes() != columns) {
            reject(dd::StrFormat("row has %zu fields, schema has %zu",
                                 row->schema().num_attributes(), columns));
            continue;
          }
          pending.push_back(row->row(r));
        }
      }
    }
    line.clear();
    if (pending.size() >= batch_rows) {
      dd::Status fed = apply(pending);
      if (!fed.ok()) return Fail(fed);
      pending.clear();
    }
  }
  if (!pending.empty()) {
    dd::Status fed = apply(pending);
    if (!fed.ok()) return Fail(fed);
  }

  dd::Status trace_status =
      MaybeWriteTraceReport(args, "ddtool serve", run_id);
  if (!trace_status.ok()) return Fail(trace_status);

  return PrintFinalState(*engine, /*watch=*/true, json);
}

// Offline reader for .dddump files (crash, stall, on-demand, or live
// dumps — they share one format). Parses, symbolizes against the
// modules loaded in this process, and pretty-prints. Exit 0 only when
// the dump is complete and carries at least one backtrace frame — the
// contract the crash-injection smoke test asserts.
int RunDiag(const dd::ArgParser& args) {
  std::string path = args.GetString("input");
  if (path.empty() && !args.positional().empty()) {
    path = args.positional().front();
  }
  if (path.empty()) {
    return Fail(dd::Status::InvalidArgument(
        "usage: ddtool diag <dump.dddump> [--json] [--no_symbolize]"));
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Fail(dd::Status::IoError("cannot open dump file: " + path));
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) text.append(buf, n);
  std::fclose(file);

  dd::obs::diag::DiagDump dump;
  std::string error;
  if (!dd::obs::diag::ParseDiagDump(text, &dump, &error)) {
    return Fail(dd::Status::InvalidArgument(path + ": " + error));
  }
  if (!args.Has("no_symbolize")) dd::obs::diag::SymbolizeDump(&dump);

  if (args.Has("json")) {
    std::printf("%s\n", dd::obs::diag::DiagDumpToJson(dump).c_str());
  } else {
    std::fputs(dd::obs::diag::DiagDumpToText(dump).c_str(), stdout);
  }
  // Machine-greppable summary on stderr in both modes, so scripts can
  // assert on it without parsing the full report.
  std::fprintf(stderr, "backtrace frames: %zu\n", dump.TotalFrames());
  std::fprintf(stderr, "flight recorder events: %zu\n",
               dump.flight_events.size());
  if (!dump.complete) {
    std::fprintf(stderr, "ddtool diag: dump is truncated (no --- end)\n");
    return 1;
  }
  if (dump.TotalFrames() == 0) {
    std::fprintf(stderr, "ddtool diag: dump has no backtrace frames\n");
    return 1;
  }
  return 0;
}

// Reads a whole file (for `ddtool prof` inputs).
dd::Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return dd::Status::IoError("cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) text.append(buf, n);
  std::fclose(file);
  return text;
}

dd::Result<dd::obs::prof::FoldedProfile> LoadFolded(const std::string& path) {
  DD_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
  dd::obs::prof::FoldedProfile folded;
  dd::Status parsed = dd::obs::prof::ParseFolded(text, &folded);
  if (!parsed.ok()) {
    return dd::Status(parsed.code(), path + ": " + parsed.message());
  }
  return folded;
}

// `ddtool prof`: offline consumer of folded profiles — render the
// hot-function table (or JSON summary) of one or more merged inputs,
// persist the merge, or diff two captures.
int RunProf(const dd::ArgParser& args) {
  auto top = args.GetInt("top", 20);
  if (!top.ok()) return Fail(top.status());
  if (*top < 1) {
    return Fail(dd::Status::InvalidArgument("--top must be >= 1"));
  }
  const std::size_t top_n = static_cast<std::size_t>(*top);

  if (args.Has("diff")) {
    // --diff swallows the "before" file as its value; "after" is the
    // one remaining positional.
    const std::string before_path = args.GetString("diff");
    if (before_path.empty() || args.positional().size() != 1) {
      return Fail(dd::Status::InvalidArgument(
          "usage: ddtool prof --diff before.folded after.folded [--top N]"));
    }
    auto before = LoadFolded(before_path);
    if (!before.ok()) return Fail(before.status());
    auto after = LoadFolded(args.positional().front());
    if (!after.ok()) return Fail(after.status());
    std::fputs(dd::obs::prof::DiffToText(*before, *after, top_n).c_str(),
               stdout);
    return 0;
  }

  if (args.positional().empty()) {
    return Fail(dd::Status::InvalidArgument(
        "usage: ddtool prof <a.folded> [b.folded ...] [--top N] [--json] "
        "[--merge out.folded]  |  ddtool prof --diff A B"));
  }
  std::vector<dd::obs::prof::FoldedProfile> inputs;
  for (const std::string& path : args.positional()) {
    auto folded = LoadFolded(path);
    if (!folded.ok()) return Fail(folded.status());
    inputs.push_back(std::move(*folded));
  }
  const dd::obs::prof::FoldedProfile merged =
      dd::obs::prof::MergeFolded(inputs);
  const std::string merge_out = args.GetString("merge");
  if (!merge_out.empty()) {
    dd::Status written =
        WriteTextFile(dd::obs::prof::FoldedToString(merged), merge_out);
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr, "ddtool prof: merged %zu profiles -> %s\n",
                 inputs.size(), merge_out.c_str());
  }
  if (args.Has("json")) {
    std::printf("%s\n",
                dd::obs::prof::FoldedSummaryJson(merged, top_n).c_str());
  } else {
    std::fputs(dd::obs::prof::TopTableToText(merged, top_n).c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::fputs(dd::BuildInfoSummary().c_str(), stdout);
    return 0;
  }
  dd::ArgParser args(argc, argv, 2);
  // ArgParser accepts any flag; a flag no subcommand reads (a typo, or
  // one that was removed) fails the run instead of being ignored.
  const std::vector<std::string> unknown = args.UnknownFlags(kKnownFlags);
  if (!unknown.empty()) {
    std::string names;
    for (const std::string& name : unknown) {
      if (!names.empty()) names += ", ";
      names += "--" + name;
    }
    return Fail(dd::Status::InvalidArgument("unknown flag " + names));
  }
  // --threads applies to every subcommand: it sets the process-wide
  // DefaultThreads() that the matching build and DA's LHS sweep
  // inherit (0 restores the DD_THREADS/hardware default). Results are
  // bit-identical at any value.
  if (args.Has("threads")) {
    auto threads = args.GetInt("threads", 0);
    if (!threads.ok()) return Fail(threads.status());
    if (*threads < 0) {
      return Fail(dd::Status::InvalidArgument("--threads must be >= 0"));
    }
    dd::SetDefaultThreads(static_cast<std::size_t>(*threads));
  }
  // --simd applies to every subcommand: it picks the counting-kernel
  // dispatch (core/simd_count.h), overriding the DD_SIMD environment
  // variable. Both kernel sets count identically, so results are
  // bit-identical at any value; the resolved choice appears as the
  // simd.dispatch info metric in the JSON run report.
  if (args.Has("simd")) {
    const std::string simd = args.GetString("simd");
    dd::simd::SimdMode mode;
    if (!dd::simd::ParseSimdMode(simd, &mode)) {
      return Fail(dd::Status::InvalidArgument(
          "--simd must be auto, avx2 or scalar (got \"" + simd + "\")"));
    }
    dd::simd::SetSimdMode(mode);
  }
  // Pool-stats recording turns on exactly when the run writes the
  // --trace_json report, whose "parallel" section surfaces it.
  // Recording never perturbs chunking, so results stay bit-identical
  // with the collector on or off.
  if (args.Has("trace_json")) {
    dd::obs::PoolStatsCollector::Global().Enable();
  }
  // --diag_dir arms crash/stall diagnostics for any subcommand: fatal
  // signal handlers, the watchdog, the flight recorder, and SIGUSR2
  // on-demand dumps, all writing .dddump files into the directory.
  if (args.Has("diag_dir")) {
    dd::obs::diag::DiagOptions diag_options;
    diag_options.dir = args.GetString("diag_dir");
    if (diag_options.dir.empty()) {
      return Fail(dd::Status::InvalidArgument("--diag_dir needs a directory"));
    }
    auto stall = args.GetInt("stall_timeout_ms", 30000);
    if (!stall.ok()) return Fail(stall.status());
    if (*stall < 1) {
      return Fail(dd::Status::InvalidArgument("--stall_timeout_ms must be >= 1"));
    }
    diag_options.stall_timeout_ms = static_cast<int>(*stall);
    if (!dd::obs::diag::EnableDiagnostics(diag_options)) {
      return Fail(dd::Status::IoError("cannot enable diagnostics in " +
                                      diag_options.dir));
    }
  }
  // --profile wraps the whole subcommand in a sampling-profiler
  // capture (--profile_hz alone implies it). Sampling reads state; it
  // never perturbs chunking or results — outputs stay bit-identical
  // with profiling on or off.
  const bool profile = args.Has("profile") || args.Has("profile_hz");
  if (profile) {
    auto hz = args.GetInt("profile_hz", 99);
    if (!hz.ok()) return Fail(hz.status());
    dd::obs::prof::ProfilerOptions options;
    options.hz = static_cast<int>(*hz);
    dd::Status started = dd::obs::prof::Profiler::Global().Start(options);
    if (!started.ok()) return Fail(started);
  }
  int rc;
  if (command == "generate") rc = RunGenerate(args);
  else if (command == "determine") rc = RunDetermine(args);
  else if (command == "explain") rc = RunExplain(args);
  else if (command == "detect") rc = RunDetect(args);
  else if (command == "discover") rc = RunDiscover(args);
  else if (command == "append") rc = RunIncremental(args, /*watch=*/false);
  else if (command == "watch") rc = RunIncremental(args, /*watch=*/true);
  else if (command == "serve") rc = RunServe(args);
  else if (command == "diag") rc = RunDiag(args);
  else if (command == "prof") rc = RunProf(args);
  else {
    if (profile) dd::obs::prof::Profiler::Global().Stop();
    return Usage();
  }
  if (profile) {
    const dd::obs::prof::Profile captured =
        dd::obs::prof::Profiler::Global().Stop();
    const std::string prefix =
        args.GetString("profile_out", "ddtool." + command + ".prof");
    const dd::obs::prof::FoldedProfile folded =
        dd::obs::prof::FoldProfile(captured);
    dd::Status written = WriteTextFile(
        dd::obs::prof::FoldedToString(folded), prefix + ".folded");
    if (written.ok()) {
      written = WriteTextFile(
          dd::obs::prof::ProfileSummaryJson(captured) + "\n",
          prefix + ".json");
    }
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr,
                 "profile: %llu samples (%llu dropped) at %d Hz -> "
                 "%s.folded, %s.json\n",
                 static_cast<unsigned long long>(captured.samples),
                 static_cast<unsigned long long>(captured.dropped),
                 captured.hz, prefix.c_str(), prefix.c_str());
  }
  return rc;
}
