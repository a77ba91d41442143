// Tests for the crash/stall diagnostics subsystem (src/obs/diag,
// DESIGN.md §15): flight-recorder semantics, watchdog stall detection
// with all-thread stack capture, crash-dump writing and the offline
// reader, and the overriding contract that enabling diagnostics never
// changes determination results.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/build_info.h"
#include "common/parallel.h"
#include "core/determiner.h"
#include "obs/diag/crash_dump.h"
#include "obs/diag/dump_reader.h"
#include "obs/diag/flight_recorder.h"
#include "obs/diag/sigsafe.h"
#include "obs/diag/stack_capture.h"
#include "obs/diag/watchdog.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DD_UNDER_SANITIZER 1
#endif
#endif
#if !defined(DD_UNDER_SANITIZER) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define DD_UNDER_SANITIZER 1
#endif

namespace dd::obs::diag {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A unique scratch directory per test; removed on destruction so crash
// stubs and stall dumps never leak between tests.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("dd_diag_" + std::string(tag) + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::vector<std::string> Files(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(path_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0) out.push_back(entry.path().string());
    }
    return out;
  }

 private:
  std::filesystem::path path_;
};

// ---------------------------------------------------------------------------
// Async-signal-safe formatting primitives.

TEST(SigsafeTest, DecimalHexAndSignedFormatting) {
  std::string out;
  StringSink sink(&out);
  SinkDec(sink, 0);
  SinkChar(sink, ' ');
  SinkDec(sink, 18446744073709551615ULL);
  SinkChar(sink, ' ');
  SinkSignedDec(sink, -42);
  SinkChar(sink, ' ');
  SinkSignedDec(sink, INT64_MIN);
  SinkChar(sink, ' ');
  SinkHex(sink, 0xdeadbeefULL);
  EXPECT_EQ(out,
            "0 18446744073709551615 -42 -9223372036854775808 0xdeadbeef");
}

TEST(SigsafeTest, ClockAndRssAreLive) {
  const std::uint64_t t0 = SigsafeNowNs();
  const std::uint64_t t1 = SigsafeNowNs();
  EXPECT_GE(t1, t0);
  EXPECT_GT(SigsafeRssKb(), 0u);
  EXPECT_GT(SigsafeTid(), 0);
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  FlightRecorder::Disable();
  FlightRecorder::ResetForTest();
  EXPECT_FALSE(FlightRecorderEnabled());
  FlightRecord(EventType::kCustom, "ignored", 1, 2);
  EXPECT_EQ(FlightRecorder::TotalRecorded(), 0u);
}

TEST(FlightRecorderTest, RecordsEventsInOrderWithArgs) {
  FlightRecorder::Enable(64);
  FlightRecorder::ResetForTest();
  FlightRecord(EventType::kBatch, "batch", 7, 3);
  FlightRecord(EventType::kDetermined, "determine", 5, 0);
  FlightRecord(EventType::kCustom, "a-very-long-event-name", 1, 2);

  bool found = false;
  for (const auto& thread : FlightRecorder::Snapshot()) {
    if (thread.events.size() < 3) continue;
    const std::size_t n = thread.events.size();
    const FlightEvent& batch = thread.events[n - 3];
    const FlightEvent& det = thread.events[n - 2];
    const FlightEvent& custom = thread.events[n - 1];
    if (batch.type != EventType::kBatch) continue;
    found = true;
    EXPECT_STREQ(batch.name, "batch");
    EXPECT_EQ(batch.arg0, 7u);
    EXPECT_EQ(batch.arg1, 3u);
    EXPECT_EQ(det.type, EventType::kDetermined);
    EXPECT_LE(batch.t_ns, det.t_ns);
    EXPECT_LT(batch.seq, det.seq);
    // Names truncate to 15 chars + NUL instead of overflowing.
    EXPECT_STREQ(custom.name, "a-very-long-eve");
  }
  EXPECT_TRUE(found);
  FlightRecorder::Disable();
}

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsNewest) {
  FlightRecorder::Disable();
  FlightRecorder::Enable(16);
  FlightRecorder::ResetForTest();
  // This thread's ring may have been created earlier with a bigger
  // capacity; record from a fresh thread so capacity=16 applies.
  std::thread recorder([] {
    for (std::uint64_t i = 0; i < 40; ++i) {
      FlightRecord(EventType::kCustom, "spin", i, 0);
    }
  });
  recorder.join();

  bool found = false;
  for (const auto& thread : FlightRecorder::Snapshot()) {
    if (thread.recorded != 40) continue;
    found = true;
    EXPECT_LE(thread.events.size(), 16u);
    ASSERT_FALSE(thread.events.empty());
    EXPECT_EQ(thread.events.back().arg0, 39u);  // Newest survives.
    EXPECT_GE(thread.events.front().arg0, 24u);  // Oldest overwritten.
    for (std::size_t i = 1; i < thread.events.size(); ++i) {
      EXPECT_EQ(thread.events[i].seq, thread.events[i - 1].seq + 1);
    }
  }
  EXPECT_TRUE(found);
  FlightRecorder::Disable();
}

// One thread records while another snapshots in a loop: every copied
// event must be whole (its payload matches its sequence number).
TEST(FlightRecorderTest, SnapshotWhileRecordingNeverTorn) {
  FlightRecorder::Disable();
  FlightRecorder::Enable(16);
  FlightRecorder::ResetForTest();
  constexpr std::uint64_t kEvents = 100000;
  std::atomic<int> recorder_tid{0};
  std::atomic<bool> done{false};
  std::thread recorder([&] {
    recorder_tid.store(SigsafeTid());
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      FlightRecord(EventType::kCustom, "torn", i, ~i);
    }
    done.store(true);
  });
  std::uint64_t checked = 0;
  bool whole = true;
  bool finished = false;
  do {  // At least one snapshot after the recorder finished.
    finished = done.load();
    for (const auto& thread : FlightRecorder::Snapshot()) {
      if (thread.tid != recorder_tid.load()) continue;
      for (std::size_t i = 0; i < thread.events.size(); ++i) {
        const FlightEvent& ev = thread.events[i];
        if (std::string(ev.name) != "torn") continue;
        ++checked;
        whole = whole && ev.type == EventType::kCustom &&
                ev.arg1 == ~ev.arg0 &&
                ev.seq - ev.arg0 == thread.events.front().seq -
                                        thread.events.front().arg0 &&
                (i == 0 || ev.seq > thread.events[i - 1].seq);
      }
    }
  } while (!finished);
  recorder.join();
  FlightRecorder::Disable();
  EXPECT_TRUE(whole);
  EXPECT_GT(checked, 0u);
}

TEST(FlightRecorderTest, EventTypeNamesRoundTrip) {
  for (EventType type :
       {EventType::kSpanBegin, EventType::kSpanEnd, EventType::kBatch,
        EventType::kDetermined, EventType::kApproxRound, EventType::kHeartbeat,
        EventType::kServe, EventType::kStall, EventType::kCustom}) {
    EXPECT_EQ(EventTypeFromName(EventTypeName(type)), type);
  }
  EXPECT_EQ(EventTypeFromName("no-such-type"), EventType::kNone);
}

// ---------------------------------------------------------------------------
// Heartbeats.

TEST(HeartbeatTest, ArmNestsAndBeatClearsStallFlag) {
  Heartbeat* hb = RegisterHeartbeat("test.nesting");
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(RegisterHeartbeat("test.nesting"), hb);  // Find, not create.
  EXPECT_EQ(hb->armed.load(), 0);
  {
    ScopedHeartbeat outer(hb);
    EXPECT_EQ(hb->armed.load(), 1);
    {
      ScopedHeartbeat inner(hb);
      EXPECT_EQ(hb->armed.load(), 2);
    }
    EXPECT_EQ(hb->armed.load(), 1);
    hb->in_stall.store(true);
    outer.Beat();
    EXPECT_FALSE(hb->in_stall.load());  // A beat ends the episode.
  }
  EXPECT_EQ(hb->armed.load(), 0);
}

// ---------------------------------------------------------------------------
// Stack capture.

TEST(StackCaptureTest, CapturesEveryRunningThread) {
  InitStackCapture();
  std::atomic<bool> stop{false};
  std::thread busy([&] {
    while (!stop.load()) std::this_thread::yield();
  });

  static ThreadStack stacks[kMaxCapturedThreads];
  const std::size_t n = CaptureAllThreadStacks(stacks, /*deadline_ms=*/2000);
  stop.store(true);
  busy.join();

  EXPECT_GE(n, 2u);  // At least this thread and the busy thread.
  const int self = SigsafeTid();
  bool saw_self = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (stacks[i].tid == self) {
      saw_self = true;
      EXPECT_TRUE(stacks[i].complete);
      EXPECT_GT(stacks[i].frame_count, 0u);
    }
  }
  EXPECT_TRUE(saw_self);
}

// ---------------------------------------------------------------------------
// Crash dumps + reader round trip.

TEST(CrashDumpTest, TestHookWritesParsableDump) {
  ScratchDir dir("crash");
  DiagOptions options;
  options.dir = dir.str();
  options.start_watchdog = false;
  options.install_signal_handlers = false;
  ASSERT_TRUE(EnableDiagnostics(options));
  MetricsRegistry::Global().GetCounter("diag.test_counter").Add(3);
  RefreshPreamble();
  FlightRecord(EventType::kCustom, "pre-crash", 11, 22);
  internal::WriteCrashDumpForTest(SIGSEGV);

  const auto files = dir.Files("crash.");
  ASSERT_EQ(files.size(), 1u);
  const std::string text = ReadFileOrEmpty(files[0]);
  ASSERT_FALSE(text.empty());

  DiagDump dump;
  std::string error;
  ASSERT_TRUE(ParseDiagDump(text, &dump, &error)) << error;
  EXPECT_TRUE(dump.complete);
  EXPECT_EQ(dump.reason, "crash");
  EXPECT_EQ(dump.signal, SIGSEGV);
  EXPECT_EQ(dump.pid, static_cast<std::uint64_t>(::getpid()));
  EXPECT_GT(dump.TotalFrames(), 0u);
  EXPECT_FALSE(dump.modules.empty());
  // The metrics section is the run report's JSON rendering of the
  // registry, written whole.
  EXPECT_TRUE(testutil::JsonChecker(dump.metrics_text).Valid())
      << dump.metrics_text;
  EXPECT_NE(dump.metrics_text.find("\"diag.test_counter\":3"),
            std::string::npos)
      << dump.metrics_text;
  bool saw_event = false;
  for (const auto& ev : dump.flight_events) {
    if (ev.name == "pre-crash" && ev.arg0 == 11 && ev.arg1 == 22) {
      saw_event = true;
    }
  }
  EXPECT_TRUE(saw_event);
  bool saw_pool_heartbeat = false;
  for (const auto& hb : dump.heartbeats) {
    if (hb.name == "pool.chunk") saw_pool_heartbeat = true;
  }
  EXPECT_TRUE(saw_pool_heartbeat);

  SymbolizeDump(&dump);
  const std::string pretty = DiagDumpToText(dump);
  EXPECT_NE(pretty.find("reason=crash"), std::string::npos);
  EXPECT_NE(pretty.find("status: complete"), std::string::npos);
  const std::string json = DiagDumpToJson(dump);
  EXPECT_NE(json.find("\"reason\":\"crash\""), std::string::npos);

  DisableDiagnostics();
}

TEST(CrashDumpTest, RealFatalSignalInForkedChild) {
#ifdef DD_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizers install their own fatal-signal handlers";
#else
  ScratchDir dir("fork");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: arm diagnostics (no watchdog thread — forked
    // children must stay single-threaded) and die for real.
    DiagOptions options;
    options.dir = dir.str();
    options.start_watchdog = false;
    EnableDiagnostics(options);
    FlightRecord(EventType::kCustom, "child-event", 1, 0);
    ::raise(SIGSEGV);
    ::_exit(97);  // Unreachable: the handler re-raises.
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const auto files = dir.Files("crash.");
  ASSERT_EQ(files.size(), 1u);
  DiagDump dump;
  std::string error;
  ASSERT_TRUE(ParseDiagDump(ReadFileOrEmpty(files[0]), &dump, &error))
      << error;
  EXPECT_TRUE(dump.complete);
  EXPECT_EQ(dump.signal, SIGSEGV);
  EXPECT_EQ(dump.pid, static_cast<std::uint64_t>(child));
  EXPECT_GT(dump.TotalFrames(), 0u);
  bool saw_event = false;
  for (const auto& ev : dump.flight_events) {
    if (ev.name == "child-event") saw_event = true;
  }
  EXPECT_TRUE(saw_event);
#endif
}

TEST(CrashDumpTest, CleanDisableRemovesEmptyCrashStub) {
  ScratchDir dir("stub");
  DiagOptions options;
  options.dir = dir.str();
  options.start_watchdog = false;
  options.install_signal_handlers = false;
  ASSERT_TRUE(EnableDiagnostics(options));
  ASSERT_EQ(dir.Files("crash.").size(), 1u);  // Pre-opened stub.
  DisableDiagnostics();
  EXPECT_TRUE(dir.Files("crash.").empty());
}

TEST(LiveDumpTest, CaptureCarriesAllThreadStacks) {
  ScratchDir dir("live");
  DiagOptions options;
  options.dir = dir.str();
  options.start_watchdog = false;
  options.install_signal_handlers = false;
  ASSERT_TRUE(EnableDiagnostics(options));

  std::atomic<bool> stop{false};
  std::thread busy([&] {
    while (!stop.load()) std::this_thread::yield();
  });
  const std::string text = CaptureLiveDump("live");
  stop.store(true);
  busy.join();

  DiagDump dump;
  std::string error;
  ASSERT_TRUE(ParseDiagDump(text, &dump, &error)) << error;
  EXPECT_TRUE(dump.complete);
  EXPECT_EQ(dump.reason, "live");
  EXPECT_GE(dump.backtraces.size(), 2u);  // Main + busy thread.
  EXPECT_GT(dump.TotalFrames(), 0u);
  DisableDiagnostics();
}

TEST(DumpReaderTest, RejectsTextWithoutMagic) {
  DiagDump dump;
  std::string error;
  EXPECT_FALSE(ParseDiagDump("not a dump\n", &dump, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseDiagDump("DDDIAG 99\n", &dump, &error));
}

TEST(DumpReaderTest, TruncatedDumpParsesButIsIncomplete) {
  ScratchDir dir("trunc");
  DiagOptions options;
  options.dir = dir.str();
  options.start_watchdog = false;
  options.install_signal_handlers = false;
  ASSERT_TRUE(EnableDiagnostics(options));
  std::string text = CaptureLiveDump("live");
  DisableDiagnostics();

  // Chop mid-file, as a crash during dump writing would: everything
  // already written must still parse, flagged incomplete.
  const std::size_t cut = text.find("--- modules");
  ASSERT_NE(cut, std::string::npos);
  text.resize(cut);
  DiagDump dump;
  std::string error;
  ASSERT_TRUE(ParseDiagDump(text, &dump, &error)) << error;
  EXPECT_FALSE(dump.complete);
  EXPECT_NE(DiagDumpToText(dump).find("TRUNCATED"), std::string::npos);
}

// A section header the reader does not know (one a newer writer added,
// or the `--- ftdc` section older writers emitted) must not be parsed
// as the section before it.
TEST(DumpReaderTest, UnknownSectionsAreSkipped) {
  const std::string metrics = "{\"counters\":{\"serve.rows\":3}}";
  const std::string text =
      "DDDIAG 1\n"
      "reason: live\n"
      "--- heartbeats\n"
      "feed.loop armed=0 beats=3 age_ns=10 in_stall=0\n"
      "--- future_section\n"
      "five or more plain tokens here\n"
      "--- metrics\n" +
      metrics +
      "\n"
      "--- ftdc\n"
      "{\"type\":\"full\",\"seq\":1,\"counters\":{\"serve.rows\":3}}\n"
      "--- end\n";
  DiagDump dump;
  std::string error;
  ASSERT_TRUE(ParseDiagDump(text, &dump, &error)) << error;
  ASSERT_EQ(dump.heartbeats.size(), 1u);
  EXPECT_EQ(dump.heartbeats[0].name, "feed.loop");
  EXPECT_EQ(dump.heartbeats[0].beats, 3u);
  EXPECT_EQ(dump.metrics_text, metrics + "\n");
  EXPECT_TRUE(dump.complete);
}

// ---------------------------------------------------------------------------
// Watchdog stall detection.

TEST(WatchdogTest, DetectsInjectedTwoSecondStallWithAllThreadStacks) {
  ScratchDir dir("stall");
  DiagOptions options;
  options.dir = dir.str();
  options.install_signal_handlers = false;
  options.watchdog_interval_ms = 100;
  options.stall_timeout_ms = 2000;
  ASSERT_TRUE(EnableDiagnostics(options));
  ASSERT_TRUE(Watchdog::Running());
  const std::uint64_t stalls_before = Watchdog::StallsDetected();

  Heartbeat* hb = RegisterHeartbeat("test.stall");
  {
    // Armed, then silent past the timeout: the injected stall.
    ScopedHeartbeat armed(hb);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(8);
    while (Watchdog::StallsDetected() == stalls_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_GT(Watchdog::StallsDetected(), stalls_before);

  const auto files = dir.Files("stall.");
  ASSERT_FALSE(files.empty());
  DiagDump dump;
  std::string error;
  ASSERT_TRUE(ParseDiagDump(ReadFileOrEmpty(files[0]), &dump, &error))
      << error;
  EXPECT_TRUE(dump.complete);
  EXPECT_EQ(dump.reason, "stall");
  // All-thread capture: at least the test thread and the watchdog.
  EXPECT_GE(dump.backtraces.size(), 2u);
  EXPECT_GT(dump.TotalFrames(), 0u);
  bool saw_stalled = false;
  for (const auto& line : dump.heartbeats) {
    if (line.name == "test.stall") {
      saw_stalled = true;
      EXPECT_GE(line.armed, 1);
    }
  }
  EXPECT_TRUE(saw_stalled);
  // One dump per silent episode, not one per tick: the stall lasted
  // many intervals but must not have produced a dump flood.
  EXPECT_LE(dir.Files("stall.").size(), 2u);
  DisableDiagnostics();
}

TEST(WatchdogTest, OnDemandDumpRequestIsServicedByNextTick) {
  ScratchDir dir("ondemand");
  DiagOptions options;
  options.dir = dir.str();
  options.install_signal_handlers = false;
  options.watchdog_interval_ms = 50;
  ASSERT_TRUE(EnableDiagnostics(options));
  RequestOnDemandDump();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (dir.Files("ondemand.").empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto files = dir.Files("ondemand.");
  ASSERT_FALSE(files.empty());
  DiagDump dump;
  std::string error;
  ASSERT_TRUE(ParseDiagDump(ReadFileOrEmpty(files[0]), &dump, &error))
      << error;
  EXPECT_EQ(dump.reason, "on_demand");
  EXPECT_TRUE(dump.complete);
  DisableDiagnostics();
}

// ---------------------------------------------------------------------------
// The overriding contract: diagnostics never change results.

TEST(DiagDeterminismTest, ResultsIdenticalWithDiagnosticsOnAndOff) {
  MatchingRelation m = testutil::RandomMatching(3, 6, 400, 4242);
  RuleSpec rule{{"a0", "a1"}, {"a2"}};
  DetermineOptions opts;
  opts.top_l = 3;

  const std::size_t hw = DefaultThreads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              hw}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SetDefaultThreads(threads);

    auto plain = DetermineThresholds(m, rule, opts);
    ASSERT_TRUE(plain.ok()) << plain.status();

    ScratchDir dir("determinism");
    DiagOptions diag;
    diag.dir = dir.str();
    diag.install_signal_handlers = false;
    diag.watchdog_interval_ms = 20;  // Aggressive ticking on purpose.
    ASSERT_TRUE(EnableDiagnostics(diag));
    auto instrumented = DetermineThresholds(m, rule, opts);
    DisableDiagnostics();
    ASSERT_TRUE(instrumented.ok()) << instrumented.status();

    ASSERT_EQ(plain->patterns.size(), instrumented->patterns.size());
    for (std::size_t p = 0; p < plain->patterns.size(); ++p) {
      EXPECT_EQ(plain->patterns[p].pattern, instrumented->patterns[p].pattern);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(plain->patterns[p].utility, instrumented->patterns[p].utility);
      EXPECT_EQ(plain->patterns[p].measures.support,
                instrumented->patterns[p].measures.support);
      EXPECT_EQ(plain->patterns[p].measures.confidence,
                instrumented->patterns[p].measures.confidence);
    }
  }
  SetDefaultThreads(0);
}

// ---------------------------------------------------------------------------
// Satellites: build info, log-level parsing, percentile edges.

TEST(BuildInfoTest, FieldsArePopulated) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_NE(std::string(info.version), "");
  EXPECT_NE(std::string(info.git_hash), "");
  EXPECT_NE(std::string(info.compiler), "");
  const std::string summary = BuildInfoSummary();
  EXPECT_NE(summary.find("ddtool"), std::string::npos);
  EXPECT_NE(summary.find(info.git_hash), std::string::npos);
}

TEST(LogLevelTest, ParseRejectsEmptyGarbageAndOutOfRange) {
  LogLevel level = LogLevel::kWarn;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("   ", &level));
  EXPECT_FALSE(ParseLogLevel("garbage", &level));
  EXPECT_FALSE(ParseLogLevel("infoo", &level));
  EXPECT_FALSE(ParseLogLevel("-1", &level));
  EXPECT_FALSE(ParseLogLevel("5", &level));
  EXPECT_FALSE(ParseLogLevel("99", &level));
  EXPECT_FALSE(ParseLogLevel("1.5", &level));
  EXPECT_EQ(level, LogLevel::kWarn);  // Failed parses leave it untouched.
}

TEST(LogLevelTest, ParseToleratesSurroundingWhitespace) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(ParseLogLevel("info ", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("  WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("\terror\n", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel(" 0 ", &level));
  EXPECT_EQ(level, LogLevel::kVerbose);
}

TEST(PercentileTest, EmptyHistogramHasNoPercentile) {
  MetricsSnapshot::HistogramValue hist;
  hist.bounds = {1.0, 2.0};
  hist.buckets = {0, 0, 0};
  hist.count = 0;
  EXPECT_TRUE(std::isnan(HistogramPercentile(hist, 0.0)));
  EXPECT_TRUE(std::isnan(HistogramPercentile(hist, 0.5)));
  EXPECT_TRUE(std::isnan(HistogramPercentile(hist, 1.0)));
}

TEST(PercentileTest, ZeroAndHundredPercentileBounds) {
  MetricsSnapshot::HistogramValue hist;
  hist.bounds = {1.0, 2.0, 4.0};
  hist.buckets = {2, 2, 0, 0};
  hist.count = 4;
  hist.sum = 3.0;
  const double p0 = HistogramPercentile(hist, 0.0);
  const double p100 = HistogramPercentile(hist, 1.0);
  EXPECT_GE(p0, 0.0);
  EXPECT_LE(p0, 1.0);  // Rank 0 lands in the first bucket.
  EXPECT_EQ(p100, 2.0);  // Max rank lands at the last occupied bound.
  EXPECT_LE(p0, p100);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_EQ(HistogramPercentile(hist, -3.0), p0);
  EXPECT_EQ(HistogramPercentile(hist, 7.0), p100);
}

TEST(PercentileTest, SingleBucketReturnsItsBoundExactly) {
  MetricsSnapshot::HistogramValue hist;
  hist.bounds = {1.0, 8.0};
  hist.buckets = {0, 5, 0};
  hist.count = 5;
  EXPECT_EQ(HistogramPercentile(hist, 0.0), 8.0);
  EXPECT_EQ(HistogramPercentile(hist, 1.0), 8.0);
  // All observations in the overflow bucket clamp to the last bound.
  MetricsSnapshot::HistogramValue overflow;
  overflow.bounds = {1.0, 8.0};
  overflow.buckets = {0, 0, 3};
  overflow.count = 3;
  EXPECT_EQ(HistogramPercentile(overflow, 1.0), 8.0);
}

}  // namespace
}  // namespace dd::obs::diag
