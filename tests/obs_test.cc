// Tests for the observability layer (src/obs): metrics registry under
// concurrent ParallelFor workers, nested span accounting, histogram
// bucket semantics and percentiles, log-level filtering, and the JSON
// exporters.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using obs::LogLevel;
using obs::MetricsRegistry;
using obs::TraceSnapshot;
using obs::TraceSpan;
using obs::Tracer;

// --------------------------------------------------------------------
// Metrics

TEST(MetricsTest, CounterHandleIsStableAndAccumulates) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter& c = registry.GetCounter("test.counter_stable");
  c.Reset();
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same metric.
  EXPECT_EQ(&registry.GetCounter("test.counter_stable"), &c);
}

TEST(MetricsTest, ConcurrentCounterIncrementsFromParallelWorkers) {
  obs::Counter& c =
      MetricsRegistry::Global().GetCounter("test.counter_concurrent");
  c.Reset();
  const std::size_t kItems = 100000;
  ParallelFor(kItems, 8,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) c.Increment();
              });
  EXPECT_EQ(c.value(), kItems);
}

TEST(MetricsTest, GaugeSetAndReset) {
  obs::Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram hist({1.0, 10.0, 100.0});
  hist.Observe(0.5);    // <= 1       -> bucket 0
  hist.Observe(1.0);    // <= 1       -> bucket 0 (boundary is inclusive)
  hist.Observe(1.001);  // <= 10      -> bucket 1
  hist.Observe(100.0);  // <= 100     -> bucket 2
  hist.Observe(100.5);  // overflow   -> bucket 3
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 1.001 + 100.0 + 100.5);
}

TEST(MetricsTest, ConcurrentHistogramObservations) {
  obs::Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "test.histogram_concurrent", {10.0, 100.0});
  hist.Reset();
  const std::size_t kItems = 50000;
  ParallelFor(kItems, 4,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  hist.Observe(static_cast<double>(i % 200));
                }
              });
  EXPECT_EQ(hist.count(), kItems);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < hist.bounds().size() + 1; ++b) {
    bucket_total += hist.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, kItems);
}

TEST(MetricsTest, SnapshotIsSortedAndCarriesOverflowBucket) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.snap_b").Reset();
  registry.GetCounter("test.snap_a").Add(7);
  registry.GetHistogram("test.snap_hist", {1.0}).Observe(5.0);
  obs::MetricsSnapshot snap = registry.Snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "test.snap_hist") continue;
    found = true;
    ASSERT_EQ(h.buckets.size(), h.bounds.size() + 1);
    EXPECT_GE(h.buckets.back(), 1u);  // 5.0 overflowed the sole bound.
  }
  EXPECT_TRUE(found);
}

// --------------------------------------------------------------------
// Histogram percentiles

TEST(HistogramPercentile, InterpolatesWithinBucket) {
  obs::MetricsSnapshot::HistogramValue hist;
  hist.bounds = {10.0, 20.0};
  hist.buckets = {10, 10, 0};
  hist.count = 20;
  // Rank 10 is exactly the end of the first bucket.
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.5), 10.0);
  // Rank 15 is halfway through the second bucket (10, 20].
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 1.0), 20.0);
}

TEST(HistogramPercentile, OverflowClampsToLastBound) {
  obs::MetricsSnapshot::HistogramValue hist;
  hist.bounds = {10.0};
  hist.buckets = {1, 9};  // 9 observations above the last bound.
  hist.count = 10;
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.99), 10.0);
}

TEST(HistogramPercentile, EmptyHistogramIsNaN) {
  obs::MetricsSnapshot::HistogramValue hist;
  EXPECT_TRUE(std::isnan(obs::HistogramPercentile(hist, 0.5)));
  hist.bounds = {10.0, 20.0};
  hist.buckets = {0, 0, 0};
  hist.count = 0;
  EXPECT_TRUE(std::isnan(obs::HistogramPercentile(hist, 0.5)));
}

TEST(HistogramPercentile, SingleBucketReturnsExactBound) {
  obs::MetricsSnapshot::HistogramValue hist;
  hist.bounds = {10.0, 20.0, 30.0};
  hist.buckets = {0, 7, 0, 0};
  hist.count = 7;
  // All observations share bucket (10, 20]: every percentile is its
  // upper bound, with no interpolated spread.
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.01), 20.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.99), 20.0);
}

TEST(HistogramPercentile, SingleOverflowBucketClampsToLastBound) {
  obs::MetricsSnapshot::HistogramValue hist;
  hist.bounds = {10.0};
  hist.buckets = {0, 5};  // Only the overflow bucket is populated.
  hist.count = 5;
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(hist, 0.5), 10.0);
}

// --------------------------------------------------------------------
// Tracing

TEST(TraceTest, NestedSpanTimingIsMonotonic) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  {
    TraceSpan outer("outer_phase");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TraceSpan inner("inner_phase");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  TraceSnapshot snap = tracer.Snapshot();
  const obs::SpanStats* outer = snap.Find("outer_phase");
  const obs::SpanStats* inner = snap.Find("inner_phase");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 1u);
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0].name, "inner_phase");
  // Child time is contained in the parent's total; self = total - child.
  EXPECT_GT(inner->total_seconds, 0.0);
  EXPECT_LE(inner->total_seconds, outer->total_seconds);
  EXPECT_GE(outer->self_seconds, 0.0);
  EXPECT_NEAR(outer->self_seconds,
              outer->total_seconds - inner->total_seconds, 1e-9);
  EXPECT_NEAR(snap.TotalSeconds(), outer->total_seconds, 1e-9);
}

TEST(TraceTest, RepeatedSpansAggregateIntoOneNode) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("repeated_phase");
  }
  TraceSnapshot snap = tracer.Snapshot();
  ASSERT_EQ(snap.roots.size(), 1u);
  EXPECT_EQ(snap.roots[0].name, "repeated_phase");
  EXPECT_EQ(snap.roots[0].count, 10u);
}

TEST(TraceTest, WorkerThreadSpansBecomeRoots) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  const std::size_t kItems = 64;
  ParallelFor(kItems, 4,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  TraceSpan span("worker_span");
                }
              });
  TraceSnapshot snap = tracer.Snapshot();
  const obs::SpanStats* worker = snap.Find("worker_span");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->count, kItems);
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  tracer.set_enabled(false);
  {
    TraceSpan span("invisible");
  }
  tracer.set_enabled(true);
  EXPECT_EQ(tracer.Snapshot().Find("invisible"), nullptr);
}

TEST(TraceTest, ResetClearsRecordedSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  {
    TraceSpan span("to_be_cleared");
  }
  ASSERT_NE(tracer.Snapshot().Find("to_be_cleared"), nullptr);
  tracer.Reset();
  EXPECT_EQ(tracer.Snapshot().Find("to_be_cleared"), nullptr);
  // New spans after a reset land in the fresh tree.
  {
    TraceSpan span("after_reset");
  }
  EXPECT_NE(tracer.Snapshot().Find("after_reset"), nullptr);
}

// --------------------------------------------------------------------
// Logging

std::vector<std::string>* g_captured_logs = nullptr;

void CaptureSink(LogLevel level, const char* /*file*/, int /*line*/,
                 const std::string& message) {
  if (g_captured_logs != nullptr) {
    g_captured_logs->push_back(std::string(obs::LogLevelName(level)) + "] " +
                               message);
  }
}

class LogCapture {
 public:
  LogCapture() {
    g_captured_logs = &lines_;
    obs::SetLogSink(&CaptureSink);
  }
  ~LogCapture() {
    obs::SetLogSink(nullptr);
    g_captured_logs = nullptr;
    obs::ReloadLogLevelFromEnv();
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

TEST(LogTest, ThresholdFiltersBySeverity) {
  LogCapture capture;
  obs::SetLogLevel(LogLevel::kWarn);
  DD_LOG(INFO) << "info suppressed";
  DD_LOG(WARN) << "warn passes " << 1;
  DD_LOG(ERROR) << "error passes " << 2;
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_EQ(capture.lines()[0], "W] warn passes 1");
  EXPECT_EQ(capture.lines()[1], "E] error passes 2");
}

TEST(LogTest, SuppressedStatementsDoNotEvaluateOperands) {
  LogCapture capture;
  obs::SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto count_call = [&evaluations]() {
    ++evaluations;
    return 0;
  };
  DD_LOG(INFO) << "never " << count_call();
  DD_LOG(WARN) << "never " << count_call();
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(capture.lines().empty());
}

TEST(LogTest, EnvironmentVariableControlsThreshold) {
  LogCapture capture;
  ASSERT_EQ(setenv("DD_LOG_LEVEL", "info", /*overwrite=*/1), 0);
  obs::ReloadLogLevelFromEnv();
  EXPECT_EQ(obs::GetLogLevel(), LogLevel::kInfo);
  DD_LOG(INFO) << "visible at info";
  ASSERT_EQ(capture.lines().size(), 1u);

  ASSERT_EQ(setenv("DD_LOG_LEVEL", "off", /*overwrite=*/1), 0);
  obs::ReloadLogLevelFromEnv();
  DD_LOG(ERROR) << "swallowed at off";
  EXPECT_EQ(capture.lines().size(), 1u);

  // Unset restores the default (warn).
  ASSERT_EQ(unsetenv("DD_LOG_LEVEL"), 0);
  obs::ReloadLogLevelFromEnv();
  EXPECT_EQ(obs::GetLogLevel(), LogLevel::kWarn);
}

TEST(LogTest, ParseLogLevelAcceptsNamesAndIntegers) {
  LogLevel level;
  EXPECT_TRUE(obs::ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kVerbose);
  EXPECT_TRUE(obs::ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(obs::ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(obs::ParseLogLevel("chatty", &level));
}

TEST(LogTest, VlogCompilesOutWithoutEvaluatingOperands) {
#ifndef DD_ENABLE_VLOG
  LogCapture capture;
  obs::SetLogLevel(LogLevel::kVerbose);
  int evaluations = 0;
  auto count_call = [&evaluations]() {
    ++evaluations;
    return 0;
  };
  DD_VLOG(1) << "compiled out " << count_call();
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(capture.lines().empty());
#endif
}

// --------------------------------------------------------------------
// Reports

obs::RunReport MakeSampleReport() {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  {
    TraceSpan outer("report_outer");
    TraceSpan inner("report_inner");
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("report.counter").Add(3);
  registry.GetGauge("report.gauge").Set(0.25);
  registry.GetHistogram("report.hist \"quoted\"", {1.0, 2.0}).Observe(1.5);
  return obs::CaptureRunReport("obs_test run");
}

TEST(ReportTest, RunReportJsonIsWellFormedAndComplete) {
  obs::RunReport report = MakeSampleReport();
  const std::string json = obs::RunReportToJson(report);
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"obs_test run\""), std::string::npos);
  EXPECT_NE(json.find("report_outer"), std::string::npos);
  EXPECT_NE(json.find("report_inner"), std::string::npos);
  EXPECT_NE(json.find("report.counter"), std::string::npos);
  EXPECT_NE(json.find("report.gauge"), std::string::npos);
  // The quote in the histogram name must arrive escaped.
  EXPECT_NE(json.find("report.hist \\\"quoted\\\""), std::string::npos);
  // Capturing a report refreshes the RSS gauges.
  EXPECT_NE(json.find("\"mem.rss_peak_bytes\""), std::string::npos);
#ifdef __linux__
  double rss_peak = 0.0;
  for (const auto& gauge : report.metrics.gauges) {
    if (gauge.name == "mem.rss_peak_bytes") rss_peak = gauge.value;
  }
  EXPECT_GT(rss_peak, 0.0);
#endif
}

// The run_id key joins a report to the run's feed lines; an unset id
// leaves the key out.
TEST(ReportTest, RunIdIsATopLevelKeyWhenSet) {
  obs::RunReport report = MakeSampleReport();
  EXPECT_EQ(obs::RunReportToJson(report).find("\"run_id\""),
            std::string::npos);
  report.run_id = "run \"7\"";
  const std::string json = obs::RunReportToJson(report);
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  EXPECT_EQ(json.rfind(
                "{\"name\":\"obs_test run\",\"run_id\":\"run \\\"7\\\"\",", 0),
            0u)
      << json;
}

TEST(ReportTest, RunReportTextMentionsSpansAndMetrics) {
  obs::RunReport report = MakeSampleReport();
  const std::string text = obs::RunReportToText(report);
  EXPECT_NE(text.find("report_outer"), std::string::npos);
  EXPECT_NE(text.find("report_inner"), std::string::npos);
  EXPECT_NE(text.find("report.counter"), std::string::npos);
}

TEST(ReportTest, WriteRunReportJsonRoundTripsThroughDisk) {
  obs::RunReport report = MakeSampleReport();
  const std::string path = ::testing::TempDir() + "obs_test_report.json";
  ASSERT_TRUE(obs::WriteRunReportJson(report, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(testutil::JsonChecker(contents).Valid()) << contents;
  EXPECT_NE(contents.find("report_outer"), std::string::npos);
}

TEST(ReportTest, WriteRunReportJsonFailsOnBadPath) {
  obs::RunReport report;
  report.name = "doomed";
  EXPECT_FALSE(
      obs::WriteRunReportJson(report, "/nonexistent_dir/sub/out.json").ok());
}

}  // namespace
}  // namespace dd
