// Tests for the telemetry exporters (src/obs/export): Chrome
// trace-event JSON and the FTDC-style delta sampler, plus histogram
// percentiles. Golden strings are built from hand-constructed
// snapshots so the expected output is exact; the sampler tests assert
// the delta encoding is exactly invertible.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/export/chrome_trace.h"
#include "obs/export/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace dd {
namespace {

// --------------------------------------------------------------------
// Sample snapshot shared by the sampler tests

obs::MetricsSnapshot MakeSnapshot() {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"incr.batches", 7});
  snap.counters.push_back({"provider.rows_scanned", 12345});
  snap.gauges.push_back({"incr.drift", 0.25});
  obs::MetricsSnapshot::HistogramValue hist;
  hist.name = "provider.scan_ms";
  hist.bounds = {1.0, 10.0, 100.0};
  hist.buckets = {4, 3, 2, 1};  // Last bucket is overflow.
  hist.count = 10;
  hist.sum = 150.5;
  snap.histograms.push_back(hist);
  return snap;
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
// Chrome trace export

TEST(ChromeTrace, GoldenSingleRoot) {
  obs::TraceSnapshot trace;
  obs::SpanStats child;
  child.name = "search";
  child.count = 2;
  child.total_seconds = 0.001;  // 1000 us.
  child.self_seconds = 0.001;
  obs::SpanStats root;
  root.name = "determine";
  root.count = 1;
  root.total_seconds = 0.0025;  // 2500 us.
  root.self_seconds = 0.0015;
  root.children.push_back(child);
  trace.roots.push_back(root);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"ddthreshold\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"determine\"}},"
      "{\"name\":\"determine\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":0.000,\"dur\":2500.000,"
      "\"args\":{\"count\":1,\"self_ms\":1.500000}},"
      "{\"name\":\"search\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":0.000,\"dur\":1000.000,"
      "\"args\":{\"count\":2,\"self_ms\":1.000000}}"
      "]}";
  EXPECT_EQ(obs::TraceSnapshotToChromeTrace(trace), expected);
}

TEST(ChromeTrace, SiblingsLaidOutBackToBack) {
  obs::TraceSnapshot trace;
  obs::SpanStats a, b, root;
  a.name = "a";
  a.total_seconds = 0.001;
  b.name = "b";
  b.total_seconds = 0.002;
  root.name = "root";
  root.total_seconds = 0.004;
  root.children = {a, b};
  trace.roots.push_back(root);

  const std::string json = obs::TraceSnapshotToChromeTrace(trace);
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  // b starts where a ends (1000 us into the parent interval).
  EXPECT_NE(json.find("\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":1000.000,\"dur\":2000.000"),
            std::string::npos)
      << json;
}

TEST(ChromeTrace, RealTracerSnapshotIsValidJson) {
  obs::Tracer::Global().Reset();
  obs::Tracer::Global().set_enabled(true);
  {
    obs::TraceSpan outer("export_outer");
    obs::TraceSpan inner("export_inner \"quoted\"");
  }
  // Worker spans become separate roots / tracks.
  ParallelFor(16, 4, [](std::size_t, std::size_t, std::size_t) {
    obs::TraceSpan span("export_worker");
  });
  const std::string json =
      obs::TraceSnapshotToChromeTrace(obs::Tracer::Global().Snapshot());
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("export_outer"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  obs::Tracer::Global().Reset();
}

TEST(ChromeTrace, WriteToFile) {
  obs::TraceSnapshot trace;
  obs::SpanStats root;
  root.name = "write_test";
  root.total_seconds = 0.001;
  trace.roots.push_back(root);
  const std::string path = ::testing::TempDir() + "/chrome_trace_test.json";
  ASSERT_TRUE(obs::WriteChromeTrace(trace, path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_TRUE(testutil::JsonChecker(contents).Valid()) << contents;
  EXPECT_NE(contents.find("write_test"), std::string::npos);
}

// --------------------------------------------------------------------
// FTDC-style sampler

TEST(Sampler, FlattenSnapshotIsCanonical) {
  const obs::SampleView view = obs::FlattenSnapshot(MakeSnapshot());
  // 2 counters + 4 buckets + 1 histogram count.
  ASSERT_EQ(view.counters.size(), 7u);
  // 1 gauge + 1 histogram sum.
  ASSERT_EQ(view.gauges.size(), 2u);
  for (std::size_t i = 1; i < view.counters.size(); ++i) {
    EXPECT_LT(view.counters[i - 1].first, view.counters[i].first);
  }
  for (std::size_t i = 1; i < view.gauges.size(); ++i) {
    EXPECT_LT(view.gauges[i - 1].first, view.gauges[i].first);
  }
}

TEST(Sampler, DeltaFramesReconstructExactly) {
  obs::SamplerOptions options;
  options.period_ms = 1000000;  // Tick manually.
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("export_test.sampled");
  obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("export_test.sampled_gauge");
  counter.Increment();
  (*sampler)->SampleOnce();  // Full (new schema).
  counter.Increment();
  gauge.Set(1.5);
  (*sampler)->SampleOnce();  // Delta.
  counter.Increment();
  (*sampler)->SampleOnce();  // Delta.

  const std::vector<obs::SampleFrame> ring = (*sampler)->Ring();
  ASSERT_GE(ring.size(), 3u);
  EXPECT_TRUE(ring.front().full);
  EXPECT_FALSE(ring.back().full);

  auto decoded = obs::DecodeFrames(ring);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const obs::SampleView live =
      obs::FlattenSnapshot(obs::MetricsRegistry::Global().Snapshot());
  ASSERT_EQ(decoded->counters.size(), live.counters.size());
  for (std::size_t i = 0; i < live.counters.size(); ++i) {
    EXPECT_EQ(decoded->counters[i].first, live.counters[i].first);
    EXPECT_EQ(decoded->counters[i].second, live.counters[i].second)
        << live.counters[i].first;
  }
  ASSERT_EQ(decoded->gauges.size(), live.gauges.size());
  for (std::size_t i = 0; i < live.gauges.size(); ++i) {
    EXPECT_EQ(decoded->gauges[i].first, live.gauges[i].first);
    EXPECT_DOUBLE_EQ(decoded->gauges[i].second, live.gauges[i].second)
        << live.gauges[i].first;
  }
  (*sampler)->Stop();
}

TEST(Sampler, DeltaFramesAreSparse) {
  obs::SamplerOptions options;
  options.period_ms = 1000000;
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("export_test.sparse");
  (*sampler)->SampleOnce();  // Full (schema gained the new counter).
  counter.Increment();
  counter.Increment();
  (*sampler)->SampleOnce();  // Delta: only this counter moved.

  const std::vector<obs::SampleFrame> ring = (*sampler)->Ring();
  const obs::SampleFrame& last = ring.back();
  ASSERT_FALSE(last.full);
  ASSERT_EQ(last.counter_deltas.size(), 1u);
  EXPECT_EQ(last.counter_deltas[0].second, 2);
  // Every tick refreshes the process RSS and lifetime gauges
  // (DESIGN.md §13), so a delta frame may legitimately carry mem.rss_*
  // movement when the process footprint shifts between samples and
  // process.* movement as uptime advances; nothing else may appear.
  ASSERT_GE(ring.size(), 2u);
  const obs::SampleFrame& reference = ring[ring.size() - 2];
  ASSERT_TRUE(reference.full);
  for (const auto& [index, value] : last.gauge_values) {
    ASSERT_LT(index, reference.view.gauges.size());
    const std::string& name = reference.view.gauges[index].first;
    EXPECT_TRUE(name.rfind("mem.rss", 0) == 0 ||
                name.rfind("process.", 0) == 0)
        << "unexpected gauge delta: " << name << " = " << value;
  }
  (*sampler)->Stop();
}

TEST(Sampler, SchemaChangeForcesFullFrame) {
  obs::SamplerOptions options;
  options.period_ms = 1000000;
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  (*sampler)->SampleOnce();
  // Registering a brand-new metric changes the flattened schema; the
  // next frame must be a full reference frame, not a delta.
  obs::MetricsRegistry::Global()
      .GetCounter("export_test.schema_change_unique")
      .Increment();
  (*sampler)->SampleOnce();
  EXPECT_TRUE((*sampler)->Ring().back().full);
  (*sampler)->Stop();
}

TEST(Sampler, RingStaysBoundedAndDecodable) {
  obs::SamplerOptions options;
  options.period_ms = 1000000;
  options.ring_capacity = 8;
  options.full_every = 4;
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("export_test.ring");
  for (int i = 0; i < 50; ++i) {
    counter.Increment();
    (*sampler)->SampleOnce();
  }
  const std::vector<obs::SampleFrame> ring = (*sampler)->Ring();
  EXPECT_LE(ring.size(), 8u);
  ASSERT_FALSE(ring.empty());
  EXPECT_TRUE(ring.front().full);
  auto decoded = obs::DecodeFrames(ring);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const obs::SampleView live =
      obs::FlattenSnapshot(obs::MetricsRegistry::Global().Snapshot());
  EXPECT_EQ(decoded->counters, live.counters);
  (*sampler)->Stop();
}

TEST(Sampler, DecodeRejectsLeadingDelta) {
  obs::SampleFrame delta;
  delta.full = false;
  EXPECT_FALSE(obs::DecodeFrames({delta}).ok());
}

TEST(Sampler, JsonlFramesAreValidAndStamped) {
  const std::string path = ::testing::TempDir() + "/sampler_test.jsonl";
  std::remove(path.c_str());
  {
    obs::SamplerOptions options;
    options.period_ms = 1000000;
    options.series_path = path;
    options.run_id = "test-run \"quoted\"";
    auto sampler = obs::MetricsSampler::Start(options);
    ASSERT_TRUE(sampler.ok());
    obs::MetricsRegistry::Global()
        .GetCounter("export_test.jsonl")
        .Increment();
    (*sampler)->SampleOnce();
    (*sampler)->Stop();
  }
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < contents.size()) {
    const std::size_t end = contents.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(contents.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_GE(lines.size(), 2u);  // Initial full frame + manual sample.
  for (const std::string& line : lines) {
    EXPECT_TRUE(testutil::JsonChecker(line).Valid()) << line;
    EXPECT_NE(line.find("\"run_id\":\"test-run \\\"quoted\\\"\""),
              std::string::npos)
        << line;
  }
  EXPECT_NE(lines[0].find("\"type\":\"full\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seq\":0"), std::string::npos);
}

// The TSan target: the sampler thread live while many threads write
// metrics. Run under -fsanitize=thread this exercises every
// reader/writer pairing between the sampler and the registry.
TEST(Sampler, ConcurrentWithWriters) {
  obs::SamplerOptions options;
  options.period_ms = 1;
  auto sampler = obs::MetricsSampler::Start(options);
  ASSERT_TRUE(sampler.ok());

  ParallelFor(8, 8, [](std::size_t chunk, std::size_t, std::size_t) {
    obs::Counter& counter =
        obs::MetricsRegistry::Global().GetCounter("export_test.concurrent");
    obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
        "export_test.concurrent_ms", obs::DefaultLatencyBoundsMs());
    for (int i = 0; i < 2000; ++i) {
      counter.Increment();
      hist.Observe(static_cast<double>((chunk * 7 + i) % 900));
    }
  });
  (*sampler)->Stop();
  auto decoded = obs::DecodeFrames((*sampler)->Ring());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Stop()'s final full frame carries every writer's increments.
  std::uint64_t sampled = 0;
  for (const auto& [name, value] : decoded->counters) {
    if (name == "export_test.concurrent") sampled = value;
  }
  EXPECT_GE(sampled, 8u * 2000u);
  EXPECT_EQ(sampled, obs::MetricsRegistry::Global()
                         .GetCounter("export_test.concurrent")
                         .value());
}

}  // namespace
}  // namespace dd
