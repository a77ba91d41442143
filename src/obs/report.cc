#include "obs/report.h"

#include <cstdio>

#include "common/string_util.h"
#include "obs/prof/profiler.h"
#include "obs/resource.h"

namespace dd::obs {

namespace {

void AppendSpanJson(const SpanStats& span, std::string* out) {
  *out += "{\"name\":\"";
  *out += JsonEscape(span.name);
  *out += "\"";
  *out += StrFormat(",\"count\":%llu",
                    static_cast<unsigned long long>(span.count));
  *out += StrFormat(",\"total_ms\":%.6f", span.total_seconds * 1e3);
  *out += StrFormat(",\"self_ms\":%.6f", span.self_seconds * 1e3);
  *out += ",\"children\":[";
  for (std::size_t i = 0; i < span.children.size(); ++i) {
    if (i > 0) *out += ",";
    AppendSpanJson(span.children[i], out);
  }
  *out += "]}";
}

void AppendSpanText(const SpanStats& span, double parent_total, int depth,
                    std::string* out) {
  const double share = parent_total > 0.0
                           ? 100.0 * span.total_seconds / parent_total
                           : 100.0;
  *out += StrFormat("%*s%-*s %10.3fms %9.3fms %8llu %6.1f%%\n", 2 * depth, "",
                    32 - 2 * depth, span.name.c_str(),
                    span.total_seconds * 1e3, span.self_seconds * 1e3,
                    static_cast<unsigned long long>(span.count), share);
  for (const SpanStats& child : span.children) {
    AppendSpanText(child, span.total_seconds, depth + 1, out);
  }
}

}  // namespace

RunReport CaptureRunReport(const std::string& name) {
  RunReport report;
  report.name = name;
  UpdateRssGauges();
  report.trace = Tracer::Global().Snapshot();
  report.metrics = MetricsRegistry::Global().Snapshot();
  report.pool = PoolStatsCollector::Global().Snapshot();
  report.profile_json = prof::Profiler::Global().SummaryJson();
  return report;
}

std::string SpanStatsToJson(const SpanStats& span) {
  std::string out;
  AppendSpanJson(span, &out);
  return out;
}

std::string TraceSnapshotToJson(const TraceSnapshot& trace) {
  std::string out = "[";
  for (std::size_t i = 0; i < trace.roots.size(); ++i) {
    if (i > 0) out += ",";
    AppendSpanJson(trace.roots[i], &out);
  }
  out += "]";
  return out;
}

std::string MetricsSnapshotToJson(const MetricsSnapshot& metrics) {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < metrics.counters.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(metrics.counters[i].name);
    out += "\":";
    out += StrFormat(
        "%llu", static_cast<unsigned long long>(metrics.counters[i].value));
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < metrics.gauges.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(metrics.gauges[i].name);
    out += "\":";
    out += StrFormat("%.6f", metrics.gauges[i].value);
  }
  out += "},\"infos\":{";
  for (std::size_t i = 0; i < metrics.infos.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(metrics.infos[i].name);
    out += "\":\"";
    out += JsonEscape(metrics.infos[i].value);
    out += "\"";
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < metrics.histograms.size(); ++i) {
    const auto& h = metrics.histograms[i];
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(h.name);
    out += "\":{\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ",";
      if (b < h.bounds.size()) {
        out += StrFormat("{\"le\":%g,\"count\":%llu}", h.bounds[b],
                         static_cast<unsigned long long>(h.buckets[b]));
      } else {
        out += StrFormat("{\"le\":\"inf\",\"count\":%llu}",
                         static_cast<unsigned long long>(h.buckets[b]));
      }
    }
    out += StrFormat("],\"count\":%llu,\"sum\":%.6f",
                     static_cast<unsigned long long>(h.count), h.sum);
    // Percentiles of an empty histogram are NaN — not valid JSON — so
    // the keys are omitted until there is data.
    if (h.count > 0) {
      out += StrFormat(",\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f",
                       HistogramPercentile(h, 0.50),
                       HistogramPercentile(h, 0.95),
                       HistogramPercentile(h, 0.99));
    }
    out += "}";
  }
  out += "}}";
  return out;
}

std::string PoolSnapshotToJson(const PoolStatsSnapshot& pool) {
  std::string out = "{\"phases\":[";
  for (std::size_t i = 0; i < pool.phases.size(); ++i) {
    const PoolPhaseStats& phase = pool.phases[i];
    if (i > 0) out += ",";
    out += "{\"phase\":\"";
    out += JsonEscape(phase.phase);
    out += "\"";
    out += StrFormat(",\"invocations\":%llu",
                     static_cast<unsigned long long>(phase.invocations));
    out += StrFormat(",\"chunks\":%llu",
                     static_cast<unsigned long long>(phase.chunks));
    out += StrFormat(",\"items\":%llu",
                     static_cast<unsigned long long>(phase.items));
    out += StrFormat(",\"wall_ms\":%.6f",
                     static_cast<double>(phase.wall_ns) * 1e-6);
    out += StrFormat(",\"busy_ms\":%.6f",
                     static_cast<double>(phase.busy_ns) * 1e-6);
    out += StrFormat(",\"speedup_bound\":%.3f", phase.SpeedupBound());
    out += StrFormat(",\"imbalance_pct\":%.1f", phase.ImbalancePercent());
    out += StrFormat(",\"caller_share\":%.3f", phase.CallerShare());
    out += ",\"workers\":[";
    for (std::size_t w = 0; w < phase.workers.size(); ++w) {
      const PoolWorkerStats& worker = phase.workers[w];
      if (w > 0) out += ",";
      out += StrFormat(
          "{\"slot\":%d,\"caller\":%s,\"chunks\":%llu,\"items\":%llu,"
          "\"busy_ms\":%.6f,\"wait_ms\":%.6f}",
          worker.slot, worker.caller ? "true" : "false",
          static_cast<unsigned long long>(worker.chunks),
          static_cast<unsigned long long>(worker.items),
          static_cast<double>(worker.busy_ns) * 1e-6,
          static_cast<double>(worker.wait_ns) * 1e-6);
    }
    out += "]}";
  }
  out += StrFormat("],\"dropped_events\":%llu}",
                   static_cast<unsigned long long>(pool.dropped_events));
  return out;
}

std::string RunReportToJson(const RunReport& report) {
  std::string out = "{\"name\":\"";
  out += JsonEscape(report.name);
  out += "\"";
  if (!report.run_id.empty()) {
    out += ",\"run_id\":\"";
    out += JsonEscape(report.run_id);
    out += "\"";
  }
  out += ",\"spans\":";
  out += TraceSnapshotToJson(report.trace);
  out += ",\"metrics\":";
  out += MetricsSnapshotToJson(report.metrics);
  if (!report.pool.empty()) {
    out += ",\"parallel\":";
    out += PoolSnapshotToJson(report.pool);
  }
  if (!report.profile_json.empty()) {
    // Already JSON (ProfileSummaryJson) — embedded verbatim.
    out += ",\"profile\":";
    out += report.profile_json;
  }
  out += "}";
  return out;
}

std::string RunReportToText(const RunReport& report) {
  std::string out;
  if (!report.name.empty()) out += "run: " + report.name + "\n";
  out += StrFormat("%-32s %12s %11s %8s %7s\n", "span", "total", "self",
                   "count", "share");
  const double grand_total = report.trace.TotalSeconds();
  for (const SpanStats& root : report.trace.roots) {
    AppendSpanText(root, grand_total, 0, &out);
  }
  bool header = false;
  for (const auto& c : report.metrics.counters) {
    if (c.value == 0) continue;
    if (!header) {
      out += "counters:\n";
      header = true;
    }
    out += StrFormat("  %-40s %llu\n", c.name.c_str(),
                     static_cast<unsigned long long>(c.value));
  }
  header = false;
  for (const auto& info : report.metrics.infos) {
    if (!header) {
      out += "info:\n";
      header = true;
    }
    out += StrFormat("  %-40s %s=%s\n", info.name.c_str(), info.label.c_str(),
                     info.value.c_str());
  }
  header = false;
  for (const auto& g : report.metrics.gauges) {
    if (g.value == 0.0) continue;
    if (!header) {
      out += "gauges:\n";
      header = true;
    }
    out += StrFormat("  %-40s %.6f\n", g.name.c_str(), g.value);
  }
  header = false;
  for (const auto& h : report.metrics.histograms) {
    if (h.count == 0) continue;
    if (!header) {
      out += "histograms:\n";
      header = true;
    }
    out += StrFormat(
        "  %-40s count=%llu sum=%.3f mean=%.4f p50=%.4f p95=%.4f p99=%.4f\n",
        h.name.c_str(), static_cast<unsigned long long>(h.count), h.sum,
        h.sum / static_cast<double>(h.count), HistogramPercentile(h, 0.50),
        HistogramPercentile(h, 0.95), HistogramPercentile(h, 0.99));
  }
  if (!report.pool.empty()) {
    out += StrFormat("parallel: %-22s %9s %9s %8s %10s %7s\n", "phase",
                     "wall", "busy", "speedup", "imbalance", "caller");
    for (const PoolPhaseStats& phase : report.pool.phases) {
      out += StrFormat(
          "  %-30s %7.1fms %7.1fms %7.2fx %9.1f%% %6.1f%%\n",
          phase.phase.empty() ? "(unlabeled)" : phase.phase.c_str(),
          static_cast<double>(phase.wall_ns) * 1e-6,
          static_cast<double>(phase.busy_ns) * 1e-6, phase.SpeedupBound(),
          phase.ImbalancePercent(), 100.0 * phase.CallerShare());
    }
    if (report.pool.dropped_events > 0) {
      out += StrFormat(
          "  (%llu events dropped to ring wrap; totals undercount)\n",
          static_cast<unsigned long long>(report.pool.dropped_events));
    }
  }
  return out;
}

Status WriteRunReportJson(const RunReport& report, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::string json = RunReportToJson(report);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool flushed = std::fputc('\n', file) != EOF;
  if (std::fclose(file) != 0 || written != json.size() || !flushed) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace dd::obs
