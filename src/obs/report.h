// Run reports: one JSON (or indented-text) document combining the span
// tree from the tracer with a metrics snapshot, so a whole
// determination run can be archived and diffed. Exporters are
// dependency-free (hand-rolled JSON, same convention as
// core/result_io).
//
// JSON shape:
//   {"name": "...",
//    "run_id": "...",
//    "spans": [{"name": "...", "count": N, "total_ms": T, "self_ms": S,
//               "children": [...]}, ...],
//    "metrics": {"counters": {"a": 1, ...},
//                "gauges": {"g": 0.5, ...},
//                "histograms": {"h": {"buckets": [{"le": 1.0, "count": 2},
//                                                 {"le": "inf", "count": 0}],
//                                     "count": 2, "sum": 0.3}, ...}},
//    "parallel": {"phases": [{"phase": "...", "invocations": N,
//                             "wall_ms": W, "busy_ms": B,
//                             "speedup_bound": S, "imbalance_pct": I,
//                             "caller_share": C,
//                             "workers": [{"slot": 0, "caller": true,
//                                          "chunks": n, "items": m,
//                                          "busy_ms": b, "wait_ms": w},
//                                         ...]}, ...],
//                 "dropped_events": 0},
//    "profile": {"hz": 99, "duration_seconds": 1.2, "samples": N,
//                "dropped": 0, "truncated": 0, "spans": {...},
//                "phases": {...}, "functions": [...]}}
// "run_id" appears only when the caller set one (ddtool stamps the id
// it also puts on feed lines, so the two join).
// The "parallel" key appears only when the pool-stats collector
// (obs/pool_stats.h) recorded at least one phase; "profile" only when
// the sampling profiler (obs/prof) has captured samples this run.

#ifndef DD_OBS_REPORT_H_
#define DD_OBS_REPORT_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/pool_stats.h"
#include "obs/trace.h"

namespace dd::obs {

struct RunReport {
  // Free-form run label, e.g. "ddtool determine DAP+PAP".
  std::string name;
  // Correlation id shared with the run's feed lines; "" omits the key.
  std::string run_id;
  TraceSnapshot trace;
  MetricsSnapshot metrics;
  // Worker-pool execution stats; empty when the collector was off.
  PoolStatsSnapshot pool;
  // Raw JSON summary from the sampling profiler (prof::Profiler
  // ::SummaryJson()); "" when no capture ran. Captured live when a
  // capture is still running, so --profile reports written before the
  // profiler stops carry the in-flight data.
  std::string profile_json;
};

// Captures the current global tracer + metrics registry + pool-stats
// collector state, after refreshing the mem.rss_bytes /
// mem.rss_peak_bytes gauges (obs/resource.h).
RunReport CaptureRunReport(const std::string& name);

std::string SpanStatsToJson(const SpanStats& span);
std::string TraceSnapshotToJson(const TraceSnapshot& trace);
std::string MetricsSnapshotToJson(const MetricsSnapshot& metrics);
// The per-phase parallel-efficiency section ("parallel" in the report).
std::string PoolSnapshotToJson(const PoolStatsSnapshot& pool);
std::string RunReportToJson(const RunReport& report);

// Human-readable indented span tree with counts, totals and self-time
// percentages, followed by non-zero metrics.
std::string RunReportToText(const RunReport& report);

// Serializes `report` as JSON into `path` (overwrites).
Status WriteRunReportJson(const RunReport& report, const std::string& path);

}  // namespace dd::obs

#endif  // DD_OBS_REPORT_H_
