// Process memory accounting: RSS sampling plus the `mem.*` byte-size
// gauges that the core data structures (matching relation, value-pair
// cache, grid provider, scan-provider bitmap index, tuple store)
// publish through their MemoryUsageBytes() hooks.
//
// Gauge naming: every structure gauge is `mem.<structure>_bytes`
// (mem.matching_bytes, mem.value_cache_bytes, mem.grid_bytes,
// mem.scan_index_bytes, mem.tuple_store_bytes);
// the process-level pair is mem.rss_bytes / mem.rss_peak_bytes.
// CaptureRunReport() (obs/report.h) calls UpdateRssGauges(), so every
// run report carries the RSS reading of the moment it was taken.

#ifndef DD_OBS_RESOURCE_H_
#define DD_OBS_RESOURCE_H_

#include <cstdint>
#include <string>

namespace dd::obs {

// Current resident-set size in bytes (Linux: VmRSS from
// /proc/self/status; falls back to 0 when unreadable).
std::uint64_t CurrentRssBytes();

// Peak resident-set size in bytes (Linux: VmHWM from /proc/self/status,
// falling back to getrusage ru_maxrss).
std::uint64_t PeakRssBytes();

// Sets mem.rss_bytes and mem.rss_peak_bytes in the global registry.
void UpdateRssGauges();

// Sets the gauge `mem.<structure>_bytes` to `bytes`. `structure` must
// be a registry-safe name fragment (e.g. "matching", "value_cache").
void SetMemoryGauge(const std::string& structure, std::uint64_t bytes);

}  // namespace dd::obs

#endif  // DD_OBS_RESOURCE_H_
