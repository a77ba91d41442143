#include "obs/resource.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>

#include "obs/metrics.h"

namespace dd::obs {

namespace {

// Reads a "<key>:   <n> kB" line from /proc/self/status; returns 0
// when the file or key is unavailable (non-Linux fallback handled by
// the callers).
std::uint64_t ProcStatusKb(const char* key) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') continue;
    unsigned long long value = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &value) == 1) {
      kb = static_cast<std::uint64_t>(value);
    }
    break;
  }
  std::fclose(file);
  return kb;
}

}  // namespace

std::uint64_t CurrentRssBytes() { return ProcStatusKb("VmRSS") * 1024; }

std::uint64_t PeakRssBytes() {
  const std::uint64_t hwm = ProcStatusKb("VmHWM") * 1024;
  if (hwm != 0) return hwm;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

void UpdateRssGauges() {
  static Gauge& rss = MetricsRegistry::Global().GetGauge("mem.rss_bytes");
  static Gauge& peak = MetricsRegistry::Global().GetGauge("mem.rss_peak_bytes");
  rss.Set(static_cast<double>(CurrentRssBytes()));
  peak.Set(static_cast<double>(PeakRssBytes()));
}

void SetMemoryGauge(const std::string& structure, std::uint64_t bytes) {
  MetricsRegistry::Global()
      .GetGauge("mem." + structure + "_bytes")
      .Set(static_cast<double>(bytes));
}

}  // namespace dd::obs
