#include "obs/pool_stats.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "obs/diag/sigsafe.h"
#include "obs/metrics.h"
#include "obs/ring.h"

namespace dd::obs {

namespace {

// Per-thread ring capacity. Chunk events on the hot paths are bounded
// by chunks-per-invocation (≤ threads), so even long determinations
// stay well under this; overflow is tolerated and counted.
constexpr std::size_t kRingCapacity = 1 << 14;

constexpr std::uint64_t kFlagCaller = 1u;
constexpr std::uint64_t kFlagInvocation = 2u;

// One ring slot: a chunk or an invocation event.
struct PoolEvent {
  const char* phase;
  std::uint64_t invocation;
  // Chunk events: a = chunk index, b = begin, c = end.
  // Invocation events: a = chunks, b = count, c = threads.
  std::uint64_t a, b, c;
  std::uint64_t start_ns, end_ns;
  std::uint64_t flags;  // kFlagCaller | kFlagInvocation
};

// Rings of every thread that recorded; the table index is the thread's
// slot. Rings outlive their threads so Snapshot() still sees exited
// workers.
RingTable<Ring<PoolEvent>, 512> g_pool_rings;

Ring<PoolEvent>& LocalRing() {
  thread_local Ring<PoolEvent>* ring =
      g_pool_rings.Add(kRingCapacity, diag::SigsafeTid());
  return *ring;
}

// An event as read back out of a ring, tagged with its thread's slot.
struct RawEvent : PoolEvent {
  int slot;
};

}  // namespace

double PoolPhaseStats::SpeedupBound() const {
  std::uint64_t max_busy = 0;
  for (const PoolWorkerStats& w : workers) max_busy = std::max(max_busy, w.busy_ns);
  if (max_busy == 0) return 0.0;
  return static_cast<double>(busy_ns) / static_cast<double>(max_busy);
}

double PoolPhaseStats::ImbalancePercent() const {
  if (workers.empty()) return 0.0;
  std::uint64_t max_busy = 0;
  for (const PoolWorkerStats& w : workers) max_busy = std::max(max_busy, w.busy_ns);
  if (max_busy == 0) return 0.0;
  const double mean = static_cast<double>(busy_ns) /
                      static_cast<double>(workers.size());
  return 100.0 * (static_cast<double>(max_busy) - mean) /
         static_cast<double>(max_busy);
}

double PoolPhaseStats::CallerShare() const {
  if (busy_ns == 0) return 0.0;
  return static_cast<double>(caller_busy_ns) / static_cast<double>(busy_ns);
}

PoolStatsCollector& PoolStatsCollector::Global() {
  static PoolStatsCollector* collector = new PoolStatsCollector();
  return *collector;
}

void PoolStatsCollector::Enable() { SetPoolObserver(this); }

void PoolStatsCollector::Disable() {
  if (GetPoolObserver() == this) SetPoolObserver(nullptr);
}

bool PoolStatsCollector::enabled() const { return GetPoolObserver() == this; }

void PoolStatsCollector::Reset() {
  for (std::size_t i = 0; i < g_pool_rings.size(); ++i) {
    g_pool_rings[i]->Clear();
  }
}

void PoolStatsCollector::OnChunk(const PoolChunkEvent& event) {
  LocalRing().Push({event.phase, event.invocation, event.chunk, event.begin,
                    event.end, event.start_ns, event.end_ns,
                    event.caller ? kFlagCaller : 0});
  static Counter& chunks = MetricsRegistry::Global().GetCounter("pool.chunks");
  static Counter& items = MetricsRegistry::Global().GetCounter("pool.items");
  static Counter& busy = MetricsRegistry::Global().GetCounter("pool.busy_ns");
  chunks.Increment();
  items.Add(event.end - event.begin);
  busy.Add(event.end_ns - event.start_ns);
}

void PoolStatsCollector::OnInvocation(const PoolInvocationEvent& event) {
  LocalRing().Push({event.phase, event.invocation, event.chunks, event.count,
                    event.threads, event.start_ns, event.end_ns,
                    kFlagInvocation});
  static Counter& invocations =
      MetricsRegistry::Global().GetCounter("pool.invocations");
  static Counter& wall = MetricsRegistry::Global().GetCounter("pool.wall_ns");
  invocations.Increment();
  wall.Add(event.end_ns - event.start_ns);
}

PoolStatsSnapshot PoolStatsCollector::Snapshot() const {
  PoolStatsSnapshot snapshot;
  std::vector<RawEvent> chunks;
  std::vector<RawEvent> invocations;
  const std::size_t n = g_pool_rings.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Ring<PoolEvent>& ring = *g_pool_rings[i];
    snapshot.dropped_events +=
        ring.ForEach(0, ring.head(), [&](const PoolEvent& event) {
          const RawEvent raw{event, static_cast<int>(i)};
          if ((raw.flags & kFlagInvocation) != 0) {
            invocations.push_back(raw);
          } else {
            chunks.push_back(raw);
          }
        });
  }

  // Aggregate per phase / per slot; join chunks to invocations for the
  // wait computation (wait = invocation wall − this slot's busy time
  // inside that invocation, for every invocation the slot touched).
  struct PhaseAgg {
    PoolPhaseStats stats;
    std::unordered_map<int, PoolWorkerStats> workers;
  };
  std::unordered_map<std::string, PhaseAgg> phases;
  // invocation id → per-slot busy nanoseconds.
  std::unordered_map<std::uint64_t, std::unordered_map<int, std::uint64_t>>
      busy_by_invocation;

  for (const RawEvent& raw : chunks) {
    PhaseAgg& agg = phases[raw.phase];
    const std::uint64_t dur =
        raw.end_ns > raw.start_ns ? raw.end_ns - raw.start_ns : 0;
    agg.stats.chunks += 1;
    agg.stats.items += raw.c - raw.b;
    agg.stats.busy_ns += dur;
    if ((raw.flags & kFlagCaller) != 0) agg.stats.caller_busy_ns += dur;
    PoolWorkerStats& worker = agg.workers[raw.slot];
    worker.slot = raw.slot;
    worker.caller = worker.caller || (raw.flags & kFlagCaller) != 0;
    worker.chunks += 1;
    worker.items += raw.c - raw.b;
    worker.busy_ns += dur;
    busy_by_invocation[raw.invocation][raw.slot] += dur;
  }

  for (const RawEvent& raw : invocations) {
    PhaseAgg& agg = phases[raw.phase];
    const std::uint64_t wall =
        raw.end_ns > raw.start_ns ? raw.end_ns - raw.start_ns : 0;
    agg.stats.invocations += 1;
    agg.stats.wall_ns += wall;
    const auto found = busy_by_invocation.find(raw.invocation);
    if (found == busy_by_invocation.end()) continue;
    for (const auto& [slot, busy] : found->second) {
      PoolWorkerStats& worker = agg.workers[slot];
      worker.slot = slot;
      worker.wait_ns += wall > busy ? wall - busy : 0;
    }
  }

  for (auto& [phase, agg] : phases) {
    agg.stats.phase = phase;
    agg.stats.workers.reserve(agg.workers.size());
    for (auto& [slot, worker] : agg.workers) {
      agg.stats.workers.push_back(worker);
    }
    std::sort(agg.stats.workers.begin(), agg.stats.workers.end(),
              [](const PoolWorkerStats& x, const PoolWorkerStats& y) {
                return x.slot < y.slot;
              });
    snapshot.phases.push_back(std::move(agg.stats));
  }
  std::sort(snapshot.phases.begin(), snapshot.phases.end(),
            [](const PoolPhaseStats& x, const PoolPhaseStats& y) {
              return x.phase < y.phase;
            });
  return snapshot;
}

}  // namespace dd::obs
