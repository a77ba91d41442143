// Worker-pool execution statistics: the obs-side collector behind the
// dd::PoolObserver hook (common/parallel.h). Every executed chunk and
// every completed ParallelFor invocation is pushed to the thread's
// obs::Ring (DESIGN.md §8.1): wait-free for the writer, overwrite-
// oldest, and safe to snapshot from another thread. Snapshot() joins
// chunks back to their invocations and produces, per phase label:
//   * per-worker chunk counts, item counts, busy and wait nanoseconds
//     (wait = invocation wall minus that worker's busy time, summed
//     over the invocations the worker participated in),
//   * derived parallel-efficiency figures — the speedup bound
//     Σbusy / max-worker-busy, the imbalance (max − mean)/max, and the
//     caller-participation share.
// The run report's "parallel" section renders these (obs/report.h).
//
// Enabling the collector also feeds live `pool.*` counters in the
// metrics registry (pool.chunks, pool.items, pool.busy_ns,
// pool.invocations, pool.wall_ns) so the run report's metrics and the
// crash dump's metrics section see pool activity without snapshotting
// rings.
//
// Recording never perturbs the chunk partition: determination output
// stays byte-identical with the collector on or off (DESIGN.md §12).
// With the collector disabled, ParallelFor pays one relaxed atomic
// load per invocation — the same ~1 ns bar as the EXPLAIN recorder.

#ifndef DD_OBS_POOL_STATS_H_
#define DD_OBS_POOL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"

namespace dd::obs {

// One worker thread's totals within a phase. `slot` is a process-wide
// dense thread index (assigned on first recorded event, stable for the
// thread's lifetime); `caller` is true when the slot executed at least
// one chunk as the invoking thread rather than as a pool worker.
struct PoolWorkerStats {
  int slot = 0;
  bool caller = false;
  std::uint64_t chunks = 0;
  std::uint64_t items = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t wait_ns = 0;
};

struct PoolPhaseStats {
  std::string phase;  // "" for unlabeled ParallelFor calls
  std::uint64_t invocations = 0;
  std::uint64_t wall_ns = 0;   // summed invocation wall times
  std::uint64_t chunks = 0;
  std::uint64_t items = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t caller_busy_ns = 0;
  std::vector<PoolWorkerStats> workers;  // sorted by slot

  // Upper bound on the speedup this phase can see from its measured
  // work distribution: Σ busy / max per-worker busy. 0 when no work.
  double SpeedupBound() const;
  // Load imbalance across participating workers: (max − mean) / max,
  // in percent. 0 = perfectly balanced.
  double ImbalancePercent() const;
  // Fraction of busy nanoseconds executed by the invoking thread.
  double CallerShare() const;
};

struct PoolStatsSnapshot {
  std::vector<PoolPhaseStats> phases;  // sorted by phase name
  // Events lost to ring wrap-around or torn by a concurrent rewrite
  // (aggregates above cover only the retained window when this is
  // non-zero).
  std::uint64_t dropped_events = 0;

  bool empty() const { return phases.empty(); }
};

class PoolStatsCollector : public PoolObserver {
 public:
  static PoolStatsCollector& Global();

  // Installs the collector as the process pool observer / removes it.
  // Idempotent. Enable() does not clear previously recorded events;
  // call Reset() for a fresh window.
  void Enable();
  void Disable();
  bool enabled() const;

  // Logically clears every per-thread ring (base = head: events
  // already recorded stop being visible to Snapshot). Safe while
  // enabled.
  void Reset();

  // Joins the per-thread rings into per-phase aggregates.
  PoolStatsSnapshot Snapshot() const;

  // dd::PoolObserver — called from pool workers / calling threads.
  void OnChunk(const PoolChunkEvent& event) override;
  void OnInvocation(const PoolInvocationEvent& event) override;

 private:
  PoolStatsCollector() = default;
};

}  // namespace dd::obs

#endif  // DD_OBS_POOL_STATS_H_
