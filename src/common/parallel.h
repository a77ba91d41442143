// Data-parallel helper: static range partitioning over a shared,
// lazily-initialized worker pool. The counting scans over the matching
// relation, the triangular matching build, and the candidate-lattice
// sweeps are embarrassingly parallel; this is all the machinery they
// need.
//
// Concurrency model (DESIGN.md §12):
//  * One process-wide pool, started on the first ParallelFor that wants
//    more than one chunk. Workers are reused across calls — no per-call
//    std::thread spawn/join cost on the hot paths.
//  * The calling thread participates: it claims chunks alongside the
//    workers, so `threads` means "total concurrency", not "extra
//    threads".
//  * Nested ParallelFor calls issued from inside a pool chunk run
//    inline on the calling worker (single chunk). This keeps nested
//    parallel code deadlock-free and stops thread counts from
//    multiplying when a parallel outer loop drives a provider whose
//    scans are themselves ParallelFor-based.
//  * The pool joins its workers at static destruction; calls racing
//    shutdown degrade to inline execution.

#ifndef DD_COMMON_PARALLEL_H_
#define DD_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace dd {

// Process-wide default concurrency: the last SetDefaultThreads value,
// else the DD_THREADS environment variable, else
// std::thread::hardware_concurrency(). Always >= 1.
std::size_t DefaultThreads();

// Overrides DefaultThreads() for the process (the --threads flag).
// n == 0 restores the environment/hardware default.
void SetDefaultThreads(std::size_t n);

// Invokes fn(chunk_index, begin, end) for a static partition of
// [0, count) into at most `threads` contiguous chunks, running chunks
// concurrently on the shared pool (the caller participates).
// threads == 0 means DefaultThreads(); threads <= 1 (or count small)
// runs inline on the calling thread. fn must be safe to call
// concurrently for disjoint chunks. Blocks until every chunk finished.
//
// The partition depends only on (count, threads) — never on how chunks
// were interleaved across workers — so deterministic per-chunk merges
// produce identical results at any concurrency.
//
// `phase` labels the invocation for the pool observer (per-worker
// parallel-efficiency reports); it must be a string with
// static storage duration (a literal). The unlabeled overload records
// under the empty phase.
void ParallelFor(const char* phase, std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t chunk, std::size_t begin,
                                          std::size_t end)>& fn);
void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t chunk, std::size_t begin,
                                          std::size_t end)>& fn);

// Number of chunks ParallelFor will actually use (never more than
// count, never less than 1).
std::size_t EffectiveChunks(std::size_t count, std::size_t threads);

// True while the current thread is executing a ParallelFor chunk (on a
// pool worker or the participating caller). Nested ParallelFor calls
// observe this and run inline.
bool InParallelChunk();

// Static-storage phase label of the ParallelFor invocation the calling
// thread is currently executing a chunk of, or nullptr outside any
// chunk. Nested (inline) ParallelFor calls keep the outermost label —
// it names the phase that owns the thread's time. Published with plain
// thread-local stores, so it is async-signal-safe to read from a
// handler on the same thread; the sampling profiler (src/obs/prof)
// tags samples with it so profiles slice per pool phase.
const char* CurrentPoolPhase();

// ---------------------------------------------------------------------
// Pool observation hook. dd_common cannot depend on the metrics/trace
// layer (dd_obs links dd_common), so the pool exposes a raw observer
// interface instead: the obs layer installs a collector at startup and
// the pool reports chunk executions and whole invocations to it. With
// no observer installed the cost is one relaxed atomic load per
// ParallelFor invocation and one branch per chunk — no clock reads.
//
// Timestamps are std::chrono::steady_clock nanoseconds, comparable
// across threads within the process.

// One executed chunk: [begin, end) of the invocation's range, run on
// one thread from start_ns to end_ns. `caller` is true when the
// invoking thread (not a pool worker) executed it.
struct PoolChunkEvent {
  const char* phase;          // static-storage label ("" if unlabeled)
  std::uint64_t invocation;   // process-wide ParallelFor sequence number
  std::size_t chunk;
  std::size_t begin;
  std::size_t end;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  bool caller;
};

// One completed ParallelFor invocation (reported by the calling thread
// after every chunk finished). Top-level single-chunk (inline) runs are
// reported too, so the event stream has the same shape at any thread
// count; nested-inline calls from inside a chunk are not (their work is
// already inside the enclosing chunk's event).
struct PoolInvocationEvent {
  const char* phase;
  std::uint64_t invocation;
  std::size_t count;
  std::size_t chunks;
  std::size_t threads;        // resolved request (after DefaultThreads)
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

// Implemented by the collector (src/obs/pool_stats.h). Callbacks must
// be thread-safe and lock-free: OnChunk fires concurrently from pool
// workers inside the measured region.
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;
  virtual void OnChunk(const PoolChunkEvent& event) = 0;
  virtual void OnInvocation(const PoolInvocationEvent& event) = 0;
};

// Installs `observer` (nullptr uninstalls) and returns the previous
// one. The observer must outlive every ParallelFor that can see it;
// invocations in flight during the swap keep reporting to the observer
// they started with.
PoolObserver* SetPoolObserver(PoolObserver* observer);

// The currently installed observer (nullptr when observation is off).
PoolObserver* GetPoolObserver();

}  // namespace dd

#endif  // DD_COMMON_PARALLEL_H_
