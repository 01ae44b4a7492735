// Morsel-driven parallel execution (Leis et al., "Morsel-Driven
// Parallelism"): work is split into fixed-size morsels — contiguous row
// ranges of one data block — that workers pull from a shared counter.
// The *decomposition* is a pure function of the input (block sizes and
// morsel_rows), never of the scheduling, so a caller that combines
// per-morsel partial results in morsel-index order gets a result that is
// independent of thread count and interleaving.

#ifndef SCALEWALL_EXEC_MORSEL_H_
#define SCALEWALL_EXEC_MORSEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "exec/cancel.h"
#include "exec/scan_path.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace scalewall::exec {

// Default morsel size: large enough that per-morsel dispatch (an atomic
// increment plus a deque push) is amortized to noise, small enough that
// a skewed block still splits into enough pieces to balance and that
// cancellation latency stays in the sub-millisecond range.
inline constexpr size_t kDefaultMorselRows = 16384;

struct MorselMetrics;

// Per-query knobs for the parallel scan path. A null pool or
// num_workers <= 1 selects the serial path (still honouring `cancel`).
struct ExecOptions {
  int num_workers = 0;
  size_t morsel_rows = kDefaultMorselRows;
  ThreadPool* pool = nullptr;
  // Scheduling pool (ThreadPool::RegisterPool id) the scan tasks run
  // under: the stride scheduler arbitrates CPU between pools by weight
  // and charges busy time back. kNoPool = the untagged fast path.
  int sched_pool = ThreadPool::kNoPool;
  const CancelToken* cancel = nullptr;
  // Which scan implementation to run (vectorized kernels by default; the
  // interpreted path is the byte-identical correctness oracle).
  ScanPath scan_path = ScanPath::kVectorized;

  // Observability (all optional). `trace` is the parent span under which
  // the scan records per-morsel child spans, stamped at `trace_time`
  // (simulated time — the engine runs at one frozen instant per query).
  // `morsel_metrics`, when set, accumulates executed/skipped counts for
  // the caller's Stats.
  obs::TraceContext trace;
  SimTime trace_time = 0;
  MorselMetrics* morsel_metrics = nullptr;
};

// One morsel: rows [begin, end) of input item `item`.
struct MorselRange {
  size_t item = 0;
  size_t begin = 0;
  size_t end = 0;

  bool operator==(const MorselRange&) const = default;
};

// Splits items with the given row counts into morsels of at most
// `morsel_rows` rows, in (item, begin) order. An empty item still yields
// one empty morsel so per-item side effects (touch counters, state
// transitions) happen exactly once regardless of row count.
std::vector<MorselRange> SplitMorsels(const std::vector<size_t>& item_rows,
                                      size_t morsel_rows);

// Groups consecutive morsels into scan tasks of at most `morsel_rows`
// rows (0 = kDefaultMorselRows), never splitting a morsel. Returns each
// task's first morsel index followed by morsels.size(), so task t covers
// [bounds[t], bounds[t + 1]); no morsels yield no tasks. A full morsel
// is a task of its own; the morsels of many short items share one
// instead of each paying a task's fixed cost (a state, a flush and a
// merge). A pure function of its inputs, like SplitMorsels.
std::vector<size_t> BatchMorsels(const std::vector<MorselRange>& morsels,
                                 size_t morsel_rows);

// Execution accounting for one ForEachMorsel call.
struct MorselMetrics {
  int64_t executed = 0;  // morsels whose body ran to completion
  int64_t skipped = 0;   // morsels never scheduled (cancellation)
};

// Runs body(i) for every i in [0, count), fanning out over `pool` with
// at most `max_tasks` concurrent workers (a shared atomic index hands
// out morsels, so finished workers immediately pull the next one —
// work-stealing at morsel granularity on top of the pool's deques).
//
// `cancel` is checked before each morsel: once cancelled, no further
// morsel starts and the call returns kCancelled. Morsels already running
// complete normally (cooperative cancellation). With a null or
// single-thread pool, or max_tasks <= 1, the loop runs serially on the
// calling thread under the same cancellation contract.
// `sched_pool` tags the fan-out tasks with a scheduling pool
// (ThreadPool::RegisterPool id): the pool's stride scheduler arbitrates
// them against other pools' tasks by weight. kNoPool = untagged.
Status ForEachMorsel(ThreadPool* pool, int max_tasks, size_t count,
                     const std::function<void(size_t)>& body,
                     const CancelToken* cancel = nullptr,
                     MorselMetrics* metrics = nullptr,
                     int sched_pool = ThreadPool::kNoPool);

}  // namespace scalewall::exec

#endif  // SCALEWALL_EXEC_MORSEL_H_
