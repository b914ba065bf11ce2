#ifndef TCOMP_SHARD_SHARD_WORKER_H_
#define TCOMP_SHARD_SHARD_WORKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "shard/partition.h"

namespace tcomp {

/// One shard's contribution to a snapshot: the exact ε-neighbor list of
/// every owned index (global snapshot indices, ascending, self included —
/// the representation BuildClusteringFromCores consumes), plus the
/// distance evaluations spent producing them.
struct ShardResult {
  /// Parallel to ShardSlice::owned.
  std::vector<std::vector<uint32_t>> neighbors;
  int64_t distance_ops = 0;
};

/// Computes the exact ε-neighborhoods of a slice's owned indices over
/// owned ∪ halo, via a column-sorted flat grid (entries sorted by
/// (ε-column, y, local) — no unordered containers, same idiom as the
/// incremental clusterer's anchor grid) whose probes binary-search the
/// exact y-range instead of walking whole cell rows, cutting the
/// candidate region from 9ε² to ~6ε². Pure function of (snapshot, slice,
/// params):
/// deterministic results and deterministic distance_ops, whichever thread
/// runs it. Exact because the slice's halo invariant guarantees every
/// true ε-neighbor of an owned index is present locally, and membership
/// is decided by the shared WithinEps predicate.
ShardResult ComputeShardNeighbors(const Snapshot& snapshot,
                                  const ShardSlice& slice,
                                  const DbscanParams& params);

/// Countdown latch for one snapshot's fan-out: the caller waits until
/// every submitted shard task has called Done().
class ShardBarrier {
 public:
  explicit ShardBarrier(int count);

  void Done();
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;  // guarded by mu_
};

/// N dedicated shard workers, each with its own FIFO task queue — the
/// process's only parallel mechanism for snapshot work. Tasks are routed
/// to a *specific* worker, so per-shard queue depth is a meaningful
/// backlog signal (exported as gauges by the engine). Workers
/// live for the pool's lifetime; queues drain fully before the
/// destructor joins.
///
/// Thread-safety: Submit() may be called from any thread; depth() /
/// depth_peak() are relaxed-atomic reads safe concurrently with the
/// workers (monitoring-grade, like every gauge in src/obs/).
///
/// On a host with a single hardware thread the pool runs every task
/// inline on the submitting thread instead of spawning workers: fan-out
/// threads cannot overlap there, so dedicated workers would only add
/// futex wake-ups and context switches to every snapshot. Shard
/// decomposition (and therefore every product and counter) is unaffected
/// — only where the stripe tasks execute changes.
class ShardWorkerPool {
 public:
  explicit ShardWorkerPool(int num_workers);
  ~ShardWorkerPool();

  ShardWorkerPool(const ShardWorkerPool&) = delete;
  ShardWorkerPool& operator=(const ShardWorkerPool&) = delete;

  void Submit(int worker, std::function<void()> task);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// True when tasks run inline on the submitting thread (single-hardware-
  /// thread host); exposed for tests and diagnostics.
  bool inline_mode() const { return inline_mode_; }
  /// Queue depth of `worker` now (tasks submitted, not yet finished).
  int64_t depth(int worker) const;
  /// High-watermark of depth() since construction.
  int64_t depth_peak(int worker) const;

 private:
  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;  // guarded by mu
    bool shutdown = false;                    // guarded by mu
    std::atomic<int64_t> depth{0};
    std::atomic<int64_t> depth_peak{0};
  };

  void WorkerLoop(Worker* worker);

  bool inline_mode_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace tcomp

#endif  // TCOMP_SHARD_SHARD_WORKER_H_
