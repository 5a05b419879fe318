#ifndef DNLR_COMMON_THREAD_POOL_H_
#define DNLR_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dnlr::common {

/// Fixed-size worker pool for intra-request parallelism: one pool is shared
/// by every rung of a serving process through forest::ParallelScorer (the
/// document chunks of the neural and tree scorers), so thread creation
/// happens once at startup, not per request.
///
/// Concurrency model:
///  - `num_threads` is the total parallelism of one ParallelFor call,
///    including the calling thread; the pool spawns `num_threads - 1`
///    workers. A pool of 1 spawns nothing and ParallelFor degenerates to a
///    plain inline loop, so the serial path pays no synchronization.
///  - ParallelFor may be called concurrently from any number of threads
///    (e.g. every ServingEngine worker): calls share the workers through one
///    task queue, and each call only waits for its own chunks. Chunk bodies
///    must not themselves block on the pool (no nested ParallelFor), which
///    keeps the queue deadlock-free by construction.
///  - The chunk index passed to the body is unique within one ParallelFor
///    call and always < num_threads(), so callers can hand each chunk its
///    own scratch buffer without any locking.
///
/// Coordination cost is what this pool is tuned for: every engine worker
/// issues one ParallelFor per request, and a chunk is often only one or two
/// 64-document batches (tens of microseconds), so a sleep/wake round-trip
/// per call would swamp the work it splits (the T=2 regression the
/// bench-scaling gate guards against). Three mechanisms keep the per-call
/// cost in the sub-microsecond range when the pool is warm:
///  - Workers spin-then-block: after running a chunk a worker polls an
///    atomic queue-size mirror with bounded exponential backoff (pause ->
///    yield) before taking the queue mutex and sleeping on the condvar, so
///    back-to-back ParallelFor calls never pay a futex round-trip.
///  - Targeted wake-ups: enqueueing notifies the condvar exactly
///    min(queued tasks, sleeping workers) times — never a NotifyAll
///    thundering herd that wakes every sleeper for one task.
///  - Atomic-countdown join: chunk completion is a single fetch_sub on a
///    packed (pending << 1 | caller-waiting) word; the caller spins briefly
///    on the counter and only falls back to a mutex + condvar sleep when
///    chunks are genuinely slow. A finishing worker touches the join mutex
///    only when the caller has already committed to sleeping, so the
///    stack-owned join state is never used after the caller returns.
///
/// The locking discipline is annotated for Clang Thread Safety Analysis
/// (common/thread_annotations.h): queue state is DNLR_GUARDED_BY(queue_mu_)
/// and per-call join state by its Batch mutex, so an unguarded access is a
/// compile error on the clang presets, not a TSan roll of the dice.
///
/// Exceptions thrown by a chunk body are captured and the first one is
/// rethrown on the calling thread after every chunk has finished, so the
/// join is exception-safe and never leaves stray tasks behind.
class ThreadPool {
 public:
  /// Body of one ParallelFor chunk: fn(chunk, begin, end) processes the
  /// half-open index range [begin, end). `chunk` < num_threads().
  using ChunkFn = std::function<void(uint32_t chunk, uint64_t begin,
                                     uint64_t end)>;

  /// Monotonic coordination counters, cheap enough to keep on permanently
  /// (they tick on the block/notify slow paths only, never per spin).
  /// The scheduling tests assert the no-thundering-herd and
  /// no-wake-without-work invariants through these.
  struct Stats {
    /// Chunks executed by pool workers (the caller's chunk 0 not included).
    uint64_t tasks_run = 0;
    /// Targeted condvar wake-ups issued by ParallelFor enqueues. Always
    /// <= tasks_run once the pool is idle: at most one notify per queued
    /// task, never a broadcast.
    uint64_t notifies = 0;
    /// Times a worker exhausted its spin budget and went to sleep.
    uint64_t blocks = 0;
    /// Times a sleeping worker woke (not for shutdown) and found the queue
    /// empty — a notified task stolen by a spinning worker. Bounded by
    /// notifies; ~0 in healthy schedules.
    uint64_t empty_wakeups = 0;
  };

  /// Spawns num_threads - 1 workers (0 means 1: strictly serial).
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  /// Splits [0, count) into at most num_threads() contiguous chunks of
  /// near-equal size and runs `body` on every chunk, using the calling
  /// thread for the first chunk. Blocks until all chunks are done; rethrows
  /// the first chunk exception. A count of 0 returns immediately.
  void ParallelFor(uint64_t count, const ChunkFn& body)
      DNLR_EXCLUDES(queue_mu_);

  /// Snapshot of the coordination counters (monotonic since construction).
  /// Quiesce the pool (no ParallelFor in flight) for exact accounting.
  Stats GetStats() const;

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to return 0 on machines it cannot probe).
  static uint32_t HardwareThreads();

 private:
  /// Join state of one ParallelFor call, owned by the caller's stack frame.
  /// body/count/num_chunks are written before the batch is published to the
  /// queue (under queue_mu_) and immutable afterwards, so workers read them
  /// without synchronization.
  ///
  /// `state` packs (pending_chunks << 1) | caller_waiting_bit. Finishing a
  /// chunk is fetch_sub(2); the decrement that drops the count to zero
  /// notifies the condvar only when the waiting bit is set — and once the
  /// caller sets that bit it is committed to sleeping until `done` flips
  /// under `mu`, so the worker's mutex access can never race the caller
  /// destroying the batch.
  struct Batch {
    const ChunkFn* body = nullptr;
    uint64_t count = 0;
    uint32_t num_chunks = 0;
    std::atomic<uint64_t> state{0};
    Mutex mu;
    CondVar done_cv;
    bool done DNLR_GUARDED_BY(mu) = false;
    Mutex error_mu;
    std::exception_ptr error DNLR_GUARDED_BY(error_mu);  // first failure
  };

  struct Task {
    Batch* batch = nullptr;
    uint32_t chunk = 0;
  };

  static void ChunkRange(uint64_t count, uint32_t num_chunks, uint32_t chunk,
                         uint64_t* begin, uint64_t* end);
  /// Runs one chunk body and performs the countdown / targeted wake of the
  /// join protocol described on Batch::state.
  static void RunChunk(Batch* batch, uint32_t chunk);
  /// Locked single-task pop; false when the queue is empty.
  bool TryPop(Task* task) DNLR_EXCLUDES(queue_mu_);
  /// Bounded exponential-backoff poll of the queue-size mirror; true when
  /// work (or shutdown) became visible within the spin budget.
  bool SpinForWork() const;
  void WorkerLoop() DNLR_EXCLUDES(queue_mu_);

  const uint32_t num_threads_;
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Task> queue_ DNLR_GUARDED_BY(queue_mu_);
  /// Lock-free mirror of queue_.size(), updated under queue_mu_ next to
  /// every queue mutation; spinning workers poll it instead of taking the
  /// mutex. A stale read is harmless: TryPop re-checks under the lock.
  std::atomic<uint64_t> queue_size_{0};
  /// Workers currently blocked in queue_cv_.Wait — the enqueue path wakes
  /// at most this many.
  uint32_t num_sleeping_ DNLR_GUARDED_BY(queue_mu_) = 0;
  bool stopping_ DNLR_GUARDED_BY(queue_mu_) = false;
  /// Mirror of stopping_ for the lock-free spin loop (set once, in the
  /// destructor, after stopping_ is set under the mutex).
  std::atomic<bool> stop_signal_{false};
  std::vector<std::thread> workers_;

  // Coordination statistics; relaxed monotonic counters (see Stats).
  std::atomic<uint64_t> stat_tasks_run_{0};
  std::atomic<uint64_t> stat_notifies_{0};
  std::atomic<uint64_t> stat_blocks_{0};
  std::atomic<uint64_t> stat_empty_wakeups_{0};
};

}  // namespace dnlr::common

#endif  // DNLR_COMMON_THREAD_POOL_H_
