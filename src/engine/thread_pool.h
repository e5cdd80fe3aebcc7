// ThreadPool: a work-stealing pool sized to the hardware.
//
// OptSRepair's recursion decomposes every tractable instance into
// independent blocks (σ_{A=a}T groups, σ_{X1=a1,X2=a2}T marriage blocks);
// the pool is how those blocks actually run concurrently. Design:
//
//   - one deque per worker: a worker pops its own deque LIFO (cache-warm)
//     and steals from a victim's deque FIFO (oldest task first);
//   - ParallelFor is the fork-join primitive: the *calling* thread claims
//     loop indices alongside the workers, and — while waiting for stragglers
//     — helps by executing unrelated queued tasks. Nested ParallelFor calls
//     therefore never deadlock even on a 1-thread pool: the caller simply
//     runs every index itself.
//
// The pool never cancels a task; cancellation is cooperative (tasks check
// their own deadlines, see OptSRepairExec). The destructor drains every
// queued task before joining, so no submitted work is ever leaked.

#ifndef FDREPAIR_ENGINE_THREAD_POOL_H_
#define FDREPAIR_ENGINE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fdrepair {

/// `requested` when positive, else std::thread::hardware_concurrency()
/// (at least 1): the thread knob of RepairEngine and RepairService.
int ResolveThreadCount(int requested);

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; values < 1 are clamped to 1. A 1-thread
  /// pool still accepts Submit/ParallelFor but ParallelFor degenerates to a
  /// sequential loop on the calling thread.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(queues_.size()); }

  /// Enqueues a task. From a worker thread it lands on that worker's own
  /// deque (LIFO hot path); from any other thread it is distributed
  /// round-robin.
  void Submit(std::function<void()> task);

  /// Runs body(0..n-1), potentially in parallel, and returns when all n
  /// calls have finished. The calling thread participates. Deterministic
  /// callers must not depend on execution order — only on the index.
  void ParallelFor(int n, const std::function<void(int)>& body);

  /// Pops and runs one queued task on the calling thread; false if every
  /// deque was empty. Exposed so blocked callers can help drain the pool.
  bool RunOneTask();

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  struct ForState {
    std::function<void(int)> body;
    int n = 0;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };

  void WorkerLoop(int self);
  /// Claims indices of `state` until none remain; returns true if the last
  /// index completed during this call.
  static bool ClaimIndices(const std::shared_ptr<ForState>& state);
  bool PopTask(int self, std::function<void()>* task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<int> pending_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<unsigned> submit_cursor_{0};
};

}  // namespace fdrepair

#endif  // FDREPAIR_ENGINE_THREAD_POOL_H_
