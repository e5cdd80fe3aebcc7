#include "engine/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace fdrepair {
namespace {

// Which pool (if any) owns the current thread, and its worker slot. Lets
// Submit target the calling worker's own deque and lets RunOneTask pop
// LIFO from it.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_index = -1;

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  queues_.reserve(n);
  for (int i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  {
    // Pair the flag write with the workers' predicate check.
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_all();
  // Workers drain every queued task before exiting, so nothing leaks.
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  int target = (tls_pool == this && tls_index >= 0)
                   ? tls_index
                   : static_cast<int>(submit_cursor_.fetch_add(
                         1, std::memory_order_relaxed)) %
                         num_threads();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::PopTask(int self, std::function<void()>* task) {
  const int n = num_threads();
  auto take = [&](Queue& queue, bool lifo) {
    std::lock_guard<std::mutex> lock(queue.mu);
    if (queue.tasks.empty()) return false;
    if (lifo) {
      *task = std::move(queue.tasks.back());
      queue.tasks.pop_back();
    } else {
      *task = std::move(queue.tasks.front());
      queue.tasks.pop_front();
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  };
  // Own deque first, newest task (LIFO keeps the working set warm).
  if (self >= 0 && take(*queues_[self], /*lifo=*/true)) return true;
  // Steal the oldest task from some other deque (FIFO takes the biggest
  // remaining subtree off a busy worker).
  const int start = self >= 0 ? self : 0;
  for (int k = 1; k <= n; ++k) {
    if (take(*queues_[(start + k) % n], /*lifo=*/false)) return true;
  }
  return false;
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  const int self = (tls_pool == this) ? tls_index : -1;
  if (!PopTask(self, &task)) return false;
  task();
  return true;
}

void ThreadPool::WorkerLoop(int self) {
  tls_pool = this;
  tls_index = self;
  std::function<void()> task;
  while (true) {
    if (PopTask(self, &task)) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [&] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) <= 0) {
      return;
    }
  }
}

bool ThreadPool::ClaimIndices(const std::shared_ptr<ForState>& state) {
  bool finished_last = false;
  while (true) {
    const int i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->n) break;
    state->body(i);
    const int done = state->done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == state->n) {
      {
        std::lock_guard<std::mutex> lock(state->mu);
      }
      state->cv.notify_all();
      finished_last = true;
    }
  }
  return finished_last;
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  if (n == 1 || num_threads() <= 1) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }
  auto state = std::make_shared<ForState>();
  state->body = body;  // copied: late stealers touch state after we return
  state->n = n;
  const int spawn = std::min(num_threads(), n - 1);
  for (int s = 0; s < spawn; ++s) {
    Submit([state] { ClaimIndices(state); });
  }
  ClaimIndices(state);
  // Our indices are claimed but stragglers may still be running theirs;
  // help with unrelated queued work instead of blocking a core.
  while (state->done.load(std::memory_order_acquire) < n) {
    if (RunOneTask()) continue;
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return state->done.load(std::memory_order_acquire) >= n;
    });
  }
}

}  // namespace fdrepair
