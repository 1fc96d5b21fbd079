#include "exec/thread_pool.h"

#include <algorithm>

#include "common/assert.h"

namespace rfh {

unsigned ThreadPool::default_jobs() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) {
  RFH_ASSERT_MSG(threads > 0, "a ThreadPool needs at least one worker");
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wakeup_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  // Workers drain the queue before exiting, so nothing is left queued.
}

void ThreadPool::enqueue(Task task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wakeup_.notify_one();
}

void ThreadPool::pop_locked(Task& out) {
  out = std::move(queue_.front());
  queue_.pop_front();
  running_.fetch_add(1, std::memory_order_acq_rel);
}

void ThreadPool::run_task(Task& task) {
  const auto start = std::chrono::steady_clock::now();
  task();  // packaged_task: exceptions land in the future, never here
  const auto elapsed = std::chrono::steady_clock::now() - start;
  busy_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      std::memory_order_relaxed);
  executed_.fetch_add(1, std::memory_order_relaxed);
  running_.fetch_sub(1, std::memory_order_acq_rel);
}

bool ThreadPool::run_one() {
  Task task;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    pop_locked(task);
  }
  run_task(task);
  return true;
}

void ThreadPool::wait_idle() {
  using namespace std::chrono_literals;
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty() &&
          running_.load(std::memory_order_acquire) == 0) {
        return;
      }
    }
    if (!run_one()) std::this_thread::sleep_for(50us);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wakeup_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to drain
      pop_locked(task);
    }
    run_task(task);
  }
}

ThreadPool::Stats ThreadPool::stats() const noexcept {
  return Stats{executed_.load(std::memory_order_relaxed),
               busy_ns_.load(std::memory_order_relaxed)};
}

}  // namespace rfh
