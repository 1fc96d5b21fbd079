// Fixed-size FIFO thread pool.
//
// Built for independent runs fanned out from outside the pool: sweep
// cells (src/exec/sweep.h), mean-field replicates and an engine's flow
// propagation shards. Every submission lands in one mutex-guarded FIFO
// queue; workers take tasks from its front in submission order and sleep
// on a condition variable while it is empty.
//
// Tasks are std::packaged_task wrappers: an exception thrown by a task is
// captured into its future and rethrows at future.get() — nothing
// terminates the worker. wait() lets any thread (including a worker, so
// nested submit-and-wait cannot deadlock) run pending tasks while a
// future is not ready.
//
// Determinism contract: the pool schedules, it never sequences — callers
// must make tasks independent (the sweep gives each cell its own RNG
// streams, registry and sinks) and merge results by task identity, never
// by completion order.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rfh {

class ThreadPool {
 public:
  /// `threads` workers; at least one.
  explicit ThreadPool(unsigned threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains every queued task (their futures must be satisfiable), then
  /// joins the workers.
  ~ThreadPool();

  /// Worker count.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Hardware concurrency clamped to at least 1.
  [[nodiscard]] static unsigned default_jobs() noexcept;

  /// Enqueue `fn`; the future carries its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Block until `future` is ready, executing pending pool tasks on the
  /// calling thread in the meantime. Safe to call from inside a task:
  /// a worker waiting on nested work keeps the pool moving instead of
  /// deadlocking it.
  template <typename T>
  T wait(std::future<T>& future) {
    using namespace std::chrono_literals;
    while (future.wait_for(0s) != std::future_status::ready) {
      if (!run_one()) future.wait_for(50us);
    }
    return future.get();
  }

  /// Execute the oldest pending task on the calling thread if any is
  /// queued. Returns false when the queue was empty.
  bool run_one();

  /// Busy-wait (helping) until no task is queued or running.
  void wait_idle();

  struct Stats {
    std::uint64_t executed = 0;  ///< tasks completed
    std::uint64_t busy_ns = 0;   ///< summed wall time inside tasks
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  using Task = std::function<void()>;

  void enqueue(Task task);
  void worker_loop();
  /// Pop the queue's front into `out` and count it as running; the
  /// caller holds mutex_ and has checked the queue is non-empty.
  void pop_locked(Task& out);
  void run_task(Task& task);

  /// Guards queue_ and stop_. Workers test their sleep predicate under it,
  /// so a push (made under it) can never slip between a worker's check
  /// and its wait: the notify that follows always finds it waiting or
  /// about to re-check.
  std::mutex mutex_;
  std::condition_variable wakeup_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
  /// Tasks popped but not finished. Raised under mutex_ in the same
  /// critical section as the pop, so wait_idle never sees a task in
  /// neither the queue nor this count.
  std::atomic<std::uint64_t> running_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace rfh
