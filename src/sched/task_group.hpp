// Fork/join task group with exception capture and propagation.
//
// Usage:
//
//   sched::TaskGroup group;          // runs on the global pool
//   for (...) group.run([&] { ... });
//   group.wait();                    // joins; rethrows the first exception
//
// Semantics:
//  - run() never blocks. On a serial (1-lane) pool the task executes
//    immediately on the caller, in submission order — the inline mode
//    that keeps single-threaded runs identical to plain loops.
//  - Exceptions thrown by tasks are captured; the FIRST one (in
//    completion order) is rethrown from wait(). Later ones are dropped —
//    the group is a unit of work, not an error aggregator. In inline mode
//    the same contract holds: the exception surfaces at wait(), not at
//    run(), and tasks submitted after a failed one still execute.
//  - wait() help-runs queued tasks while waiting, so groups nest freely
//    on worker threads (a task may build and wait on its own group).
//  - The destructor joins outstanding tasks but swallows their
//    exceptions; call wait() on every code path that cares about errors.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>

#include "sched/thread_pool.hpp"

namespace rsrpa::sched {

class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = global_pool()) : pool_(pool) {}
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Fork `f` into the group. `f` must stay valid until wait() returns
  /// (capture by reference only objects that outlive the group).
  template <class F>
  void run(F&& f) {
    pending_.fetch_add(1, std::memory_order_acq_rel);
    if (pool_.serial())
      pool_.execute_now(std::function<void()>(std::forward<F>(f)), this);
    else
      pool_.submit(std::function<void()>(std::forward<F>(f)), this);
  }

  /// Join all forked tasks, then rethrow the first captured exception.
  void wait();

  /// Tasks forked but not yet finished.
  [[nodiscard]] long pending() const {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class ThreadPool;

  /// Called by the pool on the executing thread: run `fn`, capture any
  /// exception, then mark one task finished.
  void run_task(std::function<void()>& fn) noexcept;
  void record_error(std::exception_ptr e);
  void finish_one();

  ThreadPool& pool_;
  std::atomic<long> pending_{0};
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::exception_ptr error_;  ///< guarded by mu_
};

}  // namespace rsrpa::sched
