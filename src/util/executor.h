// Fixed-size thread pool with task groups.
//
// No library path submits work to it: ClusterManager::build_all_clusters
// builds serially and ignores the executor it is handed. It stays only
// because the end-to-end benchmark driver still constructs one, and goes
// with that driver's next revision. The shape follows the heyp
// cluster-agent allocator (fixed pool + TaskGroup with submit/wait-all)
// but is dependency-free: plain std::thread, no absl.
//
// Threading model: tasks must not submit work to the TaskGroup they run in
// (wait_all would deadlock on a single-threaded pool); distinct TaskGroups
// backed by the same Executor may be used from distinct threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace alvc::util {

class Executor;

/// One batch of tasks on an Executor. submit() enqueues; wait_all() blocks
/// until every submitted task finished and rethrows the first task
/// exception (later ones are dropped). A group is reusable: further
/// submit()/wait_all() cycles after a wait are fine.
class TaskGroup {
 public:
  ~TaskGroup();  // blocks until all submitted tasks finished; never throws
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn` on the owning executor's pool.
  void submit(std::function<void()> fn) ALVC_EXCLUDES(mu_);

  /// Waits for every task submitted so far; rethrows the first exception
  /// thrown by a task (the group is reset and reusable afterwards).
  void wait_all() ALVC_EXCLUDES(mu_);

  /// Tasks submitted but not yet finished (racy; for tests/diagnostics).
  [[nodiscard]] std::size_t pending() const ALVC_EXCLUDES(mu_);

 private:
  friend class Executor;
  explicit TaskGroup(Executor& exec) : exec_(&exec) {}
  void finish_one(std::exception_ptr error) ALVC_EXCLUDES(mu_);

  Executor* exec_;
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::size_t pending_ ALVC_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ ALVC_GUARDED_BY(mu_);
};

/// Fixed pool of worker threads. Threads start in the constructor and join
/// in the destructor; work is distributed FIFO.
class Executor {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit Executor(std::size_t threads = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_.size(); }

  /// Creates a task group bound to this executor. The executor must
  /// outlive the group.
  [[nodiscard]] std::unique_ptr<TaskGroup> new_task_group();

 private:
  friend class TaskGroup;
  struct Item {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void enqueue(TaskGroup* group, std::function<void()> fn) ALVC_EXCLUDES(mu_);
  void worker_loop() ALVC_EXCLUDES(mu_);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Item> queue_ ALVC_GUARDED_BY(mu_);
  bool shutdown_ ALVC_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // last: workers see members constructed
};

}  // namespace alvc::util
