#include "util/executor.h"

#include <utility>

#include "util/lock_rank.h"

namespace alvc::util {

// ---- TaskGroup ----

// Condition waits are spelled as explicit loops rather than
// cv.wait(lock, pred): the thread-safety analysis checks a lambda body as
// a separate function, so a predicate reading a guarded member would need
// its own (unattachable) lock annotation.

TaskGroup::~TaskGroup() {
  ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorTaskGroup, "util.executor.task_group");
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_ != 0) done_cv_.wait(lock);
}

void TaskGroup::submit(std::function<void()> fn) {
  {
    ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorTaskGroup, "util.executor.task_group");
    const std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  exec_->enqueue(this, std::move(fn));
}

void TaskGroup::wait_all() {
  ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorTaskGroup, "util.executor.task_group");
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_ != 0) done_cv_.wait(lock);
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

std::size_t TaskGroup::pending() const {
  ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorTaskGroup, "util.executor.task_group");
  const std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

void TaskGroup::finish_one(std::exception_ptr error) {
  ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorTaskGroup, "util.executor.task_group");
  const std::lock_guard<std::mutex> lock(mu_);
  if (error && !first_error_) first_error_ = std::move(error);
  --pending_;
  if (pending_ == 0) done_cv_.notify_all();
}

// ---- Executor ----

Executor::Executor(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorQueue, "util.executor.queue");
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Orphaned items (enqueued after shutdown began) still owe their group a
  // completion, else ~TaskGroup would hang. All workers have joined, but
  // take the lock anyway: it is uncontended and keeps the locking
  // discipline uniform for the static analysis.
  std::deque<Item> orphans;
  {
    ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorQueue, "util.executor.queue");
    const std::lock_guard<std::mutex> lock(mu_);
    orphans.swap(queue_);
  }
  for (Item& item : orphans) item.group->finish_one(nullptr);
}

std::unique_ptr<TaskGroup> Executor::new_task_group() {
  return std::unique_ptr<TaskGroup>(new TaskGroup(*this));
}

void Executor::enqueue(TaskGroup* group, std::function<void()> fn) {
  {
    ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorQueue, "util.executor.queue");
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Item{group, std::move(fn)});
  }
  work_cv_.notify_one();
}

void Executor::worker_loop() {
  for (;;) {
    Item item;
    {
      ALVC_LOCK_RANK(alvc::util::lock_rank::kExecutorQueue, "util.executor.queue");
      std::unique_lock<std::mutex> lock(mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.wait(lock);
      if (queue_.empty()) return;  // shutdown with a drained queue
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr error;
    try {
      item.fn();
    } catch (...) {
      error = std::current_exception();
    }
    item.group->finish_one(std::move(error));
  }
}

}  // namespace alvc::util
