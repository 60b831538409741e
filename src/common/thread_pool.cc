#include "src/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/obs/metrics.h"

namespace revere {

ThreadPool::ThreadPool(size_t workers) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  queue_depth_ = metrics.GetGauge("threadpool.queue_depth");
  task_latency_us_ = metrics.GetHistogram("threadpool.task_latency_us");
  size_t n = std::max<size_t>(1, workers);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace {
obs::Counter* TasksCounter() {
  static obs::Counter* tasks =
      obs::MetricsRegistry::Default().GetCounter("threadpool.tasks");
  return tasks;
}
}  // namespace

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  // A task that throws skips the latency record; packaged_task stores
  // the exception for future.get().
  std::packaged_task<void()> task([this, fn = std::move(fn)] {
    auto start = std::chrono::steady_clock::now();
    fn();
    task_latency_us_->Record(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
  });
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  TasksCounter()->Increment();
  queue_depth_->Add(1);
  cv_.notify_one();
  return future;
}

size_t ThreadPool::DefaultWorkerCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain-then-stop: queued work always runs, so futures returned
      // by Submit never dangle.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_->Sub(1);
    task();
  }
}

}  // namespace revere
