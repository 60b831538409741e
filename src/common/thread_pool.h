#ifndef REVERE_COMMON_THREAD_POOL_H_
#define REVERE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace revere::obs {
class Gauge;
class Histogram;
}  // namespace revere::obs

namespace revere {

/// A fixed-size worker pool. Two callers submit to it: the parallel
/// query-evaluation path (query::UnionMembers, one task per union
/// member) and serve::RevereServer (one task per admitted request).
///
/// Design constraints (ISSUE 2): a known number of workers created once,
/// futures for every submitted task, and no detached threads — the
/// destructor drains the queue and joins every worker, so a pool can be
/// stack-allocated around a burst of work. Tasks should not throw (the
/// library is exception-free); one that does never kills a worker — the
/// exception is captured by the packaged_task, rethrown from the
/// future's .get(), and the pool keeps draining (tested in
/// parallel_test).
///
/// Observability (ISSUE 4): every pool reports to the process-wide
/// obs::MetricsRegistry — `threadpool.queue_depth` (gauge, tasks queued
/// but not yet started, aggregated across pools), `threadpool.tasks`
/// (counter), and `threadpool.task_latency_us` (histogram of execution
/// time, queue wait excluded).
///
/// Determinism contract: the pool schedules tasks in submission order
/// but completion order depends on the OS scheduler. Callers that need
/// reproducible output must merge results in submission order, never
/// completion order — as query::UnionMembers' callers do: the merges in
/// query::EvaluateUnion and in piazza::PdmsNetwork::AnswerRows, behind
/// Answer and AnswerWithProvenance.
class ThreadPool {
 public:
  /// Spawns `workers` threads immediately (clamped to >= 1).
  explicit ThreadPool(size_t workers);
  /// Drains remaining tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  /// Enqueues `fn`; the future completes when it has run. Safe to call
  /// from any thread, including pool workers (the task queues; a worker
  /// must not block on a future of a task behind it in the queue).
  std::future<void> Submit(std::function<void()> fn);

  /// A sensible default worker count: the hardware concurrency, at
  /// least 1 (hardware_concurrency may report 0).
  static size_t DefaultWorkerCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  /// Process-wide metric handles (resolved once in the constructor;
  /// registry pointers are stable forever).
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* task_latency_us_ = nullptr;
};

}  // namespace revere

#endif  // REVERE_COMMON_THREAD_POOL_H_
