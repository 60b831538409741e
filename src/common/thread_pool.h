#ifndef REVERE_COMMON_THREAD_POOL_H_
#define REVERE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace revere::obs {
class Gauge;
class Histogram;
}  // namespace revere::obs

namespace revere {

/// A fixed-size worker pool for the parallel query-evaluation path.
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
/// reproducible output (every caller in REVERE) must merge results in
/// submission order, never completion order — see
/// query::EvaluateUnion and piazza::PdmsNetwork::AnswerRows, the merge
/// behind Answer and AnswerWithProvenance.
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

  /// Bounded-submit path (ISSUE 6): enqueues like Submit, but fails
  /// fast (nullopt, `fn` not enqueued) when the queue already holds at
  /// least `max_queued` not-yet-started tasks. Callers that fan out an
  /// unbounded stream (AnswerBatch, the serving front end) use this and
  /// run the task inline on refusal — the caller thread becomes the
  /// backpressure, instead of the queue growing without limit.
  std::optional<std::future<void>> TrySubmit(std::function<void()> fn,
                                             size_t max_queued);

  /// Tasks queued but not yet started (approximate under concurrency).
  size_t queue_depth() const;

  /// Tasks executed so far (for tests and instrumentation).
  size_t tasks_completed() const;

  /// A sensible default worker count: the hardware concurrency, at
  /// least 1 (hardware_concurrency may report 0).
  static size_t DefaultWorkerCount();

 private:
  void WorkerLoop();
  /// Wraps `fn` with the latency/completion instrumentation every
  /// queued task carries (shared by Submit and TrySubmit).
  std::packaged_task<void()> MakeTask(std::function<void()> fn);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  size_t completed_ = 0;
  std::vector<std::thread> workers_;
  /// Process-wide metric handles (resolved once in the constructor;
  /// registry pointers are stable forever).
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* task_latency_us_ = nullptr;
};

}  // namespace revere

#endif  // REVERE_COMMON_THREAD_POOL_H_
