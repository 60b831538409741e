#ifndef REVERE_SERVE_SERVER_H_
#define REVERE_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/piazza/breaker.h"
#include "src/piazza/pdms.h"
#include "src/piazza/reformulation.h"
#include "src/query/cq.h"
#include "src/storage/value.h"

namespace revere::serve {

/// The overload-safe serving front end (ISSUE 6): RevereServer wraps a
/// PdmsNetwork behind admission control, so the reformulated-answer
/// path the paper's §3 argues for stays *interactive* when peers are
/// slow, flaky, or dead and when offered load exceeds capacity.
///
/// The pipeline per request:
///
///   Submit ──► admission ──► lane queue ──► pool task ──► Answer ──► future
///              │ shed: stopping, queue full, or deadline already unmeetable
///              ▼ (kUnavailable + retry_after hint, never queued)
///
/// Each admitted ticket submits one task to the server's ThreadPool;
/// the task serves the oldest interactive ticket, else the oldest batch
/// one, so lane priority holds whatever order the tasks run in.
///
/// Guarantees:
///  - Every Submit resolves its future exactly once — shed at
///    admission, failed, timed out, or completed; nothing is lost on
///    shutdown (the pool runs every queued task before its workers exit).
///  - Bounded memory: each lane holds at most `queue_capacity` tickets;
///    beyond it the server sheds instead of queueing (load shedding, not
///    queueing collapse).
///  - End-to-end deadlines: a request's remaining budget rides into
///    PdmsNetwork::Answer through NetworkCostModel::deadline, so an
///    overloaded request degrades to a best-effort partial answer with
///    an honest CompletenessReport.
///  - Per-peer circuit breakers + a global retry budget (owned by the
///    server) keep dead peers and retry storms from amplifying load.

/// Priority lanes. Interactive traffic (a user waiting on a portal
/// query) is always served before crawl/updategram-style batch work.
enum class Lane { kInteractive, kBatch };

struct ServeOptions {
  /// Worker threads answering queries (clamped to >= 1).
  size_t workers = 2;
  /// Per-lane admission queue capacity (clamped to >= 1); pushes
  /// beyond it shed.
  size_t queue_capacity = 64;
  /// Default per-request deadline budget in wall-clock ms; 0 = none.
  /// Individual requests may override it. A request whose estimated
  /// queue wait alone already exceeds its budget sheds at admission —
  /// failing in O(1) beats queueing one that is bound to time out.
  double default_deadline_ms = 0.0;
  /// Circuit-breaker tuning for the server-owned BreakerSet.
  piazza::BreakerOptions breaker;
  /// Enable the per-peer breakers (on by default; the bench's
  /// breaker-off arm and the byte-identity oracles turn them off).
  bool use_breakers = true;
  /// Global retry budget capacity; each successful contact refills
  /// 0.1 token.
  double retry_budget_capacity = 64.0;
  /// Reformulation knobs for every request.
  piazza::ReformulationOptions reform;
  /// Execution cost model template: fault injector, retry policy,
  /// failure policy, eval options. The server fills `deadline`,
  /// `breakers`, and `retry_budget` per request; `failure_policy`
  /// defaults here to best-effort, the serving-appropriate choice.
  piazza::NetworkCostModel cost;

  ServeOptions() { cost.failure_policy = piazza::FailurePolicy::kBestEffort; }
};

struct ServeRequest {
  query::ConjunctiveQuery query;
  Lane lane = Lane::kInteractive;
  /// Wall-clock deadline budget in ms, from submission. < 0 uses
  /// ServeOptions::default_deadline_ms; 0 means no deadline.
  double deadline_ms = -1.0;
};

struct ServeResult {
  /// Ok (answer below, possibly partial — see stats.completeness),
  /// kUnavailable (shed at admission; see retry_after_ms), or
  /// kDeadlineExceeded (admitted but the deadline expired before any
  /// partial answer existed).
  Status status;
  std::vector<storage::Row> rows;
  piazza::ExecutionStats stats;
  /// True when the request never entered a queue (load shedding).
  bool shed = false;
  /// When shed: how long the client should wait before retrying,
  /// estimated from queue depth x observed mean service time.
  double retry_after_ms = 0.0;
  /// Time spent queued before a worker picked the request up (µs).
  double queue_wait_us = 0.0;
  /// Time inside PdmsNetwork::Answer (µs).
  double service_us = 0.0;
};

/// Exact server-side accounting, for tests and SLO reports. All
/// counters are monotone; the invariants tests assert:
///   submitted == admitted + shed_queue_full + shed_unmeetable
///   admitted  == completed + deadline_exceeded + failed  (once idle)
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_unmeetable = 0;
  uint64_t completed = 0;           ///< Ok results (partial ones included)
  uint64_t deadline_exceeded = 0;   ///< admitted, then kDeadlineExceeded
  uint64_t failed = 0;              ///< admitted, then any other error
  uint64_t breaker_skips = 0;       ///< contacts suppressed by breakers
  uint64_t retries_denied = 0;      ///< retries suppressed by the budget
  size_t queue_depth_interactive = 0;
  size_t queue_depth_batch = 0;
};

/// Per-lane latency SLO, computed from the server's own histograms. The
/// same distributions, and every ServerStats counter, also stream into
/// the process-wide obs::MetricsRegistry as serve.*.
struct LaneSlo {
  uint64_t completed = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
};

class RevereServer {
 public:
  /// `net` must outlive the server. The server owns its BreakerSet and
  /// RetryBudget; the fault injector (if any) stays caller-owned inside
  /// `options.cost.faults`.
  RevereServer(const piazza::PdmsNetwork* net, ServeOptions options);
  ~RevereServer();

  RevereServer(const RevereServer&) = delete;
  RevereServer& operator=(const RevereServer&) = delete;

  /// Admission-controlled submit. Never blocks: a shed request's future
  /// is ready immediately. The future is always eventually resolved.
  std::future<ServeResult> Submit(ServeRequest request);

  /// Convenience: Submit + wait.
  ServeResult SubmitAndWait(ServeRequest request);

  /// Stops accepting (subsequent Submits shed with kUnavailable),
  /// serves every admitted ticket, and joins the workers. Idempotent;
  /// also run by the destructor.
  void Shutdown();

  /// Point-in-time accounting snapshot.
  ServerStats Snapshot() const;

  /// End-to-end latency percentiles for one lane (completed requests).
  LaneSlo Slo(Lane lane) const;

  /// The server-owned breaker set (for tests/benches to inspect states;
  /// nullptr when options.use_breakers is false).
  piazza::BreakerSet* breakers() { return breakers_.get(); }

 private:
  struct Ticket {
    ServeRequest request;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // ::max() = none
  };

  /// The body of every pool task: takes the oldest interactive ticket,
  /// else the oldest batch one, and serves it.
  void ServeNext();
  /// Serves one ticket end to end and resolves its promise.
  void Serve(Ticket ticket);
  /// Estimated ms until a new arrival in `lane` would start service.
  /// Callers hold mu_ (as for every helper below).
  double EstimatedQueueWaitMs(Lane lane) const;
  /// The shed hint: the wait estimate, floored to 1 ms when unlearned.
  double RetryAfterMs(Lane lane) const;
  /// Mirrors both lanes' depths into the registry gauges.
  void PublishQueueDepths();
  std::deque<Ticket>& lane_queue(Lane lane) {
    return lane == Lane::kInteractive ? interactive_ : batch_;
  }

  const piazza::PdmsNetwork* net_;
  const ServeOptions options_;
  std::unique_ptr<piazza::BreakerSet> breakers_;
  piazza::RetryBudget retry_budget_;

  /// Guards the lanes, stopping_, stats_ and the EWMA.
  mutable std::mutex mu_;
  std::deque<Ticket> interactive_;
  std::deque<Ticket> batch_;
  bool stopping_ = false;
  ServerStats stats_;
  /// EWMA of service time per lane, ms — the retry_after / unmeetable
  /// estimator. Starts at 0 (optimistic until measured): a pessimistic
  /// prior would shed a never-served lane forever, because the estimate
  /// only learns from requests that actually run. The first completed
  /// request sets it directly; later ones blend.
  double ewma_service_ms_[2] = {0.0, 0.0};

  /// Per-lane end-to-end latency distributions (queue wait + service).
  obs::Histogram interactive_latency_us_;
  obs::Histogram batch_latency_us_;

  /// Registry mirrors (resolved once, in the constructor).
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_shed_queue_full_ = nullptr;
  obs::Counter* m_shed_unmeetable_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_deadline_exceeded_ = nullptr;
  obs::Counter* m_breaker_skips_ = nullptr;
  obs::Gauge* m_queue_interactive_ = nullptr;
  obs::Gauge* m_queue_batch_ = nullptr;
  obs::Histogram* m_interactive_latency_ = nullptr;
  obs::Histogram* m_batch_latency_ = nullptr;

  /// Runs one task per admitted ticket; Shutdown destroys it, which
  /// drains its queue and joins its workers. Null once shut down.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace revere::serve

#endif  // REVERE_SERVE_SERVER_H_
