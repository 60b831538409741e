#include "src/serve/server.h"

#include <algorithm>
#include <utility>

namespace revere::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kEwmaAlpha = 0.2;
/// Retry-budget tokens each successful contact refills.
constexpr double kRetryBudgetRefill = 0.1;

size_t LaneIndex(Lane lane) { return lane == Lane::kInteractive ? 0 : 1; }

size_t WorkerCount(const ServeOptions& options) {
  return std::max<size_t>(1, options.workers);
}

}  // namespace

RevereServer::RevereServer(const piazza::PdmsNetwork* net, ServeOptions options)
    : net_(net),
      options_(std::move(options)),
      retry_budget_(options_.retry_budget_capacity, kRetryBudgetRefill),
      interactive_latency_us_(obs::Histogram::DefaultLatencyBoundsUs()),
      batch_latency_us_(obs::Histogram::DefaultLatencyBoundsUs()),
      pool_(std::make_unique<ThreadPool>(WorkerCount(options_))) {
  if (options_.use_breakers) {
    breakers_ = std::make_unique<piazza::BreakerSet>(options_.breaker);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_admitted_ = reg.GetCounter("serve.admitted");
  m_shed_queue_full_ = reg.GetCounter("serve.shed_queue_full");
  m_shed_unmeetable_ = reg.GetCounter("serve.shed_unmeetable");
  m_completed_ = reg.GetCounter("serve.completed");
  m_deadline_exceeded_ = reg.GetCounter("serve.deadline_exceeded");
  m_breaker_skips_ = reg.GetCounter("serve.breaker_skips");
  m_queue_interactive_ = reg.GetGauge("serve.queue_depth_interactive");
  m_queue_batch_ = reg.GetGauge("serve.queue_depth_batch");
  m_interactive_latency_ = reg.GetHistogram("serve.interactive_latency_us");
  m_batch_latency_ = reg.GetHistogram("serve.batch_latency_us");
}

RevereServer::~RevereServer() { Shutdown(); }

double RevereServer::RetryAfterMs(Lane lane) const {
  // A zero hint on a shed would invite an instant retry; before any
  // service time has been observed, fall back to a 1 ms guess.
  double est = EstimatedQueueWaitMs(lane);
  return est > 0.0 ? est : 1.0;
}

double RevereServer::EstimatedQueueWaitMs(Lane lane) const {
  // Interactive requests only wait behind the interactive queue; batch
  // requests wait behind both (interactive always dequeues first).
  size_t ahead = interactive_.size();
  if (lane == Lane::kBatch) ahead += batch_.size();
  return (static_cast<double>(ahead) + 1.0) *
         ewma_service_ms_[LaneIndex(lane)] /
         static_cast<double>(WorkerCount(options_));
}

void RevereServer::PublishQueueDepths() {
  m_queue_interactive_->Set(static_cast<int64_t>(interactive_.size()));
  m_queue_batch_->Set(static_cast<int64_t>(batch_.size()));
}

std::future<ServeResult> RevereServer::Submit(ServeRequest request) {
  Ticket ticket;
  ticket.enqueued = Clock::now();
  ticket.deadline = Clock::time_point::max();
  double budget_ms = request.deadline_ms < 0.0 ? options_.default_deadline_ms
                                               : request.deadline_ms;
  if (budget_ms > 0.0) {
    ticket.deadline =
        ticket.enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(budget_ms));
  }
  const Lane lane = request.lane;
  ticket.request = std::move(request);
  std::future<ServeResult> future = ticket.promise.get_future();

  bool unmeetable = false;
  double retry_after_ms = 0.0;
  {
    // Admission, the push and the pool submission share one mu_ hold,
    // so no ticket is admitted after Shutdown took the pool: every
    // admitted ticket has its task queued before the pool drains.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    // Fail in O(1) instead of queueing a request that cannot make its
    // deadline even if service started immediately after the queue
    // drains. The estimate is intentionally optimistic (EWMA of past
    // service times); an admitted request that still misses resolves
    // as kDeadlineExceeded at dequeue.
    unmeetable = budget_ms > 0.0 && EstimatedQueueWaitMs(lane) > budget_ms;
    std::deque<Ticket>& queue = lane_queue(lane);
    if (!unmeetable && !stopping_ &&
        queue.size() < std::max<size_t>(1, options_.queue_capacity)) {
      queue.push_back(std::move(ticket));
      ++stats_.admitted;
      m_admitted_->Increment();
      PublishQueueDepths();
      pool_->Submit([this] { ServeNext(); });
      return future;
    }
    ++(unmeetable ? stats_.shed_unmeetable : stats_.shed_queue_full);
    retry_after_ms = RetryAfterMs(lane);
  }
  // Shed: stopping, queue full, or deadline unmeetable.
  (unmeetable ? m_shed_unmeetable_ : m_shed_queue_full_)->Increment();
  ServeResult result;
  result.status = Status::Unavailable(
      unmeetable ? "deadline unmeetable at current queue depth"
                 : "serving queue is full");
  result.shed = true;
  result.retry_after_ms = retry_after_ms;
  ticket.promise.set_value(std::move(result));
  return future;
}

ServeResult RevereServer::SubmitAndWait(ServeRequest request) {
  return Submit(std::move(request)).get();
}

void RevereServer::ServeNext() {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Each admitted ticket queued exactly one task, so a lane holds a
    // ticket for every task that has not yet taken one.
    std::deque<Ticket>& queue = interactive_.empty() ? batch_ : interactive_;
    ticket = std::move(queue.front());
    queue.pop_front();
    PublishQueueDepths();
  }
  Serve(std::move(ticket));
}

void RevereServer::Serve(Ticket ticket) {
  auto start = Clock::now();
  double queue_wait_us =
      std::chrono::duration<double, std::micro>(start - ticket.enqueued)
          .count();
  ServeResult result;
  result.queue_wait_us = queue_wait_us;
  if (start >= ticket.deadline) {
    // Expired while queued: resolve without burning a worker on an
    // answer nobody is waiting for.
    result.status = Status::DeadlineExceeded("deadline expired in queue");
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.deadline_exceeded;
    }
    m_deadline_exceeded_->Increment();
    ticket.promise.set_value(std::move(result));
    return;
  }

  piazza::NetworkCostModel cost = options_.cost;
  cost.deadline = ticket.deadline;
  cost.breakers = breakers_.get();
  cost.retry_budget = &retry_budget_;
  piazza::ExecutionStats xstats;
  auto answer =
      net_->Answer(ticket.request.query, options_.reform, &xstats, cost);
  auto end = Clock::now();
  double service_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  result.service_us = service_us;
  result.stats = std::move(xstats);
  result.status = answer.status();
  if (answer.ok()) result.rows = std::move(answer).value();

  Lane lane = ticket.request.lane;
  if (result.status.ok()) {
    // SLO latency counts completed answers only, so Slo(lane).completed
    // and the `completed` counter agree exactly (the conservation
    // invariant the stress test asserts).
    double total_us = queue_wait_us + service_us;
    bool interactive = lane == Lane::kInteractive;
    (interactive ? interactive_latency_us_ : batch_latency_us_)
        .Record(total_us);
    (interactive ? m_interactive_latency_ : m_batch_latency_)
        ->Record(total_us);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.status.ok()) {
      ++stats_.completed;
    } else if (result.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats_.deadline_exceeded;
    } else {
      ++stats_.failed;
    }
    stats_.breaker_skips += result.stats.completeness.breaker_skips;
    stats_.retries_denied += result.stats.completeness.retries_denied;
    double& ewma = ewma_service_ms_[LaneIndex(lane)];
    double service_ms = service_us / 1000.0;
    ewma = ewma == 0.0 ? service_ms
                       : (1.0 - kEwmaAlpha) * ewma + kEwmaAlpha * service_ms;
  }
  if (result.status.ok()) {
    m_completed_->Increment();
  } else if (result.status.code() == StatusCode::kDeadlineExceeded) {
    m_deadline_exceeded_->Increment();
  }
  if (result.stats.completeness.breaker_skips > 0) {
    m_breaker_skips_->Increment(result.stats.completeness.breaker_skips);
  }

  ticket.promise.set_value(std::move(result));
}

void RevereServer::Shutdown() {
  std::unique_ptr<ThreadPool> pool;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    pool = std::move(pool_);
  }
  // Destroying the pool outside mu_ (its tasks take mu_) runs every
  // queued task, one per admitted ticket, then joins the workers.
  pool.reset();
}

ServerStats RevereServer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats out = stats_;
  out.queue_depth_interactive = interactive_.size();
  out.queue_depth_batch = batch_.size();
  return out;
}

LaneSlo RevereServer::Slo(Lane lane) const {
  const obs::Histogram& hist =
      lane == Lane::kInteractive ? interactive_latency_us_ : batch_latency_us_;
  obs::Histogram::Snapshot snap = hist.GetSnapshot();
  LaneSlo slo;
  slo.completed = snap.count;
  slo.p50_us = snap.Percentile(50.0);
  slo.p99_us = snap.Percentile(99.0);
  slo.mean_us = snap.mean();
  return slo;
}

}  // namespace revere::serve
