#ifndef REVERE_OBS_METRICS_H_
#define REVERE_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace revere::obs {

/// Shards per counter: enough that the PDMS serving paths (concurrent
/// Answer calls, parallel union evaluation) rarely collide on one cache
/// line, small enough that Value()'s sum stays trivial.
inline constexpr size_t kCounterShards = 8;

/// Returns this thread's stable shard index in [0, kCounterShards).
/// Assigned round-robin on first use per thread, so concurrent writers
/// spread across shards deterministically per thread lifetime.
size_t ThisThreadShard();

/// A monotonically increasing sum, sharded across cache lines so the
/// hot path is one uncontended relaxed fetch_add. Same concurrency
/// idiom as PlanCache: atomics on the hot path, locks only at
/// registration time (in MetricsRegistry).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }
  /// Sum over shards. Monotone between concurrent writers but not a
  /// point-in-time snapshot (like any multi-writer counter).
  uint64_t Value() const;
  /// Zeroes every shard (tests and bench fixtures only).
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kCounterShards];
};

/// A value that goes up and down (queue depths, live entry counts).
/// Single atomic: gauges are updated far less often than counters.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Sub(int64_t delta) { value_.fetch_sub(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket latency/size histogram. Bucket upper bounds are set
/// at registration and never change, so Record() is a short search plus
/// one relaxed atomic increment — safe from any thread, TSan-clean,
/// and cheap enough to sit on the per-task / per-answer hot path.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds, strictly increasing; one
  /// overflow bucket is appended for values above the last bound.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  /// Default bounds for latency metrics, in microseconds: 1µs … 10s in
  /// a 1-2-5 ladder. Used by every *_latency_us histogram.
  static std::vector<double> DefaultLatencyBoundsUs();

  struct Snapshot {
    std::vector<double> bounds;    ///< upper bounds, overflow excluded
    std::vector<uint64_t> counts;  ///< bounds.size() + 1 buckets
    uint64_t count = 0;
    double sum = 0.0;

    double mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Linear interpolation inside the winning bucket; `p` in [0, 100].
    double Percentile(double p) const;
  };
  Snapshot GetSnapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// A process-wide registry of named metrics. Registration (first use of
/// a name) takes the exclusive lock; every later lookup takes the
/// shared lock and the returned pointer is stable for the registry's
/// lifetime, so hot paths resolve a metric once (function-local static)
/// and then touch only atomics.
///
/// Naming convention (DESIGN.md §3.4): dotted lowercase
/// `<subsystem>.<metric>[_<unit>]` — e.g. `pdms.rows_shipped`,
/// `plan_cache.hits`, `threadpool.task_latency_us`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in subsystem reports to.
  /// Never destroyed (leaked singleton), so metric handles cached in
  /// function-local statics stay valid through shutdown.
  static MetricsRegistry& Default();

  /// Returns the counter registered under `name`, creating it on first
  /// use. The pointer is stable forever.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` applies only on first registration (empty = the default
  /// latency ladder); later callers share the existing histogram.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> bounds = {});

  /// Zeroes every registered metric's value. Registrations (and handed-
  /// out pointers) survive — this resets data, not structure.
  void Reset();

  enum class Kind { kCounter, kGauge, kHistogram };

  /// One registered metric, read at snapshot time.
  struct MetricRow {
    std::string name;
    Kind kind = Kind::kCounter;
    uint64_t counter_value = 0;           ///< kCounter
    int64_t gauge_value = 0;              ///< kGauge
    Histogram::Snapshot histogram;        ///< kHistogram
  };

  /// Every registered metric, sorted by name.
  std::vector<MetricRow> Snapshot() const;

  size_t metric_count() const;

 private:
  mutable std::shared_mutex mu_;
  /// less<> enables string_view lookups without a temporary string.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace revere::obs

#endif  // REVERE_OBS_METRICS_H_
