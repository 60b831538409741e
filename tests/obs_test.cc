// Tests for ISSUE 4: the observability subsystem — metrics registry
// primitives (counter/gauge/histogram), the tracer's span trees across
// the whole answer path (reformulate → plan_cache → evaluate →
// contact/retry), the exporters, and the ThreadPool's registry
// reporting. The concurrent-recording tests are part of the TSan
// workload: build with -DREVERE_SANITIZE=thread and run obs_test.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/datagen/topology.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"

namespace revere {
namespace {

using datagen::AllCoursesQuery;
using datagen::BuildUniversityPdms;
using datagen::PdmsGenOptions;
using datagen::PdmsGenReport;
using datagen::Topology;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::Span;
using obs::SpanRecord;
using obs::TraceMode;
using obs::Tracer;
using piazza::FailurePolicy;
using piazza::FaultInjector;
using piazza::NetworkCostModel;
using piazza::PdmsNetwork;
using query::ConjunctiveQuery;

// ------------------------------------------------------------ counter

TEST(CounterTest, SumsAcrossIncrements) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// -------------------------------------------------------------- gauge

TEST(GaugeTest, TracksUpAndDown) {
  Gauge g;
  g.Add(5);
  g.Sub(2);
  EXPECT_EQ(g.Value(), 3);
  g.Set(-7);
  EXPECT_EQ(g.Value(), -7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

// ---------------------------------------------------------- histogram

TEST(HistogramTest, BucketsCountAndMean) {
  Histogram h({1.0, 10.0, 100.0});
  h.Record(0.5);    // bucket 0
  h.Record(5.0);    // bucket 1
  h.Record(50.0);   // bucket 2
  h.Record(500.0);  // overflow
  Histogram::Snapshot snap = h.GetSnapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 555.5);
  EXPECT_DOUBLE_EQ(snap.mean(), 555.5 / 4.0);
  h.Reset();
  EXPECT_EQ(h.GetSnapshot().count, 0u);
}

TEST(HistogramTest, PercentilesInterpolate) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.Record(5.0);    // all in [0, 10]
  for (int i = 0; i < 100; ++i) h.Record(15.0);   // all in (10, 20]
  Histogram::Snapshot snap = h.GetSnapshot();
  // p50 sits at the boundary between the two populated buckets.
  EXPECT_NEAR(snap.Percentile(50.0), 10.0, 1.0);
  EXPECT_LE(snap.Percentile(25.0), 10.0);
  EXPECT_GT(snap.Percentile(75.0), 10.0);
  EXPECT_LE(snap.Percentile(99.0), 20.0);
}

TEST(HistogramTest, ConcurrentRecordingIsExact) {
  Histogram h(Histogram::DefaultLatencyBoundsUs());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>((t * kPerThread + i) % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();
  Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t n : snap.counts) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
}

// ----------------------------------------------------------- registry

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.hits");
  Counter* b = registry.GetCounter("x.hits");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("x.misses"), a);
  // Kinds are separate namespaces.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x.hits")),
            static_cast<void*>(a));
  EXPECT_EQ(registry.metric_count(), 3u);  // 2 counters + 1 gauge
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndTyped) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Increment(3);
  registry.GetGauge("a.gauge")->Set(-1);
  registry.GetHistogram("c.hist")->Record(5.0);
  std::vector<MetricsRegistry::MetricRow> rows = registry.Snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "a.gauge");
  EXPECT_EQ(rows[0].kind, MetricsRegistry::Kind::kGauge);
  EXPECT_EQ(rows[0].gauge_value, -1);
  EXPECT_EQ(rows[1].name, "b.counter");
  EXPECT_EQ(rows[1].counter_value, 3u);
  EXPECT_EQ(rows[2].name, "c.hist");
  EXPECT_EQ(rows[2].histogram.count, 1u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("r.count");
  c->Increment(9);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("r.count"), c);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      for (int i = 0; i < 100; ++i) {
        Counter* c = registry.GetCounter("race." + std::to_string(i % 10));
        c->Increment();
        if (i == 0) seen[t] = c;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.metric_count(), 10u);
  for (int t = 1; t < 8; ++t) EXPECT_EQ(seen[t], seen[0]);
}

// ------------------------------------------------------------- tracer

TEST(TracerTest, DisabledProducesInertSpans) {
  Tracer tracer(TraceMode::kDisabled);
  Span span = tracer.StartSpan("root");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.AddAttr("n", 1.0);  // all no-ops
  span.Finish();
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(TracerTest, NullSinkRunsPipelineButRetainsNothing) {
  Tracer tracer(TraceMode::kNullSink);
  {
    Span span = tracer.StartSpan("root");
    EXPECT_TRUE(span.active());
    EXPECT_NE(span.id(), 0u);
  }
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_TRUE(tracer.Records().empty());
}

TEST(TracerTest, FullModeRetainsFinishedSpansWithParents) {
  Tracer tracer(TraceMode::kFull);
  Span root = tracer.StartSpan("root");
  {
    Span child = tracer.StartSpan("child", root.id(), "c0");
    child.AddAttr("rows", 7.0);
  }
  root.Finish();
  std::vector<SpanRecord> records = tracer.Records();
  ASSERT_EQ(records.size(), 2u);
  // Finish order: the child finished first.
  EXPECT_EQ(records[0].name, "child");
  EXPECT_EQ(records[0].detail, "c0");
  EXPECT_EQ(records[0].parent, records[1].id);
  ASSERT_EQ(records[0].attrs.size(), 1u);
  EXPECT_EQ(records[0].attrs[0].first, "rows");
  EXPECT_DOUBLE_EQ(records[0].attrs[0].second, 7.0);
  EXPECT_EQ(records[1].name, "root");
  EXPECT_EQ(records[1].parent, 0u);
  EXPECT_GE(records[1].duration_ns, records[0].duration_ns);

  std::string dump = tracer.TextDump();
  EXPECT_NE(dump.find("root"), std::string::npos);
  EXPECT_NE(dump.find("child [c0]"), std::string::npos);

  tracer.Clear();
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(TracerTest, NullTracerHelperIsSafe) {
  Span span = obs::StartSpan(nullptr, "nothing");
  EXPECT_FALSE(span.active());
  span.Finish();
}

TEST(TracerTest, MoveTransfersOwnership) {
  Tracer tracer(TraceMode::kFull);
  Span a = tracer.StartSpan("a");
  Span b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move) — tested
  EXPECT_TRUE(b.active());
  b.Finish();
  EXPECT_EQ(tracer.span_count(), 1u);  // finished exactly once
}

TEST(TracerTest, ConcurrentSpansRetainAll) {
  Tracer tracer(TraceMode::kFull);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 500; ++i) {
        Span span = tracer.StartSpan("work");
        span.AddAttr("i", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.span_count(), 8u * 500u);
}

// ------------------------------------------- span trees on the answer path

PdmsGenReport BuildFig2(PdmsNetwork* net, size_t rows_per_peer = 20) {
  PdmsGenOptions options;
  options.topology = Topology::kFigure2;
  options.rows_per_peer = rows_per_peer;
  options.seed = 99;
  auto report = BuildUniversityPdms(net, options);
  EXPECT_TRUE(report.ok());
  return report.value();
}

/// Collects records by name, and the id set per name, for structure
/// assertions.
std::map<std::string, std::vector<SpanRecord>> ByName(
    const std::vector<SpanRecord>& records) {
  std::map<std::string, std::vector<SpanRecord>> out;
  for (const auto& r : records) out[r.name].push_back(r);
  return out;
}

std::set<uint64_t> Ids(const std::vector<SpanRecord>& records) {
  std::set<uint64_t> out;
  for (const auto& r : records) out.insert(r.id);
  return out;
}

double AttrOr(const SpanRecord& r, const std::string& key, double fallback) {
  for (const auto& [k, v] : r.attrs) {
    if (k == key) return v;
  }
  return fallback;
}

/// The acceptance test: one Answer under fault injection produces the
/// complete span tree — answer → reformulate → plan_cache, answer →
/// evaluate (one per rewriting) → contact (per peer) → retry (per
/// backed-off attempt) — and tracing never changes the answer.
TEST(AnswerTraceTest, AnswerProducesCompleteSpanTreeWithRetries) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  ConjunctiveQuery query = AllCoursesQuery(report, 0);

  auto run = [&](Tracer* tracer, piazza::ExecutionStats* stats) {
    FaultInjector faults(1234);
    faults.SetDown(report.peer_names[3]);
    faults.SetFlaky(report.peer_names[1], 0.5);
    NetworkCostModel cost;
    cost.faults = &faults;
    cost.failure_policy = FailurePolicy::kBestEffort;
    cost.retry.max_attempts = 3;
    cost.tracer = tracer;
    return net.Answer(query, {}, stats, cost);
  };

  // Reference run without tracing: the injector's RNG stream (and so
  // the answer and stats) must be identical with tracing on.
  piazza::ExecutionStats plain_stats;
  auto plain = run(nullptr, &plain_stats);
  ASSERT_TRUE(plain.ok());

  // The plain run warmed the plan cache; clear it so the traced run
  // shows the miss → search → insert shape (hit = 0).
  net.ClearPlanCache();
  Tracer tracer(TraceMode::kFull);
  piazza::ExecutionStats stats;
  auto traced = run(&tracer, &stats);
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(plain.value(), traced.value());
  EXPECT_EQ(plain_stats.completeness.retries_attempted,
            stats.completeness.retries_attempted);

  auto by_name = ByName(tracer.Records());
  ASSERT_EQ(by_name["answer"].size(), 1u);
  const SpanRecord& answer = by_name["answer"][0];
  EXPECT_EQ(answer.parent, 0u);

  ASSERT_EQ(by_name["reformulate"].size(), 1u);
  EXPECT_EQ(by_name["reformulate"][0].parent, answer.id);
  ASSERT_EQ(by_name["plan_cache"].size(), 1u);
  EXPECT_EQ(by_name["plan_cache"][0].parent, by_name["reformulate"][0].id);
  EXPECT_DOUBLE_EQ(AttrOr(by_name["plan_cache"][0], "hit", -1.0), 0.0);

  // One evaluate span per rewriting, all children of the answer span,
  // with distinct rw<i> details.
  ASSERT_GT(stats.completeness.rewritings_total, 1u);
  ASSERT_EQ(by_name["evaluate"].size(), stats.completeness.rewritings_total);
  std::set<std::string> details;
  for (const auto& r : by_name["evaluate"]) {
    EXPECT_EQ(r.parent, answer.id);
    details.insert(r.detail);
  }
  EXPECT_EQ(details.size(), by_name["evaluate"].size());

  // Every contact hangs off some evaluate span and names its peer.
  std::set<uint64_t> evaluate_ids = Ids(by_name["evaluate"]);
  ASSERT_FALSE(by_name["contact"].empty());
  std::set<std::string> contacted;
  for (const auto& r : by_name["contact"]) {
    EXPECT_TRUE(evaluate_ids.count(r.parent)) << "contact " << r.detail;
    contacted.insert(r.detail);
  }
  EXPECT_TRUE(contacted.count(report.peer_names[3]));

  // Retries: the down peer forces max_attempts - 1 = 2 retries per
  // contact; each retry span is a child of a contact span.
  ASSERT_GT(stats.completeness.retries_attempted, 0u);
  ASSERT_EQ(by_name["retry"].size(), stats.completeness.retries_attempted);
  std::set<uint64_t> contact_ids = Ids(by_name["contact"]);
  for (const auto& r : by_name["retry"]) {
    EXPECT_TRUE(contact_ids.count(r.parent));
    EXPECT_GE(AttrOr(r, "attempt", 0.0), 1.0);
  }
}

TEST(AnswerTraceTest, WarmAnswerRecordsPlanCacheHit) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  ConjunctiveQuery query = AllCoursesQuery(report, 0);
  ASSERT_TRUE(net.Answer(query).ok());  // warm the plan cache

  Tracer tracer(TraceMode::kFull);
  NetworkCostModel cost;
  cost.tracer = &tracer;
  ASSERT_TRUE(net.Answer(query, {}, nullptr, cost).ok());

  auto by_name = ByName(tracer.Records());
  ASSERT_EQ(by_name["plan_cache"].size(), 1u);
  EXPECT_DOUBLE_EQ(AttrOr(by_name["plan_cache"][0], "hit", -1.0), 1.0);
  // The perfect-network path still records one contact per peer.
  EXPECT_FALSE(by_name["contact"].empty());
}

TEST(AnswerTraceTest, ParallelAnswerKeepsTreeShape) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  ConjunctiveQuery query = AllCoursesQuery(report, 0);

  ThreadPool pool(4);
  Tracer tracer(TraceMode::kFull);
  NetworkCostModel cost;
  cost.eval.pool = &pool;
  cost.tracer = &tracer;
  piazza::ExecutionStats stats;
  ASSERT_TRUE(net.Answer(query, {}, &stats, cost).ok());

  auto by_name = ByName(tracer.Records());
  ASSERT_EQ(by_name["answer"].size(), 1u);
  EXPECT_EQ(by_name["evaluate"].size(), stats.completeness.rewritings_total);
  std::set<uint64_t> evaluate_ids = Ids(by_name["evaluate"]);
  for (const auto& r : by_name["contact"]) {
    EXPECT_TRUE(evaluate_ids.count(r.parent));
  }
}

TEST(EvaluateUnionTraceTest, OneSpanPerMember) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  auto rewritings = net.Reformulate(AllCoursesQuery(report, 0));
  ASSERT_TRUE(rewritings.ok());
  ASSERT_GT(rewritings.value().size(), 1u);

  Tracer tracer(TraceMode::kFull);
  query::EvalOptions options;
  options.tracer = &tracer;
  ASSERT_TRUE(
      query::EvaluateUnion(net.storage(), rewritings.value(), options).ok());
  auto by_name = ByName(tracer.Records());
  EXPECT_EQ(by_name["evaluate"].size(), rewritings.value().size());
}

// ------------------------------------------------- registry mirroring

TEST(RegistryMirroringTest, EveryAnswerIsMirrored) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  ConjunctiveQuery query = AllCoursesQuery(report, 0);
  Counter* answers = MetricsRegistry::Default().GetCounter("pdms.answers");
  uint64_t before = answers->Value();
  ASSERT_TRUE(net.Answer(query).ok());
  EXPECT_EQ(answers->Value(), before + 1);
}

TEST(RegistryMirroringTest, ExpiredAnswerCountsAsFailed) {
  // A deadline that has already passed stops the answer before the
  // search, under either policy; the registry must still count it.
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  Counter* failed =
      MetricsRegistry::Default().GetCounter("pdms.answers_failed");
  for (FailurePolicy policy :
       {FailurePolicy::kFailFast, FailurePolicy::kBestEffort}) {
    NetworkCostModel cost;
    cost.failure_policy = policy;
    cost.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    uint64_t before = failed->Value();
    auto answer = net.Answer(AllCoursesQuery(report, 0), {}, nullptr, cost);
    EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(failed->Value(), before + 1);
  }
}

// ---------------------------------------------------------- exporters

TEST(ExportTest, TextDumpListsEveryMetricSorted) {
  MetricsRegistry registry;
  registry.GetCounter("z.count")->Increment(2);
  registry.GetGauge("a.depth")->Set(3);
  registry.GetHistogram("m.lat_us")->Record(7.0);
  std::string text = obs::MetricsToText(registry);
  EXPECT_NE(text.find("counter z.count 2"), std::string::npos);
  EXPECT_NE(text.find("gauge a.depth 3"), std::string::npos);
  EXPECT_NE(text.find("histogram m.lat_us count=1"), std::string::npos);
  EXPECT_LT(text.find("a.depth"), text.find("z.count"));  // sorted
}

TEST(ExportTest, JsonLinesMatchReporterShape) {
  MetricsRegistry registry;
  registry.GetCounter("x.count")->Increment(5);
  registry.GetHistogram("x.lat_us")->Record(10.0);
  std::string jsonl = obs::MetricsToJsonLines(registry);
  EXPECT_NE(
      jsonl.find("{\"bench\": \"obs_metrics\", \"params\": "
                 "{\"name\": \"x.count\", \"args\": []}, \"metrics\": "
                 "{\"kind\": \"counter\", \"value\": 5}}"),
      std::string::npos);
  EXPECT_NE(jsonl.find("\"name\": \"x.lat_us\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\": \"histogram\""), std::string::npos);
  // One JSON object per line, every line closed.
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
}

TEST(ExportTest, WriteFileOrFalse) {
  std::string path = testing::TempDir() + "/obs_export_test.jsonl";
  EXPECT_TRUE(obs::WriteFileOrFalse(path, "{\"ok\": 1}\n"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"ok\": 1}\n");
  EXPECT_FALSE(
      obs::WriteFileOrFalse("/no/such/dir/obs_export_test.jsonl", "x"));
}

// --------------------------------------------------------- thread pool

TEST(ThreadPoolMetricsTest, ReportsTasksAndLatency) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  Counter* tasks = registry.GetCounter("threadpool.tasks");
  Gauge* depth = registry.GetGauge("threadpool.queue_depth");
  Histogram* latency = registry.GetHistogram("threadpool.task_latency_us");
  uint64_t tasks_before = tasks->Value();
  uint64_t latency_before = latency->count();
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i) futures.push_back(pool.Submit([] {}));
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(tasks->Value(), tasks_before + 20);
  EXPECT_EQ(latency->count(), latency_before + 20);
  // Every queued task was dequeued: the gauge is back to its baseline
  // (0 unless another pool is concurrently active — tests run serially).
  EXPECT_EQ(depth->Value(), 0);
}

}  // namespace
}  // namespace revere
