// querybench: the REVERE query-path benchmark (see README.md in this
// directory). One process runs one workload for a fixed wall-clock
// window against the library's public API, checks every answer, and
// prints its metrics as the last line of stdout:
//
//   querybench --workload lookup|bulk_join|overlay
//              --seed N --seconds S --trace 0|1
//              [--git-sha SHA] [--source-digest HEX]
//
// Every workload is a closed loop: one client sends its next request
// when the previous answer is back. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same load with a kFull obs::Tracer
// attached to every other 1 s segment (lookup) or answer (bulk_join,
// overlay) and reports the per-layer metrics. A wrong answer exits 1
// without printing metrics.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/datagen/topology.h"
#include "src/obs/trace.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/piazza/views.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/serve/server.h"
#include "src/storage/table.h"

#ifndef QB_BUILD_TYPE
#define QB_BUILD_TYPE "unknown"
#endif
#ifndef QB_COMPILER
#define QB_COMPILER "unknown"
#endif

namespace {

using revere::Rng;
using revere::ThreadPool;
using revere::datagen::AllCoursesQuery;
using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::obs::SpanRecord;
using revere::obs::Tracer;
using revere::piazza::ExecutionStats;
using revere::piazza::NetworkCostModel;
using revere::piazza::PdmsNetwork;
using revere::piazza::QualifiedName;
using revere::piazza::ReformulationOptions;
using revere::piazza::Updategram;
using revere::query::Atom;
using revere::query::ConjunctiveQuery;
using revere::query::QTerm;
using revere::storage::Row;
using revere::storage::Value;
using Clock = std::chrono::steady_clock;

// ---- Workload parameters (recorded in every run record) -------------

constexpr size_t kSetupReps = 3;         // set-ups per run; setup_s = median
constexpr double kWarmupSeconds = 1.0;   // unmeasured answers before the window
// End-to-end times are scaled to a host that runs the calibration in
// kCalibrationRefUs (see CalibrationUs).
constexpr size_t kCalibrationKeys = 2048;
constexpr double kCalibrationRefUs = 400.0;
constexpr auto kCalibrationEvery = std::chrono::milliseconds(100);
constexpr size_t kProbeRounds = 16;      // traced storage-probe rounds
constexpr double kWriteProbeSeconds = 0.5;  // untraced write-latency probe

constexpr size_t kLookupRowsPerPeer = 20000;
constexpr size_t kLookupHotSet = 256;
constexpr size_t kLookupBurst = 16;      // lookups in flight per round
constexpr double kLookupHotShare = 0.8;
constexpr double kZipfTheta = 0.9;

constexpr size_t kJoinRowsPerPeer = 200;

constexpr size_t kOverlayPeers = 1000;
constexpr size_t kOverlayRowsPerPeer = 20;
constexpr double kOverlayMaxPathCost = 3.0;
constexpr size_t kOverlayJoinEvery = 500;  // answers between peer joins
constexpr double kOverlayZipfTheta = 0.5;  // peers; spread over the overlay

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Keeps the compiler from discarding a value computed for timing.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Zipf(theta) ranks in [0, n) by inverse CDF over a precomputed table.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng* rng) const {
    double u = rng->UniformDouble();
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Order-independent answer fingerprint: row count plus an FNV fold of
/// the sorted per-row FNV hashes.
struct Digest {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

Digest DigestOf(const std::vector<Row>& rows) {
  std::vector<uint64_t> hashes;
  hashes.reserve(rows.size());
  for (const Row& row : rows) {
    uint64_t h = revere::Fnv1a64("");
    for (const Value& v : row) {
      h = revere::Fnv1a64(v.ToString(), h);
      h = revere::Fnv1a64("\x1f", h);
    }
    hashes.push_back(h);
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = revere::Fnv1a64("");
  for (uint64_t x : hashes) h = revere::HashStep(h, x);
  return {rows.size(), h};
}

/// The first wrong answer (or broken invariant) of a run; a run with a
/// failure exits nonzero instead of reporting.
struct Failure {
  bool failed = false;
  std::string what;
  void Set(std::string message) {
    if (!failed) what = std::move(message);
    failed = true;
  }
};

// ---- Trace folding --------------------------------------------------

/// Folds finished span trees out of a kFull tracer into per-name
/// self-time samples and per-answer summaries, then Clear()s the
/// tracer, so retention stays bounded however long the run. Self time
/// is wall time attributed to the deepest span active at each instant
/// (split evenly between concurrent deepest spans), so the self times
/// of one tree sum to its root's duration when every span nests inside
/// the root. Drain() must only be called while no answer is in flight.
class TraceFold {
 public:
  void Drain(Tracer* tracer) {
    std::vector<SpanRecord> records = tracer->Records();
    tracer->Clear();
    std::unordered_map<uint64_t, size_t> by_id;
    for (size_t i = 0; i < records.size(); ++i) by_id[records[i].id] = i;
    // Nothing is in flight, so every span's root has finished too.
    std::map<uint64_t, std::vector<size_t>> trees;
    for (size_t i = 0; i < records.size(); ++i) {
      size_t at = i;
      while (records[at].parent != 0) at = by_id.at(records[at].parent);
      trees[records[at].id].push_back(i);
    }
    for (const auto& [root_id, members] : trees) {
      FoldTree(records, members, by_id.at(root_id));
    }
  }

  /// Median self time (µs) of spans named `name`; 0 when none.
  double MedianSelfUs(const std::string& name) const {
    auto it = self_us_.find(name);
    return it == self_us_.end() ? 0.0 : Quantile(it->second, 0.5);
  }

  std::vector<double> reformulate_hit_us;   // reformulate span, cache hit
  std::vector<double> reformulate_miss_us;  // reformulate span, cache miss
  std::vector<double> evaluate_us;          // Σ evaluate spans per answer
  std::vector<double> evaluate_rows;        // Σ evaluate rows per answer
  double max_self_sum_dev = 0.0;            // max |Σ self / root − 1|
  size_t trees = 0;

 private:
  static double Attr(const SpanRecord& r, const char* key) {
    for (const auto& [k, v] : r.attrs) {
      if (k == key) return v;
    }
    return -1.0;
  }

  void FoldTree(const std::vector<SpanRecord>& records,
                const std::vector<size_t>& members, size_t root) {
    const size_t n = members.size();
    std::unordered_map<uint64_t, size_t> local;
    for (size_t i = 0; i < n; ++i) local[records[members[i]].id] = i;
    std::vector<int> depth(n, 0);
    for (size_t i = 0; i < n; ++i) {
      for (uint64_t p = records[members[i]].parent; p != 0;
           p = records[members[local.at(p)]].parent) {
        ++depth[i];
      }
    }
    std::vector<uint64_t> cuts;
    for (size_t m : members) {
      cuts.push_back(records[m].start_ns);
      cuts.push_back(records[m].start_ns + records[m].duration_ns);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<double> self_ns(n, 0.0);
    std::vector<size_t> deepest;
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      deepest.clear();
      int best = -1;
      for (size_t i = 0; i < n; ++i) {
        const SpanRecord& r = records[members[i]];
        if (r.start_ns > cuts[c] || r.start_ns + r.duration_ns < cuts[c + 1]) {
          continue;
        }
        if (depth[i] > best) {
          best = depth[i];
          deepest.clear();
        }
        if (depth[i] == best) deepest.push_back(i);
      }
      double share = static_cast<double>(cuts[c + 1] - cuts[c]) /
                     static_cast<double>(std::max<size_t>(1, deepest.size()));
      for (size_t i : deepest) self_ns[i] += share;
    }
    double sum_ns = 0.0;
    for (size_t i = 0; i < n; ++i) {
      self_us_[records[members[i]].name].push_back(self_ns[i] / 1000.0);
      sum_ns += self_ns[i];
    }
    const SpanRecord& top = records[root];
    if (top.name != "answer") return;
    ++trees;
    if (top.duration_ns > 0) {
      max_self_sum_dev = std::max(
          max_self_sum_dev,
          std::abs(sum_ns / static_cast<double>(top.duration_ns) - 1.0));
    }
    double eval_ns = 0.0, rows = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& r = records[members[i]];
      if (r.name == "evaluate") {
        eval_ns += static_cast<double>(r.duration_ns);
        rows += std::max(0.0, Attr(r, "rows"));
      } else if (r.name == "plan_cache") {
        const SpanRecord& reformulate = records[members[local.at(r.parent)]];
        double us = static_cast<double>(reformulate.duration_ns) / 1000.0;
        (Attr(r, "hit") > 0.5 ? reformulate_hit_us : reformulate_miss_us)
            .push_back(us);
      }
    }
    evaluate_us.push_back(eval_ns / 1000.0);
    evaluate_rows.push_back(rows);
  }

  std::map<std::string, std::vector<double>> self_us_;
};

// ---- Per-run sample log ---------------------------------------------

/// Everything one arm (traced or untraced) of a run measured.
struct AnswerLog {
  std::vector<double> latency_us;
  std::vector<double> queue_wait_us, service_us;  // lookup only
  uint64_t attempted = 0, failed = 0, shed = 0;
  uint64_t hits = 0, misses = 0;
  double miss_nodes = 0, miss_pruned_cost = 0, miss_pruned_redundant = 0;
  double rewritings = 0;

  void Record(double us) { latency_us.push_back(us); }

  void AddStats(const ExecutionStats& s) {
    hits += s.plan_cache_hits;
    misses += s.plan_cache_misses;
    rewritings += static_cast<double>(s.reformulation.rewritings);
    if (s.plan_cache_misses > 0) {
      miss_nodes += static_cast<double>(s.reformulation.nodes_expanded);
      miss_pruned_cost += static_cast<double>(s.reformulation.pruned_cost);
      miss_pruned_redundant +=
          static_cast<double>(s.reformulation.pruned_redundant);
    }
  }

  uint64_t answers() const { return hits + misses; }

  /// Bytes held by the per-answer sample vectors.
  size_t SampleBytes() const {
    return (latency_us.capacity() + queue_wait_us.capacity() +
            service_us.capacity()) *
           sizeof(double);
  }

  /// Adds `o`'s samples and counters.
  void Merge(const AnswerLog& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    queue_wait_us.insert(queue_wait_us.end(), o.queue_wait_us.begin(),
                         o.queue_wait_us.end());
    service_us.insert(service_us.end(), o.service_us.begin(),
                      o.service_us.end());
    attempted += o.attempted;
    failed += o.failed;
    shed += o.shed;
    hits += o.hits;
    misses += o.misses;
    miss_nodes += o.miss_nodes;
    miss_pruned_cost += o.miss_pruned_cost;
    miss_pruned_redundant += o.miss_pruned_redundant;
    rewritings += o.rewritings;
  }
};

// ---- Storage probe (every workload, after the measured window) ------

/// One ChurnGram-shaped updategram (bench_mvcc): inserts three fresh
/// rows and deletes the three the previous round inserted. Ids carry a
/// `tag` prefix that no generated course id has, so they never answer
/// a lookup.
Updategram ChurnGram(const std::string& tag, const std::string& rel,
                     uint64_t round) {
  Updategram u;
  u.relation = rel;
  for (int j = 0; j < 3; ++j) {
    std::string suffix = "_" + std::to_string(j);
    u.inserts.push_back({Value(tag + std::to_string(round) + suffix),
                         Value("Churn Title"), Value("writer")});
    if (round > 0) {
      u.deletes.push_back({Value(tag + std::to_string(round - 1) + suffix),
                           Value("Churn Title"), Value("writer")});
    }
  }
  return u;
}

/// Per-version storage costs on `rel`. Traced (the per-layer run), each
/// of kProbeRounds rounds pins 1000 times, applies one updategram while
/// holding the old head pinned, runs the first index lookup and the
/// columnar build on the fresh version, then drops the old pin (which
/// reclaims the old version), each under its own span. Untraced, it
/// only applies updategrams under a held pin for kWriteProbeSeconds,
/// for the write latency. ApplyToBase wall times go to `apply_us`, the
/// number of versions the updategrams published to `versions`.
void StorageProbe(PdmsNetwork* net, const std::string& rel, Tracer* tracer,
                  std::vector<double>* apply_us, uint64_t* versions,
                  Failure* failure) {
  auto table = net->storage().GetTable(rel);
  if (!table.ok()) {
    failure->Set("probe: missing table " + rel);
    return;
  }
  const revere::storage::Table* t = table.value();
  const uint64_t generation_before = t->generation();
  const bool derived = tracer != nullptr;
  const Clock::time_point until =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<int64_t>(kWriteProbeSeconds * 1000));
  for (uint64_t round = 0;
       derived ? round < kProbeRounds : Clock::now() < until; ++round) {
    if (derived) {
      revere::obs::Span span = tracer->StartSpan("pin_x1000");
      for (int i = 0; i < 1000; ++i) Keep(t->Snapshot());
    }
    auto old_head = t->Snapshot();
    {
      revere::obs::Span span = revere::obs::StartSpan(tracer, "apply_to_base");
      auto start = Clock::now();
      revere::Status st = revere::piazza::ApplyToBase(
          net->mutable_storage(), ChurnGram("probe", rel, round));
      apply_us->push_back(Us(Clock::now() - start));
      if (!st.ok()) failure->Set("probe: ApplyToBase: " + st.ToString());
    }
    if (derived) {
      revere::obs::Span build = tracer->StartSpan("index_build");
      Keep(t->LookupIndices(0, Value("probe" + std::to_string(round) + "_0")));
      build.Finish();
      revere::obs::Span columnar = tracer->StartSpan("ensure_columnar");
      Keep(t->EnsureColumnar());
    }
    revere::obs::Span span = revere::obs::StartSpan(tracer, "pin_release");
    old_head.reset();
  }
  *versions = t->generation() - generation_before;
}

/// Times EvaluateUnion over `rewritings` (the P3-style layer number;
/// PdmsNetwork::Answer does not call it) and checks its answer.
void UnionProbe(const PdmsNetwork& net,
                const std::vector<ConjunctiveQuery>& rewritings,
                const revere::query::EvalOptions& eval, const Digest& want,
                Tracer* tracer, Failure* failure) {
  auto start = Clock::now();
  for (int rep = 0; rep < 200; ++rep) {
    revere::obs::Span span = revere::obs::StartSpan(tracer, "evaluate_union");
    auto rows = revere::query::EvaluateUnion(net.storage(), rewritings, eval);
    span.Finish();
    if (!rows.ok() || !(DigestOf(rows.value()) == want)) {
      failure->Set("EvaluateUnion answer differs from the reference");
      return;
    }
    if (rep >= 4 && Seconds(Clock::now() - start) > 0.5) break;
  }
}

/// Bytes the allocator has handed out and not taken back, over all
/// arenas: the live heap, insensitive to how much freed memory the
/// allocator keeps resident.
double HeapMb() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- Run context and report -----------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Metrics in insertion order, printed with every digit measured.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.emplace_back(name, value, unit);
  }
  std::string Json() const {
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << buf
          << ", \"unit\": \"" << unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

/// What every workload hands back to main().
struct RunResult {
  Failure failure;
  std::vector<double> setup_s;
  std::vector<double> calibration_us;   // every kCalibrationEvery of the loop
  AnswerLog untraced;      // end-to-end numbers (trace 0) / A arm (trace 1)
  AnswerLog traced;        // trace 1 only
  TraceFold fold;          // trace 1 only
  std::vector<double> write_us;         // storage probe ApplyToBase times
  uint64_t versions_published = 0;      // by the traced storage probe
  double heap_mb = 0, rss_mb = 0;  // at the end of the run, world alive
  double concurrency = 1;          // threads that answer (serve workers)
  std::map<std::string, std::string> params;
};

/// Live heap and resident set at the end of the run, world alive. The
/// heap leaves out the benchmark's own per-answer samples, which grow
/// with the answer rate and jump where a vector doubles.
void MeasureMemory(RunResult* result) {
  size_t samples = result->untraced.SampleBytes() + result->traced.SampleBytes();
  result->heap_mb = HeapMb() - static_cast<double>(samples) / (1024.0 * 1024.0);
  result->rss_mb = RssMb();
}

/// Runs `build` kSetupReps times (dropping each world before the next
/// is built) and keeps the last one; every set-up's wall time lands in
/// `setup_s`.
template <typename World>
std::unique_ptr<World> SetUp(
    const std::function<std::unique_ptr<World>(Failure*)>& build,
    RunResult* result) {
  std::unique_ptr<World> world;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    auto start = Clock::now();
    world = build(&result->failure);
    result->setup_s.push_back(Seconds(Clock::now() - start));
    if (world == nullptr || result->failure.failed) return nullptr;
  }
  return world;
}

// ---- lookup: closed loop through RevereServer -----------------------

struct LookupWorld {
  PdmsNetwork net;
  PdmsGenReport report;
  std::vector<std::string> relations;           // qualified, one per peer
  std::vector<std::pair<std::string, Row>> ids;  // shuffled; first = hot set
  std::vector<ConjunctiveQuery> hot_queries;
};

ConjunctiveQuery PointLookup(const std::string& rel, const std::string& id) {
  return ConjunctiveQuery(
      "q", {QTerm::Var("T"), QTerm::Var("P")},
      {Atom{rel, {QTerm::Const(id), QTerm::Var("T"), QTerm::Var("P")}}});
}

std::unique_ptr<LookupWorld> BuildLookup(uint64_t seed, Failure* failure) {
  auto w = std::make_unique<LookupWorld>();
  PdmsGenOptions options;
  options.topology = Topology::kFigure2;
  options.rows_per_peer = kLookupRowsPerPeer;
  options.seed = seed;
  auto report = BuildUniversityPdms(&w->net, options);
  if (!report.ok()) {
    failure->Set("BuildUniversityPdms: " + report.status().ToString());
    return nullptr;
  }
  w->report = report.value();
  for (size_t i = 0; i < w->report.peer_names.size(); ++i) {
    std::string rel =
        QualifiedName(w->report.peer_names[i], w->report.relation_names[i]);
    w->relations.push_back(rel);
    auto snap = w->net.storage().GetTable(rel).value()->Snapshot();
    for (size_t r = 0; r < snap->size(); ++r) {
      const Row& row = snap->row(r);
      w->ids.emplace_back(row[0].as_string(), Row{row[1], row[2]});
    }
  }
  Rng rng(seed ^ 0x51ed270b27a1f3c5ULL);
  rng.Shuffle(&w->ids);
  // Warm the hot set once (plan cache, per-version indexes), the state
  // a long-running portal is in.
  for (size_t i = 0; i < kLookupHotSet; ++i) {
    w->hot_queries.push_back(PointLookup(w->relations[0], w->ids[i].first));
    revere::serve::ServeOptions defaults;
    auto rows = w->net.Answer(w->hot_queries.back(), defaults.reform, nullptr,
                              defaults.cost);
    if (!rows.ok() || rows.value() != std::vector<Row>{w->ids[i].second}) {
      failure->Set("warm-up lookup " + w->ids[i].first + " is wrong");
      return nullptr;
    }
  }
  return w;
}

/// The lookup request stream: 80% Zipf over the hot set, 20% one-off
/// ids taken in order from the rest (each misses the plan cache).
class LookupStream {
 public:
  LookupStream(const LookupWorld* w, uint64_t seed)
      : w_(w), rng_(seed ^ 0x2545f4914f6cdd1dULL),
        zipf_(kLookupHotSet, kZipfTheta) {}

  /// Next request's query and expected answer row.
  std::pair<ConjunctiveQuery, const Row*> Next() {
    if (rng_.UniformDouble() < kLookupHotShare) {
      size_t i = zipf_.Sample(&rng_);
      return {w_->hot_queries[i], &w_->ids[i].second};
    }
    size_t i = kLookupHotSet + next_cold_;
    next_cold_ = (next_cold_ + 1) % (w_->ids.size() - kLookupHotSet);
    return {PointLookup(w_->relations[0], w_->ids[i].first),
            &w_->ids[i].second};
  }

 private:
  const LookupWorld* w_;
  Rng rng_;
  ZipfSampler zipf_;
  size_t next_cold_ = 0;
};

/// One round of kLookupBurst lookups submitted together through
/// `server`, each recorded in `log`. A lookup's latency is its service
/// time, Answer on the worker, as `ServeResult` reports it. Its queue
/// wait is mostly the rest of its own round plus thread wake-ups, which
/// on a shared host swung the round time 2x between runs; it stays a
/// serve metric of the traced run.
void ServeLookups(revere::serve::RevereServer* server, LookupStream* stream,
                  AnswerLog* log, Failure* failure) {
  std::vector<std::pair<std::future<revere::serve::ServeResult>, const Row*>>
      replies;
  for (size_t i = 0; i < kLookupBurst; ++i) {
    auto [query, expected] = stream->Next();
    revere::serve::ServeRequest request;
    request.query = std::move(query);
    replies.emplace_back(server->Submit(std::move(request)), expected);
  }
  for (auto& [reply, expected] : replies) {
    revere::serve::ServeResult r = reply.get();
    ++log->attempted;
    if (r.shed) ++log->shed;
    if (r.shed || !r.status.ok()) {
      ++log->failed;
      continue;
    }
    log->Record(r.service_us);
    log->queue_wait_us.push_back(r.queue_wait_us);
    log->service_us.push_back(r.service_us);
    log->AddStats(r.stats);
    if (r.rows.size() != 1 || r.rows[0] != *expected) {
      failure->Set("lookup returned " + std::to_string(r.rows.size()) +
                   " rows, not the generated row");
    }
  }
}

/// A fixed piece of work shaped like the library's (hashing strings,
/// probing a hash table, sorting) on data built once, so it allocates
/// nothing and depends on neither the library nor the seed. It runs
/// twice and times the second pass, whose data sits in this core's
/// caches whatever the workload did before. So its time tracks how fast
/// the host runs this core, not the workload's own cache footprint.
double CalibrationUs() {
  struct Data {
    std::vector<std::string> keys;
    std::unordered_map<std::string, size_t> table;
    std::vector<uint64_t> hashes;
    Data() {
      for (size_t i = 0; i < kCalibrationKeys; ++i) {
        keys.push_back("course-" + std::to_string(i * 2654435761u % 1000003));
        table.emplace(keys.back(), i);
      }
      hashes.resize(kCalibrationKeys);
    }
  };
  static Data data;
  auto pass = [] {
    size_t sum = 0;
    for (size_t i = 0; i < kCalibrationKeys; ++i) {
      const std::string& key = data.keys[(i * 7919) % kCalibrationKeys];
      sum += data.table.find(key)->second;
      data.hashes[i] = revere::Fnv1a64(key);
    }
    std::sort(data.hashes.begin(), data.hashes.end());
    Keep(sum);
    Keep(data.hashes[0]);
  };
  pass();
  auto start = Clock::now();
  pass();
  return Us(Clock::now() - start);
}

/// Closed loop: one client calls `answer` back to back until `seconds`
/// pass; each call records its requests in the log it is given. Every
/// kCalibrationEvery, between calls, the calibration runs once. With a tracer, every call (or,
/// `every_other`, every second one) is traced and its spans are folded
/// right after it returns.
template <typename AnswerFn>
void RunClosedLoop(double seconds, Tracer* tracer, bool every_other,
                   RunResult* result, AnswerFn answer) {
  const Clock::time_point end =
      Clock::now() +
      std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  Clock::time_point next_calibration = Clock::now();
  for (uint64_t i = 0; !result->failure.failed; ++i) {
    Clock::time_point t0 = Clock::now();
    if (t0 >= end) break;
    if (t0 >= next_calibration) {
      result->calibration_us.push_back(CalibrationUs());
      next_calibration = t0 + kCalibrationEvery;
    }
    bool traced = tracer != nullptr && (!every_other || i % 2 == 1);
    AnswerLog* log = traced ? &result->traced : &result->untraced;
    answer(i, traced ? tracer : nullptr, log);
    if (traced) result->fold.Drain(tracer);
  }
}

/// Runs `answer` in a closed loop for kWarmupSeconds and drops what it
/// measured, so the window starts on warm caches and CPU frequency.
template <typename AnswerFn>
void WarmUp(AnswerFn answer) {
  RunResult discard;
  RunClosedLoop(kWarmupSeconds, nullptr, false, &discard, answer);
}

void RunLookup(const Options& opt, RunResult* result) {
  result->params = {{"peers", "6 (Figure 2)"},
                    {"rows_per_peer", std::to_string(kLookupRowsPerPeer)},
                    {"clients", "1 (closed loop, " + std::to_string(kLookupBurst) +
                                    " lookups in flight)"},
                    {"hot_set", std::to_string(kLookupHotSet)},
                    {"hot_share", std::to_string(kLookupHotShare)},
                    {"zipf_theta", std::to_string(kZipfTheta)},
                    {"serve_workers", "2 (ServeOptions default)"}};
  auto world = SetUp<LookupWorld>(
      [&](Failure* f) { return BuildLookup(opt.seed, f); }, result);
  if (world == nullptr) return;
  LookupWorld& w = *world;
  LookupStream stream(&w, opt.seed);
  result->concurrency =
      static_cast<double>(revere::serve::ServeOptions().workers);
  {
    revere::serve::RevereServer server(&w.net, revere::serve::ServeOptions());
    WarmUp([&](uint64_t, Tracer*, AnswerLog* log) {
      ServeLookups(&server, &stream, log, &result->failure);
    });
  }
  // Traced, alternate untraced and traced 1 s segments, each on a fresh
  // server (the tracer rides in ServeOptions::cost); the plan cache and
  // tables persist in the network across segments.
  Tracer tracer(revere::obs::TraceMode::kFull);
  const size_t segments =
      opt.trace ? std::max<size_t>(2, static_cast<size_t>(opt.seconds)) : 1;
  for (size_t s = 0; s < segments && !result->failure.failed; ++s) {
    bool traced = opt.trace && s % 2 == 1;
    revere::serve::ServeOptions options;
    if (traced) options.cost.tracer = &tracer;
    revere::serve::RevereServer server(&w.net, options);
    RunClosedLoop(opt.seconds / static_cast<double>(segments),
                  traced ? &tracer : nullptr, false, result,
                  [&](uint64_t, Tracer*, AnswerLog* log) {
                    ServeLookups(&server, &stream, log, &result->failure);
                  });
  }

  // After the window: traced, the union layer number on the hottest
  // lookup's rewritings; then the storage probe.
  Tracer probe_tracer(revere::obs::TraceMode::kFull);
  Tracer* pt = opt.trace ? &probe_tracer : nullptr;
  if (opt.trace) {
    auto rewritings = w.net.Reformulate(w.hot_queries[0]);
    if (rewritings.ok()) {
      UnionProbe(w.net, rewritings.value(), {}, DigestOf({w.ids[0].second}),
                 pt, &result->failure);
    }
  }
  StorageProbe(&w.net, w.relations[0], pt, &result->write_us,
               &result->versions_published, &result->failure);
  if (opt.trace) result->fold.Drain(pt);
  MeasureMemory(result);
}

// ---- bulk_join: closed loop, one client, pooled evaluation ----------

struct JoinWorld {
  PdmsNetwork net;
  ConjunctiveQuery query;
  std::vector<ConjunctiveQuery> rewritings;
  Digest reference;
  std::unique_ptr<ThreadPool> pool;
  NetworkCostModel cost;
};

size_t PoolWorkers() {
  size_t n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

std::unique_ptr<JoinWorld> BuildJoin(uint64_t seed, Failure* failure) {
  auto w = std::make_unique<JoinWorld>();
  PdmsGenOptions options;
  options.topology = Topology::kFigure2;
  options.rows_per_peer = kJoinRowsPerPeer;
  options.seed = seed;
  auto report = BuildUniversityPdms(&w->net, options);
  if (!report.ok()) {
    failure->Set("BuildUniversityPdms: " + report.status().ToString());
    return nullptr;
  }
  std::string rel = QualifiedName(report.value().peer_names[0],
                                  report.value().relation_names[0]);
  w->query = ConjunctiveQuery(
      "q", {QTerm::Var("X"), QTerm::Var("Y")},
      {Atom{rel, {QTerm::Var("X"), QTerm::Var("T"), QTerm::Var("A")}},
       Atom{rel, {QTerm::Var("Y"), QTerm::Var("T"), QTerm::Var("B")}}});
  auto rewritings = w->net.Reformulate(w->query);
  if (!rewritings.ok()) {
    failure->Set("Reformulate: " + rewritings.status().ToString());
    return nullptr;
  }
  w->rewritings = rewritings.value();
  // The reference comes from the map engine, the library's naive
  // evaluator, never from the engine under test.
  revere::query::EvalOptions reference;
  reference.engine = revere::query::EvalEngine::kMap;
  auto rows = revere::query::EvaluateUnion(w->net.storage(), w->rewritings,
                                           reference);
  if (!rows.ok()) {
    failure->Set("reference union: " + rows.status().ToString());
    return nullptr;
  }
  w->reference = DigestOf(rows.value());
  w->pool = std::make_unique<ThreadPool>(PoolWorkers());
  w->cost.eval.pool = w->pool.get();
  auto warm = w->net.Answer(w->query, {}, nullptr, w->cost);
  if (!warm.ok() || !(DigestOf(warm.value()) == w->reference)) {
    failure->Set("warm-up join answer differs from the map-engine reference");
    return nullptr;
  }
  return w;
}

void RunBulkJoin(const Options& opt, RunResult* result) {
  result->params = {{"peers", "6 (Figure 2)"},
                    {"rows_per_peer", std::to_string(kJoinRowsPerPeer)},
                    {"clients", "1 (closed loop)"},
                    {"pool_workers", std::to_string(PoolWorkers())}};
  auto world = SetUp<JoinWorld>(
      [&](Failure* f) { return BuildJoin(opt.seed, f); }, result);
  if (world == nullptr) return;
  JoinWorld& w = *world;
  result->params["rows_per_answer"] = std::to_string(w.reference.rows);
  auto answer = [&](uint64_t, Tracer* t, AnswerLog* log) {
    NetworkCostModel cost = w.cost;
    cost.tracer = t;
    ExecutionStats stats;
    auto start = Clock::now();
    auto rows = w.net.Answer(w.query, {}, &stats, cost);
    ++log->attempted;
    log->Record(Us(Clock::now() - start));
    if (!rows.ok()) {
      ++log->failed;
      return;
    }
    log->AddStats(stats);
    if (!(DigestOf(rows.value()) == w.reference)) {
      result->failure.Set("join answer differs from the reference");
    }
  };
  WarmUp(answer);
  Tracer tracer(revere::obs::TraceMode::kFull);
  RunClosedLoop(opt.seconds, opt.trace ? &tracer : nullptr, true, result,
                answer);
  if (opt.trace) {
    // The same rewritings and pool as Answer, before the probe writes.
    UnionProbe(w.net, w.rewritings, w.cost.eval, w.reference, &tracer,
               &result->failure);
  }
  StorageProbe(&w.net, w.query.body()[0].relation,
               opt.trace ? &tracer : nullptr, &result->write_us,
               &result->versions_published, &result->failure);
  if (opt.trace) result->fold.Drain(&tracer);
  MeasureMemory(result);
}

// ---- overlay: 1000-peer small world, route search, peer churn -------

struct OverlayWorld {
  PdmsNetwork net;
  PdmsGenReport report;
  ReformulationOptions options;
  std::vector<ConjunctiveQuery> queries;  // all-courses, one per peer
  std::vector<Digest> reference;          // cache-off answer per peer
  std::vector<size_t> peer_of_rank;       // Zipf rank -> peer
};

std::unique_ptr<OverlayWorld> BuildOverlay(uint64_t seed, Failure* failure) {
  auto w = std::make_unique<OverlayWorld>();
  PdmsGenOptions gen;
  gen.topology = Topology::kSmallWorld;
  gen.peers = kOverlayPeers;
  gen.rows_per_peer = kOverlayRowsPerPeer;
  gen.seed = seed;
  auto report = BuildUniversityPdms(&w->net, gen);
  if (!report.ok()) {
    failure->Set("BuildUniversityPdms: " + report.status().ToString());
    return nullptr;
  }
  w->report = report.value();
  w->options.use_route_search = true;
  w->options.max_path_cost = kOverlayMaxPathCost;
  w->options.prune_redundant_paths = true;
  ReformulationOptions uncached = w->options;
  uncached.use_plan_cache = false;
  for (size_t p = 0; p < kOverlayPeers; ++p) {
    w->queries.push_back(AllCoursesQuery(w->report, p));
    auto rows = w->net.Answer(w->queries.back(), uncached);
    if (!rows.ok()) {
      failure->Set("reference answer: " + rows.status().ToString());
      return nullptr;
    }
    w->reference.push_back(DigestOf(rows.value()));
    // Warm the plan cache with every peer's plan.
    if (!w->net.Reformulate(w->queries.back(), w->options).ok()) {
      failure->Set("warm-up reformulation failed");
      return nullptr;
    }
  }
  w->peer_of_rank.resize(kOverlayPeers);
  std::iota(w->peer_of_rank.begin(), w->peer_of_rank.end(), 0);
  Rng rng(seed ^ 0x6a09e667f3bcc909ULL);
  rng.Shuffle(&w->peer_of_rank);
  return w;
}

/// A new peer maps its course relation onto `attach`. The relation is
/// declared but stores nothing, so reformulation prunes it as
/// unproductive: churn invalidates the plans around `attach` but
/// changes neither the answers nor the rewritings per answer, and the
/// workload does not grow with the number of joins.
revere::Status JoinPeer(OverlayWorld* w, size_t serial, size_t attach) {
  std::string name = "joiner" + std::to_string(serial);
  auto peer = w->net.AddPeer(name);
  if (!peer.ok()) return peer.status();
  peer.value()->DeclarePeerRelation("course", 3);
  auto source = ConjunctiveQuery::Parse("m(I, T, P) :- " +
                                        QualifiedName(name, "course") +
                                        "(I, T, P)");
  auto target = ConjunctiveQuery::Parse(
      "m(I, T, P) :- " +
      QualifiedName(w->report.peer_names[attach],
                    w->report.relation_names[attach]) +
      "(I, T, P)");
  if (!source.ok()) return source.status();
  if (!target.ok()) return target.status();
  return w->net.AddMapping(revere::piazza::PeerMapping{
      {name + "-join", source.value(), target.value()},
      name,
      w->report.peer_names[attach],
      true});
}

void RunOverlay(const Options& opt, RunResult* result) {
  result->params = {{"peers", std::to_string(kOverlayPeers) + " (small world)"},
                    {"rows_per_peer", std::to_string(kOverlayRowsPerPeer)},
                    {"clients", "1 (closed loop)"},
                    {"zipf_theta", std::to_string(kOverlayZipfTheta)},
                    {"max_path_cost", std::to_string(kOverlayMaxPathCost)},
                    {"join_every_answers", std::to_string(kOverlayJoinEvery)}};
  auto world = SetUp<OverlayWorld>(
      [&](Failure* f) { return BuildOverlay(opt.seed, f); }, result);
  if (world == nullptr) return;
  OverlayWorld& w = *world;
  Rng rng(opt.seed ^ 0xbb67ae8584caa73bULL);
  ZipfSampler zipf(kOverlayPeers, kOverlayZipfTheta);
  size_t joins = 0;
  auto answer = [&](uint64_t i, Tracer* t, AnswerLog* log) {
    if (i > 0 && i % kOverlayJoinEvery == 0) {
      // Structural changes happen between answers.
      revere::Status st = JoinPeer(&w, joins, (joins * 13) % kOverlayPeers);
      ++joins;
      if (!st.ok()) result->failure.Set("join: " + st.ToString());
    }
    size_t peer = w.peer_of_rank[zipf.Sample(&rng)];
    NetworkCostModel cost;
    cost.tracer = t;
    ExecutionStats stats;
    auto start = Clock::now();
    auto rows = w.net.Answer(w.queries[peer], w.options, &stats, cost);
    ++log->attempted;
    log->Record(Us(Clock::now() - start));
    if (!rows.ok()) {
      ++log->failed;
      return;
    }
    log->AddStats(stats);
    if (!(DigestOf(rows.value()) == w.reference[peer])) {
      result->failure.Set("overlay answer at peer " + std::to_string(peer) +
                          " differs from its set-up reference");
    }
  };
  WarmUp(answer);
  Tracer tracer(revere::obs::TraceMode::kFull);
  RunClosedLoop(opt.seconds, opt.trace ? &tracer : nullptr, true, result,
                answer);
  result->params["peers_joined"] = std::to_string(joins);
  if (opt.trace) {
    // Union layer number on peer 0's plan, before the probe writes.
    auto rewritings = w.net.Reformulate(w.queries[0], w.options);
    if (rewritings.ok()) {
      UnionProbe(w.net, rewritings.value(), {}, w.reference[0], &tracer,
                 &result->failure);
    }
  }
  StorageProbe(&w.net, w.queries[0].body()[0].relation,
               opt.trace ? &tracer : nullptr, &result->write_us,
               &result->versions_published, &result->failure);
  if (opt.trace) result->fold.Drain(&tracer);
  MeasureMemory(result);
}

// ---- main -----------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: querybench --workload lookup|bulk_join|overlay "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
               "[--source-digest HEX]\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else if (flag == "--source-digest") {
      opt.source_digest = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(opt.seconds > 0)) return Usage();
  if (std::string(QB_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "querybench: refusing to report from a %s build\n",
                 QB_BUILD_TYPE);
    return 1;
  }

  RunResult result;
  if (opt.workload == "lookup") {
    RunLookup(opt, &result);
  } else if (opt.workload == "bulk_join") {
    RunBulkJoin(opt, &result);
  } else if (opt.workload == "overlay") {
    RunOverlay(opt, &result);
  } else {
    return Usage();
  }
  if (result.failure.failed) {
    std::fprintf(stderr, "querybench: %s: FAILED: %s\n", opt.workload.c_str(),
                 result.failure.what.c_str());
    return 1;
  }

  const AnswerLog& u = result.untraced;
  AnswerLog all = u;
  all.Merge(result.traced);
  double p50 = Quantile(u.latency_us, 0.5);
  // p90, not p99: host wake-up hiccups of a few ms reach 1% to over 5%
  // of requests depending on the neighbours' load, so p95 and p99
  // swung by 40-120% between runs; p90 stays inside the program's own
  // slow path (plan-cache misses, reformulation after a join).
  double p90 = Quantile(u.latency_us, 0.90);
  double p99 = Quantile(u.latency_us, 0.99);
  // Answers per second while `concurrency` threads answer back to back.
  double latency_s =
      std::accumulate(u.latency_us.begin(), u.latency_us.end(), 0.0) / 1e6;
  double rate = latency_s > 0 ? result.concurrency *
                                    static_cast<double>(u.latency_us.size()) /
                                    latency_s
                              : 0.0;
  double setup_s = Quantile(result.setup_s, 0.5);
  // Other tenants of a shared host slow its cores by up to half for
  // minutes at a time, and the CPU time per answer moves with them, so
  // no clock hides it. The calibration slows with them, so the reported
  // times are scaled by kCalibrationRefUs over its median time in this
  // run. The run record keeps the raw numbers.
  double calibration_us = Quantile(result.calibration_us, 0.5);
  double scale = calibration_us > 0 ? kCalibrationRefUs / calibration_us : 0;

  // Run record: everything needed to reproduce or disqualify the run.
  std::ostringstream record;
  record << "{\"run_record\": {\"workload\": " << JsonString(opt.workload)
         << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
         << ", \"trace\": " << (opt.trace ? 1 : 0)
         << ", \"git_sha\": " << JsonString(opt.git_sha)
         << ", \"source_digest\": " << JsonString(opt.source_digest)
         << ", \"build_type\": " << JsonString(QB_BUILD_TYPE)
         << ", \"compiler\": " << JsonString(QB_COMPILER)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"params\": {";
  bool first = true;
  for (const auto& [k, v] : result.params) {
    record << (first ? "" : ", ") << JsonString(k) << ": " << JsonString(v);
    first = false;
  }
  record << "}, \"calibration_us\": " << calibration_us
         << ", \"calibrations\": " << result.calibration_us.size()
         << ", \"raw\": {\"setup_s\": " << setup_s
         << ", \"answer_p50_us\": " << p50 << ", \"answer_p90_us\": " << p90
         << ", \"answers_per_s\": " << rate << "}"
         << ", \"write_p50_us\": " << Quantile(result.write_us, 0.5)
         << ", \"write_p90_us\": " << Quantile(result.write_us, 0.9)
         << ", \"answer_p99_us\": " << p99
         << ", \"answers\": " << all.attempted
         << ", \"rss_mb\": " << result.rss_mb
         << ", \"setup_s\": [";
  for (size_t i = 0; i < result.setup_s.size(); ++i) {
    record << (i ? ", " : "") << result.setup_s[i];
  }
  record << "]}}";
  std::printf("%s\n", record.str().c_str());
  Report report;
  if (!opt.trace) {
    report.Set("setup_s", setup_s * scale, "s");
    report.Set("answer_p50_us", p50 * scale, "us");
    report.Set("answer_p90_us", p90 * scale, "us");
    report.Set("answers_per_s", rate / scale, "1/s");
    report.Set("heap_mb", result.heap_mb, "MB");
  } else {
    const TraceFold& f = result.fold;
    double misses = static_cast<double>(all.misses);
    auto per_miss = [&](double total) { return misses > 0 ? total / misses : 0.0; };
    report.Set("serve.queue_wait_us.p50", Quantile(all.queue_wait_us, 0.5), "us");
    report.Set("serve.queue_wait_us.p99", Quantile(all.queue_wait_us, 0.99), "us");
    report.Set("serve.service_us.p50", Quantile(all.service_us, 0.5), "us");
    report.Set("serve.service_us.p99", Quantile(all.service_us, 0.99), "us");
    report.Set("serve.shed", static_cast<double>(all.shed), "count");
    report.Set("piazza.plan_cache.hit_rate",
               all.answers() ? static_cast<double>(all.hits) /
                                   static_cast<double>(all.answers())
                             : 0.0,
               "ratio");
    report.Set("piazza.reformulate_us.hit", Quantile(f.reformulate_hit_us, 0.5), "us");
    report.Set("piazza.reformulate_us.miss", Quantile(f.reformulate_miss_us, 0.5), "us");
    report.Set("piazza.reformulate.nodes_expanded", per_miss(all.miss_nodes), "count");
    report.Set("piazza.rewritings_per_answer",
               all.answers() ? all.rewritings / static_cast<double>(all.answers())
                             : 0.0,
               "count");
    report.Set("piazza.merge_us", f.MedianSelfUs("answer"), "us");
    report.Set("route.pruned_cost", per_miss(all.miss_pruned_cost), "count");
    report.Set("route.pruned_redundant", per_miss(all.miss_pruned_redundant), "count");
    report.Set("query.evaluate_us", Quantile(f.evaluate_us, 0.5), "us");
    report.Set("query.evaluate_rows", Quantile(f.evaluate_rows, 0.5), "count");
    report.Set("query.union_us", f.MedianSelfUs("evaluate_union"), "us");
    report.Set("storage.pin_ns", f.MedianSelfUs("pin_x1000"), "ns");
    report.Set("storage.apply_us", f.MedianSelfUs("apply_to_base"), "us");
    report.Set("storage.release_us", f.MedianSelfUs("pin_release"), "us");
    report.Set("storage.versions_published",
               static_cast<double>(result.versions_published), "count");
    report.Set("storage.index_build_us", f.MedianSelfUs("index_build"), "us");
    report.Set("storage.columnar_build_us", f.MedianSelfUs("ensure_columnar"), "us");
    double untraced_p50 = Quantile(u.latency_us, 0.5);
    report.Set("obs.trace_overhead",
               untraced_p50 > 0 ? Quantile(result.traced.latency_us, 0.5) / untraced_p50
                                : 0.0,
               "ratio");
    report.Set("obs.self_sum_max_dev", f.max_self_sum_dev, "ratio");
    report.Set("obs.answer_trees", static_cast<double>(f.trees), "count");
  }
  uint64_t attempted = all.attempted;
  uint64_t failed = all.failed;
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), report.Json().c_str());
  return 0;
}
