// Shared main() for every bench_* binary: standard google-benchmark
// flags plus `--json <path>` (or --json=<path>), which appends one
// machine-readable JSON line per run via JsonLinesReporter so bench
// trajectories can be tracked across PRs, `--metrics <path>` (or
// --metrics=<path>), which dumps the process-wide obs::MetricsRegistry
// as JSONL after the benchmarks finish, and `--engine <name>` (or
// --engine=<name>), which restricts the run to benchmarks registered
// with an `engine_<name>` suffix (the convention the evaluation-engine
// sweeps use) by installing the matching --benchmark_filter.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/json_lines_reporter.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"

int main(int argc, char** argv) {
  std::string json_path;
  std::string metrics_path;
  std::string engine;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg == "--engine" && i + 1 < argc) {
      engine = argv[++i];
    } else if (arg.rfind("--engine=", 0) == 0) {
      engine = arg.substr(9);
    } else {
      args.push_back(argv[i]);
    }
  }
  // Benchmark names carry the engine as an `engine_<name>` suffix, so
  // the sweep reduces to a name filter. Last flag wins if the caller
  // also passes an explicit --benchmark_filter. Unknown names are an
  // error — a typo'd filter would otherwise silently run nothing.
  static const std::vector<std::string> kEngines = {"map", "columnar"};
  std::string engine_filter;
  if (!engine.empty()) {
    bool known = false;
    for (const std::string& e : kEngines) known = known || e == engine;
    if (!known) {
      std::fprintf(stderr, "unknown --engine '%s'; expected one of:",
                   engine.c_str());
      for (const std::string& e : kEngines) {
        std::fprintf(stderr, " %s", e.c_str());
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
    engine_filter = "--benchmark_filter=engine_" + engine + "$";
    args.push_back(engine_filter.data());
  }
  bool format_flag = false;
  for (char* arg : args) {
    if (std::string(arg).rfind("--benchmark_format", 0) == 0) {
      format_flag = true;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (json_path.empty() && format_flag) {
    // Let --benchmark_format=csv/json pick the display reporter; our
    // console-based reporter would override it.
    benchmark::RunSpecifiedBenchmarks();
  } else {
    revere::bench::JsonLinesReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  if (!metrics_path.empty()) {
    std::string dump = revere::obs::MetricsToJsonLines(
        revere::obs::MetricsRegistry::Default());
    if (!revere::obs::WriteFileOrFalse(metrics_path, dump)) {
      std::fprintf(stderr, "failed to write metrics dump to %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}
