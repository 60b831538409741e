// fuzz_answer: differential fuzzing of the PDMS answer pipeline.
//
//   fuzz_answer --cases 500 --seed 7 --out fuzz-failures
//       Generate and check 500 cases; shrink + save any mismatch.
//   fuzz_answer --max-seconds 30
//       Time-boxed campaign (CI mode): stop after ~30s of wall clock.
//   fuzz_answer --replay fuzz-failures/fuzz_case_123.txt
//       Re-run one saved seed file and print its oracle verdicts and
//       baseline answer digest (bit-identical across runs/machines).
//   --verbose
//       Also print the seed file (the first failure's, shrunk, in a
//       campaign); everything after its `network` line is a network
//       config that piazza::LoadNetworkConfig loads as is.
//
// Exit status: 0 when every oracle held, 1 on any mismatch or usage
// error — so CI can gate on it directly.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/fuzz/fuzzer.h"

namespace {

using revere::fuzz::CaseReport;
using revere::fuzz::CheckCase;
using revere::fuzz::FuzzCase;
using revere::fuzz::FuzzRunOptions;
using revere::fuzz::FuzzRunReport;
using revere::fuzz::LoadCase;
using revere::fuzz::OracleFailure;
using revere::fuzz::RunFuzz;
using revere::fuzz::SerializeCase;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--cases N] [--max-seconds S]\n"
               "          [--out DIR] [--replay FILE] [--verbose]\n",
               argv0);
  return 1;
}

int Replay(const std::string& path, bool verbose) {
  revere::Result<FuzzCase> loaded = LoadCase(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "fuzz_answer: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const FuzzCase& c = loaded.value();
  if (verbose) std::fputs(SerializeCase(c).c_str(), stdout);
  CaseReport report = CheckCase(c);
  std::printf("replay %s: seed=%llu checks=%zu digest=%016llx%s\n",
              path.c_str(), static_cast<unsigned long long>(c.seed),
              report.oracle_checks,
              static_cast<unsigned long long>(report.answer_digest),
              report.chase_fixpoint ? "" : " (no chase fixpoint)");
  for (const OracleFailure& f : report.failures) {
    std::printf("  FAIL [%s] %s\n", f.oracle.c_str(), f.detail.c_str());
  }
  if (report.ok()) {
    std::printf("  all oracles held\n");
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzRunOptions options;
  options.cases = 200;
  std::string replay_path;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz_answer: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--cases") == 0) {
      options.cases = std::strtoull(next("--cases"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-seconds") == 0) {
      options.max_seconds = std::strtod(next("--max-seconds"), nullptr);
      // A time box without a case cap still needs a finite loop bound.
      if (options.cases == 0) options.cases = SIZE_MAX;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      options.failure_dir = next("--out");
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_path = next("--replay");
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!replay_path.empty()) return Replay(replay_path, verbose);

  FuzzRunReport report = RunFuzz(options);
  std::printf(
      "fuzz_answer: %zu cases, %zu oracle checks, %zu mismatches%s; "
      "certain answers: %zu soundness and %zu completeness checks, %zu "
      "cases with no chase fixpoint\n",
      report.cases_run, report.oracle_checks, report.mismatches,
      report.time_boxed ? " (time-boxed)" : "", report.soundness_checks,
      report.completeness_checks, report.no_fixpoint_cases);
  for (const std::string& f : report.failure_files) {
    std::printf("  saved failing case: %s\n", f.c_str());
  }
  if (report.mismatches > 0) {
    std::printf("first failure (shrunk, seed %llu):\n",
                static_cast<unsigned long long>(report.first_failure.seed));
    for (const OracleFailure& f : report.first_failure_details) {
      std::printf("  FAIL [%s] %s\n", f.oracle.c_str(), f.detail.c_str());
    }
    if (verbose) std::fputs(SerializeCase(report.first_failure).c_str(), stdout);
    return 1;
  }
  return 0;
}
