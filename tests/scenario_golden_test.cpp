// Golden-output regression tests: the pinned specs under tests/golden/ must
// reproduce their checked-in CSVs byte-for-byte, through the same
// parse-spec -> run_sweep -> CsvSink path `search_lab run --csv` uses. (A
// CTest-level twin drives the actual search_lab binary over the same files
// via tests/golden/run_golden.cmake.)
//
// These goldens pin the full numeric surface: spec parsing, cell seeding,
// engine trajectories, aggregation, and column formatting. A diff here means
// a behavior change that silently rewrites every experiment table — bump the
// goldens ONLY for an intentional, understood change.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"

#ifndef ANTS_SOURCE_DIR
#error "ANTS_SOURCE_DIR must point at the repository root"
#endif

namespace ants::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void check_golden(const std::string& stem, unsigned threads) {
  const std::string dir = std::string(ANTS_SOURCE_DIR) + "/tests/golden/";
  const std::vector<ScenarioSpec> specs = parse_spec_file(dir + stem +
                                                          ".spec");
  ASSERT_EQ(specs.size(), 1u);

  SweepOptions opt;
  opt.threads = threads;
  const std::vector<CellResult> results = run_sweep(specs[0], opt);

  const std::string out_path = ::testing::TempDir() + "ants_golden_" + stem +
                               "_" + std::to_string(threads) + ".csv";
  {
    // Scoped so the CSV writer flushes and closes before the comparison.
    CsvSink csv(out_path);
    std::vector<ResultSink*> sinks = {&csv};
    emit_results(specs[0], results, sinks);
  }

  EXPECT_EQ(read_file(out_path), read_file(dir + stem + ".golden.csv"))
      << "golden mismatch for " << stem << " at threads=" << threads;
}

TEST(Golden, SyncSpecReproducesByteForByte) {
  check_golden("sync", 1);
  check_golden("sync", 5);
}

TEST(Golden, AsyncCrashSpecReproducesByteForByte) {
  check_golden("async_crash", 1);
  check_golden("async_crash", 5);
}

TEST(Golden, PlacementSweepSpecReproducesByteForByte) {
  check_golden("placement_sweep", 1);
  check_golden("placement_sweep", 5);
}

// Step-level strategies under schedule/crash — the engine-family gap the
// unified executor closed — pinned next to the paper algorithms.
TEST(Golden, StepAsyncSpecReproducesByteForByte) {
  check_golden("step_async", 1);
  check_golden("step_async", 5);
}

// The target set as a sweep axis (first-of-set races, first_target column).
TEST(Golden, MultiTargetSpecReproducesByteForByte) {
  check_golden("multi_target", 1);
  check_golden("multi_target", 5);
}

// Continuous-plane cells under the base model. Pinned from the
// pre-environment-port plane engine: the plane backend of the unified
// executor must reproduce the zero-delay/no-crash path byte-for-byte.
TEST(Golden, PlaneBaseSpecReproducesByteForByte) {
  check_golden("plane_base", 1);
  check_golden("plane_base", 5);
}

// Plane-level strategies under schedule/crash/multi-target — the last
// engine-family environment gap, closed by the plane backend.
TEST(Golden, PlaneAsyncSpecReproducesByteForByte) {
  check_golden("plane_async", 1);
  check_golden("plane_async", 5);
}

// The target-process axes: Poisson arrival/lifetime windows, a drifting
// target, dwell capture, and collect-all aggregation (time_to_all,
// per-target discovery times, found_before_vanish) — pinned on the
// step-level walkers, the one engine family supporting dwell and drift.
TEST(Golden, StochasticTargetsSpecReproducesByteForByte) {
  check_golden("stochastic_targets", 1);
  check_golden("stochastic_targets", 5);
}

// The walkers under the static base model, with k straddling the 4-lane
// vector width and 70 trials crossing the 64-trial block: the lock-step
// block loop's slots and step kernels, pinned at every thread count.
TEST(Golden, LockstepStaticSpecReproducesByteForByte) {
  check_golden("lockstep_static", 1);
  check_golden("lockstep_static", 5);
}

// The segment and plane strategies at k = 17, 64 and 257 with crashed
// agents parked among the live ones: the min-clock advance over many
// agents, pinned at every thread count.
TEST(Golden, LargeKSpecReproducesByteForByte) {
  check_golden("large_k", 1);
  check_golden("large_k", 5);
}

}  // namespace
}  // namespace ants::scenario
