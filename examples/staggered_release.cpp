// Staggered release with attrition: the paper's model assumptions, stressed.
//
// Real colonies do not launch all foragers in the same instant, and
// foragers die. Section 2 of the paper waves both away — synchronous starts
// "can easily be removed by starting to count the time after the last agent
// initiates the search", and immortality is implicit. This example stresses
// both relaxations at once:
//
//   * ants leave the nest one every `gap` steps (adversarial drip), and
//   * each ant independently survives a trip-time budget drawn from an
//     exponential with mean `lifetime`.
//
// It prints the absolute search time, the time measured from the last
// start (the paper's preferred clock), and the attrition count — showing
// that the non-communicating design sails through both relaxations.
//
//   ./staggered_release [--k=64] [--distance=48] [--gap=8]
//                       [--lifetime=20000] [--trials=150]
#include <cstdio>
#include <exception>

#include "core/known_k.h"
#include "sim/async_engine.h"
#include "sim/runner.h"
#include "util/cli.h"

int main(int argc, char** argv) try {
  ants::util::Cli cli(argc, argv);
  const int k = static_cast<int>(cli.get_int("k", 64));
  const std::int64_t distance = cli.get_int("distance", 48);
  const std::int64_t gap = cli.get_int("gap", 8);
  const double lifetime = cli.get_double("lifetime", 20000.0);
  const std::int64_t trials = cli.get_int("trials", 150);
  cli.finish();

  const ants::core::KnownKStrategy strategy(k);

  ants::sim::RunConfig config;
  config.trials = trials;
  config.seed = 4711;
  config.time_cap = 1 << 22;

  // Baseline: the paper's pristine model (synchronous, immortal).
  const ants::sim::CellStats pristine = ants::sim::run_async_trials(
      strategy, k, distance, ants::sim::uniform_ring_placement(),
      ants::sim::SyncStart(), ants::sim::NoCrash(), config);

  // The stressed run: drip release + exponential attrition.
  const ants::sim::StaggeredStart schedule(gap);
  const ants::sim::ExponentialLifetime crashes(lifetime);
  const ants::sim::CellStats stressed = ants::sim::run_async_trials(
      strategy, k, distance, ants::sim::uniform_ring_placement(), schedule,
      crashes, config);

  std::printf("colony: k = %d ants, %s, D = %lld, %lld trials\n", k,
              strategy.name().c_str(), static_cast<long long>(distance),
              static_cast<long long>(trials));
  std::printf("release: one ant every %lld steps (last start %lld)\n",
              static_cast<long long>(gap),
              static_cast<long long>(gap * (k - 1)));
  std::printf("attrition: exponential lifetimes, mean %.0f steps\n\n",
              lifetime);

  std::printf("%-34s %12s %12s\n", "", "pristine", "stressed");
  std::printf("%-34s %12.0f %12.0f\n", "mean search time (absolute)",
              pristine.stats.time.mean, stressed.stats.time.mean);
  std::printf("%-34s %12.0f %12.0f\n", "mean search time from last start",
              pristine.from_last_start.mean, stressed.from_last_start.mean);
  std::printf("%-34s %12.1f%% %11.1f%%\n", "success rate",
              100.0 * pristine.stats.success_rate,
              100.0 * stressed.stats.success_rate);
  std::printf("%-34s %12.1f %12.1f\n", "ants lost per trial (mean)",
              pristine.mean_crashed, stressed.mean_crashed);

  std::printf(
      "\nMeasured from the last start — the clock the paper says to use —\n"
      "the stressed colony is on par with the pristine one (often faster:\n"
      "early ants pre-cover ground before the clock starts). Attrition\n"
      "degrades the time like a smaller colony would, never catastrophic-\n"
      "ally: with no coordination there is nothing for a death to break.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
