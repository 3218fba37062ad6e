// Patchy foraging: the paper's central-place motivation on a realistic
// multi-patch landscape.
//
// The introduction argues that central place foragers hold "a strong
// preference to locate nearby food sources before those that are further
// away" (predation risk, retrieval rate, territory, navigation). This
// example places several food patches at different distances and angles
// around the nest, releases a non-communicating colony, and measures:
//
//   * which patch is discovered first (the foraging race), and
//   * the full discovery schedule (first-visit time of every patch).
//
// The nearest-first preference is EMERGENT: no agent knows where any patch
// is, yet the colony's discovery order tracks patch distance almost
// perfectly, because every paper algorithm spends its early budget close
// to the nest by construction.
//
//   ./patchy_foraging [--k=32] [--delta=0.5] [--trials=200]
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/harmonic.h"
#include "rng/rng.h"
#include "sim/batch/batch.h"
#include "sim/trial.h"
#include "util/cli.h"

int main(int argc, char** argv) try {
  ants::util::Cli cli(argc, argv);
  const int k = static_cast<int>(cli.get_int("k", 32));
  const double delta = cli.get_double("delta", 0.5);
  const std::int64_t trials = cli.get_int("trials", 200);
  cli.finish();

  // A landscape of four patches: two nearby (one of them in an "awkward"
  // diagonal direction to show direction does not matter), one mid-range,
  // one far. Distances are L1.
  struct Patch {
    const char* tag;
    ants::grid::Point where;
  };
  const std::vector<Patch> patches{
      {"berries (D=6)", {4, -2}},
      {"seeds (D=10)", {-5, 5}},
      {"carcass (D=36)", {-20, 16}},
      {"grove (D=120)", {60, -60}},
  };
  // Collect-all mode: agents run to the time cap and the first-visit time
  // of EVERY patch is recorded — the discovery schedule.
  ants::sim::TrialEnvironment env;
  env.collect_all = true;
  for (const Patch& p : patches) env.targets.push_back(p.where);

  const ants::core::HarmonicStrategy strategy(delta);

  std::vector<std::int64_t> first_wins(patches.size(), 0);
  std::vector<double> discovery_sums(patches.size(), 0.0);
  std::vector<std::int64_t> discovered(patches.size(), 0);
  std::int64_t races_decided = 0;

  ants::sim::EngineConfig config;
  config.time_cap = 1 << 23;
  // One runner serves every trial of this (strategy, k) pair.
  ants::sim::TrialStrategy family;
  family.segment = &strategy;
  ants::sim::batch::BatchRunner runner(family, k, config);

  for (std::int64_t t = 0; t < trials; ++t) {
    const ants::rng::Rng trial(
        ants::rng::mix_seed(0xF00D, static_cast<std::uint64_t>(t)));
    const ants::sim::TrialResult r = runner.run_one(env, trial);
    // finder >= 0: some patch was found (r.found means ALL were).
    if (r.finder >= 0) {
      ++races_decided;
      ++first_wins[static_cast<std::size_t>(r.first_target)];
    }
    for (std::size_t i = 0; i < patches.size(); ++i) {
      if (r.target_times[i] >= 0) {
        discovery_sums[i] += r.target_times[i];
        ++discovered[i];
      }
    }
  }

  std::printf("colony: k = %d, %s, %lld trials, time cap %lld\n\n", k,
              strategy.name().c_str(), static_cast<long long>(trials),
              static_cast<long long>(config.time_cap));
  std::printf("%-18s %14s %18s %14s\n", "patch", "P(found first)",
              "mean discovery T", "P(discovered)");
  for (std::size_t i = 0; i < patches.size(); ++i) {
    const double p_first =
        races_decided > 0
            ? static_cast<double>(first_wins[i]) /
                  static_cast<double>(races_decided)
            : 0.0;
    const double mean_t =
        discovered[i] > 0 ? discovery_sums[i] /
                                static_cast<double>(discovered[i])
                          : -1.0;
    std::printf("%-18s %13.1f%% %18.0f %13.1f%%\n", patches[i].tag,
                100.0 * p_first, mean_t,
                100.0 * static_cast<double>(discovered[i]) /
                    static_cast<double>(trials));
  }

  std::printf(
      "\nNo agent knows any patch location, the colony size, or even that\n"
      "other patches exist — yet the discovery order tracks distance: the\n"
      "paper's 'find nearby treasures first' design goal, emerging from\n"
      "nothing but each ant's private trip-length distribution.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
