// The batch trial executor (sim/batch/).
//
// The contract under test is byte-identity: for every strategy family,
// environment shape, and SIMD dispatch level this machine supports,
// BatchRunner::run_one (and, for the lock-step walkers, run_block over
// blocks of trials) must reproduce the scalar reference executor
// (sim::run_trial, tests/support/reference_trial.h) EXACTLY — same doubles
// bit for bit, same finder/target tie-breaks, same crash counts. The kernel
// unit tests pin every table entry against its plain per-element loop
// (lowest-index argmin ties, in-order occupancy find, candidate supersets)
// at every level, including the non-multiple-of-width tails. The MinTree
// tests pin the segment and plane min-clock advance: its root is the flat
// lowest-index argmin after every clock update.
#include "sim/batch/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ablation_variants.h"
#include "baselines/biased_walk.h"
#include "baselines/levy.h"
#include "baselines/random_walk.h"
#include "baselines/sector_sweep.h"
#include "core/harmonic.h"
#include "core/known_k.h"
#include "core/uniform.h"
#include "grid/spiral.h"
#include "plane/strategies.h"
#include "rng/rng.h"
#include "sim/batch/kernels.h"
#include "sim/batch/min_tree.h"
#include "sim/batch/simd.h"
#include "sim/batch/trip_chain.h"
#include "sim/placement.h"
#include "sim/segment.h"
#include "sim/trial.h"
#include "support/reference_trial.h"
#include "test_support.h"

namespace ants::sim::batch {
namespace {

using testing::LevelGuard;
using testing::testable_levels;

#define EXPECT_SAME_RESULT(expected, actual)                       \
  do {                                                             \
    EXPECT_EQ((expected).time, (actual).time);                     \
    EXPECT_EQ((expected).found, (actual).found);                   \
    EXPECT_EQ((expected).finder, (actual).finder);                 \
    EXPECT_EQ((expected).first_target, (actual).first_target);     \
    EXPECT_EQ((expected).segments, (actual).segments);             \
    EXPECT_EQ((expected).last_start, (actual).last_start);         \
    EXPECT_EQ((expected).from_last_start, (actual).from_last_start); \
    EXPECT_EQ((expected).crashed, (actual).crashed);               \
  } while (0)

// --- kernel unit tests -----------------------------------------------------

/// The lowest index holding the smallest of v[0..n).
template <typename T>
std::size_t flat_argmin(const std::vector<T>& v, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] < v[best]) best = i;
  }
  return best;
}

TEST(BatchKernels, ArgminI64MatchesScalarWithLowestIndexTies) {
  rng::Rng rng(20260808);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 40; ++n) {
      for (int rep = 0; rep < 20; ++rep) {
        std::vector<std::int64_t> v(n);
        for (auto& x : v) {
          // Few distinct values => plenty of exact ties.
          x = rng.uniform_int(-2, 2);
        }
        EXPECT_EQ(k.argmin_i64(v.data(), n), flat_argmin(v, n))
            << simd_level_name(level) << " n=" << n;
      }
    }
  }
}

TEST(BatchKernels, ArgminF64MatchesScalarWithLowestIndexTies) {
  rng::Rng rng(99);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 40; ++n) {
      for (int rep = 0; rep < 20; ++rep) {
        std::vector<double> v(n);
        for (auto& x : v) x = static_cast<double>(rng.uniform_int(0, 3));
        EXPECT_EQ(k.argmin_f64(v.data(), n), flat_argmin(v, n))
            << simd_level_name(level) << " n=" << n;
      }
    }
  }
}

TEST(BatchKernels, ArgminHandlesSentinelArrays) {
  const std::int64_t never = kNeverTime;
  const std::vector<std::int64_t> all_never(11, never);
  std::vector<std::int64_t> one_live(11, never);
  one_live[7] = 42;
  const std::vector<double> all_pnever(9, 1e300);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    EXPECT_EQ(k.argmin_i64(all_never.data(), all_never.size()), 0u);
    EXPECT_EQ(k.argmin_i64(one_live.data(), one_live.size()), 7u);
    EXPECT_EQ(k.argmin_f64(all_pnever.data(), all_pnever.size()), 0u);
  }
}

TEST(BatchKernels, FindPointReturnsFirstMatchInOrder) {
  rng::Rng rng(7);
  const Kernels& scalar = kernels_for(SimdLevel::kScalar);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 24; ++n) {
      for (int rep = 0; rep < 40; ++rep) {
        std::vector<std::int64_t> xs(n), ys(n);
        for (std::size_t i = 0; i < n; ++i) {
          xs[i] = rng.uniform_int(-1, 1);
          ys[i] = rng.uniform_int(-1, 1);
        }
        const std::int64_t px = rng.uniform_int(-1, 1);
        const std::int64_t py = rng.uniform_int(-1, 1);
        EXPECT_EQ(scalar.find_point(xs.data(), ys.data(), n, px, py),
                  k.find_point(xs.data(), ys.data(), n, px, py))
            << simd_level_name(level) << " n=" << n;
      }
    }
  }
}

TEST(BatchKernels, FindPointMissReturnsNpos) {
  const std::vector<std::int64_t> xs = {1, 2, 3, 4, 5};
  const std::vector<std::int64_t> ys = {1, 2, 3, 4, 5};
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    EXPECT_EQ(k.find_point(xs.data(), ys.data(), xs.size(), 3, 4), kNpos);
    EXPECT_EQ(k.find_point(xs.data(), ys.data(), xs.size(), 4, 4), 3u);
  }
}

// The four dynamic-target kernels below are not on the executor's path
// (its lock-step loop walks a live-target list); perfbench's replay times
// them, so their contracts stay pinned against the plain per-target
// expressions they reproduce.

TEST(BatchKernels, WindowGateMatchesPerTargetWindowTest) {
  rng::Rng rng(11);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 24; ++n) {
      for (int rep = 0; rep < 20; ++rep) {
        std::vector<double> appear(n), vanish(n);
        for (std::size_t i = 0; i < n; ++i) {
          // Half-tick grid around t = 5 => exact ties on both edges.
          appear[i] = 0.5 * static_cast<double>(rng.uniform_int(6, 12));
          vanish[i] = 0.5 * static_cast<double>(rng.uniform_int(8, 14));
        }
        std::vector<char> out(n, 7);
        k.window_gate(appear.data(), vanish.data(), n, 5.0, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], (appear[i] <= 5.0 && 5.0 < vanish[i]) ? 1 : 0)
              << simd_level_name(level) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(BatchKernels, FindPointGatedSkipsClosedGates) {
  rng::Rng rng(12);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 24; ++n) {
      for (int rep = 0; rep < 40; ++rep) {
        std::vector<std::int64_t> xs(n), ys(n);
        std::vector<char> gate(n);
        for (std::size_t i = 0; i < n; ++i) {
          xs[i] = rng.uniform_int(-1, 1);
          ys[i] = rng.uniform_int(-1, 1);
          gate[i] = static_cast<char>(rng.uniform_int(0, 1));
        }
        std::size_t want = kNpos;
        for (std::size_t i = 0; i < n && want == kNpos; ++i) {
          if (gate[i] != 0 && xs[i] == 0 && ys[i] == 1) want = i;
        }
        EXPECT_EQ(k.find_point_gated(xs.data(), ys.data(), gate.data(), n, 0,
                                     1),
                  want)
            << simd_level_name(level) << " n=" << n;
      }
    }
  }
}

TEST(BatchKernels, DriftPositionsMatchLlround) {
  rng::Rng rng(13);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 24; ++n) {
      std::vector<std::int64_t> bx(n), by(n), ox(n), oy(n);
      std::vector<double> vx(n), vy(n);
      for (std::size_t i = 0; i < n; ++i) {
        bx[i] = rng.uniform_int(-50, 50);
        by[i] = rng.uniform_int(-50, 50);
        // Multiples of 1/8 at odd ticks land exactly on .5: both signs of
        // the half-away-from-zero case.
        vx[i] = 0.125 * static_cast<double>(rng.uniform_int(-16, 16));
        vy[i] = rng.uniform_real(-3.0, 3.0);
      }
      for (const double t : {1.0, 3.0, 4.0, 77.0, 1001.0}) {
        k.drift_positions(bx.data(), by.data(), vx.data(), vy.data(), n, t,
                          ox.data(), oy.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(ox[i], bx[i] + std::llround(vx[i] * t))
              << simd_level_name(level) << " n=" << n << " t=" << t;
          EXPECT_EQ(oy[i], by[i] + std::llround(vy[i] * t))
              << simd_level_name(level) << " n=" << n << " t=" << t;
        }
      }
    }
  }
}

TEST(BatchKernels, DwellAdvanceMatchesPerTargetContactUpdate) {
  rng::Rng rng(14);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 24; ++n) {
      for (int rep = 0; rep < 20; ++rep) {
        std::vector<std::int64_t> tx(n), ty(n), held(n);
        std::vector<char> alive(n), found(n);
        for (std::size_t i = 0; i < n; ++i) {
          tx[i] = rng.uniform_int(-2, 2);
          ty[i] = rng.uniform_int(-2, 2);
          held[i] = rng.uniform_int(0, 3);
          alive[i] = static_cast<char>(rng.uniform_int(0, 3) != 0);
          found[i] = static_cast<char>(rng.uniform_int(0, 3) == 0);
        }
        std::vector<std::int64_t> want_held = held;
        std::vector<std::uint32_t> want;
        for (std::size_t i = 0; i < n; ++i) {
          const std::int64_t l1 = std::abs(tx[i]) + std::abs(ty[i] - 1);
          want_held[i] = alive[i] != 0 && l1 <= 1 ? want_held[i] + 1 : 0;
          if (found[i] == 0 && want_held[i] >= 3) {
            want.push_back(static_cast<std::uint32_t>(i));
          }
        }
        std::vector<std::uint32_t> out(n);
        const std::size_t nc =
            k.dwell_advance(tx.data(), ty.data(), alive.data(), found.data(),
                            n, 0, 1, held.data(), 3, out.data());
        out.resize(nc);
        EXPECT_EQ(held, want_held) << simd_level_name(level) << " n=" << n;
        EXPECT_EQ(out, want) << simd_level_name(level) << " n=" << n;
      }
    }
  }
}

TEST(BatchKernels, LineCandidatesMatchScalarExactly) {
  rng::Rng rng(1234);
  const Kernels& scalar = kernels_for(SimdLevel::kScalar);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 21; ++n) {
      for (int rep = 0; rep < 40; ++rep) {
        std::vector<double> tx(n), ty(n);
        for (std::size_t i = 0; i < n; ++i) {
          tx[i] = rng.uniform_real(-20.0, 20.0);
          ty[i] = rng.uniform_real(-20.0, 20.0);
        }
        const double fx = rng.uniform_real(-5.0, 5.0);
        const double fy = rng.uniform_real(-5.0, 5.0);
        const double ang = rng.angle();
        const double ux = std::cos(ang), uy = std::sin(ang);
        const double eps = rng.uniform_real(0.5, 1.5);
        std::vector<std::uint32_t> want(n), got(n);
        const std::size_t nw =
            scalar.line_candidates(tx.data(), ty.data(), n, fx, fy, ux, uy,
                                   eps, want.data());
        const std::size_t ng = k.line_candidates(tx.data(), ty.data(), n, fx,
                                                 fy, ux, uy, eps, got.data());
        ASSERT_EQ(nw, ng) << simd_level_name(level) << " n=" << n;
        for (std::size_t i = 0; i < nw; ++i) {
          EXPECT_EQ(want[i], got[i]) << simd_level_name(level) << " n=" << n;
        }
      }
    }
  }
}

TEST(BatchKernels, LineCandidatesAreSupersetOfSightings) {
  // Every target the scalar hit test sights must survive the prefilter.
  rng::Rng rng(555);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (int rep = 0; rep < 200; ++rep) {
      const plane::Vec2 from{rng.uniform_real(-5.0, 5.0),
                             rng.uniform_real(-5.0, 5.0)};
      const plane::Vec2 to{rng.uniform_real(-15.0, 15.0),
                           rng.uniform_real(-15.0, 15.0)};
      const plane::LineMove line{from, to};
      const plane::Vec2 d = to - from;
      const double len = d.norm();
      if (len == 0.0) continue;
      const double inv = 1.0 / len;
      const std::size_t n = 9;
      std::vector<double> tx(n), ty(n);
      for (std::size_t i = 0; i < n; ++i) {
        tx[i] = rng.uniform_real(-15.0, 15.0);
        ty[i] = rng.uniform_real(-15.0, 15.0);
      }
      std::vector<std::uint32_t> cand(n);
      const std::size_t nc =
          k.line_candidates(tx.data(), ty.data(), n, from.x, from.y,
                            d.x * inv, d.y * inv, 1.0, cand.data());
      for (std::size_t i = 0; i < n; ++i) {
        const auto hit =
            plane::line_first_sighting(line, len, {tx[i], ty[i]}, 1.0);
        if (!hit) continue;
        bool present = false;
        for (std::size_t c = 0; c < nc; ++c) present |= (cand[c] == i);
        EXPECT_TRUE(present) << simd_level_name(level) << " target " << i;
      }
    }
  }
}

// --- the min-clock winner tree ---------------------------------------------

/// Clocks drawn from four values, one of them the parking value `never`, so
/// ties are dense; after every update the root must be the flat argmin. One
/// tree is rebuilt across the sizes, as a runner's is across trials.
template <typename T>
void expect_tree_tracks_flat_argmin(T never, std::uint64_t seed) {
  rng::Rng rng(seed);
  const std::array<T, 4> values = {T{3}, T{7}, T{11}, never};
  const auto draw = [&] {
    return values[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  };
  MinTree tree;
  for (const std::size_t n : {1, 2, 3, 5, 8, 17, 64, 257, 3}) {
    std::vector<T> clock(n);
    for (T& c : clock) c = draw();
    tree.build(&clock);
    ASSERT_EQ(tree.top(), flat_argmin(clock, n)) << "n=" << n;
    for (int u = 0; u < 10'000; ++u) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      clock[i] = draw();
      tree.update(clock, i);
      ASSERT_EQ(tree.top(), flat_argmin(clock, n))
          << "n=" << n << " after update " << u;
    }
    // Parking every agent leaves the lowest index on top, as a flat scan
    // does, never a padding leaf; so does building over all-parked clocks.
    for (std::size_t i = 0; i < n; ++i) {
      clock[i] = never;
      tree.update(clock, i);
    }
    EXPECT_EQ(tree.top(), 0u) << "n=" << n;
    std::vector<T> parked(n, never);
    tree.build(&parked);
    EXPECT_EQ(tree.top(), 0u) << "n=" << n;
  }
}

TEST(MinTree, TopIsTheFlatLowestIndexArgminAfterEveryUpdate) {
  expect_tree_tracks_flat_argmin<std::int64_t>(kNeverTime, 2323);
  expect_tree_tracks_flat_argmin<double>(plane::kPlaneNever, 2324);
}

TEST(MinTree, BuildPadsTheClocksToAPowerOfTwo) {
  std::vector<std::int64_t> clock = {5, 4, 4, 9, 1};
  MinTree tree;
  tree.build(&clock);
  ASSERT_EQ(clock.size(), 8u);
  for (std::size_t i = 5; i < 8; ++i) EXPECT_EQ(clock[i], kNeverTime);
  EXPECT_EQ(tree.top(), 4u);
  clock[4] = kNeverTime;
  tree.update(clock, 4);
  EXPECT_EQ(tree.top(), 1u);
}

// --- executor conformance --------------------------------------------------

/// Runs `trials` trials of strategy/env-draw under both executors at every
/// supported dispatch level and demands byte-identical results.
void expect_conformance(const TrialStrategy& strategy, int k,
                        const std::function<TrialEnvironment(const rng::Rng&)>&
                            env_of_trial,
                        const EngineConfig& config, int trials,
                        std::uint64_t seed) {
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    BatchRunner runner(strategy, k, config);
    ASSERT_EQ(runner.level(), level);
    for (int t = 0; t < trials; ++t) {
      const rng::Rng trial_rng(
          rng::mix_seed(seed, static_cast<std::uint64_t>(t)));
      const TrialEnvironment env = env_of_trial(trial_rng);
      const TrialResult want = run_trial(strategy, k, env, trial_rng, config);
      const TrialResult got = runner.run_one(env, trial_rng);
      EXPECT_SAME_RESULT(want, got);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at level " << simd_level_name(level) << " trial "
               << t;
      }
    }
  }
}

TrialEnvironment base_env(std::vector<grid::Point> targets) {
  TrialEnvironment env;
  env.targets = std::move(targets);
  return env;
}

// k = 17 and 257 sit one past a power of two, so the min-clock tree is
// mostly padding, and 64 fills it exactly; the drawn and doa environments
// park crashed agents among the live ones.
TEST(BatchRunnerSegment, MatchesRunTrialAcrossEnvironmentsAndLevels) {
  for (const int k : {5, 17, 64, 257}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    const core::KnownKStrategy known(k);
    const core::HarmonicStrategy harmonic(0.3);
    TrialStrategy sk;
    sk.segment = &known;
    TrialStrategy sh;
    sh.segment = &harmonic;
    EngineConfig config;
    config.time_cap = 200'000;

    const std::vector<grid::Point> targets = {{11, -5}, {-7, 3}};
    const auto sync = [&](const rng::Rng&) { return base_env(targets); };
    const auto drawn = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, targets, StaggeredStart(7),
                              ExponentialLifetime(500.0), trial_rng);
    };
    const auto doa = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, targets, UniformRandomStart(20),
                              DoaCrash(0.4), trial_rng);
    };
    const int trials = k == 5 ? 40 : 16;
    const std::uint64_t seed =
        k == 5 ? 100 : 1000 * static_cast<std::uint64_t>(k);
    expect_conformance(sk, k, sync, config, trials, seed + 1);
    expect_conformance(sk, k, drawn, config, trials, seed + 2);
    expect_conformance(sh, k, drawn, config, trials, seed + 3);
    expect_conformance(sh, k, doa, config, trials, seed + 4);
  }
}

TEST(BatchRunnerSegment, OriginTargetAndAllDoaEdgeCases) {
  const core::KnownKStrategy known(3);
  TrialStrategy s;
  s.segment = &known;
  EngineConfig config;
  config.time_cap = 10'000;

  // Origin in the target set, mixed DOA agents.
  const auto origin_env = [&](const rng::Rng&) {
    TrialEnvironment env = base_env({{5, 5}, grid::kOrigin});
    env.starts = {4, 2, 9};
    env.lifetimes = {0, 100, kNeverTime};
    return env;
  };
  // Everybody dead on arrival.
  const auto all_doa = [&](const rng::Rng&) {
    TrialEnvironment env = base_env({{3, 1}});
    env.lifetimes = {0, 0, 0};
    return env;
  };
  expect_conformance(s, 3, origin_env, config, 8, 7);
  expect_conformance(s, 3, all_doa, config, 8, 8);
}

/// Runs `trials` trials of a step strategy through run_block in blocks of
/// 1 (run_one), 7 and 64 at every supported dispatch level and demands
/// that each equals the scalar reference field for field.
void expect_block_conformance(
    const TrialStrategy& strategy, int k,
    const std::function<TrialEnvironment(const rng::Rng&)>& env_of_trial,
    const EngineConfig& config, std::size_t trials, std::uint64_t seed) {
  std::vector<rng::Rng> rngs;
  std::vector<TrialEnvironment> envs;
  std::vector<TrialResult> want;
  for (std::size_t t = 0; t < trials; ++t) {
    rngs.emplace_back(rng::mix_seed(seed, t));
    envs.push_back(env_of_trial(rngs.back()));
    want.push_back(run_trial(strategy, k, envs.back(), rngs.back(), config));
  }
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    BatchRunner runner(strategy, k, config);
    for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}}) {
      std::vector<TrialResult> got(trials);
      for (std::size_t begin = 0; begin < trials; begin += block) {
        const std::size_t n = std::min(block, trials - begin);
        if (block == 1) {
          got[begin] = runner.run_one(envs[begin], rngs[begin]);
        } else {
          runner.run_block(envs.data() + begin, rngs.data() + begin, n,
                           got.data() + begin);
        }
      }
      ASSERT_EQ(runner.level(), level);
      for (std::size_t t = 0; t < trials; ++t) {
        const TrialResult& w = want[t];
        const TrialResult& g = got[t];
        if (w.time != g.time || w.found != g.found || w.finder != g.finder ||
            w.first_target != g.first_target || w.segments != g.segments ||
            w.last_start != g.last_start ||
            w.from_last_start != g.from_last_start ||
            w.crashed != g.crashed || w.target_times != g.target_times) {
          EXPECT_SAME_RESULT(w, g);
          EXPECT_EQ(w.target_times, g.target_times);
          FAIL() << "diverged at level " << simd_level_name(level) << " k "
                 << k << " block " << block << " trial " << t;
        }
      }
    }
  }
}

TEST(BatchRunnerStep, MatchesRunTrialAcrossEnvironmentsAndLevels) {
  const baselines::RandomWalkStrategy rw;
  const baselines::BiasedWalkStrategy biased(0.3, 0.8);
  EngineConfig config;
  config.time_cap = 3'000;

  // Kernels: a lane list with gaps, so vector runs of 4 start mid-list and
  // the lanes between runs take the scalar path, must leave every lane's
  // position, program word and stream where the scalar kernel does.
  {
    const std::vector<std::uint32_t> lanes_on = {0, 1, 2,  3,  5,  6, 7,
                                                 8, 9, 12, 13, 14, 15};
    const auto run_kernel = [&](SimdLevel level, bool biased_walk) {
      StepLanes lanes;
      lanes.reset(4, 4);
      for (std::size_t s = 0; s < 4; ++s) {
        lanes.seed_slot(s, 4, rng::Rng(rng::mix_seed(77, s)));
      }
      lanes.level = level;
      for (int t = 0; t < 100'000; ++t) {
        if (biased_walk) {
          biased.step(lanes, lanes_on.data(), lanes_on.size());
        } else {
          kernels_for(level).step_random(lanes, lanes_on.data(),
                                         lanes_on.size());
        }
      }
      return lanes;
    };
    for (const bool biased_walk : {false, true}) {
      StepLanes want = run_kernel(SimdLevel::kScalar, biased_walk);
      for (const SimdLevel level : testable_levels()) {
        StepLanes got = run_kernel(level, biased_walk);
        EXPECT_EQ(got.x, want.x) << simd_level_name(level);
        EXPECT_EQ(got.y, want.y) << simd_level_name(level);
        EXPECT_EQ(got.word, want.word) << simd_level_name(level);
        for (int w = 0; w < 4; ++w) {
          EXPECT_TRUE(std::equal(got.rng.state(w), got.rng.state(w) + 16,
                                 want.rng.state(w)))
              << simd_level_name(level) << " state word " << w;
        }
      }
    }
  }

  // Executor: every environment shape, k on and off the vector width.
  const std::vector<grid::Point> targets = {{4, 0}, {0, -4}};
  const TargetProcess poisson =
      poisson_targets(0.001, 400.0, uniform_ring_placement());
  std::uint64_t seed = 201;
  for (const int k : {1, 3, 4, 5, 8}) {
    const auto sync = [&](const rng::Rng&) { return base_env(targets); };
    const auto single = [&](const rng::Rng&) { return base_env({{-6, 3}}); };
    const auto drawn = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, targets, StaggeredStart(2),
                              FixedLifetime(800), trial_rng);
    };
    const auto doa = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, targets, SyncStart(), DoaCrash(0.5),
                              trial_rng);
    };
    const auto staggered_doa = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, targets, StaggeredStart(3), DoaCrash(0.4),
                              trial_rng);
    };
    // Poisson windows, collect-all: zero-spawn trials and slots that
    // collect everything before the cap.
    const auto collect = [&](const rng::Rng& trial_rng) {
      rng::Rng draw = trial_rng;
      TrialEnvironment env;
      poisson.grid(draw, 3, config.time_cap, &env);
      env.collect_all = true;
      return env;
    };
    for (const StepStrategy* strategy :
         std::initializer_list<const StepStrategy*>{&rw, &biased}) {
      TrialStrategy s;
      s.step = strategy;
      expect_block_conformance(s, k, sync, config, 40, seed++);
      expect_block_conformance(s, k, single, config, 40, seed++);
      expect_block_conformance(s, k, drawn, config, 40, seed++);
      expect_block_conformance(s, k, doa, config, 40, seed++);
      expect_block_conformance(s, k, staggered_doa, config, 40, seed++);
      expect_block_conformance(s, k, collect, config, 40, seed++);
    }
  }
}

TEST(BatchRunnerStep, OriginTargetAndAllDoaEdgeCases) {
  // The origin pre-step is the only code resolving these: neither lock-step
  // loop ever sees a target on the source node of a static environment.
  const baselines::RandomWalkStrategy rw;
  TrialStrategy s;
  s.step = &rw;
  EngineConfig config;
  config.time_cap = 3'000;

  // Origin in the target set, mixed DOA agents: the earliest SURVIVOR
  // (agent 1, start 2) finds it the moment it wakes up.
  const auto origin_env = [&](const rng::Rng&) {
    TrialEnvironment env = base_env({{5, 5}, grid::kOrigin});
    env.starts = {4, 2, 9};
    env.lifetimes = {0, 100, kNeverTime};
    return env;
  };
  // Everybody dead on arrival.
  const auto all_doa = [&](const rng::Rng&) {
    TrialEnvironment env = base_env({{3, 1}, grid::kOrigin});
    env.lifetimes = {0, 0, 0};
    return env;
  };
  // The only survivor wakes up past the cap: nobody stands on the source
  // target in time.
  const auto past_cap = [&](const rng::Rng&) {
    TrialEnvironment env = base_env({grid::kOrigin});
    env.starts = {0, 0, 5'000};
    env.lifetimes = {0, 0, kNeverTime};
    return env;
  };

  const rng::Rng trial_rng(5);
  const TrialResult origin = run_trial(rw, 3, origin_env(trial_rng), trial_rng,
                                       config);
  EXPECT_TRUE(origin.found);
  EXPECT_EQ(origin.time, 2.0);
  EXPECT_EQ(origin.finder, 1);
  EXPECT_EQ(origin.first_target, 1);
  EXPECT_EQ(origin.crashed, 1);
  for (const TrialEnvironment& env :
       {all_doa(trial_rng), past_cap(trial_rng)}) {
    const TrialResult r = run_trial(rw, 3, env, trial_rng, config);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.time, 3'000.0);
    EXPECT_EQ(r.finder, -1);
    EXPECT_EQ(r.segments, 0);
  }

  expect_conformance(s, 3, origin_env, config, 8, 205);
  expect_conformance(s, 3, all_doa, config, 8, 206);
  expect_conformance(s, 3, past_cap, config, 8, 207);
}

// --- the lock-step reach horizon -------------------------------------------

/// Steps as `inner` does and counts the lane-ticks it is asked to step, so
/// a test can tell the ticks a block stepped from the agent-ticks its
/// results account for (TrialResult::segments).
class CountingStep final : public StepStrategy {
 public:
  explicit CountingStep(const StepStrategy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void step(StepLanes& lanes, const std::uint32_t* agents,
            std::size_t n) const override {
    stepped += static_cast<std::int64_t>(n);
    inner_.step(lanes, agents, n);
  }

  mutable std::int64_t stepped = 0;

 private:
  const StepStrategy& inner_;
};

/// Moves every lane one cell east per tick: an agent that started at s
/// stands at (t - s, 0) after tick t.
class EastStep final : public StepStrategy {
 public:
  std::string name() const override { return "east"; }
  void step(StepLanes& lanes, const std::uint32_t* agents,
            std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i) ++lanes.x[agents[i]];
  }
};

struct Ticks {
  std::int64_t stepped = 0;    ///< lane-ticks the strategy stepped
  std::int64_t accounted = 0;  ///< TrialResult::segments, summed
};

using EnvOfTrial = std::function<TrialEnvironment(const rng::Rng&)>;

/// expect_block_conformance, then one run_block of the same trials through
/// a counting copy of `strategy`.
Ticks expect_counted_block_conformance(const StepStrategy& strategy, int k,
                                       const EnvOfTrial& env_of_trial,
                                       const EngineConfig& config,
                                       std::size_t trials,
                                       std::uint64_t seed) {
  TrialStrategy s;
  s.step = &strategy;
  expect_block_conformance(s, k, env_of_trial, config, trials, seed);
  const CountingStep counting(strategy);
  TrialStrategy counted;
  counted.step = &counting;
  std::vector<rng::Rng> rngs;
  std::vector<TrialEnvironment> envs;
  for (std::size_t t = 0; t < trials; ++t) {
    rngs.emplace_back(rng::mix_seed(seed, t));
    envs.push_back(env_of_trial(rngs.back()));
  }
  std::vector<TrialResult> got(trials);
  BatchRunner runner(counted, k, config);
  runner.run_block(envs.data(), rngs.data(), trials, got.data());
  Ticks ticks;
  ticks.stepped = counting.stepped;
  for (const TrialResult& r : got) ticks.accounted += r.segments;
  return ticks;
}

// Caps short enough that most trials end unfound, so most slots retire at
// their horizon: the random walk near the cap, the biased walks (drifting
// outward) well before it. Every block must step fewer lane-ticks than its
// results account for.
TEST(BatchRunnerStepHorizon, StaticMatchesRunTrialWhereItFires) {
  const baselines::RandomWalkStrategy rw;
  const baselines::BiasedWalkStrategy biased(0.3, 0.8);
  const baselines::BiasedWalkStrategy runaway(0.9, 0.95);
  struct Walker {
    const StepStrategy* strategy;
    Time cap;
  };
  std::uint64_t seed = 301;
  for (const int k : {1, 3, 4, 5}) {
    // Single and pair targets; staggered starts, so a roster becomes fixed
    // partway through the trial; and finite lifetimes, which hold every
    // retirement back to the last halt (or past the cap, where they do not
    // matter).
    const std::vector<EnvOfTrial> envs = {
        [](const rng::Rng&) { return base_env({{-9, 4}}); },
        [](const rng::Rng&) { return base_env({{7, 7}, {-12, 1}}); },
        [k](const rng::Rng& trial_rng) {
          return draw_environment(k, {{-9, 4}}, StaggeredStart(25), NoCrash(),
                                  trial_rng);
        },
        [k](const rng::Rng& trial_rng) {
          return draw_environment(k, {{7, 7}, {-12, 1}}, StaggeredStart(10),
                                  ExponentialLifetime(3000.0), trial_rng);
        },
    };
    for (const Walker w : {Walker{&rw, 150}, Walker{&biased, 2000},
                           Walker{&runaway, 600}}) {
      EngineConfig config;
      config.time_cap = w.cap;
      for (std::size_t e = 0; e < envs.size(); ++e) {
        const Ticks ticks = expect_counted_block_conformance(
            *w.strategy, k, envs[e], config, 40, seed++);
        EXPECT_LT(ticks.stepped, ticks.accounted)
            << w.strategy->name() << " k " << k << " env " << e;
      }
    }
  }
}

// The dynamic loop's horizon: drift (the quiet bound divides by the drift
// reach), dwell (contact at L1 distance 1), staggered starts with drift,
// and Poisson windows under collect-all, whose late admissions keep a slot
// running.
TEST(BatchRunnerStepHorizon, DynamicMatchesRunTrialWhereItFires) {
  const baselines::BiasedWalkStrategy biased(0.3, 0.8);
  const baselines::BiasedWalkStrategy runaway(0.9, 0.95);
  const TargetProcess poisson =
      poisson_targets(0.004, 150.0, uniform_ring_placement());
  std::uint64_t seed = 401;
  for (const int k : {1, 3, 4, 5}) {
    for (const auto& [strategy, cap] :
         {std::pair<const StepStrategy*, Time>{&biased, 2000},
          std::pair<const StepStrategy*, Time>{&runaway, 600}}) {
      EngineConfig config;
      config.time_cap = cap;
      const auto drift = [](const rng::Rng&) {
        TrialEnvironment env = base_env({{-6, 5}, {9, -2}});
        env.target_drift = {{0.25, -0.5}, {-1.0, 0.0}};
        return env;
      };
      const auto dwell = [](const rng::Rng&) {
        TrialEnvironment env = base_env({{-6, 5}, {8, 2}});
        env.capture_dwell = 2;
        return env;
      };
      const auto staggered_drift = [&](const rng::Rng& trial_rng) {
        return draw_environment(k, drift(trial_rng), StaggeredStart(20),
                                NoCrash(), trial_rng);
      };
      const auto collect = [&](const rng::Rng& trial_rng) {
        rng::Rng draw = trial_rng;
        TrialEnvironment env;
        poisson.grid(draw, 4, cap, &env);
        env.collect_all = true;
        return env;
      };
      for (const EnvOfTrial& env_of : {EnvOfTrial(drift), EnvOfTrial(dwell),
                                       EnvOfTrial(staggered_drift)}) {
        const Ticks ticks = expect_counted_block_conformance(
            *strategy, k, env_of, config, 40, seed++);
        EXPECT_LT(ticks.stepped, ticks.accounted)
            << strategy->name() << " k " << k;
      }
      expect_counted_block_conformance(*strategy, k, collect, config, 40,
                                       seed++);
    }
  }
}

// Counted exactly with east walkers, cap 50, in both loops: a target more
// than cap - 1 away after tick 1 costs one tick of stepping; a target
// exactly at reach keeps the slot running to the cap, whether it is found
// there, (50, 0), or passed at distance 1, (49, 1), which stays exactly
// cap - t away through tick 49.
TEST(BatchRunnerStepHorizon, StepsOneTickOutOfReachAndNeverRetiresEarly) {
  const EastStep east;
  EngineConfig config;
  config.time_cap = 50;
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    for (const bool dynamic : {false, true}) {
      for (const int k : {1, 3}) {
        const CountingStep counting(east);
        TrialStrategy s;
        s.step = &counting;
        BatchRunner runner(s, k, config);
        const grid::Point targets[] = {{51, 0}, {52, 0}, {-52, 0}, {0, 52},
                                       {50, 0}, {49, 1}};
        for (const grid::Point target : targets) {
          TrialEnvironment env = base_env({target});
          env.windowed = dynamic;
          const TrialResult want = run_trial(east, k, env, rng::Rng(3), config);
          counting.stepped = 0;
          const TrialResult got = runner.run_one(env, rng::Rng(3));
          EXPECT_SAME_RESULT(want, got);
          const bool in_reach = target.x > 0 && target.x + target.y == 50;
          EXPECT_EQ(want.found, (target == grid::Point{50, 0}));
          EXPECT_EQ(counting.stepped, in_reach ? 50 * k : k)
              << simd_level_name(level) << " dynamic " << dynamic << " k "
              << k << " target (" << target.x << ", " << target.y << ")";
        }
      }
    }
  }
}

// Two east walkers, the target 3 cells west of the source, cap 100: an
// agent that started at s is out of reach after tick t once
// t - s + 3 > 100 - t. The static loop retires at the first such tick of
// the last agent once the roster stays fixed through the cap; the dynamic
// loop's quiet stretches may take longer, never less.
TEST(BatchRunnerStepHorizon, WaitsForTheRosterToStayFixed) {
  const EastStep east;
  EngineConfig config;
  config.time_cap = 100;
  struct Case {
    std::vector<Time> starts, lifetimes;
    std::int64_t stepped;  // by the static loop
    int crashed;
  };
  const Case cases[] = {
      // Both out of reach from tick 49 (52 > 51).
      {{}, {}, 2 * 49, 0},
      // Agent 1 starts on tick 31 and is out of reach from tick 64
      // (37 > 36).
      {{0, 30}, {}, 64 + 34, 0},
      // Out of reach from tick 49, but agent 1's crash transition on tick
      // 81 is still to come.
      {{}, {kNeverTime, 80}, 81 + 80, 1},
      // A halt past the cap changes nothing up to it.
      {{}, {kNeverTime, 150}, 2 * 49, 0},
  };
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    for (const bool dynamic : {false, true}) {
      for (const Case& c : cases) {
        TrialEnvironment env = base_env({{-3, 0}});
        env.starts = c.starts;
        env.lifetimes = c.lifetimes;
        env.windowed = dynamic;
        const CountingStep counting(east);
        TrialStrategy s;
        s.step = &counting;
        BatchRunner runner(s, 2, config);
        const TrialResult want = run_trial(east, 2, env, rng::Rng(3), config);
        const TrialResult got = runner.run_one(env, rng::Rng(3));
        EXPECT_SAME_RESULT(want, got);
        EXPECT_FALSE(got.found);
        EXPECT_EQ(got.crashed, c.crashed);
        if (dynamic) {
          EXPECT_GE(counting.stepped, c.stepped);
          EXPECT_LT(counting.stepped, got.segments);
        } else {
          EXPECT_EQ(counting.stepped, c.stepped);
        }
      }
    }
  }
}

// One east walker, cap 200. Target 0 sits 50 cells west and is live
// throughout; the walker is quiet through the cap from about tick 150 on.
// Target 1 appears later on the walker's path: at 180.5 it is caught on
// tick 181 (under dwell=2 it sits one cell further, and contact confirms on
// tick 183), so the slot must not retire while its admission is pending; at
// 250.5, past the cap, there is nothing left to find and the slot retires.
TEST(BatchRunnerStepHorizon, DynamicWaitsForAWindowOpeningLate) {
  const EastStep east;
  EngineConfig config;
  config.time_cap = 200;
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    for (const bool collect : {false, true}) {
      for (const Time dwell : {Time{0}, Time{2}}) {
        for (const double appear : {180.5, 250.5}) {
          TrialEnvironment env;
          env.targets = {{-50, 0}, {dwell > 0 ? 182 : 181, 0}};
          env.target_appear = {0.0, appear};
          env.target_vanish = {detail::kNeverVanish, detail::kNeverVanish};
          env.capture_dwell = dwell;
          env.collect_all = collect;
          const CountingStep counting(east);
          TrialStrategy s;
          s.step = &counting;
          BatchRunner runner(s, 1, config);
          const TrialResult want = run_trial(east, 1, env, rng::Rng(8), config);
          const TrialResult got = runner.run_one(env, rng::Rng(8));
          EXPECT_SAME_RESULT(want, got);
          EXPECT_EQ(want.target_times, got.target_times);
          if (appear < 200) {
            EXPECT_EQ(want.first_target, 1);
            EXPECT_EQ(collect ? want.target_times[1] : want.time,
                      dwell > 0 ? 183.0 : 181.0);
          } else {
            EXPECT_EQ(want.first_target, -1);
            EXPECT_LT(counting.stepped, 200);
          }
        }
      }
    }
  }
}

// Two east walkers; agent 1 halts on tick 6 (lifetime 5). Agent 0 finding
// a target at (6, 0) on tick 6 cuts off agent 1's crash transition, later
// in agent order; finding one at (7, 0) on tick 7 does not, as that
// transition is a tick old. A slot is not visited on tick 7 for its roster,
// so halting() must already be empty there.
TEST(BatchRunnerStep, CrashTransitionCountsOnlyOnItsTick) {
  const EastStep east;
  TrialStrategy s;
  s.step = &east;
  EngineConfig config;
  config.time_cap = 100;
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    BatchRunner runner(s, 2, config);
    for (const bool dynamic : {false, true}) {
      for (const std::int64_t x : {6, 7}) {
        TrialEnvironment env = base_env({{x, 0}});
        env.lifetimes = {kNeverTime, 5};
        env.windowed = dynamic;
        const TrialResult want = run_trial(east, 2, env, rng::Rng(4), config);
        EXPECT_TRUE(want.found);
        EXPECT_EQ(want.crashed, x == 6 ? 0 : 1);
        EXPECT_SAME_RESULT(want, runner.run_one(env, rng::Rng(4)));
      }
    }
  }
}

// k = 17, 64 and 257 as in the segment case.
TEST(BatchRunnerPlane, MatchesRunTrialAcrossEnvironmentsAndLevels) {
  for (const int k : {4, 17, 64, 257}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    const plane::PlaneKnownKStrategy known(k);
    const plane::PlaneHarmonicStrategy harmonic(0.3);
    TrialStrategy sk;
    sk.plane = &known;
    TrialStrategy sh;
    sh.plane = &harmonic;
    EngineConfig config;
    config.time_cap = 1'000'000;

    const auto plane_env = [&](std::vector<plane::Vec2> targets) {
      TrialEnvironment env;
      env.plane_targets = std::move(targets);
      return env;
    };
    const std::vector<plane::Vec2> targets = {{12.0, -3.0}, {-6.0, 8.0}};
    const auto sync = [&](const rng::Rng&) { return plane_env(targets); };
    const auto drawn = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, plane_env(targets), StaggeredStart(5),
                              ExponentialLifetime(300.0), trial_rng);
    };
    const auto doa = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, plane_env(targets), UniformRandomStart(9),
                              DoaCrash(0.4), trial_rng);
    };
    const int trials = k == 4 ? 25 : 16;
    const std::uint64_t seed =
        k == 4 ? 300 : 3000 * static_cast<std::uint64_t>(k);
    expect_conformance(sk, k, sync, config, trials, seed + 1);
    expect_conformance(sk, k, drawn, config, trials, seed + 2);
    expect_conformance(sh, k, drawn, config, trials, seed + 3);
    expect_conformance(sh, k, doa, config, trials, seed + 4);
  }
}

TEST(BatchRunnerPlane, HomeTargetAndAllDoaEdgeCases) {
  const plane::PlaneKnownKStrategy known(3);
  TrialStrategy s;
  s.plane = &known;
  EngineConfig config;
  config.time_cap = 100'000;

  // One target inside the home sight disc, one agent dead on arrival.
  const auto home_env = [&](const rng::Rng&) {
    TrialEnvironment env;
    env.plane_targets = {{20.0, 0.0}, {0.3, -0.4}};
    env.starts = {6, 1, 3};
    env.lifetimes = {kNeverTime, 0, 500};
    return env;
  };
  const auto all_doa = [&](const rng::Rng&) {
    TrialEnvironment env;
    env.plane_targets = {{9.0, 9.0}};
    env.lifetimes = {0, 0, 0};
    return env;
  };
  expect_conformance(s, 3, home_env, config, 6, 401);
  expect_conformance(s, 3, all_doa, config, 6, 402);
}

TEST(BatchRunner, ReusedAcrossTrialsDoesNotLeakState) {
  // One runner fed alternating environments must match fresh scalar runs —
  // the workspaces are reused, the semantics must not be.
  const core::HarmonicStrategy harmonic(0.5);
  TrialStrategy s;
  s.segment = &harmonic;
  EngineConfig config;
  config.time_cap = 100'000;
  LevelGuard guard;
  force_simd_level(detected_simd_level());
  BatchRunner runner(s, 4, config);
  for (int t = 0; t < 60; ++t) {
    const rng::Rng trial_rng(rng::mix_seed(42, static_cast<std::uint64_t>(t)));
    TrialEnvironment env = base_env({{9 + (t % 3), -2}});
    if (t % 2 == 1) {
      env = draw_environment(4, std::move(env.targets), StaggeredStart(3),
                             ExponentialLifetime(200.0), trial_rng);
    }
    const TrialResult want = run_trial(s, 4, env, trial_rng, config);
    const TrialResult got = runner.run_one(env, trial_rng);
    EXPECT_SAME_RESULT(want, got);
  }
}

TEST(BatchRunner, ConstructorRejectsBadArguments) {
  const core::KnownKStrategy known(2);
  TrialStrategy none;
  EXPECT_THROW(BatchRunner(none, 2, {}), std::invalid_argument);
  TrialStrategy s;
  s.segment = &known;
  EXPECT_THROW(BatchRunner(s, 0, {}), std::invalid_argument);
}

TEST(BatchRunner, SegmentBudgetGuardsNonTermination) {
  // Strategies that never move: zero-length moves forever, so no clock
  // reaches the (absent) cap and only the segment budget ends the trial.
  struct StuckGrid final : Strategy {
    std::string name() const override { return "stuck"; }
    std::unique_ptr<AgentProgram> make_program(AgentContext) const override {
      class P final : public AgentProgram {
        Op next(rng::Rng&) override { return GoTo{grid::kOrigin}; }
      };
      return std::make_unique<P>();
    }
  };
  struct StuckPlane final : plane::PlaneStrategy {
    std::string name() const override { return "stuck"; }
    std::unique_ptr<plane::PlaneAgentProgram> make_program(
        int, int) const override {
      class P final : public plane::PlaneAgentProgram {
        plane::PlaneOp next(rng::Rng&) override { return plane::ReturnHome{}; }
      };
      return std::make_unique<P>();
    }
  };
  const StuckGrid stuck_grid;
  const StuckPlane stuck_plane;
  EngineConfig config;
  config.max_segments_per_agent = 1000;
  const rng::Rng trial_rng(7);

  TrialStrategy grid_family;
  grid_family.segment = &stuck_grid;
  BatchRunner grid_runner(grid_family, 2, config);
  try {
    grid_runner.run_one(base_env({{5, 5}}), trial_rng);
    ADD_FAILURE() << "a stuck segment strategy must exhaust its budget";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("BatchRunner: ", 0), 0u) << e.what();
  }

  // The plane strategy fails on the batch plane loop (static targets) and
  // on the scalar plane engine fallback (collect-all) alike.
  TrialStrategy plane_family;
  plane_family.plane = &stuck_plane;
  BatchRunner plane_runner(plane_family, 2, config);
  TrialEnvironment plane_env;
  plane_env.plane_targets = {{5.0, 5.0}};
  EXPECT_THROW(plane_runner.run_one(plane_env, trial_rng), std::runtime_error);
  plane_env.collect_all = true;
  EXPECT_THROW(plane_runner.run_one(plane_env, trial_rng), std::runtime_error);
  EXPECT_EQ(plane_runner.take_scalar_fallbacks(), 1u);
}

// --- folded legs -----------------------------------------------------------
//
// The static segment loop runs a pop's leg and folds up to two more cheap
// legs of the same agent into the pop, then, at the end, takes back the
// folded legs that started past the final bound (and a death in one). These
// cases aim at that accounting: deaths and budget crossings inside folded
// legs on either side of the bound, staggered starts, ties at a leg
// junction, and every trip-shaped strategy at k = 1, 3, 4, 17 and 64.

/// Runs one trial through the reference and through run_block at every
/// dispatch level: both must throw std::runtime_error or both return the
/// same result. Returns the reference's result, or nullopt when it threw.
std::optional<TrialResult> expect_same_outcome(const TrialStrategy& strategy,
                                               int k,
                                               const TrialEnvironment& env,
                                               const EngineConfig& config,
                                               std::uint64_t seed = 17) {
  const rng::Rng trial_rng(seed);
  std::optional<TrialResult> want;
  try {
    want = run_trial(strategy, k, env, trial_rng, config);
  } catch (const std::runtime_error&) {
  }
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    BatchRunner runner(strategy, k, config);
    TrialResult got;
    if (want) {
      EXPECT_NO_THROW(runner.run_block(&env, &trial_rng, 1, &got));
      EXPECT_SAME_RESULT(*want, got);
    } else {
      EXPECT_THROW(runner.run_block(&env, &trial_rng, 1, &got),
                   std::runtime_error);
    }
  }
  return want;
}

TEST(BatchRunnerFold, DeathInsideAFoldedLegCountsIffTheLegStartsByTheBound) {
  // Agent 0 walks to (0, a), spirals for 10 and returns, and dies inside the
  // spiral or the return; both are folded into its first pop, at clock 0,
  // before agent 1 finds the target (d, 0) at d + its start, which sets the
  // bound to d - 1 + its start. The reference runs (and counts the death
  // in) the leg iff it starts by that bound.
  using testing::PerAgentScriptedStrategy;
  EngineConfig config;
  config.time_cap = 1'000;
  int counted = 0;
  int uncounted = 0;
  for (const std::int64_t a : {1, 2, 3, 4, 5}) {
    const PerAgentScriptedStrategy scripted(
        {{GoTo{{0, a}}, SpiralFor{10}, ReturnToSource{}}, {GoTo{{6, 0}}}});
    TrialStrategy s;
    s.segment = &scripted;
    for (const Time life : {a + 1, a + 5, a + 9, a + 11, a + 12}) {
      for (const Time start1 : {0, 2}) {
        SCOPED_TRACE("a " + std::to_string(a) + " life " +
                     std::to_string(life) + " start1 " +
                     std::to_string(start1));
        TrialEnvironment env = base_env({{6, 0}});
        env.starts = {0, start1};
        env.lifetimes = {life, kNeverTime};
        const auto want = expect_same_outcome(s, 2, env, config);
        ASSERT_TRUE(want.has_value());
        ++(want->crashed == 1 ? counted : uncounted);
      }
    }
  }
  // Both sides of the bound are exercised.
  EXPECT_GT(counted, 0);
  EXPECT_GT(uncounted, 0);
}

TEST(BatchRunnerFold, BudgetCrossedInsideAFoldThrowsIffTheLegStartsByTheBound) {
  // Agent 0 parks from the start: legs of 2 steps starting at 0, 2, 4, ...,
  // folded two at a time from clock 0 on, so its (budget + 1)-th leg, at
  // 2 * budget, is the one a fold stops at. Agent 1 finds the target (d, 0)
  // at d. The reference throws iff that leg starts by the bound d - 1.
  using testing::PerAgentScriptedStrategy;
  const PerAgentScriptedStrategy scripted({{}, {GoTo{{12, 0}}}});
  TrialStrategy s;
  s.segment = &scripted;
  int threw = 0;
  int returned = 0;
  for (const std::int64_t budget : {1, 2, 3, 4, 5}) {
    for (std::int64_t d = 2; d <= 12; ++d) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " d " +
                   std::to_string(d));
      EngineConfig config;
      config.time_cap = 1'000;
      config.max_segments_per_agent = budget;
      const TrialEnvironment env = base_env({{d, 0}});
      const auto want = expect_same_outcome(s, 2, env, config);
      // A staircase walk from the origin to (12, 0) meets (d, 0) at d.
      EXPECT_EQ(want.has_value(), 2 * budget > d - 1);
      ++(want ? returned : threw);
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(returned, 0);
}

TEST(BatchRunnerFold, TargetsAtALegJunctionKeepFinderAndFirstTarget) {
  // Agent 0's folded walk to (4, 1) ends on two targets at once, at time 5
  // + its start; agent 1 stands on a third target at time t1. In every
  // order of the three targets the earliest time wins, then the lower
  // agent, then the lower target index of that agent's first hit.
  using testing::PerAgentScriptedStrategy;
  EngineConfig config;
  config.time_cap = 1'000;
  const PerAgentScriptedStrategy scripted(
      {{GoTo{{0, 1}}, GoTo{{4, 1}}, SpiralFor{8}, ReturnToSource{}},
       {GoTo{{0, -3}}, GoTo{{-9, -3}}}});
  TrialStrategy s;
  s.segment = &scripted;
  for (const std::int64_t t1 : {4, 5, 6}) {
    const std::array<grid::Point, 3> spots = {
        grid::Point{4, 1}, grid::Point{4, 1}, grid::Point{-(t1 - 3), -3}};
    std::array<std::size_t, 3> order = {0, 1, 2};
    do {
      for (const Time start0 : {0, 1}) {
        TrialEnvironment env = base_env(
            {spots[order[0]], spots[order[1]], spots[order[2]]});
        env.starts = {start0, 0};
        const auto want = expect_same_outcome(s, 2, env, config);
        ASSERT_TRUE(want.has_value());
        ASSERT_TRUE(want->found);
        EXPECT_EQ(want->time, static_cast<double>(std::min(5 + start0, t1)));
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

/// Wraps a strategy and counts the ops and the whole trips its programs
/// hand out.
class CountingStrategy final : public Strategy {
 public:
  explicit CountingStrategy(const Strategy& inner) : inner_(inner) {}

  std::string name() const override { return "counting"; }

  std::unique_ptr<AgentProgram> make_program(AgentContext ctx) const override {
    class Program final : public AgentProgram {
     public:
      Program(std::unique_ptr<AgentProgram> inner, std::int64_t* pulls,
              std::int64_t* trips)
          : inner_(std::move(inner)), pulls_(pulls), trips_(trips) {}
      Op next(rng::Rng& rng) override {
        ++*pulls_;
        return inner_->next(rng);
      }
      bool next_trip(rng::Rng& rng, Trip* trip) override {
        if (!inner_->next_trip(rng, trip)) return false;
        ++*trips_;
        return true;
      }

     private:
      std::unique_ptr<AgentProgram> inner_;
      std::int64_t* pulls_;
      std::int64_t* trips_;
    };
    return std::make_unique<Program>(inner_.make_program(ctx), &pulls,
                                     &trips);
  }

  mutable std::int64_t pulls = 0;
  mutable std::int64_t trips = 0;

 private:
  const Strategy& inner_;
};

TEST(BatchRunnerFold, PullsNoOpForALegPastTheBound) {
  // Once a find has set the bound, a fold stops before the first leg that
  // starts past it without pulling its op: here the loop pulls exactly the
  // ops of the legs the reference runs. Alone, the agent finds (5, 0) with
  // its first leg. Paired, agent 1 finds (4, 0) at 4 before agent 0
  // (starting at 1) pops; agent 0's spiral starts at 3 and folds, its
  // return would start at 13 and is never pulled.
  using testing::PerAgentScriptedStrategy;
  EngineConfig config;
  config.time_cap = 1'000;
  struct Case {
    std::vector<std::vector<Op>> scripts;
    grid::Point target;
    std::vector<Time> starts;
  };
  const std::vector<Case> cases = {
      {{{GoTo{{5, 0}}, SpiralFor{10}, ReturnToSource{}}}, {5, 0}, {0}},
      {{{GoTo{{0, 2}}, SpiralFor{10}, ReturnToSource{}}, {GoTo{{4, 0}}}},
       {4, 0},
       {1, 0}}};
  for (const Case& c : cases) {
    const PerAgentScriptedStrategy scripted(c.scripts);
    const CountingStrategy counting(scripted);
    TrialStrategy s;
    s.segment = &counting;
    const int k = static_cast<int>(c.scripts.size());
    TrialEnvironment env = base_env({c.target});
    env.starts = c.starts;
    const rng::Rng trial_rng(5);
    counting.pulls = 0;
    const TrialResult want = run_trial(s, k, env, trial_rng, config);
    const std::int64_t reference_pulls = counting.pulls;
    EXPECT_EQ(reference_pulls, want.segments);
    LevelGuard guard;
    for (const SimdLevel level : testable_levels()) {
      force_simd_level(level);
      BatchRunner runner(s, k, config);
      counting.pulls = 0;
      TrialResult got;
      runner.run_block(&env, &trial_rng, 1, &got);
      EXPECT_SAME_RESULT(want, got);
      EXPECT_EQ(counting.pulls, reference_pulls);
    }
  }
}

TEST(BatchRunnerFold, TripStrategiesMatchRunTrialAtEveryK) {
  const core::KnownKStrategy known(4);
  const core::UniformStrategy uniform(0.5);
  const core::HarmonicStrategy harmonic(0.5);
  const baselines::LevyStrategy levy(1.5, false);
  const baselines::LevyStrategy levy_loop(2.0, true, 8);
  const baselines::SectorSweepStrategy sector;
  const baselines::KnownKRandomLocalStrategy random_local(4);
  const std::vector<std::pair<std::string, const Strategy*>> strategies = {
      {"known-k", &known},       {"uniform", &uniform},
      {"harmonic", &harmonic},   {"levy", &levy},
      {"levy-loop", &levy_loop}, {"sector-sweep", &sector},
      {"random-local", &random_local}};
  EngineConfig config;
  config.time_cap = 20'000;
  // Near targets, which most trips can reach, and, for the strategies that
  // hand out whole trips, targets at D = 8, 32 and 64, where most trips are
  // quiet and chain. Short lifetimes end agents inside their chains.
  const std::vector<std::vector<grid::Point>> near = {{{9, -4}, {-6, 3}}};
  const std::vector<std::vector<grid::Point>> far = {
      {{9, -4}, {-6, 3}}, {{8, 0}, {-5, 8}}, {{-32, 7}, {20, 29}},
      {{64, -64}}};
  std::uint64_t seed = 500;
  for (const auto& [label, strategy] : strategies) {
    TrialStrategy s;
    s.segment = strategy;
    const bool trips = label == "known-k" || label == "uniform" ||
                       label == "harmonic";
    for (const int k : {1, 3, 4, 17, 64}) {
      for (const std::vector<grid::Point>& targets : trips ? far : near) {
        SCOPED_TRACE(label + " k = " + std::to_string(k) + " D = " +
                     std::to_string(grid::linf_norm(targets.front())));
        const auto sync = [&](const rng::Rng&) { return base_env(targets); };
        const auto staggered = [&](const rng::Rng& trial_rng) {
          return draw_environment(k, targets, StaggeredStart(3),
                                  ExponentialLifetime(400.0), trial_rng);
        };
        const auto doa = [&](const rng::Rng& trial_rng) {
          return draw_environment(k, targets, UniformRandomStart(20),
                                  DoaCrash(0.3), trial_rng);
        };
        const auto short_lives = [&](const rng::Rng& trial_rng) {
          return draw_environment(k, targets, StaggeredStart(5),
                                  ExponentialLifetime(60.0), trial_rng);
        };
        expect_block_conformance(s, k, sync, config, 6, ++seed);
        expect_block_conformance(s, k, staggered, config, 6, ++seed);
        expect_block_conformance(s, k, doa, config, 6, ++seed);
        if (trips) {
          expect_block_conformance(s, k, short_lives, config, 6, ++seed);
        }
      }
    }
  }
}

TEST(BatchRunnerFold, SegmentBudgetCrossedInsideAChainMatchesRunTrial) {
  // Far targets make most trips quiet, so an agent's budget runs out inside
  // a chain: the reference throws iff the leg past the budget starts by the
  // bound, and the runner must throw exactly then.
  const core::KnownKStrategy known(4);
  const core::UniformStrategy uniform(0.5);
  const core::HarmonicStrategy harmonic(0.5);
  int threw = 0;
  int returned = 0;
  std::uint64_t seed = 900;
  for (const Strategy* strategy :
       std::initializer_list<const Strategy*>{&known, &uniform, &harmonic}) {
    TrialStrategy s;
    s.segment = strategy;
    for (const int k : {1, 4, 17}) {
      for (const std::int64_t budget : {5, 20, 60}) {
        for (const Time cap : {200, 3'000}) {
          for (const grid::Point target :
               {grid::Point{8, 0}, grid::Point{-20, 31}}) {
            SCOPED_TRACE(strategy->name() + " k " + std::to_string(k) +
                         " budget " + std::to_string(budget) + " cap " +
                         std::to_string(cap));
            EngineConfig config;
            config.time_cap = cap;
            config.max_segments_per_agent = budget;
            const auto want = expect_same_outcome(s, k, base_env({target}),
                                                  config, ++seed);
            ++(want ? returned : threw);
          }
        }
      }
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(returned, 0);
}

// --- trip chains -------------------------------------------------------------
//
// A trip program hands the static segment loop whole trips; a trip whose
// reach stays below the nearest target's norm is quiet and runs without hit
// tests, and a pop chains quiet trips. These cases pin the quiet predicate
// against an enumeration of every node a trip visits, the spiral end memo
// against spiral_point, and the trips the loop pulls against the reference's
// legs.

TEST(BatchRunnerChain, QuietGridTripsVisitNoTarget) {
  rng::Rng rng(2031);
  int quiet = 0;
  int tight = 0;
  for (int iter = 0; iter < 3'000; ++iter) {
    const std::int64_t span = 1 + iter % 40;
    const grid::Point to{rng.uniform_int(-span, span),
                         rng.uniform_int(-span, span)};
    const std::int64_t r = rng.uniform_int(0, 12);
    Time budget = 0;
    if (iter % 3 == 0) {
      budget = grid::spiral_length_for_radius(r);  // ring r completed
    } else if (iter % 3 == 1) {
      budget = r == 0 ? 0 : (2 * r - 1) * (2 * r - 1);  // ring r entered
    } else {
      budget = rng.uniform_int(0, 700);
    }
    const grid::Point end_offset = grid::spiral_point(budget);
    // Every node the trip visits, by enumeration.
    std::vector<grid::Point> visited;
    std::int64_t farthest = 0;
    const std::vector<Segment> legs = {
        WalkSegment(grid::kOrigin, to), SpiralSegment{to, budget},
        WalkSegment(to + end_offset, grid::kOrigin)};
    for (const Segment& leg : legs) {
      for_each_visit(leg, duration(leg), [&](grid::Point p, Time) {
        visited.push_back(p);
        farthest = std::max(farthest, grid::linf_norm(p));
      });
    }
    const auto is_visited = [&](grid::Point p) {
      return std::find(visited.begin(), visited.end(), p) != visited.end();
    };
    const std::int64_t reach = grid_trip_reach(to, end_offset);
    ASSERT_GE(reach, farthest);
    if (reach == farthest) ++tight;
    // A target on the farthest node visited: never quiet.
    EXPECT_FALSE(grid_trip_quiet(to, end_offset, farthest))
        << "to (" << to.x << ", " << to.y << ") budget " << budget;
    // Targets on the rings around the reach: a quiet trip visits none.
    for (int t = 0; t < 8; ++t) {
      const std::int64_t n = std::max<std::int64_t>(
          1, reach + rng.uniform_int(-2, 2));
      // Spiral ring n is the whole L-infinity ring of radius n.
      const grid::Point target = grid::spiral_point(
          (2 * n - 1) * (2 * n - 1) + rng.uniform_int(0, 8 * n - 1));
      ASSERT_EQ(grid::linf_norm(target), n);
      if (!grid_trip_quiet(to, end_offset, n)) continue;
      ++quiet;
      EXPECT_FALSE(is_visited(target))
          << "to (" << to.x << ", " << to.y << ") budget " << budget;
    }
  }
  // Both sides of the predicate are exercised, and its reach is attained.
  EXPECT_GT(quiet, 1'000);
  EXPECT_GT(tight, 500);
}

TEST(BatchRunnerChain, SpiralPointMemoReturnsSpiralPointBits) {
  SpiralPointMemo memo;
  // Budgets that share a slot with 0 and with each other, phase budgets,
  // and the ends of the range, read in an order that evicts and refills.
  std::vector<Time> budgets;
  for (Time n = 1; budgets.size() < 6; ++n) {
    if (SpiralPointMemo::slot(n) == SpiralPointMemo::slot(0)) {
      budgets.push_back(n);
    }
  }
  ASSERT_EQ(SpiralPointMemo::slot(budgets[0]),
            SpiralPointMemo::slot(budgets[1]));
  for (int i = 0; i < 24; ++i) budgets.push_back(Time{1} << (i + 1));
  budgets.push_back(0);
  budgets.push_back(grid::spiral_length_for_radius(1000));
  budgets.push_back((Time{1} << 62) - 1);
  budgets.push_back(Time{1} << 62);
  rng::Rng rng(44);
  for (int pass = 0; pass < 4; ++pass) {
    for (const Time n : budgets) {
      EXPECT_EQ(memo.at(n), grid::spiral_point(n)) << n;
    }
    for (int i = 0; i < 200; ++i) {
      const Time n = rng.uniform_int(0, 5'000);
      EXPECT_EQ(memo.at(n), grid::spiral_point(n)) << n;
    }
    std::reverse(budgets.begin(), budgets.end());
  }
}

TEST(BatchRunnerChain, PullsNoTripPastTheBound) {
  // One agent, so the bound falls only at its own find or sits at the cap.
  // The loop pulls a trip iff its walk out starts by the bound, so it pulls
  // ceil(legs / 3) trips for the legs the reference runs (the reference
  // pulls one op per leg), and no single op. Far targets make most trips
  // quiet; they chain under the cap alone.
  const core::KnownKStrategy known(4);
  const core::UniformStrategy uniform(0.5);
  const core::HarmonicStrategy harmonic(0.5);
  int chained = 0;
  for (const Strategy* strategy :
       std::initializer_list<const Strategy*>{&known, &uniform, &harmonic}) {
    const CountingStrategy counting(*strategy);
    TrialStrategy s;
    s.segment = &counting;
    for (const Time cap : {50, 500, 5'000}) {
      for (const grid::Point target :
           {grid::Point{6, 0}, grid::Point{40, -3}, grid::Point{100, 100}}) {
        SCOPED_TRACE(strategy->name() + " cap " + std::to_string(cap) +
                     " target (" + std::to_string(target.x) + ", " +
                     std::to_string(target.y) + ")");
        EngineConfig config;
        config.time_cap = cap;
        const TrialEnvironment env = base_env({target});
        const rng::Rng trial_rng(cap + target.x);
        counting.pulls = 0;
        const TrialResult want = run_trial(s, 1, env, trial_rng, config);
        const std::int64_t reference_pulls = counting.pulls;
        EXPECT_EQ(reference_pulls, want.segments);
        if (want.segments > 6) ++chained;
        LevelGuard guard;
        for (const SimdLevel level : testable_levels()) {
          force_simd_level(level);
          BatchRunner runner(s, 1, config);
          counting.pulls = 0;
          counting.trips = 0;
          TrialResult got;
          runner.run_block(&env, &trial_rng, 1, &got);
          EXPECT_SAME_RESULT(want, got);
          EXPECT_EQ(counting.pulls, 0);
          EXPECT_EQ(counting.trips, (reference_pulls + 2) / 3);
        }
      }
    }
  }
  EXPECT_GT(chained, 0);
}

TEST(TrialBlock, TilesTrialsExactlyWithinTheCap) {
  for (const unsigned workers : {1U, 2U, 3U, 4U, 7U, 64U}) {
    for (std::size_t trials = 1; trials <= 600; ++trials) {
      const std::size_t block = trial_block(trials, workers);
      ASSERT_GE(block, 1U);
      ASSERT_LE(block, kTrialBlock);
      if (workers == 1) {
        ASSERT_EQ(block, kTrialBlock);
      }
      // The drivers' tiling: block b covers [b * block, min(trials, ...)).
      std::vector<int> covered(trials, 0);
      const std::size_t n_blocks = (trials + block - 1) / block;
      for (std::size_t b = 0; b < n_blocks; ++b) {
        for (std::size_t t = b * block; t < std::min(trials, (b + 1) * block);
             ++t) {
          ++covered[t];
        }
      }
      for (std::size_t t = 0; t < trials; ++t) {
        ASSERT_EQ(covered[t], 1) << trials << " trials, " << workers
                                 << " workers, trial " << t;
      }
      // A cell no larger than workers * kTrialBlock trials never has more
      // blocks than workers.
      if (trials <= workers * kTrialBlock) {
        ASSERT_LE(n_blocks, workers);
      }
    }
  }
  // A 60-trial cell spreads over 4 workers; 256 trials keep 64-trial blocks.
  EXPECT_EQ(trial_block(60, 4), 15U);
  EXPECT_EQ(trial_block(256, 4), kTrialBlock);
  EXPECT_EQ(trial_block(3, 4), 1U);
}

// ANTS_SIMD_LEVEL sets the level a process starts at: scalar under
// "scalar", the detected level under anything else (avx2 clamps to it,
// unset and unrecognized values are ignored). The simd_env_* CTest entries
// run this test alone under each kind of value; in a full run it holds
// too, since every test that forces a level restores the one it found.
TEST(BatchSimd, EnvOverrideSetsStartingLevel) {
  const char* env = std::getenv("ANTS_SIMD_LEVEL");
  const SimdLevel want = env != nullptr && std::string(env) == "scalar"
                             ? SimdLevel::kScalar
                             : detected_simd_level();
  EXPECT_STREQ(simd_level_name(active_simd_level()), simd_level_name(want))
      << "ANTS_SIMD_LEVEL=" << (env != nullptr ? env : "(unset)");
}

TEST(BatchSimd, EnvAndForceClampToDetected) {
  LevelGuard guard;
  force_simd_level(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(active_simd_level()),
            static_cast<int>(detected_simd_level()));
  force_simd_level(SimdLevel::kScalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
}

}  // namespace
}  // namespace ants::sim::batch
