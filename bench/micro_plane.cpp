// Microbenchmarks for the continuous-plane primitives (src/plane).
//
// The plane engine's viability rests on first_sighting staying cheap: the
// line test is one quadratic, and the spiral test must stay sub-10us in
// both its regimes (dense near-center scan, per-coil ternary in the deep
// regime) for E11's plane-vs-grid sweeps to finish in seconds.
#include <benchmark/benchmark.h>

#include "plane/engine.h"
#include "plane/segment.h"
#include "plane/strategies.h"
#include "rng/rng.h"

namespace {

using ants::plane::LineMove;
using ants::plane::Move;
using ants::plane::SpiralMove;
using ants::plane::Vec2;

void BM_LineSighting(benchmark::State& state) {
  ants::rng::Rng rng(1);
  std::vector<Vec2> targets;
  for (int i = 0; i < 1024; ++i) {
    targets.push_back({rng.uniform_real(-50, 50), rng.uniform_real(-50, 50)});
  }
  const Move move{LineMove{{-40, -3}, {40, 7}}};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ants::plane::first_sighting(move, targets[i++ & 1023], 1.0));
  }
}
BENCHMARK(BM_LineSighting);

void BM_SpiralSightingMiss(benchmark::State& state) {
  // Radial rejection: the target is outside the swept annulus — the common
  // case in a trial, must be O(1).
  const Move move{SpiralMove{{0, 0}, 1.0, 10000.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ants::plane::first_sighting(move, Vec2{500, 0}, 1.0));
  }
}
BENCHMARK(BM_SpiralSightingMiss);

void BM_SpiralSightingNearCenter(benchmark::State& state) {
  ants::rng::Rng rng(2);
  std::vector<Vec2> targets;
  for (int i = 0; i < 256; ++i) {
    targets.push_back(ants::plane::unit(rng.angle()) *
                      rng.uniform_real(2.0, 12.0));
  }
  const Move move{SpiralMove{{0, 0}, 1.0, 2000.0}};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ants::plane::first_sighting(move, targets[i++ & 255], 1.0));
  }
}
BENCHMARK(BM_SpiralSightingNearCenter);

void BM_SpiralSightingDeep(benchmark::State& state) {
  ants::rng::Rng rng(3);
  std::vector<Vec2> targets;
  for (int i = 0; i < 256; ++i) {
    targets.push_back(ants::plane::unit(rng.angle()) *
                      rng.uniform_real(60.0, 90.0));
  }
  const Move move{SpiralMove{{0, 0}, 1.0, 60000.0}};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ants::plane::first_sighting(move, targets[i++ & 255], 1.0));
  }
}
BENCHMARK(BM_SpiralSightingDeep);

void BM_SpiralThetaForArc(benchmark::State& state) {
  double s = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ants::plane::spiral_theta_for_arc(0.159, s));
    s = s < 1e12 ? s * 1.37 : 1.0;
  }
}
BENCHMARK(BM_SpiralThetaForArc);

void BM_PlaneTrialHarmonic(benchmark::State& state) {
  // One full collaborative plane trial: k = 16, D = 24.
  const ants::plane::PlaneHarmonicStrategy strategy(0.5);
  ants::plane::PlaneTrialEnvironment env;
  env.targets = {Vec2{17, 17}};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const ants::rng::Rng trial(seed++);
    ants::plane::PlaneEngineConfig config;
    config.time_cap = 1e6;
    benchmark::DoNotOptimize(
        ants::plane::run_plane_trial(strategy, 16, env, trial, config));
  }
}
BENCHMARK(BM_PlaneTrialHarmonic);

}  // namespace

BENCHMARK_MAIN();
