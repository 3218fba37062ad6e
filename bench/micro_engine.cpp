// Microbenchmarks for the simulation engine: cost of a full collaborative
// trial at experiment scale. The headline number — a D=256, k=64 known-k
// trial in microseconds — is what makes the E1-E8 sweeps laptop-scale
// (stepping the same trial would cost ~D^2/k * k = 65536+ node visits).
//
// The BM_Trial* and BM_Unified* groups run the scalar reference executor
// (sim::run_trial, tests/support/reference_trial.h), the readable twin the
// tests pin the product's BatchRunner to. The BM_Trial* group times the
// base model per paper strategy; the BM_Unified* group adds the environment
// draw, async, multi-target, and lock-step costs, each paired with a
// BM_Batched* twin that runs the same trials on BatchRunner.
// BM_BlockStepBiased has no twin: it times BatchRunner::run_block over a
// whole lock-step block, in ns per agent-tick.
// bench/baseline_engine.json pins a reference run of this harness;
// tools/bench_compare.py diffs a fresh run against it (the CI
// benchmark-smoke job does both).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "baselines/biased_walk.h"
#include "baselines/random_walk.h"
#include "baselines/sector_sweep.h"
#include "core/harmonic.h"
#include "core/known_k.h"
#include "core/uniform.h"
#include "plane/strategies.h"
#include "scenario/sweep.h"
#include "sim/batch/batch.h"
#include "sim/placement.h"
#include "sim/trial.h"
#include "support/reference_trial.h"
#include "telemetry/run_telemetry.h"

namespace {

void BM_TrialKnownK(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(
        strategy, k, ants::sim::single_target_environment({d, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_TrialKnownK)
    ->Args({1, 64})
    ->Args({16, 64})
    ->Args({64, 256})
    ->Args({256, 1024});

void BM_TrialUniform(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::core::UniformStrategy strategy(0.5);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(
        strategy, k, ants::sim::single_target_environment({64, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_TrialUniform)->Arg(1)->Arg(16)->Arg(256);

void BM_TrialHarmonic(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::core::HarmonicStrategy strategy(0.5);
  std::uint64_t seed = 0;
  ants::sim::EngineConfig config;
  config.time_cap = ants::sim::Time{1} << 32;  // censor heavy-tail stragglers
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(
        strategy, k, ants::sim::single_target_environment({64, 0}), trial,
        config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_TrialHarmonic)->Arg(16)->Arg(256);

void BM_TrialSectorSweep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::SectorSweepStrategy strategy;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(
        strategy, k, ants::sim::single_target_environment({128, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_TrialSectorSweep)->Arg(4)->Arg(64);

// --- the scalar reference executor ------------------------------------------

// Environment draw alone: two child streams + k delays + k lifetimes.
void BM_UnifiedDrawEnvironment(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::sim::StaggeredStart schedule(4);
  const ants::sim::DoaCrash crashes(0.25);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{64, 0}}, schedule,
                                                 crashes, trial);
    benchmark::DoNotOptimize(env.starts.data());
  }
}
BENCHMARK(BM_UnifiedDrawEnvironment)->Arg(16)->Arg(256);

// Sync single-target trial through run_trial: the BM_TrialKnownK call,
// kept under this name as the scalar side of the BM_BatchedTrialSync pair.
void BM_UnifiedTrialSync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(
        strategy, k, ants::sim::single_target_environment({d, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialSync)->Args({16, 64})->Args({64, 256});

// Full async/crash trial: environment draw + segment backend with
// starts/lifetimes live.
void BM_UnifiedTrialAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  const ants::sim::StaggeredStart schedule(4);
  const ants::sim::DoaCrash crashes(0.25);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{d, 0}}, schedule,
                                                 crashes, trial);
    const auto r = ants::sim::run_trial(strategy, k, env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialAsync)->Args({16, 64})->Args({64, 256});

// Multi-target race: per-segment cost scales with the target count.
void BM_UnifiedTrialMultiTarget(benchmark::State& state) {
  const auto n_targets = state.range(0);
  const ants::core::KnownKStrategy strategy(16);
  ants::sim::TrialEnvironment env;
  for (std::int64_t i = 0; i < n_targets; ++i) {
    env.targets.push_back({64 - 2 * i, 2 * i});
  }
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(strategy, 16, env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialMultiTarget)->Arg(2)->Arg(8);

// Lock-step backend under an environment (the step-async capability).
void BM_UnifiedTrialStepAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::StaggeredStart schedule(2);
  const ants::sim::FixedLifetime crashes(2000);
  ants::sim::EngineConfig config;
  config.time_cap = 4000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{4, 0}}, schedule,
                                                 crashes, trial);
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialStepAsync)->Arg(4)->Arg(16);

// The landscape campaign's hot cell: k = 4 static biased walkers
// (bias 0.3, persistence 0.8) at D = 16, cap 40000.
void BM_UnifiedTrialStepBiased(benchmark::State& state) {
  const ants::baselines::BiasedWalkStrategy strategy(0.3, 0.8);
  ants::sim::EngineConfig config;
  config.time_cap = 40000;
  const auto env = ants::sim::single_target_environment({10, -6});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(strategy, 4, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialStepBiased);

// Plane backend under the base model through run_trial: its only cost
// over a direct plane::run_plane_trial call is the dispatch and the
// environment adaptation.
void BM_UnifiedTrialPlaneSync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::plane::PlaneKnownKStrategy strategy(k);
  ants::sim::EngineConfig config;
  config.time_cap = 1'000'000;
  ants::sim::TrialEnvironment env;
  env.plane_targets = {{static_cast<double>(d), 0.0}};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialPlaneSync)->Args({4, 16})->Args({16, 64});

// Plane backend under the full environment: schedule/crash draws + the
// continuous sweep with starts/lifetimes live and a near/far target pair.
void BM_UnifiedTrialPlaneAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::plane::PlaneKnownKStrategy strategy(k);
  const ants::sim::StaggeredStart schedule(2);
  const ants::sim::DoaCrash crashes(0.25);
  ants::sim::EngineConfig config;
  config.time_cap = 1'000'000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    env.plane_targets = {{static_cast<double>(d) / 4.0, 0.0},
                         {static_cast<double>(d), 0.0}};
    env = ants::sim::draw_environment(k, std::move(env), schedule, crashes,
                                      trial);
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialPlaneAsync)->Args({4, 16})->Args({16, 64});

// --- the batch executor -----------------------------------------------------

// BM_Batched* mirror the BM_Unified* bodies exactly — same strategies, same
// per-iteration environment draws, same seeds — with the run_trial call
// replaced by a persistent BatchRunner (as the sweep and runner drivers use
// it). The per-pair speedup is the tentpole's scoreboard:
// tools/bench_compare.py --batched-speedup gates the median ratio in CI.

void BM_BatchedTrialSync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  ants::sim::TrialStrategy ts;
  ts.segment = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, {});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r =
        runner.run_one(ants::sim::single_target_environment({d, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialSync)->Args({16, 64})->Args({64, 256});

void BM_BatchedTrialAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  const ants::sim::StaggeredStart schedule(4);
  const ants::sim::DoaCrash crashes(0.25);
  ants::sim::TrialStrategy ts;
  ts.segment = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, {});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{d, 0}}, schedule,
                                                 crashes, trial);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialAsync)->Args({16, 64})->Args({64, 256});

void BM_BatchedTrialMultiTarget(benchmark::State& state) {
  const auto n_targets = state.range(0);
  const ants::core::KnownKStrategy strategy(16);
  ants::sim::TrialEnvironment env;
  for (std::int64_t i = 0; i < n_targets; ++i) {
    env.targets.push_back({64 - 2 * i, 2 * i});
  }
  ants::sim::TrialStrategy ts;
  ts.segment = &strategy;
  ants::sim::batch::BatchRunner runner(ts, 16, {});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialMultiTarget)->Arg(2)->Arg(8);

void BM_BatchedTrialStepAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::StaggeredStart schedule(2);
  const ants::sim::FixedLifetime crashes(2000);
  ants::sim::EngineConfig config;
  config.time_cap = 4000;
  ants::sim::TrialStrategy ts;
  ts.step = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{4, 0}}, schedule,
                                                 crashes, trial);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialStepAsync)->Arg(4)->Arg(16);

void BM_BatchedTrialStepBiased(benchmark::State& state) {
  const ants::baselines::BiasedWalkStrategy strategy(0.3, 0.8);
  ants::sim::EngineConfig config;
  config.time_cap = 40000;
  ants::sim::TrialStrategy ts;
  ts.step = &strategy;
  ants::sim::batch::BatchRunner runner(ts, 4, config);
  const auto env = ants::sim::single_target_environment({10, -6});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialStepBiased);

// The same hot cell as one 60-trial block, the way the sweep runs a
// landscape cell on one worker: every trial's 4 walkers step together
// through one run_block. ns_per_agent_tick divides the time by the steps
// taken (TrialResult::segments), the unit perfbench's exec.step layer uses.
// No Unified twin: this measures the block loop, not a pair ratio.
void BM_BlockStepBiased(benchmark::State& state) {
  const ants::baselines::BiasedWalkStrategy strategy(0.3, 0.8);
  ants::sim::EngineConfig config;
  config.time_cap = 40000;
  ants::sim::TrialStrategy ts;
  ts.step = &strategy;
  ants::sim::batch::BatchRunner runner(ts, 4, config);
  constexpr std::size_t kTrials = 60;
  const std::vector<ants::sim::TrialEnvironment> envs(
      kTrials, ants::sim::single_target_environment({10, -6}));
  std::vector<ants::sim::TrialResult> results(kTrials);
  std::uint64_t seed = 0;
  std::int64_t agent_ticks = 0;
  double block_ns = 0;
  for (auto _ : state) {
    std::vector<ants::rng::Rng> rngs;
    ++seed;
    for (std::size_t t = 0; t < kTrials; ++t) {
      rngs.emplace_back(ants::rng::mix_seed(seed, t));
    }
    const auto t0 = std::chrono::steady_clock::now();
    runner.run_block(envs.data(), rngs.data(), kTrials, results.data());
    block_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    for (const auto& r : results) agent_ticks += r.segments;
    benchmark::DoNotOptimize(results.data());
  }
  state.counters["ns_per_agent_tick"] =
      block_ns / static_cast<double>(std::max<std::int64_t>(agent_ticks, 1));
}
BENCHMARK(BM_BlockStepBiased);

void BM_BatchedTrialPlaneSync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::plane::PlaneKnownKStrategy strategy(k);
  ants::sim::EngineConfig config;
  config.time_cap = 1'000'000;
  ants::sim::TrialEnvironment env;
  env.plane_targets = {{static_cast<double>(d), 0.0}};
  ants::sim::TrialStrategy ts;
  ts.plane = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialPlaneSync)->Args({4, 16})->Args({16, 64});

void BM_BatchedTrialPlaneAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::plane::PlaneKnownKStrategy strategy(k);
  const ants::sim::StaggeredStart schedule(2);
  const ants::sim::DoaCrash crashes(0.25);
  ants::sim::EngineConfig config;
  config.time_cap = 1'000'000;
  ants::sim::TrialStrategy ts;
  ts.plane = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    env.plane_targets = {{static_cast<double>(d) / 4.0, 0.0},
                         {static_cast<double>(d), 0.0}};
    env = ants::sim::draw_environment(k, std::move(env), schedule, crashes,
                                      trial);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialPlaneAsync)->Args({4, 16})->Args({16, 64});

// --- dynamic target processes ------------------------------------------------

// Stochastic-target twins: Poisson arrival/lifetime windows with dwell
// capture, and a drifting target under collect-all. These are the
// environments the batch executor used to delegate wholesale to the scalar
// path; the pairs pin the native SoA dynamic loops' speedup (the per-tick
// liveness/drift hoisting is the win — the scalar loop recomputes both per
// agent per target per tick).

// Poisson windows + dwell on the lock-step backend.
void BM_UnifiedTrialStochasticDwell(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::TargetProcess process = ants::sim::poisson_targets(
      0.02, 400.0, ants::sim::uniform_ring_placement());
  ants::sim::EngineConfig config;
  config.time_cap = 2000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.grid(realize, 8, config.time_cap, &env);
    }
    env.capture_dwell = 2;
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialStochasticDwell)->Arg(4)->Arg(16);

void BM_BatchedTrialStochasticDwell(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::TargetProcess process = ants::sim::poisson_targets(
      0.02, 400.0, ants::sim::uniform_ring_placement());
  ants::sim::EngineConfig config;
  config.time_cap = 2000;
  ants::sim::TrialStrategy ts;
  ts.step = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.grid(realize, 8, config.time_cap, &env);
    }
    env.capture_dwell = 2;
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialStochasticDwell)->Arg(4)->Arg(16);

// Drifting target + collect-all on the lock-step backend.
void BM_UnifiedTrialStochasticCollect(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::TargetProcess process = ants::sim::drifting_target(
      0.5, 0.125, ants::sim::uniform_ring_placement());
  ants::sim::EngineConfig config;
  config.time_cap = 2000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.grid(realize, 8, config.time_cap, &env);
    }
    env.collect_all = true;
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialStochasticCollect)->Arg(4)->Arg(16);

void BM_BatchedTrialStochasticCollect(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::TargetProcess process = ants::sim::drifting_target(
      0.5, 0.125, ants::sim::uniform_ring_placement());
  ants::sim::EngineConfig config;
  config.time_cap = 2000;
  ants::sim::TrialStrategy ts;
  ts.step = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.grid(realize, 8, config.time_cap, &env);
    }
    env.collect_all = true;
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialStochasticCollect)->Arg(4)->Arg(16);

// --- sweep executor telemetry overhead --------------------------------------

// The telemetry hooks' zero-cost-when-disabled contract (telemetry/metrics.h)
// is pinned by this pair: Off runs the sweep executor with the null
// telemetry pointer every hot-path hook guards on, On runs the identical
// sweep with a live collector (metrics only — no event log or trace file,
// so the pair isolates the hook cost from I/O). Off regressing past the
// gate means disabled telemetry stopped being free; the two drifting far
// apart means a hook landed somewhere hotter than once per trial.
ants::scenario::ScenarioSpec sweep_bench_spec() {
  ants::scenario::ScenarioSpec spec;
  spec.name = "bench";
  spec.strategies = {"known-k"};
  spec.ks = {4};
  spec.distances = {16};
  spec.trials = 64;
  spec.seed = 7;
  return spec;
}

void BM_SweepTelemetryOff(benchmark::State& state) {
  const ants::scenario::ScenarioSpec spec = sweep_bench_spec();
  ants::scenario::SweepOptions opt;
  opt.threads = 1;  // inline execution: no thread-spawn noise
  for (auto _ : state) {
    const auto results = ants::scenario::run_sweep(spec, opt);
    benchmark::DoNotOptimize(results.data());
  }
}
BENCHMARK(BM_SweepTelemetryOff);

void BM_SweepTelemetryOn(benchmark::State& state) {
  const ants::scenario::ScenarioSpec spec = sweep_bench_spec();
  for (auto _ : state) {
    ants::telemetry::RunTelemetry tel;
    ants::scenario::SweepOptions opt;
    opt.threads = 1;
    opt.telemetry = &tel;
    const auto results = ants::scenario::run_sweep(spec, opt);
    tel.finish();
    benchmark::DoNotOptimize(results.data());
  }
}
BENCHMARK(BM_SweepTelemetryOn);

}  // namespace

BENCHMARK_MAIN();
