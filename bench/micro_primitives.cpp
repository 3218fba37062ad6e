// Microbenchmarks for the geometric primitives the engine's O(1) hit
// detection rests on. These quantify the costs that make segment-level
// simulation ~10^6x cheaper than stepping: a spiral index lookup must stay
// in the low nanoseconds for the closed forms to beat enumeration. The
// BM_ProgramNext group times op generation, the other per-segment cost of
// the segment backend.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>

#include "grid/ball.h"
#include "grid/spiral.h"
#include "grid/staircase_path.h"
#include "plane/engine.h"
#include "rng/power_law.h"
#include "rng/rng.h"
#include "scenario/registry.h"
#include "sim/program.h"

namespace {

void BM_SpiralPoint(benchmark::State& state) {
  std::int64_t n = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ants::grid::spiral_point(n));
    n = (n * 2862933555777941757LL + 3037000493LL) & ((1LL << 40) - 1);
  }
}
BENCHMARK(BM_SpiralPoint);

void BM_SpiralIndex(benchmark::State& state) {
  ants::rng::Rng rng(1);
  std::vector<ants::grid::Point> pts;
  for (int i = 0; i < 1024; ++i) {
    pts.push_back({rng.uniform_int(-100000, 100000),
                   rng.uniform_int(-100000, 100000)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ants::grid::spiral_index(pts[i++ & 1023]));
  }
}
BENCHMARK(BM_SpiralIndex);

void BM_StaircaseMembership(benchmark::State& state) {
  const ants::grid::StaircasePath path({0, 0}, {1 << 20, (1 << 20) + 12345});
  ants::rng::Rng rng(2);
  std::vector<ants::grid::Point> probes;
  for (int i = 0; i < 1024; ++i) {
    const std::int64_t t = rng.uniform_int(0, path.length());
    probes.push_back(path.at(t));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.index_of(probes[i++ & 1023]));
  }
}
BENCHMARK(BM_StaircaseMembership);

void BM_UniformBallSample(benchmark::State& state) {
  ants::rng::Rng rng(3);
  const std::int64_t radius = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ants::grid::uniform_ball_point(rng, radius));
  }
}
BENCHMARK(BM_UniformBallSample)->Arg(16)->Arg(1024)->Arg(1 << 20);

void BM_PowerLawSample(benchmark::State& state) {
  ants::rng::Rng rng(4);
  const ants::rng::DiscretePowerLaw law(1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(law.sample(rng));
  }
}
BENCHMARK(BM_PowerLawSample);

// One unmemoised octave-table build at the harmonic default (exponent 1.5,
// r_max 2^45): what the first law of each (exponent, r_max) costs a
// process. The exponent passes through DoNotOptimize so the build is not
// folded; it stays fixed, since build_table bypasses the memo anyway.
void BM_PowerLawTableBuild(benchmark::State& state) {
  double exponent = 1.5;
  const std::int64_t r_max = std::int64_t{1} << 45;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exponent);
    benchmark::DoNotOptimize(
        ants::rng::DiscretePowerLaw::build_table(exponent, r_max));
  }
}
BENCHMARK(BM_PowerLawTableBuild)->Unit(benchmark::kMicrosecond);

// Strategy setup cost: one registry build of the harmonic strategy. Its
// radius law's octave table (BM_PowerLawTableBuild) is memoised per
// process, so after the first iteration this times the parse + factory +
// table lookup.
void BM_RegistryMakeHarmonic(benchmark::State& state) {
  const ants::scenario::Registry& registry =
      ants::scenario::Registry::instance();
  const ants::scenario::BuildContext ctx{16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.make("harmonic(delta=0.5)", ctx));
  }
}
BENCHMARK(BM_RegistryMakeHarmonic);

// Uniform's construction cost: every registry build fills the strategy's
// phase table (528 phases, one pow per phase index j); nothing is memoised.
void BM_RegistryMakeUniform(benchmark::State& state) {
  const ants::scenario::Registry& registry =
      ants::scenario::Registry::instance();
  const ants::scenario::BuildContext ctx{16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.make("uniform(eps=0.5)", ctx));
  }
}
BENCHMARK(BM_RegistryMakeUniform);

// Op generation as the executor pays it, per op: one make_program per
// agent (k = 16, as the paper workload's cells), then 240 virtual `next`
// calls (80 trips) before the next agent's program. Strategies at the
// paper workload's parameters; plane-uniform times the plane op family,
// whose disk radius and sweep budget pay two std::pow per trip.
void BM_ProgramNext(benchmark::State& state, const char* spec) {
  const ants::scenario::BuildContext ctx{16};
  const ants::scenario::BuiltStrategy built =
      ants::scenario::Registry::instance().make(spec, ctx);
  ants::rng::Rng rng(6);
  int agent = 0;
  int left = 0;
  if (built.is_plane()) {
    std::unique_ptr<ants::plane::PlaneAgentProgram> program;
    for (auto _ : state) {
      if (left == 0) {
        program = built.plane->make_program(agent++ & 15, 16);
        left = 240;
      }
      --left;
      benchmark::DoNotOptimize(program->next(rng));
    }
    return;
  }
  std::unique_ptr<ants::sim::AgentProgram> program;
  for (auto _ : state) {
    if (left == 0) {
      program = built.segment->make_program({agent++ & 15, 16});
      left = 240;
    }
    --left;
    benchmark::DoNotOptimize(program->next(rng));
  }
}
const bool kProgramNextRegistered = [] {
  for (const auto& [name, spec] :
       {std::pair{"known-k", "known-k"},
        std::pair{"uniform", "uniform(eps=0.5)"},
        std::pair{"harmonic", "harmonic(delta=0.5)"},
        std::pair{"lowmem-uniform", "lowmem-uniform(eps=0.5)"},
        std::pair{"approx-k", "approx-k(rho=2, mode=log-uniform)"},
        std::pair{"plane-uniform", "plane-uniform(eps=0.5)"}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_ProgramNext/") + name).c_str(), BM_ProgramNext,
        spec);
  }
  return true;
}();

void BM_RngUniformU64(benchmark::State& state) {
  ants::rng::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_u64(1000003));
  }
}
BENCHMARK(BM_RngUniformU64);

}  // namespace

BENCHMARK_MAIN();
