// Microbenchmarks for the geometric primitives the engine's O(1) hit
// detection rests on. These quantify the costs that make segment-level
// simulation ~10^6x cheaper than stepping: a spiral index lookup must stay
// in the low nanoseconds for the closed forms to beat enumeration.
#include <benchmark/benchmark.h>

#include "grid/ball.h"
#include "grid/spiral.h"
#include "grid/staircase_path.h"
#include "rng/power_law.h"
#include "rng/rng.h"
#include "scenario/registry.h"

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

// Strategy setup cost: one registry build of the harmonic strategy. Its
// radius law's octave table (~2^19 pow calls) is memoised per process, so
// after the first iteration this times the parse + factory + table lookup.
void BM_RegistryMakeHarmonic(benchmark::State& state) {
  const ants::scenario::Registry& registry =
      ants::scenario::Registry::instance();
  const ants::scenario::BuildContext ctx{16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.make("harmonic(delta=0.5)", ctx));
  }
}
BENCHMARK(BM_RegistryMakeHarmonic);

void BM_RngUniformU64(benchmark::State& state) {
  ants::rng::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_u64(1000003));
  }
}
BENCHMARK(BM_RngUniformU64);

}  // namespace

BENCHMARK_MAIN();
