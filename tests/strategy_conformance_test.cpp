// Conformance suite: every sim::Strategy in the library, one contract.
//
// Parameterized over a factory list so each requirement is checked against
// EVERY strategy — paper algorithms, remark variants, baselines, ablations.
// The contract (what the engine and runner assume):
//
//   1. programs are infinite: next() keeps producing ops without throwing;
//   2. ops are well-formed: non-negative spiral budgets, adjacent FollowPath
//      hops, finite GoTo targets;
//   3. determinism: same rng seed => identical op stream;
//   4. engine integration: a small-scale collaborative search terminates
//      and (for the searching strategies) succeeds under a generous cap;
//   5. sync/no-crash async runs reproduce the plain engine exactly;
//   6. the op stream is pinned: a digest of the first ops of agents 0-3
//      at fixed seeds equals the one recorded for the case, so a refactor
//      of a program cannot move a random draw to another op unnoticed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "baselines/ablation_variants.h"
#include "baselines/levy.h"
#include "baselines/sector_sweep.h"
#include "baselines/spiral_single.h"
#include "core/approx_k.h"
#include "core/harmonic.h"
#include "core/hedged.h"
#include "core/known_k.h"
#include "core/lowmem.h"
#include "core/single_shot.h"
#include "core/uniform.h"
#include "sim/placement.h"
#include "sim/runner.h"
#include "sim/trial.h"
#include "support/reference_trial.h"

namespace ants {
namespace {

struct StrategyCase {
  std::string label;
  std::function<std::unique_ptr<sim::Strategy>()> make;
  bool always_finds;  ///< finds a D=8 treasure at k=8 under a generous cap
  std::uint64_t op_digest;  ///< op_stream_digest of the case (contract 6)
  int digest_ops = 2000;    ///< ops hashed per agent
};

std::vector<StrategyCase> all_cases() {
  return {
      {"known-k", [] { return std::make_unique<core::KnownKStrategy>(8); },
       true, 5879954799667318296ULL},
      {"approx-under",
       [] {
         return std::make_unique<core::ApproxKStrategy>(
             8, 2.0, core::ApproxMode::kUnder);
       },
       true, 17172240675624376476ULL},
      // k * rho / rho = k: known-k(8)'s stream, reached through the estimate.
      {"approx-over",
       [] {
         return std::make_unique<core::ApproxKStrategy>(
             8, 2.0, core::ApproxMode::kOver);
       },
       true, 5879954799667318296ULL},
      // The only mode whose estimate draw consumes the agent's stream.
      {"approx-loguniform",
       [] {
         return std::make_unique<core::ApproxKStrategy>(
             8, 2.0, core::ApproxMode::kLogUniform);
       },
       true, 16807514669200096429ULL},
      {"uniform",
       [] { return std::make_unique<core::UniformStrategy>(0.5); }, true,
       17222304313984605268ULL},
      {"harmonic",
       [] { return std::make_unique<core::HarmonicStrategy>(0.5); }, true,
       14241028807790049038ULL},
      {"hedged",
       [] { return std::make_unique<core::HedgedApproxStrategy>(16.0, 0.5); },
       true, 8930463172085050642ULL},
      {"sweep-known-k",
       [] { return std::make_unique<core::SingleSweepKnownK>(8); }, true,
       7072455182194158340ULL},
      {"sweep-uniform",
       [] { return std::make_unique<core::SingleSweepUniform>(0.5); }, true,
       933962714623387139ULL},
      {"lowmem-uniform",
       [] { return std::make_unique<core::LowMemUniformStrategy>(0.5); },
       true, 8832447624691019968ULL},
      {"lowmem-harmonic",
       [] { return std::make_unique<core::LowMemHarmonicStrategy>(0.5); },
       true, 5173935634335586625ULL},
      {"sector-sweep",
       [] { return std::make_unique<baselines::SectorSweepStrategy>(); },
       true, 6954206117805615737ULL},
      {"spiral-single",
       [] { return std::make_unique<baselines::SpiralSingleStrategy>(); },
       true, 12258545885952101157ULL},
      {"levy-loop",
       [] { return std::make_unique<baselines::LevyStrategy>(2.0, true, 32); },
       true, 2934965721446153095ULL},
      // Free Levy flights drift off; success within the cap is not
      // guaranteed, only the op-stream contract is.
      {"levy-free",
       [] {
         return std::make_unique<baselines::LevyStrategy>(1.5, false, 0);
       },
       false, 5439894105436726478ULL},
      // Each random-walk leg is materialized step by step and phase i's
      // leg is min(2^(2i-1), 2^22) steps long, so the digest stops after
      // 200 ops (stages 1-11), where 2000 would walk ~5e9 steps.
      {"ak-rw-local",
       [] {
         return std::make_unique<baselines::KnownKRandomLocalStrategy>(8);
       },
       true, 14055354707768630315ULL, 200},
      {"ak-no-return",
       [] { return std::make_unique<baselines::KnownKNoReturnStrategy>(8); },
       true, 13476461652683276276ULL},
  };
}

/// FNV-1a over 64-bit words.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

/// Folds one op into the digest: the op kind, the GoTo coordinates, the
/// spiral duration and every FollowPath step.
void add_op(Fnv1a& fnv, const sim::Op& op) {
  fnv.add(static_cast<std::uint64_t>(op.index()));
  if (const auto* go = std::get_if<sim::GoTo>(&op)) {
    fnv.add(go->target.x);
    fnv.add(go->target.y);
  } else if (const auto* sp = std::get_if<sim::SpiralFor>(&op)) {
    fnv.add(sp->duration);
  } else if (const auto* fp = std::get_if<sim::FollowPath>(&op)) {
    fnv.add(static_cast<std::uint64_t>(fp->steps.size()));
    for (const grid::Point& p : fp->steps) {
      fnv.add(p.x);
      fnv.add(p.y);
    }
  }
}

/// Digest of the first `ops` ops of agents 0-3 (k = 4), agent a drawing
/// from Rng(20261019).child(a) as the executors seed it. With `trips`, the
/// stream is pulled as the executor's chains pull it: a whole trip
/// (next_trip, read as its three ops) at every second or third op where
/// three ops are left, next() elsewhere and wherever next_trip declines.
/// `*trips_taken` counts the trips next_trip handed out.
std::uint64_t op_stream_digest(const sim::Strategy& strategy, int ops,
                               bool trips = false,
                               int* trips_taken = nullptr) {
  Fnv1a fnv;
  const rng::Rng trial(20261019);
  for (int a = 0; a < 4; ++a) {
    const auto program = strategy.make_program(sim::AgentContext{a, 4});
    rng::Rng rng = trial.child(static_cast<std::uint64_t>(a));
    for (int i = 0; i < ops;) {
      sim::Trip trip;
      if (trips && (i + a) % 5 != 1 && ops - i >= 3 &&
          program->next_trip(rng, &trip)) {
        add_op(fnv, sim::GoTo{trip.to});
        add_op(fnv, sim::SpiralFor{trip.budget});
        add_op(fnv, sim::ReturnToSource{});
        i += 3;
        if (trips_taken != nullptr) ++*trips_taken;
      } else {
        add_op(fnv, program->next(rng));
        ++i;
      }
    }
  }
  return fnv.h;
}

class StrategyConformanceTest
    : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategyConformanceTest, ProducesWellFormedInfiniteOpStream) {
  const auto strategy = GetParam().make();
  const auto program = strategy->make_program(sim::AgentContext{0, 8});
  rng::Rng rng(12345);
  for (int i = 0; i < 200; ++i) {
    const sim::Op op = program->next(rng);
    if (const auto* sp = std::get_if<sim::SpiralFor>(&op)) {
      EXPECT_GE(sp->duration, 0) << i;
    } else if (const auto* go = std::get_if<sim::GoTo>(&op)) {
      // Targets must be sane lattice points (|coord| leaves arithmetic
      // headroom; see grid/point.h).
      EXPECT_LT(util::iabs(go->target.x), std::int64_t{1} << 50) << i;
      EXPECT_LT(util::iabs(go->target.y), std::int64_t{1} << 50) << i;
    } else if (const auto* fp = std::get_if<sim::FollowPath>(&op)) {
      for (std::size_t s = 1; s < fp->steps.size(); ++s) {
        ASSERT_TRUE(grid::adjacent(fp->steps[s - 1], fp->steps[s]));
      }
    }
  }
}

TEST_P(StrategyConformanceTest, OpStreamIsDeterministicPerSeed) {
  const auto strategy = GetParam().make();
  const auto p0 = strategy->make_program(sim::AgentContext{0, 8});
  const auto p1 = strategy->make_program(sim::AgentContext{0, 8});
  rng::Rng r0(777), r1(777);
  for (int i = 0; i < 120; ++i) {
    const sim::Op a = p0->next(r0);
    const sim::Op b = p1->next(r1);
    ASSERT_EQ(a.index(), b.index()) << i;
    if (const auto* go = std::get_if<sim::GoTo>(&a)) {
      EXPECT_EQ(go->target, std::get<sim::GoTo>(b).target) << i;
    } else if (const auto* sp = std::get_if<sim::SpiralFor>(&a)) {
      EXPECT_EQ(sp->duration, std::get<sim::SpiralFor>(b).duration) << i;
    } else if (const auto* fp = std::get_if<sim::FollowPath>(&a)) {
      const auto& fb = std::get<sim::FollowPath>(b);
      ASSERT_EQ(fp->steps.size(), fb.steps.size()) << i;
      for (std::size_t s = 0; s < fp->steps.size(); ++s) {
        ASSERT_EQ(fp->steps[s], fb.steps[s]);
      }
    }
  }
}

TEST_P(StrategyConformanceTest, OpStreamMatchesPinnedDigest) {
  const auto strategy = GetParam().make();
  EXPECT_EQ(op_stream_digest(*strategy, GetParam().digest_ops),
            GetParam().op_digest)
      << strategy->name();
}

TEST_P(StrategyConformanceTest, TripCallsInterleavedWithNextMatchPinnedDigest) {
  // The chains' whole-trip call draws exactly what three next() calls draw:
  // interleaved with next(), it reproduces the pinned op stream. The
  // paper's trip strategies hand out trips; the others never do.
  const auto strategy = GetParam().make();
  const std::string& label = GetParam().label;
  const bool trip_law =
      label != "sector-sweep" && label != "spiral-single" &&
      label != "levy-loop" && label != "levy-free" &&
      label != "ak-rw-local" && label != "ak-no-return";
  if (!trip_law) {
    // next_trip declines at every op and draws nothing: the stream after
    // it is the pinned one (OpStreamMatchesPinnedDigest).
    const auto program = strategy->make_program(sim::AgentContext{0, 4});
    rng::Rng rng(20261019);
    for (int i = 0; i < 12; ++i) {
      sim::Trip trip;
      const rng::Rng before = rng;
      EXPECT_FALSE(program->next_trip(rng, &trip)) << strategy->name();
      EXPECT_EQ(rng::Rng(rng).bits(), rng::Rng(before).bits());
      program->next(rng);
    }
    return;
  }
  int trips = 0;
  EXPECT_EQ(op_stream_digest(*strategy, GetParam().digest_ops, true, &trips),
            GetParam().op_digest)
      << strategy->name();
  EXPECT_GT(trips, GetParam().digest_ops / 6) << strategy->name();
}

TEST_P(StrategyConformanceTest, SmallScaleSearchTerminates) {
  const auto strategy = GetParam().make();
  sim::RunConfig config;
  config.trials = 30;
  config.seed = 2468;
  config.time_cap = 1 << 20;
  const sim::RunStats rs = sim::run_trials(
      *strategy, 8, 8, sim::uniform_ring_placement(), config);
  if (GetParam().always_finds) {
    EXPECT_GT(rs.success_rate, 0.9) << strategy->name();
  }
  EXPECT_GE(rs.time.mean, 0.0);
}

TEST_P(StrategyConformanceTest, DrawnSyncNoCrashMatchesBaseModel) {
  // The drivers skip draw_environment under the base model; that shortcut
  // must be invisible for every strategy.
  const auto strategy = GetParam().make();
  const grid::Point treasure{5, -3};
  sim::EngineConfig config;
  config.time_cap = 1 << 20;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const rng::Rng trial(seed);
    const sim::TrialResult plain = sim::run_trial(
        *strategy, 8, sim::single_target_environment(treasure), trial, config);
    const sim::TrialResult async = sim::run_trial(
        *strategy, 8,
        sim::draw_environment(8, {treasure}, sim::SyncStart(), sim::NoCrash(),
                              trial),
        trial, config);
    ASSERT_EQ(async.found, plain.found) << seed;
    ASSERT_EQ(async.time, plain.time) << seed;
    ASSERT_EQ(async.finder, plain.finder) << seed;
  }
}

TEST_P(StrategyConformanceTest, NameIsStableAndNonEmpty) {
  const auto a = GetParam().make();
  const auto b = GetParam().make();
  EXPECT_FALSE(a->name().empty());
  EXPECT_EQ(a->name(), b->name());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyConformanceTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      std::string id = info.param.label;
      for (char& c : id) {
        if (c == '-') c = '_';
      }
      return id;
    });

}  // namespace
}  // namespace ants
