// Start schedules and fail-stop crash models.
//
// Section 2 of the paper makes two simplifying assumptions and argues both
// away in one sentence each: agents start simultaneously ("can easily be
// removed by starting to count the time after the last agent initiates the
// search") and never fail. This module makes those remarks executable so
// experiment E9 can check them quantitatively:
//
//   * A StartSchedule assigns each agent a start delay; the executor
//     reports the search time both from t0 (first possible start) and from
//     the last start, so the paper's "count from the last start" reduction
//     is a measurable claim rather than a modeling convention.
//   * A CrashModel assigns each agent an active-time budget (lifetime);
//     an agent that exhausts its lifetime halts in place and contributes
//     nothing further (fail-stop — the agent does not "unvisit" anything).
//     Crash robustness is the natural future-work axis of the paper: with
//     Bernoulli dead-on-arrival failures of rate p the survivors are a
//     Binomial(k, 1-p) crowd, so E[T] should track D + D^2/((1-p)k).
//
// Both policies are pure per-trial draws consumed by sim::draw_environment
// (sim/trial.h). The resulting environment applies to EVERY strategy
// family — segment-, lock-step-, and continuous-plane-level alike — in the
// batch executor behind sim::run_cell_blocks (sim/batch/batch.h). Plane
// backends read the integer delays/lifetimes as continuous time units.
//
// Determinism: delays and lifetimes are drawn from dedicated child streams
// of the trial rng (tags kScheduleStream / kCrashStream), so enabling either
// feature does not perturb the agents' program randomness — the same trial
// seed explores the same trajectories, only truncated or shifted.
#pragma once

#include <memory>
#include <vector>

#include "rng/rng.h"
#include "sim/engine.h"
#include "sim/program.h"
#include "sim/types.h"

namespace ants::sim {

/// Start times for the k agents of one trial.
class StartSchedule {
 public:
  virtual ~StartSchedule() = default;
  /// k start delays (>= 0), one per agent. Must be deterministic given rng.
  virtual std::vector<Time> draw(int k, rng::Rng& rng) const = 0;
};

/// Everybody at t = 0 (the paper's base model).
class SyncStart final : public StartSchedule {
 public:
  std::vector<Time> draw(int k, rng::Rng& rng) const override;
};

/// Agent a starts at a * gap: the adversarial "drip" release. With gap >= 1
/// the last start is (k-1)*gap, so measuring from t0 necessarily costs that
/// much; measuring from the last start should not.
class StaggeredStart final : public StartSchedule {
 public:
  explicit StaggeredStart(Time gap);
  std::vector<Time> draw(int k, rng::Rng& rng) const override;

 private:
  Time gap_;
};

/// Each agent independently starts at Uniform{0, ..., max_delay}.
class UniformRandomStart final : public StartSchedule {
 public:
  explicit UniformRandomStart(Time max_delay);
  std::vector<Time> draw(int k, rng::Rng& rng) const override;

 private:
  Time max_delay_;
};

/// Explicit per-agent delays (adversarial schedules in tests).
class FixedStart final : public StartSchedule {
 public:
  explicit FixedStart(std::vector<Time> delays);
  std::vector<Time> draw(int k, rng::Rng& rng) const override;

 private:
  std::vector<Time> delays_;
};

/// Active-time budgets (lifetimes) for the k agents of one trial. An agent
/// with lifetime L executes exactly L time units of its own program and then
/// halts; kNeverTime means immortal.
class CrashModel {
 public:
  virtual ~CrashModel() = default;
  virtual std::vector<Time> draw_lifetimes(int k, rng::Rng& rng) const = 0;
};

/// No failures (the paper's base model).
class NoCrash final : public CrashModel {
 public:
  std::vector<Time> draw_lifetimes(int k, rng::Rng& rng) const override;
};

/// Dead on arrival with probability p (independently per agent): the
/// survivors are a Binomial(k, 1-p) search party.
class DoaCrash final : public CrashModel {
 public:
  explicit DoaCrash(double p);
  std::vector<Time> draw_lifetimes(int k, rng::Rng& rng) const override;

 private:
  double p_;
};

/// Independent Exponential(1/mean) lifetimes: memoryless attrition.
class ExponentialLifetime final : public CrashModel {
 public:
  explicit ExponentialLifetime(double mean);
  std::vector<Time> draw_lifetimes(int k, rng::Rng& rng) const override;

 private:
  double mean_;
};

/// Every agent halts after exactly `lifetime` active time units.
class FixedLifetime final : public CrashModel {
 public:
  explicit FixedLifetime(Time lifetime);
  std::vector<Time> draw_lifetimes(int k, rng::Rng& rng) const override;

 private:
  Time lifetime_;
};

}  // namespace ants::sim
