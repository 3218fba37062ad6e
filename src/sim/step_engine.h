// Step-level strategy interface (random walks and their relatives), which
// have no useful segment structure: all k agents advance one edge per tick
// until some agent stands on the treasure or the cap is reached. Cost is
// O(k * cap) — these baselines are only run at small D, which is exactly
// the paper's point about random walks on Z^2.
//
// A StepStrategy is a per-tick kernel: one call advances every listed lane
// by one tick over struct-of-arrays state the executor owns (StepLanes), so
// an executor makes one virtual call per tick instead of one per agent-tick
// and keeps no per-agent program objects. The batch executor lists the
// active agents of every running trial of a block in one call, so a kernel
// sees many independent lanes at once (random-walk and biased-walk step
// them through the SIMD kernels of sim/batch/kernels.h). Stepping never
// reads target state, so "step every active agent, then detect in agent
// order" is the same trial as "step and check each agent in turn": the
// lowest index still wins a tick.
//
// The lock-step execution loop lives in the batch executor
// (sim/batch/batch.h), which also gives these strategies start schedules,
// fail-stop crashes, and multi-target races.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/point.h"
#include "rng/rng.h"
#include "sim/batch/simd.h"
#include "sim/types.h"

namespace ants::sim {

/// The state of a block of lock-step trials, one lane per (trial, agent):
/// position, the agent's xoshiro256** stream, and one strategy-defined
/// program word (for example the last move). Trial slot s of k agents owns
/// lanes s*k .. s*k + k - 1. Owned by the executor and reused across
/// blocks.
struct StepLanes {
  std::vector<std::int64_t> x, y;
  std::vector<std::uint64_t> word;
  rng::RngLanes rng;
  /// The dispatch level of the strategies that step through a vector
  /// kernel (random-walk, biased-walk; sim/batch/kernels.h). The batch
  /// executor sets active_simd_level(); scalar otherwise, so a reference
  /// loop that builds its own lanes steps with the scalar kernel.
  batch::SimdLevel level = batch::SimdLevel::kScalar;

  /// `slots` trials of k agents at the source with zeroed program words;
  /// seed every slot with seed_slot before stepping it.
  void reset(int k, std::size_t slots);

  /// Lane slot*k + a draws the stream of trial_rng.child(a).
  void seed_slot(std::size_t slot, int k, const rng::Rng& trial_rng) {
    const auto uk = static_cast<std::size_t>(k);
    rng.seed_children(slot * uk, uk, trial_rng);
  }

  /// One trial: reset(k, 1), then seed_slot(0, k, trial_rng).
  void reset(int k, const rng::Rng& trial_rng) {
    reset(k, 1);
    seed_slot(0, k, trial_rng);
  }
};

class StepStrategy {
 public:
  virtual ~StepStrategy() = default;
  virtual std::string name() const = 0;

  /// Advances lanes agents[0..n) (distinct, ascending) by one tick each.
  /// Each listed lane moves to a grid neighbour of its position or stays
  /// put, and reads and writes only its own lane, so the result of a lane
  /// never depends on which other lanes are listed.
  virtual void step(StepLanes& lanes, const std::uint32_t* agents,
                    std::size_t n) const = 0;
};

/// Which agents step at each tick of a lock-step trial. An agent with start
/// delay s and lifetime L > 0 steps at ticks s+1 .. s+L and halts in place
/// at tick s+L+1 (its crash transition); an agent with L <= 0 is dead on
/// arrival and never steps. Under the base model (no starts, no lifetimes)
/// every agent steps every tick; otherwise the list is rebuilt only on
/// ticks where some agent starts or halts.
class StepRoster {
 public:
  /// Binds k agents to their start delays and lifetimes (either may be
  /// empty: all start at 0 / never halt; both must outlive the trial).
  /// Returns the number of agents dead on arrival.
  int reset(int k, const std::vector<Time>& starts,
            const std::vector<Time>& lifetimes);

  /// Moves to tick t; ticks are visited in order 1, 2, ... Returns true
  /// when active() was rebuilt (it may have changed).
  bool advance(Time t) {
    if (t >= next_change_) {
      rebuild(t);
      return true;
    }
    halting_.clear();
    return false;
  }

  /// True when active() stays as it is for every later tick (and no later
  /// tick has crash transitions).
  bool fixed() const noexcept { return next_change_ == kNeverTime; }

  /// True once no agent steps at this tick or any later one: every agent
  /// has halted or was dead on arrival.
  bool exhausted() const noexcept { return active_.empty() && fixed(); }

  /// Agents that step at the current tick, ascending.
  const std::vector<std::uint32_t>& active() const noexcept { return active_; }

  /// Agents whose crash transition is the current tick, ascending.
  const std::vector<std::uint32_t>& halting() const noexcept {
    return halting_;
  }

  /// How many of halting() have an index above agent a: the crash
  /// transitions a first find by agent a cuts off.
  std::size_t halted_after(std::uint32_t a) const noexcept {
    std::size_t n = 0;
    while (n < halting_.size() && halting_[halting_.size() - 1 - n] > a) ++n;
    return n;
  }

 private:
  void rebuild(Time t);

  int k_ = 0;
  const std::vector<Time>* starts_ = nullptr;
  const std::vector<Time>* lifetimes_ = nullptr;
  Time next_change_ = kNeverTime;
  std::vector<std::uint32_t> active_;
  std::vector<std::uint32_t> halting_;
};

}  // namespace ants::sim
