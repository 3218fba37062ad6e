// Shared fixtures and helpers for the test suite.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch/simd.h"
#include "sim/program.h"

namespace ants::testing {

/// A strategy that replays a fixed op list, then "parks" by shuttling
/// between the source and (-1,-1) forever. Parking advances the simulation
/// clock (so finite engine bounds terminate promptly) while only touching
/// nodes in the tiny third-quadrant square {0,-1}^2 — keep test treasures
/// out of there.
class ScriptedStrategy final : public sim::Strategy {
 public:
  explicit ScriptedStrategy(std::vector<sim::Op> ops) : ops_(std::move(ops)) {}

  std::string name() const override { return "scripted"; }

  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext /*ctx*/) const override {
    class Program final : public sim::AgentProgram {
     public:
      explicit Program(std::vector<sim::Op> ops) : ops_(std::move(ops)) {}
      sim::Op next(rng::Rng& /*rng*/) override {
        if (pos_ < ops_.size()) return ops_[pos_++];
        park_out_ = !park_out_;
        if (park_out_) return sim::GoTo{grid::Point{-1, -1}};
        return sim::ReturnToSource{};
      }

     private:
      std::vector<sim::Op> ops_;  // owned: programs outlive their strategy
      std::size_t pos_ = 0;
      bool park_out_ = false;
    };
    return std::make_unique<Program>(ops_);
  }

 private:
  std::vector<sim::Op> ops_;
};

/// A strategy whose per-agent scripts differ (indexed by agent).
class PerAgentScriptedStrategy final : public sim::Strategy {
 public:
  explicit PerAgentScriptedStrategy(std::vector<std::vector<sim::Op>> scripts)
      : scripts_(std::move(scripts)) {}

  std::string name() const override { return "per-agent-scripted"; }

  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override {
    const auto& script =
        scripts_[static_cast<std::size_t>(ctx.agent_index) % scripts_.size()];
    ScriptedStrategy wrapper{script};
    return wrapper.make_program(ctx);
  }

 private:
  std::vector<std::vector<sim::Op>> scripts_;
};

/// Every SIMD dispatch level this machine can run: scalar, plus avx2 where
/// the CPU has it.
inline std::vector<sim::batch::SimdLevel> testable_levels() {
  std::vector<sim::batch::SimdLevel> levels = {sim::batch::SimdLevel::kScalar};
  if (sim::batch::detected_simd_level() == sim::batch::SimdLevel::kAvx2) {
    levels.push_back(sim::batch::SimdLevel::kAvx2);
  }
  return levels;
}

/// Restores the active SIMD level a test started with when it exits, so a
/// test that forces levels leaves the next one at the level the
/// environment chose.
class LevelGuard {
 public:
  LevelGuard() : saved_(sim::batch::active_simd_level()) {}
  ~LevelGuard() { sim::batch::force_simd_level(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  sim::batch::SimdLevel saved_;
};

}  // namespace ants::testing
