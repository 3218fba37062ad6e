#include "core/single_shot.h"

#include <algorithm>
#include <stdexcept>

#include "core/params.h"
#include "grid/ball.h"
#include "util/format.h"
#include "util/sat.h"

namespace ants::core {

namespace {

// Phases i = 1, 2, 3, ... each exactly once (A_k without the stage loop).
class SweepKnownKProgram final : public sim::AgentProgram {
 public:
  explicit SweepKnownKProgram(const SingleSweepKnownK& strategy)
      : strategy_(strategy) {}

  sim::Op next(rng::Rng& rng) override {
    switch (step_) {
      case Step::kGoTo: {
        step_ = Step::kSpiral;
        const std::int64_t radius = strategy_.ball_radius(i_);
        return sim::GoTo{grid::uniform_ball_point(rng, radius)};
      }
      case Step::kSpiral:
        step_ = Step::kReturn;
        return sim::SpiralFor{strategy_.spiral_budget(i_)};
      default:
        step_ = Step::kGoTo;
        ++i_;  // the single sweep: no outer loop to reset i
        return sim::ReturnToSource{};
    }
  }

 private:
  enum class Step { kGoTo, kSpiral, kReturn };

  const SingleSweepKnownK& strategy_;
  int i_ = 1;
  Step step_ = Step::kGoTo;
};

// Stages i = 0, 1, 2, ... each exactly once, inner phases j = 0..i intact
// (Algorithm 1 without the big-stage loop).
class SweepUniformProgram final : public sim::AgentProgram {
 public:
  explicit SweepUniformProgram(const SingleSweepUniform& strategy)
      : strategy_(strategy) {}

  sim::Op next(rng::Rng& rng) override {
    switch (step_) {
      case Step::kGoTo: {
        step_ = Step::kSpiral;
        const std::int64_t radius = strategy_.phase(i_, j_).radius;
        return sim::GoTo{grid::uniform_ball_point(rng, radius)};
      }
      case Step::kSpiral:
        step_ = Step::kReturn;
        return sim::SpiralFor{strategy_.phase(i_, j_).budget};
      default:
        step_ = Step::kGoTo;
        advance();
        return sim::ReturnToSource{};
    }
  }

 private:
  enum class Step { kGoTo, kSpiral, kReturn };

  void advance() {
    if (j_ < i_) {
      ++j_;
    } else {
      j_ = 0;
      ++i_;  // the single sweep: stages never repeat
    }
  }

  const SingleSweepUniform& strategy_;
  int i_ = 0;
  int j_ = 0;
  Step step_ = Step::kGoTo;
};

}  // namespace

SingleSweepKnownK::SingleSweepKnownK(std::int64_t k_belief)
    : k_belief_(k_belief) {
  if (k_belief < 1) {
    throw std::invalid_argument("SingleSweepKnownK: k_belief >= 1");
  }
}

std::string SingleSweepKnownK::name() const {
  return "sweep-known-k(k=" + std::to_string(k_belief_) + ")";
}

std::unique_ptr<sim::AgentProgram> SingleSweepKnownK::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<SweepKnownKProgram>(*this);
}

sim::Time SingleSweepKnownK::spiral_budget(int phase_i) const noexcept {
  // Identical to KnownKStrategy::spiral_budget: t_i = 2^(2i+2)/k, >= 1.
  const int exponent = 2 * phase_i + 2;
  const std::int64_t numerator =
      exponent >= 62 ? util::kTimeCap : util::pow2(exponent);
  return std::max<std::int64_t>(1, numerator / k_belief_);
}

std::int64_t SingleSweepKnownK::ball_radius(int phase_i) const noexcept {
  return util::pow2(std::min(phase_i, kMaxRadiusExponent));
}

SingleSweepUniform::SingleSweepUniform(double eps) : inner_(eps) {}

std::string SingleSweepUniform::name() const {
  return "sweep-uniform(eps=" + util::fmt_param(inner_.eps()) + ")";
}

std::unique_ptr<sim::AgentProgram> SingleSweepUniform::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<SweepUniformProgram>(*this);
}

}  // namespace ants::core
