#include "core/approx_k.h"

#include "util/format.h"

#include <cmath>
#include <stdexcept>

namespace ants::core {

namespace {

// An approx-k agent is exactly an A_{k_a/rho} agent, as the corollary
// prescribes. The estimate k_a is the agent's input, drawn in its first
// destination from its private stream so that log-uniform assignments vary
// across trials yet stay reproducible.
struct ApproxKLaw {
  using Program = sim::AgentProgram;

  const ApproxKStrategy& strategy;
  KnownKLaw known{0};  ///< k = 0 until the estimate is drawn

  sim::GoTo destination(rng::Rng& rng) {
    if (known.k == 0) {
      known.k = strategy.parameter_for_estimate(strategy.draw_estimate(rng));
    }
    return known.destination(rng);
  }
  sim::SpiralFor search(rng::Rng& rng) const { return known.search(rng); }
  void advance() noexcept { known.advance(); }
};

}  // namespace

ApproxKStrategy::ApproxKStrategy(std::int64_t k_true, double rho,
                                 ApproxMode mode)
    : k_true_(k_true), rho_(rho), mode_(mode) {
  if (k_true < 1) throw std::invalid_argument("ApproxK: k_true >= 1");
  if (!(rho >= 1.0)) throw std::invalid_argument("ApproxK: rho >= 1");
}

std::string ApproxKStrategy::name() const {
  const char* mode = mode_ == ApproxMode::kUnder  ? "under"
                     : mode_ == ApproxMode::kOver ? "over"
                                                  : "loguniform";
  return "approx-k(rho=" + util::fmt_param(rho_) + "," + mode + ")";
}

std::int64_t ApproxKStrategy::parameter_for_estimate(double k_a) const noexcept {
  const double parameter = k_a / rho_;
  return parameter < 1.0 ? 1 : static_cast<std::int64_t>(parameter);
}

double ApproxKStrategy::draw_estimate(rng::Rng& rng) const {
  const auto k = static_cast<double>(k_true_);
  switch (mode_) {
    case ApproxMode::kUnder:
      return k / rho_;
    case ApproxMode::kOver:
      return k * rho_;
    case ApproxMode::kLogUniform: {
      const double lo = std::log(k / rho_);
      const double hi = std::log(k * rho_);
      return std::exp(rng.uniform_real(lo, hi));
    }
  }
  return k;  // unreachable
}

std::unique_ptr<sim::AgentProgram> ApproxKStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<TripProgram<ApproxKLaw>>(ApproxKLaw{*this});
}

}  // namespace ants::core
