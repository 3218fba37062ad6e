#include "sim/async_engine.h"

#include <stdexcept>
#include <utility>

#include "util/sat.h"

namespace ants::sim {

std::vector<Time> SyncStart::draw(int k, rng::Rng&) const {
  return std::vector<Time>(static_cast<std::size_t>(k), 0);
}

StaggeredStart::StaggeredStart(Time gap) : gap_(gap) {
  if (gap < 0) throw std::invalid_argument("StaggeredStart: gap must be >= 0");
}

std::vector<Time> StaggeredStart::draw(int k, rng::Rng&) const {
  std::vector<Time> delays(static_cast<std::size_t>(k));
  for (int a = 0; a < k; ++a) {
    delays[static_cast<std::size_t>(a)] = util::sat_mul(gap_, a);
  }
  return delays;
}

UniformRandomStart::UniformRandomStart(Time max_delay) : max_delay_(max_delay) {
  if (max_delay < 0) {
    throw std::invalid_argument("UniformRandomStart: max_delay must be >= 0");
  }
}

std::vector<Time> UniformRandomStart::draw(int k, rng::Rng& rng) const {
  std::vector<Time> delays(static_cast<std::size_t>(k));
  for (auto& d : delays) d = rng.uniform_int(0, max_delay_);
  return delays;
}

FixedStart::FixedStart(std::vector<Time> delays) : delays_(std::move(delays)) {
  for (const Time d : delays_) {
    if (d < 0) throw std::invalid_argument("FixedStart: delays must be >= 0");
  }
}

std::vector<Time> FixedStart::draw(int k, rng::Rng&) const {
  if (static_cast<std::size_t>(k) != delays_.size()) {
    throw std::invalid_argument("FixedStart: delay count != k");
  }
  return delays_;
}

std::vector<Time> NoCrash::draw_lifetimes(int k, rng::Rng&) const {
  return std::vector<Time>(static_cast<std::size_t>(k), kNeverTime);
}

DoaCrash::DoaCrash(double p) : p_(p) {
  if (p < 0 || p > 1) throw std::invalid_argument("DoaCrash: p must be in [0,1]");
}

std::vector<Time> DoaCrash::draw_lifetimes(int k, rng::Rng& rng) const {
  std::vector<Time> lifetimes(static_cast<std::size_t>(k));
  for (auto& l : lifetimes) l = rng.bernoulli(p_) ? 0 : kNeverTime;
  return lifetimes;
}

ExponentialLifetime::ExponentialLifetime(double mean) : mean_(mean) {
  if (!(mean > 0)) {
    throw std::invalid_argument("ExponentialLifetime: mean must be > 0");
  }
}

std::vector<Time> ExponentialLifetime::draw_lifetimes(int k,
                                                      rng::Rng& rng) const {
  std::vector<Time> lifetimes(static_cast<std::size_t>(k));
  for (auto& l : lifetimes) {
    l = util::sat_from_double(rng.exponential(1.0 / mean_));
  }
  return lifetimes;
}

FixedLifetime::FixedLifetime(Time lifetime) : lifetime_(lifetime) {
  if (lifetime < 0) {
    throw std::invalid_argument("FixedLifetime: lifetime must be >= 0");
  }
}

std::vector<Time> FixedLifetime::draw_lifetimes(int k, rng::Rng&) const {
  return std::vector<Time>(static_cast<std::size_t>(k), lifetime_);
}

}  // namespace ants::sim
