#include "sim/step_engine.h"

#include <algorithm>

#include "util/sat.h"

namespace ants::sim {

void StepLanes::reset(int k, std::size_t slots) {
  const std::size_t n = static_cast<std::size_t>(k) * slots;
  x.assign(n, 0);
  y.assign(n, 0);
  word.assign(n, 0);
  rng.resize(n);
}

int StepRoster::reset(int k, const std::vector<Time>& starts,
                      const std::vector<Time>& lifetimes) {
  k_ = k;
  starts_ = &starts;
  lifetimes_ = &lifetimes;
  active_.clear();
  halting_.clear();
  if (starts.empty() && lifetimes.empty()) {
    for (int a = 0; a < k; ++a) active_.push_back(static_cast<std::uint32_t>(a));
    next_change_ = kNeverTime;
    return 0;
  }
  next_change_ = 1;
  return static_cast<int>(std::count_if(lifetimes.begin(), lifetimes.end(),
                                        [](Time life) { return life <= 0; }));
}

void StepRoster::rebuild(Time t) {
  active_.clear();
  halting_.clear();
  Time next = kNeverTime;
  for (int a = 0; a < k_; ++a) {
    const auto ia = static_cast<std::size_t>(a);
    const Time life = lifetimes_->empty() ? kNeverTime : (*lifetimes_)[ia];
    if (life <= 0) continue;  // dead on arrival
    const Time start = starts_->empty() ? Time{0} : (*starts_)[ia];
    if (t <= start) {  // not yet started: waits at the source
      next = std::min(next, start + 1);
      continue;
    }
    const Time halt = util::sat_add(util::sat_add(start, life), 1);
    if (t < halt) {
      active_.push_back(static_cast<std::uint32_t>(a));
      next = std::min(next, halt);
    } else if (t == halt) {
      halting_.push_back(static_cast<std::uint32_t>(a));
    }
  }
  next_change_ = next;
}

}  // namespace ants::sim
