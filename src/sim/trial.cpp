#include "sim/trial.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

namespace ants::sim {

namespace detail {

void validate_trial_args(const TrialStrategy& strategy, int k,
                         const TrialEnvironment& env,
                         const EngineConfig& config) {
  const int set = (strategy.segment != nullptr ? 1 : 0) +
                  (strategy.step != nullptr ? 1 : 0) +
                  (strategy.plane != nullptr ? 1 : 0);
  if (set == 0) throw std::invalid_argument("trial: no strategy given");
  if (set > 1) {
    throw std::invalid_argument("trial: ambiguous strategy family");
  }
  if (k < 1) throw std::invalid_argument("trial: need k >= 1");
  // A windowed process (Poisson arrivals) may legitimately realize ZERO
  // targets in a trial; the static model still requires at least one.
  const std::size_t n_targets = strategy.plane != nullptr
                                    ? env.plane_targets.size()
                                    : env.targets.size();
  if (n_targets == 0 && !env.has_target_windows()) {
    if (strategy.plane != nullptr) {
      throw std::invalid_argument(
          "trial: plane backend needs >= 1 plane target");
    }
    throw std::invalid_argument("trial: need >= 1 target");
  }
  if (!env.target_appear.empty() && env.target_appear.size() != n_targets) {
    throw std::invalid_argument("trial: target_appear count != targets");
  }
  if (!env.target_vanish.empty() && env.target_vanish.size() != n_targets) {
    throw std::invalid_argument("trial: target_vanish count != targets");
  }
  if (!env.target_drift.empty() && env.target_drift.size() != n_targets) {
    throw std::invalid_argument("trial: target_drift count != targets");
  }
  if ((env.has_target_drift() || env.capture_dwell > 0) &&
      strategy.step == nullptr) {
    // Segment/plane backends have no per-tick target position or contact
    // history; drifting targets and dwell capture are lock-step features.
    throw std::invalid_argument(
        "trial: target drift / dwell capture require a step-level "
        "strategy");
  }
  const auto uk = static_cast<std::size_t>(k);
  if (!env.starts.empty() && env.starts.size() != uk) {
    throw std::invalid_argument("trial: starts count != k");
  }
  if (!env.lifetimes.empty() && env.lifetimes.size() != uk) {
    throw std::invalid_argument("trial: lifetimes count != k");
  }
  if (strategy.step != nullptr && config.time_cap == kNeverTime) {
    // Random-walk-style strategies have infinite expected hitting time on
    // Z^2 (see the paper's related-work discussion); an uncapped run is a
    // programming error.
    throw std::invalid_argument(
        "trial: step strategies require a finite time_cap");
  }
}

/// In the base model the source treasure is found at t = 0 by agent 0;
/// under a crash model, dead-on-arrival agents are skipped as finder
/// candidates and counted as crashed — a lifetime <= 0 agent never acts,
/// so crediting it with the find (and leaving crashed at 0) made
/// mean_crashed/survivors disagree with the non-origin path.
std::optional<TrialResult> resolve_origin_target(const TrialEnvironment& env,
                                                 int k, Time time_cap) {
  if (env.has_dynamic_targets()) return std::nullopt;
  for (std::size_t ti = 0; ti < env.targets.size(); ++ti) {
    if (env.targets[ti] != grid::kOrigin) continue;
    TrialResult result;
    result.last_start = static_cast<double>(env.last_start());
    int finder = -1;
    Time first_start = 0;
    for (int a = 0; a < k; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      if (!env.lifetimes.empty() && env.lifetimes[ia] <= 0) {
        ++result.crashed;  // dead on arrival: never acts
        continue;
      }
      const Time start = env.starts.empty() ? Time{0} : env.starts[ia];
      if (finder == -1 || start < first_start) {
        finder = a;
        first_start = start;
      }
    }
    if (finder == -1 || first_start > time_cap) {
      // Everybody dead on arrival (or the earliest survivor wakes up past
      // the cap): nobody ever stands on the source target in time. Mirrors
      // the sweep loops' not-found outcome.
      result.found = false;
      result.time = static_cast<double>(time_cap);
      result.from_last_start = static_cast<double>(time_cap);
      return result;
    }
    result.found = true;
    result.time = static_cast<double>(first_start);
    result.finder = finder;
    result.first_target = static_cast<int>(ti);
    result.from_last_start = 0;
    return result;
  }
  return std::nullopt;
}

grid::Point target_position_at(const TrialEnvironment& env, std::size_t ti,
                               Time t) noexcept {
  grid::Point p = env.targets[ti];
  if (!env.target_drift.empty()) {
    const TargetDrift& d = env.target_drift[ti];
    p.x += std::llround(d.vx * static_cast<double>(t));
    p.y += std::llround(d.vy * static_cast<double>(t));
  }
  return p;
}

}  // namespace detail

Time TrialEnvironment::last_start() const noexcept {
  if (starts.empty()) return 0;
  return *std::max_element(starts.begin(), starts.end());
}

TrialEnvironment single_target_environment(grid::Point treasure) {
  TrialEnvironment env;
  env.targets = {treasure};
  return env;
}

TrialEnvironment draw_environment(int k, std::vector<grid::Point> targets,
                                  const StartSchedule& schedule,
                                  const CrashModel& crashes,
                                  const rng::Rng& trial_rng) {
  TrialEnvironment env;
  env.targets = std::move(targets);
  return draw_environment(k, std::move(env), schedule, crashes, trial_rng);
}

TrialEnvironment draw_environment(int k, TrialEnvironment env,
                                  const StartSchedule& schedule,
                                  const CrashModel& crashes,
                                  const rng::Rng& trial_rng) {
  if (k < 1) throw std::invalid_argument("draw_environment: need k >= 1");
  rng::Rng sched_rng = trial_rng.child(kScheduleStream);
  rng::Rng crash_rng = trial_rng.child(kCrashStream);
  env.starts = schedule.draw(k, sched_rng);
  env.lifetimes = crashes.draw_lifetimes(k, crash_rng);
  return env;
}

TargetProcess single_target(Placement placement) {
  TargetProcess process;
  process.grid = [placement = std::move(placement)](
                     rng::Rng& rng, std::int64_t distance, Time /*time_cap*/,
                     TrialEnvironment* env) {
    env->targets.push_back(placement(rng, distance));
  };
  return process;
}

TargetProcess single_plane_target(std::function<double(rng::Rng&)> angle) {
  TargetProcess process;
  process.plane = [angle = std::move(angle)](rng::Rng& rng,
                                             std::int64_t distance,
                                             Time /*time_cap*/,
                                             TrialEnvironment* env) {
    env->plane_targets.push_back(plane::unit(angle(rng)) *
                                 static_cast<double>(distance));
  };
  return process;
}

namespace {

/// Shared Poisson arrival/lifetime machinery: positions are appended by
/// `spawn`, which must consume exactly one position draw per call. All
/// randomness comes from the target stream; draw order per arrival is
/// inter-arrival, position, lifetime.
template <typename SpawnFn>
void realize_poisson(double rate, double mean_life, Time time_cap,
                     const rng::Rng& trial_rng, TrialEnvironment* env,
                     SpawnFn&& spawn) {
  if (time_cap == kNeverTime) {
    throw std::invalid_argument(
        "poisson targets: need a finite time_cap horizon");
  }
  env->windowed = true;  // zero arrivals is a legitimate realization
  rng::Rng target_rng = trial_rng.child(kTargetStream);
  const double horizon = static_cast<double>(time_cap);
  double t = 0;
  while (true) {
    t += target_rng.exponential(rate);
    if (!(t <= horizon)) break;
    spawn(target_rng);
    env->target_appear.push_back(t);
    env->target_vanish.push_back(
        mean_life > 0 ? t + target_rng.exponential(1.0 / mean_life)
                      : detail::kNeverVanish);
  }
}

}  // namespace

TargetProcess poisson_targets(double rate, double mean_life,
                              Placement placement) {
  if (!(rate > 0)) {
    throw std::invalid_argument("poisson targets: need rate > 0");
  }
  TargetProcess process;
  process.grid = [rate, mean_life, placement = std::move(placement)](
                     rng::Rng& rng, std::int64_t distance, Time time_cap,
                     TrialEnvironment* env) {
    realize_poisson(rate, mean_life, time_cap, rng, env,
                    [&](rng::Rng& target_rng) {
                      env->targets.push_back(placement(target_rng, distance));
                    });
  };
  return process;
}

TargetProcess poisson_plane_targets(double rate, double mean_life,
                                    std::function<double(rng::Rng&)> angle) {
  if (!(rate > 0)) {
    throw std::invalid_argument("poisson targets: need rate > 0");
  }
  TargetProcess process;
  process.plane = [rate, mean_life, angle = std::move(angle)](
                      rng::Rng& rng, std::int64_t distance, Time time_cap,
                      TrialEnvironment* env) {
    realize_poisson(rate, mean_life, time_cap, rng, env,
                    [&](rng::Rng& target_rng) {
                      env->plane_targets.push_back(
                          plane::unit(angle(target_rng)) *
                          static_cast<double>(distance));
                    });
  };
  return process;
}

TargetProcess drifting_target(double speed, double angle_turns,
                              Placement placement) {
  TargetProcess process;
  process.grid = [speed, angle_turns, placement = std::move(placement)](
                     rng::Rng& rng, std::int64_t distance, Time /*time_cap*/,
                     TrialEnvironment* env) {
    rng::Rng target_rng = rng.child(kTargetStream);
    const double heading = plane::kTwoPi * angle_turns;
    env->targets.push_back(placement(target_rng, distance));
    env->target_drift.push_back(
        TargetDrift{speed * std::cos(heading), speed * std::sin(heading)});
  };
  return process;
}

}  // namespace ants::sim
