#include "plane/engine.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ants::plane {

namespace {

Move realize(const PlaneOp& op, Vec2 current, double pitch) {
  struct Visitor {
    Vec2 current;
    double pitch;

    Move operator()(const GoToPoint& go) const {
      return LineMove{current, go.target};
    }
    Move operator()(const SpiralSweep& sp) const {
      return SpiralMove{current, pitch, sp.duration};
    }
    Move operator()(const ReturnHome&) const {
      return LineMove{current, kPlaneOrigin};
    }
  };
  return std::visit(Visitor{current, pitch}, op);
}

}  // namespace

namespace detail {

void validate_plane_trial_args(int k, const PlaneTrialEnvironment& env,
                               const PlaneEngineConfig& config) {
  if (k < 1) throw std::invalid_argument("run_plane_trial: need k >= 1");
  if (!(config.sight_radius > 0)) {
    throw std::invalid_argument("run_plane_trial: sight_radius > 0");
  }
  if (env.targets.empty() && !env.has_target_windows()) {
    // A windowed process (Poisson arrivals) may spawn zero targets.
    throw std::invalid_argument("run_plane_trial: need >= 1 target");
  }
  if (!env.target_appear.empty() &&
      env.target_appear.size() != env.targets.size()) {
    throw std::invalid_argument(
        "run_plane_trial: target_appear count != targets");
  }
  if (!env.target_vanish.empty() &&
      env.target_vanish.size() != env.targets.size()) {
    throw std::invalid_argument(
        "run_plane_trial: target_vanish count != targets");
  }
  const auto uk = static_cast<std::size_t>(k);
  if (!env.starts.empty() && env.starts.size() != uk) {
    throw std::invalid_argument("run_plane_trial: starts count != k");
  }
  if (!env.lifetimes.empty() && env.lifetimes.size() != uk) {
    throw std::invalid_argument("run_plane_trial: lifetimes count != k");
  }
}

bool resolve_home_target(const PlaneTrialEnvironment& env, int k, double eps,
                         Time time_cap, PlaneTrialResult* result) {
  for (std::size_t ti = 0; ti < env.targets.size(); ++ti) {
    if (distance(env.targets[ti], kPlaneOrigin) > eps) continue;
    // Earliest ALIVE starter (lowest index on ties). A dead-on-arrival
    // agent (lifetime <= 0) never acts, so it cannot be the finder — it
    // crashes, exactly as the main sweep counts it.
    int finder = -1;
    Time first_start = 0;
    for (int a = 0; a < k; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      if (!env.lifetimes.empty() && env.lifetimes[ia] <= 0) {
        ++result->crashed;  // dead on arrival: never acts
        continue;
      }
      const Time start = env.starts.empty() ? Time{0} : env.starts[ia];
      if (finder == -1 || start < first_start) {
        finder = a;
        first_start = start;
      }
    }
    if (finder == -1 || first_start > time_cap) {
      result->found = false;
      result->time = time_cap;
      result->finder = -1;
      result->from_last_start = time_cap;
      return true;
    }
    result->found = true;
    result->time = first_start;
    result->finder = finder;
    result->first_target = static_cast<int>(ti);
    result->from_last_start = 0;
    return true;
  }
  return false;
}

}  // namespace detail

Time PlaneTrialEnvironment::last_start() const noexcept {
  if (starts.empty()) return 0;
  return *std::max_element(starts.begin(), starts.end());
}

PlaneTrialResult run_plane_trial(const PlaneStrategy& strategy, int k,
                                 const PlaneTrialEnvironment& env,
                                 const rng::Rng& trial_rng,
                                 const PlaneEngineConfig& config) {
  detail::validate_plane_trial_args(k, env, config);
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t nt = env.targets.size();
  const bool collect = env.collect_all;
  PlaneTrialResult result;
  result.last_start = env.last_start();
  // Home pre-step: the static model's one special case, resolved before the
  // sweep (which detects targets on sighting only).
  if (!env.has_target_windows() && !collect &&
      detail::resolve_home_target(env, k, config.sight_radius,
                                  config.time_cap, &result)) {
    return result;
  }
  if (collect) result.target_times.assign(nt, -1.0);

  const auto appear_of = [&](std::size_t ti) {
    return env.target_appear.empty() ? 0.0 : env.target_appear[ti];
  };
  const auto vanish_of = [&](std::size_t ti) {
    return env.target_vanish.empty() ? kPlaneNever : env.target_vanish[ti];
  };
  const auto start_of = [&](int a) {
    return env.starts.empty() ? Time{0}
                              : env.starts[static_cast<std::size_t>(a)];
  };
  const auto lifetime_of = [&](int a) {
    return env.lifetimes.empty()
               ? kPlaneNever
               : env.lifetimes[static_cast<std::size_t>(a)];
  };

  if (collect && nt == 0) {
    // Zero spawned targets: vacuously all sighted at t = 0; nobody acts.
    result.found = true;
    result.time = 0;
    result.from_last_start = 0;
    for (int a = 0; a < k; ++a) {
      if (lifetime_of(a) <= 0) ++result.crashed;
    }
    return result;
  }

  // Interleaved min-clock sweep, exactly as the grid executor (see
  // sim/trial.cpp for why interleaving rather than agent-at-a-time). Agents
  // are ordered by ABSOLUTE clock: start delay + active time in their own
  // program.
  struct AgentState {
    std::unique_ptr<PlaneAgentProgram> program;
    rng::Rng rng;
    Vec2 pos = kPlaneOrigin;
    Time elapsed = 0;  ///< active time in the agent's own program
    std::int64_t segments = 0;
  };
  std::vector<AgentState> agents;
  agents.reserve(uk);
  for (int a = 0; a < k; ++a) {
    agents.push_back(AgentState{strategy.make_program(a, k),
                                trial_rng.child(static_cast<std::uint64_t>(a)),
                                kPlaneOrigin, 0, 0});
  }

  using Entry = std::pair<Time, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  for (int a = 0; a < k; ++a) {
    if (lifetime_of(a) <= 0) {
      ++result.crashed;  // dead on arrival: never acts
      continue;
    }
    queue.emplace(start_of(a), a);
  }

  // Per-target earliest sighting; the first-sighting race collapses them to
  // one winner after the sweep, and best_first is its time.
  std::vector<Time> best_t(nt, kPlaneNever);
  std::vector<int> finder_t(nt, -1);
  Time best_first = kPlaneNever;
  // Collect: the loosest per-target bound, recomputed only after some
  // best_t changed.
  Time loosest = config.time_cap;
  bool loosest_stale = false;

  while (!queue.empty()) {
    const auto [abs_clock, a] = queue.top();
    queue.pop();
    // All other clocks are >= this one. The bound at which a pop can no
    // longer improve the outcome: the first-sighting race uses the best
    // sighting so far; collect-all keeps the loosest per-target bound open
    // (an unsighted target holds the cap).
    Time bound = config.time_cap;
    if (!collect) {
      bound = std::min(bound, best_first);
    } else {
      if (loosest_stale) {
        loosest = 0;
        for (std::size_t ti = 0; ti < nt; ++ti) {
          loosest = std::max(loosest, best_t[ti] == kPlaneNever
                                          ? config.time_cap
                                          : best_t[ti]);
        }
        loosest_stale = false;
      }
      bound = std::min(bound, loosest);
    }
    if (abs_clock >= bound) break;

    AgentState& agent = agents[static_cast<std::size_t>(a)];
    if (++agent.segments > config.max_segments_per_agent) {
      throw std::runtime_error(
          "plane engine: agent exceeded segment budget without terminating");
    }
    ++result.segments;

    const Move move =
        realize(agent.program->next(agent.rng), agent.pos,
                config.spiral_pitch);
    const Time base = start_of(a) + agent.elapsed;
    // A spiral's end angle, solved once for the move rather than per target.
    const auto* spiral = std::get_if<SpiralMove>(&move);
    const double theta_end =
        spiral != nullptr
            ? spiral_theta_for_arc(spiral->pitch / kTwoPi, spiral->duration)
            : 0.0;
    for (std::size_t ti = 0; ti < nt; ++ti) {
      // Every sighting of this move is at base or later, so a window closed
      // by base has nothing to add (the vanish test below would reject it).
      if (vanish_of(ti) <= base) continue;
      const Time from = appear_of(ti) - base;
      const auto hit =
          spiral != nullptr
              ? spiral_first_sighting_from_at(*spiral, env.targets[ti],
                                              config.sight_radius, from,
                                              theta_end)
              : first_sighting_from(move, env.targets[ti],
                                    config.sight_radius, from);
      if (!hit) continue;
      const Time when_active = agent.elapsed + *hit;
      // A sighting only counts while the agent is still alive.
      if (when_active > lifetime_of(a)) continue;
      const Time when_abs = start_of(a) + when_active;
      if (when_abs > config.time_cap) continue;
      // The first in-window sighting at or past vanish means every later
      // pass is as well (sighting offsets increase along the move).
      if (when_abs >= vanish_of(ti)) continue;
      // Earliest sighting wins; exact ties go to the lowest agent index,
      // then to the lowest target index — the grid executor's rule.
      if (when_abs < best_t[ti] ||
          (when_abs == best_t[ti] && a < finder_t[ti])) {
        if (when_abs < best_t[ti]) loosest_stale = true;
        best_t[ti] = when_abs;
        finder_t[ti] = a;
      }
      if (when_abs < best_first) best_first = when_abs;
    }
    const Time move_time = move_duration(move);
    if (agent.elapsed + move_time >= lifetime_of(a)) {
      // Fail-stop: the trajectory is truncated at the agent's active-time
      // budget; it halts wherever the budget ran out, mid-move included.
      // The race outcome never reads a dead agent's position — this keeps
      // the agent state faithful for future instrumentation (trajectory
      // dumps, visitation traces) at one move_position_at per crash.
      agent.pos = move_position_at(move, lifetime_of(a) - agent.elapsed);
      agent.elapsed = lifetime_of(a);
      ++result.crashed;
      continue;
    }
    agent.elapsed += move_time;
    agent.pos = spiral != nullptr
                    ? spiral_point_at(spiral->center,
                                      spiral->pitch / kTwoPi, theta_end)
                    : move_end(move);
    queue.emplace(start_of(a) + agent.elapsed, a);
  }

  // Earliest sighting (ties: lowest agent, then lowest target) fills
  // finder/first_target in both modes.
  std::size_t n_found = 0;
  Time t_all = 0;
  Time first_time = kPlaneNever;
  for (std::size_t ti = 0; ti < nt; ++ti) {
    if (best_t[ti] == kPlaneNever) continue;
    ++n_found;
    t_all = std::max(t_all, best_t[ti]);
    if (collect) result.target_times[ti] = best_t[ti];
    if (best_t[ti] < first_time ||
        (best_t[ti] == first_time && finder_t[ti] < result.finder)) {
      first_time = best_t[ti];
      result.finder = finder_t[ti];
      result.first_target = static_cast<int>(ti);
    }
  }
  const bool done = collect ? n_found == nt : n_found > 0;
  if (done) {
    const Time when = collect ? t_all : first_time;
    result.found = true;
    result.time = when;
    result.from_last_start =
        when > result.last_start ? when - result.last_start : 0;
  } else {
    // Partial collect-all finds keep finder/first_target of the earliest
    // sighting (and the partial target_times) for the aggregates.
    result.found = false;
    result.time = config.time_cap;
    result.from_last_start = config.time_cap;
  }
  return result;
}

}  // namespace ants::plane
