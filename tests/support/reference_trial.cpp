#include "support/reference_trial.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/sat.h"

namespace ants::sim {

namespace {

using detail::appear_of;
using detail::target_position_at;
using detail::vanish_of;
using detail::window_from_offset;

/// Segment backend: the interleaved min-heap sweep of the historical
/// engines, generalized over starts/lifetimes/target sets, appear/vanish
/// windows, and collect-all. Agents are interleaved by ABSOLUTE clock
/// (start + active time, smallest first) rather than processed to
/// completion one at a time: with deterministic partitioned strategies (e.g.
/// the sector sweep) only ONE agent ever reaches a target, so any agent
/// processed before it under an infinite bound would never terminate.
/// Interleaving guarantees the eventual finder sets the bound after
/// simulating at most its own hit time, and every other agent stops as soon
/// as its clock passes that bound. Targets are detected on ARRIVAL (a static
/// target on the source node was resolved by the origin pre-step). Drift and
/// dwell were rejected by validate_trial_args for this family.
TrialResult run_segment_trial(const Strategy& strategy, int k,
                              const TrialEnvironment& env,
                              const rng::Rng& trial_rng,
                              const EngineConfig& config) {
  const Time last_start = env.last_start();
  const std::size_t nt = env.targets.size();
  const bool collect = env.collect_all;
  TrialResult result;
  result.last_start = static_cast<double>(last_start);
  if (collect) result.target_times.assign(nt, -1.0);
  if (collect && nt == 0) {
    // Zero spawned targets: vacuously all found at t = 0; nobody acts.
    result.found = true;
    result.time = 0;
    result.from_last_start = 0;
    for (int a = 0; a < k; ++a) {
      if (!env.lifetimes.empty() &&
          env.lifetimes[static_cast<std::size_t>(a)] <= 0) {
        ++result.crashed;
      }
    }
    return result;
  }

  const auto start_of = [&](int a) {
    return env.starts.empty() ? Time{0}
                              : env.starts[static_cast<std::size_t>(a)];
  };
  const auto lifetime_of = [&](int a) {
    return env.lifetimes.empty()
               ? kNeverTime
               : env.lifetimes[static_cast<std::size_t>(a)];
  };

  struct AgentState {
    std::unique_ptr<AgentProgram> program;
    rng::Rng rng;
    grid::Point pos = grid::kOrigin;
    Time elapsed = 0;  ///< active time in the agent's own program
    std::int64_t segments = 0;
  };
  std::vector<AgentState> agents;
  agents.reserve(static_cast<std::size_t>(k));
  for (int a = 0; a < k; ++a) {
    agents.push_back(AgentState{
        strategy.make_program(AgentContext{a, k}),
        trial_rng.child(static_cast<std::uint64_t>(a)), grid::kOrigin, 0, 0});
  }

  // Min-heap of (absolute clock, agent index); lower index wins ties so the
  // outcome is deterministic and matches the brute-force reference order.
  using Entry = std::pair<Time, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  for (int a = 0; a < k; ++a) {
    if (lifetime_of(a) <= 0) {
      ++result.crashed;  // dead on arrival: never acts
      continue;
    }
    queue.emplace(start_of(a), a);
  }

  // Per-target earliest hit; the first-find race collapses them to one
  // winner after the sweep, and best_first is its time.
  std::vector<Time> best_t(nt, kNeverTime);
  std::vector<int> finder_t(nt, -1);
  Time best_first = kNeverTime;

  while (!queue.empty()) {
    const auto [abs_clock, a] = queue.top();
    queue.pop();
    // All other clocks are >= this one. The bound below which a pop can
    // still improve the outcome: in the first-find race it is the best hit
    // so far - 1; in collect-all it is the loosest per-target bound (an
    // unfound target keeps the cap open).
    Time bound = config.time_cap;
    if (!collect) {
      bound = std::min(bound, best_first == kNeverTime ? best_first
                                                       : best_first - 1);
    } else {
      Time loosest = 0;
      for (std::size_t ti = 0; ti < nt; ++ti) {
        loosest = std::max(loosest, best_t[ti] == kNeverTime
                                        ? config.time_cap
                                        : best_t[ti] - 1);
      }
      bound = std::min(bound, loosest);
    }
    if (abs_clock > bound) break;

    AgentState& agent = agents[static_cast<std::size_t>(a)];
    if (++agent.segments > config.max_segments_per_agent) {
      throw std::runtime_error(
          "run_trial: agent exceeded segment budget without terminating");
    }
    ++result.segments;

    const Segment seg =
        realize(agent.program->next(agent.rng), agent.pos, grid::kOrigin);
    const Time base = util::sat_add(start_of(a), agent.elapsed);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      const Time from = window_from_offset(appear_of(env, ti), base);
      const auto hit = hit_offset_from(seg, env.targets[ti], from);
      if (!hit) continue;
      const Time when_active = util::sat_add(agent.elapsed, *hit);
      // A hit only counts while the agent is still alive.
      if (when_active > lifetime_of(a)) continue;
      const Time when_abs = util::sat_add(start_of(a), when_active);
      if (when_abs > config.time_cap) continue;
      // The first in-window visit at or past vanish means every later
      // revisit is as well (the live window is one interval).
      if (static_cast<double>(when_abs) >= vanish_of(env, ti)) continue;
      // Earliest hit wins; exact ties go to the lowest agent index, then to
      // the lowest target index — the historical engines' rule.
      if (when_abs < best_t[ti] ||
          (when_abs == best_t[ti] && a < finder_t[ti])) {
        best_t[ti] = when_abs;
        finder_t[ti] = a;
      }
      if (when_abs < best_first) best_first = when_abs;
    }
    agent.elapsed = util::sat_add(agent.elapsed, duration(seg));
    agent.pos = end_position(seg);
    if (agent.elapsed >= lifetime_of(a)) {
      ++result.crashed;  // halts mid-plan; position is wherever it died
      continue;
    }
    queue.emplace(util::sat_add(start_of(a), agent.elapsed), a);
  }

  // Earliest capture (ties: lowest agent, then lowest target) fills
  // finder/first_target in both modes.
  std::size_t n_found = 0;
  Time t_all = 0;
  Time first_time = kNeverTime;
  for (std::size_t ti = 0; ti < nt; ++ti) {
    if (best_t[ti] == kNeverTime) continue;
    ++n_found;
    t_all = std::max(t_all, best_t[ti]);
    if (collect) result.target_times[ti] = static_cast<double>(best_t[ti]);
    if (best_t[ti] < first_time ||
        (best_t[ti] == first_time && finder_t[ti] < result.finder)) {
      first_time = best_t[ti];
      result.finder = finder_t[ti];
      result.first_target = static_cast<int>(ti);
    }
  }
  if (collect ? n_found == nt : n_found > 0) {
    const Time done = collect ? t_all : first_time;
    result.found = true;
    result.time = static_cast<double>(done);
    result.from_last_start =
        static_cast<double>(done > last_start ? done - last_start : 0);
  } else {
    result.found = false;
    result.time = static_cast<double>(config.time_cap);
    result.from_last_start = static_cast<double>(config.time_cap);
  }
  return result;
}

/// Lock-step backend: every alive, started agent advances one edge per
/// tick; the first agent in index order to stand on a target wins the
/// tick (sim_trial_test pins this against a per-agent reference loop).
/// Each tick steps every active agent through one strategy kernel call,
/// then detects in agent order; the tick a first find cuts short counts
/// steps and crash transitions only up to the finder.
/// Generalized over appear/vanish windows, drifting targets, dwell capture,
/// and collect-all. Contact under a dwell policy is the L1-radius-1 disc
/// (see TrialEnvironment docs); a find confirms when an (agent, target)
/// pair holds contact for capture_dwell + 1 consecutive post-move ticks,
/// and losing contact — moving out of the disc or the target vanishing —
/// resets that pair's progress.
TrialResult run_step_trial(const StepStrategy& strategy, int k,
                           const TrialEnvironment& env,
                           const rng::Rng& trial_rng,
                           const EngineConfig& config) {
  const Time last_start = env.last_start();
  const std::size_t nt = env.targets.size();
  const bool collect = env.collect_all;
  const bool windows = env.has_target_windows();
  const Time dwell = env.capture_dwell;
  const auto uk = static_cast<std::size_t>(k);
  TrialResult result;
  result.last_start = static_cast<double>(last_start);
  if (collect) result.target_times.assign(nt, -1.0);

  StepLanes lanes;
  lanes.reset(k, trial_rng);
  StepRoster roster;
  result.crashed = roster.reset(k, env.starts, env.lifetimes);

  if (collect && nt == 0) {
    // Zero spawned targets: vacuously all found at t = 0; nobody acts.
    result.found = true;
    result.time = 0;
    result.from_last_start = 0;
    return result;
  }

  std::vector<char> target_found(nt, 0);
  std::vector<Time> found_at(nt, 0);
  // Consecutive-contact counters per (agent, target) pair, dwell mode only.
  std::vector<Time> contact(dwell > 0 ? uk * nt : 0, 0);
  std::size_t n_found = 0;
  int first_finder = -1;
  int first_ti = -1;

  // nt == 0 (zero-spawn windowed process, first-of-set mode) still sweeps
  // to the cap so crash/segment accounting matches the segment and plane
  // backends, which run their heaps out naturally.
  for (Time t = 1; t <= config.time_cap && (nt == 0 || n_found < nt); ++t) {
    roster.advance(t);
    const std::vector<std::uint32_t>& active = roster.active();
    strategy.step(lanes, active.data(), active.size());
    // The whole tick's steps and crash transitions (halted agents stay
    // where they stopped; they do not "unvisit" anything) count up front;
    // a first find gives back those of the agents after the finder.
    result.segments += static_cast<std::int64_t>(active.size());
    result.crashed += static_cast<int>(roster.halting().size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::uint32_t ua = active[i];
      const int a = static_cast<int>(ua);
      const grid::Point next{lanes.x[ua], lanes.y[ua]};
      for (std::size_t ti = 0; ti < nt; ++ti) {
        if (target_found[ti]) continue;
        const bool alive =
            !windows || (appear_of(env, ti) <= static_cast<double>(t) &&
                         static_cast<double>(t) < vanish_of(env, ti));
        const grid::Point tp = target_position_at(env, ti, t);
        if (dwell > 0) {
          const bool in_disc = alive && grid::l1_dist(next, tp) <= 1;
          Time& held = contact[ua * nt + ti];
          held = in_disc ? held + 1 : 0;
          if (held < dwell + 1) continue;
        } else if (!alive || next != tp) {
          continue;
        }
        target_found[ti] = 1;
        found_at[ti] = t;
        ++n_found;
        if (first_ti < 0) {
          first_finder = a;
          first_ti = static_cast<int>(ti);
        }
        if (collect) result.target_times[ti] = static_cast<double>(t);
        if (!collect) {
          result.found = true;
          result.time = static_cast<double>(t);
          result.finder = a;
          result.first_target = static_cast<int>(ti);
          result.from_last_start =
              static_cast<double>(t > last_start ? t - last_start : 0);
          result.segments -= static_cast<std::int64_t>(active.size() - 1 - i);
          result.crashed -= static_cast<int>(roster.halted_after(ua));
          return result;
        }
      }
    }
  }

  result.finder = first_finder;
  result.first_target = first_ti;
  if (collect && n_found == nt) {
    Time t_all = 0;
    for (std::size_t ti = 0; ti < nt; ++ti) {
      t_all = std::max(t_all, found_at[ti]);
    }
    result.found = true;
    result.time = static_cast<double>(t_all);
    result.from_last_start =
        static_cast<double>(t_all > last_start ? t_all - last_start : 0);
  } else {
    result.found = false;
    result.time = static_cast<double>(config.time_cap);
    result.from_last_start = static_cast<double>(config.time_cap);
  }
  return result;
}

/// Plane backend: adapts the trial environment and engine config to the
/// continuous executor (plane::run_plane_trial). Integer start delays and
/// lifetimes read as continuous time units, so the same schedule/crash
/// draws perturb both substrates identically; fractional sighting times
/// come back through TrialResult's double fields untouched.
TrialResult run_plane_backend_trial(const plane::PlaneStrategy& strategy,
                                    int k, const TrialEnvironment& env,
                                    const rng::Rng& trial_rng,
                                    const EngineConfig& config) {
  plane::PlaneTrialEnvironment plane_env;
  plane_env.targets = env.plane_targets;
  plane_env.starts.assign(env.starts.begin(), env.starts.end());
  plane_env.lifetimes.reserve(env.lifetimes.size());
  for (const Time life : env.lifetimes) {
    plane_env.lifetimes.push_back(life == kNeverTime
                                      ? plane::kPlaneNever
                                      : static_cast<plane::Time>(life));
  }
  plane_env.target_appear = env.target_appear;
  plane_env.target_vanish = env.target_vanish;
  plane_env.windowed = env.windowed;
  plane_env.collect_all = env.collect_all;

  plane::PlaneEngineConfig plane_config;
  plane_config.sight_radius = config.sight_radius;
  plane_config.spiral_pitch = config.spiral_pitch;
  plane_config.time_cap = config.time_cap == kNeverTime
                              ? plane::kPlaneNever
                              : static_cast<plane::Time>(config.time_cap);
  plane_config.max_segments_per_agent = config.max_segments_per_agent;

  const plane::PlaneTrialResult r =
      plane::run_plane_trial(strategy, k, plane_env, trial_rng, plane_config);
  TrialResult result;
  result.time = r.time;
  result.found = r.found;
  result.finder = r.finder;
  result.first_target = r.first_target;
  result.segments = r.segments;
  result.last_start = r.last_start;
  result.from_last_start = r.from_last_start;
  result.crashed = r.crashed;
  result.target_times = r.target_times;
  return result;
}

}  // namespace

TrialResult run_trial(const TrialStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config) {
  detail::validate_trial_args(strategy, k, env, config);
  if (strategy.plane != nullptr) {
    return run_plane_backend_trial(*strategy.plane, k, env, trial_rng,
                                   config);
  }
  // The static model's one special case, resolved before either grid loop
  // starts (the loops detect targets on arrival only).
  if (auto origin = detail::resolve_origin_target(env, k, config.time_cap)) {
    return *origin;
  }
  if (strategy.step != nullptr) {
    return run_step_trial(*strategy.step, k, env, trial_rng, config);
  }
  return run_segment_trial(*strategy.segment, k, env, trial_rng, config);
}

TrialResult run_trial(const Strategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config) {
  TrialStrategy s;
  s.segment = &strategy;
  return run_trial(s, k, env, trial_rng, config);
}

TrialResult run_trial(const StepStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config) {
  TrialStrategy s;
  s.step = &strategy;
  return run_trial(s, k, env, trial_rng, config);
}

TrialResult run_trial(const plane::PlaneStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config) {
  TrialStrategy s;
  s.plane = &strategy;
  return run_trial(s, k, env, trial_rng, config);
}

Time single_agent_hit_time(AgentProgram& program, rng::Rng& rng,
                           grid::Point treasure, grid::Point source,
                           Time bound, std::int64_t max_segments,
                           std::int64_t* segments_out) {
  grid::Point pos = source;
  Time clock = 0;
  std::int64_t segments = 0;

  if (pos == treasure) {
    if (segments_out) *segments_out = 0;
    return 0;
  }

  // Invariant: clock <= bound when a segment is realized, so any hit that
  // could still matter (<= bound) is inside a segment we do inspect.
  while (clock <= bound) {
    if (++segments > max_segments) {
      throw std::runtime_error(
          "engine: agent exceeded segment budget without terminating");
    }
    const Segment seg = realize(program.next(rng), pos, source);
    if (const auto hit = hit_offset(seg, treasure)) {
      const Time when = util::sat_add(clock, *hit);
      if (when <= bound) {
        if (segments_out) *segments_out = segments;
        return when;
      }
    }
    clock = util::sat_add(clock, duration(seg));
    pos = end_position(seg);
  }
  if (segments_out) *segments_out = segments;
  return kNeverTime;
}

}  // namespace ants::sim
