// BatchRunner's min-clock backends (see batch.h): run_one, the segment
// loop and the plane loop. They sit apart from the lock-step loop in
// batch.cpp so that a change to one family's loop does not move the
// compiler's inlining choices for the other's.
#include "sim/batch/batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "grid/spiral.h"
#include "grid/staircase_path.h"
#include "util/sat.h"

namespace ants::sim::batch {

namespace {

/// The plane engine's view of a trial: the environment (integer start
/// delays and lifetimes read as continuous time units, kNeverTime as
/// kPlaneNever) and the engine config. `penv` is reused across trials.
plane::PlaneEngineConfig to_plane(const TrialEnvironment& env,
                                  const EngineConfig& config,
                                  plane::PlaneTrialEnvironment* penv) {
  penv->targets = env.plane_targets;
  penv->starts.assign(env.starts.begin(), env.starts.end());
  penv->lifetimes.clear();
  penv->lifetimes.reserve(env.lifetimes.size());
  for (const Time life : env.lifetimes) {
    penv->lifetimes.push_back(life == kNeverTime
                                  ? plane::kPlaneNever
                                  : static_cast<plane::Time>(life));
  }
  penv->target_appear = env.target_appear;
  penv->target_vanish = env.target_vanish;
  penv->windowed = env.windowed;
  penv->collect_all = env.collect_all;

  plane::PlaneEngineConfig pconfig;
  pconfig.sight_radius = config.sight_radius;
  pconfig.spiral_pitch = config.spiral_pitch;
  pconfig.time_cap = config.time_cap == kNeverTime
                         ? plane::kPlaneNever
                         : static_cast<plane::Time>(config.time_cap);
  pconfig.max_segments_per_agent = config.max_segments_per_agent;
  return pconfig;
}

/// A plane result in the executor's result type; fractional sighting times
/// come back through TrialResult's double fields untouched.
TrialResult from_plane(plane::PlaneTrialResult r) {
  TrialResult result;
  result.time = r.time;
  result.found = r.found;
  result.finder = r.finder;
  result.first_target = r.first_target;
  result.segments = r.segments;
  result.last_start = r.last_start;
  result.from_last_start = r.from_last_start;
  result.crashed = r.crashed;
  result.target_times = std::move(r.target_times);
  return result;
}
}  // namespace

TrialResult BatchRunner::run_one(const TrialEnvironment& env,
                                 const rng::Rng& trial_rng) {
  if (strategy_.step != nullptr) {
    TrialResult result;
    run_block(&env, &trial_rng, 1, &result);
    return result;
  }
  kernels_ = &kernels_for(active_simd_level());
  detail::validate_trial_args(strategy_, k_, env, config_);
  const bool dynamic = env.has_dynamic_targets();
  if (strategy_.plane != nullptr) {
    if (dynamic) {
      // The one remaining delegation: plane windowed/collect cells run on
      // the scalar plane engine. Their dynamic race lives inside
      // plane::run_plane_trial's heap loop, where the quadratic sight tests
      // dominate — rebuilding that loop here buys little. Counted
      // (batch_scalar_fallback metric) so the delegation is observable
      // instead of silent.
      ++scalar_fallbacks_;
      const plane::PlaneEngineConfig pconfig =
          to_plane(env, config_, &plane_env_);
      return from_plane(plane::run_plane_trial(*strategy_.plane, k_,
                                               plane_env_, trial_rng,
                                               pconfig));
    }
    if (auto result = run_plane(env, trial_rng, kMaxFolds)) {
      return *std::move(result);
    }
    // A sighting improved the outcome at its own leg's start, where
    // chaining is not exact (see the plane backend below).
    return *run_plane(env, trial_rng, 0);
  }
  // The static model's one special case, resolved before either loop
  // starts (the loops detect targets on arrival only).
  if (auto origin = detail::resolve_origin_target(env, k_, config_.time_cap)) {
    return *origin;
  }
  return dynamic ? run_segment<true>(env, trial_rng, 0)
                 : run_segment<false>(env, trial_rng, folds_);
}


// ---------------------------------------------------------------------------
// Segment backend: the reference executor's interleaved min-heap sweep
// (see tests/support/reference_trial.cpp) with the heap replaced by a
// winner tree over the SoA clock array (min_tree.h), whose root is the
// heap's pop: removed agents park at kNeverTime, which never wins while a
// live clock remains. The Segment variant is flattened into direct hit
// tests. A walk's targets are prefiltered by the endpoint bounding box (a
// staircase is monotone, so it never leaves it), and the StaircasePath is
// only constructed when some target survives the box.
//
// Chains (static instance). A pop runs the popped leg and then chains more
// legs of the same agent into the pop, each with its hit tests run from
// that leg's own elapsed base and counted provisionally. Before each chained
// leg, its start is checked against the current bound (past it, the chain
// stops) and the agent's count against the segment budget (there it stops
// too, so the next pop throws exactly when the reference would). Each agent
// pulls its own ops in order from its own stream, so every draw stays at the
// same op.
//
// A trip program hands its trips out whole (AgentProgram::next_trip, which
// draws what three next() calls draw). A trip whose reach, |to|_inf plus the
// spiral ring its budget reaches, is strictly below the nearest target's
// L-infinity norm visits no target (trip_chain.h): it is quiet, and its
// three legs run without hit tests. After a quiet trip the same pop pulls
// the agent's next trip, so a pop is quiet trips, as many as the agent's
// tail holds (ChainTails::kCap legs), and then at most one ordinary trip,
// G S R with its hit tests. A chain stops at a trip's start when the next
// trip might overflow the tail. It may stop inside a trip only where the agent never
// runs again in this trial: a death, a start past the bound (which only
// falls), or the segment budget (the next pop throws). So a trip program's
// pops always start at a trip's start, at the source.
//
// Any other program folds up to `folds` cheap legs, GoTo, ReturnToSource
// and SpiralFor (O(1) per target); a pulled FollowPath waits in the agent's
// ChainTails::pending for its next pop. A strategy whose programs walk paths
// gains little from folds and would build, at each trial's end, a path it
// never runs, so the runner keeps in folds_ the count run_one passes,
// kMaxFolds until the first FollowPath pulled while folding and 0 from then
// on. With folds = 0 no leg is chained at all.
//
// Why the result is exact. The reference runs a leg iff its start is at
// most the final bound B* = min(cap, best - 1). Every hit lies at or after
// its leg's start, and a hit at a leg's start (offset 0) repeats the end of
// the same agent's previous leg, hit at the same time before; the first
// leg starts at the origin, whose targets are resolved before the loop. So
// a hit found early, or on a chained leg that starts past B* (whose hits lie
// past B* too), leaves time, finder and first_target as the reference
// leaves them: ties resolve by (time, agent) and, within one agent, in its
// own leg order, which chaining keeps. A quiet leg has no hit to find. A
// popped leg always starts by B*, so only the legs chained since an agent's
// last pop can start past it. They sit in the agent's tail (seg_chains_,
// its starts in chain order), and at the end they leave the segment count,
// and a death in the last of them leaves the crash count. The dynamic
// instance does not chain: collect-all's loosest bound and windows that
// open late are outside this argument.
//
// kDynamic adds appear/vanish windows and collect-all (drift and dwell were
// rejected by validate_trial_args for this family); the static instance
// compiles them out and keeps the classic single-best race. The flattened op
// scans reproduce hit_offset_from exactly: walks and spirals visit each node
// at most once, so their unique hit counts iff its offset is not before the
// window's first admissible offset; explicit paths rescan from that offset.
// Every hit of a segment lies in [base, base + duration], so a target whose
// window closed by the segment's start (vanish <= base) or opens after its
// end (first admissible offset > duration) would be rejected by consider()
// or the offset test; the dynamic loop never tests such a target. Its
// targets sit in one per-trial list, seg_live_, sorted once by (appear,
// index). The winner tree pops clocks in nondecreasing order and base is
// the popped clock, so a target whose window has closed at one pop is
// closed at every later pop: it leaves the list for good, in a compaction
// run only when base reaches the smallest vanish left. The first
// admissible offset grows with appear, so each op's scan stops at the
// first listed target opening after the segment. consider() keeps a best
// per target and their minimum, so the order of the scan is unobservable.
// Collect-all counts the targets without a hit yet; while one is left the
// bound is the cap, and after that the loosest per-target bound, rescanned
// only when some per-target best has improved.

template <bool kDynamic>
TrialResult BatchRunner::run_segment(const TrialEnvironment& env,
                                     const rng::Rng& trial_rng, int folds) {
  const Strategy& strategy = *strategy_.segment;
  const int k = k_;
  const auto uk = static_cast<std::size_t>(k);

  const Time last_start = env.last_start();
  const std::size_t nt = env.targets.size();
  const bool collect = kDynamic && env.collect_all;
  TrialResult result;
  result.last_start = static_cast<double>(last_start);
  if (collect) {
    result.target_times.assign(nt, -1.0);
    if (nt == 0) {
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
  }

  seg_programs_.clear();
  rngs_.clear();
  for (int a = 0; a < k; ++a) {
    seg_programs_.push_back(strategy.make_program(AgentContext{a, k}));
    rngs_.push_back(trial_rng.child(static_cast<std::uint64_t>(a)));
  }
  clock_.assign(uk, kNeverTime);
  elapsed_.assign(uk, 0);
  pos_x_.assign(uk, 0);
  pos_y_.assign(uk, 0);
  seg_count_.assign(uk, 0);
  queued_.assign(uk, 0);
  if (!spiral_points_) spiral_points_ = std::make_unique<SpiralPointMemo>();
  SpiralPointMemo& spiral_points = *spiral_points_;
  [[maybe_unused]] ChainTails<Time, Op>* chains = nullptr;
  if constexpr (!kDynamic) {
    if (!seg_chains_) seg_chains_ = std::make_unique<ChainTails<Time, Op>>();
    chains = seg_chains_.get();
    chains->begin(uk);
  }
  std::size_t n_queued = 0;
  for (int a = 0; a < k; ++a) {
    const auto ia = static_cast<std::size_t>(a);
    const Time life = env.lifetimes.empty() ? kNeverTime : env.lifetimes[ia];
    if (life <= 0) {
      ++result.crashed;  // dead on arrival: never acts
      continue;
    }
    clock_[ia] = env.starts.empty() ? Time{0} : env.starts[ia];
    queued_[ia] = 1;
    ++n_queued;
  }

  tgt_x_.resize(nt);
  tgt_y_.resize(nt);
  for (std::size_t ti = 0; ti < nt; ++ti) {
    tgt_x_[ti] = env.targets[ti].x;
    tgt_y_[ti] = env.targets[ti].y;
  }
  // Static: the smallest L-infinity norm of a target. A trip whose reach
  // stays below it is quiet.
  [[maybe_unused]] std::int64_t nearest =
      std::numeric_limits<std::int64_t>::max();
  if constexpr (!kDynamic) {
    for (const grid::Point& t : env.targets) {
      nearest = std::min(nearest, grid::linf_norm(t));
    }
  }
  if constexpr (kDynamic) {
    app_.resize(nt);
    van_.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      app_[ti] = detail::appear_of(env, ti);
      van_[ti] = detail::vanish_of(env, ti);
    }
    // Per-target earliest hit; the first-find race collapses them to one
    // winner after the sweep.
    best_t_.assign(nt, kNeverTime);
    finder_t_.assign(nt, -1);
    // Targets by (appear, index). Insertion sort: a Poisson process
    // spawns its targets in appear order, so this is one pass there.
    seg_live_.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      std::size_t j = ti;
      for (; j > 0 && app_[seg_live_[j - 1]] > app_[ti]; --j) {
        seg_live_[j] = seg_live_[j - 1];
      }
      seg_live_[j] = static_cast<std::uint32_t>(ti);
    }
  }
  [[maybe_unused]] std::size_t n_unhit = nt;  // collect: targets with no hit
  // The smallest vanish time on seg_live_; the list is compacted when the
  // popped clock reaches it.
  [[maybe_unused]] double live_vanish = detail::kNeverVanish;
  if constexpr (kDynamic) {
    for (std::size_t ti = 0; ti < nt; ++ti) {
      live_vanish = std::min(live_vanish, van_[ti]);
    }
  }
  // Collect: the loosest per-target bound once every target has a hit,
  // recomputed only after some best_t_ changed.
  [[maybe_unused]] Time loosest = config_.time_cap;
  [[maybe_unused]] bool loosest_stale = true;

  clock_tree_.build(&clock_);

  // The earliest hit so far over all targets. The static race also tracks
  // its finder and target here; the dynamic one keeps them per target.
  Time best = kNeverTime;
  int finder = -1;
  int first_target = -1;
  // The first-find race's bound: a leg starting past it cannot improve the
  // outcome.
  const auto race_bound = [&] {
    return std::min(config_.time_cap, best == kNeverTime ? best : best - 1);
  };

  while (n_queued > 0) {
    std::size_t ia = clock_tree_.top();
    if (clock_[ia] == kNeverTime) {
      // Every queued clock is at kNeverTime (a hand-built environment with
      // such a start), so the tree may have landed on a REMOVED agent's
      // parking value. The heap would pop the lowest-index queued agent.
      ia = 0;
      while (queued_[ia] == 0) ++ia;
    }
    const Time abs_clock = clock_[ia];
    // The bound below which a pop can still improve the outcome: in the
    // first-find race it is best - 1; in collect-all it is the loosest
    // per-target bound (an unfound target keeps the cap open).
    Time bound = race_bound();
    if (collect) {
      // Every hit is at most the cap, so while a target is unhit the
      // loosest bound is the cap.
      if (n_unhit == 0 && loosest_stale) {
        loosest = 0;
        for (std::size_t ti = 0; ti < nt; ++ti) {
          loosest = std::max(loosest, best_t_[ti] - 1);
        }
        loosest_stale = false;
      }
      bound = std::min(config_.time_cap, loosest);
    }
    if (abs_clock > bound) break;

    const int a = static_cast<int>(ia);
    if (++seg_count_[ia] > config_.max_segments_per_agent) {
      throw std::runtime_error(
          "BatchRunner: agent exceeded segment budget without "
          "terminating");
    }
    ++result.segments;

    const Time start = env.starts.empty() ? Time{0} : env.starts[ia];
    const Time life = env.lifetimes.empty() ? kNeverTime : env.lifetimes[ia];
    [[maybe_unused]] const Time base = util::sat_add(start, elapsed_[ia]);
    if constexpr (kDynamic) {
      // base is this pop's clock, and pops never go back in time: a target
      // whose window closed by base can never be hit again in this trial.
      if (static_cast<double>(base) >= live_vanish) {
        std::size_t keep = 0;
        live_vanish = detail::kNeverVanish;
        for (const std::uint32_t ti : seg_live_) {
          if (van_[ti] <= static_cast<double>(base)) continue;
          seg_live_[keep++] = ti;
          live_vanish = std::min(live_vanish, van_[ti]);
        }
        seg_live_.resize(keep);
      }
    }
    // First hit offset inside target ti's appear window (0 when static).
    const auto window_from = [&](std::size_t ti) -> Time {
      if constexpr (kDynamic) {
        return detail::window_from_offset(app_[ti], base);
      } else {
        return 0;
      }
    };
    // Each op branch scans the targets target_at(li) for li below
    // kDynamic ? seg_live_.size() : nt: every target when static, seg_live_
    // when dynamic. The live list is in appear order and window_from grows
    // with appear, so its scan ends at the first target whose window opens
    // after the segment.
    const auto target_at = [&](std::size_t li) -> std::size_t {
      if constexpr (kDynamic) {
        return seg_live_[li];
      } else {
        return li;
      }
    };

    const auto consider = [&](Time hit, std::size_t ti) {
      const Time when_active = util::sat_add(elapsed_[ia], hit);
      if (when_active > life) return;  // only counts while still alive
      const Time when_abs = util::sat_add(start, when_active);
      if (when_abs > config_.time_cap) return;
      if constexpr (kDynamic) {
        // The first in-window visit at or past vanish means every later
        // revisit is as well (the live window is one interval).
        if (static_cast<double>(when_abs) >= van_[ti]) return;
        if (when_abs < best_t_[ti] ||
            (when_abs == best_t_[ti] && a < finder_t_[ti])) {
          if (best_t_[ti] == kNeverTime) --n_unhit;
          if (when_abs < best_t_[ti]) loosest_stale = true;
          best_t_[ti] = when_abs;
          finder_t_[ti] = a;
        }
        if (when_abs < best) best = when_abs;
      } else {
        // Earliest hit wins; ties to the lowest agent, then lowest target.
        if (when_abs < best || (when_abs == best && a < finder)) {
          best = when_abs;
          finder = a;
          first_target = static_cast<int>(ti);
        }
      }
    };

    const auto scan_walk = [&](grid::Point from_pt, grid::Point to) {
      const std::int64_t xlo = std::min(from_pt.x, to.x);
      const std::int64_t xhi = std::max(from_pt.x, to.x);
      const std::int64_t ylo = std::min(from_pt.y, to.y);
      const std::int64_t yhi = std::max(from_pt.y, to.y);
      std::optional<grid::StaircasePath> path;
      for (std::size_t li = 0; li < (kDynamic ? seg_live_.size() : nt); ++li) {
        const std::size_t ti = target_at(li);
        if constexpr (kDynamic) {
          if (window_from(ti) > grid::l1_dist(from_pt, to)) break;
        }
        const grid::Point tgt{tgt_x_[ti], tgt_y_[ti]};
        if (tgt.x < xlo || tgt.x > xhi || tgt.y < ylo || tgt.y > yhi) continue;
        if (!path) path.emplace(from_pt, to);
        const auto hit = path->index_of(tgt);
        if (!hit) continue;
        if (kDynamic && *hit < window_from(ti)) continue;
        consider(*hit, ti);
      }
    };

    // Ends the running leg: the agent takes its duration and end point.
    // Returns whether the agent died in it (it halts mid-plan, wherever).
    const auto finish = [&](Time dur, grid::Point end) {
      elapsed_[ia] = util::sat_add(elapsed_[ia], dur);
      pos_x_[ia] = end.x;
      pos_y_[ia] = end.y;
      return elapsed_[ia] >= life;
    };
    // The leg kinds, each run with its hit tests unless `test` is false.
    const auto walk = [&](grid::Point to, bool test) {
      const grid::Point pos{pos_x_[ia], pos_y_[ia]};
      if (test) scan_walk(pos, to);
      return finish(grid::l1_dist(pos, to), to);
    };
    const auto spiral = [&](Time duration, grid::Point end_offset,
                            bool test) {
      const grid::Point pos{pos_x_[ia], pos_y_[ia]};
      for (std::size_t li = 0;
           test && li < (kDynamic ? seg_live_.size() : nt); ++li) {
        const std::size_t ti = target_at(li);
        if constexpr (kDynamic) {
          if (window_from(ti) > duration) break;
        }
        const std::int64_t idx = grid::spiral_index(
            grid::Point{tgt_x_[ti] - pos.x, tgt_y_[ti] - pos.y});
        if (idx > duration) continue;
        if (kDynamic && idx < window_from(ti)) continue;
        consider(idx, ti);
      }
      return finish(duration, pos + end_offset);
    };
    const auto run_op = [&](const Op& op) {
      if (const auto* go = std::get_if<GoTo>(&op)) {
        return walk(go->target, true);
      }
      if (std::get_if<ReturnToSource>(&op) != nullptr) {
        return walk(grid::kOrigin, true);
      }
      if (const auto* sp = std::get_if<SpiralFor>(&op)) {
        return spiral(sp->duration, spiral_points.at(sp->duration), true);
      }
      const auto& fp = std::get<FollowPath>(op);
      const grid::Point pos{pos_x_[ia], pos_y_[ia]};
      for (std::size_t li = 0; li < (kDynamic ? seg_live_.size() : nt);
           ++li) {
        const std::size_t ti = target_at(li);
        if constexpr (kDynamic) {
          if (window_from(ti) > static_cast<Time>(fp.steps.size())) break;
        }
        const grid::Point tgt{tgt_x_[ti], tgt_y_[ti]};
        const Time from = window_from(ti);
        std::optional<Time> hit;
        if (from <= 0 && pos == tgt) {
          hit = 0;
        } else {
          // Paths may revisit: first match at offset >= from (offset
          // i + 1 is steps[i]; offset 0 is the start, already < from
          // when > 0).
          for (std::size_t i =
                   from <= 0 ? 0 : static_cast<std::size_t>(from - 1);
               i < fp.steps.size(); ++i) {
            if (fp.steps[i] == tgt) {
              hit = static_cast<Time>(i + 1);
              break;
            }
          }
        }
        if (hit) consider(*hit, ti);
      }
      return finish(static_cast<Time>(fp.steps.size()),
                    fp.steps.empty() ? pos : fp.steps.back());
    };

    bool dead = false;
    if constexpr (kDynamic) {
      dead = run_op(seg_programs_[ia]->next(rngs_[ia]));
    } else {
      // The popped leg, then its chain: see "Chains" above.
      ChainTails<Time, Op>& tails = *chains;
      tails.open(ia);
      // Whether the agent's next leg may join this pop: it must start by
      // the current bound and within the segment budget.
      const auto may_chain = [&] {
        return util::sat_add(start, elapsed_[ia]) <= race_bound() &&
               seg_count_[ia] < config_.max_segments_per_agent;
      };
      // The next leg joins: it is counted, and its start joins the tail.
      const auto count = [&] {
        ++seg_count_[ia];
        ++result.segments;
        tails.push(ia, util::sat_add(start, elapsed_[ia]));
      };
      const auto chain = [&] {
        if (!may_chain()) return false;
        count();
        return true;
      };
      AgentProgram& program = *seg_programs_[ia];
      std::optional<Op>& pending = tails.pending(ia);
      Trip trip;
      if (!pending && folds > 0 && program.next_trip(rngs_[ia], &trip)) {
        for (;;) {
          const grid::Point end_offset = spiral_points.at(trip.budget);
          const bool quiet = grid_trip_quiet(trip.to, end_offset, nearest);
          if ((dead = walk(trip.to, !quiet)) || !chain()) break;
          if ((dead = spiral(trip.budget, end_offset, !quiet)) || !chain()) {
            break;
          }
          if ((dead = walk(grid::kOrigin, !quiet)) || !quiet) break;
          if (!tails.has_room(ia, 3) || !chain()) break;
          program.next_trip(rngs_[ia], &trip);  // at a trip's start
        }
      } else {
        Op op = pending ? *std::move(pending) : program.next(rngs_[ia]);
        pending.reset();
        for (int f = 0;; ++f) {
          dead = run_op(op);
          if (dead || f == folds || !may_chain()) break;
          op = program.next(rngs_[ia]);
          if (std::holds_alternative<FollowPath>(op)) {
            // Its agent's next pop runs it; the runner stops folding, in
            // this trial and the ones after it.
            tails.leave(ia, std::move(op));
            folds = folds_ = 0;
            break;
          }
          count();
        }
      }
      tails.set_dead(ia, dead);
    }

    if (dead) {
      ++result.crashed;
      clock_[ia] = kNeverTime;
      queued_[ia] = 0;
      --n_queued;
    } else {
      clock_[ia] = util::sat_add(start, elapsed_[ia]);
    }
    clock_tree_.update(clock_, ia);
  }

  if constexpr (!kDynamic) {
    // A chained leg that starts past the final bound is one the reference
    // never runs: it leaves the segment count and, if the agent died in
    // it, the crash count.
    const Time last = race_bound();
    chains->settle([last](Time s) { return s > last; }, &result.segments,
                   &result.crashed);
  }
  bool found = best != kNeverTime;
  Time done = best;
  if constexpr (kDynamic) {
    // Earliest capture (ties: lowest agent, then lowest target) fills
    // finder/first_target in both collect modes.
    std::size_t n_found = 0;
    Time t_all = 0;
    done = kNeverTime;
    for (std::size_t ti = 0; ti < nt; ++ti) {
      if (best_t_[ti] == kNeverTime) continue;
      ++n_found;
      t_all = std::max(t_all, best_t_[ti]);
      if (collect) result.target_times[ti] = static_cast<double>(best_t_[ti]);
      if (best_t_[ti] < done ||
          (best_t_[ti] == done && finder_t_[ti] < finder)) {
        done = best_t_[ti];
        finder = finder_t_[ti];
        first_target = static_cast<int>(ti);
      }
    }
    if (collect) {
      found = n_found == nt;
      done = t_all;
    }
  }
  result.finder = finder;
  result.first_target = first_target;
  if (found) {
    result.found = true;
    result.time = static_cast<double>(done);
    result.from_last_start =
        static_cast<double>(done > last_start ? done - last_start : 0);
  } else {
    result.found = false;
    result.time = static_cast<double>(config_.time_cap);
    result.from_last_start = static_cast<double>(config_.time_cap);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Plane backend: the continuous min-clock sweep (plane/engine.cpp) with the
// clock heap replaced by the winner tree of run_segment (min_tree.h;
// removed agents park at kPlaneNever, and the loop breaks on clock >= bound,
// so the parking value terminates it exactly when the empty heap would),
// line sight tests prefiltered by the line_candidates kernel (every
// candidate re-checked by the scalar quadratic), and the per-move spiral
// Newton solve and end point memoized.
//
// The plane loop chains as the segment loop does (see there). A trip
// program's trips come whole; a trip is quiet when |to| + sqrt(2 a s) +
// eps, times 1 + kPlaneQuietMargin, is strictly below the nearest target's
// norm (s the sweep's arc length): every point of its legs is within |to| +
// a * theta_end <= |to| + sqrt(2 a s) of the origin, so no target comes
// within eps of it, and the margin covers the rounding of the sighting
// tests (trip_chain.h gives the bound). The bound spares the quiet test the
// Newton solve for theta_end, which an ordinary trip pays only when its
// spiral runs. A quiet
// trip's legs run without sighting tests. An ordinary trip's walk out ends
// the pop, and its spiral waits for the agent's next pop, which runs it with
// the return home and then chains on. So a pop is an ordinary trip's
// S R, quiet trips as the tail holds them, and at most one ordinary trip's
// G, a plane search S R G as with folds. Other programs fold line legs,
// GoToPoint and ReturnHome, and a pulled SpiralSweep waits for the agent's
// next pop.
//
// The bound is strict: the reference runs a leg iff it starts before B* =
// min(cap, best). In floating point a sighting at a leg's start need not
// repeat the previous leg: that leg's entry root can land a rounding step
// past its end. The argument needs only that no sighting improves the
// outcome at its own leg's start. Then every leg the reference runs starts
// before B*, any other leg's sightings lie past it, and a chained leg is the
// reference's iff it starts before B*. The loop watches for such a sighting
// and, on that rare path, runs the trial again without chains. A quiet leg
// has no sighting, so it never takes that path.

const BatchRunner::SpiralEnd& BatchRunner::spiral_end(double a, double s) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(s));
  std::memcpy(&bits, &s, sizeof(bits));
  const std::size_t slot =
      static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >> 58);
  SpiralEnd& e = theta_memo_[slot];
  if (e.valid && e.s_bits == bits) return e;
  e.s_bits = bits;
  e.theta = plane::spiral_theta_for_arc(a, s);
  // spiral_point_at's expression, without the center.
  const double r = a * e.theta;
  e.offset = plane::Vec2{r * std::cos(e.theta), r * std::sin(e.theta)};
  e.valid = true;
  return e;
}

std::optional<TrialResult> BatchRunner::run_plane(const TrialEnvironment& env,
                                                  const rng::Rng& trial_rng,
                                                  int folds) {
  const plane::PlaneStrategy& strategy = *strategy_.plane;
  const int k = k_;
  const auto uk = static_cast<std::size_t>(k);

  const plane::PlaneEngineConfig pconfig = to_plane(env, config_, &plane_env_);

  plane::detail::validate_plane_trial_args(k, plane_env_, pconfig);
  const double eps = pconfig.sight_radius;
  const double a_coef = pconfig.spiral_pitch / plane::kTwoPi;

  plane::PlaneTrialResult presult;
  presult.last_start = plane_env_.last_start();
  const bool resolved = plane::detail::resolve_home_target(
      plane_env_, k, eps, pconfig.time_cap, &presult);
  if (!resolved) {
    const auto start_of = [&](std::size_t ia) {
      return plane_env_.starts.empty() ? plane::Time{0}
                                       : plane_env_.starts[ia];
    };
    const auto lifetime_of = [&](std::size_t ia) {
      return plane_env_.lifetimes.empty() ? plane::kPlaneNever
                                          : plane_env_.lifetimes[ia];
    };

    plane_programs_.clear();
    rngs_.clear();
    for (int a = 0; a < k; ++a) {
      plane_programs_.push_back(strategy.make_program(a, k));
      rngs_.push_back(trial_rng.child(static_cast<std::uint64_t>(a)));
    }
    pclock_.assign(uk, plane::kPlaneNever);
    pelapsed_.assign(uk, 0.0);
    ppos_x_.assign(uk, 0.0);
    ppos_y_.assign(uk, 0.0);
    seg_count_.assign(uk, 0);
    if (!plane_chains_) {
      plane_chains_ =
          std::make_unique<ChainTails<plane::Time, PlaneSearch>>();
    }
    ChainTails<plane::Time, PlaneSearch>& tails = *plane_chains_;
    tails.begin(uk);
    for (int a = 0; a < k; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      if (lifetime_of(ia) <= 0) {
        ++presult.crashed;  // dead on arrival: never acts
        continue;
      }
      pclock_[ia] = start_of(ia);
    }

    const std::size_t nt = plane_env_.targets.size();
    ptgt_x_.resize(nt);
    ptgt_y_.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      ptgt_x_[ti] = plane_env_.targets[ti].x;
      ptgt_y_[ti] = plane_env_.targets[ti].y;
    }
    cand_.resize(nt);
    // The smallest norm of a target. A trip whose reach stays below it is
    // quiet.
    double nearest = std::numeric_limits<double>::infinity();
    for (const plane::Vec2& t : plane_env_.targets) {
      nearest = std::min(nearest, t.norm());
    }

    clock_tree_.build(&pclock_);

    plane::Time best = plane::kPlaneNever;
    int finder = -1;
    int first_target = -1;
    // Some sighting improved the outcome at its own leg's start: chaining
    // is not exact then, and the trial runs again without chains.
    bool flat = false;

    for (;;) {
      const std::size_t ia = clock_tree_.top();
      const plane::Time abs_clock = pclock_[ia];
      // All other clocks are >= this one; once it reaches the bound, no
      // agent can improve the outcome. When every agent has been removed
      // the root is the kPlaneNever parking value, which also trips this.
      if (abs_clock >= std::min(pconfig.time_cap, best)) break;

      const int a = static_cast<int>(ia);
      if (++seg_count_[ia] > pconfig.max_segments_per_agent) {
        throw std::runtime_error(
            "plane engine: agent exceeded segment budget without "
            "terminating");
      }
      ++presult.segments;

      const plane::Time start = start_of(ia);
      const plane::Time life = lifetime_of(ia);
      // The running leg's start clock.
      plane::Time base = abs_clock;

      const auto consider = [&](plane::Time hit, std::size_t ti) {
        const plane::Time when_active = pelapsed_[ia] + hit;
        if (when_active > life) return;  // only counts while still alive
        const plane::Time when_abs = start + when_active;
        if (when_abs > pconfig.time_cap) return;
        if (when_abs < best || (when_abs == best && a < finder)) {
          best = when_abs;
          finder = a;
          first_target = static_cast<int>(ti);
          if (when_abs <= base) flat = true;
        }
      };

      // Ends the running leg's time: the agent takes its duration or, dying
      // in it, halts where its lifetime runs out. Returns whether it died;
      // a survivor's end point is the caller's to set.
      const auto elapse = [&](const auto& move, plane::Time move_time) {
        if (pelapsed_[ia] + move_time < life) {
          pelapsed_[ia] += move_time;
          return false;
        }
        // Fail-stop: truncate the trajectory at the remaining budget (the
        // rare path: build the Move variant and reuse the scalar clamp).
        const plane::Vec2 died_at = plane::move_position_at(
            plane::Move{move}, life - pelapsed_[ia]);
        ppos_x_[ia] = died_at.x;
        ppos_y_[ia] = died_at.y;
        pelapsed_[ia] = life;
        return true;
      };
      const auto move_to = [&](plane::Vec2 p) {
        ppos_x_[ia] = p.x;
        ppos_y_[ia] = p.y;
      };
      // A walk, with its sighting tests unless `test` is false, and a sweep
      // with its tests (a quiet trip's sweep is inlined below).
      const auto line_leg = [&](plane::Vec2 to, bool test) {
        base = start + pelapsed_[ia];
        const plane::LineMove line{{ppos_x_[ia], ppos_y_[ia]}, to};
        const plane::Vec2 d = line.to - line.from;
        const double len = d.norm();
        if (test && (len == 0.0 || nt < 4)) {
          // Degenerate move (no direction to prefilter along) or too few
          // targets for the prefilter kernel to pay for its call: the
          // scalar test covers every target directly.
          for (std::size_t ti = 0; ti < nt; ++ti) {
            const auto hit = plane::line_first_sighting(
                line, len, plane_env_.targets[ti], eps);
            if (hit) consider(*hit, ti);
          }
        } else if (test) {
          const double inv = 1.0 / len;
          const std::size_t nc = kernels_->line_candidates(
              ptgt_x_.data(), ptgt_y_.data(), nt, line.from.x, line.from.y,
              d.x * inv, d.y * inv, eps, cand_.data());
          for (std::size_t ci = 0; ci < nc; ++ci) {
            const std::size_t ti = cand_[ci];
            const auto hit = plane::line_first_sighting(
                line, len, plane_env_.targets[ti], eps);
            if (hit) consider(*hit, ti);
          }
        }
        if (elapse(line, len)) return true;
        move_to(line.to);
        return false;
      };
      const auto sweep_leg = [&](plane::Time duration, const SpiralEnd& se) {
        base = start + pelapsed_[ia];
        const plane::SpiralMove spiral{{ppos_x_[ia], ppos_y_[ia]},
                                       pconfig.spiral_pitch, duration};
        for (std::size_t ti = 0; ti < nt; ++ti) {
          const auto hit = plane::spiral_first_sighting_at(
              spiral, plane_env_.targets[ti], eps, se.theta);
          if (hit) consider(*hit, ti);
        }
        if (elapse(spiral, duration)) return true;
        move_to(spiral.center + se.offset);
        return false;
      };

      // The popped leg, then its chain (see above and run_segment).
      tails.open(ia);
      // Whether the agent's next leg may join this pop: it must start
      // before the current bound and within the segment budget.
      const auto may_chain = [&] {
        return start + pelapsed_[ia] < std::min(pconfig.time_cap, best) &&
               seg_count_[ia] < pconfig.max_segments_per_agent;
      };
      // The next leg joins: it is counted, and its start joins the tail.
      const auto count = [&] {
        ++seg_count_[ia];
        ++presult.segments;
        tails.push(ia, start + pelapsed_[ia]);
      };
      const auto chain = [&] {
        if (!may_chain()) return false;
        count();
        return true;
      };
      plane::PlaneAgentProgram& program = *plane_programs_[ia];
      std::optional<PlaneSearch>& pending = tails.pending(ia);
      const std::optional<PlaneSearch> search = pending;
      pending.reset();
      bool dead = false;
      plane::PlaneTrip trip;
      if (folds > 0 && (search ? search->trip
                               : program.next_trip(rngs_[ia], &trip))) {
        // An ordinary trip's S R G, or quiet trips and at most one
        // ordinary trip's G.
        const auto run_trips = [&] {
          if (search) {
            if (sweep_leg(search->budget,
                          spiral_end(a_coef, search->budget))) {
              return true;
            }
            if (!chain()) return false;
            if (line_leg(plane::kPlaneOrigin, true)) return true;
            if (!tails.has_room(ia, 3) || !chain()) return false;
            program.next_trip(rngs_[ia], &trip);  // at a trip's start
          }
          for (;;) {
            const bool quiet = plane_trip_quiet(
                trip.to, plane_sweep_radius(a_coef, trip.budget), eps,
                nearest);
            if (line_leg(trip.to, !quiet)) return true;
            if (!quiet) {
              tails.leave(ia, PlaneSearch{trip.budget, true});
              return false;
            }
            // The sweep, untested. Its end point, and the Newton solve
            // behind it, wait until the walk home joins the pop: where it
            // does not, the agent never moves again in this trial.
            if (!chain()) return false;
            const plane::SpiralMove sweep{{ppos_x_[ia], ppos_y_[ia]},
                                          pconfig.spiral_pitch, trip.budget};
            if (elapse(sweep, trip.budget)) return true;
            if (!chain()) return false;
            move_to(sweep.center + spiral_end(a_coef, trip.budget).offset);
            if (line_leg(plane::kPlaneOrigin, false)) return true;
            if (!tails.has_room(ia, 3) || !chain()) return false;
            program.next_trip(rngs_[ia], &trip);
          }
        };
        dead = run_trips();
      } else {
        plane::PlaneOp op = search ? plane::PlaneOp{plane::SpiralSweep{
                                         search->budget}}
                                   : program.next(rngs_[ia]);
        for (int f = 0;; ++f) {
          if (const auto* sw = std::get_if<plane::SpiralSweep>(&op)) {
            dead = sweep_leg(sw->duration, spiral_end(a_coef, sw->duration));
          } else if (const auto* go = std::get_if<plane::GoToPoint>(&op)) {
            dead = line_leg(go->target, true);
          } else {
            dead = line_leg(plane::kPlaneOrigin, true);  // ReturnHome
          }
          if (dead || f == folds || !may_chain()) break;
          op = program.next(rngs_[ia]);
          if (const auto* sw = std::get_if<plane::SpiralSweep>(&op)) {
            tails.leave(ia, PlaneSearch{sw->duration, false});
            break;
          }
          count();
        }
      }
      tails.set_dead(ia, dead);
      if (folds > 0 && flat) return std::nullopt;

      if (dead) {
        ++presult.crashed;
        pclock_[ia] = plane::kPlaneNever;
      } else {
        pclock_[ia] = start + pelapsed_[ia];
      }
      clock_tree_.update(pclock_, ia);
    }

    // Chained legs starting at or past the final bound: see run_segment.
    const plane::Time last = std::min(pconfig.time_cap, best);
    tails.settle([last](plane::Time s) { return s >= last; },
                 &presult.segments, &presult.crashed);

    if (best != plane::kPlaneNever) {
      presult.found = true;
      presult.time = best;
      presult.finder = finder;
      presult.first_target = first_target;
      presult.from_last_start =
          best > presult.last_start ? best - presult.last_start : 0;
    } else {
      presult.found = false;
      presult.time = pconfig.time_cap;
      presult.finder = -1;
      presult.from_last_start = pconfig.time_cap;
    }
  }

  return from_plane(std::move(presult));
}

}  // namespace ants::sim::batch
