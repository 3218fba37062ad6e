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

/// A lane target no walker reaches: a walker stays within time_cap steps
/// of the source, and time_cap is below 2^63.
inline constexpr std::int64_t kNoTarget =
    std::numeric_limits<std::int64_t>::min();

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

BatchRunner::BatchRunner(const TrialStrategy& strategy, int k,
                         const EngineConfig& config)
    : strategy_(strategy),
      k_(k),
      config_(config),
      kernels_(&kernels_for(active_simd_level())) {
  const int set = (strategy.segment != nullptr ? 1 : 0) +
                  (strategy.step != nullptr ? 1 : 0) +
                  (strategy.plane != nullptr ? 1 : 0);
  if (set == 0) throw std::invalid_argument("BatchRunner: no strategy given");
  if (set > 1) {
    throw std::invalid_argument("BatchRunner: ambiguous strategy family");
  }
  if (k < 1) throw std::invalid_argument("BatchRunner: need k >= 1");
}

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
    return run_plane(env, trial_rng);
  }
  // The static model's one special case, resolved before either loop
  // starts (the loops detect targets on arrival only).
  if (auto origin = detail::resolve_origin_target(env, k_, config_.time_cap)) {
    return *origin;
  }
  return dynamic ? run_segment<true>(env, trial_rng)
                 : run_segment<false>(env, trial_rng);
}

void BatchRunner::run_block(const TrialEnvironment* envs,
                            const rng::Rng* trial_rngs, std::size_t n,
                            TrialResult* out) {
  if (strategy_.step == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = run_one(envs[i], trial_rngs[i]);
    }
    return;
  }
  kernels_ = &kernels_for(active_simd_level());
  static_trials_.clear();
  dynamic_trials_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    detail::validate_trial_args(strategy_, k_, envs[i], config_);
    // The static model's one special case, resolved before either loop
    // starts (the loops detect targets on arrival only).
    if (auto origin =
            detail::resolve_origin_target(envs[i], k_, config_.time_cap)) {
      out[i] = std::move(*origin);
    } else {
      (envs[i].has_dynamic_targets() ? dynamic_trials_ : static_trials_)
          .push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (!static_trials_.empty()) {
    run_step<false>(envs, trial_rngs, static_trials_.data(),
                    static_trials_.size(), out);
  }
  if (!dynamic_trials_.empty()) {
    run_step<true>(envs, trial_rngs, dynamic_trials_.data(),
                   dynamic_trials_.size(), out);
  }
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
// kDynamic adds appear/vanish windows and collect-all (drift and dwell were
// rejected by validate_trial_args for this family); the static instance
// compiles them out and keeps the classic single-best race. The flattened op
// scans reproduce hit_offset_from exactly: walks and spirals visit each node
// at most once, so their unique hit counts iff its offset is not before the
// window's first admissible offset; explicit paths rescan from that offset.
// A target whose window closed by the segment's start (vanish <= base) or
// opens after its end (first admissible offset > duration) is skipped
// before its hit test: every hit lies in [base, base + duration], so
// consider() or the offset test would reject it anyway. Collect-all counts
// the targets without a hit yet; while one is left the bound is the cap,
// and only after that does a pop scan the per-target bounds.

template <bool kDynamic>
TrialResult BatchRunner::run_segment(const TrialEnvironment& env,
                                     const rng::Rng& trial_rng) {
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
  }
  [[maybe_unused]] std::size_t n_unhit = nt;  // collect: targets with no hit

  clock_tree_.build(&clock_);

  // The earliest hit so far over all targets. The static race also tracks
  // its finder and target here; the dynamic one keeps them per target.
  Time best = kNeverTime;
  int finder = -1;
  int first_target = -1;

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
    Time bound =
        std::min(config_.time_cap, best == kNeverTime ? best : best - 1);
    if (collect) {
      // Every hit is at most the cap, so an unhit target is the loosest.
      Time loosest = config_.time_cap;
      if (n_unhit == 0) {
        loosest = 0;
        for (std::size_t ti = 0; ti < nt; ++ti) {
          loosest = std::max(loosest, best_t_[ti] - 1);
        }
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
    const grid::Point pos{pos_x_[ia], pos_y_[ia]};
    [[maybe_unused]] const Time base = util::sat_add(start, elapsed_[ia]);
    // First hit offset inside target ti's appear window (0 when static).
    const auto window_from = [&](std::size_t ti) -> Time {
      if constexpr (kDynamic) {
        return detail::window_from_offset(app_[ti], base);
      } else {
        return 0;
      }
    };
    // Target ti's window misses this segment, [base, base + len].
    [[maybe_unused]] const auto misses = [&](std::size_t ti, Time len) {
      return van_[ti] <= static_cast<double>(base) || window_from(ti) > len;
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

    Time dur = 0;
    grid::Point end = pos;
    const auto scan_walk = [&](grid::Point from_pt, grid::Point to) {
      const std::int64_t xlo = std::min(from_pt.x, to.x);
      const std::int64_t xhi = std::max(from_pt.x, to.x);
      const std::int64_t ylo = std::min(from_pt.y, to.y);
      const std::int64_t yhi = std::max(from_pt.y, to.y);
      std::optional<grid::StaircasePath> path;
      for (std::size_t ti = 0; ti < nt; ++ti) {
        if constexpr (kDynamic) {
          if (misses(ti, grid::l1_dist(from_pt, to))) continue;
        }
        const grid::Point tgt{tgt_x_[ti], tgt_y_[ti]};
        if (tgt.x < xlo || tgt.x > xhi || tgt.y < ylo || tgt.y > yhi) continue;
        if (!path) path.emplace(from_pt, to);
        const auto hit = path->index_of(tgt);
        if (!hit) continue;
        if (kDynamic && *hit < window_from(ti)) continue;
        consider(*hit, ti);
      }
      dur = grid::l1_dist(from_pt, to);
      end = to;
    };

    const Op op = seg_programs_[ia]->next(rngs_[ia]);
    if (const auto* go = std::get_if<GoTo>(&op)) {
      scan_walk(pos, go->target);
    } else if (std::get_if<ReturnToSource>(&op) != nullptr) {
      scan_walk(pos, grid::kOrigin);
    } else if (const auto* sp = std::get_if<SpiralFor>(&op)) {
      for (std::size_t ti = 0; ti < nt; ++ti) {
        if constexpr (kDynamic) {
          if (misses(ti, sp->duration)) continue;
        }
        const std::int64_t idx = grid::spiral_index(
            grid::Point{tgt_x_[ti] - pos.x, tgt_y_[ti] - pos.y});
        if (idx > sp->duration) continue;
        if (kDynamic && idx < window_from(ti)) continue;
        consider(idx, ti);
      }
      dur = sp->duration;
      end = pos + grid::spiral_point(sp->duration);
    } else {
      const auto& fp = std::get<FollowPath>(op);
      for (std::size_t ti = 0; ti < nt; ++ti) {
        if constexpr (kDynamic) {
          if (misses(ti, static_cast<Time>(fp.steps.size()))) continue;
        }
        const grid::Point tgt{tgt_x_[ti], tgt_y_[ti]};
        const Time from = window_from(ti);
        std::optional<Time> hit;
        if (from <= 0 && pos == tgt) {
          hit = 0;
        } else {
          // Paths may revisit: first match at offset >= from (offset i + 1
          // is steps[i]; offset 0 is the start, already < from when > 0).
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
      dur = static_cast<Time>(fp.steps.size());
      end = fp.steps.empty() ? pos : fp.steps.back();
    }

    elapsed_[ia] = util::sat_add(elapsed_[ia], dur);
    pos_x_[ia] = end.x;
    pos_y_[ia] = end.y;
    if (elapsed_[ia] >= life) {
      ++result.crashed;  // halts mid-plan; position is wherever it died
      clock_[ia] = kNeverTime;
      queued_[ia] = 0;
      --n_queued;
    } else {
      clock_[ia] = util::sat_add(start, elapsed_[ia]);
    }
    clock_tree_.update(clock_, ia);
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
// Lock-step backend: tick-for-tick the reference executor's scalar loop
// (tests/support/reference_trial.cpp), run for a block of trials at once.
// Trial s of the block is slot s: its k agents are lanes s*k .. s*k + k - 1
// of the runner's StepLanes, seeded from its own trial_rng, and it keeps
// its own roster, result and target state. One strategy kernel call per
// tick steps the active lanes of every running slot (the step kernels take
// runs of consecutive lanes as vectors, kernels.h); then each slot's
// in-order pass detects exactly as a step-and-check-each-agent loop would,
// with the per-agent occupancy check (first target equal to the agent's new
// position) routed through the find_point kernel, an in-order scan either
// way. Lanes never interact, so every slot's result is the one trial's.
// A slot retires when it finds (or collects every target), or when its
// roster is exhausted — nothing can change its result after that, and the
// loop would only run it to the cap — and its lanes leave the step list.
// Slots still running at the cap end there.
//
// kDynamic adds appear/vanish windows, drift, dwell capture, and
// collect-all. Per tick the scalar loop tests every target ever spawned for
// liveness; here the targets that can still be found at t — appear <= t <
// vanish and not yet found — are one live list in ascending target index,
// the order the scalar loop meets them in. The list changes only at window
// events: it is rebuilt when t reaches the next appear or vanish time
// (targets ordered by appear once per trial) and loses an entry when that
// target is captured. The drifted positions, the occupancy scan and the
// dwell-contact update walk only the list; cells without windows (drift,
// dwell or collect only) admit every target at t = 1 and see no later
// event. Dwell counters of targets off the list are not reset as the scalar
// loop resets them, which nothing can observe: a target off the list either
// has not appeared yet (its counters are still 0), has vanished for good,
// or is found. The static instance compiles all of that out and scans every
// target with the plain find_point kernel.

template <bool kDynamic>
void BatchRunner::run_step(const TrialEnvironment* envs,
                           const rng::Rng* trial_rngs,
                           const std::uint32_t* trials, std::size_t n,
                           TrialResult* out) {
  const StepStrategy& strategy = *strategy_.step;
  const int k = k_;
  const auto uk = static_cast<std::size_t>(k);
  const Time cap = config_.time_cap;

  if (slots_.size() < n) slots_.resize(n);
  lanes_.reset(k, n);
  lanes_.level = kernels_->level;
  if constexpr (!kDynamic) {
    lane_tx_.assign(n * uk, kNoTarget);
    lane_ty_.assign(n * uk, kNoTarget);
  }
  running_.clear();
  bool fixed_rosters = true;   // no slot's roster changes after tick 0
  std::size_t n_scanned = 0;   // static slots without exactly one target
  for (std::size_t s = 0; s < n; ++s) {
    StepSlot& slot = slots_[s];
    const TrialEnvironment& env = envs[trials[s]];
    slot.env = &env;
    slot.result = &out[trials[s]];
    TrialResult& result = *slot.result;
    result = TrialResult{};
    slot.last_start = env.last_start();
    slot.nt = env.targets.size();
    slot.collect = kDynamic && env.collect_all;
    slot.drift = kDynamic && env.has_target_drift();
    slot.dwell = kDynamic ? env.capture_dwell : 0;
    slot.n_found = 0;
    slot.first_finder = -1;
    slot.first_ti = -1;
    slot.counted = 0;
    slot.done = false;
    const std::size_t nt = slot.nt;
    result.last_start = static_cast<double>(slot.last_start);
    if (slot.collect) result.target_times.assign(nt, -1.0);

    lanes_.seed_slot(s, k, trial_rngs[trials[s]]);
    result.crashed = slot.roster.reset(k, env.starts, env.lifetimes);

    if (slot.collect && nt == 0) {
      // Zero spawned targets: vacuously all found at t = 0; nobody acts.
      result.found = true;
      result.time = 0;
      result.from_last_start = 0;
      continue;
    }

    slot.tx.resize(nt);
    slot.ty.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      slot.tx[ti] = env.targets[ti].x;
      slot.ty[ti] = env.targets[ti].y;
    }
    if constexpr (kDynamic) {
      slot.app.resize(nt);
      slot.van.resize(nt);
      slot.order.resize(nt);
      for (std::size_t ti = 0; ti < nt; ++ti) {
        slot.app[ti] = detail::appear_of(env, ti);
        slot.van[ti] = detail::vanish_of(env, ti);
        slot.order[ti] = static_cast<std::uint32_t>(ti);
      }
      // Ties in index order: a batch of equal appear times (all of them
      // when the cell has no windows) is admitted by appending.
      const std::vector<double>& app = slot.app;
      std::sort(slot.order.begin(), slot.order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return app[a] < app[b] || (app[a] == app[b] && a < b);
                });
      slot.next_appear = 0;
      slot.next_event = nt > 0 ? app[slot.order[0]] : detail::kNeverVanish;
      slot.live.clear();
      slot.live_x.clear();
      slot.live_y.clear();
      slot.found_at.assign(nt, 0);
      if (slot.dwell > 0) slot.held.assign(uk * nt, 0);
    } else if (nt == 1) {
      std::fill_n(lane_tx_.begin() + static_cast<std::ptrdiff_t>(s * uk), uk,
                  slot.tx[0]);
      std::fill_n(lane_ty_.begin() + static_cast<std::ptrdiff_t>(s * uk), uk,
                  slot.ty[0]);
    } else {
      ++n_scanned;
    }
    fixed_rosters = fixed_rosters && slot.roster.fixed();
    running_.push_back(static_cast<std::uint32_t>(s));
  }

  // Steps are added to a slot's result lazily: the roster's active count
  // for every tick since the last count.
  const auto count_steps = [](StepSlot& slot, Time through) {
    slot.result->segments +=
        static_cast<std::int64_t>(slot.roster.active().size()) *
        (through - slot.counted);
    slot.counted = through;
  };

  // The end of a trial that did not stop at a first find, after tick
  // t_end: every target collected, no agent left, or the cap.
  const auto finish = [&](StepSlot& slot, Time t_end) {
    count_steps(slot, t_end);
    TrialResult& result = *slot.result;
    result.finder = slot.first_finder;
    result.first_target = slot.first_ti;
    if (slot.collect && slot.n_found == slot.nt) {
      Time t_all = 0;
      for (std::size_t ti = 0; ti < slot.nt; ++ti) {
        t_all = std::max(t_all, slot.found_at[ti]);
      }
      result.found = true;
      result.time = static_cast<double>(t_all);
      result.from_last_start = static_cast<double>(
          t_all > slot.last_start ? t_all - slot.last_start : 0);
    } else {
      result.found = false;
      result.time = static_cast<double>(cap);
      result.from_last_start = static_cast<double>(cap);
    }
  };

  // Slot s's window events at tick t: drop the targets whose windows
  // closed, admit those that opened (a window with vanish <= t never
  // opens), find the next event, and refresh the live positions.
  [[maybe_unused]] const auto advance_targets = [&](StepSlot& slot, Time t) {
    const double td = static_cast<double>(t);
    const std::size_t nt = slot.nt;
    bool refresh = slot.drift;  // live_x/live_y need this tick's positions
    if (td >= slot.next_event) {
      std::size_t keep = 0;
      for (const std::uint32_t ti : slot.live) {
        if (td < slot.van[ti]) slot.live[keep++] = ti;
      }
      slot.live.resize(keep);
      for (; slot.next_appear < nt &&
             slot.app[slot.order[slot.next_appear]] <= td;
           ++slot.next_appear) {
        const std::uint32_t ti = slot.order[slot.next_appear];
        if (td < slot.van[ti]) {
          slot.live.insert(
              std::upper_bound(slot.live.begin(), slot.live.end(), ti), ti);
        }
      }
      slot.next_event = slot.next_appear < nt
                            ? slot.app[slot.order[slot.next_appear]]
                            : detail::kNeverVanish;
      for (const std::uint32_t ti : slot.live) {
        slot.next_event = std::min(slot.next_event, slot.van[ti]);
      }
      refresh = true;
    }
    if (refresh) {
      const std::size_t n_live = slot.live.size();
      slot.live_x.resize(n_live);
      slot.live_y.resize(n_live);
      for (std::size_t j = 0; j < n_live; ++j) {
        const std::uint32_t ti = slot.live[j];
        slot.live_x[j] = slot.tx[ti];
        slot.live_y[j] = slot.ty[ti];
        if (slot.drift) {
          slot.live_x[j] += std::llround(slot.env->target_drift[ti].vx * td);
          slot.live_y[j] += std::llround(slot.env->target_drift[ti].vy * td);
        }
      }
    }
  };

  // Slot s's in-order detection pass at tick t, after the step: false when
  // the trial is over. A first find counts the tick's steps and crash
  // transitions only up to the finder.
  const auto detect = [&](std::uint32_t s, Time t) {
    StepSlot& slot = slots_[s];
    TrialResult& result = *slot.result;
    const std::vector<std::uint32_t>& active = slot.roster.active();
    const std::size_t nt = slot.nt;
    const std::size_t base = s * uk;
    const auto first_find = [&](std::size_t i, std::size_t ti) {
      count_steps(slot, t);
      result.found = true;
      result.time = static_cast<double>(t);
      result.finder = static_cast<int>(active[i]);
      result.first_target = static_cast<int>(ti);
      result.from_last_start = static_cast<double>(
          t > slot.last_start ? t - slot.last_start : 0);
      result.segments -= static_cast<std::int64_t>(active.size() - 1 - i);
      result.crashed -= static_cast<int>(slot.roster.halted_after(active[i]));
    };
    for (std::size_t i = 0; i < active.size(); ++i) {
      const int a = static_cast<int>(active[i]);
      const auto ia = static_cast<std::size_t>(active[i]);
      const grid::Point next{lanes_.x[base + ia], lanes_.y[base + ia]};

      if constexpr (kDynamic) {
        // Takes live entry j off the list as found by agent a at t; true
        // when that ends a first-of-set race.
        const auto capture = [&](std::size_t j) {
          const std::uint32_t ti = slot.live[j];
          const auto at = static_cast<std::ptrdiff_t>(j);
          slot.live.erase(slot.live.begin() + at);
          slot.live_x.erase(slot.live_x.begin() + at);
          slot.live_y.erase(slot.live_y.begin() + at);
          slot.found_at[ti] = t;
          ++slot.n_found;
          if (slot.first_ti < 0) {
            slot.first_finder = a;
            slot.first_ti = static_cast<int>(ti);
          }
          if (!slot.collect) {
            first_find(i, ti);
            return true;
          }
          result.target_times[ti] = static_cast<double>(t);
          return false;
        };
        if (slot.dwell > 0) {
          std::int64_t* held = slot.held.data() + ia * nt;
          for (std::size_t j = 0; j < slot.live.size();) {
            const std::int64_t dx = slot.live_x[j] - next.x;
            const std::int64_t dy = slot.live_y[j] - next.y;
            const std::int64_t l1 = (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
            std::int64_t& h = held[slot.live[j]];
            h = l1 <= 1 ? h + 1 : 0;
            if (h < slot.dwell + 1) {
              ++j;
            } else if (capture(j)) {
              return false;
            }
          }
        } else {
          // One agent step can capture several co-located targets in
          // collect mode (the scalar loop keeps scanning), so the scan
          // resumes at the entry that moved into the captured one's slot.
          // For a handful of targets the in-order scalar scan beats the
          // kernel call; same first match either way.
          for (std::size_t j = 0; j < slot.live.size();) {
            const std::size_t m = slot.live.size() - j;
            std::size_t rel = kNpos;
            if (m < 8) {
              for (std::size_t r = 0; r < m; ++r) {
                if (slot.live_x[j + r] == next.x &&
                    slot.live_y[j + r] == next.y) {
                  rel = r;
                  break;
                }
              }
            } else {
              rel = kernels_->find_point(slot.live_x.data() + j,
                                         slot.live_y.data() + j, m, next.x,
                                         next.y);
            }
            if (rel == kNpos) break;
            j += rel;
            if (capture(j)) return false;
          }
        }
      } else {
        const std::int64_t* tx = slot.tx.data();
        const std::int64_t* ty = slot.ty.data();
        std::size_t ti = kNpos;
        if (nt < 8) {
          for (std::size_t r = 0; r < nt; ++r) {
            if (tx[r] == next.x && ty[r] == next.y) {
              ti = r;
              break;
            }
          }
        } else {
          ti = kernels_->find_point(tx, ty, nt, next.x, next.y);
        }
        if (ti != kNpos) {
          first_find(i, ti);
          return false;
        }
      }
    }
    if (kDynamic && nt > 0 && slot.n_found == nt) {
      finish(slot, t);
      return false;
    }
    return true;
  };

  // nt == 0 (zero-spawn windowed process, first-of-set mode) runs until its
  // agents are gone or the cap, so crash/segment accounting matches the
  // segment and plane backends, which run their heaps out naturally.
  bool relist = true;  // step_lanes_ must be rebuilt
  for (Time t = 1; t <= cap; ++t) {
    if (kDynamic || !fixed_rosters) {
      std::size_t keep = 0;
      for (const std::uint32_t s : running_) {
        StepSlot& slot = slots_[s];
        if constexpr (kDynamic) advance_targets(slot, t);
        count_steps(slot, t - 1);  // the roster may change at t
        if (slot.roster.advance(t)) {
          slot.result->crashed +=
              static_cast<int>(slot.roster.halting().size());
          relist = true;
          if (slot.roster.exhausted()) {
            finish(slot, t);
            continue;
          }
        }
        running_[keep++] = s;
      }
      running_.resize(keep);
    }
    if (running_.empty()) break;
    if (relist) {
      step_lanes_.clear();
      for (const std::uint32_t s : running_) {
        const auto base = static_cast<std::uint32_t>(s * uk);
        for (const std::uint32_t a : slots_[s].roster.active()) {
          step_lanes_.push_back(base + a);
        }
      }
      relist = false;
    }
    strategy.step(lanes_, step_lanes_.data(), step_lanes_.size());

    std::size_t retired = 0;
    if constexpr (kDynamic) {
      for (const std::uint32_t s : running_) {
        if (!detect(s, t)) {
          slots_[s].done = true;
          ++retired;
        }
      }
    } else {
      // One pass over the stepped lanes finds the single-target slots with
      // a find; each runs its in-order pass, which picks the finder.
      const std::int64_t* xs = lanes_.x.data();
      const std::int64_t* ys = lanes_.y.data();
      for (const std::uint32_t l : step_lanes_) {
        if (xs[l] == lane_tx_[l] && ys[l] == lane_ty_[l]) {
          const auto s = static_cast<std::uint32_t>(l / uk);
          if (!slots_[s].done && !detect(s, t)) {
            slots_[s].done = true;
            ++retired;
          }
        }
      }
      for (std::size_t i = 0; n_scanned > 0 && i < running_.size(); ++i) {
        StepSlot& slot = slots_[running_[i]];
        if (slot.nt != 1 && !slot.done && !detect(running_[i], t)) {
          slot.done = true;
          ++retired;
        }
      }
    }
    if (retired > 0) {
      std::erase_if(running_,
                    [&](std::uint32_t s) { return slots_[s].done; });
      relist = true;
    }
  }
  for (const std::uint32_t s : running_) finish(slots_[s], cap);
}

// ---------------------------------------------------------------------------
// Plane backend: the continuous min-clock sweep (plane/engine.cpp) with the
// clock heap replaced by the winner tree of run_segment (min_tree.h;
// removed agents park at kPlaneNever, and the loop breaks on clock >= bound,
// so the parking value terminates it exactly when the empty heap would),
// line sight tests prefiltered by the line_candidates kernel (every
// candidate re-checked by the scalar quadratic), and the per-move spiral
// Newton solve memoized.

double BatchRunner::spiral_theta(double a, double s) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(s));
  std::memcpy(&bits, &s, sizeof(bits));
  const std::size_t slot =
      static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >> 58);
  ThetaMemoEntry& e = theta_memo_[slot];
  if (e.valid && e.s_bits == bits) return e.theta;
  e.s_bits = bits;
  e.theta = plane::spiral_theta_for_arc(a, s);
  e.valid = true;
  return e.theta;
}

TrialResult BatchRunner::run_plane(const TrialEnvironment& env,
                                   const rng::Rng& trial_rng) {
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

    clock_tree_.build(&pclock_);

    plane::Time best = plane::kPlaneNever;
    int finder = -1;
    int first_target = -1;

    for (;;) {
      const std::size_t ia = clock_tree_.top();
      const plane::Time abs_clock = pclock_[ia];
      // All other clocks are >= this one; once it reaches the bound, no
      // agent can improve the outcome. When every agent has been removed
      // the root is the kPlaneNever parking value, which also trips this.
      const plane::Time bound = std::min(pconfig.time_cap, best);
      if (abs_clock >= bound) break;

      const int a = static_cast<int>(ia);
      if (++seg_count_[ia] > pconfig.max_segments_per_agent) {
        throw std::runtime_error(
            "plane engine: agent exceeded segment budget without "
            "terminating");
      }
      ++presult.segments;

      const plane::Time start = start_of(ia);
      const plane::Time life = lifetime_of(ia);
      const plane::Vec2 pos{ppos_x_[ia], ppos_y_[ia]};

      const auto consider = [&](plane::Time hit, std::size_t ti) {
        const plane::Time when_active = pelapsed_[ia] + hit;
        if (when_active > life) return;  // only counts while still alive
        const plane::Time when_abs = start + when_active;
        if (when_abs > pconfig.time_cap) return;
        if (when_abs < best || (when_abs == best && a < finder)) {
          best = when_abs;
          finder = a;
          first_target = static_cast<int>(ti);
        }
      };

      const plane::PlaneOp op = plane_programs_[ia]->next(rngs_[ia]);
      plane::Time move_time = 0;
      plane::Vec2 end = pos;
      bool is_line = false;
      plane::LineMove line{pos, pos};
      plane::SpiralMove spiral{pos, pconfig.spiral_pitch, 0};

      if (const auto* sw = std::get_if<plane::SpiralSweep>(&op)) {
        spiral.duration = sw->duration;
        const double theta_end = spiral_theta(a_coef, spiral.duration);
        for (std::size_t ti = 0; ti < nt; ++ti) {
          const auto hit = plane::spiral_first_sighting_at(
              spiral, plane_env_.targets[ti], eps, theta_end);
          if (hit) consider(*hit, ti);
        }
        move_time = spiral.duration;
        end = plane::spiral_point_at(spiral.center, a_coef, theta_end);
      } else {
        is_line = true;
        if (const auto* go = std::get_if<plane::GoToPoint>(&op)) {
          line.to = go->target;
        } else {
          line.to = plane::kPlaneOrigin;  // ReturnHome
        }
        const plane::Vec2 d = line.to - line.from;
        const double len = d.norm();
        if (len == 0.0 || nt < 4) {
          // Degenerate move (no direction to prefilter along) or too few
          // targets for the prefilter kernel to pay for its call: the
          // scalar test covers every target directly.
          for (std::size_t ti = 0; ti < nt; ++ti) {
            const auto hit =
                plane::line_first_sighting(line, plane_env_.targets[ti], eps);
            if (hit) consider(*hit, ti);
          }
        } else {
          const double inv = 1.0 / len;
          const std::size_t nc = kernels_->line_candidates(
              ptgt_x_.data(), ptgt_y_.data(), nt, line.from.x, line.from.y,
              d.x * inv, d.y * inv, eps, cand_.data());
          for (std::size_t ci = 0; ci < nc; ++ci) {
            const std::size_t ti = cand_[ci];
            const auto hit =
                plane::line_first_sighting(line, plane_env_.targets[ti], eps);
            if (hit) consider(*hit, ti);
          }
        }
        move_time = len;
        end = line.to;
      }

      if (pelapsed_[ia] + move_time >= life) {
        // Fail-stop: truncate the trajectory at the remaining budget (the
        // rare path — build the Move variant and reuse the scalar clamp).
        const plane::Move move =
            is_line ? plane::Move{line} : plane::Move{spiral};
        const plane::Vec2 died_at =
            plane::move_position_at(move, life - pelapsed_[ia]);
        ppos_x_[ia] = died_at.x;
        ppos_y_[ia] = died_at.y;
        pelapsed_[ia] = life;
        ++presult.crashed;
        pclock_[ia] = plane::kPlaneNever;
      } else {
        pelapsed_[ia] += move_time;
        ppos_x_[ia] = end.x;
        ppos_y_[ia] = end.y;
        pclock_[ia] = start + pelapsed_[ia];
      }
      clock_tree_.update(pclock_, ia);
    }

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
