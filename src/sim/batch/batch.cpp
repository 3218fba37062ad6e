#include "sim/batch/batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "grid/spiral.h"
#include "grid/staircase_path.h"
#include "util/sat.h"

namespace ants::sim::batch {

namespace {

// Tiny-scan argmin, lowest index on ties (strict < keeps the first). For a
// handful of elements the SIMD kernels lose to this: the indirect call plus
// horizontal reduction costs more than the scan itself (measured ~19ns vs
// ~8ns at n=16 for the AVX2 kernel). The kernels take over for large scans,
// where the vector width wins.
template <typename T>
inline std::size_t small_argmin(const T* v, std::size_t n) noexcept {
  std::size_t bi = 0;
  T bv = v[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] < bv) {
      bv = v[i];
      bi = i;
    }
  }
  return bi;
}

/// Block size for the two-level min-clock advance. A flat argmin rescan is
/// O(k) per segment pop and dominates large-k trials; keeping per-block
/// minima cuts a pop to one block rescan + one block-minima scan + one
/// winning-block scan. Picking the lowest block achieving the global min,
/// then the lowest index inside it, reproduces the flat lowest-index argmin
/// exactly, so pop order — and every result byte — is unchanged.
inline constexpr std::size_t kMinBlock = 8;

/// Flat scans up to this size skip the two-level structure entirely.
inline constexpr std::size_t kFlatAdvance = 16;

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
  if (strategy_.step != nullptr) {
    return dynamic ? run_step<true>(env, trial_rng)
                   : run_step<false>(env, trial_rng);
  }
  return dynamic ? run_segment<true>(env, trial_rng)
                 : run_segment<false>(env, trial_rng);
}

// ---------------------------------------------------------------------------
// Segment backend: the reference executor's interleaved min-heap sweep
// (see tests/support/reference_trial.cpp) with the heap replaced by an
// argmin kernel over the SoA clock array — removed agents park at
// kNeverTime, which never wins the scan while a live clock remains — and the
// Segment variant flattened into direct hit tests. A walk's targets are
// prefiltered by the endpoint bounding box (a staircase is monotone, so it
// never leaves it), and the StaircasePath is only constructed when some
// target survives the box.
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

  // Two-level min-clock advance (see kMinBlock). Block scans are at most
  // kMinBlock elements, so they use small_argmin; the block-minima scan uses
  // the SIMD kernel once it is wide enough to amortize the call.
  const bool two_level = uk > kFlatAdvance;
  const std::size_t n_min_blocks = (uk + kMinBlock - 1) / kMinBlock;
  const auto refresh_blockmin = [&](std::size_t b) {
    const std::size_t base = b * kMinBlock;
    const std::size_t len = std::min(kMinBlock, uk - base);
    blockmin_[b] = clock_[base + small_argmin(clock_.data() + base, len)];
  };
  if (two_level) {
    blockmin_.resize(n_min_blocks);
    for (std::size_t b = 0; b < n_min_blocks; ++b) refresh_blockmin(b);
  }
  const auto argmin_clock = [&]() -> std::size_t {
    if (!two_level) return small_argmin(clock_.data(), uk);
    const std::size_t b =
        n_min_blocks > 2 * kFlatAdvance
            ? kernels_->argmin_i64(blockmin_.data(), n_min_blocks)
            : small_argmin(blockmin_.data(), n_min_blocks);
    const std::size_t base = b * kMinBlock;
    const std::size_t len = std::min(kMinBlock, uk - base);
    return base + small_argmin(clock_.data() + base, len);
  };

  // The earliest hit so far over all targets. The static race also tracks
  // its finder and target here; the dynamic one keeps them per target.
  Time best = kNeverTime;
  int finder = -1;
  int first_target = -1;

  while (n_queued > 0) {
    std::size_t ia = argmin_clock();
    if (clock_[ia] == kNeverTime) {
      // Every queued clock is at kNeverTime (a hand-built environment with
      // such a start), so the argmin may have landed on a REMOVED agent's
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
    if (two_level) refresh_blockmin(ia / kMinBlock);
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
// (tests/support/reference_trial.cpp) — one strategy kernel call steps
// every active agent over the runner's StepLanes, then the in-order pass
// detects — with the per-agent occupancy check (first target equal to the
// agent's new position) routed through the find_point kernel, an in-order
// scan either way.
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
TrialResult BatchRunner::run_step(const TrialEnvironment& env,
                                  const rng::Rng& trial_rng) {
  const StepStrategy& strategy = *strategy_.step;
  const int k = k_;
  const auto uk = static_cast<std::size_t>(k);

  const Time last_start = env.last_start();
  const std::size_t nt = env.targets.size();
  const bool collect = kDynamic && env.collect_all;
  const bool drift = kDynamic && env.has_target_drift();
  const Time dwell = kDynamic ? env.capture_dwell : 0;
  TrialResult result;
  result.last_start = static_cast<double>(last_start);
  if (collect) result.target_times.assign(nt, -1.0);

  lanes_.reset(k, trial_rng);
  result.crashed = roster_.reset(k, env.starts, env.lifetimes);

  if (collect && nt == 0) {
    // Zero spawned targets: vacuously all found at t = 0; nobody acts.
    result.found = true;
    result.time = 0;
    result.from_last_start = 0;
    return result;
  }

  tgt_x_.resize(nt);
  tgt_y_.resize(nt);
  for (std::size_t ti = 0; ti < nt; ++ti) {
    tgt_x_[ti] = env.targets[ti].x;
    tgt_y_[ti] = env.targets[ti].y;
  }
  const std::int64_t* tx = tgt_x_.data();
  const std::int64_t* ty = tgt_y_.data();
  // Window events: order_[next_appear..] are the targets still to appear,
  // next_event the earliest tick at which the live list can change.
  [[maybe_unused]] std::size_t next_appear = 0;
  [[maybe_unused]] double next_event = detail::kNeverVanish;
  if constexpr (kDynamic) {
    app_.resize(nt);
    van_.resize(nt);
    order_.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      app_[ti] = detail::appear_of(env, ti);
      van_[ti] = detail::vanish_of(env, ti);
      order_[ti] = static_cast<std::uint32_t>(ti);
    }
    // Ties in index order: a batch of equal appear times (all of them when
    // the cell has no windows) is admitted by appending.
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return app_[a] < app_[b] || (app_[a] == app_[b] && a < b);
              });
    if (nt > 0) next_event = app_[order_[0]];
    live_.clear();
    live_x_.clear();
    live_y_.clear();
    found_at_.assign(nt, 0);
    if (dwell > 0) held_.assign(uk * nt, 0);
  }

  std::size_t n_found = 0;
  int first_finder = -1;
  int first_ti = -1;

  // nt == 0 (zero-spawn windowed process, first-of-set mode) still sweeps
  // to the cap so crash/segment accounting matches the segment and plane
  // backends, which run their heaps out naturally.
  for (Time t = 1;
       t <= config_.time_cap && (!kDynamic || nt == 0 || n_found < nt); ++t) {
    if constexpr (kDynamic) {
      const double td = static_cast<double>(t);
      bool refresh = drift;  // live_x_/live_y_ need this tick's positions
      if (td >= next_event) {
        // Drop the targets whose windows closed, admit those that opened
        // (a window with vanish <= t never opens), and find the next event.
        std::size_t keep = 0;
        for (const std::uint32_t ti : live_) {
          if (td < van_[ti]) live_[keep++] = ti;
        }
        live_.resize(keep);
        for (; next_appear < nt && app_[order_[next_appear]] <= td;
             ++next_appear) {
          const std::uint32_t ti = order_[next_appear];
          if (td < van_[ti]) {
            live_.insert(std::upper_bound(live_.begin(), live_.end(), ti),
                         ti);
          }
        }
        next_event = next_appear < nt ? app_[order_[next_appear]]
                                      : detail::kNeverVanish;
        for (const std::uint32_t ti : live_) {
          next_event = std::min(next_event, van_[ti]);
        }
        refresh = true;
      }
      if (refresh) {
        const std::size_t n_live = live_.size();
        live_x_.resize(n_live);
        live_y_.resize(n_live);
        for (std::size_t j = 0; j < n_live; ++j) {
          const std::uint32_t ti = live_[j];
          live_x_[j] = tx[ti];
          live_y_[j] = ty[ti];
          if (drift) {
            live_x_[j] += std::llround(env.target_drift[ti].vx * td);
            live_y_[j] += std::llround(env.target_drift[ti].vy * td);
          }
        }
      }
    }

    // One kernel call steps every active agent; the in-order pass below then
    // detects exactly as a step-and-check-each-agent loop would. The tick's
    // steps and crash transitions are counted up front; a first find gives
    // back those of the agents after the finder.
    roster_.advance(t);
    const std::vector<std::uint32_t>& active = roster_.active();
    strategy.step(lanes_, active.data(), active.size());
    result.segments += static_cast<std::int64_t>(active.size());
    result.crashed += static_cast<int>(roster_.halting().size());
    const auto first_find = [&](std::size_t i, std::size_t ti) {
      result.found = true;
      result.time = static_cast<double>(t);
      result.finder = static_cast<int>(active[i]);
      result.first_target = static_cast<int>(ti);
      result.from_last_start =
          static_cast<double>(t > last_start ? t - last_start : 0);
      result.segments -= static_cast<std::int64_t>(active.size() - 1 - i);
      result.crashed -= static_cast<int>(roster_.halted_after(active[i]));
    };
    for (std::size_t i = 0; i < active.size(); ++i) {
      const int a = static_cast<int>(active[i]);
      const auto ia = static_cast<std::size_t>(active[i]);
      const grid::Point next{lanes_.x[ia], lanes_.y[ia]};

      if constexpr (kDynamic) {
        // Takes live entry j off the list as found by agent a at t; true
        // when that ends a first-of-set race.
        const auto capture = [&](std::size_t j) {
          const std::uint32_t ti = live_[j];
          live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(j));
          live_x_.erase(live_x_.begin() + static_cast<std::ptrdiff_t>(j));
          live_y_.erase(live_y_.begin() + static_cast<std::ptrdiff_t>(j));
          found_at_[ti] = t;
          ++n_found;
          if (first_ti < 0) {
            first_finder = a;
            first_ti = static_cast<int>(ti);
          }
          if (!collect) {
            first_find(i, ti);
            return true;
          }
          result.target_times[ti] = static_cast<double>(t);
          return false;
        };
        if (dwell > 0) {
          std::int64_t* held = held_.data() + ia * nt;
          for (std::size_t j = 0; j < live_.size();) {
            const std::int64_t dx = live_x_[j] - next.x;
            const std::int64_t dy = live_y_[j] - next.y;
            const std::int64_t l1 = (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
            std::int64_t& h = held[live_[j]];
            h = l1 <= 1 ? h + 1 : 0;
            if (h < dwell + 1) {
              ++j;
            } else if (capture(j)) {
              return result;
            }
          }
        } else {
          // One agent step can capture several co-located targets in
          // collect mode (the scalar loop keeps scanning), so the scan
          // resumes at the entry that moved into the captured one's slot.
          // For a handful of targets the in-order scalar scan beats the
          // kernel call; same first match either way.
          for (std::size_t j = 0; j < live_.size();) {
            const std::size_t n = live_.size() - j;
            std::size_t rel = kNpos;
            if (n < 8) {
              for (std::size_t r = 0; r < n; ++r) {
                if (live_x_[j + r] == next.x && live_y_[j + r] == next.y) {
                  rel = r;
                  break;
                }
              }
            } else {
              rel = kernels_->find_point(live_x_.data() + j,
                                         live_y_.data() + j, n, next.x,
                                         next.y);
            }
            if (rel == kNpos) break;
            j += rel;
            if (capture(j)) return result;
          }
        }
      } else {
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
      t_all = std::max(t_all, found_at_[ti]);
    }
    result.found = true;
    result.time = static_cast<double>(t_all);
    result.from_last_start =
        static_cast<double>(t_all > last_start ? t_all - last_start : 0);
  } else {
    result.found = false;
    result.time = static_cast<double>(config_.time_cap);
    result.from_last_start = static_cast<double>(config_.time_cap);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Plane backend: the continuous min-clock sweep (plane/engine.cpp) with the
// clock heap replaced by an argmin_f64 scan (removed agents park at
// kPlaneNever, and the loop breaks on clock >= bound, so the parking value
// terminates it exactly when the empty heap would), line sight tests
// prefiltered by the line_candidates kernel (every candidate re-checked by
// the scalar quadratic), and the per-move spiral Newton solve memoized.

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

    // Two-level min-clock advance, as in run_segment: identical pop order to
    // the flat argmin_f64 rescan at O(k/8 + 16) per pop instead of O(k).
    const bool two_level = uk > kFlatAdvance;
    const std::size_t n_min_blocks = (uk + kMinBlock - 1) / kMinBlock;
    const auto refresh_blockmin = [&](std::size_t b) {
      const std::size_t base = b * kMinBlock;
      const std::size_t len = std::min(kMinBlock, uk - base);
      pblockmin_[b] = pclock_[base + small_argmin(pclock_.data() + base, len)];
    };
    if (two_level) {
      pblockmin_.resize(n_min_blocks);
      for (std::size_t b = 0; b < n_min_blocks; ++b) refresh_blockmin(b);
    }
    const auto argmin_clock = [&]() -> std::size_t {
      if (!two_level) return small_argmin(pclock_.data(), uk);
      const std::size_t b =
          n_min_blocks > 2 * kFlatAdvance
              ? kernels_->argmin_f64(pblockmin_.data(), n_min_blocks)
              : small_argmin(pblockmin_.data(), n_min_blocks);
      const std::size_t base = b * kMinBlock;
      const std::size_t len = std::min(kMinBlock, uk - base);
      return base + small_argmin(pclock_.data() + base, len);
    };

    plane::Time best = plane::kPlaneNever;
    int finder = -1;
    int first_target = -1;

    for (;;) {
      const std::size_t ia = argmin_clock();
      const plane::Time abs_clock = pclock_[ia];
      // All other clocks are >= this one; once it reaches the bound, no
      // agent can improve the outcome. When every agent has been removed
      // the argmin is the kPlaneNever parking value, which also trips this.
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
      if (two_level) refresh_blockmin(ia / kMinBlock);
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
