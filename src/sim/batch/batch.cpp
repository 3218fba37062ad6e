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

/// An L1 distance beyond any the lock-step loop measures: the distance to
/// the nearest target of an empty live list.
inline constexpr std::int64_t kFar = std::numeric_limits<std::int64_t>::max();

/// |a - b| for any two coordinates, clamped at 2^61 so that two of them add
/// without overflow. A clamped distance only understates how far a target
/// is, which can delay a reach-horizon retirement but never bring one
/// forward.
std::int64_t coord_gap(std::int64_t a, std::int64_t b) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  const std::uint64_t d = a < b ? ub - ua : ua - ub;
  return static_cast<std::int64_t>(
      std::min<std::uint64_t>(d, std::uint64_t{1} << 61));
}

/// How far one coordinate of a target drifting at `v` cells per tick moves
/// per tick, as a bound that holds over any m ticks up to `cap`. The offset
/// llround(v * t) moves by at most floor(m|v|) + 1 <= m (floor|v| + 1) in m
/// ticks when v * t is exact. Rounding v * t can add up to 2^-52 |v| cap
/// between two ticks up to the cap, which matters only when |v| lies that
/// close below an integer; widening |v| by 2^-50 |v| cap lifts floor|v| by
/// one in all those cases, and m (floor|v| + 2) then covers the rest.
std::int64_t drift_reach(double v, Time cap) {
  const double speed = std::fabs(v);
  const double bound = speed + speed * static_cast<double>(cap) * 0x1p-50;
  // From 2^60 cells per tick on (or for a NaN) the reach only has to hold
  // every quiet stretch at 0 ticks, and must not overflow the cast.
  if (!(bound < 0x1p60)) return std::int64_t{1} << 60;
  return static_cast<std::int64_t>(std::floor(bound)) + 1;
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
// Lock-step backend: tick-for-tick the reference executor's scalar loop
// (tests/support/reference_trial.cpp), run for a block of trials at once.
// Trial s of the block is slot s: its k agents are lanes s*k .. s*k + k - 1
// of the runner's StepLanes, seeded from its own trial_rng, and it keeps
// its own roster, result and target state. One strategy kernel call per
// tick steps the active lanes of every running slot (the step kernels take
// runs of consecutive lanes as vectors, kernels.h); then each slot's
// in-order pass detects exactly as a step-and-check-each-agent loop would,
// with the static loop's per-agent occupancy check (first target equal to
// the agent's new position) routed through the find_point kernel, an
// in-order scan either way. Lanes never interact, so every slot's result is
// the one trial's.
// A slot retires when it finds (or collects every target), when its roster
// is exhausted, or at its reach horizon (below) — nothing can change its
// result after that, and the loop would only run it to the cap — and its
// lanes leave the step list. Slots still running at the cap end there.
// Before the step, a pass visits a slot only on its wake ticks: its
// roster's next change, the tick after a crash transition (which empties
// halting() again, as the first-find correction reads it), and, dynamic,
// its next window event or every tick while its targets drift. A slot
// with a fixed roster and targets that never change is visited once, at
// tick 1.
//
// The reach horizon. Once a slot's roster stays as it is through the cap
// (its steps and crash count through the cap are then known), the slot
// retires at the first tick t after which no agent can find anything: its
// result is then the cap's, found = false, time = cap, steps counted
// through the cap (so TrialResult::segments counts agent-ticks accounted,
// not stepped). In the static loop that is when every active agent is more
// than cap - t (L1) from every target. The gap g = (nearest distance) -
// (cap - t) never falls, as an agent moves at most one edge per tick
// (StepStrategy::step's contract), and rises by at most 2 per tick, so a
// slot is measured only at its reach_check tick, ceil((1 - g) / 2) ticks
// after a measurement read g <= 0. The dynamic loop reuses its quiet
// stretches (below): a slot whose active agents are all quiet through the
// cap, with no admission left at or before the cap, retires.
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
// or is found.
// An agent's scan also measures its L1 distance to the nearest live target
// left. Each tick the agent moves at most one edge (StepStrategy::step's
// contract) and a target of the slot at most div - 1 (drift_reach), so no
// live target comes within contact (0, or 1 under dwell) for the next
// (near - contact - 1) / div ticks: the agent's quiet stretch, through
// which its scan is skipped, and the slot's whole pass while every active
// agent is in one. Under dwell a stretch starts only when every contact
// counter of the agent was just reset, and the scalar loop would keep them
// at 0. Vanishes and captures only shorten the list, which keeps every
// stretch valid; an admission ends every stretch of the slot, and a roster
// change ends the slot's (a new agent starts without one). The static
// instance compiles all of that out and scans every target with the plain
// find_point kernel.

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
  } else {
    quiet_.assign(n * uk, 0);
    quiet_slots_.resize(n);
  }
  running_.clear();
  std::size_t n_scanned = 0;  // static slots without exactly one target
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
    slot.wake = 1;
    slot.reach_check = 1;
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
      std::int64_t reach = 0;  // L1 a target may move per tick
      if (slot.drift) {
        for (const TargetDrift& v : env.target_drift) {
          reach = std::max(reach,
                           drift_reach(v.vx, cap) + drift_reach(v.vy, cap));
        }
      }
      quiet_slots_[s] = QuietSlot{0, 1 + reach};
    } else if (nt == 1) {
      std::fill_n(lane_tx_.begin() + static_cast<std::ptrdiff_t>(s * uk), uk,
                  slot.tx[0]);
      std::fill_n(lane_ty_.begin() + static_cast<std::ptrdiff_t>(s * uk), uk,
                  slot.ty[0]);
    } else {
      ++n_scanned;
    }
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
  // opens; an admission ends every quiet stretch of the slot), find the
  // next event, and refresh the live positions.
  [[maybe_unused]] const auto advance_targets = [&](std::uint32_t s, Time t) {
    StepSlot& slot = slots_[s];
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
          std::fill_n(quiet_.begin() + static_cast<std::ptrdiff_t>(s * uk),
                      uk, 0);
          quiet_slots_[s].until = 0;
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
    // Dynamic: the pass recomputes the slot's earliest end of a quiet
    // stretch.
    if constexpr (kDynamic) quiet_slots_[s].until = cap;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const int a = static_cast<int>(active[i]);
      const auto ia = static_cast<std::size_t>(active[i]);
      const grid::Point next{lanes_.x[base + ia], lanes_.y[base + ia]};

      if constexpr (kDynamic) {
        Time& until = quiet_slots_[s].until;
        Time& quiet = quiet_[base + ia];
        if (t <= quiet) {
          until = std::min(until, quiet);  // out of reach of every live target
          continue;
        }
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
        // One pass in list order, the order the scalar loop meets the
        // targets in: an entry is caught at distance 0, or under dwell once
        // its contact counter (contact is the L1 disc of radius 1) reaches
        // dwell + 1. One agent step can catch several co-located targets
        // in collect mode, so the pass resumes at the entry that moved into
        // the caught one's place. `near` ends as the nearest target left.
        const std::int64_t contact = slot.dwell > 0 ? 1 : 0;
        std::int64_t* held =
            slot.dwell > 0 ? slot.held.data() + ia * nt : nullptr;
        std::int64_t near = kFar;
        for (std::size_t j = 0; j < slot.live.size();) {
          const std::int64_t dx = slot.live_x[j] - next.x;
          const std::int64_t dy = slot.live_y[j] - next.y;
          const std::int64_t l1 = (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
          bool caught = l1 == 0;
          if (held != nullptr) {
            std::int64_t& h = held[slot.live[j]];
            h = l1 <= 1 ? h + 1 : 0;
            caught = h >= slot.dwell + 1;
          }
          if (!caught) {
            near = std::min(near, l1);
            ++j;
          } else if (capture(j)) {
            return false;
          }
        }
        // The agent's quiet stretch (see above): no live target comes
        // within contact for the next (near - contact - 1) / div ticks.
        quiet = t + std::clamp<Time>(
                        (near - contact - 1) / quiet_slots_[s].div, 0,
                        cap - t);
        until = std::min(until, quiet);
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

  // The next tick at which slot s, visited at tick t, must be visited again:
  // its roster's next change; the next tick, to clear a crash transition
  // out of halting(); and, dynamic, its next window event or, drifting, the
  // next tick.
  const auto wake_of = [&](std::uint32_t s, Time t) {
    const StepSlot& slot = slots_[s];
    Time wake = slot.roster.halting().empty() ? slot.roster.next_change()
                                              : t + 1;
    if constexpr (kDynamic) {
      if (slot.drift) return t + 1;
      if (slot.next_event <= static_cast<double>(cap)) {
        wake = std::min(wake, static_cast<Time>(std::ceil(slot.next_event)));
      }
    }
    return wake;
  };

  // Static: slot s's reach gap after tick t, the L1 distance from its
  // nearest active agent to its nearest target less the cap - t ticks
  // left. Above 0, no target can be reached by the cap.
  [[maybe_unused]] const auto reach_gap = [&](std::uint32_t s, Time t) {
    const StepSlot& slot = slots_[s];
    const std::size_t base = s * uk;
    std::int64_t near = kFar;
    for (const std::uint32_t a : slot.roster.active()) {
      const std::int64_t x = lanes_.x[base + a];
      const std::int64_t y = lanes_.y[base + a];
      for (std::size_t ti = 0; ti < slot.nt; ++ti) {
        near = std::min(near, coord_gap(slot.tx[ti], x) +
                                  coord_gap(slot.ty[ti], y));
      }
    }
    return near - (cap - t);
  };

  // Dynamic: after a detection pass of slot s that found nothing, true when
  // nothing can be found by the cap: every active agent is quiet through
  // it, no target is admitted by it, and the roster stays as it is.
  [[maybe_unused]] const auto out_of_reach = [&](std::uint32_t s) {
    const StepSlot& slot = slots_[s];
    return quiet_slots_[s].until >= cap && slot.roster.next_change() > cap &&
           (slot.next_appear == slot.nt ||
            slot.app[slot.order[slot.next_appear]] > static_cast<double>(cap));
  };

  // nt == 0 (zero-spawn windowed process, first-of-set mode) is accounted
  // until its agents are gone or the cap (its reach horizon stops the
  // stepping earlier), so crash/segment accounting matches the segment and
  // plane backends, which run their heaps out naturally.
  bool relist = true;     // step_lanes_ must be rebuilt
  Time next_wake = 1;     // the earliest wake of a running slot
  Time next_reach = 1;    // static: the earliest reach_check of a running slot
  for (Time t = 1; t <= cap; ++t) {
    if (t >= next_wake) {
      next_wake = kNeverTime;
      std::size_t keep = 0;
      for (const std::uint32_t s : running_) {
        StepSlot& slot = slots_[s];
        if (t >= slot.wake) {
          if constexpr (kDynamic) advance_targets(s, t);
          count_steps(slot, t - 1);  // the roster may change at t
          if (slot.roster.advance(t)) {
            slot.result->crashed +=
                static_cast<int>(slot.roster.halting().size());
            relist = true;
            if constexpr (kDynamic) quiet_slots_[s].until = 0;  // new agents
            if (slot.roster.exhausted()) {
              finish(slot, t);
              continue;
            }
          }
          slot.wake = wake_of(s, t);
        }
        next_wake = std::min(next_wake, slot.wake);
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
        // Every active agent of the slot in a quiet stretch: nothing to do.
        if (t <= quiet_slots_[s].until) continue;
        if (!detect(s, t)) {
          slots_[s].done = true;
          ++retired;
        } else if (out_of_reach(s)) {
          finish(slots_[s], cap);
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
      // The reach horizon. The gap rises by at most 2 per tick and never
      // falls, so from a gap g <= 0 it cannot pass 0 for another
      // ceil((1 - g) / 2) ticks.
      if (t >= next_reach) {
        next_reach = kNeverTime;
        for (const std::uint32_t s : running_) {
          StepSlot& slot = slots_[s];
          if (slot.done) continue;
          if (t >= slot.reach_check) {
            if (slot.roster.next_change() <= cap) {
              slot.reach_check = slot.roster.next_change();
            } else if (const std::int64_t g = reach_gap(s, t); g > 0) {
              finish(slot, cap);
              slot.done = true;
              ++retired;
              continue;
            } else {
              slot.reach_check = t + 1 - g / 2;
            }
          }
          next_reach = std::min(next_reach, slot.reach_check);
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

}  // namespace ants::sim::batch
