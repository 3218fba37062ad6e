// Declarative scenario specs: an experiment as data instead of a main().
//
// A spec names the strategies to run (registry spec strings), the k-, D-,
// placement, and target-set grids, the start schedule and crash model
// (async/crash variants of the paper's model), trial count, master seed,
// optional time cap, and the output columns. Flattened by the sweep
// scheduler into (strategy, k, D, placement, targets) cells, it fully
// determines every number in the output: results are a pure function of
// (spec, seed), independent of thread count.
//
// Two on-disk forms, mixable in one file:
//
//   text blocks — "key = value" lines, '#' comments, blank-line separated:
//
//       name       = quick-look
//       strategies = uniform(eps=0.5), known-k
//       ks         = 1, 4, 16
//       distances  = 16, 32, 64
//       trials     = 100
//
//   JSON lines — any line whose first character is '{' is parsed as one
//   flat JSON object per scenario:
//
//       {"name": "quick", "strategies": ["uniform(eps=0.5)"], "ks": [1, 4]}
//
// Unknown keys are an error in both forms (typos fail loudly, matching the
// util::Cli philosophy), and so is a key repeated within one scenario
// ("ds"/"distances" and "placement"/"placements" are one key each): a
// missing blank line between two text blocks fails instead of merging them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.h"
#include "util/cli.h"

namespace ants::scenario {

struct BuiltStrategy;  // scenario/registry.h

struct ScenarioSpec {
  std::string name = "sweep";
  std::vector<std::string> strategies;  ///< registry spec strings
  std::vector<std::int64_t> ks = {1, 4, 16};
  std::vector<std::int64_t> distances = {16, 32, 64};
  /// Placement policy specs (environment.h) — a sweep axis like ks and
  /// distances, so e.g. a ring-fraction grid probes angular soft spots.
  std::vector<std::string> placements = {"ring"};
  /// Target-set specs ("single", "pair(near=0.5)", "ring-set(n=3)") — a
  /// sweep axis composing with the placement policy; non-single sets race
  /// first-of-set and surface the `first_target` column.
  std::vector<std::string> targets = {"single"};
  /// Start-schedule spec ("sync", "staggered(gap=4)",
  /// "fixed(delays=0;5;10)", ...). Applies to segment- AND step-level
  /// strategies through the unified executor.
  std::string schedule = "sync";
  /// Crash-model spec ("none", "doa(p=0.25)", ...). Applies to segment-
  /// and step-level strategies through the unified executor.
  std::string crash = "none";
  /// Capture-policy spec ("instant", "dwell(t=2)"). Dwell capture requires
  /// every strategy in the spec to be step-level.
  std::string capture = "instant";
  /// Collect mode: "first" (the race ends at the first find — classic) or
  /// "all" (run until every spawned target is found or the cap; surfaces
  /// the time_to_all and per-target discovery-time columns).
  std::string collect = "first";
  std::int64_t trials = 100;
  std::uint64_t seed = 0xA27553ACULL;
  /// Per-trial cap; 0 = uncapped (sim::kNeverTime). Step-level strategies
  /// require a finite cap.
  sim::Time time_cap = 0;
  /// Output columns (see sink.h); empty = the sink's default set.
  std::vector<std::string> columns;

  /// The cap as the simulator wants it.
  sim::Time effective_time_cap() const noexcept {
    return time_cap == 0 ? sim::kNeverTime : time_cap;
  }

  /// True when schedule/crash leave the paper's base model — such specs
  /// surface the async aggregate columns (from_last_*, mean_crashed, ...).
  bool is_async() const;

  /// True when any target-set spec is not "single" — such specs surface the
  /// first_target column meaningfully.
  bool is_multi_target() const;

  /// True when the spec engages any target-process feature beyond the
  /// classic static model: a dynamic targets axis entry (poisson/drift),
  /// dwell capture, or collect-all — such specs surface the
  /// targets_found/targets_spawned/found_before_vanish columns.
  bool is_dynamic() const;

  /// Dwell ticks compiled from `capture` (0 = instant).
  sim::Time capture_dwell() const;

  /// True when collect == "all".
  bool collect_all() const { return collect == "all"; }

  /// Throws std::invalid_argument on an unrunnable spec (empty strategy
  /// list, non-positive grids or trials, unknown placement or strategy,
  /// malformed strategy spec, unknown column). Returns the strategies it
  /// builds for its checks: element i is strategies[i] built at
  /// k = ks.front(). flatten (plan.h) keeps them as the plan's builds, so
  /// planning a spec builds each (strategy, k) exactly once.
  std::vector<std::shared_ptr<const BuiltStrategy>> validate() const;

  /// Stable text-form serialization (round-trips through parse_spec_text);
  /// also the basis of cell cache keys.
  std::string canonical() const;
};

/// Parses a spec file / text buffer into one spec per scenario block.
/// Throws std::invalid_argument with a line-numbered message on errors.
std::vector<ScenarioSpec> parse_spec_text(const std::string& text);
std::vector<ScenarioSpec> parse_spec_file(const std::string& path);

/// Builds one spec from CLI flags: --strategies (';'- or top-level-','
/// separated), --ks, --ds, --trials, --seed, --placement (list), --targets
/// (list), --schedule, --crash, --capture, --collect, --time-cap,
/// --columns, --scenario-name. Flags not given keep the defaults above.
ScenarioSpec spec_from_cli(util::Cli& cli);

/// FNV-1a over `text` — the stable string hash the cell cache keys use.
std::uint64_t hash_text(const std::string& text) noexcept;

}  // namespace ants::scenario
