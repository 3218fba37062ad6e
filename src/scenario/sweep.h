// Execute and merge layers of the sweep pipeline (the plan layer lives in
// scenario/plan.h): every trial of every cell runs through ONE
// util::parallel_for, and sharded runs reassemble into the canonical result
// vector via self-describing artifacts.
//
// Scheduling across cells matters because per-cell parallelism (the
// sim::run_trials path) serializes a sweep on one barrier per cell: a grid
// of small-trial cells leaves most cores idle at every join. Here the work
// list is all (cell, trial) pairs, so a long-running cell's trials overlap
// the next cells' instead of gating them.
//
// Every grid cell — segment- or step-level, base model or schedule/crash
// variant, one target or many — executes through the SAME call site: the
// unified sim::run_trial under a per-trial TrialEnvironment drawn from the
// cell's schedule/crash/targets specs. Only plane-level strategies run a
// different engine (the continuous plane has no environment port), with the
// placement translated to a treasure angle.
//
// Reproducibility contract (inherited from sim/runner.h and test-enforced):
// trial t of a cell uses rng seed mix(cell_seed, t), where
//
//     cell_seed = mix(spec.seed, mix(k, distance))
//
// is a pure function of the spec's master seed and the cell's (k, D) grid
// point — deliberately NOT of the strategy, the placement policy, or the
// target-set policy, so every strategy at the same (k, D) faces identical
// treasure placements (paired instances, the E7 fairness requirement) and
// placement/target policies are probed on the same trial randomness.
// Results are therefore a pure function of (spec, seed), independent of
// thread count, scheduling order, AND shard count: run_shard computes
// exactly what run_sweep would for the same cells, so merge_shards over any
// partition reproduces the single-process output byte-for-byte.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/plan.h"
#include "scenario/spec.h"
#include "sim/runner.h"

namespace ants::telemetry {
class RunTelemetry;
struct RunMetrics;
}  // namespace ants::telemetry

namespace ants::scenario {

struct CellResult {
  Cell cell;
  sim::RunStats stats;
  /// Async-run extras (zero for base-model cells): search times measured
  /// from the trial's last start, mean crashed agents per trial, and the
  /// mean of the trial's latest start delay.
  stats::Summary from_last_start;
  double mean_crashed = 0;
  double mean_last_start = 0;
  /// Mean winning-target index over FOUND trials (-1 when nothing was
  /// found); 0 for single-target cells.
  double mean_first_target = -1;
  /// Number of per-target discovery-time slots persisted per cell
  /// (collect-all specs; targets beyond the first slots still count into
  /// mean_targets_found, they just don't get an individual column).
  static constexpr std::size_t kTargetTimeSlots = 4;
  /// Target-process aggregates (-1 / inert for classic static specs):
  /// mean targets spawned and found per trial, the mean per-trial fraction
  /// of spawned targets found before they vanished (1 when a trial spawned
  /// none), and — collect-all only — the mean discovery time of target slot
  /// j over the trials where that slot was found (-1 when never found).
  double mean_targets_found = -1;
  double mean_targets_spawned = -1;
  double found_before_vanish = -1;
  double target_time_mean[kTargetTimeSlots] = {-1, -1, -1, -1};
  bool from_cache = false;
};

struct SweepOptions {
  unsigned threads = 0;   ///< scheduler thread count; 0 = hardware
  std::string cache_dir;  ///< non-empty enables the cell cache journal
  /// Per-cell completion lines as the sweep runs. Diagnostics only: output
  /// rows are unaffected (test-enforced). Sharded runs prefix each line
  /// with "shard i/N" and count done/total local to the shard. Each line
  /// also carries elapsed wall time, the completion rate, and an ETA
  /// extrapolated from the cells finished so far.
  bool progress = false;
  std::ostream* progress_stream = nullptr;  ///< nullptr = std::cerr
  /// Observability sink (telemetry/run_telemetry.h), or nullptr for none.
  /// Strictly observational: result rows, cache keys, and seeds are
  /// untouched whether this is set or not (test-enforced against the golden
  /// CSVs), and a null pointer costs one branch per hook. The sweep calls
  /// begin_run and the per-cell hooks; finishing (run_end event, trace
  /// file, metrics JSON) stays with the owner.
  telemetry::RunTelemetry* telemetry = nullptr;
};

/// Runs the whole sweep in-process; the result vector parallels
/// flatten(spec). The 1/1 special case of the sharded pipeline. Cached
/// cells (when opt.cache_dir is set and holds a matching entry) carry
/// aggregate stats only (stats.times is empty) and from_cache = true.
std::vector<CellResult> run_sweep(const ScenarioSpec& spec,
                                  const SweepOptions& opt = {});

/// Execute layer: runs ONLY the cells of shard `shard` (1-based) of an
/// `n_shards`-way split; the result vector parallels
/// shard_cell_indices(plan, shard, n_shards). Completed cells persist to
/// opt.cache_dir as they finish, so a killed shard resumes by rerunning —
/// only cells missing from the cache recompute. Throws on an out-of-range
/// shard.
std::vector<CellResult> run_shard(const SweepPlan& plan, std::size_t shard,
                                  std::size_t n_shards,
                                  const SweepOptions& opt = {});

/// Writes a run_shard result set as a self-describing binary shard
/// artifact (artifact.h: header with format version, spec hash, canonical
/// spec text, and shard coordinates; then every aggregate of the shared
/// table as a column). Atomic: written to a temp file and renamed, so a
/// killed process never publishes a torn artifact. When `metrics` is
/// non-null the shard's RunMetrics ride along as one self-describing JSON
/// line, so merge_shards can aggregate campaign-level telemetry exactly.
void write_shard(const std::string& path, const SweepPlan& plan,
                 std::size_t shard, std::size_t n_shards,
                 const std::vector<CellResult>& results,
                 const telemetry::RunMetrics* metrics = nullptr);

/// Merge layer: reassembles shard artifacts into the canonical CellResult
/// vector (parallel to plan.cells), ready for the sinks. Artifacts are
/// opened in parallel — one mmap plus CRC pass per artifact across the
/// pool; validation and placement then run sequentially in `paths` order,
/// so error attribution (which artifact duplicated a cell) is
/// deterministic regardless of read timing. Verifies
/// every artifact against the plan — format version, spec hash, cell
/// count — and throws std::invalid_argument on any incompatibility,
/// duplicate cell, or missing cell. Merged results carry aggregates only
/// (stats.times empty), exactly like cache hits; rendered rows are
/// identical either way.
/// `metrics_out` (if non-null) accumulates the per-shard metrics embedded
/// in the artifacts — counter sums plus an exact bin-wise sketch merge, so
/// the campaign-level record equals what one process would have counted.
std::vector<CellResult> merge_shards(const SweepPlan& plan,
                                     const std::vector<std::string>& paths,
                                     telemetry::RunMetrics* metrics_out =
                                         nullptr);

/// Self-describing merge: derives the plan from the first artifact's
/// embedded canonical spec (every other artifact must hash-match it) and
/// returns the merged results; `spec_out` (if non-null) receives the spec
/// for sink column selection.
std::vector<CellResult> merge_shards(const std::vector<std::string>& paths,
                                     ScenarioSpec* spec_out,
                                     telemetry::RunMetrics* metrics_out =
                                         nullptr);

}  // namespace ants::scenario
