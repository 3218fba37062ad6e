// Execute and merge layers of the sweep pipeline (the plan layer lives in
// scenario/plan.h): the pending cells of a plan run as (cell, trial-block)
// work items on sim::run_cell_blocks, and sharded runs reassemble into the
// canonical result vector via self-describing artifacts.
//
// Scheduling across cells matters because per-cell parallelism serializes a
// sweep on one barrier per cell: a grid of small-trial cells leaves most
// cores idle at every join. Here the work list is every block of every
// cell, so a long-running cell's blocks overlap the next cells' instead of
// gating them.
//
// Every cell — segment-, step- or plane-level, base model or schedule/crash
// variant, one target or many — runs through the same executor: a
// sim::batch::BatchRunner per worker under a per-trial TrialEnvironment
// drawn from the cell's schedule/crash/targets specs (plane cells translate
// the placement into a treasure angle). The executor also reduces each
// cell's trials to its aggregates; the sweep only publishes them to the
// result vector, the cache journal and the progress/telemetry streams.
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

/// One plan cell's result: the aggregates the block executor reduced from
/// its trials (sim::CellStats), the cell they belong to, and whether they
/// came from the cache.
struct CellResult : sim::CellStats {
  Cell cell;
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
