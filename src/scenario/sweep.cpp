#include "scenario/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <utility>

#include "rng/splitmix64.h"
#include "scenario/artifact.h"
#include "scenario/cache_pack.h"
#include "scenario/environment.h"
#include "scenario/registry.h"
#include "scenario/text.h"
#include "sim/trial.h"
#include "telemetry/run_telemetry.h"
#include "util/thread_pool.h"

namespace ants::scenario {

namespace {

/// Executes `cells` (any subset of a plan, in any order) and returns the
/// parallel CellResult vector. The shared core of run_sweep (all cells) and
/// run_shard (one shard's cells). `progress_prefix` is prepended to every
/// progress line ("shard i/N " for sharded runs, empty otherwise); done/total
/// counts are local to `cells`.
std::vector<CellResult> run_cells(const ScenarioSpec& spec,
                                  const std::vector<Cell>& cells,
                                  const SweepOptions& opt,
                                  const std::string& progress_prefix) {
  const auto n_cells = cells.size();
  const auto trials = static_cast<std::size_t>(spec.trials);
  telemetry::RunTelemetry* tel = opt.telemetry;

  std::mutex progress_mutex;
  std::size_t completed = 0;
  const std::int64_t run_t0_us = telemetry::now_us();
  std::ostream* progress_out =
      opt.progress_stream != nullptr ? opt.progress_stream : &std::cerr;
  const auto report_cell = [&](const Cell& cell, const char* how) {
    if (!opt.progress) return;
    // Count under the print lock so the [n/N] indices are monotone in the
    // output even when cells finish simultaneously.
    const std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    // Elapsed / rate / ETA ride at the END of the line: the prefix through
    // the done|cached token is a stable contract (tests parse it), the tail
    // is advisory. The ETA extrapolates the observed completion rate, which
    // assumes the remaining cells cost like the finished ones.
    const double elapsed_s =
        static_cast<double>(telemetry::now_us() - run_t0_us) / 1e6;
    const double rate =
        static_cast<double>(completed) / std::max(elapsed_s, 1e-9);
    const double eta_s = static_cast<double>(n_cells - completed) / rate;
    char tail[96];
    std::snprintf(tail, sizeof(tail),
                  " elapsed=%.1fs rate=%.1f/s eta=%.1fs", elapsed_s, rate,
                  eta_s);
    *progress_out << "progress: " << progress_prefix << "[" << completed
                  << "/" << n_cells << "] " << spec.name << " "
                  << cell.strategy_name << " k=" << cell.k
                  << " D=" << cell.distance
                  << " placement=" << cell.placement_spec << " " << how
                  << tail << "\n";
  };

  std::vector<CellResult> results(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) results[i].cell = cells[i];

  // Cells finished so far (cached or computed) — drives the telemetry
  // heartbeat's done/total, which must not share the progress counter (that
  // one only advances when progress printing is on).
  std::atomic<std::uint64_t> cells_done{0};

  // Cache pass: cells whose aggregates are already in the journal never
  // re-run — also how a killed shard resumes, since finished cells append
  // as the sweep runs (see hooks.finish_cell below). The journal loads once
  // into memory; damaged stretches skipped during the load (torn or
  // bit-rotted records) read as misses — those cells recompute and append —
  // but are counted separately: a corruption rate is an operational signal
  // a plain miss is not.
  std::unique_ptr<PackedCacheIndex> cache;
  if (!opt.cache_dir.empty()) {
    cache = std::make_unique<PackedCacheIndex>(opt.cache_dir);
    if (tel != nullptr && cache->corrupt_records() > 0) {
      tel->record_cache_corrupt(cache->corrupt_records());
    }
  }
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < n_cells; ++i) {
    if (cache != nullptr && cache->load(cells[i].hash, &results[i])) {
      results[i].from_cache = true;
      report_cell(cells[i], "cached");
      if (tel != nullptr) {
        tel->record_cache_hit();
        tel->cell_end(i, cells[i].strategy_name, cells[i].k,
                      cells[i].distance, /*cached=*/true, /*duration_us=*/0,
                      /*trials=*/0, cells_done.fetch_add(1) + 1, n_cells);
      }
    } else {
      if (tel != nullptr && cache != nullptr) tel->record_cache_miss();
      pending.push_back(i);
    }
  }
  if (pending.empty()) return results;

  // Placement policies, target processes, schedule, and crash model are
  // stateless draws from the trial rng — one shared instance per spec is
  // thread-safe. Target processes compose the placement policy (grid points
  // or plane angles) with the cell's target-process spec, so they are
  // compiled per (placement, targets) pair and per substrate — a paired
  // grid-vs-plane spec fills both sides of the same TargetProcess slot.
  const std::size_t n_targets = spec.targets.size();
  std::vector<sim::Placement> placements(spec.placements.size());
  std::vector<sim::TargetProcess> target_processes(spec.placements.size() *
                                                   n_targets);
  std::vector<std::function<double(rng::Rng&)>> plane_angles(
      spec.placements.size());
  for (const std::size_t i : pending) {
    const Cell& cell = cells[i];
    const std::size_t di = cell.placement_index * n_targets +
                           cell.targets_index;
    if (cell.built->is_plane()) {
      if (!plane_angles[cell.placement_index]) {
        plane_angles[cell.placement_index] =
            make_plane_angle(cell.placement_spec);
      }
      if (!target_processes[di].plane) {
        target_processes[di].plane =
            make_plane_targets(cell.targets_spec,
                               plane_angles[cell.placement_index])
                .plane;
      }
      continue;
    }
    if (!placements[cell.placement_index]) {
      placements[cell.placement_index] = make_placement(cell.placement_spec);
    }
    if (!target_processes[di].grid) {
      target_processes[di].grid =
          make_targets(cell.targets_spec, placements[cell.placement_index])
              .grid;
    }
  }
  const std::unique_ptr<sim::StartSchedule> schedule =
      make_schedule(spec.schedule);
  const std::unique_ptr<sim::CrashModel> crashes = make_crash(spec.crash);

  // Work items are (cell, trial-block) pairs run by the shared block
  // executor (sim::run_cell_blocks), which also reduces every cell's trials
  // to its aggregates; this driver only publishes them. Cell j of the
  // executor is pending[j], running the strategy its plan built
  // (Cell::built: one object per (strategy, k), read-only across threads).
  // Trace hookup: one track per scheduler worker, labelled spans named
  // after the cell; labels are prebuilt so the per-trial record is just a
  // push/extend on the worker's own buffer.
  std::vector<sim::TrialCell> trial_cells;
  trial_cells.reserve(pending.size());
  for (const std::size_t i : pending) {
    const Cell& cell = cells[i];
    const sim::TrialStrategy strategy{cell.built->segment.get(),
                                      cell.built->step.get(),
                                      cell.built->plane.get()};
    trial_cells.push_back(sim::TrialCell{
        strategy, static_cast<int>(cell.k), cell.distance, cell.seed,
        &target_processes[cell.placement_index * n_targets +
                          cell.targets_index]});
  }
  sim::CellBlockRun run;
  run.trials = trials;
  run.threads = opt.threads;
  run.engine.time_cap = spec.effective_time_cap();
  if (spec.is_async()) {
    run.schedule = schedule.get();
    run.crashes = crashes.get();
  }
  run.capture_dwell = spec.capture_dwell();
  run.collect_all = spec.collect_all();
  run.target_stats = spec.is_dynamic();

  telemetry::TraceCollector* trace = tel != nullptr ? tel->trace() : nullptr;
  sim::CellBlockHooks hooks;
  if (trace != nullptr) {
    hooks.begin = [&](unsigned workers) {
      std::vector<std::string> labels(n_cells);
      for (const std::size_t i : pending) {
        labels[i] = cells[i].strategy_name + " k=" +
                    std::to_string(cells[i].k) + " D=" +
                    std::to_string(cells[i].distance);
      }
      trace->begin_workers(workers, std::move(labels));
    };
    hooks.trial = [&](std::size_t j, unsigned worker, std::int64_t t0_us) {
      trace->record_trial(worker, pending[j], t0_us, telemetry::now_us());
    };
  }
  if (tel != nullptr) {
    hooks.start_cell = [&](std::size_t j) {
      const Cell& cell = cells[pending[j]];
      tel->cell_start(pending[j], cell.strategy_name, cell.k, cell.distance);
    };
    // Plane dynamic cells are the only source of scalar fallbacks (grid
    // dynamic environments batch).
    hooks.end_block = [&](std::uint64_t fallbacks) {
      if (fallbacks > 0) tel->record_batch_scalar_fallback(fallbacks);
    };
  }
  // Runs on the worker that completes a cell's LAST trial: the cell's
  // aggregates are final, so they publish to the result slot and the cache
  // immediately. Persisting per cell mid-run (instead of once at the end)
  // is what makes a killed shard resumable — every finished cell survives
  // the kill, and the rerun's cache pass skips it. A cell's telemetry wall
  // time spans concurrent work on other cells: latency, not exclusive CPU.
  hooks.finish_cell = [&](std::size_t j, sim::CellStats&& stats,
                          std::int64_t start_us) {
    const std::size_t i = pending[j];
    static_cast<sim::CellStats&>(results[i]) = std::move(stats);
    if (cache != nullptr) cache->append(cells[i].hash, results[i]);
    report_cell(cells[i], "done");
    if (tel != nullptr) {
      tel->cell_end(i, cells[i].strategy_name, cells[i].k, cells[i].distance,
                    /*cached=*/false, telemetry::now_us() - start_us, trials,
                    cells_done.fetch_add(1) + 1, n_cells);
    }
  };

  {
    const telemetry::RunTelemetry::PhaseScope execute_scope(
        tel, telemetry::Phase::kExecute);
    sim::run_cell_blocks(trial_cells, run, hooks);
  }
  if (trace != nullptr) trace->end_workers();
  return results;
}

std::string shard_prefix(std::size_t shard, std::size_t n_shards) {
  if (n_shards <= 1) return "";
  return "shard " + std::to_string(shard) + "/" + std::to_string(n_shards) +
         " ";
}

}  // namespace

std::vector<CellResult> run_sweep(const ScenarioSpec& spec,
                                  const SweepOptions& opt) {
  std::vector<Cell> cells;
  {
    const telemetry::RunTelemetry::PhaseScope plan_scope(
        opt.telemetry, telemetry::Phase::kPlan);
    cells = flatten(spec);
  }
  if (opt.telemetry != nullptr) {
    opt.telemetry->begin_run(spec.name, cells.size(),
                             static_cast<std::uint64_t>(spec.trials));
  }
  // The 1/1 special case of the sharded pipeline: all cells, no prefix.
  return run_cells(spec, cells, opt, "");
}

std::vector<CellResult> run_shard(const SweepPlan& plan, std::size_t shard,
                                  std::size_t n_shards,
                                  const SweepOptions& opt) {
  std::vector<Cell> cells;
  {
    const telemetry::RunTelemetry::PhaseScope plan_scope(
        opt.telemetry, telemetry::Phase::kPlan);
    const std::vector<std::size_t> indices =
        shard_cell_indices(plan, shard, n_shards);
    cells.reserve(indices.size());
    for (const std::size_t i : indices) cells.push_back(plan.cells[i]);
  }
  if (opt.telemetry != nullptr) {
    opt.telemetry->begin_run(plan.spec.name, cells.size(),
                             static_cast<std::uint64_t>(plan.spec.trials),
                             shard, n_shards);
  }
  return run_cells(plan.spec, cells, opt, shard_prefix(shard, n_shards));
}

void write_shard(const std::string& path, const SweepPlan& plan,
                 std::size_t shard, std::size_t n_shards,
                 const std::vector<CellResult>& results,
                 const telemetry::RunMetrics* metrics) {
  const std::vector<std::size_t> indices =
      shard_cell_indices(plan, shard, n_shards);
  if (results.size() != indices.size()) {
    detail::bad("write_shard: " + std::to_string(results.size()) +
                " results for a " + std::to_string(indices.size()) +
                "-cell shard");
  }
  ShardHeader header;
  header.format_version = cell_format_version();
  header.spec_hash = plan.spec_hash;
  header.spec_text = plan.spec.canonical();
  header.shard = shard;
  header.n_shards = n_shards;
  header.n_cells_total = plan.cells.size();
  std::string line;
  if (metrics != nullptr) {
    line = telemetry::metrics_to_json(*metrics, plan.spec.name, shard,
                                      n_shards);
  }
  write_binary_artifact(path, header, indices, results,
                        metrics != nullptr ? &line : nullptr);
}

std::vector<CellResult> merge_shards(const SweepPlan& plan,
                                     const std::vector<std::string>& paths,
                                     telemetry::RunMetrics* metrics_out) {
  if (paths.empty()) detail::bad("merge_shards: no artifacts given");
  const std::size_t n = plan.cells.size();
  std::vector<CellResult> merged(n);
  std::vector<bool> seen(n, false);

  // Open phase runs one artifact per pool slot — the mmap and the CRC pass
  // over every byte dominate a merge, and the artifacts are independent
  // files. parallel_for propagates the first reader's exception, so a bad
  // artifact still fails the merge with its own message.
  std::vector<std::unique_ptr<BinaryArtifactReader>> readers(paths.size());
  util::parallel_for(paths.size(), [&](std::size_t i) {
    readers[i] = std::make_unique<BinaryArtifactReader>(paths[i]);
  });

  // Validation and placement stay sequential in `paths` order: duplicate
  // detection attributes the SECOND artifact to touch a cell, which must
  // not depend on read-completion timing.
  for (std::size_t pi = 0; pi < paths.size(); ++pi) {
    const std::string& path = paths[pi];
    const BinaryArtifactReader& reader = *readers[pi];
    const ShardHeader& header = reader.header();
    if (metrics_out != nullptr && !reader.metrics_line().empty()) {
      // Exact re-aggregation: counter sums plus a bin-wise sketch merge, so
      // the campaign-level quantiles equal a single process's. An artifact
      // without a metrics line contributes nothing (telemetry-free shard).
      metrics_out->merge(telemetry::metrics_from_json(
          reader.metrics_line(), nullptr, nullptr, nullptr));
    }
    if (header.format_version != cell_format_version()) {
      detail::bad("shard artifact " + path + ": format version " +
                  std::to_string(header.format_version) +
                  " does not match this build's " +
                  std::to_string(cell_format_version()) +
                  " — regenerate the shard");
    }
    if (header.spec_hash != plan.spec_hash) {
      detail::bad("shard artifact " + path +
                  ": produced from a different spec (spec hash mismatch) — "
                  "a merge may only combine shards of one identical spec");
    }
    if (header.n_cells_total != n) {
      detail::bad("shard artifact " + path + ": plan has " +
                  std::to_string(n) + " cells, artifact claims " +
                  std::to_string(header.n_cells_total));
    }
    for (std::size_t row = 0; row < reader.n_cells(); ++row) {
      const std::uint64_t index = reader.cell_index(row);
      if (index >= n) {
        detail::bad("shard artifact " + path + ": cell index " +
                    std::to_string(index) + " out of range");
      }
      if (seen[index]) {
        detail::bad("merge_shards: duplicate cell " + std::to_string(index) +
                    " (artifact " + path +
                    " overlaps an earlier shard — was a shard merged "
                    "twice?)");
      }
      seen[index] = true;
      reader.load(row, &merged[index]);
      merged[index].cell = plan.cells[index];
    }
  }

  std::size_t missing = 0;
  std::size_t first_missing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen[i]) {
      if (missing == 0) first_missing = i;
      ++missing;
    }
  }
  if (missing > 0) {
    detail::bad("merge_shards: " + std::to_string(missing) + " of " +
                std::to_string(n) + " cells missing (first: cell " +
                std::to_string(first_missing) +
                ") — were all shards run and listed?");
  }
  return merged;
}

std::vector<CellResult> merge_shards(const std::vector<std::string>& paths,
                                     ScenarioSpec* spec_out,
                                     telemetry::RunMetrics* metrics_out) {
  if (paths.empty()) detail::bad("merge_shards: no artifacts given");
  const ShardHeader header = BinaryArtifactReader(paths.front()).header();
  const std::vector<ScenarioSpec> specs = parse_spec_text(header.spec_text);
  if (specs.size() != 1) {
    detail::bad("shard artifact " + paths.front() +
                ": embedded spec does not parse to exactly one scenario");
  }
  const SweepPlan plan = make_plan(specs.front());
  if (plan.spec_hash != header.spec_hash) {
    detail::bad("shard artifact " + paths.front() +
                ": embedded spec re-hashes differently — artifact written "
                "by an incompatible build");
  }
  if (spec_out != nullptr) *spec_out = specs.front();
  return merge_shards(plan, paths, metrics_out);
}

}  // namespace ants::scenario
