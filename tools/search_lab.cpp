// search_lab — the unified scenario driver: one binary that runs any
// declarative sweep over the registered strategies.
//
//   search_lab list
//       Lists every registered strategy with its parameter spec.
//
//   search_lab run --spec=FILE [output/scheduler flags]
//   search_lab run --strategies='uniform(eps=0.5); known-k' --ks=1,4,16
//                  --ds=16,32 --trials=100 [--seed=N] [--placement=ring,axis]
//                  [--targets='single,poisson(rate=0.01, life=500)']
//                  [--schedule=staggered(gap=4)] [--crash=doa(p=0.25)]
//                  [--capture=dwell(t=2)] [--collect=first|all]
//                  [--time-cap=T] [--columns=a,b,c] [output/scheduler flags]
//       Runs every scenario in FILE (text or JSON-lines form, see
//       docs/scenarios.md), or a single scenario assembled from flags.
//
//   search_lab run ... --shard=I/N --shard-out=FILE
//       Runs only shard I of an N-way split of each scenario's cells
//       (deterministic partition by cell index) and writes a
//       self-describing binary shard artifact (docs/scenarios.md,
//       "Artifact format") instead of CSV/JSONL rows. Launch one process
//       per shard — on one machine or many — then reassemble with
//       `search_lab merge`. With --cache-dir, a killed shard resumes: the
//       rerun recomputes only cells missing from the cache journal.
//
//   search_lab merge ARTIFACT... [--csv=PATH] [--jsonl=PATH] [--quiet]
//             [--metrics-out=FILE]
//       Merges shard artifacts back into the canonical result table —
//       byte-identical to what the unsharded run would have written
//       (test-enforced). Artifacts are opened in parallel. The spec
//       travels inside the artifacts; merge refuses mismatched specs,
//       duplicate cells, and missing cells. --metrics-out aggregates the
//       per-shard telemetry embedded in the artifacts (exact counter sums
//       + bin-wise sketch merge) into one campaign-level metrics record.
//
//   search_lab catalog ARTIFACT... [--columns=a,b,c] [--csv=PATH]
//             [--strategy=SUBSTR] [--k=LIST] [--d=LIST] [--quiet]
//       Inspects shard artifacts without merging — the human/CSV view of
//       the binary files. With no selection flags, lists one row per
//       artifact (path, scenario, shard, cells, spec hash). With
//       --columns/--csv/filters it switches to cell mode: renders the
//       selected columns for every matching cell across ALL the
//       artifacts — different specs may mix, no completeness required,
//       nothing is validated against a plan beyond each artifact's own
//       spec. The cheap "what do I have / pull these columns" tool for a
//       directory of campaign shards.
//
//   search_lab report METRICS_FILE... [--hist]
//       Renders metrics JSON files (from --metrics-out) as a human table:
//       cells computed/cached, trials, cache hits, phase times, trials/sec,
//       and cell-duration p50/p90/p99. --hist adds the cell-duration
//       distribution as a text histogram.
//
// Output/scheduler flags:
//   --csv=PATH       write rows as CSV (scenario i > 1 gets PATH.i)
//   --jsonl=PATH     write rows as JSON lines (same suffix rule)
//   --quiet          suppress the stdout table
//   --threads=N      scheduler threads (0 = hardware concurrency)
//   --cache-dir=DIR  cell cache (one journal, DIR/cache.pack); re-runs
//                    recompute only changed cells, and shards may share
//                    one DIR
//   --progress       per-cell completion lines on stderr (rows unaffected;
//                    sharded runs prefix lines with "shard I/N"), with
//                    elapsed/rate/ETA appended
//
// Telemetry flags (run; all strictly observational — result rows are
// byte-identical with or without them, test-enforced):
//   --metrics-out=FILE  one JSON line of run metrics (counters, phase
//                       times, trials/sec, duration quantiles + sketch)
//   --events=FILE       structured JSONL event log (run_start, cell_start,
//                       cell_end, heartbeat, run_end), flushed per line
//   --trace=FILE        Chrome trace-event JSON; load in chrome://tracing
//                       or Perfetto to see per-worker cell execution
//   (scenario i > 1 gets FILE.i, like --csv)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "scenario/artifact.h"
#include "scenario/environment.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "telemetry/run_telemetry.h"
#include "util/cli.h"
#include "util/table.h"

namespace ants {
namespace {

void print_params(const std::vector<scenario::ParamSpec>& params) {
  for (const scenario::ParamSpec& p : params) {
    std::cout << "    " << p.name << " (" << scenario::param_type_name(p.type)
              << ", default " << p.default_value << "): " << p.doc << "\n";
  }
}

void print_env_entries(const std::vector<scenario::EnvEntry>& entries) {
  for (const scenario::EnvEntry& entry : entries) {
    std::cout << entry.name;
    // Per-entry applicability: most entries run under every engine family
    // (the axis header says so); the exceptions carry their restriction.
    if (!entry.applies.empty()) {
      std::cout << " [applies: " << entry.applies << "]";
    }
    std::cout << "\n    " << entry.summary << "\n";
    print_params(entry.params);
  }
  std::cout << "\n";
}

const char* engine_kind(const scenario::BuiltStrategy& built) {
  if (built.is_step()) return "step-level";
  if (built.is_plane()) return "plane-level";
  return "segment-level";
}

/// Which environment axes a strategy's engine family supports. The unified
/// executor (sim/trial.h) gives EVERY family — segment-, step-, and
/// plane-level — the full environment.
const char* engine_axes(const scenario::BuiltStrategy&) {
  return "placements, schedule, crash, targets";
}

int run_list() {
  const scenario::Registry& registry = scenario::Registry::instance();
  for (const std::string& name : registry.names()) {
    const scenario::StrategyEntry* entry = registry.find(name);
    const scenario::BuiltStrategy built =
        registry.make(name, scenario::BuildContext{1});
    std::cout << name << " [" << engine_kind(built)
              << "; axes: " << engine_axes(built) << "]\n    "
              << entry->summary << "\n";
    print_params(entry->params);
    std::cout << "\n";
  }
  std::cout << registry.names().size() << " strategies registered.\n\n";

  const auto print_axis = [](const char* title, const char* spec_key,
                             const char* applies,
                             const std::vector<scenario::EnvEntry>& entries) {
    std::cout << "--- " << title << " (spec key: " << spec_key
              << "; applies to " << applies << ") ---\n";
    print_env_entries(entries);
  };
  print_axis("placements — sweepable axis", "placements",
             "every engine family", scenario::placement_entries());
  print_axis("start schedules — async variants", "schedule",
             "every engine family", scenario::schedule_entries());
  print_axis("crash models — fail-stop variants", "crash",
             "every engine family", scenario::crash_entries());
  print_axis("target processes — static sets, Poisson arrivals, drifting "
             "targets (sweepable axis)",
             "targets", "every engine family unless noted",
             scenario::target_entries());
  print_axis("capture policies — how a find confirms", "capture",
             "every engine family unless noted", scenario::capture_entries());
  std::cout << "--- collect modes (spec key: collect) ---\n"
            << "first\n    the race ends at the first find (the classic "
               "model)\n"
            << "all\n    the trial runs until every spawned target is found "
               "or the time cap; surfaces time_to_all and the "
               "target_time_0..3 per-slot discovery-time columns (requires "
               "a finite time_cap)\n\n"
            << "Every axis above — including the dynamic target processes, "
               "dwell capture, and\ncollect-all — executes through the "
               "batched SoA/SIMD executor (src/sim/batch/,\n"
               "scalar/SSE2/AVX2 dispatch). The one exception is plane "
               "strategies under a\nwindowed or collect-all process, which "
               "delegate per trial to the scalar plane engine\n(counted by the "
               "batch_scalar_fallback metric; see docs/observability.md)."
               "\n\n";
  return 0;
}

/// PATH for the first scenario, PATH.2, PATH.3, ... for the rest, so a
/// multi-scenario file never silently overwrites its own output.
std::string indexed_path(const std::string& path, std::size_t index) {
  if (index == 0) return path;
  return path + "." + std::to_string(index + 1);
}

/// Parses "--shard=I/N" into 1-based (shard, n_shards); throws on junk.
std::pair<std::size_t, std::size_t> parse_shard_arg(const std::string& arg) {
  const std::size_t slash = arg.find('/');
  std::size_t shard = 0, n_shards = 0;
  try {
    if (slash == std::string::npos) throw std::invalid_argument(arg);
    std::size_t shard_end = 0, n_end = 0;
    shard = std::stoull(arg.substr(0, slash), &shard_end);
    const std::string n_text = arg.substr(slash + 1);
    n_shards = std::stoull(n_text, &n_end);
    if (shard_end != slash || n_end != n_text.size()) {
      throw std::invalid_argument(arg);
    }
  } catch (const std::exception&) {
    throw std::invalid_argument("--shard expects I/N (e.g. 2/3), got '" +
                                arg + "'");
  }
  if (n_shards == 0 || shard == 0 || shard > n_shards) {
    throw std::invalid_argument("--shard=" + arg +
                                " outside 1/N..N/N");
  }
  return {shard, n_shards};
}

/// Writes one metrics JSON line to `path`.
void write_metrics_file(const std::string& path,
                        const telemetry::RunTelemetry& tel) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open metrics file: " + path);
  os << tel.metrics_json() << "\n";
}

int run_specs(util::Cli& cli) {
  const std::string spec_path = cli.get_string("spec", "");
  const std::string csv_path = cli.get_string("csv", "");
  const std::string jsonl_path = cli.get_string("jsonl", "");
  const bool quiet = cli.get_bool("quiet", false);
  const std::string shard_arg = cli.get_string("shard", "");
  const std::string shard_out = cli.get_string("shard-out", "");
  const std::string metrics_path = cli.get_string("metrics-out", "");
  const std::string events_path = cli.get_string("events", "");
  const std::string trace_path = cli.get_string("trace", "");

  std::size_t shard = 0, n_shards = 0;
  if (!shard_arg.empty()) {
    std::tie(shard, n_shards) = parse_shard_arg(shard_arg);
    if (shard_out.empty()) {
      std::cerr << "error: --shard requires --shard-out=FILE (the artifact "
                   "`search_lab merge` reassembles)\n";
      return 2;
    }
    if (!csv_path.empty() || !jsonl_path.empty()) {
      std::cerr << "error: --shard writes a shard artifact, not result "
                   "rows; produce the merged CSV/JSONL via `search_lab "
                   "merge`\n";
      return 2;
    }
  } else if (!shard_out.empty()) {
    std::cerr << "error: --shard-out only applies with --shard=I/N\n";
    return 2;
  }

  const std::int64_t threads = cli.get_int("threads", 0);
  if (threads < 0 || threads > std::numeric_limits<unsigned>::max()) {
    std::cerr << "error: --threads: " << threads
              << " is not a thread count (0 = hardware concurrency)\n";
    return 2;
  }
  scenario::SweepOptions sweep_opt;
  sweep_opt.threads = static_cast<unsigned>(threads);
  sweep_opt.cache_dir = cli.get_string("cache-dir", "");
  sweep_opt.progress = cli.get_bool("progress", false);

  std::vector<scenario::ScenarioSpec> specs;
  if (!spec_path.empty()) {
    // Sweep-building flags are deliberately NOT consumed here, so mixing
    // --spec with e.g. --trials fails loudly in finish() instead of being
    // silently ignored.
    specs = scenario::parse_spec_file(spec_path);
    if (specs.empty()) {
      std::cerr << "error: " << spec_path << " contains no scenarios\n";
      return 1;
    }
  } else {
    specs.push_back(scenario::spec_from_cli(cli));
  }
  cli.finish();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const scenario::ScenarioSpec& spec = specs[i];
    // run_sweep/run_shard validate via flatten(); no separate validate()
    // call here.
    if (!quiet) {
      std::cout << "scenario '" << spec.name << "': "
                << spec.strategies.size() << " strategies x "
                << spec.ks.size() << " ks x " << spec.distances.size()
                << " distances";
      if (spec.placements.size() > 1) {
        std::cout << " x " << spec.placements.size() << " placements";
      }
      if (spec.targets.size() > 1) {
        std::cout << " x " << spec.targets.size() << " target sets";
      }
      if (spec.is_async()) std::cout << " [async]";
      if (spec.is_multi_target()) std::cout << " [multi-target]";
      if (spec.is_dynamic()) std::cout << " [dynamic-targets]";
      std::cout << ", " << spec.trials << " trials/cell\n";
    }

    // One telemetry object per scenario, mirroring the per-scenario output
    // files: scenario i > 1 writes FILE.i like --csv does.
    std::unique_ptr<telemetry::RunTelemetry> tel;
    if (!metrics_path.empty() || !events_path.empty() ||
        !trace_path.empty()) {
      telemetry::TelemetryConfig config;
      if (!events_path.empty()) {
        config.events_path = indexed_path(events_path, i);
      }
      if (!trace_path.empty()) config.trace_path = indexed_path(trace_path, i);
      tel = std::make_unique<telemetry::RunTelemetry>(config);
    }
    sweep_opt.telemetry = tel.get();

    if (n_shards > 0) {
      // Execute layer only: run this shard's cells, publish the artifact.
      scenario::SweepPlan plan;
      {
        const telemetry::RunTelemetry::PhaseScope plan_scope(
            tel.get(), telemetry::Phase::kPlan);
        plan = scenario::make_plan(spec);
      }
      const std::vector<scenario::CellResult> results =
          scenario::run_shard(plan, shard, n_shards, sweep_opt);
      const std::string out_path = indexed_path(shard_out, i);
      if (tel != nullptr) {
        tel->finish();
        // The shard's telemetry rides inside the artifact so `merge` can
        // aggregate the campaign exactly.
        const telemetry::RunMetrics metrics = tel->snapshot();
        scenario::write_shard(out_path, plan, shard, n_shards, results,
                              &metrics);
        if (!metrics_path.empty()) {
          write_metrics_file(indexed_path(metrics_path, i), *tel);
        }
      } else {
        scenario::write_shard(out_path, plan, shard, n_shards, results);
      }
      if (!quiet) {
        scenario::TableSink table(std::cout);
        std::vector<scenario::ResultSink*> sinks = {&table};
        emit_results(spec, results, sinks);
        std::cout << "(shard " << shard << "/" << n_shards << ": "
                  << results.size() << " of " << plan.cells.size()
                  << " cells; artifact written to " << out_path << ")\n";
        if (i + 1 < specs.size()) std::cout << "\n";
      }
      continue;
    }

    const std::vector<scenario::CellResult> results =
        scenario::run_sweep(spec, sweep_opt);
    if (tel != nullptr) {
      tel->finish();
      if (!metrics_path.empty()) {
        write_metrics_file(indexed_path(metrics_path, i), *tel);
      }
    }

    std::vector<scenario::ResultSink*> sinks;
    scenario::TableSink table(std::cout);
    if (!quiet) sinks.push_back(&table);
    std::unique_ptr<scenario::CsvSink> csv;
    if (!csv_path.empty()) {
      csv = std::make_unique<scenario::CsvSink>(indexed_path(csv_path, i));
      sinks.push_back(csv.get());
    }
    std::unique_ptr<scenario::JsonlSink> jsonl;
    if (!jsonl_path.empty()) {
      jsonl =
          std::make_unique<scenario::JsonlSink>(indexed_path(jsonl_path, i));
      sinks.push_back(jsonl.get());
    }
    emit_results(spec, results, sinks);

    if (!quiet) {
      std::size_t cached = 0;
      for (const auto& r : results) cached += r.from_cache ? 1 : 0;
      if (cached > 0) {
        std::cout << "(" << cached << "/" << results.size()
                  << " cells served from cache)\n";
      }
      if (!csv_path.empty()) {
        std::cout << "(csv written to " << indexed_path(csv_path, i) << ")\n";
      }
      if (!jsonl_path.empty()) {
        std::cout << "(jsonl written to " << indexed_path(jsonl_path, i)
                  << ")\n";
      }
      if (!metrics_path.empty()) {
        std::cout << "(metrics written to " << indexed_path(metrics_path, i)
                  << ")\n";
      }
      if (i + 1 < specs.size()) std::cout << "\n";
    }
  }
  return 0;
}

/// The merge layer as a subcommand: reassembles shard artifacts into the
/// canonical table, identical to what the unsharded run would print/write.
int run_merge(util::Cli& cli) {
  const std::string csv_path = cli.get_string("csv", "");
  const std::string jsonl_path = cli.get_string("jsonl", "");
  const std::string metrics_path = cli.get_string("metrics-out", "");
  const bool quiet = cli.get_bool("quiet", false);
  cli.finish();

  const std::vector<std::string> artifacts(cli.positional().begin() + 1,
                                           cli.positional().end());
  if (artifacts.empty()) {
    std::cerr << "error: merge needs at least one shard artifact\n";
    return 2;
  }

  scenario::ScenarioSpec spec;
  telemetry::RunMetrics metrics;
  const std::int64_t merge_t0 = telemetry::now_us();
  const std::vector<scenario::CellResult> results = scenario::merge_shards(
      artifacts, &spec, metrics_path.empty() ? nullptr : &metrics);
  // The campaign record = the shards' aggregated telemetry plus this
  // process's own merge time on top of whatever the shards measured.
  metrics.merge_us += telemetry::now_us() - merge_t0;

  std::vector<scenario::ResultSink*> sinks;
  scenario::TableSink table(std::cout);
  if (!quiet) sinks.push_back(&table);
  std::unique_ptr<scenario::CsvSink> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<scenario::CsvSink>(csv_path);
    sinks.push_back(csv.get());
  }
  std::unique_ptr<scenario::JsonlSink> jsonl;
  if (!jsonl_path.empty()) {
    jsonl = std::make_unique<scenario::JsonlSink>(jsonl_path);
    sinks.push_back(jsonl.get());
  }
  emit_results(spec, results, sinks);

  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (!os) {
      throw std::runtime_error("cannot open metrics file: " + metrics_path);
    }
    os << telemetry::metrics_to_json(metrics, spec.name, 0, 1) << "\n";
  }

  if (!quiet) {
    std::cout << "(merged " << results.size() << " cells of scenario '"
              << spec.name << "' from " << artifacts.size()
              << " shard artifact" << (artifacts.size() == 1 ? "" : "s")
              << ")\n";
    if (!csv_path.empty()) {
      std::cout << "(csv written to " << csv_path << ")\n";
    }
    if (!jsonl_path.empty()) {
      std::cout << "(jsonl written to " << jsonl_path << ")\n";
    }
    if (!metrics_path.empty()) {
      std::cout << "(metrics written to " << metrics_path << ")\n";
    }
  }
  return 0;
}

/// Renders --metrics-out files as a human table (plus an optional duration
/// histogram): the quick "what did that run cost" view without jq.
int run_report(util::Cli& cli) {
  const bool hist = cli.get_bool("hist", false);
  cli.finish();

  const std::vector<std::string> files(cli.positional().begin() + 1,
                                       cli.positional().end());
  if (files.empty()) {
    std::cerr << "error: report needs at least one metrics JSON file "
                 "(written by run/merge --metrics-out)\n";
    return 2;
  }

  util::Table table({"scenario", "shard", "cells", "computed", "cached",
                     "trials", "cache_hits", "plan_ms", "execute_ms",
                     "merge_ms", "trials/s", "p50_ms", "p90_ms", "p99_ms"});
  const auto fmt1 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return std::string(buf);
  };
  const auto fmt_quantile = [&](const telemetry::DurationSketch& sketch,
                                double p) {
    const double us = sketch.quantile_us(p);
    return us != us ? std::string("-") : fmt1(us / 1000.0);
  };

  telemetry::RunMetrics combined;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "error: cannot open " << file << "\n";
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::string scenario;
      std::size_t shard = 0, n_shards = 1;
      const telemetry::RunMetrics m =
          telemetry::metrics_from_json(line, &scenario, &shard, &n_shards);
      combined.merge(m);
      table.add_row(
          {scenario,
           shard == 0 ? "-"
                      : std::to_string(shard) + "/" +
                            std::to_string(n_shards),
           std::to_string(m.cells_total), std::to_string(m.cells_computed),
           std::to_string(m.cells_cached), std::to_string(m.trials_executed),
           std::to_string(m.cache_hits),
           fmt1(static_cast<double>(m.plan_us) / 1000.0),
           fmt1(static_cast<double>(m.execute_us) / 1000.0),
           fmt1(static_cast<double>(m.merge_us) / 1000.0),
           fmt1(m.trials_per_sec()), fmt_quantile(m.cell_duration, 0.50),
           fmt_quantile(m.cell_duration, 0.90),
           fmt_quantile(m.cell_duration, 0.99)});
    }
  }
  table.print(std::cout);

  if (hist) {
    // The 512-bin sketch is built for exact merging, not for eyeballs;
    // coarsen 16:1 before rendering so the distribution fits a screen.
    constexpr std::size_t kCoarseBins = 32;
    stats::Histogram coarse(telemetry::DurationSketch::kLog2Lo,
                            telemetry::DurationSketch::kLog2Hi, kCoarseBins);
    for (const auto& [bin, count] : combined.cell_duration.sparse_bins()) {
      coarse.add_count(bin * kCoarseBins / telemetry::DurationSketch::kBins,
                       count);
    }
    std::cout << "\ncell duration distribution (bin edges are "
                 "log2(microseconds)):\n"
              << coarse.render();
  }
  return 0;
}

/// Catalog over many shard artifacts: list what exists, or pull selected
/// columns for matching cells — across specs, without the merge layer's
/// completeness checks. Each artifact is self-describing (embedded spec),
/// so the catalog rebuilds just enough plan per DISTINCT spec to reattach
/// cells to their coordinates; artifacts sharing a spec share the plan.
int run_catalog(util::Cli& cli) {
  const std::string columns_arg = cli.get_string("columns", "");
  const std::string csv_path = cli.get_string("csv", "");
  const std::string strategy_filter = cli.get_string("strategy", "");
  const std::vector<std::int64_t> ks = cli.get_int_list("k", {});
  const std::vector<std::int64_t> ds = cli.get_int_list("d", {});
  const bool quiet = cli.get_bool("quiet", false);
  cli.finish();

  const std::vector<std::string> artifacts(cli.positional().begin() + 1,
                                           cli.positional().end());
  if (artifacts.empty()) {
    std::cerr << "error: catalog needs at least one shard artifact\n";
    return 2;
  }

  const bool cell_mode = !columns_arg.empty() || !csv_path.empty() ||
                         !strategy_filter.empty() || !ks.empty() ||
                         !ds.empty();

  if (!cell_mode) {
    // Listing mode: one row per artifact, header-level facts only.
    util::Table table({"artifact", "scenario", "shard", "cells",
                       "spec_hash", "version"});
    for (const std::string& path : artifacts) {
      const scenario::BinaryArtifactReader reader(path);
      const scenario::ShardHeader& header = reader.header();
      const std::vector<scenario::ScenarioSpec> specs =
          scenario::parse_spec_text(header.spec_text);
      char hash_hex[24];
      std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                    static_cast<unsigned long long>(header.spec_hash));
      table.add_row({path, specs.size() == 1 ? specs.front().name : "?",
                     std::to_string(header.shard) + "/" +
                         std::to_string(header.n_shards),
                     std::to_string(reader.n_cells()) + "/" +
                         std::to_string(header.n_cells_total),
                     hash_hex, std::to_string(header.format_version)});
    }
    table.print(std::cout);
    return 0;
  }

  std::vector<std::string> columns;
  if (!columns_arg.empty()) {
    std::size_t begin = 0;
    while (begin <= columns_arg.size()) {
      const std::size_t comma = columns_arg.find(',', begin);
      const std::string name = columns_arg.substr(
          begin, comma == std::string::npos ? std::string::npos
                                            : comma - begin);
      if (!name.empty()) {
        if (!scenario::is_known_column(name)) {
          std::cerr << "error: unknown column '" << name << "'\n";
          return 2;
        }
        columns.push_back(name);
      }
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
  }
  if (columns.empty()) columns = scenario::default_columns();

  const auto keep = [&](const scenario::Cell& cell) {
    if (!strategy_filter.empty() &&
        cell.strategy_name.find(strategy_filter) == std::string::npos) {
      return false;
    }
    if (!ks.empty() &&
        std::find(ks.begin(), ks.end(), cell.k) == ks.end()) {
      return false;
    }
    if (!ds.empty() &&
        std::find(ds.begin(), ds.end(), cell.distance) == ds.end()) {
      return false;
    }
    return true;
  };

  std::vector<scenario::ResultSink*> sinks;
  scenario::TableSink table(std::cout);
  if (!quiet) sinks.push_back(&table);
  std::unique_ptr<scenario::CsvSink> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<scenario::CsvSink>(csv_path);
    sinks.push_back(csv.get());
  }
  for (scenario::ResultSink* sink : sinks) sink->begin(columns);

  // Plans are cached per distinct spec hash: a 50-shard campaign of one
  // spec flattens it once, not 50 times.
  std::map<std::uint64_t, scenario::SweepPlan> plans;
  std::size_t matched = 0;
  for (const std::string& path : artifacts) {
    const scenario::BinaryArtifactReader reader(path);
    const scenario::ShardHeader& header = reader.header();
    if (header.format_version != scenario::cell_format_version()) {
      throw std::invalid_argument(
          "shard artifact " + path + ": format version " +
          std::to_string(header.format_version) +
          " does not match this build's " +
          std::to_string(scenario::cell_format_version()) +
          " — cell coordinates would not line up");
    }
    auto it = plans.find(header.spec_hash);
    if (it == plans.end()) {
      const std::vector<scenario::ScenarioSpec> specs =
          scenario::parse_spec_text(header.spec_text);
      if (specs.size() != 1) {
        throw std::invalid_argument(
            "shard artifact " + path +
            ": embedded spec does not parse to exactly one scenario");
      }
      it = plans.emplace(header.spec_hash,
                         scenario::make_plan(specs.front())).first;
      if (it->second.spec_hash != header.spec_hash) {
        throw std::invalid_argument(
            "shard artifact " + path +
            ": embedded spec re-hashes differently — artifact written by "
            "an incompatible build");
      }
    }
    const scenario::SweepPlan& plan = it->second;
    for (std::size_t row = 0; row < reader.n_cells(); ++row) {
      const std::uint64_t index = reader.cell_index(row);
      if (index >= plan.cells.size()) {
        throw std::invalid_argument(
            "shard artifact " + path + ": cell index " +
            std::to_string(index) + " out of range");
      }
      scenario::CellResult result;
      result.cell = plan.cells[index];
      if (!keep(result.cell)) continue;
      reader.load(row, &result);
      ++matched;
      std::vector<std::string> cells_row;
      cells_row.reserve(columns.size());
      for (const std::string& column : columns) {
        cells_row.push_back(scenario::column_value(column, plan.spec, result));
      }
      for (scenario::ResultSink* sink : sinks) sink->row(cells_row);
    }
  }
  for (scenario::ResultSink* sink : sinks) sink->end();

  if (!quiet) {
    std::cout << "(" << matched << " cells from " << artifacts.size()
              << " artifact" << (artifacts.size() == 1 ? "" : "s") << ", "
              << plans.size() << " distinct spec"
              << (plans.size() == 1 ? "" : "s") << ")\n";
    if (!csv_path.empty()) {
      std::cout << "(csv written to " << csv_path << ")\n";
    }
  }
  return 0;
}

int usage() {
  std::cerr << "usage: search_lab list\n"
            << "       search_lab run --spec=FILE [flags]\n"
            << "       search_lab run --strategies='a; b(x=1)' --ks=... "
               "--ds=... [flags]\n"
            << "       search_lab run ... --shard=I/N --shard-out=FILE\n"
            << "       search_lab merge ARTIFACT... [--csv=PATH] "
               "[--jsonl=PATH] [--metrics-out=FILE] [--quiet]\n"
            << "       search_lab catalog ARTIFACT... [--columns=a,b,c] "
               "[--csv=PATH] [--strategy=SUBSTR] [--k=LIST] [--d=LIST] "
               "[--quiet]\n"
            << "       search_lab report METRICS_FILE... [--hist]\n"
            << "see docs/scenarios.md for the spec format and flag list,\n"
            << "docs/observability.md for --metrics-out/--events/--trace\n";
  return 2;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string& command = cli.positional()[0];
  if (command == "merge") return run_merge(cli);
  if (command == "catalog") return run_catalog(cli);
  if (command == "report") return run_report(cli);
  if (cli.positional().size() != 1) return usage();
  if (command == "list") {
    cli.finish();
    return run_list();
  }
  if (command == "run") return run_specs(cli);
  return usage();
}

}  // namespace
}  // namespace ants

int main(int argc, char** argv) try {
  return ants::run(argc, argv);
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
