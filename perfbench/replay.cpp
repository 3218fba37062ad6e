// perf_replay — the campaign benchmark's traced, single-threaded replay.
//
// Replays every cell of a scenario spec file through the library's public
// layer functions, in the order one scheduler worker of `search_lab run
// --threads=1` would run them, and times each layer at its boundary:
//
//   plan       parse_spec_file, make_plan, Registry::make
//   env        make_targets / make_plane_targets -> process.grid / plane,
//              sim::draw_environment (the per-trial realization)
//   exec       BatchRunner construction and run_one, attributed to the
//              backend run_one routes to (has_dynamic_targets(); plane +
//              windows/collect = the scalar fallback)
//   io         cache_lookup / cache_store / PackedCacheIndex, write_shard,
//              merge_shards, CsvSink
//   kernels    kernels_for(active_simd_level()) entry points and rng::Rng
//              draws, micro-timed at the workload's agent and target counts
//
// Spans (name, start, end, parent; cell spans carry the cell id) are kept
// in memory and written as Chrome-trace JSON at exit, so the replay opens in
// Perfetto next to search_lab's own --trace output. The replay also writes
// the CSV its own results render to; run.py compares it with the CSV of the
// untraced `search_lab run`, so the per-layer numbers are known to describe
// the same computation.
//
//   perf_replay --info
//       prints {"simd_level": ..., "detected_simd_level": ...}
//   perf_replay --spec=FILE --work=DIR --out=SUMMARY.json --trace=TRACE.json
//       replays FILE; writes DIR/replay.csv (scenario i > 1: .i), the
//       summary (per-layer metrics + per-span self times) and the trace.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rng/power_law.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"
#include "scenario/cache_pack.h"
#include "scenario/environment.h"
#include "scenario/plan.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "sim/batch/batch.h"
#include "sim/batch/kernels.h"
#include "sim/batch/simd.h"
#include "sim/trial.h"
#include "stats/summary.h"
#include "util/cli.h"

namespace {

using namespace ants;
using Clock = std::chrono::steady_clock;

/// In-memory span recorder. Spans nest strictly (a stack), so a span's
/// parent is whatever was open when it began and its self time is its
/// duration minus its children's.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    std::int64_t cell = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::size_t begin(std::string name, std::int64_t cell = -1) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.cell = cell >= 0 ? cell
                : span.parent >= 0
                    ? spans_[static_cast<std::size_t>(span.parent)].cell
                    : -1;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost span (which must be `id`); returns its duration.
  std::int64_t end(std::size_t id) {
    spans_[id].end_ns = now_ns();
    open_.pop_back();
    return spans_[id].end_ns - spans_[id].start_ns;
  }

  /// Self time per span name, in seconds.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                              child[i]) / 1e9;
    }
    return self;
  }

  /// Chrome trace-event JSON on pid 1 (search_lab's own trace uses pid 0),
  /// one track, nested slices.
  void write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open trace file: " + path);
    os << "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\","
          "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"perf_replay\"}},"
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"replay (1 thread)\"}}";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                    "\"tid\":0,\"args\":{\"id\":%zu,\"parent\":%lld,"
                    "\"cell\":%lld}}",
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.cell));
      os << ",{\"name\":\"" << s.name << "\"" << buf;
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
    if (!os) throw std::runtime_error("failed writing trace file: " + path);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// The executor backends, named as in the benchmark's exec.<b>.* metrics.
enum Backend { kSegment, kSegmentDyn, kStep, kStepDyn, kPlane, kPlaneFallback };
constexpr std::array<const char*, 6> kBackendNames = {
    "segment", "segment_dyn", "step", "step_dyn", "plane", "plane_fallback"};

struct BackendStats {
  std::uint64_t trials = 0;
  std::uint64_t units = 0;  ///< TrialResult::segments
  std::int64_t busy_ns = 0;
};

/// The backend BatchRunner::run_one routes `env` to.
Backend route(const scenario::BuiltStrategy& built,
              const sim::TrialEnvironment& env) {
  const bool dyn = env.has_dynamic_targets();
  if (built.is_plane()) return dyn ? kPlaneFallback : kPlane;
  if (built.is_step()) return dyn ? kStepDyn : kStep;
  return dyn ? kSegmentDyn : kSegment;
}

struct Totals {
  std::array<BackendStats, 6> exec{};
  std::uint64_t runner_builds = 0;
  std::int64_t runner_build_ns = 0;
  std::uint64_t realized = 0;
  std::int64_t realize_ns = 0;
  std::uint64_t drained_fallbacks = 0;
  double parse_s = 0, make_plan_s = 0, build_s = 0;
  std::uint64_t cells = 0;
  std::int64_t store_ns = 0, lookup_ns = 0;
  std::uint64_t cache_bytes = 0, hits = 0, misses = 0, corrupt = 0;
  double artifact_s = 0, merge_s = 0, csv_s = 0;
  std::uint64_t artifact_bytes = 0;
  std::int64_t max_k = 1;
  std::size_t max_targets = 1;
};

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::uint64_t file_bytes(const std::filesystem::path& path) {
  std::uint64_t total = 0;
  if (std::filesystem::is_directory(path)) {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
  } else if (std::filesystem::exists(path)) {
    total = std::filesystem::file_size(path);
  }
  return total;
}

std::string indexed(const std::string& path, std::size_t index) {
  return index == 0 ? path : path + "." + std::to_string(index + 1);
}

/// Replays one scenario: executes every cell, then pushes the results
/// through the cache, artifact, merge and CSV layers.
void replay_scenario(const scenario::ScenarioSpec& spec, std::size_t index,
                     const std::string& work, Spans& spans, Totals& tot) {
  const std::size_t scen_span = spans.begin("scenario " + spec.name);

  std::size_t id = spans.begin("plan.make_plan");
  const scenario::SweepPlan plan = scenario::make_plan(spec);
  tot.make_plan_s += seconds(spans.end(id));
  const std::vector<scenario::Cell>& cells = plan.cells;
  const std::size_t cell_base = tot.cells;
  tot.cells += cells.size();

  id = spans.begin("plan.build");
  std::map<std::pair<std::size_t, std::int64_t>, scenario::BuiltStrategy>
      by_sk;
  for (const scenario::Cell& cell : cells) {
    const auto key = std::make_pair(cell.strategy_index, cell.k);
    if (by_sk.find(key) == by_sk.end()) {
      by_sk.emplace(key, scenario::Registry::instance().make(
                             cell.strategy_spec,
                             scenario::BuildContext{static_cast<int>(cell.k)}));
    }
  }
  tot.build_s += seconds(spans.end(id));

  // Environment policies, compiled once per (placement, targets) pair and
  // substrate, exactly as the sweep compiles them.
  id = spans.begin("env.compile");
  const std::size_t n_targets = spec.targets.size();
  std::vector<sim::TargetProcess> processes(spec.placements.size() *
                                            n_targets);
  for (const scenario::Cell& cell : cells) {
    sim::TargetProcess& p =
        processes[cell.placement_index * n_targets + cell.targets_index];
    if (by_sk.at({cell.strategy_index, cell.k}).is_plane()) {
      if (!p.plane) {
        p.plane = scenario::make_plane_targets(
                      cell.targets_spec,
                      scenario::make_plane_angle(cell.placement_spec))
                      .plane;
      }
    } else if (!p.grid) {
      p.grid = scenario::make_targets(
                   cell.targets_spec,
                   scenario::make_placement(cell.placement_spec))
                   .grid;
    }
  }
  const std::unique_ptr<sim::StartSchedule> schedule =
      scenario::make_schedule(spec.schedule);
  const std::unique_ptr<sim::CrashModel> crashes =
      scenario::make_crash(spec.crash);
  spans.end(id);

  sim::EngineConfig config;
  config.time_cap = spec.effective_time_cap();
  const bool async = spec.is_async();
  const bool dynamic = spec.is_dynamic();
  const bool collect_all = spec.collect_all();
  const sim::Time dwell = spec.capture_dwell();
  const auto trials = static_cast<std::size_t>(spec.trials);
  constexpr std::size_t kSlots = scenario::CellResult::kTargetTimeSlots;

  std::vector<scenario::CellResult> results(cells.size());
  std::unique_ptr<sim::batch::BatchRunner> runner;
  const scenario::BuiltStrategy* runner_strategy = nullptr;
  std::int64_t runner_k = -1;

  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const scenario::Cell& cell = cells[ci];
    const auto cell_id = static_cast<std::int64_t>(cell_base + ci);
    const std::size_t cell_span = spans.begin("cell", cell_id);
    const scenario::BuiltStrategy& built =
        by_sk.at({cell.strategy_index, cell.k});
    tot.max_k = std::max(tot.max_k, cell.k);

    // One worker's runner cache: rebuilt only when the (strategy, k) pair
    // changes from the previous cell.
    if (runner_strategy != &built || runner_k != cell.k) {
      id = spans.begin("exec.runner_build");
      sim::TrialStrategy strategy;
      strategy.segment = built.segment.get();
      strategy.step = built.step.get();
      strategy.plane = built.plane.get();
      runner = std::make_unique<sim::batch::BatchRunner>(
          strategy, static_cast<int>(cell.k), config);
      tot.runner_build_ns += spans.end(id);
      ++tot.runner_builds;
      runner_strategy = &built;
      runner_k = cell.k;
    }

    const sim::TargetProcess& process =
        processes[cell.placement_index * n_targets + cell.targets_index];
    std::vector<double> times(trials), from_last, crashed, last_starts;
    std::vector<double> spawned, found_count, fbv, slot_times;
    if (async) {
      from_last.resize(trials);
      crashed.resize(trials);
      last_starts.resize(trials);
    }
    if (dynamic) {
      spawned.resize(trials);
      found_count.resize(trials);
      fbv.resize(trials);
    }
    if (collect_all) slot_times.assign(trials * kSlots, -1.0);
    std::int64_t found = 0, first_target_sum = 0;

    for (std::size_t trial = 0; trial < trials; ++trial) {
      rng::Rng trial_rng(rng::mix_seed(cell.seed, trial));
      id = spans.begin("env.realize");
      sim::TrialEnvironment env;
      if (built.is_plane()) {
        process.plane(trial_rng, cell.distance, config.time_cap, &env);
      } else {
        process.grid(trial_rng, cell.distance, config.time_cap, &env);
      }
      if (async) {
        env = sim::draw_environment(static_cast<int>(cell.k), std::move(env),
                                    *schedule, *crashes, trial_rng);
      }
      env.capture_dwell = dwell;
      env.collect_all = collect_all;
      tot.realize_ns += spans.end(id);
      ++tot.realized;

      const Backend b = route(built, env);
      id = spans.begin(std::string("exec.") + kBackendNames[b]);
      const sim::TrialResult r = runner->run_one(env, trial_rng);
      BackendStats& bs = tot.exec[b];
      bs.busy_ns += spans.end(id);
      ++bs.trials;
      bs.units += static_cast<std::uint64_t>(r.segments);

      const std::size_t nt =
          built.is_plane() ? env.plane_targets.size() : env.targets.size();
      tot.max_targets = std::max(tot.max_targets, nt);

      // The sweep's per-trial aggregation (scenario/sweep.cpp).
      times[trial] = r.time;
      if (async) {
        from_last[trial] = r.from_last_start;
        crashed[trial] = static_cast<double>(r.crashed);
        last_starts[trial] = r.last_start;
      }
      if (r.found) {
        ++found;
        first_target_sum += r.first_target;
      }
      if (dynamic) {
        double nf = r.found ? 1.0 : 0.0;
        if (collect_all) {
          nf = 0;
          for (const double tt : r.target_times) nf += tt >= 0 ? 1 : 0;
          const std::size_t ns = std::min(kSlots, r.target_times.size());
          for (std::size_t j = 0; j < ns; ++j) {
            slot_times[trial * kSlots + j] = r.target_times[j];
          }
        }
        spawned[trial] = static_cast<double>(nt);
        found_count[trial] = nf;
        fbv[trial] = nt > 0 ? nf / static_cast<double>(nt) : 1.0;
      }
    }
    tot.drained_fallbacks += runner->take_scalar_fallbacks();

    // The sweep's per-cell finalization (scenario/sweep.cpp finalize_cell).
    scenario::CellResult& res = results[ci];
    res.cell = cell;
    res.stats = sim::make_run_stats(std::move(times), found, cell.distance,
                                    static_cast<int>(cell.k));
    if (async) {
      res.from_last_start = stats::Summary::from(from_last);
      res.mean_crashed = stats::Summary::from(crashed).mean;
      res.mean_last_start = stats::Summary::from(last_starts).mean;
    }
    res.mean_first_target = found > 0 ? static_cast<double>(first_target_sum) /
                                            static_cast<double>(found)
                                      : -1.0;
    if (dynamic) {
      const auto mean_of = [](const std::vector<double>& v) {
        double sum = 0;
        for (const double x : v) sum += x;
        return v.empty() ? -1.0 : sum / static_cast<double>(v.size());
      };
      res.mean_targets_spawned = mean_of(spawned);
      res.mean_targets_found = mean_of(found_count);
      res.found_before_vanish = mean_of(fbv);
    }
    if (collect_all) {
      for (std::size_t j = 0; j < kSlots; ++j) {
        double sum = 0;
        std::size_t n_found = 0;
        for (std::size_t t = 0; t < trials; ++t) {
          const double v = slot_times[t * kSlots + j];
          if (v >= 0) {
            sum += v;
            ++n_found;
          }
        }
        res.target_time_mean[j] =
            n_found > 0 ? sum / static_cast<double>(n_found) : -1.0;
      }
    }
    spans.end(cell_span);
  }

  // --- cache: cold probe (misses), stores, warm probe (hits) ---------------
  const std::string cache_dir = work + "/replay-cache." + std::to_string(index);
  std::filesystem::remove_all(cache_dir);
  scenario::CellResult probe;
  id = spans.begin("cache.lookup_cold");
  {
    const scenario::PackedCacheIndex pack(cache_dir);
    for (const scenario::Cell& cell : cells) {
      if (pack.present() && pack.load(cell.hash, &probe)) continue;
      if (scenario::cache_lookup(cache_dir, cell.hash, &probe) !=
          scenario::CacheLookup::kHit) {
        ++tot.misses;
      }
    }
  }
  spans.end(id);
  id = spans.begin("cache.store");
  for (const scenario::CellResult& res : results) {
    scenario::cache_store(cache_dir, res.cell.hash, res);
  }
  tot.store_ns += spans.end(id);
  id = spans.begin("cache.lookup");
  {
    const scenario::PackedCacheIndex pack(cache_dir);
    for (const scenario::Cell& cell : cells) {
      if (pack.present() && pack.load(cell.hash, &probe)) {
        ++tot.hits;
        continue;
      }
      switch (scenario::cache_lookup(cache_dir, cell.hash, &probe)) {
        case scenario::CacheLookup::kHit: ++tot.hits; break;
        case scenario::CacheLookup::kCorrupt: ++tot.corrupt; break;
        case scenario::CacheLookup::kMiss: break;
      }
    }
  }
  tot.lookup_ns += spans.end(id);
  tot.cache_bytes += file_bytes(cache_dir);

  // --- three shard artifacts in the default encoding, then the merge -------
  constexpr std::size_t kShards = 3;
  std::vector<std::string> paths;
  for (std::size_t s = 1; s <= kShards; ++s) {
    const std::vector<std::size_t> owned =
        scenario::shard_cell_indices(plan, s, kShards);
    std::vector<scenario::CellResult> part;
    part.reserve(owned.size());
    for (const std::size_t i : owned) part.push_back(results[i]);
    paths.push_back(work + "/replay-shard" + std::to_string(s) + "." +
                    std::to_string(index) + ".jsonl");
    id = spans.begin("artifact.write");
    scenario::write_shard(paths.back(), plan, s, kShards, part);
    tot.artifact_s += seconds(spans.end(id));
    tot.artifact_bytes += file_bytes(paths.back());
  }
  id = spans.begin("merge");
  const std::vector<scenario::CellResult> merged =
      scenario::merge_shards(plan, paths);
  tot.merge_s += seconds(spans.end(id));
  if (merged.size() != results.size()) {
    throw std::runtime_error("merge_shards returned a different cell count");
  }

  id = spans.begin("sink.csv");
  {
    scenario::CsvSink csv(indexed(work + "/replay.csv", index));
    const std::vector<scenario::ResultSink*> sinks = {&csv};
    scenario::emit_results(spec, results, sinks);
  }
  tot.csv_s += seconds(spans.end(id));
  spans.end(scen_span);
}

/// Median over `reps` timings of `calls` invocations of `body`, in ns/call.
template <typename Body>
double ns_per_call(std::size_t calls, Body&& body) {
  constexpr int kReps = 5;
  std::array<double, kReps> samples{};
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    samples[static_cast<std::size_t>(rep)] =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(calls);
  }
  std::sort(samples.begin(), samples.end());
  return samples[kReps / 2];
}

/// Micro-times the RNG draws and every kernel entry point at `n_agents`
/// (argmin scans run over agent clocks) and `n_targets` (every other
/// kernel scans the target set). `sink` keeps the results observable.
std::map<std::string, double> time_primitives(std::size_t n_agents,
                                              std::size_t n_targets,
                                              std::uint64_t* sink) {
  namespace batch = sim::batch;
  const batch::Kernels& kern = batch::kernels_for(batch::active_simd_level());
  std::map<std::string, double> out;
  rng::Rng rng(0x5eedULL);
  std::uint64_t acc = 0;

  out["rng.ns_per_u64"] =
      ns_per_call(std::size_t{1} << 22, [&](std::size_t) { acc += rng.bits(); });
  const rng::DiscretePowerLaw law(1.5);
  out["rng.ns_per_power_law"] = ns_per_call(
      std::size_t{1} << 18,
      [&](std::size_t) { acc += static_cast<std::uint64_t>(law.sample(rng)); });

  const std::size_t na = std::max<std::size_t>(n_agents, 1);
  const std::size_t nt = std::max<std::size_t>(n_targets, 1);
  std::vector<std::int64_t> clocks(na), xs(nt), ys(nt), ox(nt), oy(nt),
      held(nt, 0);
  std::vector<double> fclocks(na), fx(nt), fy(nt), appear(nt), vanish(nt),
      vx(nt), vy(nt);
  std::vector<char> gate(nt, 1), alive(nt, 1), found(nt, 0);
  std::vector<std::uint32_t> idx(nt);
  for (std::size_t i = 0; i < na; ++i) {
    clocks[i] = static_cast<std::int64_t>(rng.uniform_u64(1u << 20));
    fclocks[i] = rng.uniform_real(0, 1e6);
  }
  for (std::size_t i = 0; i < nt; ++i) {
    xs[i] = rng.uniform_int(-64, 64);
    ys[i] = rng.uniform_int(-64, 64);
    fx[i] = rng.uniform_real(-64, 64);
    fy[i] = rng.uniform_real(-64, 64);
    appear[i] = rng.uniform_real(0, 1000);
    vanish[i] = appear[i] + rng.uniform_real(0, 1000);
    vx[i] = rng.uniform_real(-0.5, 0.5);
    vy[i] = rng.uniform_real(-0.5, 0.5);
  }
  const std::size_t calls = std::size_t{1} << 17;
  out["kernels.argmin_i64.ns_per_call"] = ns_per_call(calls, [&](std::size_t i) {
    clocks[i % na] += 3;
    acc += kern.argmin_i64(clocks.data(), na);
  });
  out["kernels.argmin_f64.ns_per_call"] = ns_per_call(calls, [&](std::size_t i) {
    fclocks[i % na] += 3.0;
    acc += kern.argmin_f64(fclocks.data(), na);
  });
  out["kernels.find_point.ns_per_call"] = ns_per_call(calls, [&](std::size_t i) {
    acc += kern.find_point(xs.data(), ys.data(), nt,
                           static_cast<std::int64_t>(i & 127) - 64, 65);
  });
  out["kernels.line_candidates.ns_per_call"] =
      ns_per_call(calls, [&](std::size_t i) {
        const double a = static_cast<double>(i & 1023) * 0.00614;
        acc += kern.line_candidates(fx.data(), fy.data(), nt, 0.0, 0.0,
                                    std::cos(a), std::sin(a), 1.0, idx.data());
      });
  out["kernels.window_gate.ns_per_call"] = ns_per_call(calls, [&](std::size_t i) {
    kern.window_gate(appear.data(), vanish.data(), nt,
                     static_cast<double>(i & 2047), gate.data());
    acc += static_cast<std::uint64_t>(gate[0]);
  });
  out["kernels.find_point_gated.ns_per_call"] =
      ns_per_call(calls, [&](std::size_t i) {
        acc += kern.find_point_gated(xs.data(), ys.data(), alive.data(), nt,
                                     static_cast<std::int64_t>(i & 127) - 64,
                                     65);
      });
  out["kernels.drift_positions.ns_per_call"] =
      ns_per_call(calls, [&](std::size_t i) {
        kern.drift_positions(xs.data(), ys.data(), vx.data(), vy.data(), nt,
                             static_cast<double>(i & 4095), ox.data(),
                             oy.data());
        acc += static_cast<std::uint64_t>(ox[0]);
      });
  out["kernels.dwell_advance.ns_per_call"] =
      ns_per_call(calls, [&](std::size_t i) {
        acc += kern.dwell_advance(xs.data(), ys.data(), alive.data(),
                                  found.data(), nt,
                                  static_cast<std::int64_t>(i & 127) - 64,
                                  static_cast<std::int64_t>(i >> 7 & 127) - 64,
                                  held.data(), 2, idx.data());
      });
  *sink += acc;
  return out;
}

void put(std::ostream& os, bool& first, const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << (first ? "" : ",") << "\"" << key << "\":" << buf;
  first = false;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool info = cli.get_bool("info", false);
  const std::string spec_path = cli.get_string("spec", "");
  const std::string work = cli.get_string("work", ".");
  const std::string out_path = cli.get_string("out", "");
  const std::string trace_path = cli.get_string("trace", "");
  cli.finish();

  namespace batch = sim::batch;
  if (info) {
    std::printf("{\"simd_level\": \"%s\", \"detected_simd_level\": \"%s\"}\n",
                batch::simd_level_name(batch::active_simd_level()),
                batch::simd_level_name(batch::detected_simd_level()));
    return 0;
  }
  if (spec_path.empty() || out_path.empty() || trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: perf_replay --info | --spec=FILE --work=DIR "
                 "--out=SUMMARY.json --trace=TRACE.json\n");
    return 2;
  }

  Spans spans;
  Totals tot;
  const std::size_t root = spans.begin("replay");
  std::size_t id = spans.begin("plan.parse");
  const std::vector<scenario::ScenarioSpec> specs =
      scenario::parse_spec_file(spec_path);
  tot.parse_s = seconds(spans.end(id));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    replay_scenario(specs[i], i, work, spans, tot);
  }
  spans.end(root);

  std::uint64_t sink = 0;
  const std::map<std::string, double> prims = time_primitives(
      static_cast<std::size_t>(tot.max_k), tot.max_targets, &sink);

  std::ofstream os(out_path);
  if (!os) throw std::runtime_error("cannot open " + out_path);
  os << "{\"metrics\":{";
  bool first = true;
  for (std::size_t b = 0; b < kBackendNames.size(); ++b) {
    const BackendStats& s = tot.exec[b];
    const std::string p = std::string("exec.") + kBackendNames[b];
    put(os, first, p + ".trials", static_cast<double>(s.trials));
    put(os, first, p + ".units", static_cast<double>(s.units));
    put(os, first, p + ".busy_s", seconds(s.busy_ns));
    put(os, first, p + ".ns_per_unit",
        s.units > 0 ? static_cast<double>(s.busy_ns) /
                          static_cast<double>(s.units)
                    : 0.0);
  }
  put(os, first, "exec.runner_builds", static_cast<double>(tot.runner_builds));
  put(os, first, "exec.runner_build_us",
      static_cast<double>(tot.runner_build_ns) / 1e3);
  put(os, first, "env.realize_ns_per_trial",
      tot.realized > 0 ? static_cast<double>(tot.realize_ns) /
                             static_cast<double>(tot.realized)
                       : 0.0);
  for (const auto& [name, value] : prims) put(os, first, name, value);
  put(os, first, "plan.parse_s", tot.parse_s);
  put(os, first, "plan.make_plan_s", tot.make_plan_s);
  put(os, first, "plan.build_s", tot.build_s);
  put(os, first, "plan.cells", static_cast<double>(tot.cells));
  put(os, first, "cache.store_us", static_cast<double>(tot.store_ns) / 1e3);
  put(os, first, "cache.lookup_us", static_cast<double>(tot.lookup_ns) / 1e3);
  put(os, first, "cache.bytes", static_cast<double>(tot.cache_bytes));
  put(os, first, "cache.hits", static_cast<double>(tot.hits));
  put(os, first, "cache.misses", static_cast<double>(tot.misses));
  put(os, first, "cache.corrupt", static_cast<double>(tot.corrupt));
  put(os, first, "artifact.write_s", tot.artifact_s);
  put(os, first, "artifact.bytes", static_cast<double>(tot.artifact_bytes));
  put(os, first, "merge.s", tot.merge_s);
  put(os, first, "merge.cells_per_s",
      tot.merge_s > 0 ? static_cast<double>(tot.cells) / tot.merge_s : 0.0);
  put(os, first, "sink.csv_s", tot.csv_s);
  os << "},\"self_s\":{";
  first = true;
  for (const auto& [name, value] : spans.self_seconds()) {
    put(os, first, name, value);
  }
  os << "},\"drained_fallbacks\":" << tot.drained_fallbacks
     << ",\"kernel_agents\":" << tot.max_k
     << ",\"kernel_targets\":" << tot.max_targets << ",\"simd_level\":\""
     << batch::simd_level_name(batch::active_simd_level())
     << "\",\"checksum\":" << sink << "}\n";
  if (!os) throw std::runtime_error("failed writing " + out_path);
  spans.write_chrome(trace_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(argc, argv);
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_replay: error: %s\n", e.what());
  return 1;
}
