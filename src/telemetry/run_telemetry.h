// RunTelemetry: the one object a sweep carries when observability is on.
// It owns the run's counters/timers/sketch (metrics.h), the optional JSONL
// event log (events.h), and the optional Chrome trace (trace.h), and turns
// the executor's hook calls into all three at once.
//
// The sweep core never constructs one — SweepOptions carries a nullable
// pointer, and every call site guards on it, so a run without telemetry
// pays one branch per hook. See metrics.h for the strict-observation
// contract (no effect on results, cache keys, or seeds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ants::telemetry {

struct TelemetryConfig {
  std::string events_path;  ///< JSONL event log ("" = off)
  std::string trace_path;   ///< Chrome trace JSON ("" = off)
  /// Minimum wall time between heartbeat events. Heartbeats piggyback on
  /// cell completions (no dedicated thread), so a single very long cell
  /// emits none — the cell_start before it is the liveness signal there.
  std::int64_t heartbeat_interval_ms = 1000;
};

enum class Phase { kPlan, kExecute, kMerge };

class RunTelemetry {
 public:
  /// Opens the configured sinks eagerly; throws std::runtime_error when an
  /// events/trace path cannot be created.
  explicit RunTelemetry(TelemetryConfig config = {});
  /// Test constructor: the event log writes to `events_os` (which must
  /// outlive this object) and the trace collector is always on.
  RunTelemetry(TelemetryConfig config, std::ostream& events_os);

  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  /// Declares the run and emits run_start. `shard`/`n_shards` are the
  /// 1-based shard coordinates of a sharded run; shard = 0 with
  /// n_shards = 0 means an unsharded run (reported as shard 0 of 1).
  void begin_run(const std::string& scenario, std::uint64_t cells,
                 std::uint64_t trials_per_cell, std::size_t shard = 0,
                 std::size_t n_shards = 0);

  void record_cache_hit() { metrics_.cache_hits.add(); }
  void record_cache_miss() { metrics_.cache_misses.add(); }
  /// A cache entry existed but failed to parse/verify (treated as a miss by
  /// the sweep; counted separately as an operational signal). `n` > 1
  /// reports a batch — e.g. torn journal records skipped in one pack load.
  void record_cache_corrupt(std::uint64_t n = 1) {
    metrics_.cache_corrupt.add(n);
  }
  /// The batch executor delegated `n` trials to the scalar plane engine
  /// (plane strategies under a dynamic target process — the one remaining
  /// fallback; grid cells never delegate). Drained per trial block by the
  /// sweep from BatchRunner::take_scalar_fallbacks.
  void record_batch_scalar_fallback(std::uint64_t n) {
    metrics_.batch_scalar_fallback.add(n);
  }

  /// First trial of a cell has started executing.
  void cell_start(std::size_t cell, const std::string& name, std::int64_t k,
                  std::int64_t distance);

  /// A cell finished — either computed (duration/trials real) or served
  /// from cache (cached = true, duration_us = 0, trials = 0). `done`/`total`
  /// drive the piggybacked heartbeat.
  void cell_end(std::size_t cell, const std::string& name, std::int64_t k,
                std::int64_t distance, bool cached, std::int64_t duration_us,
                std::uint64_t trials, std::uint64_t done, std::uint64_t total);

  /// Adds `us` to a phase timer directly (for phases timed by the caller).
  void add_phase_us(Phase phase, std::int64_t us);

  /// RAII phase section: accumulates the phase timer and, when tracing,
  /// drops a span on the phases track. Null telemetry = no-op.
  class PhaseScope {
   public:
    PhaseScope(RunTelemetry* telemetry, Phase phase) noexcept
        : telemetry_(telemetry), phase_(phase),
          start_us_(telemetry ? now_us() : 0) {}
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    RunTelemetry* telemetry_;
    Phase phase_;
    std::int64_t start_us_;
  };

  /// The trace collector, or nullptr when tracing is off. The executor
  /// calls begin_workers/record_trials/end_workers on it directly.
  TraceCollector* trace() { return trace_.get(); }

  /// Emits run_end and, when tracing, writes the trace file. Idempotent.
  void finish();

  /// Snapshot of everything counted so far as the serializable record.
  RunMetrics snapshot() const;

  /// metrics_to_json(snapshot(), ...) with the identity begin_run declared.
  std::string metrics_json() const;

  const std::string& scenario() const { return scenario_; }
  std::size_t shard() const { return shard_; }
  std::size_t n_shards() const { return n_shards_; }

 private:
  struct LiveMetrics {
    Counter cells_computed;
    Counter cells_cached;
    Counter trials_executed;
    Counter cache_hits;
    Counter cache_misses;
    Counter cache_corrupt;
    Counter batch_scalar_fallback;
    Timer plan;
    Timer execute;
    Timer merge;
    DurationSketch cell_duration;
  };

  void add_phase_span(Phase phase, std::int64_t start_us, std::int64_t end_us);
  static const char* phase_name(Phase phase);

  TelemetryConfig config_;
  std::unique_ptr<EventLog> events_;
  std::unique_ptr<TraceCollector> trace_;
  LiveMetrics metrics_;

  std::string scenario_;
  std::uint64_t cells_total_ = 0;
  std::size_t shard_ = 0;
  std::size_t n_shards_ = 1;
  std::int64_t run_start_us_ = 0;
  std::atomic<std::int64_t> last_heartbeat_ms_{0};
  bool finished_ = false;
};

}  // namespace ants::telemetry
