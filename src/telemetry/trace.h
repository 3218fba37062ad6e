// Chrome trace-event collector: records where each worker thread's wall
// time went during a sweep and exports the Trace Event Format JSON that
// chrome://tracing and Perfetto load directly.
//
// Track layout: tid 0 is the "phases" track (plan / execute / merge
// spans); tid 1..N are one track per scheduler worker, showing which cell
// that worker was executing when. The executor records one block of trials
// at a time, and consecutive blocks of the SAME cell on the same worker
// coalesce into one span as they are recorded — the trace grows with the
// number of times a worker switches cells, not with the trial count.
//
// Timestamps are microseconds relative to the collector's construction
// (the Trace Event Format's native unit), taken from the steady clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ants::telemetry {

class TraceCollector {
 public:
  TraceCollector();

  /// Microsecond origin of the trace — spans are stored relative to it.
  std::int64_t t0_us() const noexcept { return t0_us_; }

  /// Declares the worker tracks of an upcoming execute phase and the
  /// display labels of the cells they will run (index-parallel to the
  /// `cell` argument of record_trials). Must be called before
  /// record_trials; folds any previous execute phase's runs first.
  void begin_workers(unsigned n_workers, std::vector<std::string> cell_labels);

  /// Records `n` trials of `cell` run on `worker` from start_us to end_us
  /// (one block). Lock-free across workers: each worker index owns its
  /// buffer slot, so the cost is a branch and (rarely) a vector push. Call
  /// only between begin_workers and end_workers, with worker < n_workers.
  void record_trials(unsigned worker, std::size_t cell, std::int64_t start_us,
                     std::int64_t end_us, std::uint64_t n);

  /// Folds the per-worker run buffers into finished spans. Called by the
  /// executor after its parallel_for joins.
  void end_workers();

  /// A span on the phases track (tid 0): plan / execute / merge.
  void add_phase_span(const std::string& name, std::int64_t start_us,
                      std::int64_t end_us);

  /// Writes the collected trace as Trace Event Format JSON (single line:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}). Throws
  /// std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

  /// The serialized trace (what write() puts in the file) — for tests.
  std::string render() const;

 private:
  struct Span {
    std::string name;
    int tid = 0;
    std::int64_t start_us = 0;  ///< relative to t0_us_
    std::int64_t end_us = 0;
    std::uint64_t trials = 0;  ///< 0 = not a cell span
  };
  /// A coalesced stretch of same-cell trials on one worker.
  struct Run {
    std::size_t cell = 0;
    std::int64_t start_us = 0;
    std::int64_t end_us = 0;
    std::uint64_t trials = 0;
  };

  void fold_workers_locked();

  std::int64_t t0_us_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::vector<Run>> worker_runs_;
  std::vector<std::string> cell_labels_;
  unsigned max_workers_seen_ = 0;
};

}  // namespace ants::telemetry
