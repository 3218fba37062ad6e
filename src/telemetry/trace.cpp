#include "telemetry/trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "scenario/json.h"
#include "telemetry/metrics.h"

namespace ants::telemetry {

TraceCollector::TraceCollector() : t0_us_(now_us()) {}

void TraceCollector::begin_workers(unsigned n_workers,
                                   std::vector<std::string> cell_labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  fold_workers_locked();
  worker_runs_.assign(n_workers, {});
  cell_labels_ = std::move(cell_labels);
  max_workers_seen_ = std::max(max_workers_seen_, n_workers);
}

void TraceCollector::record_trials(unsigned worker, std::size_t cell,
                                   std::int64_t start_us, std::int64_t end_us,
                                   std::uint64_t n) {
  // No lock: `worker` indexes a slot only that worker touches, and the
  // outer vector is sized before the workers start.
  auto& runs = worker_runs_[worker];
  if (!runs.empty() && runs.back().cell == cell) {
    runs.back().end_us = end_us;
    runs.back().trials += n;
    return;
  }
  runs.push_back(Run{cell, start_us, end_us, n});
}

void TraceCollector::end_workers() {
  const std::lock_guard<std::mutex> lock(mutex_);
  fold_workers_locked();
}

void TraceCollector::fold_workers_locked() {
  for (std::size_t w = 0; w < worker_runs_.size(); ++w) {
    for (const Run& run : worker_runs_[w]) {
      const std::string name = run.cell < cell_labels_.size()
                                   ? cell_labels_[run.cell]
                                   : "cell " + std::to_string(run.cell);
      spans_.push_back(Span{name, static_cast<int>(w) + 1,
                            run.start_us - t0_us_, run.end_us - t0_us_,
                            run.trials});
    }
  }
  worker_runs_.clear();
  cell_labels_.clear();
}

void TraceCollector::add_phase_span(const std::string& name,
                                    std::int64_t start_us,
                                    std::int64_t end_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, 0, start_us - t0_us_, end_us - t0_us_, 0});
}

std::string TraceCollector::render() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& piece) {
    if (!first) out += ",";
    first = false;
    out += piece;
  };

  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
       "\"args\":{\"name\":\"search_lab\"}}");
  emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
       "\"args\":{\"name\":\"phases\"}}");
  for (unsigned w = 0; w < max_workers_seen_; ++w) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
         std::to_string(w + 1) + ",\"args\":{\"name\":\"worker " +
         std::to_string(w) + "\"}}");
  }

  for (const Span& span : spans_) {
    const std::int64_t dur = std::max<std::int64_t>(
        span.end_us - span.start_us, 1);  // zero-width slices vanish in UIs
    std::string piece =
        "{\"name\":\"" + scenario::detail::json_escape(span.name) +
        "\",\"ph\":\"X\",\"ts\":" + std::to_string(span.start_us) +
        ",\"dur\":" + std::to_string(dur) +
        ",\"pid\":0,\"tid\":" + std::to_string(span.tid);
    if (span.trials > 0) {
      piece += ",\"args\":{\"trials\":" + std::to_string(span.trials) + "}";
    }
    piece += "}";
    emit(piece);
  }

  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void TraceCollector::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open trace file: " + path);
  os << render() << "\n";
  if (!os) throw std::runtime_error("failed writing trace file: " + path);
}

}  // namespace ants::telemetry
