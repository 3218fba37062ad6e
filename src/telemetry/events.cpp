#include "telemetry/events.h"

#include <stdexcept>
#include <utility>

#include "scenario/json.h"
#include "telemetry/metrics.h"
#include "util/format.h"

namespace ants::telemetry {

Event& Event::num(const std::string& name, std::int64_t value) {
  fields_.emplace_back(name, std::to_string(value));
  return *this;
}

Event& Event::num(const std::string& name, std::uint64_t value) {
  fields_.emplace_back(name, std::to_string(value));
  return *this;
}

Event& Event::num_ms(const std::string& name, double ms) {
  fields_.emplace_back(name, util::fmt_exact(ms));
  return *this;
}

Event& Event::str(const std::string& name, const std::string& value) {
  std::string quoted = "\"";  // += : see hash_spec in scenario/plan.cpp
  quoted += scenario::detail::json_escape(value);
  quoted += '"';
  fields_.emplace_back(name, std::move(quoted));
  return *this;
}

std::string Event::render(std::int64_t ts_ms) const {
  std::string line = "{\"event\":\"" + scenario::detail::json_escape(kind_) +
                     "\",\"ts_ms\":" + std::to_string(ts_ms);
  for (const auto& [name, raw] : fields_) {
    line += ",\"" + scenario::detail::json_escape(name) + "\":" + raw;
  }
  line += "}";
  return line;
}

EventLog::EventLog(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get()) {
  if (!*owned_) {
    throw std::runtime_error("cannot open event log: " + path);
  }
}

EventLog::EventLog(std::ostream& os) : out_(&os) {}

void EventLog::write(const Event& event) {
  const std::string line = event.render(wall_ms());
  const std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << "\n";
  // Per-line flush: the log's whole point is that a monitor reads it WHILE
  // the run is alive; buffered heartbeats would defeat it.
  out_->flush();
}

}  // namespace ants::telemetry
