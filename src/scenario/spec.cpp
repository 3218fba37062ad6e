#include "scenario/spec.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "scenario/environment.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/text.h"

namespace ants::scenario {

namespace {

using detail::bad;
using detail::JsonLineParser;
using detail::JsonValue;
using detail::split_top_level;
using detail::trim;

std::int64_t to_int(const std::string& context, const std::string& value) {
  return detail::parse_int64(context, value);
}

std::uint64_t to_uint(const std::string& context, const std::string& value) {
  return detail::parse_uint64(context, value);
}

// ---------------------------------------------------------------------------
// JSON-line scenarios: the shared minimal parser (scenario/json.h) feeds the
// same field-assignment funnel as the text form.

std::string json_scalar_to_text(const std::string& context,
                                const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kString:
    case JsonValue::Kind::kNumber:
      return v.string;
    case JsonValue::Kind::kBool:
      return v.boolean ? "true" : "false";
    case JsonValue::Kind::kArray:
    case JsonValue::Kind::kObject:
      break;
  }
  bad(context + ": expected a scalar");
}

// ---------------------------------------------------------------------------
// Shared field assignment: both on-disk forms funnel into key/value(s).

/// The keys one scenario has set so far, by canonical name ("ds" counts as
/// "distances", "placement" as "placements"): the spelling used and the
/// line that set it (0 inside a JSON object).
struct SetKey {
  std::string spelling;
  int line = 0;
};
using SetKeys = std::map<std::string, SetKey>;

/// Sets one field. A key the scenario already set is an error, not an
/// overwrite: in a text file it usually means a missing blank line merged
/// two scenarios, and the first would silently vanish.
void assign_field(ScenarioSpec& spec, SetKeys& set, int line,
                  const std::string& key, const std::string& value,
                  const std::vector<std::string>& list) {
  const std::string canonical = key == "ds"          ? "distances"
                                : key == "placement" ? "placements"
                                                     : key;
  const auto [it, fresh] = set.try_emplace(canonical, SetKey{key, line});
  if (!fresh) {
    const std::string first = "key '" + key + "' repeats '" +
                              it->second.spelling + "'";
    if (line == 0) bad(first + " in one JSON object");
    bad(first + " from line " + std::to_string(it->second.line) +
        "; separate scenarios with a blank line");
  }
  if (key == "name") {
    spec.name = value;
  } else if (key == "strategies") {
    spec.strategies = list;
  } else if (key == "ks") {
    spec.ks.clear();
    for (const auto& piece : list) spec.ks.push_back(to_int("ks", piece));
  } else if (key == "distances" || key == "ds") {
    spec.distances.clear();
    for (const auto& piece : list)
      spec.distances.push_back(to_int("distances", piece));
  } else if (key == "placement" || key == "placements") {
    spec.placements = list;
  } else if (key == "targets") {
    spec.targets = list;
  } else if (key == "schedule") {
    spec.schedule = value;
  } else if (key == "crash") {
    spec.crash = value;
  } else if (key == "capture") {
    spec.capture = value;
  } else if (key == "collect") {
    spec.collect = value;
  } else if (key == "trials") {
    spec.trials = to_int("trials", value);
  } else if (key == "seed") {
    spec.seed = to_uint("seed", value);
  } else if (key == "time_cap") {
    spec.time_cap = to_int("time_cap", value);
  } else if (key == "columns") {
    spec.columns = list;
  } else {
    bad("unknown scenario key '" + key + "'");
  }
}

ScenarioSpec spec_from_json_line(const std::string& line) {
  ScenarioSpec spec;
  SetKeys set;
  JsonLineParser parser(line);
  for (const auto& [key, value] : parser.parse_object()) {
    std::vector<std::string> list;
    std::string scalar;
    if (value.kind == JsonValue::Kind::kArray) {
      for (const JsonValue& item : value.array)
        list.push_back(json_scalar_to_text(key, item));
    } else {
      scalar = json_scalar_to_text(key, value);
      list = {scalar};
    }
    assign_field(spec, set, 0, key, scalar, list);
  }
  return spec;
}

}  // namespace

std::uint64_t hash_text(const std::string& text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

std::vector<std::shared_ptr<const BuiltStrategy>> ScenarioSpec::validate()
    const {
  if (strategies.empty()) bad("scenario '" + name + "': no strategies");
  if (ks.empty()) bad("scenario '" + name + "': empty k grid");
  if (distances.empty()) bad("scenario '" + name + "': empty distance grid");
  if (trials < 1) bad("scenario '" + name + "': trials must be >= 1");
  if (time_cap < 0) bad("scenario '" + name + "': time_cap must be >= 0");
  for (const std::int64_t k : ks) {
    // The engines take k as int; reject rather than silently truncate.
    if (k < 1 || k > std::numeric_limits<int>::max()) {
      bad("scenario '" + name + "': k must be in [1, " +
          std::to_string(std::numeric_limits<int>::max()) + "]");
    }
  }
  for (const std::int64_t d : distances) {
    if (d < 1) bad("scenario '" + name + "': distance must be >= 1");
  }
  if (placements.empty()) bad("scenario '" + name + "': empty placement grid");
  if (targets.empty()) bad("scenario '" + name + "': empty targets grid");
  // Canonicalizing surfaces unknown names, unknown/malformed parameters,
  // and range errors up front rather than mid-sweep.
  for (const std::string& p : placements) (void)canonical_placement_spec(p);
  for (const std::string& t : targets) (void)canonical_targets_spec(t);
  (void)canonical_schedule_spec(schedule);
  (void)canonical_crash_spec(crash);
  (void)canonical_capture_spec(capture);
  if (collect != "first" && collect != "all") {
    bad("scenario '" + name + "': collect must be 'first' or 'all'");
  }
  // Dynamic target processes, dwell capture, and collect-all all need the
  // trial horizon: arrivals are realized over (0, time_cap] and unfound
  // targets censor at the cap.
  if (is_dynamic() && time_cap == 0) {
    bad("scenario '" + name +
        "': dynamic targets / dwell capture / collect=all require a finite "
        "time_cap");
  }
  const bool step_only_targets = [&] {
    for (const std::string& t : targets) {
      if (is_step_only_targets(t)) return true;
    }
    return false;
  }();
  // A fixed schedule carries one delay per agent; every k in the grid must
  // match it, or FixedStart would throw mid-sweep.
  if (const std::size_t delays = fixed_schedule_delay_count(schedule);
      delays > 0) {
    for (const std::int64_t k : ks) {
      if (static_cast<std::size_t>(k) != delays) {
        bad("scenario '" + name + "': fixed schedule has " +
            std::to_string(delays) + " delays but the grid contains k=" +
            std::to_string(k));
      }
    }
  }
  // Building each strategy at the grid's first k surfaces unknown names,
  // unknown/malformed parameters, and constructor range errors up front
  // rather than mid-sweep; the builds are handed back for the plan to keep.
  // The unified executor gives EVERY strategy family — segment-, step-, and
  // plane-level — the full environment (schedule, crash, targets), so no
  // per-family axis rejections remain; only the finite-cap requirements
  // below.
  const BuildContext ctx{static_cast<int>(ks.front())};
  std::vector<std::shared_ptr<const BuiltStrategy>> builds;
  builds.reserve(strategies.size());
  for (const std::string& s : strategies) {
    const auto& built = builds.emplace_back(
        std::make_shared<const BuiltStrategy>(
            Registry::instance().make(s, ctx)));
    if (built->is_step() && time_cap == 0) {
      bad("scenario '" + name + "': step-level strategy '" + s +
          "' requires a finite time_cap");
    }
    if (built->is_plane() && time_cap == 0) {
      bad("scenario '" + name + "': plane-level strategy '" + s +
          "' requires a finite time_cap");
    }
    // Per-tick target positions / contact dwell only exist on the lock-step
    // backend, so these axes restrict the whole strategy list.
    if (!built->is_step() && step_only_targets) {
      bad("scenario '" + name + "': targets 'drift' requires step-level "
          "strategies, but '" + s + "' is not");
    }
    if (!built->is_step() && capture_dwell() > 0) {
      bad("scenario '" + name + "': capture 'dwell' requires step-level "
          "strategies, but '" + s + "' is not");
    }
  }
  for (const std::string& column : columns) {
    if (!is_known_column(column)) {
      bad("scenario '" + name + "': unknown column '" + column + "'");
    }
  }
  return builds;
}

std::string ScenarioSpec::canonical() const {
  const auto join = [](const std::vector<std::string>& items) {
    std::string out;
    for (const auto& item : items) {
      if (!out.empty()) out += ", ";
      out += item;
    }
    return out;
  };
  std::vector<std::string> strategy_texts, k_texts, d_texts, p_texts, t_texts;
  for (const auto& s : strategies)
    strategy_texts.push_back(parse_strategy_spec(s).canonical());
  for (const auto k : ks) k_texts.push_back(std::to_string(k));
  for (const auto d : distances) d_texts.push_back(std::to_string(d));
  for (const auto& p : placements)
    p_texts.push_back(parse_strategy_spec(p).canonical());
  for (const auto& t : targets)
    t_texts.push_back(parse_strategy_spec(t).canonical());

  std::ostringstream out;
  out << "name = " << name << "\n"
      << "strategies = " << join(strategy_texts) << "\n"
      << "ks = " << join(k_texts) << "\n"
      << "distances = " << join(d_texts) << "\n"
      << "placements = " << join(p_texts) << "\n"
      << "targets = " << join(t_texts) << "\n"
      << "schedule = " << parse_strategy_spec(schedule).canonical() << "\n"
      << "crash = " << parse_strategy_spec(crash).canonical() << "\n"
      << "capture = " << parse_strategy_spec(capture).canonical() << "\n"
      << "collect = " << collect << "\n"
      << "trials = " << trials << "\n"
      << "seed = " << seed << "\n"
      << "time_cap = " << time_cap << "\n";
  if (!columns.empty()) out << "columns = " << join(columns) << "\n";
  return out.str();
}

bool ScenarioSpec::is_async() const {
  return !is_sync_schedule(schedule) || !is_no_crash(crash);
}

bool ScenarioSpec::is_multi_target() const {
  for (const std::string& t : targets) {
    if (!is_single_targets(t)) return true;
  }
  return false;
}

bool ScenarioSpec::is_dynamic() const {
  if (capture_dwell() > 0 || collect_all()) return true;
  for (const std::string& t : targets) {
    if (is_dynamic_targets(t)) return true;
  }
  return false;
}

sim::Time ScenarioSpec::capture_dwell() const {
  return capture_dwell_ticks(capture);
}

std::vector<ScenarioSpec> parse_spec_text(const std::string& text) {
  std::vector<ScenarioSpec> out;
  ScenarioSpec current;
  SetKeys current_keys;
  bool in_block = false;
  int line_number = 0;

  const auto flush = [&] {
    if (in_block) out.push_back(current);
    current = ScenarioSpec{};
    current_keys.clear();
    in_block = false;
  };

  std::istringstream lines(text);
  std::string raw;
  while (std::getline(lines, raw)) {
    ++line_number;
    const std::string line = trim(raw);
    try {
      if (line.empty()) {
        flush();
        continue;
      }
      if (line[0] == '#') continue;
      if (line[0] == '{') {
        flush();
        out.push_back(spec_from_json_line(line));
        continue;
      }
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        bad("expected 'key = value' or a JSON object");
      }
      const std::string key = trim(line.substr(0, eq));
      const std::string value = trim(line.substr(eq + 1));
      assign_field(current, current_keys, line_number, key, value,
                   split_top_level(value, ','));
      in_block = true;
    } catch (const std::invalid_argument& e) {
      bad("scenario spec line " + std::to_string(line_number) + ": " +
          e.what());
    }
  }
  flush();
  return out;
}

std::vector<ScenarioSpec> parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) bad("cannot open scenario spec file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_spec_text(buffer.str());
}

ScenarioSpec spec_from_cli(util::Cli& cli) {
  ScenarioSpec spec;
  spec.name = cli.get_string("scenario-name", spec.name);
  const std::string strategies = cli.get_string("strategies", "");
  if (!strategies.empty()) {
    // ';' separation never collides with parameter lists; plain ',' works
    // too because the split respects parentheses.
    spec.strategies = split_top_level(
        strategies, strategies.find(';') != std::string::npos ? ';' : ',');
  }
  spec.ks = cli.get_int_list("ks", spec.ks);
  spec.distances = cli.get_int_list("ds", spec.distances);
  const std::string placements = cli.get_string("placement", "");
  if (!placements.empty()) {
    spec.placements = split_top_level(placements, ',');
  }
  const std::string targets = cli.get_string("targets", "");
  if (!targets.empty()) {
    spec.targets = split_top_level(targets, ',');
  }
  spec.schedule = cli.get_string("schedule", spec.schedule);
  spec.crash = cli.get_string("crash", spec.crash);
  spec.capture = cli.get_string("capture", spec.capture);
  spec.collect = cli.get_string("collect", spec.collect);
  spec.trials = cli.get_int("trials", spec.trials);
  // Parsed as uint64 like the spec-file forms — get_int would reject the
  // upper half of the seed space.
  spec.seed = detail::parse_uint64(
      "seed", cli.get_string("seed", std::to_string(spec.seed)));
  spec.time_cap = cli.get_int("time-cap", spec.time_cap);
  const std::string columns = cli.get_string("columns", "");
  if (!columns.empty()) spec.columns = split_top_level(columns, ',');
  return spec;
}

}  // namespace ants::scenario
