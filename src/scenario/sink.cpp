#include "scenario/sink.h"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "scenario/agg_fields.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "sim/metrics.h"
#include "util/format.h"

namespace ants::scenario {

namespace {

std::string fmt(double v) { return util::fmt_compact(v); }

using ValueFn = std::string (*)(const ScenarioSpec&, const CellResult&);

struct Column {
  const char* name;
  ValueFn value;
};

const Column kColumns[] = {
    {"strategy",
     [](const ScenarioSpec&, const CellResult& r) {
       return r.cell.strategy_name;
     }},
    {"spec",
     [](const ScenarioSpec&, const CellResult& r) {
       return r.cell.strategy_spec;
     }},
    {"k",
     [](const ScenarioSpec&, const CellResult& r) {
       return std::to_string(r.cell.k);
     }},
    {"D",
     [](const ScenarioSpec&, const CellResult& r) {
       return std::to_string(r.cell.distance);
     }},
    {"placement",
     [](const ScenarioSpec&, const CellResult& r) {
       return r.cell.placement_spec;
     }},
    {"targets",
     [](const ScenarioSpec&, const CellResult& r) {
       return r.cell.targets_spec;
     }},
    {"schedule",
     [](const ScenarioSpec& spec, const CellResult&) {
       return parse_strategy_spec(spec.schedule).canonical();
     }},
    {"crash",
     [](const ScenarioSpec& spec, const CellResult&) {
       return parse_strategy_spec(spec.crash).canonical();
     }},
    {"trials",
     [](const ScenarioSpec& spec, const CellResult&) {
       return std::to_string(spec.trials);
     }},
    {"seed",
     [](const ScenarioSpec&, const CellResult& r) {
       return std::to_string(r.cell.seed);
     }},
    {"success",
     [](const ScenarioSpec&, const CellResult& r) {
       return util::fmt_fixed(r.stats.success_rate, 4);
     }},
    {"mean_time",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.mean);
     }},
    {"median_time",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.median);
     }},
    {"ci95",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.ci95_half());
     }},
    {"stddev",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.stddev);
     }},
    {"min_time",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.min);
     }},
    {"max_time",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.max);
     }},
    {"q25_time",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.q25);
     }},
    {"q75_time",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.q75);
     }},
    {"q95_time",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.time.q95);
     }},
    {"phi_mean",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.mean_competitiveness);
     }},
    {"phi_median",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.stats.median_competitiveness);
     }},
    {"optimal",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(sim::optimal_time(r.cell.distance, r.cell.k));
     }},
    {"from_last_mean",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.from_last_start.mean);
     }},
    {"from_last_median",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.from_last_start.median);
     }},
    {"mean_crashed",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.mean_crashed);
     }},
    {"survivors",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(static_cast<double>(r.cell.k) - r.mean_crashed);
     }},
    {"mean_last_start",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.mean_last_start);
     }},
    {"first_target",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.mean_first_target);
     }},
    {"capture",
     [](const ScenarioSpec& spec, const CellResult&) {
       return parse_strategy_spec(spec.capture).canonical();
     }},
    {"collect",
     [](const ScenarioSpec& spec, const CellResult&) { return spec.collect; }},
    {"targets_found",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.mean_targets_found);
     }},
    {"targets_spawned",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.mean_targets_spawned);
     }},
    {"found_before_vanish",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.found_before_vanish);
     }},
    // Under collect=all the race runs to the last find, so the cell's time
    // aggregate IS the time-to-all-found; surfacing it under its own name
    // keeps collect-all specs self-describing. -1 under collect=first.
    {"time_to_all",
     [](const ScenarioSpec& spec, const CellResult& r) {
       return spec.collect_all() ? fmt(r.stats.time.mean) : fmt(-1.0);
     }},
    {"target_time_0",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.target_time_mean[0]);
     }},
    {"target_time_1",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.target_time_mean[1]);
     }},
    {"target_time_2",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.target_time_mean[2]);
     }},
    {"target_time_3",
     [](const ScenarioSpec&, const CellResult& r) {
       return fmt(r.target_time_mean[3]);
     }},
    {"cached",
     [](const ScenarioSpec&, const CellResult& r) {
       return std::string(r.from_cache ? "1" : "0");
     }},
};

const Column* find_column(const std::string& name) {
  for (const Column& column : kColumns) {
    if (name == column.name) return &column;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> all_columns() {
  std::vector<std::string> out;
  for (const Column& column : kColumns) out.push_back(column.name);
  return out;
}

std::vector<std::string> default_columns() {
  return {"strategy",  "k",    "D",         "trials",   "success",
          "mean_time", "ci95", "median_time", "phi_mean", "phi_median"};
}

bool is_known_column(const std::string& column) {
  return find_column(column) != nullptr;
}

std::string column_value(const std::string& column, const ScenarioSpec& spec,
                         const CellResult& result) {
  const Column* c = find_column(column);
  if (c == nullptr) {
    throw std::invalid_argument("unknown result column '" + column + "'");
  }
  return c->value(spec, result);
}

void CsvSink::begin(const std::vector<std::string>& columns) {
  writer_ = std::make_unique<util::CsvWriter>(path_, columns);
}

void CsvSink::row(const std::vector<std::string>& cells) {
  writer_->add_row(cells);
}

void JsonlSink::begin(const std::vector<std::string>& columns) {
  columns_ = columns;
  out_ = std::make_unique<std::ofstream>(path_);
  if (!*out_) throw std::runtime_error("cannot open JSONL file: " + path_);
}

void JsonlSink::row(const std::vector<std::string>& cells) {
  std::string line = "{";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ",";
    line += "\"" + columns_[i] + "\":";
    char* end = nullptr;
    std::strtod(cells[i].c_str(), &end);
    const bool numeric =
        !cells[i].empty() && end == cells[i].c_str() + cells[i].size();
    if (numeric) {
      line += cells[i];
    } else {
      line += '"' + detail::json_escape(cells[i]) + '"';
    }
  }
  line += "}";
  *out_ << line << "\n";
}

void TableSink::begin(const std::vector<std::string>& columns) {
  table_ = std::make_unique<util::Table>(columns);
}

void TableSink::row(const std::vector<std::string>& cells) {
  table_->add_row(cells);
}

void TableSink::end() { table_->print(os_); }

void emit_results(const ScenarioSpec& spec,
                  const std::vector<CellResult>& results,
                  const std::vector<ResultSink*>& sinks) {
  const std::vector<std::string> columns =
      spec.columns.empty() ? default_columns() : spec.columns;
  for (ResultSink* sink : sinks) sink->begin(columns);
  for (const CellResult& result : results) {
    std::vector<std::string> cells;
    cells.reserve(columns.size());
    for (const std::string& column : columns) {
      cells.push_back(column_value(column, spec, result));
    }
    for (ResultSink* sink : sinks) sink->row(cells);
  }
  for (ResultSink* sink : sinks) sink->end();
}

// --- the shared aggregate table ---------------------------------------------

namespace {

/// The one definition of the aggregate table (agg_fields.h): the cache
/// journal and the binary shard artifact both index it, so the formats can
/// never drift apart field-by-field.
using detail::AggField;

constexpr AggField kAggFields[] = {
    {"n",
     [](const CellResult& r) { return static_cast<double>(r.stats.time.n); },
     [](CellResult& r, double v) {
       r.stats.time.n = static_cast<std::size_t>(v);
     }},
    {"distance",
     [](const CellResult& r) {
       return static_cast<double>(r.stats.distance);
     },
     [](CellResult& r, double v) {
       r.stats.distance = static_cast<std::int64_t>(v);
     }},
    {"k",
     [](const CellResult& r) { return static_cast<double>(r.stats.k); },
     [](CellResult& r, double v) {
       r.stats.k = static_cast<std::int64_t>(v);
     }},
    {"success_rate",
     [](const CellResult& r) { return r.stats.success_rate; },
     [](CellResult& r, double v) { r.stats.success_rate = v; }},
    {"mean", [](const CellResult& r) { return r.stats.time.mean; },
     [](CellResult& r, double v) { r.stats.time.mean = v; }},
    {"stddev", [](const CellResult& r) { return r.stats.time.stddev; },
     [](CellResult& r, double v) { r.stats.time.stddev = v; }},
    {"std_error", [](const CellResult& r) { return r.stats.time.std_error; },
     [](CellResult& r, double v) { r.stats.time.std_error = v; }},
    {"min", [](const CellResult& r) { return r.stats.time.min; },
     [](CellResult& r, double v) { r.stats.time.min = v; }},
    {"max", [](const CellResult& r) { return r.stats.time.max; },
     [](CellResult& r, double v) { r.stats.time.max = v; }},
    {"median", [](const CellResult& r) { return r.stats.time.median; },
     [](CellResult& r, double v) { r.stats.time.median = v; }},
    {"q25", [](const CellResult& r) { return r.stats.time.q25; },
     [](CellResult& r, double v) { r.stats.time.q25 = v; }},
    {"q75", [](const CellResult& r) { return r.stats.time.q75; },
     [](CellResult& r, double v) { r.stats.time.q75 = v; }},
    {"q95", [](const CellResult& r) { return r.stats.time.q95; },
     [](CellResult& r, double v) { r.stats.time.q95 = v; }},
    {"phi_mean",
     [](const CellResult& r) { return r.stats.mean_competitiveness; },
     [](CellResult& r, double v) { r.stats.mean_competitiveness = v; }},
    {"phi_median",
     [](const CellResult& r) { return r.stats.median_competitiveness; },
     [](CellResult& r, double v) { r.stats.median_competitiveness = v; }},
    {"from_last_mean",
     [](const CellResult& r) { return r.from_last_start.mean; },
     [](CellResult& r, double v) { r.from_last_start.mean = v; }},
    {"from_last_median",
     [](const CellResult& r) { return r.from_last_start.median; },
     [](CellResult& r, double v) { r.from_last_start.median = v; }},
    {"mean_crashed", [](const CellResult& r) { return r.mean_crashed; },
     [](CellResult& r, double v) { r.mean_crashed = v; }},
    {"mean_last_start",
     [](const CellResult& r) { return r.mean_last_start; },
     [](CellResult& r, double v) { r.mean_last_start = v; }},
    {"mean_first_target",
     [](const CellResult& r) { return r.mean_first_target; },
     [](CellResult& r, double v) { r.mean_first_target = v; }},
    // Target-process aggregates (v6). New fields append at the END: the
    // binary artifact's column order is this table's order.
    {"mean_targets_found",
     [](const CellResult& r) { return r.mean_targets_found; },
     [](CellResult& r, double v) { r.mean_targets_found = v; }},
    {"mean_targets_spawned",
     [](const CellResult& r) { return r.mean_targets_spawned; },
     [](CellResult& r, double v) { r.mean_targets_spawned = v; }},
    {"found_before_vanish",
     [](const CellResult& r) { return r.found_before_vanish; },
     [](CellResult& r, double v) { r.found_before_vanish = v; }},
    {"target_time_0",
     [](const CellResult& r) { return r.target_time_mean[0]; },
     [](CellResult& r, double v) { r.target_time_mean[0] = v; }},
    {"target_time_1",
     [](const CellResult& r) { return r.target_time_mean[1]; },
     [](CellResult& r, double v) { r.target_time_mean[1] = v; }},
    {"target_time_2",
     [](const CellResult& r) { return r.target_time_mean[2]; },
     [](CellResult& r, double v) { r.target_time_mean[2] = v; }},
    {"target_time_3",
     [](const CellResult& r) { return r.target_time_mean[3]; },
     [](CellResult& r, double v) { r.target_time_mean[3] = v; }},
};

}  // namespace

namespace detail {

const AggField* agg_fields() noexcept { return kAggFields; }

std::size_t agg_field_count() noexcept {
  return sizeof(kAggFields) / sizeof(kAggFields[0]);
}

std::string agg_field_names_blob() {
  std::string out;
  for (const AggField& field : kAggFields) {
    if (!out.empty()) out += '\n';
    out += field.name;
  }
  return out;
}

}  // namespace detail

}  // namespace ants::scenario
