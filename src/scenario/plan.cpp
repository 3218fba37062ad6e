#include "scenario/plan.h"

#include <map>
#include <sstream>
#include <utility>

#include "rng/splitmix64.h"
#include "scenario/environment.h"
#include "scenario/registry.h"
#include "scenario/text.h"

namespace ants::scenario {

namespace {

/// v6: targets became a per-trial PROCESS (poisson/drift windows, dwell
/// capture, collect-all) — capture/collect joined the cell key and the
/// target-process aggregates joined the cache record. v5:
/// cache_store/artifact records gained the shard pipeline's exact double
/// serialization and per-cell mid-run persistence. v4: plane-level
/// strategies run under the full environment (schedule/crash/targets)
/// through the unified executor. v3: the target set became a per-cell axis
/// and mean_first_target joined the cache record.
constexpr int kCellFormatVersion = 6;

std::uint64_t cell_hash(const ScenarioSpec& spec, const std::string& strategy,
                        std::int64_t k, std::int64_t distance,
                        const std::string& placement,
                        const std::string& targets,
                        const std::string& schedule,
                        const std::string& crash,
                        const std::string& capture) {
  std::ostringstream key;
  key << "v" << kCellFormatVersion << "|" << strategy << "|k=" << k
      << "|d=" << distance << "|placement=" << placement
      << "|targets=" << targets << "|schedule=" << schedule
      << "|crash=" << crash << "|capture=" << capture
      << "|collect=" << spec.collect << "|trials=" << spec.trials
      << "|seed=" << spec.seed << "|cap=" << spec.time_cap;
  return hash_text(key.str());
}

}  // namespace

int cell_format_version() noexcept { return kCellFormatVersion; }

std::vector<Cell> flatten(const ScenarioSpec& spec) {
  const std::vector<std::shared_ptr<const BuiltStrategy>> first_k_builds =
      spec.validate();
  const std::string schedule = canonical_schedule_spec(spec.schedule);
  const std::string crash = canonical_crash_spec(spec.crash);
  const std::string capture = canonical_capture_spec(spec.capture);
  std::vector<std::string> placements;
  for (const std::string& p : spec.placements) {
    placements.push_back(canonical_placement_spec(p));
  }
  std::vector<std::string> targets;
  for (const std::string& t : spec.targets) {
    targets.push_back(canonical_targets_spec(t));
  }

  std::vector<Cell> cells;
  cells.reserve(spec.strategies.size() * spec.ks.size() *
                spec.distances.size() * placements.size() * targets.size());
  for (std::size_t si = 0; si < spec.strategies.size(); ++si) {
    const StrategySpec parsed = parse_strategy_spec(spec.strategies[si]);
    const std::string canonical = parsed.canonical();
    // A strategy depends on k ("$k" defaults), never on the distance,
    // placement, or targets: one build per (strategy, k), starting from the
    // one validation made at the grid's first k.
    std::map<std::int64_t, std::shared_ptr<const BuiltStrategy>> by_k = {
        {spec.ks.front(), first_k_builds[si]}};
    for (const std::int64_t k : spec.ks) {
      std::shared_ptr<const BuiltStrategy>& built = by_k[k];
      if (built == nullptr) {
        built = std::make_shared<const BuiltStrategy>(Registry::instance().make(
            parsed, BuildContext{static_cast<int>(k)}));
      }
      const std::string display = built->display_name();
      for (const std::int64_t d : spec.distances) {
        for (std::size_t pi = 0; pi < placements.size(); ++pi) {
          for (std::size_t ti = 0; ti < targets.size(); ++ti) {
            Cell cell;
            cell.strategy_index = si;
            cell.strategy_spec = canonical;
            cell.strategy_name = display;
            cell.built = built;
            cell.placement_index = pi;
            cell.placement_spec = placements[pi];
            cell.targets_index = ti;
            cell.targets_spec = targets[ti];
            cell.k = k;
            cell.distance = d;
            cell.seed = rng::mix_seed(
                spec.seed, rng::mix_seed(static_cast<std::uint64_t>(k),
                                         static_cast<std::uint64_t>(d)));
            cell.hash = cell_hash(spec, canonical, k, d, placements[pi],
                                  targets[ti], schedule, crash, capture);
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

std::uint64_t hash_spec(const ScenarioSpec& spec) {
  // Built with += : g++ 12 reads the inlined "literal" + std::string&& as
  // an overlapping memcpy (-Wrestrict) and warns on every build.
  std::string text = "v";
  text += std::to_string(kCellFormatVersion);
  text += '|';
  text += spec.canonical();
  return hash_text(text);
}

SweepPlan make_plan(const ScenarioSpec& spec) {
  SweepPlan plan;
  plan.spec = spec;
  plan.cells = flatten(spec);
  plan.spec_hash = hash_spec(spec);
  return plan;
}

std::size_t shard_of_cell(std::size_t cell_index,
                          std::size_t n_shards) noexcept {
  return n_shards == 0 ? 0 : cell_index % n_shards + 1;
}

std::vector<std::size_t> shard_cell_indices(const SweepPlan& plan,
                                            std::size_t shard,
                                            std::size_t n_shards) {
  if (n_shards == 0) detail::bad("shard split: n_shards must be >= 1");
  if (shard < 1 || shard > n_shards) {
    detail::bad("shard split: shard " + std::to_string(shard) +
                " outside [1, " + std::to_string(n_shards) + "]");
  }
  std::vector<std::size_t> indices;
  indices.reserve(plan.cells.size() / n_shards + 1);
  for (std::size_t i = shard - 1; i < plan.cells.size(); i += n_shards) {
    indices.push_back(i);
  }
  return indices;
}

}  // namespace ants::scenario
