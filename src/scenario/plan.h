// Plan layer of the sweep pipeline: a ScenarioSpec flattened into its
// deterministic cell list, plus the sharding arithmetic that partitions
// those cells across processes.
//
// The three-layer contract (plan -> execute -> merge):
//
//   plan     make_plan(spec) flattens the spec into cells in a pinned order
//            and stamps the plan with a spec hash. Shard membership is a
//            pure function of (cell index, n_shards) — never of timing,
//            thread count, or which host runs the shard — so every process
//            that parses the same spec derives the identical partition.
//   execute  run_shard (sweep.h) runs exactly one shard's cells through the
//            unified executor and writes a self-describing binary artifact.
//   merge    merge_shards (sweep.h) reassembles artifacts into the
//            canonical CellResult vector, which feeds the sinks unchanged.
//
// The headline invariant (test-enforced at library and search_lab-binary
// level): merging the artifacts of ANY shard count reproduces the
// single-process run_sweep output byte-for-byte, because cell seeds and
// trial RNG streams depend only on the spec — sharding changes where a cell
// runs, never what it computes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/spec.h"

namespace ants::scenario {

/// One unit of the flattened sweep.
struct Cell {
  std::size_t strategy_index = 0;   ///< into spec.strategies
  std::string strategy_spec;        ///< canonical registry spec string
  std::string strategy_name;        ///< display name of the built strategy
  /// The strategy built for (strategy_index, k) — one object shared by every
  /// cell of that pair and read-only across scheduler threads. The plan is
  /// the one place strategies are built; execution runs this object.
  std::shared_ptr<const BuiltStrategy> built;
  std::size_t placement_index = 0;  ///< into spec.placements
  std::string placement_spec;       ///< canonical placement spec string
  std::size_t targets_index = 0;    ///< into spec.targets
  std::string targets_spec;         ///< canonical target-set spec string
  std::int64_t k = 1;
  std::int64_t distance = 1;
  std::uint64_t seed = 0;  ///< derived cell seed (see sweep.h)
  std::uint64_t hash = 0;  ///< cache key over the cell + run parameters
};

/// The cell execution / cache / shard-artifact format version. Bump when
/// cell execution or the serialized aggregate record changes in any way
/// that invalidates previously stored entries; cache keys and shard
/// artifacts both carry it, so stale artifacts are rejected at merge time
/// instead of silently mixing incompatible numbers.
int cell_format_version() noexcept;

/// The cells of a spec in deterministic order: strategies outermost, then
/// ks, then distances, then placements, then targets — cell
/// (si, ki, di, pi, ti) lands at index
/// (((si * ks.size() + ki) * distances.size() + di) * placements.size() +
/// pi) * targets.size() + ti. Validates the spec and builds each
/// (strategy, k) exactly once (validation's builds at ks.front() included).
std::vector<Cell> flatten(const ScenarioSpec& spec);

/// Hash over the canonical spec text and the cell format version — the
/// compatibility stamp shard artifacts carry. Two processes agree on it iff
/// they parsed equivalent specs AND serialize cells the same way.
std::uint64_t hash_spec(const ScenarioSpec& spec);

/// A flattened spec ready for sharded execution.
struct SweepPlan {
  ScenarioSpec spec;
  std::vector<Cell> cells;  ///< flatten(spec), in canonical cell order
  std::uint64_t spec_hash = 0;  ///< hash_spec(spec)
};

SweepPlan make_plan(const ScenarioSpec& spec);

/// The 1-based shard that owns cell `cell_index` under an `n_shards`-way
/// split: round-robin by cell index, so adjacent (and similarly sized)
/// cells spread across shards instead of one shard drawing a contiguous
/// block of the most expensive strategy.
std::size_t shard_of_cell(std::size_t cell_index,
                          std::size_t n_shards) noexcept;

/// The plan's cell indices owned by shard `shard` (1-based, <= n_shards),
/// in ascending order. Throws std::invalid_argument on a shard outside
/// [1, n_shards] or n_shards == 0. A shard may own zero cells when
/// n_shards exceeds the cell count.
std::vector<std::size_t> shard_cell_indices(const SweepPlan& plan,
                                            std::size_t shard,
                                            std::size_t n_shards);

}  // namespace ants::scenario
