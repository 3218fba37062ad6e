// The shared aggregate serialization table behind every persisted form of a
// CellResult.
//
// Two formats serialize the same aggregate field set: the cache journal
// (cache_pack.h) and the binary columnar shard artifact (artifact.h). Both
// index THIS table — one (name, getter, setter) triple per aggregate,
// defined once in sink.cpp — so the formats can never drift apart
// field-by-field: adding an aggregate here adds it everywhere, and the
// record and column order is the table order by construction.
#pragma once

#include <cstddef>
#include <string>

#include "scenario/sweep.h"

namespace ants::scenario::detail {

/// One serialized aggregate of a CellResult.
struct AggField {
  const char* name;
  double (*get)(const CellResult&);
  void (*set)(CellResult&, double);
};

/// The table (pointer to the first of agg_field_count() entries), in
/// serialization order. Stable within one build; cell_format_version()
/// stamps any change that would reorder or resize it.
const AggField* agg_fields() noexcept;
std::size_t agg_field_count() noexcept;

/// The table's names joined with '\n' — the self-description blob binary
/// artifacts and cache journals embed so an incompatible field set is
/// detected by content, not just by version number.
std::string agg_field_names_blob();

}  // namespace ants::scenario::detail
