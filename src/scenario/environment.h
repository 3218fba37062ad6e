// Declarative environment axes: placement, start schedule, crash model,
// target set.
//
// The scenario layer describes strategies as "name(key=value, ...)" spec
// strings; this module extends the same grammar to the four environment
// knobs an experiment can turn:
//
//   placement   where the adversary puts each target — a sweepable axis
//               ("ring", "axis", "ring-fraction(f=0.25)", ...), so angular
//               soft-spot hunts are a grid like k and D;
//   schedule    per-agent start delays ("sync", "staggered(gap=4)",
//               "uniform-start(max=256)", "fixed(delays=0;5;10)") — the
//               paper's section 2 asynchrony remark as a spec field;
//   crash       per-agent fail-stop lifetimes ("none", "doa(p=0.25)",
//               "exp-life(mean=1000)", "fixed-life(t=500)") — the
//               robustness axis of experiment E9;
//   targets     how many treasures the trial races for and where —
//               a sweepable axis ("single", "pair(near=0.5)",
//               "ring-set(n=3)") composing WITH the placement policy, so
//               the paper's foraging motivation (find nearby food first)
//               is an ordinary sweep with a `first_target` column.
//
// Each axis has a small registry (name + typed params + factory) mirroring
// the strategy registry, so `search_lab list` can print every sweepable
// parameter and spec validation fails loudly on typos.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "sim/async_engine.h"
#include "sim/placement.h"
#include "sim/trial.h"

namespace ants::scenario {

/// One registered environment policy: name, one-line doc, typed params.
struct EnvEntry {
  std::string name;
  std::string summary;
  std::vector<ParamSpec> params;
  /// Engine-family applicability; empty = every engine family. Printed per
  /// entry by `search_lab list` and enforced by spec validation.
  std::string applies = {};
};

const std::vector<EnvEntry>& placement_entries();
const std::vector<EnvEntry>& schedule_entries();
const std::vector<EnvEntry>& crash_entries();
const std::vector<EnvEntry>& target_entries();
const std::vector<EnvEntry>& capture_entries();

/// Parse + validate against the axis registry + re-serialize stably (sorted
/// params, no spaces). Throws std::invalid_argument on unknown names,
/// unknown/malformed parameters, or out-of-range values. The canonical
/// string is what cells carry and what cache keys hash.
std::string canonical_placement_spec(const std::string& text);
std::string canonical_schedule_spec(const std::string& text);
std::string canonical_crash_spec(const std::string& text);
std::string canonical_targets_spec(const std::string& text);
std::string canonical_capture_spec(const std::string& text);

/// Factories. Accept raw or canonical spec text.
sim::Placement make_placement(const std::string& text);
std::unique_ptr<sim::StartSchedule> make_schedule(const std::string& text);
std::unique_ptr<sim::CrashModel> make_crash(const std::string& text);

/// Compiles a target-process spec against a placement policy: the policy
/// picks each target's direction, the target spec picks how many targets,
/// at which distances, and over which live windows. "single" is exactly one
/// placement draw — byte-identical to the classic single-treasure path —
/// while "poisson(rate=;life=)" and "drift(v=;angle=)" realize dynamic
/// processes from the dedicated target stream (sim::kTargetStream).
sim::TargetProcess make_targets(const std::string& text,
                                const sim::Placement& placement);

/// The continuous-plane twin of make_targets: compiles the SAME
/// target-process grammar against a plane angle policy (see
/// make_plane_angle). Distances mirror the grid semantics exactly —
/// "pair(near=f)" puts the near patch at max(1, round(f*D)) — so a paired
/// grid-vs-plane sweep races targets at the same radii. "single" is exactly
/// one angle draw, byte-identical to the classic plane path. "drift" is
/// grid/step-level only and throws here.
sim::TargetProcess make_plane_targets(
    const std::string& text, const std::function<double(rng::Rng&)>& angle);

/// Dwell ticks compiled from a capture spec: 0 for "instant", t for
/// "dwell(t=)" (validated t >= 1). The sweep wires this into
/// sim::TrialEnvironment::capture_dwell.
sim::Time capture_dwell_ticks(const std::string& text);

/// For a "fixed" schedule, the number of per-agent delays it carries
/// (validation must match it against every k in the sweep grid); 0 for
/// every other schedule.
std::size_t fixed_schedule_delay_count(const std::string& text);

/// Treasure direction for continuous-plane cells, compiled once per
/// placement: the returned callable yields the angle (radians) for one
/// trial. "ring" draws uniformly from the trial rng; the deterministic
/// policies ("axis", "diagonal", "ring-fraction") ignore it.
std::function<double(rng::Rng&)> make_plane_angle(const std::string& text);

/// True when the schedule/crash/targets field is the paper's base model
/// (synchronous starts, immortal agents, one treasure). Every cell — grid
/// or plane — runs the same unified executor either way; these predicates
/// only gate which aggregate columns are meaningful.
bool is_sync_schedule(const std::string& text);
bool is_no_crash(const std::string& text);
bool is_single_targets(const std::string& text);

/// True when the target-set spec realizes a DYNAMIC process (poisson or
/// drift) — these need a finite time_cap horizon.
bool is_dynamic_targets(const std::string& text);

/// True when the target-set spec applies to step-level strategies only
/// (drift: segment/plane backends have no per-tick target position).
bool is_step_only_targets(const std::string& text);

}  // namespace ants::scenario
