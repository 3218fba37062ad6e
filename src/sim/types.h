// Shared simulation vocabulary: discrete time, agent identity, outcomes.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace ants::sim {

/// Discrete simulation time: one unit per edge traversal (paper section 2).
using Time = std::int64_t;

/// "Never": larger than any saturated duration (durations cap at 2^62).
inline constexpr Time kNeverTime = std::numeric_limits<Time>::max();

/// Context handed to a strategy when instantiating one agent's program.
///
/// `k` is the true number of agents in the run. UNIFORM algorithms must not
/// read it (the whole point of the paper's section 3.2) — it exists for the
/// explicitly coordinated baselines (sector sweep) and for non-uniform
/// algorithms whose knowledge of k is the experiment's subject. Tests assert
/// that uniform strategies produce identical op streams for any k.
struct AgentContext {
  int agent_index = 0;
  int k = 1;
};

/// Result of one environment-aware trial (sim::batch::BatchRunner, in
/// sim/batch/batch.h), for every backend and environment: `time` is always
/// absolute (from t = 0, the first possible start), the schedule/crash
/// aggregates are zero under the paper's base model, and `first_target`
/// identifies the winning target of a multi-target race (0 for the
/// ordinary single-treasure hunt).
///
/// Time fields are doubles because the executor serves BOTH substrates: the
/// grid backends fill exact integer tick counts (every Time below 2^53 is
/// representable, and the aggregation layer always consumed these as
/// doubles), while the continuous-plane backend reports fractional
/// unit-speed arrival times.
struct TrialResult {
  double time = static_cast<double>(kNeverTime);  ///< absolute first-hit
                                                  ///< time (or the cap)
  bool found = false;         ///< true iff some target was reached in time
  int finder = -1;            ///< index of the first agent to reach one
  int first_target = -1;      ///< index of the first-discovered target
  std::int64_t segments = 0;  ///< segments realized / lock-steps taken
  double last_start = 0;      ///< latest start delay in the environment
  double from_last_start = 0; ///< max(0, time - last_start) if found
  int crashed = 0;            ///< agents that exhausted their lifetime

  /// Collect-all mode only (TrialEnvironment::collect_all; empty otherwise):
  /// one entry per spawned target, the absolute discovery time or -1 if the
  /// target was never found before the cap (or before it vanished). In this
  /// mode `time` is the time-to-ALL-found (censored at the cap), `found`
  /// means every spawned target was found, and finder/first_target describe
  /// the EARLIEST capture.
  std::vector<double> target_times;
};

}  // namespace ants::sim
