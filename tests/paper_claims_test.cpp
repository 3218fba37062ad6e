// The paper's claims (arxiv 1205.2170) as assertions over the experiment
// files in bench/paper/. Each TEST runs one committed file exactly as
// written (parse_spec_file + scenario::run_sweep, no overrides) and checks
// the direction and order the paper states. Every assertion message starts
// with the claim's name. The bounds were fixed before the files first ran;
// a claim that failed its first run is recorded under ROADMAP item 5 as a
// finding instead of being asserted with a moved bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "rng/rng.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "sim/metrics.h"
#include "support/competitive.h"
#include "support/regression.h"
#include "support/visitation.h"

namespace ants {
namespace {

using scenario::CellResult;

/// One scenario block of a paper file and its results (flatten order).
struct Block {
  scenario::ScenarioSpec spec;
  std::vector<CellResult> cells;
};

std::vector<Block> run_paper_file(const std::string& file) {
  std::vector<Block> blocks;
  for (scenario::ScenarioSpec& spec : scenario::parse_spec_file(
           std::string(ANTS_SOURCE_DIR) + "/bench/paper/" + file)) {
    std::vector<CellResult> cells = scenario::run_sweep(spec);
    blocks.push_back({std::move(spec), std::move(cells)});
  }
  return blocks;
}

std::vector<const Block*> blocks_named(const std::vector<Block>& blocks,
                                       const std::string& name) {
  std::vector<const Block*> out;
  for (const Block& b : blocks) {
    if (b.spec.name == name) out.push_back(&b);
  }
  return out;
}

/// The cell of strategy `si` at (k, D).
const CellResult& cell(const Block& block, std::size_t si, std::int64_t k,
                       std::int64_t d) {
  for (const CellResult& r : block.cells) {
    if (r.cell.strategy_index == si && r.cell.k == k && r.cell.distance == d) {
      return r;
    }
  }
  ADD_FAILURE() << block.spec.name << ": no cell (" << si << ", k=" << k
                << ", D=" << d << ")";
  return block.cells.front();
}

/// A numeric parameter of a cell's strategy spec, e.g. eps of uniform(eps=..).
double param(const std::string& spec, const std::string& key) {
  return std::stod(scenario::parse_strategy_spec(spec).params.at(key));
}

double mean_t(const CellResult& r) { return r.stats.time.mean; }
double phi(const CellResult& r) { return r.stats.mean_competitiveness; }
double phi_median(const CellResult& r) {
  return r.stats.median_competitiveness;
}

TEST(PaperClaims, E1KnownK) {
  const std::vector<Block> blocks = run_paper_file("e1.spec");
  const Block& known = *blocks_named(blocks, "e1-known-k").at(0);

  double max_phi = 0;
  std::vector<double> d_axis, t_vs_d, k_axis, t_vs_k;
  const std::int64_t d_max = known.spec.distances.back();
  for (const CellResult& r : known.cells) {
    EXPECT_EQ(r.stats.success_rate, 1.0)
        << "E1.always_found: k=" << r.cell.k << " D=" << r.cell.distance;
    EXPECT_GT(phi(r), 0.5) << "E1.lower_bound: k=" << r.cell.k
                           << " D=" << r.cell.distance;
    max_phi = std::max(max_phi, phi(r));
    if (r.cell.k == 1) {
      d_axis.push_back(static_cast<double>(r.cell.distance));
      t_vs_d.push_back(mean_t(r));
    }
    if (r.cell.distance == d_max) {
      k_axis.push_back(static_cast<double>(r.cell.k));
      t_vs_k.push_back(mean_t(r));
    }
  }
  EXPECT_LT(max_phi, 60.0) << "E1.phi_bounded (Thm 3.1)";

  const double p = stats::fit_power_law(d_axis, t_vs_d).slope;
  EXPECT_GE(p, 1.8) << "E1.time_grows_as_d_squared at k=1";
  EXPECT_LE(p, 2.2) << "E1.time_grows_as_d_squared at k=1";
  EXPECT_LE(stats::fit_power_law(k_axis, t_vs_k).slope, -0.7)
      << "E1.time_falls_as_one_over_k at D=" << d_max;

  EXPECT_GT(sim::speedup(mean_t(cell(known, 0, 1, 32)),
                         mean_t(cell(known, 0, 16, 32))),
            4.0)
      << "E1.sixteen_agents_beat_one at D=32";

  for (const CellResult& r : blocks_named(blocks, "e1-floor").at(0)->cells) {
    EXPECT_EQ(r.stats.success_rate, 1.0)
        << "E1.sweep_near_optimal: k=" << r.cell.k;
    EXPECT_LT(phi(r), 30.0) << "E1.sweep_near_optimal: k=" << r.cell.k
                            << " D=" << r.cell.distance;
    EXPECT_GT(phi(r), 0.5) << "E1.lower_bound (sector sweep): k=" << r.cell.k
                           << " D=" << r.cell.distance;
  }

  const Block& spiral = *blocks_named(blocks, "e1-spiral").at(0);
  const double scaling =
      mean_t(cell(spiral, 0, 1, 16)) / mean_t(cell(spiral, 0, 1, 8));
  EXPECT_GT(scaling, 3.0) << "E1.single_spiral_theta_d_squared";
  EXPECT_LT(scaling, 5.0) << "E1.single_spiral_theta_d_squared";
}

TEST(PaperClaims, E2ApproxK) {
  const std::vector<Block> blocks = run_paper_file("e2.spec");
  const Block& b = blocks.at(0);
  const std::int64_t d = b.spec.distances.front();
  for (std::size_t si = 1; si < b.spec.strategies.size(); ++si) {
    const double rho = param(b.spec.strategies[si], "rho");
    for (const std::int64_t k : b.spec.ks) {
      const double penalty =
          mean_t(cell(b, si, k, d)) / mean_t(cell(b, 0, k, d));
      EXPECT_LT(penalty, 2.0 * rho * rho)
          << "E2.penalty_within_rho_squared (Cor 3.2): rho=" << rho
          << " k=" << k;
    }
  }
}

TEST(PaperClaims, E3Uniform) {
  const std::vector<Block> blocks = run_paper_file("e3.spec");
  const Block& b = blocks.at(0);
  for (std::size_t si = 0; si < b.spec.strategies.size(); ++si) {
    const double eps = param(b.spec.strategies[si], "eps");
    std::vector<core::CompetitivePoint> curve;
    for (const CellResult& r : b.cells) {
      if (r.cell.strategy_index == si) curve.push_back({r.cell.k, phi(r)});
    }
    // phi / log2(k)^(1+eps) does not grow with k exactly when the fitted
    // exponent of phi ~ (log2 k)^p is at most 1 + eps. At eps = 0.1 the
    // first run fitted p = 1.114, a finding in ROADMAP.md, not asserted.
    if (eps == 0.1) continue;
    EXPECT_LE(core::fit_log_exponent(curve).slope, 1.0 + eps)
        << "E3.normalised_phi_does_not_grow (Thm 3.3): eps=" << eps;
  }
}

TEST(PaperClaims, E4UniformLower) {
  const std::vector<Block> blocks = run_paper_file("e4.spec");
  const Block& b = blocks.at(0);
  const CellResult& cal = b.cells.at(0);
  const double eps = param(b.spec.strategies[0], "eps");
  // Calibration: phi(k) = C log2(k)^(1+eps) at the file's cell.
  const double c0 =
      phi(cal) /
      std::pow(std::log2(static_cast<double>(cal.cell.k)), 1.0 + eps);
  ASSERT_GT(c0, 0.0);
  const auto phi_of = [&](double k) {
    return c0 * std::pow(std::max(1.0, std::log2(k)), 1.0 + eps);
  };

  // The proof's radii D_i = sqrt(T k_i / phi(k_i)), k_i = 2^i, at T = 2^16.
  const int log_t = 16;
  const double t_horizon = std::ldexp(1.0, log_t);
  std::vector<std::int64_t> radii;
  std::vector<double> k_of_radius;
  for (int i = 2; i <= log_t / 2; ++i) {
    const double k_i = std::ldexp(1.0, i);
    const auto d_i =
        static_cast<std::int64_t>(std::sqrt(t_horizon * k_i / phi_of(k_i)));
    if (!radii.empty() && d_i <= radii.back()) continue;
    radii.push_back(d_i);
    k_of_radius.push_back(k_i);
  }
  ASSERT_GE(radii.size(), 3u);

  // One agent over 2T, averaged over 4 runs.
  const int reps = 4;
  std::vector<double> measured(radii.size(), 0.0);
  for (int rep = 0; rep < reps; ++rep) {
    rng::Rng rng(rng::mix_seed(b.spec.seed, 555 + rep));
    const sim::VisitationReport report = sim::record_visitation(
        *cal.cell.built->segment, sim::AgentContext{0, 1}, rng,
        sim::Time{2} << log_t, radii);
    for (std::size_t a = 0; a < radii.size(); ++a) {
      measured[a] += static_cast<double>(report.distinct[a]) / reps;
    }
  }
  double lo = 1e300, hi = 0;
  for (std::size_t a = 1; a < radii.size(); ++a) {
    const double outer = static_cast<double>(radii[a]);
    const double inner = static_cast<double>(radii[a - 1]);
    const double predicted =
        2.0 * (outer * outer - inner * inner) / (2.0 * k_of_radius[a]);
    const double ratio = measured[a] / predicted;
    EXPECT_GE(ratio, 1.0) << "E4.one_agent_pays_every_annulus: D_i="
                          << radii[a];
    lo = std::min(lo, ratio);
    hi = std::max(hi, ratio);
  }
  EXPECT_LE(hi / lo, 4.0) << "E4.annulus_shares_flat";

  // Summing the annuli: with phi = C log2 k the demanded fraction of the 2T
  // budget, Sum_{i=2}^{log2(T)/2} 1/(2 C i), grows without bound in T.
  double previous = 0;
  for (int lt = 14; lt <= 30; lt += 4) {
    double fraction = 0;
    for (int i = 2; i <= lt / 2; ++i) fraction += 1.0 / (2.0 * c0 * i);
    EXPECT_GT(fraction, previous) << "E4.budget_demand_grows: T=2^" << lt;
    previous = fraction;
  }
}

TEST(PaperClaims, E5ApproxLower) {
  const std::vector<Block> blocks = run_paper_file("e5.spec");
  double naive_first = 0, naive_last = 0, hedged_last = 0;
  for (const Block& b : blocks) {
    const CellResult& naive = b.cells.at(0);
    const CellResult& hedged = b.cells.at(1);
    const double eps = param(hedged.cell.strategy_spec, "eps");
    const double kt = param(hedged.cell.strategy_spec, "k_estimate");
    const double target = std::max(1.0, eps * std::log2(kt));
    EXPECT_LE(phi_median(hedged), 16.0 * target)
        << "E5.hedged_tracks_eps_log_k (Thm 4.2): eps=" << eps << " k~=" << kt;
    if (eps == 1.0) {
      if (naive_first == 0) naive_first = phi_median(naive);
      naive_last = phi_median(naive);
      hedged_last = phi_median(hedged);
    }
  }
  EXPECT_GT(naive_last, naive_first) << "E5.naive_blows_up at eps=1";
  EXPECT_GT(naive_last, 10.0 * hedged_last) << "E5.naive_blows_up at eps=1";
}

TEST(PaperClaims, E6Harmonic) {
  const std::vector<Block> blocks = run_paper_file("e6.spec");
  // Success at the smallest and largest k/D^delta of each delta.
  struct Rise {
    double delta, first, last;
  };
  std::vector<Rise> rises;
  for (const Block* b : blocks_named(blocks, "e6-harmonic")) {
    const CellResult& r = b->cells.at(0);
    const double delta = param(r.cell.strategy_spec, "delta");
    const double mult = static_cast<double>(r.cell.k) /
                        std::pow(static_cast<double>(r.cell.distance), delta);
    if (rises.empty() || rises.back().delta != delta) {
      rises.push_back({delta, r.stats.success_rate, 0});
    }
    rises.back().last = r.stats.success_rate;
    if (delta >= 0.5 && mult >= 4.0) {
      EXPECT_GE(r.stats.success_rate, 0.9)
          << "E6.succeeds_once_k_clears_threshold (Thm 5.1): delta=" << delta
          << " k=" << r.cell.k;
    }
  }
  ASSERT_EQ(rises.size(), 3u);
  for (const Rise& rise : rises) {
    // At delta = 0.8 success is already 1 at k/D^delta = 1/4, so it cannot
    // rise (a finding in ROADMAP.md, not asserted).
    if (rise.delta == 0.8) continue;
    EXPECT_GT(rise.last, rise.first)
        << "E6.success_rises_with_k: delta=" << rise.delta;
  }
  EXPECT_GT(blocks_named(blocks, "e6-regime").at(0)->cells.at(0)
                .stats.success_rate,
            0.9)
      << "E6.succeeds_in_theorem_regime";
  EXPECT_LT(blocks_named(blocks, "e6-below-regime").at(0)->cells.at(0)
                .stats.success_rate,
            0.8)
      << "E6.fails_below_regime";
}

TEST(PaperClaims, E7Baselines) {
  const std::vector<Block> blocks = run_paper_file("e7.spec");
  const Block& b = blocks.at(0);
  const std::int64_t k = b.spec.ks.front();
  const auto index_of = [&](const std::string& prefix) {
    for (std::size_t si = 0; si < b.spec.strategies.size(); ++si) {
      if (b.spec.strategies[si].rfind(prefix, 0) == 0) return si;
    }
    ADD_FAILURE() << "no strategy " << prefix;
    return std::size_t{0};
  };
  const std::size_t walk = index_of("random-walk");
  const std::size_t known = index_of("known-k");

  const CellResult& near = cell(b, walk, k, 2);
  const CellResult& far = cell(b, walk, k, 8);
  EXPECT_GT(mean_t(far), 4.0 * mean_t(near))
      << "E7.random_walk_blows_up_with_distance";
  EXPECT_LT(far.stats.success_rate, near.stats.success_rate + 0.01)
      << "E7.random_walk_blows_up_with_distance";

  for (const CellResult& r : b.cells) {
    EXPECT_GT(mean_t(r), 0.5 * sim::optimal_time(r.cell.distance, k))
        << "E7.universal_lower_bound: " << r.cell.strategy_name
        << " D=" << r.cell.distance;
  }
  for (const std::size_t si :
       {walk, index_of("biased-walk"), index_of("levy(mu=1.5")}) {
    for (const std::int64_t d : b.spec.distances) {
      EXPECT_LT(mean_t(cell(b, known, k, d)), mean_t(cell(b, si, k, d)))
          << "E7.known_k_beats_walks: " << b.spec.strategies[si]
          << " D=" << d;
    }
  }
}

TEST(PaperClaims, E8Speedup) {
  const std::vector<Block> blocks = run_paper_file("e8.spec");
  const Block& single = blocks.at(0);
  ASSERT_EQ(single.spec.ks.front(), 1);
  const std::size_t known = 0, uniform = 1, sweep = 3, spiral = 4;
  const auto speedup = [&](const Block& b, std::size_t si) {
    return sim::speedup(single.cells.at(si).stats.time.median,
                        b.cells.at(si).stats.time.median);
  };
  double previous_known = 0;
  for (const Block& b : blocks) {
    const std::int64_t k = b.spec.ks.front();
    EXPECT_LT(speedup(b, spiral), 1.5)
        << "E8.identical_spirals_gain_nothing: k=" << k;
    if (k == 1) continue;
    EXPECT_GT(speedup(b, known), previous_known)
        << "E8.known_k_speedup_grows: k=" << k;
    previous_known = speedup(b, known);
    EXPECT_LT(speedup(b, uniform), speedup(b, known))
        << "E8.price_of_uniformity: k=" << k;
    if (k == 16) {
      EXPECT_GT(speedup(b, known), 4.0) << "E8.known_k_speedup at k=16";
    }
    if (k == 64) {
      const CellResult& u64 = b.cells.at(uniform);
      EXPECT_EQ(u64.stats.success_rate, 1.0) << "E8.uniform_grows_slowly";
      EXPECT_LT(phi(u64) / phi(single.cells.at(uniform)), 24.0)
          << "E8.uniform_grows_slowly: phi(64)/phi(1)";
      EXPECT_GT(mean_t(u64), mean_t(b.cells.at(known)))
          << "E8.uniform_pays_for_not_knowing_k at k=64";
    }
  }
  const Block& last = blocks.back();
  EXPECT_GE(speedup(last, sweep),
            static_cast<double>(last.spec.ks.front()) / 4.0)
      << "E8.coordination_gains_k";
}

TEST(PaperClaims, E9AsyncCrash) {
  const std::vector<Block> blocks = run_paper_file("e9.spec");
  const std::vector<const Block*> schedules =
      blocks_named(blocks, "e9-schedule");
  const CellResult* sync = nullptr;
  for (const Block* b : schedules) {
    const CellResult& r = b->cells.at(0);
    if (b->spec.schedule == "sync") {
      sync = &r;
      continue;
    }
    ASSERT_NE(sync, nullptr);
    ASSERT_EQ(sync->cell.k, r.cell.k);
    EXPECT_LE(r.from_last_start.mean, mean_t(*sync))
        << "E9.last_start_reduction: " << b->spec.schedule
        << " k=" << r.cell.k;
    EXPECT_GE(mean_t(r), mean_t(*sync))
        << "E9.late_starts_cost: " << b->spec.schedule << " k=" << r.cell.k;
  }

  const CellResult* no_crash = nullptr;
  for (const Block* b : blocks_named(blocks, "e9-crash")) {
    const CellResult& r = b->cells.at(0);
    const double p = param(b->spec.crash, "p");
    if (p == 0) {
      no_crash = &r;
      continue;
    }
    ASSERT_NE(no_crash, nullptr);
    ASSERT_EQ(no_crash->cell.k, r.cell.k);
    const double d = static_cast<double>(r.cell.distance);
    const double survivors = static_cast<double>(r.cell.k) - r.mean_crashed;
    const double phi_survivors = mean_t(r) / (d + d * d / survivors);
    if (p == 0.75) {
      EXPECT_GT(phi(r), phi(*no_crash))
          << "E9.crashes_cost_time: k=" << r.cell.k;
    }
    if (r.cell.k >= 32) {
      EXPECT_LE(phi_survivors, 1.5 * phi(*no_crash))
          << "E9.survivor_phi_in_band: k=" << r.cell.k << " p=" << p;
    }
  }
}

TEST(PaperClaims, E10SingleShot) {
  const std::vector<Block> blocks = run_paper_file("e10.spec");
  const std::vector<const Block*> budgets = blocks_named(blocks, "e10-budget");
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const Block& b = *budgets[i];
    const CellResult& full = b.cells.at(0);
    const CellResult& sweep = b.cells.at(1);
    const double c = static_cast<double>(b.spec.time_cap) /
                     sim::optimal_time(full.cell.distance, full.cell.k);
    if (full.stats.success_rate < 0.9) {
      EXPECT_GE(sweep.stats.success_rate, full.stats.success_rate)
          << "E10.sweep_reaches_constant_success_sooner: "
          << full.cell.strategy_name << " c=" << c;
    }
    // The last budget of each family (the family changes or the list ends).
    const bool family_end =
        i + 1 == budgets.size() ||
        budgets[i + 1]->spec.strategies != b.spec.strategies;
    if (family_end) {
      EXPECT_GE(full.stats.success_rate, 0.99)
          << "E10.both_converge: " << full.cell.strategy_name << " c=" << c;
      EXPECT_GE(sweep.stats.success_rate, 0.99)
          << "E10.both_converge: " << sweep.cell.strategy_name << " c=" << c;
    }
  }
  const Block& tails = *blocks_named(blocks, "e10-tails").at(0);
  // The heavier q95 did not show on the first run (a finding in
  // ROADMAP.md); the better median did.
  EXPECT_LT(tails.cells.at(1).stats.time.median,
            tails.cells.at(0).stats.time.median)
      << "E10.sweep_median_better";
}

TEST(PaperClaims, E11Plane) {
  const std::vector<Block> blocks = run_paper_file("e11.spec");
  for (const Block& b : blocks) {
    const CellResult& grid = b.cells.at(0);
    const CellResult& plane = b.cells.at(1);
    const double ratio = mean_t(plane) / mean_t(grid);
    EXPECT_GE(ratio, 0.5) << "E11.plane_grid_ratio_in_band: "
                          << grid.cell.strategy_name << " D="
                          << grid.cell.distance << " k=" << grid.cell.k;
    EXPECT_LE(ratio, 2.0) << "E11.plane_grid_ratio_in_band: "
                          << grid.cell.strategy_name << " D="
                          << grid.cell.distance << " k=" << grid.cell.k;
    EXPECT_GE(grid.stats.success_rate, 0.99) << "E11.found_within_cap";
    EXPECT_GE(plane.stats.success_rate, 0.99) << "E11.found_within_cap";
  }
}

TEST(PaperClaims, AblLocalSearch) {
  const std::vector<Block> blocks = run_paper_file("abl_local_search.spec");
  const auto inflation = [](const Block& b) {
    return phi_median(b.cells.at(1)) / phi_median(b.cells.at(0));
  };
  for (const Block& b : blocks) {
    EXPECT_GT(inflation(b), 1.0)
        << "AblLocalSearch.random_walk_local_search_costs: D="
        << b.spec.distances.front() << " k=" << b.spec.ks.front();
  }
  EXPECT_GT(inflation(blocks.back()), inflation(blocks.front()))
      << "AblLocalSearch.cost_grows_with_scale";
}

TEST(PaperClaims, AblReturnPolicy) {
  const std::vector<Block> blocks = run_paper_file("abl_return_policy.spec");
  for (const Block& b : blocks) {
    const CellResult& with = b.cells.at(0);
    const CellResult& without = b.cells.at(1);
    const double ratio = phi_median(without) / phi_median(with);
    EXPECT_GE(ratio, 0.5) << "AblReturnPolicy.constants_only: D="
                          << with.cell.distance;
    EXPECT_LE(ratio, 2.0) << "AblReturnPolicy.constants_only: D="
                          << with.cell.distance;
    EXPECT_LT(phi_median(without), 60.0)
        << "AblReturnPolicy.still_constant_competitive: D="
        << with.cell.distance;
  }
}

TEST(PaperClaims, AblLowmem) {
  const std::vector<Block> blocks = run_paper_file("abl_lowmem.spec");
  const Block& uniform = *blocks_named(blocks, "abl-lowmem-uniform").at(0);
  const std::int64_t d = uniform.spec.distances.front();
  for (const std::int64_t k : uniform.spec.ks) {
    EXPECT_LE(phi_median(cell(uniform, 1, k, d)) /
                  phi_median(cell(uniform, 0, k, d)),
              2.0)
        << "AblLowmem.counter_costs_a_constant: k=" << k;
  }
  for (const Block* b : blocks_named(blocks, "abl-lowmem-harmonic")) {
    const CellResult& exact = b->cells.at(0);
    const CellResult& lowmem = b->cells.at(1);
    EXPECT_GE(lowmem.stats.success_rate, exact.stats.success_rate - 0.1)
        << "AblLowmem.coin_flip_power_law_matches: "
        << exact.cell.strategy_name;
    EXPECT_LE(lowmem.stats.time.median, 2.0 * exact.stats.time.median)
        << "AblLowmem.coin_flip_power_law_matches: "
        << exact.cell.strategy_name;
  }
}

}  // namespace
}  // namespace ants
