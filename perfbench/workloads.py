"""The benchmark's four reference campaigns, as seeded scenario-spec files.

Each workload is a list of scenarios; `spec_text(name, seed)` renders them in
search_lab's text spec form. The seed only reaches the scenarios' `seed`
fields (every trial's randomness derives from it), so a different seed draws
new instances of the same campaign: the same cells, the same trial counts,
different treasure placements and walks. `tiny=True` shrinks every grid for
the smoke mode; the tiny campaigns keep each workload's strategy families and
environment axes, so they still route through the same layers.

Why each workload exists is documented in README.md next to this file.
"""

MASK64 = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def landscape_lockstep(tiny):
    # examples/landscape.spec, scenario 1, with the time cap cut from 120000
    # to 40000 so one run fits many repetitions: lock-step walkers still
    # dominate, and 60 trials per cell make every cell one 64-trial block on
    # one worker.
    return [dict(
        name="landscape",
        strategies="random-walk, biased-walk(bias=0.3, persistence=0.8), "
                   "levy(mu=1.5), levy(mu=2, loop=true, scan=32), "
                   "harmonic(delta=0.5), uniform(eps=0.5), known-k, "
                   "sector-sweep",
        ks="4",
        distances="2, 4" if tiny else "2, 4, 8, 16",
        trials="8" if tiny else "60",
        time_cap="2000" if tiny else "40000",
        columns="strategy, D, success, median_time, mean_time, phi_mean",
    )]


def paper_segment_plane(tiny):
    # E1 (known-k), E3 (uniform), E6 (harmonic) and E11 (their plane ports)
    # at >= 256 trials per cell: four blocks per cell keep the scheduler
    # balanced, and no lock-step strategy takes part.
    strategies = ("known-k, uniform(eps=0.5), harmonic(delta=0.5), "
                  "plane-known-k, plane-harmonic(delta=0.5)")
    columns = "strategy, k, D, success, mean_time, median_time, phi_mean"
    return [
        dict(name="paper-e1-e3-e11", strategies=strategies,
             ks="4, 16" if tiny else "4, 16, 64",
             distances="4" if tiny else "8",
             trials="16" if tiny else "256",
             time_cap="2000000", columns=columns),
        dict(name="paper-k256", strategies=strategies,
             ks="32" if tiny else "256",
             distances="4",
             trials="16" if tiny else "256",
             time_cap="2000000", columns=columns),
    ]


def dynamic_targets(tiny):
    # Every dynamic executor loop: Poisson windows with collect=all on step
    # and segment strategies, drift/pair/dwell on the walkers, staggered
    # starts with dead-on-arrival crashes, and a plane Poisson cell (the
    # plane scalar fallback).
    walkers = "random-walk, biased-walk(bias=0.3, persistence=0.8)"
    return [
        dict(name="dyn-poisson-collect",
             strategies=walkers + ", known-k, uniform(eps=0.5)",
             ks="2" if tiny else "2, 4",
             distances="3" if tiny else "3, 6",
             targets="poisson(rate=0.01, life=300), "
                     "poisson(rate=0.01, life=1000)",
             collect="all",
             trials="8" if tiny else "40",
             time_cap="3000",
             columns="strategy, k, D, targets, success, mean_time, "
                     "targets_spawned, targets_found, found_before_vanish, "
                     "time_to_all"),
        dict(name="dyn-drift-dwell",
             strategies=walkers,
             ks="4" if tiny else "4, 8",
             distances="4",
             targets="single, drift(v=0.25, angle=0.125), pair(near=0.5)",
             capture="dwell(t=2)",
             trials="8" if tiny else "60",
             time_cap="5000",
             columns="strategy, k, targets, capture, success, mean_time, "
                     "median_time, first_target"),
        dict(name="dyn-async",
             strategies="random-walk, known-k, uniform(eps=0.5), "
                        "plane-known-k",
             ks="4" if tiny else "4, 8",
             distances="4" if tiny else "4, 8",
             targets="single, pair(near=0.25)",
             schedule="staggered(gap=4)",
             crash="doa(p=0.25)",
             trials="8" if tiny else "100",
             time_cap="20000",
             columns="strategy, k, D, targets, success, mean_time, "
                     "from_last_mean, mean_crashed, survivors, first_target"),
        dict(name="dyn-plane-poisson",
             strategies="plane-known-k",
             ks="2" if tiny else "2, 4",
             distances="3",
             targets="poisson(rate=0.01, life=1000)",
             trials="8" if tiny else "128",
             time_cap="3000",
             columns="strategy, k, D, success, mean_time, targets_spawned, "
                     "targets_found"),
    ]


def campaign_io(tiny):
    # 1280 cells with a handful of trials each: plan, cache store and
    # lookup, artifact write and merge carry the work, not the executor.
    return [dict(
        name="campaign",
        strategies="known-k, harmonic(delta=0.5)",
        ks="1, 2" if tiny else "1, 2, 3, 4, 6, 8, 12, 16",
        distances="2, 3" if tiny else "2, 3, 4, 5, 6, 8, 10, 12, 14, 16",
        placements="ring, axis" if tiny
        else "ring, axis, diagonal, ring-fraction(f=0.25)",
        targets="single, pair(near=0.5)",
        trials="2" if tiny else "4",
        columns="strategy, k, D, placement, targets, success, mean_time, "
                "ci95, median_time, phi_mean, first_target",
    )]


WORKLOADS = {
    "landscape-lockstep": landscape_lockstep,
    "paper-segment-plane": paper_segment_plane,
    "dynamic-targets": dynamic_targets,
    "campaign-io": campaign_io,
}


def scenarios(name, seed, tiny=False):
    """The workload's scenarios with their seeds filled in from `seed`."""
    out = []
    for i, scenario in enumerate(WORKLOADS[name](tiny)):
        scenario = dict(scenario)
        # Spec seeds stay below 2^63 so any integer parser accepts them.
        scenario["seed"] = str(splitmix64(seed * 16 + i) >> 1)
        out.append(scenario)
    return out


def spec_text(name, seed, tiny=False):
    blocks = []
    for scenario in scenarios(name, seed, tiny):
        width = max(len(key) for key in scenario)
        blocks.append("".join(f"{key.ljust(width)} = {value}\n"
                              for key, value in scenario.items()))
    return "\n".join(blocks)
