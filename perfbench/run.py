#!/usr/bin/env python3
"""Campaign benchmark driver: end-to-end and per-layer numbers for search_lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

Run from anywhere inside a source checkout; the driver builds search_lab and
perf_replay from that checkout into .bench_build/ (Release), writes the
workload's seeded spec there, and drives the `search_lab` binary the way a
user does. See README.md in this directory for the workloads, every metric
and the layer it belongs to.

--trace 0 (end to end, untraced): repeats, until --seconds have passed, one
round of
    cold run at N threads        search_lab run --threads=N  (+ --metrics-out)
    cold run at 1 thread         search_lab run --threads=1  (+ --metrics-out)
    3 shards + merge             search_lab run --shard=i/3 --cache-dir=C,
                                 then search_lab merge (one per scenario)
    warm rerun at N threads      search_lab run --cache-dir=C (+ --metrics-out)
with N = min(4, nproc). Load is a closed loop from this one client process:
each invocation starts after the previous one exits, shards included. The
four CSVs of every round must be byte-identical (and, for the default seed,
match the SHA-256 pinned in digests.json); a nonzero exit or a differing CSV
counts as a failed invocation. Every round also times perf_probe, a fixed
loop sharing no code with the repository, and the reported times are scaled
to the host speed at which the probe takes PROBE_REF_S (README.md, "Host-speed
normalization").

--trace 1 (per layer): a separate, never-e2e-timed run. It reruns the cold
N-thread campaign with --events/--trace for the scheduler numbers, replays
every cell through the library's public functions with perf_replay (whose
CSV must equal the cold CSV), and times traced against untraced runs.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A full record (medians, tail percentiles, sample counts, provenance) lands
in .bench_build/results/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import workloads  # noqa: E402  (sits next to this file)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
SEARCH_LAB = CMAKE_DIR / "ants" / "search_lab"
REPLAY = CMAKE_DIR / "perf_replay"
PROBE = CMAKE_DIR / "perf_probe"
NPROC = len(os.sched_getaffinity(0))
N_THREADS = min(4, NPROC)
N_SHARDS = 3
ONE_THREAD_EVERY = 3
WARM_REPEATS = 3
DEFAULT_SEED = 1
INVOCATION_TIMEOUT_S = 150
# perf_probe's wall time on the reference host (4-vCPU VM, g++ 12 Release,
# at the commit that added the benchmark). End-to-end times are reported at
# this host speed; see README.md, "Host-speed normalization".
PROBE_REF_S = 0.05

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_1t_s": "s",
    "trials_per_s": "1/s",
    "sharded_wall_s": "s",
    "warm_wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
BACKENDS = ("segment", "segment_dyn", "step", "step_dyn", "plane",
            "plane_fallback")
KERNELS = ("argmin_i64", "argmin_f64", "find_point", "line_candidates",
           "window_gate", "find_point_gated", "drift_positions",
           "dwell_advance")
LAYER_UNITS = {}
for _b in BACKENDS:
    LAYER_UNITS.update({f"exec.{_b}.trials": "count",
                        f"exec.{_b}.units": "count",
                        f"exec.{_b}.busy_s": "s",
                        f"exec.{_b}.ns_per_unit": "ns"})
LAYER_UNITS.update({
    "exec.runner_builds": "count",
    "exec.runner_build_us": "us",
    "env.realize_ns_per_trial": "ns",
    "rng.ns_per_u64": "ns",
    "rng.ns_per_power_law": "ns",
})
for _k in KERNELS:
    LAYER_UNITS[f"kernels.{_k}.ns_per_call"] = "ns"
LAYER_UNITS.update({
    "sched.items": "count",
    "sched.busy_frac": "ratio",
    "sched.max_item_busy_s": "s",
    "sched.ideal_wall_s": "s",
    "sched.scaling_eff": "ratio",
    "plan.parse_s": "s",
    "plan.make_plan_s": "s",
    "plan.build_s": "s",
    "plan.cells": "count",
    "cache.store_us": "us",
    "cache.lookup_us": "us",
    "cache.bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.corrupt": "count",
    "artifact.write_s": "s",
    "artifact.bytes": "bytes",
    "merge.s": "s",
    "merge.cells_per_s": "1/s",
    "sink.csv_s": "s",
    "telemetry.overhead_frac": "ratio",
})


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, failed build)."""


# --- build -----------------------------------------------------------------

def build(need_replay):
    """Configures (once) and builds search_lab, then perf_replay. A replay
    that does not build only fails traced runs."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "search_lab.cpp").is_file():
        raise BenchError(f"no search_lab source tree at {ROOT}")
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    cache = CMAKE_DIR / "CMakeCache.txt"
    if cache.is_file() and \
            f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(CMAKE_DIR)  # configured for another checkout
    jobs = str(N_THREADS)
    with open(build_log, "ab") as out:
        def step(args):
            return subprocess.run(args, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode == 0
        if not cache.is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            if not step(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]):
                raise BenchError(f"cmake configure failed, see {build_log}")
        if not step(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                     "--target", "search_lab", "perf_probe"]):
            raise BenchError(f"search_lab build failed, see {build_log}")
        replay_ok = step(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                          "--target", "perf_replay"])
    if need_replay and not replay_ok:
        raise BenchError(f"perf_replay build failed, see {build_log}")
    return replay_ok


# --- provenance --------------------------------------------------------------

def cmake_cache_value(key):
    cache = CMAKE_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines() if cache.is_file() else []:
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def provenance(load_at_start, replay_ok):
    simd = "unknown"
    if replay_ok:
        out = subprocess.run([str(REPLAY), "--info"], capture_output=True,
                             text=True)
        if out.returncode == 0:
            simd = json.loads(out.stdout)["simd_level"]
    compiler_version = ""
    for f in CMAKE_DIR.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        for line in f.read_text().splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_VERSION"):
                compiler_version = line.split('"')[1]
    build_type = cmake_cache_value("CMAKE_BUILD_TYPE")
    flags = " ".join(x for x in (
        cmake_cache_value("CMAKE_CXX_FLAGS"),
        cmake_cache_value(f"CMAKE_CXX_FLAGS_{build_type.upper()}")) if x)
    # Only this checkout's own history: never describe an enclosing repo.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True)
        describe = git.stdout.strip() if git.returncode == 0 else \
            "not a git checkout"
    except OSError:
        describe = "git unavailable"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "simd_level": simd,
        "compiler": cmake_cache_value("CMAKE_CXX_COMPILER"),
        "compiler_version": compiler_version,
        "build_type": build_type,
        "cxx_flags": flags,
        "git_describe": describe,
        "cpu_model": cpu,
        "nproc": NPROC,
        "threads": N_THREADS,
        "loadavg_start": [round(x, 2) for x in load_at_start],
    }


# --- invocations ---------------------------------------------------------------

class Invocation:
    def __init__(self, name, wall, rss_mb):
        self.name, self.wall, self.rss_mb, self.ok = name, wall, rss_mb, True


class Client:
    """The one closed-loop client: runs one process at a time, waits for it,
    and counts attempted and failed invocations."""

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, name, args):
        self.attempted += 1
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in args],
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=self.work)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(name, wall, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            detail = err_path.read_text(errors="replace").strip()[-400:]
            self.fail(inv, f"exit {proc.returncode}: {detail}")
        return inv

    def fail(self, inv, why):
        """Marks an invocation failed (once, however many checks it fails)."""
        if inv.ok:
            self.failed += 1
            self.errors.append(f"{inv.name}: {why}")
        inv.ok = False


def indexed(path, i):
    """search_lab's per-scenario output naming: PATH, PATH.2, PATH.3, ..."""
    return Path(f"{path}.{i + 1}") if i else Path(path)


def read_bytes(path):
    try:
        return path.read_bytes()
    except OSError:
        return None


def read_metrics(path, n_scenarios):
    records = []
    for i in range(n_scenarios):
        try:
            records.append(json.loads(indexed(path, i).read_text()))
        except (OSError, ValueError):
            return None
    return records


def time_probe():
    """Wall time of one perf_probe run (not a search_lab invocation)."""
    t0 = time.perf_counter()
    if subprocess.run([str(PROBE)]).returncode != 0:
        raise BenchError("perf_probe failed")
    return time.perf_counter() - t0


# --- statistics ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return None, None


def summarize(samples, units):
    out = {}
    for name, unit in units.items():
        vals = samples.get(name, [])
        p, v = tail(vals)
        out[name] = {"value": median(vals), "unit": unit, "n": len(vals),
                     "tail_pct": p, "tail_value": v}
    return out


def normalize(summary, probe):
    """Scales a run's times to the reference host speed: times by
    PROBE_REF_S / (the run's median probe time), rates by the inverse.
    Memory and the failure share are left as measured."""
    out = {}
    for name, s in summary.items():
        scale = PROBE_REF_S / probe
        if name == "trials_per_s":
            scale = 1 / scale
        elif name in ("peak_rss_mb", "ok_frac"):
            scale = 1.0
        out[name] = dict(s, value=s["value"] * scale)
        if s["tail_value"] is not None:
            out[name]["tail_value"] = s["tail_value"] * scale
    return out


# --- end to end ------------------------------------------------------------------

def e2e_round(client, spec, n_scen, work, digest, reference, corrupt,
              with_1t):
    """One cold / cold-1t / sharded / warm round; returns its samples and
    the cold N-thread CSV bytes (the reference for later rounds)."""
    sl = str(SEARCH_LAB)
    base = [sl, "run", f"--spec={spec}", "--quiet"]
    cache = work / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    for f in work.glob("*.csv*"):
        f.unlink()

    probe = time_probe()
    cold = client.run("cold", base + [f"--threads={N_THREADS}",
                                      "--csv=coldN.csv",
                                      "--metrics-out=coldN.m.json"])
    cold_m = read_metrics(work / "coldN.m.json", n_scen) if cold.ok else None
    cold1 = None
    if with_1t:
        cold1 = client.run("cold-1t", base + ["--threads=1",
                                              "--csv=cold1.csv",
                                              "--metrics-out=cold1.m.json"])
    shards = [client.run(f"shard {i}/{N_SHARDS}",
                         base + [f"--threads={N_THREADS}",
                                 f"--shard={i}/{N_SHARDS}",
                                 f"--shard-out=shard{i}.jsonl",
                                 f"--cache-dir={cache}"])
              for i in range(1, N_SHARDS + 1)]
    merges = [client.run(f"merge {j + 1}",
                         [sl, "merge", "--quiet",
                          f"--csv={indexed('sharded.csv', j)}"] +
                         [str(indexed(f"shard{i}.jsonl", j))
                          for i in range(1, N_SHARDS + 1)])
              for j in range(n_scen)]
    # Output check: every CSV of the round equals the cold N-thread CSV.
    cold_csv = [read_bytes(indexed(work / "coldN.csv", j))
                for j in range(n_scen)]
    if any(c is None for c in cold_csv):
        client.fail(cold, "no CSV")
    elif reference is not None and cold_csv != reference:
        client.fail(cold, "CSV differs from the first round's")
    elif digest is not None and \
            hashlib.sha256(b"".join(cold_csv)).hexdigest() != digest:
        client.fail(cold, "CSV does not match the pinned SHA-256")

    def check(inv, name, j):
        if read_bytes(indexed(work / name, j)) != cold_csv[j]:
            client.fail(inv, f"{indexed(name, j)} differs from the cold "
                             "N-thread CSV")

    for j in range(n_scen):
        check(merges[j], "sharded.csv", j)
        if cold1:
            check(cold1, "cold1.csv", j)

    # The warm rerun is cheap and dominated by process start, so it runs
    # several times per round for enough samples.
    warms = []
    for _ in range(WARM_REPEATS):
        warm = client.run("warm", base + [f"--threads={N_THREADS}",
                                          f"--cache-dir={cache}",
                                          "--csv=warm.csv",
                                          "--metrics-out=warm.m.json"])
        if corrupt and not warms:  # smoke mode: a differing CSV is caught
            path = work / "warm.csv"
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
        for j in range(n_scen):
            check(warm, "warm.csv", j)
        warm_m = read_metrics(work / "warm.m.json", n_scen)
        if warm_m is None or any(m["cache_hits"] != m["cells_total"] or
                                 m["cells_computed"] for m in warm_m):
            client.fail(warm, "warm rerun was not served entirely from cache")
        warms.append(warm)

    ran = [cold] + warms + shards + merges + ([cold1] if cold1 else [])
    sample = {
        "wall_s": [cold.wall],
        "sharded_wall_s": [sum(i.wall for i in shards + merges)],
        "warm_wall_s": [w.wall for w in warms],
        "peak_rss_mb": [max(i.rss_mb for i in ran)],
        "probe_s": [probe],
    }
    if cold1:
        sample["wall_1t_s"] = [cold1.wall]
    if cold_m is not None:
        execute_s = sum(m["execute_ms"] for m in cold_m) / 1e3
        sample["setup_s"] = [cold.wall - execute_s]
        sample["trials_per_s"] = \
            [sum(m["trials_executed"] for m in cold_m) / execute_s]
    return sample, cold_csv


def run_e2e(name, seed, seconds, tiny=False, corrupt=False):
    work = BUILD_DIR / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = work / "workload.spec"
    spec.write_text(workloads.spec_text(name, seed, tiny))
    n_scen = len(workloads.scenarios(name, seed, tiny))
    digest = None if tiny or seed != DEFAULT_SEED else \
        json.loads((BENCH_DIR / "digests.json").read_text())[name]

    client = Client(work)
    samples = {}
    reference = None
    t_start = time.perf_counter()
    rounds = 0
    while True:
        # The 1-thread run costs most and varies least: every third round.
        sample, cold_csv = e2e_round(client, spec, n_scen, work, digest,
                                     reference, corrupt,
                                     with_1t=rounds % ONE_THREAD_EVERY == 0)
        if reference is None:
            reference = cold_csv
        for key, values in sample.items():
            samples.setdefault(key, []).extend(values)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds > seconds:
            break
    samples["ok_frac"] = [1.0 - client.failed / client.attempted]
    csv_sha = hashlib.sha256(b"".join(c or b"" for c in reference)).hexdigest()
    raw = summarize(samples, E2E_UNITS)
    probe = median(samples["probe_s"])
    return client, normalize(raw, probe), {
        "rounds": rounds, "csv_sha256": csv_sha, "samples": samples,
        "raw": raw, "probe_s": probe}


# --- traced run ------------------------------------------------------------------

def sched_from_trace(trace_paths, metrics):
    """Scheduler numbers from search_lab's --trace output: worker spans are
    (cell, block) work items, consecutive blocks of one cell on one worker
    coalesced into one span."""
    items = 0
    busy_us = 0.0
    capacity_us = 0.0
    max_item_us = 0.0
    ideal_us = 0.0
    for path, m in zip(trace_paths, metrics):
        events = json.loads(path.read_text())["traceEvents"]
        spans = [e["dur"] for e in events
                 if e.get("ph") == "X" and e.get("tid", 0) >= 1]
        workers = sum(1 for e in events if e.get("ph") == "M" and
                      e.get("name") == "thread_name" and e.get("tid", 0) >= 1)
        execute_us = m["execute_ms"] * 1e3
        items += len(spans)
        busy_us += sum(spans)
        capacity_us += max(workers, 1) * execute_us
        longest = max(spans, default=0.0)
        max_item_us = max(max_item_us, longest)
        ideal_us += max(sum(spans) / N_THREADS, longest)
    return {
        "sched.items": items,
        "sched.busy_frac": busy_us / capacity_us if capacity_us else 0.0,
        "sched.max_item_busy_s": max_item_us / 1e6,
        "sched.ideal_wall_s": ideal_us / 1e6,
    }


def combine_traces(search_lab_traces, replay_trace, out_path):
    """One Chrome-trace file holding search_lab's traced run (one process
    per scenario) and the replay's spans, for a single Perfetto session."""
    events = []
    for pid, path in enumerate(search_lab_traces):
        for e in json.loads(path.read_text())["traceEvents"]:
            e = dict(e, pid=pid)
            if e.get("name") == "process_name":
                e["args"] = {"name": f"search_lab scenario {pid + 1}"}
            events.append(e)
    for e in json.loads(replay_trace.read_text())["traceEvents"]:
        events.append(dict(e, pid=len(search_lab_traces)))
    out_path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def run_traced(name, seed, seconds, tiny=False):
    work = BUILD_DIR / "work" / f"{name}.traced"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = work / "workload.spec"
    spec.write_text(workloads.spec_text(name, seed, tiny))
    n_scen = len(workloads.scenarios(name, seed, tiny))
    client = Client(work)
    sl = str(SEARCH_LAB)
    base = [sl, "run", f"--spec={spec}", "--quiet"]

    def untraced(threads, tag):
        return client.run(f"untraced {tag}",
                          base + [f"--threads={threads}", f"--csv={tag}.csv",
                                  f"--metrics-out={tag}.m.json"])

    def traced():
        return client.run("traced", base + [
            f"--threads={N_THREADS}", "--csv=traced.csv",
            "--metrics-out=traced.m.json", "--events=events.jsonl",
            "--trace=trace.json"])

    def csv_of(tag):
        return [read_bytes(indexed(work / f"{tag}.csv", j))
                for j in range(n_scen)]

    t_start = time.perf_counter()
    cold = untraced(N_THREADS, "coldN")
    cold_metrics = read_metrics(work / "coldN.m.json", n_scen)
    reference = csv_of("coldN")
    if not cold.ok or cold_metrics is None or None in reference:
        client.fail(cold, "no cold run to compare against")
        return client, {}, {}

    replay = client.run("replay", [REPLAY, f"--spec={spec}", f"--work={work}",
                                   "--out=replay.json",
                                   "--trace=trace_replay.json"])
    layer = {}
    extra = {}
    if replay.ok:
        summary = json.loads((work / "replay.json").read_text())
        layer.update(summary["metrics"])
        missing = [k for k in LAYER_UNITS if k not in layer and
                   not k.startswith(("sched.", "telemetry."))]
        if missing:
            client.fail(replay, f"replay did not report {missing}")
        extra["replay_self_s"] = summary["self_s"]
        extra["kernel_agents"] = summary["kernel_agents"]
        extra["kernel_targets"] = summary["kernel_targets"]
        # Replay fidelity: the replay's own results render the cold CSV.
        if csv_of("replay") != reference:
            client.fail(replay, "replayed cells differ from the cold CSV")
        fallback = sum(m["batch_scalar_fallback"] for m in cold_metrics)
        got = layer["exec.plane_fallback.trials"]
        if got != fallback or summary["drained_fallbacks"] != fallback:
            client.fail(replay, f"exec.plane_fallback.trials {got} != "
                                f"batch_scalar_fallback {fallback}")
        if name != "dynamic-targets" and got != 0:
            client.fail(replay, "plane scalar fallback outside "
                                "dynamic-targets")

    walls = {"untraced": [cold.wall], "traced": [], "1t": []}
    scheds = []
    while True:
        t_round = time.perf_counter()
        inv = traced()
        if inv.ok:
            walls["traced"].append(inv.wall)
            metrics = read_metrics(work / "traced.m.json", n_scen)
            traces = [indexed(work / "trace.json", j) for j in range(n_scen)]
            if metrics is not None and all(p.is_file() for p in traces):
                scheds.append(sched_from_trace(traces, metrics))
        if csv_of("traced") != reference:
            client.fail(inv, "traced CSV differs from the untraced one")
        inv = untraced(1, "cold1")
        walls["1t"].append(inv.wall)
        if csv_of("cold1") != reference:
            client.fail(inv, "1-thread CSV differs")
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            break
        inv = untraced(N_THREADS, "coldN")
        walls["untraced"].append(inv.wall)
        if csv_of("coldN") != reference:
            client.fail(inv, "cold CSV differs between rounds")

    if scheds:
        for key in scheds[0]:
            layer[key] = median([s[key] for s in scheds])
        layer["sched.scaling_eff"] = median(walls["1t"]) / (
            N_THREADS * median(walls["untraced"]))
        layer["telemetry.overhead_frac"] = \
            median(walls["traced"]) / median(walls["untraced"]) - 1.0
    if replay.ok:
        traces = [indexed(work / "trace.json", j) for j in range(n_scen)]
        if all(p.is_file() for p in traces):
            combine_traces(traces, work / "trace_replay.json",
                           work / "trace_combined.json")
            extra["trace"] = str(work / "trace_combined.json")
    samples = {k: [v] for k, v in layer.items()}
    return client, summarize(samples, LAYER_UNITS), extra


# --- reporting -------------------------------------------------------------------

def report(name, seed, trace, client, summary, extra, prov):
    for metric, s in summary.items():
        line = f"{name} {metric} = {s['value']:.6g} {s['unit']} (n={s['n']}"
        if s["tail_pct"] is not None:
            line += f", p{s['tail_pct']:g} = {s['tail_value']:.6g}"
        print(line + ")")
    print(f"{name}: attempted {client.attempted} invocations, "
          f"failed {client.failed}")
    for err in client.errors:
        print(f"  FAILED {err}")
    record = {"workload": name, "seed": seed, "trace": trace,
              "attempted": client.attempted, "failed": client.failed,
              "errors": client.errors, "metrics": summary, "extra": extra,
              "provenance": prov}
    out_dir = BUILD_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"(record written to {out})")
    return record


def result_line(client, summary):
    metrics = {}
    for metric, s in summary.items():
        value = s["value"]
        metrics[metric] = {"value": 0.0 if value != value else value,
                           "unit": s["unit"]}
    return {"correct": client.failed == 0, "attempted": client.attempted,
            "failed": client.failed, "metrics": metrics}


def run_one(name, seed, seconds, trace, tiny=False):
    load = os.getloadavg()
    replay_ok = build(need_replay=trace == 1)
    prov = provenance(load, replay_ok)
    if trace:
        client, summary, extra = run_traced(name, seed, seconds, tiny)
    else:
        client, summary, extra = run_e2e(name, seed, seconds, tiny)
    report(name, seed, trace, client, summary, extra, prov)
    return client, summary


def smoke():
    """Tiny campaigns: every workload once per mode, metric names checked
    against BENCHMARK.json, and a corrupted CSV that must count as failed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    unknown = {w["name"] for w in bench["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {unknown}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            client, summary = run_one(name, DEFAULT_SEED, 0, trace, tiny=True)
            got = set(result_line(client, summary)["metrics"])
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metric names differ "
                                f"from BENCHMARK.json: {sorted(got ^ want[trace])}")
            if client.failed:
                problems.append(f"{name} trace {trace}: {client.errors}")
    client, _, _ = run_e2e("campaign-io", DEFAULT_SEED, 0, tiny=True,
                           corrupt=True)
    if client.failed != 1 or "warm" not in client.errors[0]:
        problems.append(f"corrupted warm CSV not counted as one failure: "
                        f"{client.errors}")
    for p in problems:
        print(f"smoke: FAILED {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def run_all(seed, seconds):
    """Every workload end to end, then traced; one table of every metric."""
    rows = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            client, summary = run_one(name, seed, seconds, trace)
            rows += [(name, m, s["value"], s["unit"])
                     for m, s in summary.items()]
            rows.append((name, "failed_invocations", client.failed, "count"))
    print()
    for name, metric, value, unit in rows:
        print(f"{name:22} {metric:40} {value:>16.6g} {unit}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    try:
        if args.smoke:
            return smoke()
        if args.all:
            return run_all(args.seed, seconds)
        if args.workload is None:
            parser.error("--workload, --all or --smoke is required")
        client, summary = run_one(args.workload, args.seed, seconds,
                                  args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result_line(client, summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
