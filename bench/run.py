#!/usr/bin/env python3
"""Benchmark of bungee-lab: gallery grids, all-paper presets, point classification.

Run from the repository root:

    python3 bench/run.py --workload gallery --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40   # each workload in its own process

Workloads (reasons in BENCHMARK.json); a "call" is what a user waits for:

    gallery         six gallery maps at 512x512 through classify_grid and
                    render_ppm, default thread count (nproc); one call is
                    the whole gallery and also the pass
    all-paper       run_preset("all-paper", samples=4096, seed=42), the
                    default sample seed whatever --seed says; one call is
                    the whole run and also the pass
    point-classify  in-process ``cli.main(["classify", ...])``; one call is
                    one CLI invocation, 176 calls (16 seeds of each of the
                    11 preset maps) make a pass

Each is a closed loop with one client: passes run back to back until the
next one would end more than half a pass after --seconds.  With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics of
BENCHMARK.json; set-up time is the median of fresh processes that import
the package, parse the maps and make one warm-up call.  With --trace 1 untraced and
traced passes on the same inputs alternate, and the JSON holds the
per-layer metrics: totals per traced pass, from spans that bench/tracer.py
records around the calls into each module.  A layer a workload never
calls reports 0.

Lines before the JSON give the environment and a readable table, which
also carries fail_frac, call_p50_ms and, for the gallery, Mpixel/s per
orbit-length group.  A run whose outputs fail a gate prints correct=false
and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
THREADS_ENV_VAR = "BUNGEE_LAB_THREADS"

PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.make(sys.argv[2], int(sys.argv[3])).warm_up()
print(time.perf_counter() - t0)
"""


def measure_setup(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(BENCH), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    if pos == lo:
        return s[lo]
    if math.isinf(s[lo + 1]):
        return math.inf
    return s[lo] + (s[lo + 1] - s[lo]) * (pos - lo)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# Runs


def run_plain(w, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while True:
        p = w.run_pass(w.next_inputs())
        w.check(p)
        p.grids = {}
        passes.append(p)
        typical = statistics.median(q.wall_s for q in passes)
        if time.perf_counter() - start + typical / 2 > seconds:
            return passes


def run_traced(w, seconds: float):
    """Untraced and traced passes on the same inputs, alternating."""
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        inputs = w.next_inputs()
        a = w.run_pass(inputs)
        w.check(a)
        a.grids = {}
        plain.append(a)
        tracing.install(tracer)
        try:
            b = w.run_pass(inputs)
        finally:
            tracer.uninstall()
        w.check(b)
        traced.append(b)
        typical = statistics.median(p.wall_s + q.wall_s for p, q in zip(plain, traced))
        if time.perf_counter() - start + typical / 2 > seconds:
            break
    serial = w.serial_pass(traced[-1]) if hasattr(w, "serial_pass") else None
    return tracer, plain, traced, serial


def end_to_end(passes: list, setup_s: float) -> dict:
    # a call that failed a gate, and the pass it ran in, count as infinitely slow
    calls = [c for p in passes for c in p.call_s + [math.inf] * (p.calls - len(p.call_s))]
    failed = any(p.failed for p in passes)
    return {
        "setup_s": setup_s,
        # the mean over the run, not the median of a few passes, so that
        # the machine's slow and fast spells average out
        "wall_s": math.inf if failed else statistics.fmean(p.wall_s for p in passes),
        # table only: on point-classify the median falls in the gap between
        # sin(z)'s calls (17 ms) and the slower maps' (30-70 ms) and jumps
        # with the seed
        "call_p50_ms": percentile(calls, 0.5) * 1e3,
        "call_p90_ms": percentile(calls, 0.9) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def mpix_per_s(passes: list) -> dict:
    """Median Mpixel/s of each orbit-length group of the gallery."""
    out = {}
    for g in sorted({g for p in passes for g in p.groups}):
        rates = [ratio(*p.groups.get(g, (0, 0.0))) / 1e6 for p in passes]
        out[f"{g}_orbit_mpix_per_s"] = statistics.median(rates)
    return out


def per_layer(tracer, plain: list, traced: list, serial, workers: int) -> dict:
    t = tracer
    n = len(traced)
    eval_calls = t.calls("engine.eval")
    eval_points = t.points("engine.eval")
    eval_s = t.seconds("engine.eval")
    seed_steps = t.points("engine.eval", parent="orbit.batch")
    bookkeeping_s = t.self_seconds("orbit.batch")
    point_steps = t.calls("engine.eval", parent="orbit.point")
    classify_s = t.seconds("grid.classify")
    ppm_s = t.seconds("render.ppm")
    chunks = t.chunk_s
    # every traced pass of a run has the same inputs, so the distinct keys
    # over all passes are the distinct keys of one pass
    batch_calls = len(t.batch_keys)
    batch_distinct = len(set(t.batch_keys))
    traced_wall = sum(p.wall_s for p in traced)
    m = {
        "expr.parse_calls": t.calls("expr.parse") / n,
        "expr.parse_s": t.seconds("expr.parse") / n,
        "expr.build_s": t.seconds("expr.build") / n,
        "engine.eval_calls": eval_calls / n,
        "engine.eval_points": eval_points / n,
        "engine.eval_s": eval_s / n,
        "engine.ns_per_point": ratio(eval_s, eval_points) * 1e9,
        "engine.points_per_call": ratio(eval_points, eval_calls),
        "orbit.batch_calls": t.calls("orbit.batch") / n,
        "orbit.batch_seed_steps": seed_steps / n,
        "orbit.batch_s": t.seconds("orbit.batch") / n,
        "orbit.batch_eval_s": t.seconds("engine.eval", parent="orbit.batch") / n,
        "orbit.batch_bookkeeping_s": bookkeeping_s / n,
        "orbit.bookkeeping_ns_per_seed_step": ratio(bookkeeping_s, seed_steps) * 1e9,
        "orbit.point_calls": t.calls("orbit.point") / n,
        "orbit.point_steps": point_steps / n,
        "orbit.point_us_per_step": ratio(t.seconds("orbit.point"), point_steps) * 1e6,
        "orbit.fixed_points_s": t.seconds("orbit.fixed_points") / n,
        "grid.classify_s": classify_s / n,
        "grid.workers": workers,
        "grid.chunks": len(chunks) / n,
        "grid.chunk_p50_s": statistics.median(chunks) if chunks else 0.0,
        "grid.chunk_max_s": max(chunks, default=0.0),
        "grid.parallel_efficiency": ratio(sum(chunks), classify_s * workers),
        "grid.serial_s": serial.classify_s if serial else 0.0,
        "grid.speedup": (
            ratio(serial.classify_s, statistics.median(p.classify_s for p in plain)) if serial else 0.0
        ),
        "render.ppm_s": ppm_s / n,
        "render.mb_per_s": ratio(t.points("render.ppm"), ppm_s) / 1e6,
        "verify.sampler_s": t.seconds("verify.sampler") / n,
        "verify.batch_calls": batch_calls / n,
        "verify.batch_distinct": batch_distinct,
        "verify.batch_useful_ratio": ratio(batch_distinct * n, batch_calls),
        "cli.main_s": t.seconds("cli.main") / n,
        "cli.overhead_s": t.self_seconds("cli.main") / n,
        "trace.overhead_frac": ratio(traced_wall, sum(p.wall_s for p in plain)) - 1,
        "trace.other_s": (traced_wall - t.root_s) / n,
    }
    for rel in ("containment", "invariance", "commute", "translate", "value_identity", "property_a"):
        name = f"verify.{rel}"
        m[f"{name}_s"] = t.seconds(name, not_parent=name) / n
    from bungee_lab.presets import PRESETS

    for key in PRESETS:
        m[f"presets.{key}_s"] = t.seconds(f"presets.{key}") / n
    return m


# ---------------------------------------------------------------------------
# Entry


def run_all(args, spec) -> int:
    """Every workload in turn, each in a process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=1200,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {wl['name']} printed no result (exit {done.returncode})",
                  file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{wl['name']}.{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bungee_lab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: the benchmark needs src/bungee_lab and BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*why, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if THREADS_ENV_VAR in os.environ:
        # the gallery must run at the default thread count, nproc
        print(f"error: unset {THREADS_ENV_VAR} to run the benchmark", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)

    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
    import numpy
    import workloads
    from bungee_lab.grid import resolve_workers

    workers = resolve_workers(None)
    w = workloads.make(args.workload, args.seed)
    w.warm_up()

    if args.trace:
        tracer, plain, traced, serial = run_traced(w, args.seconds)
        passes = plain + traced + ([serial] if serial else [])
        values = per_layer(tracer, plain, traced, serial, workers)
        table = dict(values)
        wanted = spec["per_layer"]
    else:
        passes = run_plain(w, args.seconds)
        values = end_to_end(passes, setup_s)
        table = {**values, **mpix_per_s(passes)}
        wanted = spec["end_to_end"]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(
        call_p50_ms="ms", short_orbit_mpix_per_s="Mpixel/s", long_orbit_mpix_per_s="Mpixel/s",
        fail_frac="ratio",
    )
    table["fail_frac"] = ratio(failed, attempted)

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workers": workers,
    }
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {why[args.workload]}")
    print(f"# env: {json.dumps(env)}")
    print(f"# passes={len(passes)} attempted={attempted} failed={failed}")
    for name, value in table.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    for p in passes:
        for err in p.errors[:5]:
            print(f"FAILED {err}", file=sys.stderr)

    correct = failed == 0 and attempted > 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
