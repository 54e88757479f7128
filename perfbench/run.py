"""Benchmark of the quintic-moduli workbench.

    python3 perfbench/run.py --workload fiber-oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout.  Each workload runs in fresh
single-threaded interpreters pinned to one core (see worker.py): several
spawn only to time set-up, one runs the closed loop.  End-to-end times are
scaled to nominal machine speed by a reference kernel (calibrate.py).  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs one cycle twice untraced and
twice traced, alternately, checks that every count repeats between the
traced passes, and prints the per-layer metrics.  The last stdout line is the JSON result; the full
record (machine facts, every item) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import check_tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SPAWNS = 15  # set-up samples per run
IMPORT_SPAWNS = 7
WORKER_TIMEOUT = 170


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, mode, seconds, spans_file=None):
    """Run one worker; returns (spawn-to-READY seconds, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(seconds)]
    if spans_file:
        cmd.append(str(spans_file))
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=workloads.cli_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {workload}/{mode} failed (exit {proc.returncode})")
    return ready, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def spawn_time(code: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(), check=True)
    return perf_counter() - start


def tally(items) -> dict:
    statuses = [row[2] for row in items]
    return {
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "correct": not any(s in ("wrong", "error") for s in statuses),
        "by_status": {s: statuses.count(s) for s in sorted(set(statuses))},
    }


def end_to_end(workload, seed, seconds) -> tuple[dict, dict]:
    # times are scaled to nominal machine speed (calibrate.py); the raw
    # figures go to the detail record next to them
    clock = calibrate.Clock()
    raw_setups, setups = [], []
    for _ in range(SETUP_SPAWNS):
        clock.tick(force=True)
        t0 = perf_counter()
        ready = spawn(workload, seed, "setup", seconds)[0]
        t1 = perf_counter()
        clock.tick(force=True)
        raw_setups.append(ready)
        setups.append(ready * clock.scale_between(t0, t1))
    _, res = spawn(workload, seed, "measure", seconds)
    items = res["items"]
    t = tally(items)
    ok = t["by_status"].get("ok", 0)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": ok / sum(row[4] for row in items),
        "item_s_p50": statistics.median(row[4] for row in items),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    detail = {
        **t,
        "failed_frac": t["failed"] / t["attempted"],
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "items_per_s": ok / res["wall"],
            "item_s_p50": statistics.median(row[1] for row in items),
        },
        "kernel_s_median": statistics.median(res["kernel_s"]),
        "nominal_kernel_s": calibrate.NOMINAL_S,
        "cycles": res["cycles"],
        "wall_s": res["wall"],
        "setup_samples": raw_setups,
        "items": items,
    }
    return values, detail


def per_layer(workload, seed, seconds, names) -> tuple[dict, dict]:
    check_tracing.check()
    OUT.mkdir(exist_ok=True)
    # untraced and traced passes alternate, and each pass's wall time is
    # scaled by the kernel timed around it, so drift in machine speed does
    # not pass for tracing overhead
    clock = calibrate.Clock()
    bases, passes, scaled = [], [], {"fixed": 0.0, "trace": 0.0}
    for k in (1, 2):
        for mode, runs in (("fixed", bases), ("trace", passes)):
            spans_file = OUT / f"spans-{workload}-seed{seed}-pass{k}.jsonl"
            clock.tick(force=True)
            t0 = perf_counter()
            runs.append(spawn(workload, seed, mode, seconds, spans_file if mode == "trace" else None)[1])
            t1 = perf_counter()
            clock.tick(force=True)
            scaled[mode] += runs[-1]["wall"] * clock.scale_between(t0, t1)
    first = passes[0]
    mismatched = sorted(
        k for k in set(first["counts"]) | set(passes[1]["counts"])
        if first["counts"].get(k) != passes[1]["counts"].get(k)
    )
    untraced, traced = scaled["fixed"], scaled["trace"]
    bare = statistics.median(spawn_time("pass") for _ in range(IMPORT_SPAWNS))
    cli = statistics.median(spawn_time("import quintic_moduli.cli") for _ in range(IMPORT_SPAWNS))
    extra = {
        "cli.import_s": cli - bare,
        "trace.overhead_s": (traced - untraced) / 2,
        "trace.overhead_frac": traced / untraced - 1,
        "trace.spans": first["n_spans"],
    }
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
        elif name in first["counters"]:
            values[name] = first["counters"][name]
        else:
            layer, stat = name.rsplit(".", 1)
            if stat not in ("calls", "busy_s", "self_s", "points"):
                raise BenchError(f"no rule for per-layer metric {name}")
            values[name] = first["totals"].get(layer, {}).get(stat, 0)
    t = tally([i for run in bases + passes for i in run["items"]])
    detail = {
        **t,
        "correct": t["correct"] and not mismatched,
        "counts_repeat": not mismatched,
        "mismatched_counts": mismatched,
        "untraced_wall_s": [b["wall"] for b in bases],
        "traced_wall_s": [p["wall"] for p in passes],
        "counts": first["counts"],
        "items": first["items"],
    }
    return values, detail


def machine_facts(workload, seed, seconds) -> dict:
    import mpmath.libmp

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "fiber_primes": workloads.FIBER_PRIMES,
        "exact_primes": workloads.EXACT_PRIMES,
    }


def run_one(spec, workload, seed, seconds, trace) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values, detail = per_layer(workload, seed, seconds, [m["name"] for m in wanted])
    else:
        values, detail = end_to_end(workload, seed, seconds)
    facts = machine_facts(workload, seed, seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    print(f"== {workload} seed {seed} trace {trace}: {detail['attempted']} items {detail['by_status']}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in detail.get("raw", {}).items():
        print(f"  {name + ' (raw, unscaled)':48s} {value:.6g} {units[name]}")
    # zero on most workloads, so carried by attempted/failed, not as a bounded metric
    print(f"  {'failed_frac':48s} {detail['failed'] / detail['attempted']:.6g} ratio")
    print("facts " + json.dumps(facts, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "metrics": metrics, "detail": detail}, fh, indent=1)
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # one core for the benchmark and every process it starts: the reference
    # kernel then times the core that the items run on (cores of a shared
    # host drift apart)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "quintic_moduli" / "__init__.py").is_file():
        print("error: no quintic_moduli sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        parser.error(f"--workload must be one of {names} or all")

    try:
        results = {w: run_one(spec, w, args.seed, args.seconds, args.trace) for w in chosen}
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
