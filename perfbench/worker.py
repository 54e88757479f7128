"""One workload in one fresh, single-threaded interpreter.

Usage: worker.py <workload> <seed> <mode> <seconds> [spans-file]

mode ``setup``   set up, print READY and exit (a set-up time sample);
     ``measure`` set up, then run whole cycles for about ``seconds``,
                 timing the reference kernel between items (calibrate.py)
                 so each item also gets a time scaled to nominal speed;
     ``fixed``   run exactly one cycle, untraced (the tracing baseline);
     ``trace``   install the tracer first, then run exactly one cycle.
The parent times spawn-to-READY; the last stdout line is a JSON result.
"""

from __future__ import annotations

import json
import random
import resource
import sys
from time import perf_counter

import calibrate
import workloads


def main(argv) -> int:
    workload, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    tracer = None
    if mode == "trace":
        import tracing  # installed before set-up, so set-up runs traced

        tracer = tracing.Tracer()
        tracing.install(tracer, result_hooks(tracer))
    ctx = workloads.setup(workload)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    rng = random.Random(seed)
    clock = calibrate.Clock() if mode == "measure" else None
    # CLI items wait on a child process: a timer there would run the kernel
    # beside the child instead of pausing it, so sample between items
    timed = clock is not None and workload != "cli-light"
    items = []  # [kind, seconds, status, note(, scaled seconds)]
    intervals = []
    n_cycles = None if mode == "measure" else 1
    done = 0
    if timed:
        clock.start_timer()
    start = perf_counter()
    while n_cycles is None or done < n_cycles:
        for item in workloads.cycle(workload, rng, ctx, done):
            if clock is not None and not timed:
                clock.tick()
            if tracer is not None:
                tracer.item = len(items)
            t0, t1, status, note = workloads.run_item(ctx, item)
            paused = clock.paused_within(t0, t1) if clock is not None else 0.0
            intervals.append((t0, t1))
            items.append([item[0], t1 - t0 - paused, status, note])
        done += 1
        if n_cycles is None:
            # whole cycles keep the stated mix; size the run from the first one
            n_cycles = max(1, round(seconds / (perf_counter() - start)))
    wall = perf_counter() - start
    if clock is not None:
        if timed:
            clock.stop_timer()
        clock.tick(force=True)
        wall -= clock.paused_within(start, start + wall)
        for row, (t0, t1) in zip(items, intervals):
            row.append(row[1] * clock.scale_between(t0, t1))

    usage = resource.RUSAGE_CHILDREN if workload == "cli-light" else resource.RUSAGE_SELF
    result = {
        "items": items,
        "wall": wall,
        "kernel_s": [k for _, k in clock.marks] if clock is not None else [],
        "cycles": done,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
    }
    if tracer is not None:
        tracer.item = None
        result.update(layer_figures(tracer))
        if len(argv) > 4:
            tracer.write(argv[4])
    print(json.dumps(result))
    return 0


def result_hooks(tracer) -> dict:
    """Counters read off the values a layer returns, keyed by span name."""
    for key in ("fiber_counting.successes", "plane_curves.frames_tried",
                "arc_limits.points_used", "arc_limits.points_total", "arc_limits.diverged"):
        tracer.counters[key] = 0

    def fiber(report):
        tracer.add("fiber_counting.successes")

    def genericity(report):
        tracer.add("plane_curves.frames_tried", report.frames_tried)

    def arc(limit):
        tracer.add("arc_limits.points_used", limit.points_used)
        tracer.add("arc_limits.points_total", limit.points_used + limit.points_skipped)
        tracer.add("arc_limits.diverged", int(limit.diverged))

    return {
        "fiber_counting.count_fiber": fiber,
        "plane_curves.genericity_report": genericity,
        "arc_limits.arc_limit_numeric": arc,
    }


def layer_figures(tracer) -> dict:
    """Per-name span totals, derived counters, and the counts that must repeat."""
    import tracing

    spans = tracer.spans
    totals = tracing.span_totals(spans)
    c = dict(tracer.counters)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    c["invariants.normalisation_s"] = sum(
        end - start
        for name, start, end, parent, item, size in spans
        if name == "invariants.normalisation" and item is None
    )
    c["fiber_counting.attempts"] = calls("fiber_counting.build_fiber_system")
    c["fiber_counting.useful_ratio"] = ratio(
        c["fiber_counting.successes"], c["fiber_counting.attempts"]
    )
    c["elimination.samples_tried"] = c.pop("elimination.eval_slices") // 2
    c["elimination.samples_used"] = tracing.samples_used(spans)
    c["elimination.sample_yield"] = ratio(
        c["elimination.samples_used"], c["elimination.samples_tried"]
    )
    c["arc_limits.points_used_ratio"] = ratio(
        c["arc_limits.points_used"], c["arc_limits.points_total"]
    )
    counts = {k: v for k, v in c.items() if isinstance(v, int)}
    for name, t in totals.items():
        counts[name + ".calls"] = t["calls"]
        counts[name + ".points"] = t["points"]
    return {"totals": totals, "counters": c, "counts": counts, "n_spans": len(spans)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
