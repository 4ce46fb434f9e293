"""ReStore benchmark: three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pigmix-evolving --seed 1 \\
        --seconds 12 --trace 0

Workloads (one single-threaded process, one closed-loop client, inline
ingest, the indexed in-process ``Repository``):

* ``paper-figures``   -- Figures 9-17 and Tables 1-2 through
  ``repro.harness`` at the ``tiny`` profile, every row checked against
  ``reference_tiny.json``. The harness fixes its seeds; ``--seed`` is
  unused.
* ``pigmix-evolving`` -- five rounds of the 15 PigMix queries on the
  150GB instance; a seeded slice of page views is appended under the live
  repository before each round after the first.
* ``adhoc-churn``     -- distinct short queries over a small synthetic
  table that is regenerated every 100 submits; stresses eviction,
  checkpoints and DFS overwrite/delete.

A run repeats whole passes over its workload until ``--seconds`` have
passed, at least 100 workflows were timed and the workload's fewest
passes (``MIN_PASSES``) ran, and reports medians; latency percentiles
pool every pass's workflows. Timings are in reference seconds: each timed
interval is scaled by the host's speed around it, measured with a fixed
reference slice run right after it (``perfbench/speed.py``), so that runs
agree on a shared host whose speed drifts; the wall-clock figures are
printed beside them. Stream outputs are checked against a replay on a
fresh system without reuse. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` makes a traced pass between two untraced ones and prints
the per-layer metrics and the tracing overhead, and writes the spans to
``perfbench/out/``. The last line of standard output is one JSON object.
The exit code is non-zero when any output mismatched.
"""

import argparse
import json
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("paper-figures", "pigmix-evolving", "adhoc-churn")

#: (name, unit), in BENCHMARK.json's order. Timings are in reference
#: seconds (``perfbench.speed``); setup_s too, with the unit the benchmark
#: contract fixes for it.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "ref_s"),
    ("workflows_per_ref_s", "1/ref_s"),
    ("submit_p50_ref_ms", "ref_ms"),
    ("submit_p90_ref_ms", "ref_ms"),
    ("sim_s_total", "sim_s"),  # the cost model's simulated seconds
    ("reuse_ratio", "fraction"),
    ("stored_bytes_ratio", "fraction"),
    ("peak_rss_mb", "MB"),
)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
#: so that p90 has MIN_BEYOND samples beyond it
MIN_SAMPLES = 100
#: Fewest passes per untraced run. Reference seconds take out most of the
#: host's speed drift; several passes, with their medians (and latencies
#: pooled over the passes) reported, take out the rest, and give the
#: latency percentiles enough samples where their distribution is sparse.
MIN_PASSES = {"paper-figures": 3, "pigmix-evolving": 3, "adhoc-churn": 4}
#: set-ups measured per run when a pass does not set up (paper-figures)
SETUP_REPEATS = 5
#: fresh interpreters that time the program's imports, per run
IMPORT_REPEATS = 5


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (ValueError) when fewer than MIN_BEYOND samples lie beyond the
    chosen rank: such a tail percentile would be one or two outliers."""
    count = len(samples)
    rank = math.ceil(q / 100 * count)
    if rank < 1 or count - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q} of {count} samples leaves {count - rank} beyond it; "
            f"need at least {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def scheduler_guard():
    """The run must have stayed one process with one thread, so the
    numbers measure the program and not the scheduler."""
    children = multiprocessing.active_children()
    threads = threading.active_count()
    if children or threads != 1:
        raise RuntimeError(f"run used {len(children)} child process(es) and "
                           f"{threads} thread(s); expected 0 and 1")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _passes(run_pass, seconds, min_passes):
    """Whole passes until ``seconds`` have passed, at least ``min_passes``
    ran and at least MIN_SAMPLES workflows were timed."""
    runs = []
    started = time.perf_counter()
    while (len(runs) < min_passes or time.perf_counter() - started < seconds
           or sum(len(run.latencies_s) for run in runs) < MIN_SAMPLES):
        runs.append(run_pass())
    return runs


def end_to_end(runs, setup_s):
    """The end-to-end metrics over the untraced passes ``runs``.

    Simulated time and the two ratios are taken from the first pass; they
    repeat exactly for one seed (``deterministic_mismatch`` checks)."""
    latencies = [s for run in runs for s in run.latencies_s]
    first = runs[0]
    values = {
        "setup_s": setup_s,
        "wall_ref_s": statistics.median(run.wall_s for run in runs),
        "workflows_per_ref_s": len(latencies) / sum(run.wall_s
                                                    for run in runs),
        "submit_p50_ref_ms": percentile(latencies, 50) * 1000,
        "submit_p90_ref_ms": percentile(latencies, 90) * 1000,
        "sim_s_total": first.sim_s_total,
        "reuse_ratio": first.reuse_ratio,
        "stored_bytes_ratio": first.stored_bytes_ratio,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": f"median of {IMPORT_REPEATS} imports + median "
                          "of set-ups",
               "wall_ref_s": f"median of {len(runs)} pass(es)",
               "submit_p50_ref_ms": f"n={len(latencies)}",
               "submit_p90_ref_ms": f"n={len(latencies)}"}
    return {name: (values[name], unit) for name, unit in END_TO_END}, samples


def host_timings(runs):
    """The same timings in wall-clock seconds, printed beside the gated
    ones: they move with the host's speed."""
    latencies = [s for run in runs for s in run.host_latencies_s]
    return {
        "wall_s": (statistics.median(run.host_wall_s for run in runs), "s"),
        "workflows_per_s": (len(latencies) / sum(run.host_wall_s
                                                 for run in runs), "1/s"),
        "submit_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "submit_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
    }


def deterministic_mismatch(runs):
    """Passes that disagree with the first on the exact per-seed totals."""
    first = runs[0]
    return sum(1 for run in runs[1:]
               if (run.sim_s_total, run.jobs_reused, run.jobs_submitted)
               != (first.sim_s_total, first.jobs_reused, first.jobs_submitted))


class Outcome:
    def __init__(self):
        self.metrics = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.layers = None
        self.host = {}


def measure(workload, seed, seconds, trace, run_pass, check, setup_s):
    """Run ``workload`` and check every pass.

    ``run_pass(tracer)`` makes one pass (``tracer`` is None when
    untraced); ``check(run)`` returns the pass's (attempted, failed,
    notes); ``setup_s(runs)`` gives the set-up time. Untraced runs repeat
    passes (see ``_passes``) for the end-to-end metrics; traced runs make
    one traced pass between two untraced ones, so that neither warm-up
    nor drift lands on the overhead estimate."""
    from perfbench import trace as tracing

    outcome = Outcome()
    if trace:
        runs = [run_pass(None)]
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced_run = run_pass(tracer)
        runs.append(run_pass(None))
        outcome.layers = _layers(workload, seed, tracer, traced_run, runs)
        checked = runs + [traced_run]
    else:
        runs = _passes(lambda: run_pass(None), seconds,
                       MIN_PASSES[workload])
        outcome.metrics, outcome.samples = end_to_end(runs, setup_s(runs))
        outcome.host = host_timings(runs)
        checked = runs
    for run in checked:
        attempted, failed, notes = check(run)
        outcome.attempted += attempted
        outcome.failed += failed
        outcome.notes += notes
    if deterministic_mismatch(runs):
        outcome.failed += 1
        outcome.notes.append("passes disagree on the simulated totals")
    return outcome


def run_paper_figures(seed, seconds, trace, import_s):
    from perfbench import figures, speed

    meter = speed.SpeedMeter()
    loads = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        reference = figures.load_reference()
        loads.append(meter.mark(time.perf_counter() - started))
    meter.settle()
    load_s = statistics.median(meter.reference_s(load) for load in loads)

    def check(run):
        bad = figures.mismatched(run, reference)
        return (len(figures.EXPERIMENTS), len(bad),
                [f"{name} differs from the reference" for name in bad])

    return measure("paper-figures", seed, seconds, trace,
                   figures.run_suite, check,
                   lambda runs: import_s + load_s)


def run_stream_workload(name, seed, seconds, trace, import_s):
    from perfbench import streams

    stream = streams.STREAMS[name](seed)
    expected = []

    def check(run):
        if not expected:
            expected.extend(streams.oracle_digests(stream))
        wrong = sum(1 for got, want in zip(run.digests, expected)
                    if got != want)
        wrong += abs(len(run.digests) - len(expected))
        notes = ([f"{wrong} submit(s) differ from the no-reuse replay"]
                 if wrong else [])
        return len(expected), wrong, notes

    return measure(name, seed, seconds, trace,
                   lambda tracer: streams.run_stream(stream, tracer), check,
                   lambda runs: import_s + statistics.median(
                       run.setup_s for run in runs))


def _layers(workload, seed, tracer, traced_run, untraced_runs):
    """Per-layer metrics and stress checks of a traced pass; writes its
    spans to OUT_DIR. The spans are wall-clock, so the checks compare them
    with the traced pass's wall-clock time; the overhead compares reference
    seconds, which the host's speed moves less."""
    from perfbench import trace

    metrics, bases = trace.layer_metrics(tracer)
    untraced_wall_s = statistics.mean(run.wall_s for run in untraced_runs)
    metrics["trace.overhead_frac"] = (
        (traced_run.wall_s - untraced_wall_s) / untraced_wall_s, "fraction")
    bases["trace.overhead_frac"] = ("(traced wall_ref_s - untraced "
                                    "wall_ref_s)", "untraced wall_ref_s")
    traced_wall_s = traced_run.host_wall_s
    untraced_wall_s = statistics.mean(run.host_wall_s
                                      for run in untraced_runs)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.jsonl")
    tracer.write_jsonl(spans_path)
    return {
        "metrics": metrics, "bases": bases, "spans": spans_path,
        "span_count": len(tracer.spans), "traced_wall_s": traced_wall_s,
        "untraced_wall_s": untraced_wall_s,
        "checks": trace.stress_checks(workload, metrics, traced_wall_s),
    }


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, outcome, trace):
    print(f"== {workload} (seed {seed}) ==")
    if not trace:
        print("end-to-end (untraced):")
        for name, (value, unit) in outcome.metrics.items():
            extra = outcome.samples.get(name, "")
            print(f"  {name:<22} {_format(value):>14} {unit:<9} {extra}")
        print("wall-clock (moves with the host's speed; not gated):")
        for name, (value, unit) in outcome.host.items():
            print(f"  {name:<22} {_format(value):>14} {unit:<9}")
    failed_frac = outcome.failed / outcome.attempted
    print(f"  {'failed_frac':<22} {_format(failed_frac):>14} {'fraction':<9} "
          f"= {outcome.failed} failed / {outcome.attempted} attempted")
    for note in outcome.notes:
        print(f"  MISMATCH: {note}")
    if trace:
        layers = outcome.layers
        print(f"per-layer (traced pass: wall {layers['traced_wall_s']:.4f} s, "
              f"untraced passes: mean {layers['untraced_wall_s']:.4f} s; "
              f"{layers['span_count']} spans -> {layers['spans']}):")
        for name, (value, unit) in layers["metrics"].items():
            base = layers["bases"].get(name)
            extra = f"= {base[0]} / {base[1]}" if base else ""
            print(f"  {name:<28} {_format(value):>14} {unit:<9} {extra}")
        print("stress checks:")
        for description, held in layers["checks"]:
            print(f"  [{'ok' if held else 'NOT MET'}] {description}")
    chosen = outcome.layers["metrics"] if trace else outcome.metrics
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return result["correct"]


def _import_program():
    """Import the program's modules (through the benchmark's own); returns
    the reference seconds it took."""
    started = time.perf_counter()
    import perfbench.figures  # noqa: F401  (the program's modules load here)
    import perfbench.streams  # noqa: F401
    import perfbench.trace  # noqa: F401
    from perfbench import speed

    meter = speed.SpeedMeter()
    interval = meter.mark(time.perf_counter() - started)
    meter.settle()
    return meter.reference_s(interval)


def _median_import_s():
    """The program's import time, part of every workload's set-up: the
    median over IMPORT_REPEATS fresh interpreters, run one after the
    other, each timing its own imports."""
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--time-import"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rerun the paper-figures suite and overwrite "
                        "reference_tiny.json with its rows")
    parser.add_argument("--time-import", action="store_true",
                        help="print how long importing the program took, "
                        "in reference seconds, and exit")
    args = parser.parse_args(argv)
    if not (args.write_reference or args.time_import) and args.workload is None:
        parser.error("--workload is required")
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"benchmark: program sources not found under {source}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    if args.time_import:
        print(_import_program())
        return 0
    if args.write_reference:
        _import_program()
        from perfbench import figures

        figures.write_reference(figures.run_suite())
        return 0
    import_s = _median_import_s()
    _import_program()
    if args.workload == "paper-figures":
        outcome = run_paper_figures(args.seed, args.seconds, args.trace,
                                    import_s)
    else:
        outcome = run_stream_workload(args.workload, args.seed, args.seconds,
                                      args.trace, import_s)
    scheduler_guard()
    return 0 if report(args.workload, args.seed, outcome, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
