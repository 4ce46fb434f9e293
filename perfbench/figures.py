"""The paper-figures workload: Figures 9-17 and Tables 1-2 at ``tiny``.

The harness fixes its own seeds, so every row is compared exactly against
``reference_tiny.json`` (written by ``python3 perfbench/run.py
--write-reference``): any change to a simulated number is a mismatch.

The harness hides its workflows, so a small meter around the two submit
entry points (plain ``WorkflowExecutor.execute`` and ``ReStore.submit``)
collects per-workflow latency and the simulated and reuse totals. It costs
two clock reads and a reference slice per workflow and is installed in
untraced runs as well.
"""

import contextlib
import json
import os
import time

from repro import harness
from repro.harness.experiments import clear_cache
from repro.mapreduce.workflow import WorkflowExecutor
from repro.restore.manager import ReStore

from perfbench.streams import Pass

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference_tiny.json")

EXPERIMENTS = (
    "fig9_whole_jobs", "fig10_sub_jobs", "fig11_overhead", "fig12_speedup",
    "fig13_heuristic_reuse", "fig14_heuristic_overhead",
    "fig15_jobs_vs_subjobs", "fig16_projection", "fig17_filter",
    "table1_storage", "table2_synth_data",
)


@contextlib.contextmanager
def _metered(run, tracer):
    """Meter every workflow; with a ``tracer``, each also gets a root
    span, so its spans carry a workflow id."""
    execute = vars(WorkflowExecutor)["execute"]
    submit = vars(ReStore)["submit"]

    def timed(call, self, workflow):
        root = tracer.root(len(run.workflow_intervals)) if tracer else None
        started = time.perf_counter()
        try:
            result = call(self, workflow)
        finally:
            elapsed = time.perf_counter() - started
            if root is not None:
                tracer.finish(root)
        return result, run.meter.mark(elapsed)

    def record(workflow, result, interval, report=None):
        run.record(len(workflow.jobs), result, interval, report)
        # stored bytes here: bytes written by injected Stores per byte of
        # job input (the quantity of Table 1 and Figure 16)
        for job_result in result.job_results.values():
            run.stored_bytes += job_result.stats.injected_store_bytes
            run.input_bytes += job_result.stats.map_input_bytes

    def metered_execute(self, workflow):
        result, interval = timed(execute, self, workflow)
        record(workflow, result, interval)
        return result

    def metered_submit(self, workflow):
        result, interval = timed(submit, self, workflow)
        record(workflow, result, interval, self.last_report)
        return result

    WorkflowExecutor.execute = metered_execute
    ReStore.submit = metered_submit
    try:
        yield run
    finally:
        WorkflowExecutor.execute = execute
        ReStore.submit = submit


def run_suite(tracer=None):
    """One pass over every experiment, from an empty sweep cache. The
    pass's wall time leaves out the reference slices that follow each
    workflow (see ``perfbench.speed``)."""
    run = Pass()
    clear_cache()
    run.meter.settle()
    with _metered(run, tracer):
        started = time.perf_counter()
        for name in EXPERIMENTS:
            run.rows[name] = getattr(harness, name)("tiny").rows
        ended = time.perf_counter()
    run.meter.settle()
    run.settle_latencies()
    run.wall_s, run.host_wall_s = run.meter.span(started, ended)
    clear_cache()
    return run


def _as_json(rows):
    return json.loads(json.dumps(rows))


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def write_reference(run):
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({name: run.rows[name] for name in EXPERIMENTS}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


def mismatched(run, reference):
    """Experiments whose rows differ from the reference in any value."""
    return [name for name in EXPERIMENTS
            if _as_json(run.rows.get(name)) != reference.get(name)]
