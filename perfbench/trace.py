"""Per-layer tracing from outside the program.

:func:`traced` wraps the public entry points of each layer (the
``ENTRY_POINTS`` table) for the duration of a ``with`` block and puts the
original attributes back afterwards, so the program under test carries no
tracing code and an untraced run pays nothing.

A span records name, start, end, parent span and workflow id. Spans are
held in memory and written out as JSON lines when the run ends. Per-row
codec calls are not one span each: their time and count are summed per
enclosing span and recorded as one aggregate child span
(``start`` = first call, ``end - start`` = summed duration, ``calls``).
"""

import contextlib
import json
import time
from collections import Counter, defaultdict

from repro import api
from repro.data import codec
from repro.dfs import DistributedFileSystem
from repro.mapreduce import runner
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.workflow import WorkflowExecutor
from repro.pigmix import PigMixData
from repro.restore import manager
from repro.restore.manager import ReStore
from repro.restore.repository import Repository
from repro.restore.selector import HeuristicRetentionPolicy, KeepEverythingPolicy
from repro.restore.wal import RepositoryLog
from repro.synth import SynthData

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "workflow", "start", "end", "calls",
                 "_aggregates")

    def __init__(self, span_id, name, parent, workflow, start, end=None,
                 calls=1):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.workflow = workflow
        self.start = start
        self.end = end
        self.calls = calls
        self._aggregates = None

    @property
    def duration(self):
        return self.end - self.start

    def as_json(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "workflow": self.workflow, "start": self.start,
                "end": self.end, "calls": self.calls}


class Tracer:
    """In-memory span recorder plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 1
        self._workflow = None
        # per-row calls made while no span is open
        self._outside = Span(0, "outside", None, None, 0.0)

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, name, parent, self._workflow, _clock())
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = _clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._flush_aggregates(span)
        self.spans.append(span)

    def root(self, workflow):
        """Open the root span of one client workflow (compile + submit)."""
        self._workflow = workflow
        return self.begin("workflow")

    def finish(self, root):
        self.end(root)
        self._workflow = None

    def add_call(self, name, start, seconds):
        """Fold one per-row call into the innermost open span."""
        span = self._stack[-1] if self._stack else self._outside
        if span._aggregates is None:
            span._aggregates = {}
        entry = span._aggregates.get(name)
        if entry is None:
            span._aggregates[name] = [start, seconds, 1]
        else:
            entry[1] += seconds
            entry[2] += 1

    def _flush_aggregates(self, span):
        if not span._aggregates:
            return
        for name, (start, seconds, calls) in span._aggregates.items():
            # the `outside` placeholder has id 0: its aggregates are roots
            self.spans.append(Span(self._next_id, name, span.id or None,
                                   span.workflow, start, start + seconds,
                                   calls))
            self._next_id += 1
        span._aggregates = None

    def close(self):
        """Emit the aggregates of calls made outside any span."""
        self._flush_aggregates(self._outside)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_json()) + "\n")


# --- the wrapped entry points ----------------------------------------------------


def _count_rows(tracer, args, result):
    tracer.counts["shuffle.rows"] += len(args[0])


def _count_write(tracer, args, result):
    tracer.counts["dfs.write_bytes"] += result.size_bytes


def _count_match(tracer, args, result):
    if result is not None:
        tracer.counts["restore.matched"] += 1


def _count_injected(tracer, args, result):
    tracer.counts["restore.stores_injected"] += len(result)


def _count_checkpoint(tracer, args, result):
    tracer.counts["restore.checkpoint_records"] += result["appended"]
    tracer.counts["restore.compactions"] += bool(result["compacted"])


#: (owner, attribute, span name, counter hook or None). Module-level
#: functions are patched where the caller looks them up.
ENTRY_POINTS = (
    (PigMixData, "install", "datagen.install", None),
    (SynthData, "install", "datagen.install", None),
    (api, "parse_query", "compile.parse", None),
    (api, "build_logical_plan", "compile.logical", None),
    (api, "logical_to_physical", "compile.physical", None),
    (api, "compile_to_workflow", "compile.mr", None),
    (WorkflowExecutor, "execute", "engine.workflow", None),
    (JobRunner, "run", "engine.job", None),
    (runner, "grouped_partitions", "shuffle.partition", _count_rows),
    (DistributedFileSystem, "read_lines", "dfs.read", None),
    (DistributedFileSystem, "write_lines", "dfs.write", _count_write),
    (DistributedFileSystem, "append_lines", "dfs.append", None),
    (DistributedFileSystem, "delete", "dfs.delete", None),
    (Repository, "match_candidates", "restore.probe", None),
    (manager, "find_containment", "restore.containment", _count_match),
    (manager, "apply_rewrite", "restore.rewrite", None),
    (manager, "enumerate_and_inject", "restore.enumerate", _count_injected),
    (ReStore, "apply_register", "restore.register", None),
    (Repository, "find_equivalent", "restore.equivalent", None),
    (Repository, "insert", "restore.insert", None),
    (HeuristicRetentionPolicy, "sweep", "restore.sweep", None),
    (KeepEverythingPolicy, "sweep", "restore.sweep", None),
    (Repository, "remove", "restore.remove", None),
    (RepositoryLog, "checkpoint", "restore.checkpoint", _count_checkpoint),
    (ReStore, "submit", "submit", None),
)

#: Per-row functions: aggregated per enclosing span, never one span each.
PER_ROW_ENTRY_POINTS = (
    (codec, "decode_row", "codec.decode"),
    (runner, "encode_row", "codec.encode"),
)


def _make_span_wrapper(tracer, original, name, hook, is_method):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(span)
        if hook is not None:
            hook(tracer, args[1:] if is_method else args, result)
        return result

    return wrapper


def _make_row_wrapper(tracer, original, name):
    def wrapper(*args):
        start = _clock()
        try:
            return original(*args)
        finally:
            tracer.add_call(name, start, _clock() - start)

    return wrapper


@contextlib.contextmanager
def traced(tracer):
    """Install the wrappers for ``tracer``; restore the originals on exit."""
    saved = []
    try:
        for owner, attribute, name, hook in ENTRY_POINTS:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _make_span_wrapper(
                tracer, original, name, hook, isinstance(owner, type)))
        for owner, attribute, name in PER_ROW_ENTRY_POINTS:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _make_row_wrapper(tracer, original, name))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        tracer.close()


# --- from spans to per-layer metrics ----------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    children (spans on one thread nest, so children never overlap)."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def layer_of(name):
    return name.split(".", 1)[0]


def busy_times(spans):
    """Per layer, the time some span of that layer was open: the summed
    durations of its spans that have no ancestor in the same layer."""
    by_id = {span.id: span for span in spans}
    busy = defaultdict(float)
    for span in spans:
        layer = layer_of(span.name)
        parent = by_id.get(span.parent)
        while parent is not None and layer_of(parent.name) != layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            busy[layer] += span.duration
    return busy


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer):
    """Every per-layer metric, plus the ratios' bases for printing.

    Returns ``(metrics, bases)``: ``metrics`` maps name -> (value, unit);
    ``bases`` maps a ratio's name -> (numerator name, denominator name).
    """
    spans = tracer.spans
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = Counter()
    for span in spans:
        self_s[span.name] += own[span.id]
        calls[span.name] += span.calls
    busy = busy_times(spans)
    counts = tracer.counts

    def seconds(*names):
        return sum(self_s[name] for name in names)

    metrics = {
        "datagen.busy_s": (busy["datagen"], "s"),
        "datagen.calls": (calls["datagen.install"], "count"),
        "compile.parse_s": (seconds("compile.parse"), "s"),
        "compile.logical_s": (seconds("compile.logical"), "s"),
        "compile.physical_s": (seconds("compile.physical"), "s"),
        "compile.mr_s": (seconds("compile.mr"), "s"),
        "compile.workflows": (calls["compile.mr"], "count"),
        "engine.self_s": (seconds("engine.workflow", "engine.job"), "s"),
        "engine.busy_s": (busy["engine"], "s"),
        "engine.jobs_run": (calls["engine.job"], "count"),
        "shuffle.busy_s": (busy["shuffle"], "s"),
        "shuffle.calls": (calls["shuffle.partition"], "count"),
        "shuffle.rows": (counts["shuffle.rows"], "count"),
        "codec.decode_rows": (calls["codec.decode"], "count"),
        "codec.decode_s": (seconds("codec.decode"), "s"),
        "codec.encode_rows": (calls["codec.encode"], "count"),
        "codec.encode_s": (seconds("codec.encode"), "s"),
        "dfs.read_calls": (calls["dfs.read"], "count"),
        "dfs.read_s": (seconds("dfs.read"), "s"),
        "dfs.write_calls": (calls["dfs.write"], "count"),
        "dfs.write_bytes": (counts["dfs.write_bytes"], "B"),
        "dfs.write_s": (seconds("dfs.write"), "s"),
        "dfs.append_calls": (calls["dfs.append"], "count"),
        "dfs.append_s": (seconds("dfs.append"), "s"),
        "dfs.delete_calls": (calls["dfs.delete"], "count"),
        "restore.probe_calls": (calls["restore.probe"], "count"),
        "restore.probe_s": (seconds("restore.probe"), "s"),
        "restore.candidates_tried": (calls["restore.containment"], "count"),
        "restore.containment_s": (seconds("restore.containment"), "s"),
        "restore.matched": (counts["restore.matched"], "count"),
        "restore.match_hit_ratio": (ratio(counts["restore.matched"],
                                          calls["restore.containment"]),
                                    "fraction"),
        "restore.rewrite_s": (seconds("restore.rewrite"), "s"),
        "restore.enumerate_s": (seconds("restore.enumerate"), "s"),
        "restore.stores_injected": (counts["restore.stores_injected"], "count"),
        "restore.register_calls": (calls["restore.register"], "count"),
        "restore.register_s": (seconds("restore.register",
                                       "restore.equivalent"), "s"),
        "restore.insert_s": (seconds("restore.insert"), "s"),
        "restore.registered": (calls["restore.insert"], "count"),
        "restore.admit_ratio": (ratio(calls["restore.insert"],
                                      calls["restore.register"]), "fraction"),
        "restore.sweep_s": (seconds("restore.sweep", "restore.remove"), "s"),
        "restore.evicted": (calls["restore.remove"], "count"),
        "restore.entries_final": (calls["restore.insert"]
                                  - calls["restore.remove"], "count"),
        "restore.checkpoint_s": (seconds("restore.checkpoint"), "s"),
        "restore.checkpoint_records": (counts["restore.checkpoint_records"],
                                       "count"),
        "restore.compactions": (counts["restore.compactions"], "count"),
        "submit.self_s": (seconds("submit"), "s"),
    }
    bases = {
        "restore.match_hit_ratio": ("restore.matched",
                                    "restore.candidates_tried"),
        "restore.admit_ratio": ("restore.registered",
                                "restore.register_calls"),
    }
    return metrics, bases


def stress_checks(workload, metrics, wall_s):
    """Whether the traced run stresses the layers the workload was chosen
    for; a list of (description, held)."""
    value = {name: entry[0] for name, entry in metrics.items()}
    restore_self = sum(v for name, v in value.items()
                       if name.startswith("restore.") and name.endswith("_s"))
    engine_self = (value["engine.self_s"] + value["codec.decode_s"]
                   + value["codec.encode_s"] + value["dfs.read_s"]
                   + value["dfs.write_s"] + value["dfs.append_s"]
                   + value["shuffle.busy_s"])
    if workload == "adhoc-churn":
        return [(f"restore self {restore_self:.3f}s > engine incl. codec, "
                 f"dfs, shuffle {engine_self:.3f}s",
                 restore_self > engine_self)]
    checks = [
        (f"engine busy {value['engine.busy_s']:.2f}s > 50% of wall "
         f"{wall_s:.2f}s", value["engine.busy_s"] > 0.5 * wall_s),
        (f"restore self {restore_self:.3f}s < 5% of wall {wall_s:.2f}s",
         restore_self < 0.05 * wall_s),
    ]
    if workload == "paper-figures":
        checks.append((f"datagen busy {value['datagen.busy_s']:.2f}s >= 10% "
                       f"of wall {wall_s:.2f}s",
                       value["datagen.busy_s"] >= 0.1 * wall_s))
    return checks
