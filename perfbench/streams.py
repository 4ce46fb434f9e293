"""The two stream workloads: an evolving PigMix stream and an ad-hoc churn.

Each stream is a seeded list of events, ``("query", text)`` or a data
mutation, driven by one closed-loop client: the next workflow is compiled
and submitted only after the previous one returned. The same seed always
yields the same events and the same datasets, so the simulated totals,
the reuse ratio and the stored-bytes ratio repeat exactly per seed.

The program sees only the generated inputs: datasets written to its DFS
and Pig Latin text handed to ``PigSystem.compile``.
"""

import hashlib
import random
import time

from repro.data import encode_row
from repro.dfs import DistributedFileSystem
from repro.harness.scenario import PigMixScenario, Profile, SynthScenario
from repro.mapreduce import WorkflowExecutor
from repro.pigmix import PigMixConfig, PigMixData
from repro.pigmix.datagen import PAGE_VIEWS_SCHEMA
from repro.pigmix.queries import PigMixPaths, query_text
from repro.restore import AggressiveHeuristic, HeuristicRetentionPolicy
from repro.synth import FIELD_SPECS, SYNTH_SCHEMA, SynthConfig, SynthData

from perfbench import speed

#: Bound before any trace wrapper is installed: the benchmark's own output
#: checks read through this, so they never show up as DFS spans.
_read_lines = DistributedFileSystem.read_lines

# --- pigmix-evolving ---------------------------------------------------------

#: One round: the 15 queries in a fixed order. The order decides which
#: member of a family (L3 and its variants, L11 and its variants) pays for
#: the sub-jobs the family shares, and which other queries reuse them; a
#: seeded order moves the simulated total by up to 8% and the median
#: latency by a third from seed to seed, so the seed varies the data
#: instead.
PIGMIX_ROUND = ("L2", "L3", "L3a", "L3b", "L3c", "L4", "L5", "L6", "L7",
                "L8", "L11", "L11a", "L11b", "L11c", "L11d")
ROUNDS = 5
APPEND_FRACTION = 0.05


def pigmix_events(seed, rounds=ROUNDS):
    """Seeded PigMix stream: ``rounds`` rounds of PIGMIX_ROUND; every round
    after the first starts with ``("append", s)``, which appends a 5% slice
    of new page views generated from seed ``s``. The base instance is
    generated from ``seed`` too."""
    rng = random.Random(f"pigmix-evolving/{seed}")
    events = []
    for number in range(rounds):
        if number:
            events.append(("append", rng.randrange(2 ** 31)))
        events.extend(("query", name) for name in PIGMIX_ROUND)
    return events


class PigMixStream:
    """150GB PigMix instance at the ``tiny`` profile, with page views
    appended while the repository is live."""

    name = "pigmix-evolving"

    def __init__(self, seed, rounds=ROUNDS):
        self.seed = seed
        self.events = pigmix_events(seed, rounds)
        self.paths = PigMixPaths()

    def build(self, reuse=True):
        """Install the datasets, prepare the seeded page-view slices and,
        with ``reuse``, build the manager. Returns the system and the
        manager (None without reuse)."""
        scenario = PigMixScenario("150GB", "tiny", seed=self.seed)
        base = scenario.data.config
        self._slices = {}
        for kind, slice_seed in self.events:
            if kind == "append":
                rows = PigMixData(PigMixConfig(
                    num_page_views=round(base.num_page_views * APPEND_FRACTION),
                    num_users=base.num_users,
                    num_power_users=base.num_power_users,
                    missing_users=base.missing_users,
                    num_query_terms=base.num_query_terms,
                    seed=slice_seed,
                )).page_views_rows()
                self._slices[slice_seed] = [
                    encode_row(row, PAGE_VIEWS_SCHEMA) for row in rows]
        system = scenario.system
        if reuse:
            manager = system.restore(heuristic=AggressiveHeuristic(),
                                     persistence=True)
            return system, manager
        return system, None

    def query(self, argument):
        return query_text(argument, self.paths), argument

    def mutate(self, system, argument):
        system.dfs.append_lines(self.paths.page_views, self._slices[argument])

    def input_paths(self):
        return [self.paths.page_views, self.paths.users,
                self.paths.power_users]


# --- adhoc-churn -------------------------------------------------------------

ADHOC_SUBMITS = 500
ADHOC_ROWS = 400
#: the table is overwritten by a new seeded generation this often
OVERWRITE_EVERY = 100
_STRING_FIELDS = tuple(f"field{i}" for i in range(1, 6))
_FILTER_FIELDS = tuple(name for name, _, _ in FIELD_SPECS)
_OPERATIONS = ("COUNT", "SUM", "MAX", "DISTINCT")
_AS_CLAUSE = "(" + ", ".join(
    f"{field.name}:{field.dtype.value}" for field in SYNTH_SCHEMA.fields) + ")"


#: Every (filter field, value, operation) a query can draw. The stream
#: deals them from shuffled decks, so each seed gets nearly the same mix
#: of filter selectivities and operations (drawing them independently
#: moves the simulated total by several percent from seed to seed).
_COMBINATIONS = tuple((field, value, operation) for field in _FILTER_FIELDS
                      for value in range(3) for operation in _OPERATIONS)


def _adhoc_query(rng, field, value, operation, out_path):
    projected = sorted(rng.sample(_STRING_FIELDS, rng.randint(1, 2)))
    columns = ", ".join(projected)
    head = (f"A = load '/data/synth' as {_AS_CLAUSE};\n"
            f"B = filter A by {field} == {value};\n")
    if operation == "DISTINCT":
        return (head + f"C = foreach B generate {columns};\n"
                "D = distinct C;\n"
                f"store D into '{out_path}';\n")
    measure = "field7" if field == "field6" else "field6"
    if len(projected) == 1:
        key, group_columns = columns, "group"
    else:
        key, group_columns = f"({columns})", "$0, $1"
    aggregate = "COUNT(C)" if operation == "COUNT" else f"{operation}(C.{measure})"
    return (head + f"C = foreach B generate {columns}, {measure};\n"
            f"D = group C by {key};\n"
            f"E = foreach D generate {group_columns}, {aggregate};\n"
            f"store E into '{out_path}';\n")


def adhoc_events(seed, submits=ADHOC_SUBMITS):
    """Seeded ad-hoc stream of distinct short queries; ``("overwrite", g)``
    replaces the table with generation ``g`` every OVERWRITE_EVERY submits.
    Each query stores to its own path, so no query overwrites another's
    output."""
    rng = random.Random(f"adhoc-churn/{seed}")
    events = []
    seen = set()
    deck = []
    for index in range(submits):
        if index and index % OVERWRITE_EVERY == 0:
            events.append(("overwrite", index // OVERWRITE_EVERY))
        if not deck:
            deck = rng.sample(_COMBINATIONS, len(_COMBINATIONS))
        combination = deck.pop()
        while True:
            text = _adhoc_query(rng, *combination, "/out/adhoc/q")
            if text not in seen:
                break
        seen.add(text)
        events.append(("query", text.replace("/out/adhoc/q",
                                             f"/out/adhoc/q{index}")))
    return events


class AdhocStream:
    """Short distinct queries over a small SynthData table that is
    regenerated under the live repository."""

    name = "adhoc-churn"

    def __init__(self, seed, submits=ADHOC_SUBMITS):
        self.seed = seed
        self.events = adhoc_events(seed, submits)

    def _generation_seed(self, generation):
        return self.seed * 1009 + generation

    def build(self, reuse=True):
        """As :meth:`PigMixStream.build`, with the later table generations
        encoded up front."""
        profile = Profile("adhoc", pigmix_small_rows=0, synth_rows=ADHOC_ROWS)
        scenario = SynthScenario(profile, seed=self._generation_seed(0))
        generations = 1 + sum(1 for kind, _ in self.events if kind == "overwrite")
        self._tables = [None] + [
            [encode_row(row, SYNTH_SCHEMA) for row in SynthData(SynthConfig(
                num_rows=ADHOC_ROWS, seed=self._generation_seed(g))).rows()]
            for g in range(1, generations)
        ]
        system = scenario.system
        if reuse:
            manager = system.restore(
                heuristic=AggressiveHeuristic(),
                retention=HeuristicRetentionPolicy(window_ticks=200),
                persistence=True)
            return system, manager
        return system, None

    def query(self, argument):
        return argument, "adhoc"

    def mutate(self, system, argument):
        system.dfs.write_lines("/data/synth", self._tables[argument],
                               overwrite=True)

    def input_paths(self):
        return ["/data/synth"]


STREAMS = {PigMixStream.name: PigMixStream, AdhocStream.name: AdhocStream}


# --- driving a stream ----------------------------------------------------------


def output_digest(system, workflow):
    """sha1 over the final outputs of ``workflow``, in path order."""
    digest = hashlib.sha1()
    for path in sorted(workflow.final_output_paths()):
        digest.update(path.encode("utf-8") + b"\0")
        if system.dfs.exists(path):
            for line in _read_lines(system.dfs, path):
                digest.update(line.encode("utf-8") + b"\n")
        digest.update(b"\1")
    return digest.hexdigest()


class Pass:
    """What one pass over a workload measured. Timings are in reference
    seconds (see ``perfbench.speed``); ``host_`` ones are wall-clock."""

    def __init__(self):
        self.meter = speed.SpeedMeter()
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.host_wall_s = 0.0
        self.latencies_s = []
        self.host_latencies_s = []
        self.workflow_intervals = []  # the meter's interval per workflow
        self.sim_s_total = 0.0
        self.jobs_submitted = 0
        self.jobs_reused = 0
        self.stored_bytes = 0
        self.input_bytes = 0
        self.digests = []   # streams: one output digest per submit
        self.rows = {}      # paper-figures: experiment -> result rows

    def record(self, jobs, result, interval, report=None):
        """Account one workflow of ``jobs`` jobs that took the meter's
        ``interval``; ``report`` is the ReStore report when it ran
        through ReStore."""
        self.workflow_intervals.append(interval)
        self.sim_s_total += result.total_time
        self.jobs_submitted += jobs
        if report is not None:
            self.jobs_reused += len({job_id for job_id, _ in report.rewrites}
                                    | set(report.eliminated_jobs))

    def settle_latencies(self):
        """Scale the workflows' intervals, once the pass's last slices
        have run."""
        meter = self.meter
        self.latencies_s = [meter.reference_s(interval)
                            for interval in self.workflow_intervals]
        self.host_latencies_s = [meter.host_s(interval)
                                 for interval in self.workflow_intervals]

    @property
    def reuse_ratio(self):
        return self.jobs_reused / self.jobs_submitted

    @property
    def stored_bytes_ratio(self):
        return self.stored_bytes / self.input_bytes


def run_stream(stream, tracer=None):
    """One pass over ``stream`` through ReStore: set up, then submit every
    event in order. Only the set-up, compile+submit and the mutations are
    timed; a reference slice follows each, and the output digests are taken
    between submits, outside the timed region."""
    run = Pass()
    meter = run.meter
    meter.settle()
    started = time.perf_counter()
    system, manager = stream.build(reuse=True)
    setup = meter.mark(time.perf_counter() - started)
    mutations = []
    for number, (kind, argument) in enumerate(stream.events):
        if kind != "query":
            started = time.perf_counter()
            stream.mutate(system, argument)
            mutations.append(meter.mark(time.perf_counter() - started))
            continue
        text, name = stream.query(argument)
        root = tracer.root(number) if tracer is not None else None
        started = time.perf_counter()
        workflow = system.compile(text, name)
        jobs = len(workflow.jobs)
        result = manager.submit(workflow)
        elapsed = time.perf_counter() - started
        if root is not None:
            tracer.finish(root)
        run.record(jobs, result, meter.mark(elapsed), manager.last_report)
        run.digests.append(output_digest(system, workflow))
    meter.settle()
    run.settle_latencies()
    run.setup_s = meter.reference_s(setup)
    run.wall_s = sum(run.latencies_s) + sum(
        meter.reference_s(interval) for interval in mutations)
    run.host_wall_s = sum(run.host_latencies_s) + sum(
        meter.host_s(interval) for interval in mutations)
    manager.close()
    dfs = system.dfs
    run.stored_bytes = sum(dfs.file_size(path) for path in dfs.list_files())
    run.input_bytes = sum(dfs.file_size(path) for path in stream.input_paths())
    return run


def oracle_digests(stream):
    """Replay the same events on a fresh system with the plain
    ``WorkflowExecutor`` (no reuse); one output digest per query.

    The engine is deterministic, so a query already executed on inputs
    of the same versions is not executed again: its digest is reused."""
    system, _ = stream.build(reuse=False)
    executor = WorkflowExecutor(system.dfs, system.cost_model)
    dfs = system.dfs
    seen = {}
    digests = []
    for kind, argument in stream.events:
        if kind != "query":
            stream.mutate(system, argument)
            continue
        text, name = stream.query(argument)
        key = (text, tuple(dfs.status(path).version
                           for path in stream.input_paths()))
        if key not in seen:
            workflow = system.compile(text, name)
            executor.execute(workflow)
            seen[key] = output_digest(system, workflow)
        digests.append(seen[key])
    return digests
