"""Property-based tests for ReStore's core invariants.

The central one: **reuse never changes results**. A random pipeline query
is generated, executed on a plain system and on a ReStore system twice
(populate + reuse); all three outputs must be byte-identical.

The second family (PR 1): **indexing never changes decisions**. The
indexed :class:`~repro.restore.Repository` is driven in lock-step with
the frozen seed implementation
(:class:`~repro.restore.LinearScanRepository`) over randomized workflow
streams, and must produce identical scan orders, identical
``find_equivalent`` results, identical match decisions, and identical
:class:`~repro.restore.ReStoreReport` contents.

The third family (PR 2): **sharding never changes decisions either**.
:class:`~repro.restore.ShardedRepository` at shard counts 1, 2, and 8
joins the same lock-step streams: every implementation must agree with
the seed on scan order and matching, and the sharded candidate sequences
(per-shard probes merged back into priority order) must be identical to
the indexed repository's.

The fourth family (PR 3): **savings ranking is safe**. A
:class:`~repro.restore.SavingsRanker` walk sees exactly the structural
candidate *set* (a permutation — ranking never drops or invents
candidates), never tries an entry before one that subsumes it, and a
manager driven by it applies only containment-valid rewrites while its
total simulated workflow cost never exceeds the structural run's on the
same randomized stream.
"""

import itertools
import json
import random

import pytest
from hypothesis import assume, given, HealthCheck, settings, strategies as st

from repro import PigSystem
from repro.data import DataType, encode_row, Field, Schema
from repro.dfs import DistributedFileSystem
from repro.logical import build_logical_plan
from repro.mapreduce import ClusterConfig, CostModel, CostModelConfig
from repro.physical import logical_to_physical
from repro.physical.operators import POLoad
from repro.piglatin import parse_query
import repro.restore.manager as manager_module
from repro.restore import (
    LinearScanRepository,
    load_repository,
    Repository,
    RepositoryEntry,
    RepositoryLog,
    SavingsRanker,
    ShardedRepository,
)
from repro.restore.matcher import contains, find_containment, pairwise_plan_traversal
from repro.restore.persistence import CATCHALL_LABEL, segment_file_path
from repro.restore.stats import EntryStats

SCHEMA = Schema(
    [
        Field("k", DataType.CHARARRAY),
        Field("a", DataType.INT),
        Field("b", DataType.INT),
        Field("c", DataType.CHARARRAY),
    ]
)

_rows = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", "z", "w"]),
        st.integers(0, 50),
        st.integers(0, 50),
        st.sampled_from(["p", "q", "r"]),
    ),
    min_size=0,
    max_size=30,
)

# A random linear pipeline: load -> transforms -> optional blocking ->
# optional aggregate -> store.
TRANSFORM_TEMPLATES = [
    "{out} = filter {inp} by a > 10;",
    "{out} = filter {inp} by b < 40;",
    "{out} = foreach {inp} generate k, a, b, c;",
    "{out} = foreach {inp} generate k, a + b as a, b, c;",
    "{out} = distinct {inp};",
]

TAIL_TEMPLATES = [
    "",
    "{out} = group {inp} by k;"
    "{out2} = foreach {out} generate group, COUNT({inp});",
    "{out} = group {inp} by k;"
    "{out2} = foreach {out} generate group, SUM({inp}.a);",
    "{out} = order {inp} by k;",
]

_transforms = st.lists(st.sampled_from(TRANSFORM_TEMPLATES), min_size=0, max_size=3)

_tails = st.sampled_from(TAIL_TEMPLATES)


def build_query(transforms, tail):
    lines = ["A = load '/data/t' as (k:chararray, a:int, b:int, c:chararray);"]
    current = "A"
    for index, template in enumerate(transforms):
        out = f"T{index}"
        lines.append(template.format(inp=current, out=out))
        current = out
    if tail:
        out = "G"
        out2 = "H"
        lines.append(tail.format(inp=current, out=out, out2=out2))
        current = out2 if "{out2}" in tail else out
    lines.append(f"store {current} into '/out/result';")
    return "\n".join(lines)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=_rows, transforms=_transforms, tail=_tails)
def test_property_reuse_preserves_results(rows, transforms, tail):
    query = build_query(transforms, tail)

    plain = PigSystem()
    plain.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
    plain.run(query)
    expected = plain.dfs.read_lines("/out/result")

    reusing = PigSystem()
    reusing.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
    restore = reusing.restore()
    restore.submit(reusing.compile(query))
    assert reusing.dfs.read_lines("/out/result") == expected

    # Second submission reuses stored outputs — results must not change.
    restore.submit(reusing.compile(query))
    assert reusing.dfs.read_lines("/out/result") == expected


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(transforms=_transforms, tail=_tails)
def test_property_plan_contains_itself(transforms, tail):
    # Bare Load->Store plans are excluded: they have no valid match
    # frontier (rewriting a Load with a Load is useless by design).
    assume(transforms or tail)
    query = build_query(transforms, tail)
    plan_a = logical_to_physical(build_logical_plan(parse_query(query)))
    plan_b = logical_to_physical(build_logical_plan(parse_query(query)))
    assert contains(plan_a, plan_b)
    assert pairwise_plan_traversal(plan_b, plan_a)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(transforms_a=_transforms, tail_a=_tails,
       transforms_b=_transforms, tail_b=_tails)
def test_property_matchers_agree(transforms_a, tail_a, transforms_b, tail_b):
    assume(transforms_a or tail_a)  # trivial entries are never registered
    entry = logical_to_physical(
        build_logical_plan(parse_query(build_query(transforms_a, tail_a))))
    target = logical_to_physical(
        build_logical_plan(parse_query(build_query(transforms_b, tail_b))))
    assert (find_containment(entry, target) is not None) == (
        pairwise_plan_traversal(target, entry)
    )


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=_rows, transforms=_transforms)
def test_property_prefix_queries_share_work(rows, transforms):
    """A query that extends another must be rewritten to reuse it (when
    the prefix stores a reusable whole-job or sub-job output)."""
    prefix_query = build_query(transforms, "")
    extended_query = build_query(
        transforms,
        "{out} = group {inp} by k;"
        "{out2} = foreach {out} generate group, COUNT({inp});",
    ).replace("/out/result", "/out/extended")

    system = PigSystem()
    system.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
    restore = system.restore()
    restore.submit(system.compile(prefix_query))
    restore.submit(system.compile(extended_query))

    check = PigSystem()
    check.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
    check.run(extended_query)
    assert (system.dfs.read_lines("/out/extended")
            == check.dfs.read_lines("/out/extended"))


# --- Indexed + sharded repositories vs the frozen seed linear scan ------------
#
# The indexed Repository (PR 1) and the ShardedRepository at several
# shard counts (PR 2) must be observationally identical to the seed's
# sequential-scan implementation: same scan order, same find_equivalent
# answers, same match decisions. These tests drive all of them in
# lock-step over randomized insert/remove/probe streams.

_POOL_QUERIES = []
for _ds in ("/data/t", "/data/u"):
    _base = (f"A = load '{_ds}' as (k:chararray, a:int, b:int, c:chararray);")
    for _body, _last in [
        ("", "A"),
        ("B = filter A by a > 10;", "B"),
        ("B = filter A by a > 10; C = foreach B generate k, a;", "C"),
        ("B = filter A by a > 10; C = foreach B generate k, a;"
         "D = distinct C;", "D"),
        ("B = foreach A generate k, a + b as a;", "B"),
        ("B = group A by k; C = foreach B generate group, COUNT(A);", "C"),
    ]:
        if _last == "A":
            continue  # bare Load->Store plans have no match frontier
        _POOL_QUERIES.append(f"{_base}\n{_body}\nstore {_last} into '/stored/p';")
_POOL_QUERIES.append(
    "A = load '/data/t' as (k:chararray, a:int, b:int, c:chararray);\n"
    "B = load '/data/u' as (k:chararray, a:int, b:int, c:chararray);\n"
    "C = join A by k, B by k;\n"
    "store C into '/stored/p';"
)
_POOL_QUERIES.append(
    "A = load '/data/t' as (k:chararray, a:int, b:int, c:chararray);\n"
    "B = load '/data/u' as (k:chararray, a:int, b:int, c:chararray);\n"
    "C = join A by k, B by k;\n"
    "D = filter C by $1 > 10;\n"
    "store D into '/stored/p';"
)


@pytest.fixture(scope="module")
def plan_pool():
    return [logical_to_physical(build_logical_plan(parse_query(text)))
            for text in _POOL_QUERIES]


def _pool_plan(plan_pool, pool_index, version):
    """A fresh clone of a pool plan with every Load pinned to ``version``."""
    plan, _ = plan_pool[pool_index % len(plan_pool)].clone()
    for op in plan.operators():
        if isinstance(op, POLoad):
            op.version = version
    return plan


def _first_match_path(candidates, probe_plan):
    for entry in candidates:
        if find_containment(entry.plan, probe_plan) is not None:
            return entry.output_path
    return None


def _repository_fleet():
    """Every repository implementation that must be observationally
    identical to the seed linear scan, labelled for failure messages."""
    return [
        ("indexed", Repository()),
        ("sharded-1", ShardedRepository(num_shards=1)),
        ("sharded-2", ShardedRepository(num_shards=2)),
        ("sharded-8", ShardedRepository(num_shards=8)),
    ]


_RANKING_MODEL = CostModel(CostModelConfig(), ClusterConfig())


def _assert_savings_walk_safe(repo, probe, structural_paths, context, name):
    """The SavingsRanker walk over one probe: same candidate set as the
    structural walk, no entry before its subsumer, deterministic."""
    ranker = SavingsRanker(_RANKING_MODEL)
    ranked = repo.match_candidates(probe, ranker=ranker)
    ranked_paths = [e.output_path for e in ranked]
    assert sorted(ranked_paths) == sorted(structural_paths), (context, name)
    assert [e.output_path for e in repo.match_candidates(probe, ranker=ranker)] \
        == ranked_paths, (context, name)
    position = {e.entry_id: i for i, e in enumerate(ranked)}
    edges = repo.subsumption_edges_among(position)
    for above_id, below_ids in edges.items():
        for below_id in below_ids:
            assert position[above_id] < position[below_id], (context, name)
    return ranked_paths


def test_property_repositories_equivalent_to_seed(plan_pool):
    """200 randomized workflow streams of inserts/removals/probes: the
    indexed repository and the sharded repository (1, 2, and 8 shards)
    must produce scan orders, find_equivalent results, and match
    decisions identical to the frozen seed linear scan after every
    single operation — and the sharded candidate sequences must be
    identical to the indexed repository's (the shard merge restores the
    global priority order exactly)."""
    for stream in range(200):
        rng = random.Random(1000 + stream)
        fleet = _repository_fleet()
        seed = LinearScanRepository()
        twins = {}  # output_path -> [entry per fleet repo..., seed entry]
        for step in range(rng.randint(6, 14)):
            context = f"stream={stream} step={step}"
            action = rng.random()
            if action < 0.60 or not twins:
                pool_index = rng.randrange(len(plan_pool))
                version = rng.choice([0, 0, 0, 1, 2])
                plan = _pool_plan(plan_pool, pool_index, version)
                stats = EntryStats(
                    input_bytes=rng.choice([1000, 2000, 10000]),
                    output_bytes=rng.choice([10, 100, 1000]),
                    producing_job_time=rng.choice([1.0, 5.0, 60.0]),
                )
                path = f"/stored/s{stream}-{step}"
                entries = [RepositoryEntry(plan, path, stats)
                           for _ in range(len(fleet) + 1)]
                for (_, repo), entry in zip(fleet, entries):
                    repo.insert(entry)
                seed.insert(entries[-1])
                twins[path] = entries
            elif action < 0.75:
                victim = seed.scan()[rng.randrange(len(seed))]
                entries = twins.pop(victim.output_path)
                for (_, repo), entry in zip(fleet, entries):
                    repo.remove(entry)
                seed.remove(entries[-1])
            else:
                probe = _pool_plan(plan_pool, rng.randrange(len(plan_pool)),
                                   rng.choice([0, 0, 1]))
                expected = seed.find_equivalent(probe)
                expected_first = _first_match_path(seed.scan(), probe)
                indexed_candidates = None
                indexed_ranked = None
                for name, repo in fleet:
                    found = repo.find_equivalent(probe)
                    assert (found is None) == (expected is None), (context, name)
                    if found is not None:
                        assert found.output_path == expected.output_path, \
                            (context, name)
                    # Match decision: the filtered (and, for shards,
                    # fanned-out-and-merged) candidate walk must pick the
                    # same first match as the seed's full scan, and must
                    # not drop any matching entry.
                    candidates = [e.output_path
                                  for e in repo.match_candidates(probe)]
                    assert _first_match_path(repo.match_candidates(probe),
                                             probe) == expected_first, \
                        (context, name)
                    skipped = [e for e in seed.scan()
                               if e.output_path not in set(candidates)]
                    assert all(find_containment(e.plan, probe) is None
                               for e in skipped), (context, name)
                    if indexed_candidates is None:
                        indexed_candidates = candidates
                    else:
                        # The shard merge must reproduce the indexed
                        # repository's candidate sequence exactly.
                        assert candidates == indexed_candidates, (context, name)
                    # Savings ranking: a safe permutation of the same
                    # walk, identical across implementations.
                    ranked = _assert_savings_walk_safe(
                        repo, probe, candidates, context, name)
                    if indexed_ranked is None:
                        indexed_ranked = ranked
                    else:
                        assert ranked == indexed_ranked, (context, name)
            for name, repo in fleet:
                assert [e.output_path for e in repo.scan()] == \
                    [e.output_path for e in seed.scan()], (context, name)


# --- Incremental persistence: snapshot+log replay is exact (PR 4) -------------
#
# The fifth lock-step family: a repository with an attached RepositoryLog
# is mutated through randomized insert/remove/use streams, and after
# every checkpoint — including simulated crashes that tear the final log
# line mid-append — load_repository must rebuild a repository that is
# bit-identical to the live one: same scan order, same per-entry
# statistics, same find_equivalent answers, same match-candidate
# sequences, same shard layout.


def _entry_state(repository):
    """Everything the replay must reproduce bit-identically, per entry,
    in scan order."""
    state = []
    for entry in repository.scan():
        stats = entry.stats
        state.append((
            entry.output_path, entry.fingerprint, entry.origin,
            entry.owns_file, dict(entry.input_versions),
            stats.input_bytes, stats.output_bytes, stats.producing_job_time,
            stats.map_time, stats.reduce_time, stats.created_tick,
            stats.last_used_tick, stats.use_count,
        ))
    return state


def _assert_reload_matches_live(dfs, live, plan_pool, rng, context):
    reloaded = load_repository(dfs)
    assert type(reloaded) is type(live), context
    assert _entry_state(reloaded) == _entry_state(live), context
    if isinstance(live, ShardedRepository):
        assert reloaded.num_shards == live.num_shards, context
        # Shard membership must match; within-shard iteration order is
        # insertion order, which is not observable (probes re-sort into
        # the global scan order) and legitimately differs after replay.
        assert [sorted(e.output_path for e in shard)
                for shard in reloaded.partitions()] == \
            [sorted(e.output_path for e in shard)
             for shard in live.partitions()], context
    probe = _pool_plan(plan_pool, rng.randrange(len(plan_pool)),
                       rng.choice([0, 0, 1]))
    live_found = live.find_equivalent(probe)
    reloaded_found = reloaded.find_equivalent(probe)
    assert (reloaded_found is None) == (live_found is None), context
    if live_found is not None:
        assert reloaded_found.output_path == live_found.output_path, context
    assert [e.output_path for e in reloaded.match_candidates(probe)] == \
        [e.output_path for e in live.match_candidates(probe)], context
    assert _first_match_path(reloaded.match_candidates(probe), probe) == \
        _first_match_path(live.match_candidates(probe), probe), context
    return reloaded


def _segment_paths(dfs, log):
    """The segment files the log has materialized so far."""
    return dfs.list_files(prefix=f"{log.log_path}.")


def test_property_log_replay_matches_live(plan_pool):
    """60 randomized mutation streams, each against a live repository
    with an attached RepositoryLog at a random compaction ratio; crash
    and reload at random points — per-segment torn tails and crashes
    between one shard's section rewrite and its segment truncation
    included."""
    for stream in range(60):
        rng = random.Random(4000 + stream)
        dfs = DistributedFileSystem()
        live = rng.choice([
            lambda: Repository(),
            lambda: ShardedRepository(num_shards=2),
            lambda: ShardedRepository(num_shards=8),
        ])()
        log = RepositoryLog(dfs, compact_ratio=rng.choice([0.25, 1.0, 8.0]))
        log.attach(live)
        tick = 0
        for step in range(rng.randint(8, 16)):
            context = f"stream={stream} step={step}"
            action = rng.random()
            if action < 0.55 or not len(live):
                plan = _pool_plan(plan_pool, rng.randrange(len(plan_pool)),
                                  rng.choice([0, 0, 1]))
                stats = EntryStats(
                    input_bytes=rng.choice([1000, 2000, 10000]),
                    output_bytes=rng.choice([10, 100, 1000]),
                    producing_job_time=rng.choice([1.0, 5.0, 60.0]),
                    created_tick=tick,
                )
                live.insert(RepositoryEntry(
                    plan, f"/stored/w{stream}-{step}", stats))
            elif action < 0.72:
                live.remove(live.scan()[rng.randrange(len(live))])
            else:
                tick += 1
                live.record_use(live.scan()[rng.randrange(len(live))], tick)
            if rng.random() < 0.45:
                before = {file: dfs.read_lines(file)
                          for file in _segment_paths(dfs, log)}
                outcome = log.checkpoint()
                crash = rng.random()
                reverted = None
                if outcome["compacted"] and crash < 0.35:
                    # Crash between one shard's section rewrite and its
                    # segment truncation: the old records come back, all
                    # at or below the new section's watermark.
                    label = rng.choice(outcome["compacted_shards"])
                    segment = segment_file_path(log.log_path, label)
                    old = before.get(segment, [])
                    if old:
                        dfs.write_lines(segment, old, overwrite=True)
                        reloaded = _assert_reload_matches_live(
                            dfs, live, plan_pool, rng, context + " (stale)")
                        assert reloaded.loader_report.stale_records \
                            == len(old), context
                        reverted = segment  # un-crash below
                elif crash < 0.7:
                    # Crash mid-append of the next record: one segment
                    # gains a torn final line, which replay must drop.
                    candidates = _segment_paths(dfs, log)
                    segment = (rng.choice(candidates) if candidates else
                               segment_file_path(log.log_path,
                                                 CATCHALL_LABEL))
                    dfs.append_lines(segment, ['{"seq": 10**9, "op'])
                    reloaded = _assert_reload_matches_live(
                        dfs, live, plan_pool, rng, context + " (torn)")
                    assert reloaded.loader_report.torn_tail_dropped == 1, \
                        context
                    # The live process did not actually crash: un-tear
                    # the tail so its next append stays well-formed.
                    dfs.write_lines(segment, dfs.read_lines(segment)[:-1],
                                    overwrite=True)
                else:
                    _assert_reload_matches_live(dfs, live, plan_pool, rng,
                                                context)
                if reverted is not None:
                    # Back to the live process's truncated reality.
                    dfs.write_lines(reverted, [], overwrite=True)
        log.checkpoint()
        _assert_reload_matches_live(dfs, live, plan_pool, rng,
                                    f"stream={stream} final")


def test_property_manager_survives_crash_reload():
    """Randomized workflow streams through two identical systems: one
    long-lived ReStore manager with incremental persistence, against a
    'crashy' twin that reloads its repository from snapshot+log before
    every submit (fresh manager each time). Decisions and outputs must
    be identical throughout — restart changes nothing."""
    for stream in range(8):
        rng = random.Random(11000 + stream)
        rows = [
            (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
             rng.randint(0, 50), rng.choice(["p", "q"]))
            for _ in range(6)
        ]
        queries = []
        for q in range(rng.randint(2, 3)):
            transforms = [rng.choice(TRANSFORM_TEMPLATES)
                          for _ in range(rng.randint(0, 3))]
            tail = rng.choice(TAIL_TEMPLATES)
            queries.append(build_query(transforms, tail)
                           .replace("/out/result", f"/out/s{q}"))

        steady = PigSystem()
        steady.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
        steady_mgr = steady.restore(
            repository=ShardedRepository(num_shards=2),
            persistence=RepositoryLog(steady.dfs, compact_ratio=2.0))

        crashy = PigSystem()
        crashy.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
        # Materialized paths embed a per-manager prefix/counter; the
        # crashy side re-creates its manager per submit, so pin both to
        # keep its allocation sequence identical to the steady side's.
        crashy_prefix = "/restore/materialized/crashy"
        crashy_counter = itertools.count(1)

        for name_index, query in enumerate(queries):
            steady_mgr.submit(steady.compile(query, f"s{name_index}"))

            reloaded = load_repository(crashy.dfs)
            crashy_mgr = crashy.restore(
                repository=reloaded,
                persistence=RepositoryLog(crashy.dfs, compact_ratio=2.0))
            crashy_mgr._mat_prefix = crashy_prefix
            crashy_mgr._mat_counter = crashy_counter
            crashy_mgr.submit(crashy.compile(query, f"s{name_index}"))
            if rng.random() < 0.5:
                # Crash mid-append before the next restart: tear a
                # random segment's tail (the catch-all when none has
                # materialized yet — every manifest references it).
                base = crashy_mgr.persistence.log_path
                segments = crashy.dfs.list_files(prefix=f"{base}.")
                target = (rng.choice(segments) if segments else
                          segment_file_path(base, CATCHALL_LABEL))
                crashy.dfs.append_lines(target, ['{"seq": 10**9, "op'])

            label = f"stream={stream} query={name_index}"
            assert _report_shape(crashy_mgr) == _report_shape(steady_mgr), label
            out = f"/out/s{name_index}"
            assert crashy.dfs.read_lines(out) == steady.dfs.read_lines(out), \
                label


def _normalize(path, manager):
    """Materialized sub-job paths embed a per-manager instance counter;
    map them to a common prefix so two managers' decisions compare."""
    return path.replace(manager._mat_prefix, "/MAT")


def _report_shape(manager):
    report = manager.last_report
    repo = manager.repository
    return {
        "rewrites": [_normalize(repo.entry(eid).output_path, manager)
                     for _, eid in report.rewrites],
        "eliminated": len(report.eliminated_jobs),
        "injected": [(kind, _normalize(path, manager))
                     for _, kind, path in report.injected_stores],
        "registered": [_normalize(repo.entry(eid).output_path, manager)
                       for eid in report.registered_entries],
        "rejected": [_normalize(path, manager)
                     for path in report.rejected_candidates],
        "evicted": len(report.evicted_entries),
        "scan": [_normalize(e.output_path, manager) for e in repo.scan()],
    }


def test_property_manager_decisions_match_seed_repository():
    """Randomized workflow streams through full ReStore managers — on
    the indexed repository, on sharded repositories (2 and 8 shards),
    and on the frozen seed linear scan — must make identical
    rewrite/eliminate/register decisions and produce identical outputs.
    The indexed and sharded managers must additionally agree on the
    match counters (the seed tries more candidates, so its skip counts
    legitimately differ)."""
    for stream in range(25):
        rng = random.Random(7000 + stream)
        rows = [
            (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
             rng.randint(0, 50), rng.choice(["p", "q"]))
            for _ in range(6)
        ]
        queries = []
        for q in range(rng.randint(2, 3)):
            transforms = [rng.choice(TRANSFORM_TEMPLATES)
                          for _ in range(rng.randint(0, 3))]
            tail = rng.choice(TAIL_TEMPLATES)
            queries.append(build_query(transforms, tail)
                           .replace("/out/result", f"/out/s{q}"))

        managers = []
        repositories = (Repository(), ShardedRepository(num_shards=2),
                        ShardedRepository(num_shards=8),
                        LinearScanRepository())
        for repository in repositories:
            system = PigSystem()
            system.dfs.write_lines(
                "/data/t", [encode_row(r, SCHEMA) for r in rows])
            manager = system.restore(repository=repository)
            shapes, counters = [], []
            for name_index, query in enumerate(queries):
                manager.submit(system.compile(query, f"s{name_index}"))
                shapes.append(_report_shape(manager))
                counters.append(manager.last_report.match_counters.as_dict())
            outputs = {f"/out/s{q}": system.dfs.read_lines(f"/out/s{q}")
                       for q in range(len(queries))}
            managers.append((shapes, outputs, counters))

        seed_shapes, seed_outputs, _ = managers[-1]
        indexed_counters = managers[0][2]
        for (shapes, outputs, counters), repository in zip(managers[:-1],
                                                           repositories[:-1]):
            label = f"stream={stream} repo={type(repository).__name__}"
            assert shapes == seed_shapes, label
            assert outputs == seed_outputs, label
            # Indexed and sharded managers see identical candidate
            # sequences, so their skip accounting must match too.
            assert counters == indexed_counters, label


# --- The savings ranker is safe (PR 3) ----------------------------------------
#
# The third lock-step arm: the same randomized workflow streams, driven
# through managers whose matcher tries candidates best-estimated-savings
# first. Two guarantees, per stream:
#
# * every rewrite the savings manager APPLIES still passes
#   find_containment at application time (checked by wrapping the
#   manager's apply_rewrite for the duration of the test);
# * outputs are byte-identical to the structural run's and the total
#   simulated cost (sum of all job ETs over the whole stream) is never
#   worse — reordering the walk may change which entry serves a rewrite,
#   but only ever for an equivalent-or-cheaper one.


def test_property_savings_ranker_streams_are_safe():
    original_apply = manager_module.apply_rewrite
    applied_invalid = []

    def checked_apply(job, match, entry, dfs):
        if find_containment(entry.plan, job.plan) is None:
            applied_invalid.append((job.job_id, entry.entry_id))
        return original_apply(job, match, entry, dfs)

    manager_module.apply_rewrite = checked_apply
    try:
        for stream in range(15):
            rng = random.Random(9000 + stream)
            rows = [
                (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
                 rng.randint(0, 50), rng.choice(["p", "q"]))
                for _ in range(6)
            ]
            queries = []
            for q in range(rng.randint(2, 4)):
                transforms = [rng.choice(TRANSFORM_TEMPLATES)
                              for _ in range(rng.randint(0, 3))]
                tail = rng.choice(TAIL_TEMPLATES)
                queries.append(build_query(transforms, tail)
                               .replace("/out/result", f"/out/s{q}"))

            arms = []
            for ranker, repository in ((None, Repository()),
                                       ("savings", Repository()),
                                       ("savings", ShardedRepository(num_shards=4))):
                system = PigSystem()
                system.dfs.write_lines(
                    "/data/t", [encode_row(r, SCHEMA) for r in rows])
                manager = system.restore(repository=repository, ranker=ranker)
                total_cost = 0.0
                rewrites = 0
                for name_index, query in enumerate(queries):
                    result = manager.submit(system.compile(query, f"s{name_index}"))
                    total_cost += result.total_execution_time
                    rewrites += manager.last_report.num_rewrites
                    # Every applied rewrite is in the savings ledger.
                    assert len(manager.last_report.ranking) == \
                        manager.last_report.num_rewrites
                outputs = {f"/out/s{q}": system.dfs.read_lines(f"/out/s{q}")
                           for q in range(len(queries))}
                arms.append((outputs, total_cost, rewrites))

            label = f"stream={stream}"
            assert not applied_invalid, (label, applied_invalid)
            (structural_out, structural_cost, _) = arms[0]
            for outputs, total_cost, _ in arms[1:]:
                assert outputs == structural_out, label
                assert total_cost <= structural_cost + 1e-9, (
                    label, total_cost, structural_cost)
            # Both savings arms (indexed and sharded) agree with each other.
            assert arms[1] == arms[2], label
    finally:
        manager_module.apply_rewrite = original_apply


# --- Eviction never changes decisions across repositories ---------------------
#
# The same randomized workflow streams, driven through managers on the
# indexed, sharded and durable repositories against the frozen seed,
# under a tight retention window plus mid-stream input reseeds so Rules
# 3 and 4 genuinely evict: rewrites, eliminations, injected stores,
# registrations, retention-policy rejections, evictions, scan orders
# and outputs must be bit-identical, and the durable arm must
# checkpoint to a bit-identical reload.


def _eviction_shape(manager):
    """Like _report_shape, but safe under eviction: entry ids registered
    earlier in a submit may be swept at its end, so counts stand in for
    dereferenced paths (the scan list still pins the full end state)."""
    report = manager.last_report
    return {
        "rewrites": len(report.rewrites),
        "eliminated": len(report.eliminated_jobs),
        "injected": [(kind, _normalize(path, manager))
                     for _, kind, path in report.injected_stores],
        "registered": len(report.registered_entries),
        "rejected": [_normalize(path, manager)
                     for path in report.rejected_candidates],
        "evicted": len(report.evicted_entries),
        "scan": [_normalize(e.output_path, manager)
                 for e in manager.repository.scan()],
    }


def test_property_eviction_streams_match_seed():
    from repro.restore import HeuristicRetentionPolicy

    for stream in range(8):
        rng = random.Random(21000 + stream)
        rows = [
            (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
             rng.randint(0, 50), rng.choice(["p", "q"]))
            for _ in range(6)
        ]
        reseed_rows = [
            (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
             rng.randint(0, 50), rng.choice(["p", "q"]))
            for _ in range(6)
        ]
        queries = []
        for q in range(rng.randint(2, 4)):
            transforms = [rng.choice(TRANSFORM_TEMPLATES)
                          for _ in range(rng.randint(0, 3))]
            tail = rng.choice(TAIL_TEMPLATES)
            queries.append(build_query(transforms, tail)
                           .replace("/out/result", f"/out/s{q}"))
        window = rng.choice([1, 2, 3])
        reseed_at = (rng.randrange(1, len(queries))
                     if rng.random() < 0.5 else None)

        arms = [
            ("seed", lambda: LinearScanRepository(), False),
            ("indexed", lambda: Repository(), False),
            ("sharded2", lambda: ShardedRepository(num_shards=2), False),
            ("durable", lambda: Repository(), True),
        ]
        results = {}
        for name, factory, durable in arms:
            system = PigSystem()
            system.dfs.write_lines(
                "/data/t", [encode_row(r, SCHEMA) for r in rows])
            persistence = (RepositoryLog(system.dfs, compact_ratio=2.0)
                           if durable else None)
            manager = system.restore(
                repository=factory(),
                retention=HeuristicRetentionPolicy(window_ticks=window),
                persistence=persistence)
            try:
                shapes, counters = [], []
                for name_index, query in enumerate(queries):
                    if name_index == reseed_at:
                        # Input change mid-stream: Rule 4 must evict the
                        # stale entries — in every arm, at the same tick.
                        system.dfs.write_lines(
                            "/data/t",
                            [encode_row(r, SCHEMA) for r in reseed_rows],
                            overwrite=True)
                    manager.submit(system.compile(query, f"s{name_index}"))
                    shapes.append(_eviction_shape(manager))
                    counters.append(
                        manager.last_report.match_counters.as_dict())
                outputs = {f"/out/s{q}": system.dfs.read_lines(f"/out/s{q}")
                           for q in range(len(queries))}
                if durable:
                    # checkpoint_every=1: after the final submit the log
                    # is current; the reload must be bit-identical.
                    assert _entry_state(load_repository(system.dfs)) == \
                        _entry_state(manager.repository), \
                        f"stream={stream} arm={name} reload"
            finally:
                manager.close()
            results[name] = (shapes, outputs, counters)

        seed_shapes, seed_outputs, _ = results["seed"]
        indexed_counters = results["indexed"][2]
        for name in ("indexed", "sharded2", "durable"):
            shapes, outputs, counters = results[name]
            label = f"stream={stream} arm={name}"
            assert shapes == seed_shapes, label
            assert outputs == seed_outputs, label
            # Indexed and sharded arms see identical candidate
            # sequences: skip accounting must match.
            assert counters == indexed_counters, label
