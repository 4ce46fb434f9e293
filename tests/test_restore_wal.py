"""Incremental persistence: the change-event channel, the repository
log (one snapshot plus one append-only change log), and crash-safe
replay."""

import json

import pytest

from repro.common.errors import DfsError, RepositoryError
from repro.dfs import DistributedFileSystem
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore import (
    HeuristicRetentionPolicy,
    load_repository,
    Repository,
    RepositoryEntry,
    RepositoryLog,
    save_repository,
    ShardedRepository,
)
from repro.restore.persistence import (
    MANIFEST_KEY,
    MANIFEST_VERSION,
    SkeletonOp,
)
from repro.restore.sharding import CATCHALL_SHARD
from repro.restore.stats import EntryStats

from tests.helpers import Q1_TEXT, Q2_TEXT, seed_page_views, seed_users

SNAPSHOT = "/restore/repository.jsonl"
LOG = "/restore/repository.jsonl.log"


def fabricated_entry(index, pool=4):
    """A cheap single-chain entry over a small pool of load paths."""
    load = POLoad(f"/data/d{index % pool}", None, 0)
    chain = SkeletonOp("filter", f"FILTER[a>{index}]", None, [load])
    plan = PhysicalPlan([POStore(chain, f"/stored/s{index}")])
    stats = EntryStats(
        input_bytes=1000 + (index % 7) * 500,
        output_bytes=10 + (index % 5) * 30,
        producing_job_time=1.0 + (index % 11),
    )
    return RepositoryEntry(plan, f"/stored/s{index}", stats)


def entry_fingerprints(repository):
    return [(entry.output_path, entry.fingerprint,
             entry.stats.use_count, entry.stats.last_used_tick)
            for entry in repository.scan()]


def manifest_of(dfs, path=SNAPSHOT):
    return json.loads(dfs.read_lines(path)[0])


def log_lines(dfs, path=LOG):
    """The log's lines, with a never-created log (its pending records
    were subsumed by compaction before any flush) reading as empty —
    same as a truncated one."""
    return dfs.read_lines(path) if dfs.exists(path) else []


def log_records(dfs, path=LOG):
    """Every parseable record in the log, in file order."""
    records = []
    for line in log_lines(dfs, path):
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return records


def pigmix_system():
    from repro import PigSystem

    system = PigSystem()
    seed_page_views(system.dfs)
    seed_users(system.dfs, include=range(6))
    return system


class TestChangeEventChannel:
    def test_insert_remove_use_events(self):
        repo = Repository()
        events = []
        repo.add_listener(lambda op, entry: events.append((op, entry)))
        first = repo.insert(fabricated_entry(0))
        repo.record_use(first, tick=3)
        repo.remove(first)
        assert [(op, e.output_path) for op, e in events] == [
            ("insert", "/stored/s0"),
            ("use", "/stored/s0"),
            ("remove", "/stored/s0"),
        ]
        assert first.stats.use_count == 1
        assert first.stats.last_used_tick == 3

    def test_remove_listener(self):
        repo = Repository()
        events = []
        listener = lambda op, entry: events.append(op)
        repo.add_listener(listener)
        repo.remove_listener(listener)
        repo.remove_listener(listener)  # absent: no-op
        repo.insert(fabricated_entry(0))
        assert events == []

    def test_shard_id_resolvable_during_events(self):
        """A sharded repository registers an entry with its owning shard
        before the insert event fires and releases it only after the
        remove event, so listeners see a consistent layout."""
        repo = ShardedRepository(num_shards=4)

        def owner(entry):
            return next((shard.shard_id for shard in repo.partitions()
                         if entry in tuple(shard)), None)

        shard_ids = []
        repo.add_listener(lambda op, entry: shard_ids.append((op, owner(entry))))
        entry = repo.insert(fabricated_entry(1))
        owned = owner(entry)
        repo.remove(entry)
        assert shard_ids == [("insert", owned), ("remove", owned)]
        assert owned is not None
        # After removal the ownership is gone.
        assert owner(entry) is None

    def test_plain_repository_has_no_shard_ids(self):
        """Log records carry no shard field — for a plain repository
        and, since persistence is shard-agnostic, for a sharded one."""
        for repo in (Repository(), ShardedRepository(num_shards=4)):
            dfs = DistributedFileSystem()
            log = RepositoryLog(dfs).attach(repo)
            entries = [repo.insert(fabricated_entry(index))
                       for index in range(8)]
            repo.record_use(entries[0], tick=1)
            repo.remove(entries[1])
            log.flush()
            records = log_records(dfs)
            assert [r["op"] for r in records] == \
                ["insert"] * 8 + ["use", "remove"]
            assert all(set(r) <= {"seq", "op", "key", "entry", "use_count",
                                  "last_used_tick"} for r in records)

    def test_catchall_shard_id(self):
        repo = ShardedRepository(num_shards=2)
        # A store of a bare chain with an unkeyable load signature goes
        # to the catch-all.
        chain = SkeletonOp("filter", "FILTER[x]", None,
                           [SkeletonOp("load", "opaque-load", None, [])])
        plan = PhysicalPlan([POStore(chain, "/stored/odd")])
        entry = repo.insert(RepositoryEntry(plan, "/stored/odd",
                                            EntryStats(100, 10, 1.0)))
        catchall = repo.partitions()[-1]
        assert catchall.shard_id == CATCHALL_SHARD
        assert tuple(catchall) == (entry,)

    def test_shard_sizes_and_members(self):
        sharded = ShardedRepository(num_shards=2)
        entry = sharded.insert(fabricated_entry(1))
        sizes = {shard.shard_id: len(shard) for shard in sharded.partitions()}
        assert set(sizes) == {0, 1, CATCHALL_SHARD}
        assert sum(sizes.values()) == 1
        [owner] = [shard for shard in sharded.partitions() if len(shard)]
        assert tuple(owner) == (entry,)


class TestRepositoryLogBasics:
    def test_attach_writes_initial_snapshot(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        entry = repo.insert(fabricated_entry(0))
        log = RepositoryLog(dfs).attach(repo)
        lines = dfs.read_lines(SNAPSHOT)
        manifest = json.loads(lines[0])
        assert manifest == {MANIFEST_KEY: MANIFEST_VERSION, "num_shards": 0,
                            "entries": 1, "base_seq": 0, "log": LOG}
        # One {"key", "entry"} line per entry, in scan order; the entry
        # payload carries its tie-break sequence.
        [record] = [json.loads(line) for line in lines[1:]]
        assert set(record) == {"key", "entry"}
        assert record["key"] == "k0"
        assert record["entry"]["sequence"] == entry._sequence
        assert log.log_path == LOG
        assert not dfs.exists(LOG)  # nothing to truncate yet

    def test_flush_appends_one_record_per_mutation(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        first = repo.insert(fabricated_entry(0))
        repo.record_use(first, tick=1)
        repo.remove(first)
        assert log.pending_records == 3
        assert log.flush() == 3
        records = [json.loads(line) for line in dfs.read_lines(LOG)]
        assert [r["op"] for r in records] == ["insert", "use", "remove"]
        assert [r["seq"] for r in records] == [1, 2, 3]
        # Insert records carry the serialized entry; the others only the
        # stable key.
        assert "entry" in records[0]
        assert records[1]["key"] == records[2]["key"] == records[0]["key"]
        assert records[1]["use_count"] == 1
        assert records[1]["last_used_tick"] == 1

    def test_unattached_operations_raise_repository_error(self):
        # Regression: checkpoint()/compact() on a never-attached log
        # used to die with a bare AttributeError deep in the writer.
        log = RepositoryLog(DistributedFileSystem())
        with pytest.raises(RepositoryError, match="not attached"):
            log.checkpoint()
        with pytest.raises(RepositoryError, match="not attached"):
            log.compact()

    def test_unkeyed_events_write_no_record_and_burn_no_seq(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        repo.insert(fabricated_entry(0))
        # Events for an entry the log never keyed (e.g. raced past a
        # detach) must not append a useless {"key": null} record — and
        # must not consume a sequence number either.
        stranger = fabricated_entry(99)
        log._on_event("remove", stranger)
        log._on_event("use", stranger)
        assert log.pending_records == 1  # just the tracked insert
        repo.insert(fabricated_entry(1))
        log.flush()
        records = [json.loads(line) for line in dfs.read_lines(LOG)]
        assert [r["seq"] for r in records] == [1, 2]  # no phantom gap

    def test_checkpoint_appends_until_ratio_then_compacts(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        for index in range(4):
            repo.insert(fabricated_entry(index))
        log = RepositoryLog(dfs, compact_ratio=0.25).attach(repo)
        repo.insert(fabricated_entry(10))
        outcome = log.checkpoint()
        assert outcome["appended"] == 1 and outcome["compacted"] is False
        assert log.log_records == 1
        repo.insert(fabricated_entry(11))
        repo.insert(fabricated_entry(12))
        # 3 log records over 7 entries crosses 0.25 -> compaction: the
        # snapshot is rewritten and the log truncated.
        outcome = log.checkpoint()
        assert outcome == {"appended": 2, "compacted": True}
        assert log.log_records == 0
        assert dfs.read_lines(LOG) == []
        assert manifest_of(dfs)["entries"] == 7

    def test_invalid_compact_ratio_rejected(self):
        with pytest.raises(ValueError):
            RepositoryLog(DistributedFileSystem(), compact_ratio=0)

    def test_double_attach_rejected(self):
        dfs = DistributedFileSystem()
        log = RepositoryLog(dfs).attach(Repository())
        with pytest.raises(RepositoryError):
            log.attach(Repository())

    def test_baseline_repository_rejected_cleanly(self):
        """The frozen seed baseline has no change-event channel; a
        failed attach must not leave the log half-attached."""
        from repro.restore import LinearScanRepository

        dfs = DistributedFileSystem()
        log = RepositoryLog(dfs)
        with pytest.raises(RepositoryError, match="change-event"):
            log.attach(LinearScanRepository())
        assert log.repository is None
        log.attach(Repository())  # still usable afterwards

    def test_attach_discards_stale_pending_from_previous_binding(self):
        """Regression: records buffered for a previously attached
        repository (detached without flushing) must not leak into the
        log of the next attachment — they would replay ghost
        mutations and reuse sequence numbers."""
        dfs = DistributedFileSystem()
        first_repo = Repository()
        log = RepositoryLog(dfs).attach(first_repo)
        for index in range(3):
            first_repo.insert(fabricated_entry(index))
        log.flush()
        log.close()

        other = RepositoryLog(dfs).attach(load_repository(dfs))
        other.repository.insert(fabricated_entry(9))  # buffered, never flushed
        other.detach()
        assert other.pending_records == 1  # the ghost really was buffered

        reloaded = load_repository(dfs)
        other.attach(reloaded)  # same instance, new repository
        assert other.pending_records == 0  # stale buffer discarded
        reloaded.record_use(reloaded.scan()[0], tick=4)
        other.flush()
        after = load_repository(dfs)
        assert len(after) == 3  # no ghost insert replayed
        assert entry_fingerprints(after) == entry_fingerprints(reloaded)

    def test_attach_refuses_to_wipe_durable_state_with_empty_repository(self):
        """Regression: a restart that forgets load_repository() must not
        silently compact an empty repository over the durable snapshot."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.checkpoint()
        log.close()

        with pytest.raises(RepositoryError, match="refusing to attach"):
            RepositoryLog(dfs).attach(Repository())  # forgot to load
        assert len(load_repository(dfs)) == 3  # durable state intact
        # The correct restart path still works.
        RepositoryLog(dfs).attach(load_repository(dfs))
        # And a repository genuinely emptied *after* loading from this
        # snapshot is exempt (its loader report vouches for it).
        emptied = load_repository(dfs)
        for entry in list(emptied.scan()):
            emptied.remove(entry)
        RepositoryLog(dfs).attach(emptied)
        assert len(load_repository(dfs)) == 0

    def test_wipe_guard_not_bypassed_by_other_filesystem_load(self):
        """Regression: a loader report from a *different* DFS (same path
        string) must not vouch for this one — an empty repository loaded
        from a fresh filesystem would otherwise slip past the guard and
        compact over real durable state."""
        dfs_a = DistributedFileSystem()
        dfs_b = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs_b).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        log.close()

        empty = load_repository(dfs_a)  # wrong filesystem, same path
        with pytest.raises(RepositoryError, match="refusing to attach"):
            RepositoryLog(dfs_b).attach(empty)
        assert len(load_repository(dfs_b)) == 1  # durable state intact

    def test_full_save_subsumes_the_log(self):
        """Regression: save_repository writes a snapshot with no log
        pointer, so it must delete the log it supersedes — the
        checkpointed records are in the full save, and leaving them
        behind would strand them un-replayable. A log recreated by
        checkpoints *after* the full save is flagged loudly on load."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        assert dfs.exists(LOG)
        save_repository(live, dfs, SNAPSHOT)  # authoritative full save
        assert not dfs.exists(LOG)
        assert manifest_of(dfs)["log"] is None
        reloaded = load_repository(dfs)
        assert len(reloaded) == 1
        assert reloaded.loader_report.orphaned_log_records == 0
        # Mutations checkpointed after the full save land in a fresh log
        # the snapshot cannot reference: the loss is loud, not silent.
        live.insert(fabricated_entry(1))
        log.checkpoint()
        with pytest.warns(RuntimeWarning, match="NOT replayed"):
            stale = load_repository(dfs)
        assert stale.loader_report.orphaned_log_records > 0

    def test_deleted_snapshot_does_not_let_attach_wipe_the_log(self):
        """Regression: deleting the snapshot while the log still holds
        records must not turn into a silent wipe — the load warns about
        the un-replayable log, and the empty reload does not vouch its
        way past attach's wipe guard."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.checkpoint()
        log.close()
        dfs.delete(SNAPSHOT)  # operator cleanup gone wrong

        with pytest.warns(RuntimeWarning, match="NOT replayed"):
            empty = load_repository(dfs)
        assert len(empty) == 0
        assert empty.loader_report.orphaned_log_records == 3
        with pytest.raises(RepositoryError, match="refusing to attach"):
            RepositoryLog(dfs).attach(empty)
        assert len(dfs.read_lines(LOG)) == 3  # the log survives

    def test_second_log_on_same_repository_rejected(self):
        """Regression: two RepositoryLogs on one repository would buffer
        every mutation twice (one forever) and interleave independent
        sequence counters into shared files."""
        dfs = DistributedFileSystem()
        repo = Repository()
        first = RepositoryLog(dfs).attach(repo)
        with pytest.raises(RepositoryError, match="already has an attached"):
            RepositoryLog(dfs, "/restore/elsewhere").attach(repo)
        first.close()
        RepositoryLog(dfs).attach(repo)  # fine after detach

    def test_full_save_subsumes_custom_log_path(self):
        """Regression: save_repository must also delete a *custom-path*
        log recorded in the manifest it overwrites — pre-save records
        there are subsumed and would otherwise be stranded."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, log_path="/custom/wal",
                            compact_ratio=100.0).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        assert dfs.exists("/custom/wal")
        save_repository(live, dfs, SNAPSHOT)
        assert not dfs.exists("/custom/wal")
        assert len(load_repository(dfs)) == 1

    def test_reattach_same_repository_is_idempotent(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        assert log.attach(repo) is log
        repo.insert(fabricated_entry(0))
        assert log.pending_records == 1  # exactly one subscription

    def test_describe_mentions_paths_and_ratio(self):
        dfs = DistributedFileSystem()
        log = RepositoryLog(dfs, compact_ratio=2.0)
        # Safe before attach too (debuggers repr freely).
        assert "unattached" in log.describe()
        assert log.log_ratio() == 0.0
        log.attach(Repository())
        text = log.describe()
        assert SNAPSHOT in text and LOG in text and "2.0" in text
        assert repr(log).startswith("<RepositoryLog")

    def test_failed_compaction_keeps_pending_records(self):
        """Regression: compact() must not drop the buffered records
        until the snapshot write actually lands — a caller that catches
        the error and retries must still be able to persist them."""
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs, compact_ratio=0.01).attach(repo)
        repo.insert(fabricated_entry(0))
        assert log.pending_records == 1
        log.path = "relative-and-invalid"  # snapshot write will raise
        with pytest.raises(DfsError):
            log.checkpoint()
        assert log.pending_records == 1  # nothing lost
        log.path = SNAPSHOT
        assert log.checkpoint()["compacted"] is True
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(repo)

    def test_close_flushes_and_detaches(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        repo.insert(fabricated_entry(0))
        log.close()
        assert len(dfs.read_lines(LOG)) == 1
        repo.insert(fabricated_entry(1))  # no longer observed
        assert log.pending_records == 0


class TestReplay:
    def _mutate(self, repo, log):
        entries = [repo.insert(fabricated_entry(i)) for i in range(6)]
        repo.record_use(entries[2], tick=5)
        repo.remove(entries[1])
        repo.record_use(entries[2], tick=9)
        log.flush()
        return entries

    @pytest.mark.parametrize("make_repo", [
        Repository, lambda: ShardedRepository(num_shards=4)])
    def test_snapshot_plus_log_replay_is_bit_identical(self, make_repo):
        dfs = DistributedFileSystem()
        live = make_repo()
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        reloaded = load_repository(dfs)
        assert type(reloaded) is type(live)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        report = reloaded.loader_report
        assert report.format_version == MANIFEST_VERSION
        assert report.replayed_records == report.log_records == 9
        assert report.torn_tail_dropped == 0

    def test_sharded_layout_survives_replay(self):
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        reloaded = load_repository(dfs)
        assert [[e.output_path for e in shard] for shard in reloaded.partitions()] \
            == [[e.output_path for e in shard] for shard in live.partitions()]

    def test_torn_final_line_is_dropped_not_fatal(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        # A crash mid-append leaves a partial final line.
        dfs.append_lines(LOG, ['{"seq": 999, "op": "ins'])
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.torn_tail_dropped == 1

    def test_torn_middle_line_is_fatal(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        lines = dfs.read_lines(LOG)
        dfs.write_lines(LOG, lines[:2] + ['{"torn'] + lines[2:], overwrite=True)
        with pytest.raises(RepositoryError):
            load_repository(dfs)

    def test_log_referencing_removed_entry_is_skipped(self):
        """A use/remove record whose target was removed earlier in the
        log — or that names no key at all — counts as dangling instead
        of failing the restart."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entry = live.insert(fabricated_entry(0))
        live.remove(entry)
        log.flush()
        key = json.loads(dfs.read_lines(LOG)[0])["key"]
        dfs.append_lines(LOG, [
            json.dumps({"seq": 3, "op": "use", "key": key,
                        "use_count": 4, "last_used_tick": 9}),
            json.dumps({"seq": 4, "op": "remove", "key": key}),
            json.dumps({"seq": 5, "op": "frobnicate"}),
            json.dumps({"seq": 6, "op": "remove", "key": None}),
        ])
        reloaded = load_repository(dfs)
        assert len(reloaded) == 0
        assert reloaded.loader_report.dangling_records == 4
        assert reloaded.loader_report.replayed_records == 2

    def test_tie_break_sequences_survive_replay(self):
        """Regression: the insertion sequence (the scan order's final
        tie-break) must round-trip. A subsumption edge can hold an early
        entry back so the snapshot's scan order inverts metric-tied
        entries relative to insertion order; if reload re-minted
        sequences from scan positions, the next order recompute would
        break the tie differently than the live repository."""
        def chain_entry(signature, path, stats, wrap=None):
            op = SkeletonOp("filter", signature, None,
                            [POLoad("/data/t", None, 0)])
            if wrap is not None:
                op = SkeletonOp("foreach", wrap, None, [op])
            return RepositoryEntry(PhysicalPlan([POStore(op, path)]), path,
                                   stats)

        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        # X and Y tie on every metric; W strictly contains X but has the
        # worst metrics, so the greedy order is [Y, W, X] — X (inserted
        # first) scans after Y.
        x = live.insert(chain_entry("FILTER[x]", "/s/x",
                                    EntryStats(1000, 10, 5.0)))
        y = live.insert(chain_entry("FILTER[y]", "/s/y",
                                    EntryStats(1000, 10, 5.0)))
        w = live.insert(chain_entry("FILTER[x]", "/s/w",
                                    EntryStats(1000, 1000, 1.0),
                                    wrap="FOREACH[w]"))
        assert [e.output_path for e in live.scan()] == ["/s/y", "/s/w", "/s/x"]
        log.compact()
        # Removing W frees X; the insert of Z recomputes the order, and
        # the X-vs-Y tie resolves by insertion sequence: X first.
        live.remove(w)
        live.insert(chain_entry("FILTER[z]", "/s/z",
                                EntryStats(1000, 20, 1.0)))
        log.flush()
        assert [e.output_path for e in live.scan()] == ["/s/x", "/s/y", "/s/z"]
        reloaded = load_repository(dfs)
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in live.scan()]

    def test_force_scan_order_rejects_non_permutations(self):
        repo = Repository()
        a = repo.insert(fabricated_entry(0))
        b = repo.insert(fabricated_entry(1))
        with pytest.raises(RepositoryError):
            repo.force_scan_order([a, a, b])  # duplicate
        with pytest.raises(RepositoryError):
            repo.force_scan_order([a])  # missing
        with pytest.raises(RepositoryError):
            repo.force_scan_order([a, a])  # duplicate shadowing b
        repo.force_scan_order([b, a])  # a genuine permutation is fine
        assert [e.output_path for e in repo.scan()] == \
            [b.output_path, a.output_path]

    def test_compaction_mid_stream(self):
        """Mutations → compaction → more mutations → reload: replay
        starts from the compacted snapshot, not the full history."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        before = [live.insert(fabricated_entry(i)) for i in range(4)]
        live.remove(before[0])
        log.compact()
        assert log_lines(dfs) == []
        live.insert(fabricated_entry(10))
        live.record_use(before[2], tick=7)
        log.flush()
        assert log.log_records == 2
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.replayed_records == 2

    def test_crash_between_snapshot_swap_and_truncation(self):
        """Compaction swaps the snapshot before truncating the log; a
        crash in between leaves pre-compaction records, which replay
        must skip as stale (their seq is covered by the new snapshot's
        base_seq)."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        live.record_use(entries[0], tick=2)
        log.flush()
        old_log = dfs.read_lines(LOG)
        log.compact()
        # Simulate the crash: the old log contents come back.
        dfs.write_lines(LOG, old_log, overwrite=True)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.stale_records == len(old_log)
        assert reloaded.loader_report.replayed_records == 0

    def test_nonresumable_attach_compaction_crash_leaves_no_fresh_ghosts(self):
        """Regression: a non-resumable attach over existing durable
        state must compact with a base_seq above every sequence already
        in the old log — otherwise a crash between the snapshot swap and
        the log truncation leaves the era-1 records replaying as fresh
        mutations on top of a snapshot that never saw them."""
        dfs = DistributedFileSystem()
        era1 = Repository()
        log1 = RepositoryLog(dfs).attach(era1)
        for index in range(3):
            era1.insert(fabricated_entry(index))
        log1.flush()  # the log holds seqs 1..3
        log1.close()
        old_log = dfs.read_lines(LOG)

        # A new process attaches a *non-empty* in-memory repository at
        # the same path (bypassing the empty-repo wipe guard); attach
        # compacts. Simulate a crash between the snapshot swap and the
        # log truncation by restoring the era-1 log afterwards.
        era2 = Repository()
        era2.insert(fabricated_entry(10))
        RepositoryLog(dfs).attach(era2)
        dfs.write_lines(LOG, old_log, overwrite=True)

        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(era2)
        assert len(reloaded) == 1  # the era-1 records were stale, not fresh
        assert reloaded.loader_report.stale_records == len(old_log)

    def test_missing_log_file_loads_snapshot_alone(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        log.compact()
        dfs.delete_if_exists(LOG)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_partial_load_into_prepopulated_target(self):
        """Loading into a pre-populated explicit target unions the
        entries and skips order pinning (the recorded order is not a
        permutation of the union) instead of failing as corrupt."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.checkpoint()

        target = Repository()
        target.insert(fabricated_entry(30))
        merged = load_repository(dfs, repository=target)
        assert merged is target
        assert len(merged) == 4
        assert {e.output_path for e in merged.scan()} == \
            {e.output_path for e in live.scan()} | {"/stored/s30"}

    def test_failed_snapshot_swap_keeps_the_old_snapshot(self):
        """A compaction that dies before its snapshot swap lands leaves
        the previous snapshot and log exactly as they were, so a reload
        still sees the pre-crash state."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.compact()
        before = dfs.read_lines(SNAPSHOT)

        reloaded = load_repository(dfs)
        reloaded.insert(fabricated_entry(9))  # untracked: forces healing
        healing = RepositoryLog(dfs)
        original_write = dfs.write_lines

        def crashing_write(path, lines, overwrite=False):
            if path == SNAPSHOT:
                raise DfsError("simulated crash before the snapshot swap")
            return original_write(path, lines, overwrite=overwrite)

        dfs.write_lines = crashing_write
        with pytest.raises(DfsError):
            healing.attach(reloaded)
        dfs.write_lines = original_write
        assert dfs.read_lines(SNAPSHOT) == before
        assert len(load_repository(dfs)) == 3


class TestResume:
    def test_reattach_resumes_sequence_and_keys(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        live.record_use(entries[1], tick=4)
        log.flush()
        log.close()

        reloaded = load_repository(dfs)
        snapshot_version = dfs.status(SNAPSHOT).version
        resumed = RepositoryLog(dfs).attach(reloaded)
        # Clean resume: no snapshot rewrite, appending continues.
        assert dfs.status(SNAPSHOT).version == snapshot_version
        target = next(e for e in reloaded.scan()
                      if e.output_path == entries[1].output_path)
        reloaded.record_use(target, tick=8)
        reloaded.insert(fabricated_entry(20))
        resumed.flush()
        second = load_repository(dfs)
        assert entry_fingerprints(second) == entry_fingerprints(reloaded)
        # The resumed records extend the original sequence numbers.
        seqs = [record["seq"] for record in log_records(dfs)]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_replay_state_is_single_use(self):
        """Regression: the loader's replay state describes the
        repository *as loaded*. A second attach — after mutations were
        logged and compacted through another RepositoryLog — must not
        rewind the sequence counter to load time, or records appended
        afterwards would sit at or below the on-DFS base_seq and be
        silently skipped as stale on the next reload."""
        dfs = DistributedFileSystem()
        live = Repository()
        first = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        first.flush()
        first.close()

        reloaded = load_repository(dfs)
        second = RepositoryLog(dfs).attach(reloaded)
        # Mutate and compact: the on-DFS base_seq moves past load time.
        for tick in range(4, 8):
            reloaded.record_use(reloaded.scan()[0], tick)
        second.compact()
        second.detach()

        third = RepositoryLog(dfs).attach(reloaded)
        reloaded.record_use(reloaded.scan()[0], 9)
        third.flush()
        after_crash = load_repository(dfs)
        assert entry_fingerprints(after_crash) == entry_fingerprints(reloaded)
        assert after_crash.loader_report.stale_records == 0
        assert after_crash.scan()[0].stats.last_used_tick == 9

    def test_mutations_between_load_and_attach_are_persisted(self):
        """Regression: removals and use-stamps applied to a reloaded
        repository *before* a RepositoryLog attaches happen outside the
        listener, so the clean-resume path must notice them and compact
        — otherwise a later reload resurrects the removed entry and
        drops the stamp."""
        dfs = DistributedFileSystem()
        live = Repository()
        first = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        first.flush()
        first.close()

        reloaded = load_repository(dfs)
        reloaded.remove(reloaded.scan()[0])
        reloaded.record_use(reloaded.scan()[0], tick=5)
        RepositoryLog(dfs).attach(reloaded).checkpoint()

        after = load_repository(dfs)
        assert entry_fingerprints(after) == entry_fingerprints(reloaded)
        assert len(after) == 2
        assert after.scan()[0].stats.use_count == 1

    def test_attach_into_different_shard_count_resumes(self):
        """The format knows no shard layout: a file written by a
        2-shard repository loads into an 8-shard target and resumes
        appending with no healing compaction; the next compaction
        records the live shard count."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=2)
        log = RepositoryLog(dfs).attach(live)
        for index in range(4):
            live.insert(fabricated_entry(index))
        log.checkpoint()
        log.close()

        migrated = load_repository(
            dfs, repository=ShardedRepository(num_shards=8))
        snapshot_version = dfs.status(SNAPSHOT).version
        resumed = RepositoryLog(dfs).attach(migrated)
        assert dfs.status(SNAPSHOT).version == snapshot_version
        migrated.insert(fabricated_entry(9))
        resumed.compact()
        assert manifest_of(dfs)["num_shards"] == 8
        reloaded = load_repository(dfs)
        assert isinstance(reloaded, ShardedRepository)
        assert reloaded.num_shards == 8
        assert entry_fingerprints(reloaded) == entry_fingerprints(migrated)

    def test_reattach_after_torn_tail_heals_the_log(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        log.flush()
        dfs.append_lines(LOG, ['{"seq": 99, "op'])
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.torn_tail_dropped == 1
        RepositoryLog(dfs).attach(reloaded)
        # The torn garbage is gone: attach compacted snapshot + log.
        assert dfs.read_lines(LOG) == []
        healed = load_repository(dfs)
        assert entry_fingerprints(healed) == entry_fingerprints(live)


class TestSingleFormat:
    """One snapshot plus one append-only log, whatever the repository
    class or shard count."""

    @pytest.mark.parametrize("make_repo", [
        Repository,
        lambda: ShardedRepository(num_shards=2),
        lambda: ShardedRepository(num_shards=8),
    ], ids=["plain", "sharded2", "sharded8"])
    def test_compaction_writes_base_seq_and_truncates_the_log(self, make_repo):
        dfs = DistributedFileSystem()
        live = make_repo()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        entries = [live.insert(fabricated_entry(i, pool=8)) for i in range(6)]
        live.record_use(entries[2], tick=3)
        log.flush()
        assert len(dfs.read_lines(LOG)) == 7
        log.compact()
        manifest = manifest_of(dfs)
        assert manifest["base_seq"] == 7
        assert manifest["num_shards"] == getattr(live, "num_shards", 0)
        assert dfs.read_lines(LOG) == []
        # The snapshot and its log are the only persistence files.
        assert dfs.list_files(prefix=SNAPSHOT) == [SNAPSHOT, LOG]
        reloaded = load_repository(dfs)
        assert type(reloaded) is type(live)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_compaction_rule_is_the_same_for_every_shard_count(self):
        """Compaction triggers on (log + pending) records over *all*
        entries, so a sharded repository compacts at exactly the
        checkpoints a plain one does."""
        outcomes = []
        for live in (Repository(), ShardedRepository(num_shards=8)):
            log = RepositoryLog(DistributedFileSystem()).attach(live)
            trace = []
            for index in range(12):
                entry = live.insert(fabricated_entry(index, pool=8))
                live.record_use(entry, tick=index)
                trace.append(log.checkpoint()["compacted"])
            outcomes.append(trace)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_checkpoint_returns_appended_and_compacted(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        live.insert(fabricated_entry(0))
        assert log.checkpoint() == {"appended": 1, "compacted": False}
        log.compact_ratio = 0.01
        live.insert(fabricated_entry(1))
        assert log.checkpoint() == {"appended": 1, "compacted": True}

    def test_full_save_then_attach_rewrites_with_a_log_pointer(self):
        """A save_repository snapshot carries no log pointer, so a log
        attached to its reload compacts once, after which checkpoints
        append and replay as usual."""
        dfs = DistributedFileSystem()
        live = Repository()
        for index in range(3):
            live.insert(fabricated_entry(index))
        save_repository(live, dfs, SNAPSHOT)
        reloaded = load_repository(dfs)
        version = dfs.status(SNAPSHOT).version
        log = RepositoryLog(dfs).attach(reloaded)
        assert dfs.status(SNAPSHOT).version != version  # healed
        assert manifest_of(dfs)["log"] == LOG
        reloaded.insert(fabricated_entry(7))
        reloaded.remove(reloaded.scan()[0])
        log.flush()
        again = load_repository(dfs)
        assert again.loader_report.replayed_records == 2
        assert entry_fingerprints(again) == entry_fingerprints(reloaded)

    def test_custom_log_path_resumes_cleanly(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, log_path="/custom/wal").attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.close()
        assert manifest_of(dfs)["log"] == "/custom/wal"
        assert not dfs.exists(LOG)
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.replayed_records == 3
        version = dfs.status(SNAPSHOT).version
        RepositoryLog(dfs, log_path="/custom/wal").attach(reloaded)
        assert dfs.status(SNAPSHOT).version == version  # no healing
        # A log at a different path cannot resume this snapshot.
        other = load_repository(dfs)
        RepositoryLog(dfs).attach(other)
        assert manifest_of(dfs)["log"] == LOG

    def test_file_order_is_scan_order_after_removals(self):
        """After removals the live order is "previous order minus the
        removed entries" — not the greedy order of what is left. The
        snapshot's lines follow it, and the reload pins it."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(10):
            live.insert(fabricated_entry(index, pool=2))
        for victim in live.scan()[1::3]:
            live.remove(victim)
        log.compact()
        lines = dfs.read_lines(SNAPSHOT)[1:]
        assert [json.loads(line)["entry"]["output_path"] for line in lines] \
            == [e.output_path for e in live.scan()]
        reloaded = load_repository(dfs)
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in live.scan()]
        assert [e._sequence for e in reloaded.scan()] == \
            [e._sequence for e in live.scan()]

    def test_duplicate_use_records_converge(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entry = live.insert(fabricated_entry(0))
        live.record_use(entry, tick=5)
        log.flush()
        use = dfs.read_lines(LOG)[-1]
        dfs.append_lines(LOG, [use, use])  # replayed twice more
        reloaded = load_repository(dfs)
        [again] = reloaded.scan()
        assert (again.stats.use_count, again.stats.last_used_tick) == (1, 5)
        assert reloaded.loader_report.replayed_records == 4

    def test_empty_repository_snapshot_is_manifest_only(self):
        dfs = DistributedFileSystem()
        RepositoryLog(dfs).attach(Repository())
        assert dfs.read_lines(SNAPSHOT) == [json.dumps(
            {MANIFEST_KEY: MANIFEST_VERSION, "base_seq": 0, "entries": 0,
             "log": LOG, "num_shards": 0}, sort_keys=True)]
        reloaded = load_repository(dfs)
        assert len(reloaded) == 0
        assert reloaded.loader_report.format_version == MANIFEST_VERSION

    def test_wipe_guard_counts_a_snapshot_without_manifest(self):
        """A snapshot path holding lines that are not a manifest still
        counts as durable state: an empty attach must not wipe it."""
        dfs = DistributedFileSystem()
        dfs.write_lines(SNAPSHOT, ['{"not": "a manifest"}', "{}"])
        with pytest.raises(RepositoryError, match="holds 2 record"):
            RepositoryLog(dfs).attach(Repository())
        assert len(dfs.read_lines(SNAPSHOT)) == 2

    def test_reinserted_equivalent_plan_gets_a_fresh_key(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        first = live.insert(fabricated_entry(0))
        live.remove(first)
        live.insert(fabricated_entry(0))
        log.flush()
        keys = [record["key"] for record in log_records(dfs)]
        assert keys == ["k0", "k0", "k1"]
        assert entry_fingerprints(load_repository(dfs)) == \
            entry_fingerprints(live)


class TestManagerIntegration:
    def test_manager_checkpoints_every_submit(self):
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=100.0)
        restore = system.restore(persistence=log)
        restore.submit(system.compile(Q1_TEXT))
        assert restore.last_report.checkpoint is not None
        assert restore.last_report.checkpoint["appended"] >= 1
        reloaded = load_repository(system.dfs)
        assert entry_fingerprints(reloaded) == \
            entry_fingerprints(restore.repository)

    def test_persistence_true_builds_default_log(self):
        """Knob plumbing: ReStore(persistence=True) wires a
        default-configured RepositoryLog on the manager's DFS."""
        system = pigmix_system()
        restore = system.restore(persistence=True)
        assert isinstance(restore.persistence, RepositoryLog)
        restore.submit(system.compile(Q1_TEXT))
        assert restore.last_report.checkpoint is not None
        reloaded = load_repository(system.dfs)
        assert entry_fingerprints(reloaded) == \
            entry_fingerprints(restore.repository)

    def test_manager_close_flushes_pending_records(self):
        # Regression: records buffered between the checkpoint cadence
        # used to be lost when the manager was simply dropped.
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=100.0)
        restore = system.restore(persistence=log, checkpoint_every=1000)
        restore.submit(system.compile(Q1_TEXT))
        assert log.pending_records >= 1  # cadence never fired
        restore.close()
        assert log.pending_records == 0
        reloaded = load_repository(system.dfs)
        assert entry_fingerprints(reloaded) == \
            entry_fingerprints(restore.repository)
        restore.close()  # idempotent

    def test_manager_is_a_context_manager(self):
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=100.0)
        with system.restore(persistence=log,
                            checkpoint_every=1000) as restore:
            restore.submit(system.compile(Q1_TEXT))
            assert log.pending_records >= 1
        assert log.pending_records == 0
        assert entry_fingerprints(load_repository(system.dfs)) == \
            entry_fingerprints(restore.repository)

    def test_checkpoint_every_knob(self):
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=100.0)
        restore = system.restore(persistence=log, checkpoint_every=2)
        restore.submit(system.compile(Q1_TEXT))
        assert restore.last_report.checkpoint is None
        assert log.pending_records >= 1
        restore.submit(system.compile(Q2_TEXT))
        assert restore.last_report.checkpoint is not None
        assert log.pending_records == 0

    def test_reloaded_manager_still_reuses(self):
        """Restart from snapshot+log: Q2 is still rewritten from Q1's
        logged registrations."""
        system = pigmix_system()
        log = RepositoryLog(system.dfs)
        restore = system.restore(persistence=log)
        restore.submit(system.compile(Q1_TEXT))

        reloaded = load_repository(system.dfs)
        fresh = system.restore(repository=reloaded,
                               enable_registration=False, heuristic=None)
        fresh.submit(system.compile(Q2_TEXT))
        assert fresh.last_report.num_rewrites >= 1

    def test_eviction_removals_survive_restart(self):
        """Rule 3/4 sweeps append remove records, so a restart does not
        resurrect evicted entries."""
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=1000.0)
        restore = system.restore(
            persistence=log,
            retention=HeuristicRetentionPolicy(window_ticks=100))
        restore.submit(system.compile(Q1_TEXT))
        assert len(restore.repository) >= 1
        # Rule 4: modify the users dataset; the next sweep evicts every
        # entry that read the old version.
        seed_users(system.dfs, include=range(4))
        probe = ("A = load '/data/page_views' as (user:chararray, "
                 "timestamp:int, est_revenue:double, page_info:chararray, "
                 "page_links:chararray);\n"
                 "B = filter A by timestamp > 10;\n"
                 "store B into '/out/probe';")
        restore.submit(system.compile(probe, "probe"))
        assert restore.last_report.evicted_entries
        reloaded = load_repository(system.dfs)
        assert entry_fingerprints(reloaded) == \
            entry_fingerprints(restore.repository)
        # No compaction happened: the evictions really came from replay.
        assert reloaded.loader_report.replayed_records > 0
        assert any(record["op"] == "remove"
                   for record in log_records(system.dfs))

    def test_manager_ranker_recorded_in_snapshot_manifest(self):
        """The manifest carries the same ranker provenance that
        save_repository(..., ranker=) records — without requiring the
        caller to duplicate it into the RepositoryLog constructor."""
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=0.01)  # compact always
        restore = system.restore(ranker="savings", persistence=log)
        restore.submit(system.compile(Q1_TEXT))
        assert restore.last_report.checkpoint["compacted"]
        reloaded = load_repository(system.dfs)
        assert reloaded.manifest_metadata["ranker"] == "savings"
        # An explicitly configured log keeps its own setting.
        explicit = RepositoryLog(system.dfs, ranker="structural")
        system.restore(ranker="savings", persistence=explicit,
                       repository=reloaded)
        assert explicit.ranker == "structural"

    def test_use_stamps_survive_restart(self):
        system = pigmix_system()
        log = RepositoryLog(system.dfs)
        restore = system.restore(persistence=log)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        assert restore.last_report.num_rewrites >= 1
        reloaded = load_repository(system.dfs)
        live_stats = [(e.output_path, e.stats.use_count, e.stats.last_used_tick)
                      for e in restore.repository.scan()]
        reloaded_stats = [(e.output_path, e.stats.use_count, e.stats.last_used_tick)
                          for e in reloaded.scan()]
        assert reloaded_stats == live_stats
        assert any(count > 0 for _, count, _ in reloaded_stats)
