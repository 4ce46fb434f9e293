"""Incremental persistence: the change-event channel, the segmented
repository log (per-shard segments + dirty-only compaction), and
crash-safe replay (PR 4, segmented in PR 5)."""

import json

import pytest

from repro.common import LogicalClock
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
    CATCHALL_LABEL,
    DELTA_MANIFEST_VERSION,
    entry_to_json,
    LOG_MANIFEST_VERSION,
    MANIFEST_KEY,
    order_log_prefix,
    SEGMENT_MANIFEST_VERSION,
    segment_file_path,
    shard_label,
    SkeletonOp,
)
from repro.restore.sharding import CATCHALL_SHARD
from repro.restore.stats import EntryStats

from tests.helpers import Q1_TEXT, Q2_TEXT, seed_page_views, seed_users

SNAPSHOT = "/restore/repository.jsonl"
LOG_BASE = "/restore/repository.jsonl.log"
#: a plain repository's single partition is the catch-all segment
SEG = f"{LOG_BASE}.{CATCHALL_LABEL}"


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


def segment_files(dfs, base=LOG_BASE):
    return dfs.list_files(prefix=f"{base}.")


def segment_lines(dfs, path=SEG):
    """A segment's lines, with a never-created segment (its pending
    records were subsumed by compaction before any flush) reading as
    empty — same as a truncated one."""
    return dfs.read_lines(path) if dfs.exists(path) else []


def order_log_of(dfs, path=SNAPSHOT):
    """``(order_log_path, parsed records)`` of the manifest's v5 order
    log."""
    manifest = manifest_of(dfs, path)
    order_log = manifest["order_log"]
    return order_log, [json.loads(line) for line in dfs.read_lines(order_log)]


def recorded_order_of(dfs, path=SNAPSHOT):
    """The recorded global scan order reconstructed from the v5 order
    log (full base + deltas), as the loader would see it."""
    from repro.restore.persistence import apply_order_delta
    manifest = manifest_of(dfs, path)
    _, records = order_log_of(dfs, path)
    order = []
    for record in records:
        if record["gen"] > manifest["order_gen"]:
            continue
        if "full" in record:
            order = [list(pair) for pair in record["full"]]
        else:
            order = apply_order_delta(order, record)
    return order


def all_segment_records(dfs, base=LOG_BASE):
    """Every parseable record across all segments, in sequence order."""
    records = []
    for file in segment_files(dfs, base):
        for line in dfs.read_lines(file):
            try:
                records.append(json.loads(line))
            except ValueError:
                pass
    return sorted(records, key=lambda record: record.get("seq", 0))


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
        repo = ShardedRepository(num_shards=4)
        shard_ids = []
        repo.add_listener(
            lambda op, entry: shard_ids.append((op, repo.shard_id_of(entry))))
        entry = repo.insert(fabricated_entry(1))
        owned = repo.shard_id_of(entry)
        repo.remove(entry)
        assert shard_ids == [("insert", owned), ("remove", owned)]
        assert owned is not None
        # After removal the ownership is gone.
        assert repo.shard_id_of(entry) is None

    def test_plain_repository_has_no_shard_ids(self):
        repo = Repository()
        entry = repo.insert(fabricated_entry(0))
        assert repo.shard_id_of(entry) is None

    def test_catchall_shard_id(self):
        repo = ShardedRepository(num_shards=2)
        # A store of a bare chain with an unkeyable load signature goes
        # to the catch-all.
        chain = SkeletonOp("filter", "FILTER[x]", None,
                           [SkeletonOp("load", "opaque-load", None, [])])
        plan = PhysicalPlan([POStore(chain, "/stored/odd")])
        entry = repo.insert(RepositoryEntry(plan, "/stored/odd",
                                            EntryStats(100, 10, 1.0)))
        assert repo.shard_id_of(entry) == CATCHALL_SHARD

    def test_shard_sizes_and_members(self):
        plain = Repository()
        entry = plain.insert(fabricated_entry(0))
        assert plain.shard_sizes() == {None: 1}
        assert plain.shard_members(None) == (entry,)
        with pytest.raises(RepositoryError):
            plain.shard_members(0)
        sharded = ShardedRepository(num_shards=2)
        entry = sharded.insert(fabricated_entry(1))
        sizes = sharded.shard_sizes()
        assert set(sizes) == {0, 1, CATCHALL_SHARD}
        assert sum(sizes.values()) == 1
        owned = sharded.shard_id_of(entry)
        assert sharded.shard_members(owned) == (entry,)
        with pytest.raises(RepositoryError):
            sharded.shard_members(99)


class TestRepositoryLogBasics:
    def test_attach_writes_initial_v5_manifest(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        repo.insert(fabricated_entry(0))
        log = RepositoryLog(dfs).attach(repo)
        manifest = manifest_of(dfs)
        assert manifest[MANIFEST_KEY] == DELTA_MANIFEST_VERSION
        assert manifest["log"] == LOG_BASE
        assert manifest["num_shards"] == 0
        assert manifest["entries"] == 1
        # One catch-all section + segment slot; the global scan order
        # lives in the order log as [key, sequence] pairs — the v5
        # manifest no longer embeds it.
        [section] = manifest["sections"]
        assert section["shard"] is None
        assert section["segment"] == SEG
        assert "order" not in manifest
        order_log, records = order_log_of(dfs)
        assert manifest["order_log"] == order_log
        assert records == [{"gen": manifest["order_gen"],
                            "full": [["k0", 0]]}]
        assert log.segment_path(None) == SEG

    def test_flush_appends_one_record_per_mutation(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        first = repo.insert(fabricated_entry(0))
        repo.record_use(first, tick=1)
        repo.remove(first)
        assert log.pending_records == 3
        assert log.flush() == 3
        records = [json.loads(line) for line in dfs.read_lines(SEG)]
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
        records = [json.loads(line) for line in dfs.read_lines(SEG)]
        assert [r["seq"] for r in records] == [1, 2]  # no phantom gap

    def test_records_routed_to_owning_segments(self):
        dfs = DistributedFileSystem()
        repo = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(repo)
        entries = [repo.insert(fabricated_entry(index)) for index in range(8)]
        repo.record_use(entries[0], tick=1)
        log.flush()
        seen_shards = set()
        for file in segment_files(dfs):
            for line in dfs.read_lines(file):
                record = json.loads(line)
                seen_shards.add(record["shard"])
                # Every record sits in the segment of its own shard.
                assert file == segment_file_path(
                    LOG_BASE, shard_label(record["shard"]))
        assert seen_shards == {repo.shard_id_of(e) for e in entries}

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
        # catch-all section is rewritten and its segment truncated.
        outcome = log.checkpoint()
        assert outcome["compacted"] is True
        assert outcome["compacted_shards"] == [CATCHALL_LABEL]
        assert log.log_records == 0
        assert dfs.read_lines(SEG) == []
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
        segments of the next attachment — they would replay ghost
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

    def test_full_save_subsumes_segments(self):
        """Regression: save_repository writes a v1/v2 file with no log
        pointer, so it must delete the section and segment files it
        supersedes — the checkpointed records are in the full save, and
        leaving them behind would strand them un-replayable. Segments
        recreated by checkpoints *after* the full save are flagged
        loudly on load."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        assert dfs.exists(SEG)
        save_repository(live, dfs, SNAPSHOT)  # authoritative full save
        assert not dfs.exists(SEG)
        assert segment_files(dfs) == []
        reloaded = load_repository(dfs)
        assert len(reloaded) == 1
        assert reloaded.loader_report.orphaned_log_records == 0
        # Mutations checkpointed after the full save land in fresh
        # segments the v1 snapshot cannot reference: the loss is loud,
        # not silent.
        live.insert(fabricated_entry(1))
        log.checkpoint()
        with pytest.warns(RuntimeWarning, match="NOT replayed"):
            stale = load_repository(dfs)
        assert stale.loader_report.orphaned_log_records > 0

    def test_deleted_snapshot_does_not_let_attach_wipe_the_segments(self):
        """Regression: deleting the manifest while the segments still
        hold records must not turn into a silent wipe — the load warns
        about the un-replayable segments, and the empty reload does not
        vouch its way past attach's wipe guard."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.checkpoint()
        log.close()
        dfs.delete(SNAPSHOT)  # operator cleanup gone wrong

        with pytest.warns(RuntimeWarning, match="cannot be replayed"):
            empty = load_repository(dfs)
        assert len(empty) == 0
        assert empty.loader_report.orphaned_log_records == 3
        with pytest.raises(RepositoryError, match="refusing to attach"):
            RepositoryLog(dfs).attach(empty)
        assert len(dfs.read_lines(SEG)) == 3  # the segment survives

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
        """Regression: save_repository must also delete *custom-path*
        segment files recorded in the v4 manifest it overwrites —
        pre-save records there are subsumed and would otherwise be
        stranded."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, log_path="/custom/wal",
                            compact_ratio=100.0).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        assert dfs.exists(f"/custom/wal.{CATCHALL_LABEL}")
        save_repository(live, dfs, SNAPSHOT)
        assert not dfs.exists(f"/custom/wal.{CATCHALL_LABEL}")
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
        assert SNAPSHOT in text and LOG_BASE in text and "2.0" in text
        assert repr(log).startswith("<RepositoryLog")

    def test_failed_compaction_keeps_pending_records(self):
        """Regression: compact() must not drop the buffered records
        until the section writes actually land — a caller that catches
        the error and retries must still be able to persist them."""
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs, compact_ratio=0.01).attach(repo)
        repo.insert(fabricated_entry(0))
        assert log.pending_records == 1
        log.path = "relative-and-invalid"  # section write will raise
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
        assert len(dfs.read_lines(SEG)) == 1
        repo.insert(fabricated_entry(1))  # no longer observed
        assert log.pending_records == 0


class TestDirtyOnlyCompaction:
    def _sharded_state(self, num_entries=24, num_shards=4):
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=num_shards)
        for index in range(num_entries):
            live.insert(fabricated_entry(index, pool=num_entries // 2))
        log = RepositoryLog(dfs).attach(live)  # initial full compaction
        return dfs, live, log

    def _stamp_shard(self, live, shard_id, count, start_tick=1):
        victims = [e for e in live.scan() if live.shard_id_of(e) == shard_id]
        for tick in range(start_tick, start_tick + count):
            live.record_use(victims[tick % len(victims)], tick)

    def test_compact_rewrites_only_dirty_sections(self):
        dfs, live, log = self._sharded_state()
        target = live.shard_id_of(live.scan()[0])
        label = shard_label(target)
        before = {file: dfs.status(file).version
                  for file in dfs.list_files(prefix=f"{SNAPSHOT}.sec-")}
        # Mutations confined to one shard dirty only that shard.
        self._stamp_shard(live, target, count=2 * len(live))
        assert log.dirty_shards() == [label]
        outcome = log.checkpoint()
        assert outcome["compacted"] is True
        assert outcome["compacted_shards"] == [label]
        after = {file: dfs.status(file).version
                 for file in dfs.list_files(prefix=f"{SNAPSHOT}.sec-")}
        # Exactly one section changed: the dirty shard got a fresh
        # generation file, every clean section is byte-for-byte the same
        # file (same name, same version — reused, not rewritten).
        changed_out = set(before) - set(after)
        changed_in = set(after) - set(before)
        assert {file.split(".sec-")[1].split(".g")[0]
                for file in changed_out | changed_in} == {label}
        for file in set(before) & set(after):
            assert before[file] == after[file]
        # Only the dirty shard's segment was truncated.
        assert segment_lines(dfs, log.segment_path(target)) == []
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_clean_segments_untouched_by_dirty_compaction(self):
        dfs, live, log = self._sharded_state()
        target = live.shard_id_of(live.scan()[0])
        other = next(live.shard_id_of(e) for e in live.scan()
                     if live.shard_id_of(e) != target)
        # One record in the clean shard, many in the dirty one.
        self._stamp_shard(live, other, count=1)
        self._stamp_shard(live, target, count=2 * len(live), start_tick=50)
        log.flush()
        clean_version = dfs.status(log.segment_path(other)).version
        assert log.dirty_shards() == [shard_label(target)]
        log.checkpoint()
        assert dfs.status(log.segment_path(other)).version == clean_version
        assert len(dfs.read_lines(log.segment_path(other))) == 1
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_full_compact_truncates_every_segment(self):
        dfs, live, log = self._sharded_state()
        self._stamp_shard(live, live.shard_id_of(live.scan()[0]), count=3)
        log.flush()
        compacted = log.compact()
        sizes = {shard_label(s) for s in live.shard_sizes()}
        assert set(compacted) == sizes
        assert log.log_records == 0
        for file in segment_files(dfs):
            assert dfs.read_lines(file) == []

    def test_compact_unknown_shard_rejected(self):
        dfs, live, log = self._sharded_state()
        with pytest.raises(RepositoryError, match="unknown partition"):
            log.compact(["nope"])

    def test_segment_record_counts_track_per_shard(self):
        dfs, live, log = self._sharded_state()
        target = live.shard_id_of(live.scan()[0])
        self._stamp_shard(live, target, count=3)
        log.flush()
        assert log.segment_record_counts() == {shard_label(target): 3}

    def test_superseded_generations_are_collected(self):
        dfs, live, log = self._sharded_state()
        target = live.shard_id_of(live.scan()[0])
        self._stamp_shard(live, target, count=2 * len(live))
        log.checkpoint()
        manifest = manifest_of(dfs)
        referenced = {section["file"] for section in manifest["sections"]
                      if section["file"] is not None}
        on_disk = set(dfs.list_files(prefix=f"{SNAPSHOT}.sec-"))
        assert on_disk == referenced  # no orphan generations left behind


class TestOrderDeltaManifests:
    """The v5 enabler: dirty-only compaction records a scan-order
    *delta* in the order log instead of rewriting the full global order
    — the manifest write cost is O(dirty shards), and the last
    cross-shard write is gone."""

    def _sharded_state(self, num_entries=24, num_shards=4):
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=num_shards)
        for index in range(num_entries):
            live.insert(fabricated_entry(index, pool=num_entries // 2))
        log = RepositoryLog(dfs).attach(live)  # initial full compaction
        return dfs, live, log

    def test_dirty_compaction_appends_one_delta_record(self):
        dfs, live, log = self._sharded_state()
        path_before, records_before = order_log_of(dfs)
        assert len(records_before) == 1 and "full" in records_before[0]
        inserted = live.insert(fabricated_entry(100, pool=2))
        target = live.shard_id_of(inserted)
        log.compact([shard_label(target)])
        path_after, records_after = order_log_of(dfs)
        # Same file, one appended record: the full order (24 entries)
        # was NOT rewritten — the delta names only the one change.
        assert path_after == path_before
        assert len(records_after) == 2
        delta = records_after[-1]
        assert "full" not in delta
        assert delta["removed"] == []
        new_key = log._keys[inserted.entry_id]
        assert [item[0] for item in delta["inserted"]] == [new_key]
        # The reconstructed lineage equals the live scan order exactly.
        assert [key for key, _ in recorded_order_of(dfs)] == \
            [log._keys[e.entry_id] for e in live.scan()]
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_removal_expressed_as_delta(self):
        dfs, live, log = self._sharded_state()
        victim = live.scan()[3]
        victim_key = log._keys[victim.entry_id]
        target = live.shard_id_of(victim)
        live.remove(victim)
        log.compact([shard_label(target)])
        _, records = order_log_of(dfs)
        delta = records[-1]
        assert delta["removed"] == [victim_key]
        assert delta["inserted"] == []
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_full_compaction_rebases_into_fresh_order_log(self):
        dfs, live, log = self._sharded_state()
        path_before, _ = order_log_of(dfs)
        live.insert(fabricated_entry(101, pool=2))
        log.compact()  # all partitions: a rebase, not a delta
        path_after, records = order_log_of(dfs)
        assert path_after != path_before
        assert not dfs.exists(path_before)  # superseded file collected
        assert dfs.list_files(prefix=order_log_prefix(SNAPSHOT)) \
            == [path_after]
        assert len(records) == 1 and "full" in records[0]
        assert len(records[0]["full"]) == len(live)

    def test_rebase_after_record_limit(self, monkeypatch):
        monkeypatch.setattr("repro.restore.wal.ORDER_REBASE_RECORDS", 2)
        dfs, live, log = self._sharded_state()
        paths = []
        for index in range(4):
            entry = live.insert(fabricated_entry(200 + index, pool=2))
            log.compact([shard_label(live.shard_id_of(entry))])
            paths.append(order_log_of(dfs)[0])
        # Records 2 and 4 hit the cap and rebased into fresh files; the
        # lineage never grows unboundedly.
        assert paths[0] != paths[1]
        assert paths[1] == paths[2]
        assert paths[2] != paths[3]
        _, records = order_log_of(dfs)
        assert "full" in records[0]
        assert len(records) <= 2
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_orphan_order_records_ignored_and_healed(self):
        dfs, live, log = self._sharded_state(num_entries=6)
        order_log, _ = order_log_of(dfs)
        manifest = manifest_of(dfs)
        # Crash window: an order record hit the disk but the manifest
        # swap never happened. Its generation is above the manifest's.
        dfs.append_lines(order_log, [json.dumps(
            {"gen": manifest["order_gen"] + 5,
             "removed": ["k0"], "inserted": []})])
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.orphan_order_records == 1
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        # Attach treats the orphan as crash damage: the healing
        # compaction rebases into a clean lineage.
        healed_log = RepositoryLog(dfs).attach(reloaded)
        _, records = order_log_of(dfs)
        assert len(records) == 1 and "full" in records[0]
        assert load_repository(dfs).loader_report.orphan_order_records == 0
        healed_log.close()

    def test_torn_order_log_tail_dropped(self):
        dfs, live, log = self._sharded_state(num_entries=6)
        order_log, _ = order_log_of(dfs)
        dfs.append_lines(order_log, ['{"gen": 99, "remo'])  # torn write
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.torn_tail_dropped >= 1
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_v4_manifest_with_embedded_order_migrates_to_v5(self):
        # Downgrade a live v5 state to the v4 shape by hand: embed the
        # full order in the manifest, drop the order log. Loading must
        # accept it; attaching must migrate it to v5 losslessly.
        dfs, live, log = self._sharded_state(num_entries=8)
        manifest = manifest_of(dfs)
        order = recorded_order_of(dfs)
        for old in dfs.list_files(prefix=order_log_prefix(SNAPSHOT)):
            dfs.delete_if_exists(old)
        manifest.pop("order_log")
        manifest.pop("order_gen")
        manifest["order"] = order
        manifest[MANIFEST_KEY] = SEGMENT_MANIFEST_VERSION
        dfs.write_lines(SNAPSHOT, [json.dumps(manifest, sort_keys=True)],
                        overwrite=True)
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.format_version \
            == SEGMENT_MANIFEST_VERSION
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        # v4 is legacy, not resumable: attach heals it into v5.
        migrated_log = RepositoryLog(dfs).attach(reloaded)
        assert manifest_of(dfs)[MANIFEST_KEY] == DELTA_MANIFEST_VERSION
        again = load_repository(dfs)
        assert again.loader_report.format_version == DELTA_MANIFEST_VERSION
        assert entry_fingerprints(again) == entry_fingerprints(live)
        migrated_log.close()


class TestReplay:
    def _mutate(self, repo, log):
        entries = [repo.insert(fabricated_entry(i)) for i in range(6)]
        repo.record_use(entries[2], tick=5)
        repo.remove(entries[1])
        repo.record_use(entries[2], tick=9)
        log.flush()
        return entries

    def test_legacy_null_key_records_are_noops_not_dangling(self):
        # A pre-fix writer could leave {"key": null} remove/use records
        # in a segment. The loader must treat them as no-ops referencing
        # nothing durable — not count them as dangling removes.
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        for index in range(3):
            repo.insert(fabricated_entry(index))
        log.flush()
        dfs.append_lines(SEG, [
            json.dumps({"op": "remove", "shard": None, "seq": 90,
                        "key": None}),
            json.dumps({"op": "use", "shard": None, "seq": 91, "key": None,
                        "use_count": 3, "last_used_tick": 7}),
        ])
        reloaded = load_repository(dfs)
        assert len(reloaded) == 3
        assert reloaded.loader_report.dangling_records == 0
        assert entry_fingerprints(reloaded) == entry_fingerprints(repo)

    @pytest.mark.parametrize("make_repo", [
        Repository, lambda: ShardedRepository(num_shards=4)])
    def test_sections_plus_segments_replay_is_bit_identical(self, make_repo):
        dfs = DistributedFileSystem()
        live = make_repo()
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        reloaded = load_repository(dfs)
        assert type(reloaded) is type(live)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        report = reloaded.loader_report
        assert report.format_version == DELTA_MANIFEST_VERSION
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
        dfs.append_lines(SEG, ['{"seq": 999, "op": "ins'])
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.torn_tail_dropped == 1

    def test_torn_tails_tolerated_per_segment(self):
        """Each segment independently tolerates its own torn final line
        — a crash mid-flush can leave several (one per appended file)."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        torn = 0
        for file in segment_files(dfs):
            if dfs.read_lines(file):
                dfs.append_lines(file, ['{"seq": 999, "op'])
                torn += 1
        assert torn >= 2  # the mutations really did span shards
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.torn_tail_dropped == torn

    def test_torn_middle_line_is_fatal(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        lines = dfs.read_lines(SEG)
        dfs.write_lines(SEG, lines[:2] + ['{"torn'] + lines[2:], overwrite=True)
        with pytest.raises(RepositoryError):
            load_repository(dfs)

    def test_log_referencing_removed_entry_is_skipped(self):
        """A use/remove record whose target was removed earlier in the
        segment counts as dangling instead of failing the restart."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entry = live.insert(fabricated_entry(0))
        live.remove(entry)
        log.flush()
        key = json.loads(dfs.read_lines(SEG)[0])["key"]
        dfs.append_lines(SEG, [
            json.dumps({"seq": 3, "op": "use", "shard": None, "key": key,
                        "use_count": 4, "last_used_tick": 9}),
            json.dumps({"seq": 4, "op": "remove", "shard": None, "key": key}),
            json.dumps({"seq": 5, "op": "frobnicate", "shard": None}),
        ])
        reloaded = load_repository(dfs)
        assert len(reloaded) == 0
        assert reloaded.loader_report.dangling_records == 3
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
        starts from the compacted sections, not the full history."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        before = [live.insert(fabricated_entry(i)) for i in range(4)]
        live.remove(before[0])
        log.compact()
        assert segment_lines(dfs) == []
        live.insert(fabricated_entry(10))
        live.record_use(before[2], tick=7)
        log.flush()
        assert log.log_records == 2
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.replayed_records == 2

    def test_crash_between_section_rewrite_and_truncation(self):
        """Compaction re-points the manifest before truncating the dirty
        segments; a crash in between leaves pre-compaction records,
        which replay must skip as stale (their seq is covered by the new
        section's base_seq watermark)."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        live.record_use(entries[0], tick=2)
        log.flush()
        old_segment = dfs.read_lines(SEG)
        log.compact()
        # Simulate the crash: the old segment contents come back.
        dfs.write_lines(SEG, old_segment, overwrite=True)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.stale_records == len(old_segment)
        assert reloaded.loader_report.replayed_records == 0

    def test_crash_between_one_shards_rewrite_and_truncation(self):
        """The same crash window, per shard: only the compacted shard's
        segment reverts, and only its records are stale — the clean
        shards' records still replay."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(live)
        for index in range(12):
            live.insert(fabricated_entry(index, pool=8))
        target = live.shard_id_of(live.scan()[0])
        log.flush()
        old_segment = dfs.read_lines(log.segment_path(target))
        assert old_segment  # the target shard really has records
        log.compact([shard_label(target)])
        dfs.write_lines(log.segment_path(target), old_segment, overwrite=True)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.stale_records == len(old_segment)
        assert reloaded.loader_report.replayed_records > 0  # clean shards

    def test_unreferenced_section_generation_is_ignored(self):
        """A crash between writing a new section file and the manifest
        swap leaves an unreferenced generation on disk: the loader must
        ignore it, and the next compaction collects it."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        log.compact()
        orphan = f"{SNAPSHOT}.sec-{CATCHALL_LABEL}.g999"
        dfs.write_lines(orphan, ["{bogus"])
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        live.record_use(entries[0], tick=3)
        log.compact()
        assert not dfs.exists(orphan)  # collected

    def test_nonresumable_attach_compaction_crash_leaves_no_fresh_ghosts(self):
        """Regression: a non-resumable attach over existing durable
        state must compact with watermarks above every sequence already
        in the old segments — otherwise a crash between the manifest
        swap and the segment truncation leaves the era-1 records
        replaying as fresh mutations on top of sections that never saw
        them."""
        dfs = DistributedFileSystem()
        era1 = Repository()
        log1 = RepositoryLog(dfs).attach(era1)
        for index in range(3):
            era1.insert(fabricated_entry(index))
        log1.flush()  # the catch-all segment holds seqs 1..3
        log1.close()
        old_segment = dfs.read_lines(SEG)

        # A new process attaches a *non-empty* in-memory repository at
        # the same path (bypassing the empty-repo wipe guard); attach
        # compacts. Simulate a crash between the manifest swap and the
        # segment truncation by restoring the era-1 segment afterwards.
        era2 = Repository()
        era2.insert(fabricated_entry(10))
        RepositoryLog(dfs).attach(era2)
        dfs.write_lines(SEG, old_segment, overwrite=True)

        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(era2)
        assert len(reloaded) == 1  # the era-1 records were stale, not fresh
        assert reloaded.loader_report.stale_records == len(old_segment)

    def test_missing_segment_file_loads_sections_alone(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        log.compact()
        dfs.delete_if_exists(SEG)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_direct_save_snapshot_subsumes_segments(self):
        """Regression: a bare save_snapshot() call (the legacy v3
        writer) next to non-empty v4 segments must not leave them behind
        — their records are already in the snapshot and the v3 loader
        would never see them."""
        from repro.restore import save_snapshot

        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()  # the insert is now in the catch-all segment
        save_snapshot(live, dfs)  # defaults: base_seq=0, fresh keys
        assert segment_files(dfs) == []
        assert dfs.list_files(prefix=f"{SNAPSHOT}.sec-") == []
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.format_version == LOG_MANIFEST_VERSION
        assert len(reloaded) == 1
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_truncated_section_rejected(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for i in range(3):
            live.insert(fabricated_entry(i))
        log.compact()
        [section_file] = dfs.list_files(prefix=f"{SNAPSHOT}.sec-")
        dfs.write_lines(section_file, dfs.read_lines(section_file)[:-1],
                        overwrite=True)
        with pytest.raises(RepositoryError, match="truncated"):
            load_repository(dfs)

    def test_recorded_order_referencing_unknown_key_rejected(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        log.compact()
        manifest = manifest_of(dfs)
        order_log = manifest["order_log"]
        dfs.write_lines(order_log, [json.dumps(
            {"gen": manifest["order_gen"], "full": [["k999", 0]]})],
            overwrite=True)
        with pytest.raises(RepositoryError, match="scan order references"):
            load_repository(dfs)


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
        seqs = [record["seq"] for record in all_segment_records(dfs)]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_replay_state_is_single_use(self):
        """Regression: the loader's replay state describes the
        repository *as loaded*. A second attach — after mutations were
        logged and compacted through another RepositoryLog — must not
        rewind the sequence counter to load time, or records appended
        afterwards would sit at or below the on-DFS watermarks and be
        silently skipped as stale on the next reload."""
        dfs = DistributedFileSystem()
        live = Repository()
        first = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        first.flush()
        first.close()

        reloaded = load_repository(dfs)
        second = RepositoryLog(dfs).attach(reloaded)
        # Mutate and compact: the on-DFS watermarks move past load time.
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

    def test_attach_into_different_shard_count_heals(self):
        """A v4 file loaded into an explicit target with a different
        shard layout cannot resume the old sections — attach must
        rewrite the snapshot under the live layout instead of appending
        records the old manifest's sections cannot cover."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=2)
        log = RepositoryLog(dfs).attach(live)
        for index in range(4):
            live.insert(fabricated_entry(index))
        log.checkpoint()
        log.close()

        migrated = load_repository(
            dfs, repository=ShardedRepository(num_shards=8))
        RepositoryLog(dfs).attach(migrated)
        manifest = manifest_of(dfs)
        assert manifest["num_shards"] == 8
        reloaded = load_repository(dfs)
        assert isinstance(reloaded, ShardedRepository)
        assert reloaded.num_shards == 8
        assert entry_fingerprints(reloaded) == entry_fingerprints(migrated)

    def test_reattach_after_torn_tail_heals_the_segments(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        log.flush()
        dfs.append_lines(SEG, ['{"seq": 99, "op'])
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.torn_tail_dropped == 1
        RepositoryLog(dfs).attach(reloaded)
        # The torn garbage is gone: attach compacted sections + segments.
        assert dfs.read_lines(SEG) == []
        healed = load_repository(dfs)
        assert entry_fingerprints(healed) == entry_fingerprints(live)


class TestMigration:
    def _entries(self, repo, count=5):
        for index in range(count):
            repo.insert(fabricated_entry(index))
        return repo

    def test_v1_to_v5_migration(self):
        dfs = DistributedFileSystem()
        plain = self._entries(Repository())
        save_repository(plain, dfs, SNAPSHOT)  # v1: no manifest line
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.format_version == 1
        RepositoryLog(dfs).attach(reloaded)
        # Attach upgraded the file to a v5 manifest + sections.
        manifest = manifest_of(dfs)
        assert manifest[MANIFEST_KEY] == DELTA_MANIFEST_VERSION
        assert manifest["num_shards"] == 0
        migrated = load_repository(dfs)
        assert type(migrated) is Repository
        assert entry_fingerprints(migrated) == entry_fingerprints(plain)

    def test_v2_to_v5_migration(self):
        dfs = DistributedFileSystem()
        sharded = self._entries(ShardedRepository(num_shards=4))
        save_repository(sharded, dfs, SNAPSHOT)  # v2 manifest
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.format_version == 2
        log = RepositoryLog(dfs).attach(reloaded)
        manifest = manifest_of(dfs)
        assert manifest[MANIFEST_KEY] == DELTA_MANIFEST_VERSION
        assert manifest["num_shards"] == 4
        # Mutations after the migration land in the segments and replay.
        reloaded.insert(fabricated_entry(30))
        log.flush()
        migrated = load_repository(dfs)
        assert isinstance(migrated, ShardedRepository)
        assert migrated.num_shards == 4
        assert entry_fingerprints(migrated) == entry_fingerprints(reloaded)

    def _v3_state(self, dfs, torn_tail=False):
        """Fabricate a realistic v3 deployment: a snapshot written by
        the legacy writer plus a single change log holding records the
        snapshot does not cover (and optionally a torn final line)."""
        from repro.restore import save_snapshot

        sharded = ShardedRepository(num_shards=4)
        for index in range(6):
            sharded.insert(fabricated_entry(index))
        keys = {entry.entry_id: f"k{position}"
                for position, entry in enumerate(sharded.scan())}
        save_snapshot(sharded, dfs, SNAPSHOT, base_seq=6, keys=keys)
        # Post-snapshot history in the v3 single log: an insert, a
        # use-stamp, and a removal.
        extra = fabricated_entry(40)
        target = sharded.scan()[2]
        victim = sharded.scan()[4]
        log_lines = [
            json.dumps({"seq": 7, "op": "insert", "shard": None, "key": "k9",
                        "entry": entry_to_json(extra)}, sort_keys=True),
            json.dumps({"seq": 8, "op": "use", "shard": None,
                        "key": keys[target.entry_id], "use_count": 3,
                        "last_used_tick": 11}, sort_keys=True),
            json.dumps({"seq": 9, "op": "remove", "shard": None,
                        "key": keys[victim.entry_id]}, sort_keys=True),
        ]
        if torn_tail:
            log_lines.append('{"seq": 10, "op": "ins')
        dfs.write_lines(LOG_BASE, log_lines, overwrite=True)
        # Mirror the log on the in-memory twin for the equality checks.
        sharded.insert(extra)
        target.stats.use_count = 3
        target.stats.last_used_tick = 11
        sharded.remove(victim)
        return sharded

    def test_v3_single_log_splits_into_segments_losslessly(self):
        """The PR 5 migration bar: a v3 snapshot+log attaches to a
        segmented RepositoryLog and splits into per-shard sections and
        segments with scan order, statistics, and match decisions
        bit-identical — and the v3 single log is gone afterwards."""
        dfs = DistributedFileSystem()
        twin = self._v3_state(dfs)
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.format_version == LOG_MANIFEST_VERSION
        assert entry_fingerprints(reloaded) == entry_fingerprints(twin)

        log = RepositoryLog(dfs).attach(reloaded)  # migrates on attach
        assert not dfs.exists(LOG_BASE)  # the single v3 log is subsumed
        manifest = manifest_of(dfs)
        assert manifest[MANIFEST_KEY] == DELTA_MANIFEST_VERSION
        assert manifest["num_shards"] == 4
        migrated = load_repository(dfs)
        assert migrated.loader_report.format_version == \
            DELTA_MANIFEST_VERSION
        assert entry_fingerprints(migrated) == entry_fingerprints(twin)
        assert [[e.output_path for e in shard]
                for shard in migrated.partitions()] == \
            [[e.output_path for e in shard] for shard in twin.partitions()]
        # Match decisions are unchanged: every probe sees the same
        # candidate sequence as the pre-migration twin.
        for index in range(4):
            probe = fabricated_entry(50 + index).plan
            assert [e.output_path for e in migrated.match_candidates(probe)] \
                == [e.output_path for e in twin.match_candidates(probe)]
        # And post-migration mutations keep flowing into the segments
        # (mutate the attached repository, then reload once more).
        reloaded.record_use(reloaded.scan()[0], tick=20)
        log.flush()
        final = load_repository(dfs)
        assert entry_fingerprints(final) == entry_fingerprints(reloaded)

    def test_v3_migration_tolerates_torn_tail(self):
        dfs = DistributedFileSystem()
        twin = self._v3_state(dfs, torn_tail=True)
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.torn_tail_dropped == 1
        assert entry_fingerprints(reloaded) == entry_fingerprints(twin)
        RepositoryLog(dfs).attach(reloaded)  # heals + migrates
        assert not dfs.exists(LOG_BASE)
        migrated = load_repository(dfs)
        assert migrated.loader_report.torn_tail_dropped == 0
        assert entry_fingerprints(migrated) == entry_fingerprints(twin)

    def test_repeat_compaction_never_rewrites_sections_in_place(self):
        """Regression: a healing compaction can run at an *unchanged*
        sequence number (e.g. an untracked mutation between load and
        attach). It must still write fresh section files — overwriting
        the generation the current manifest references would brick the
        restart if the process crashed before the manifest swap."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.compact()
        [referenced] = dfs.list_files(prefix=f"{SNAPSHOT}.sec-")
        before = dfs.read_lines(referenced)

        reloaded = load_repository(dfs)
        reloaded.insert(fabricated_entry(9))  # untracked: forces healing
        healing = RepositoryLog(dfs)
        # Fail the manifest swap mid-compaction: the crash window the
        # immutability guarantee exists for.
        original_write = dfs.write_lines

        def crashing_write(path, lines, overwrite=False):
            if path == SNAPSHOT:
                raise DfsError("simulated crash before the manifest swap")
            return original_write(path, lines, overwrite=overwrite)

        dfs.write_lines = crashing_write
        with pytest.raises(DfsError):
            healing.attach(reloaded)
        dfs.write_lines = original_write
        # The referenced generation is untouched, so the old manifest
        # still loads exactly the pre-crash state.
        assert dfs.read_lines(referenced) == before
        recovered = load_repository(dfs)
        assert len(recovered) == 3

    def test_v4_partial_load_into_prepopulated_target(self):
        """Parity with the v1-v3 loaders: loading into a pre-populated
        explicit target unions the entries and skips order pinning (the
        recorded order is not a permutation of the union) instead of
        failing as corrupt."""
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

    def test_v4_loads_into_explicit_target(self):
        """Cross-format migration works for v4 too: a v4 file written by
        a plain repository loads into a sharded target."""
        dfs = DistributedFileSystem()
        plain = self._entries(Repository())
        log = RepositoryLog(dfs).attach(plain)
        plain.insert(fabricated_entry(9))
        log.flush()
        migrated = load_repository(
            dfs, repository=ShardedRepository(num_shards=8))
        assert isinstance(migrated, ShardedRepository)
        assert [e.output_path for e in migrated.scan()] == \
            [e.output_path for e in plain.scan()]


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
        default-configured segmented RepositoryLog on the manager's
        DFS."""
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
        """Restart from manifest+segments: Q2 is still rewritten from
        Q1's logged registrations."""
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
                   for record in all_segment_records(system.dfs))

    def test_manager_ranker_recorded_in_snapshot_manifest(self):
        """The v4 manifest carries the same ranker provenance that
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
