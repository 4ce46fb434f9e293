"""Incremental repository persistence: per-shard segmented change logs.

The paper's repository is long-lived durable state ("Facebook stores the
result of any query ... for seven days"), yet :func:`save_repository`
rewrites the entire file on every checkpoint — O(repository) per save,
which defeats the production-scale goal once the repository holds
thousands of entries. :class:`RepositoryLog` makes the steady-state
checkpoint cost O(delta) — and, since the log is **segmented along the
shard layout**, the steady-state *compaction* cost O(dirty shards):

* it subscribes to the repository's **change-event channel**
  (``Repository.add_listener``) and turns every mutation — insert,
  remove, use-stamp — into one JSONL record tagged with a monotonic
  sequence number and the owning shard id;
* records are buffered per partition and :meth:`flush` appends each
  group to that shard's own **segment file** through
  :meth:`~repro.dfs.filesystem.DistributedFileSystem.append_lines`
  (which places blocks only for the new lines), so the per-checkpoint
  write is proportional to what changed since the last one;
* when one shard's segment outgrows its slice of the repository
  (``segment records / shard entries > compact_ratio``), :meth:`compact`
  amortizes it away **for that shard only**: the dirty shard's snapshot
  *section file* is rewritten (a fresh immutable generation), an
  O(changes) **order-delta** record is appended to the v5 order log
  (never the full global order — that was v4's last cross-shard write),
  the manifest is re-pointed, and just that shard's segment is
  truncated. Clean shards' sections are reused at the file level — a
  mutation burst confined to one of N shards compacts in O(n/N), not
  O(n).

Crash safety is positional, not transactional, per shard: new section
files land under *new* names, then the manifest swap makes them
authoritative, and only then are the dirty segments truncated. A crash
before the manifest swap leaves unreferenced section files (garbage,
collected by the next compaction); a crash after it leaves old segment
records at or below the new section's ``base_seq`` watermark — replay
skips them as stale. A crash mid-append leaves a torn final line in one
segment — replay drops it. Either way ``load_repository`` rebuilds
exactly the durable state, and a re-attached ``RepositoryLog`` resumes
from the loader's replay state (healing with a full compaction when the
files show crash damage). Use-stamps are logged as absolute counter
values, so replaying one twice converges instead of double-counting.

Entries are identified across restarts by **stable log keys** (the
``key`` field in section and segment records), assigned by this class on
insert — entry ids are process-local and re-minted on every load, so
remove/use records cannot reference them. All records of one entry
(insert, use-stamps, remove) land in one segment: the owning shard is a
pure function of the entry's loads, fixed for its lifetime.

Attaching to a repository loaded from a v1-v4 file migrates it: the
initial full compaction splits a single-file snapshot into per-shard
sections and segments (v1-v3), and moves a v4 manifest's embedded scan
order into the order log — losslessly either way (scan order,
statistics, and match decisions are bit-identical — the property suite
proves it).
"""

import json
import threading

from repro.common.errors import RepositoryError
from repro.restore.persistence import (
    DEFAULT_REPOSITORY_PATH,
    DELTA_MANIFEST_VERSION,
    encode_order_delta,
    entry_to_json,
    MANIFEST_KEY,
    order_log_path,
    order_log_prefix,
    read_manifest_line,
    section_file_path,
    section_file_prefix,
    segment_file_path,
    shard_label,
)

#: rebase threshold: once this many order records accumulate in the
#: current order log, the next compaction rewrites it as a single full
#: record (a fresh generation-named file) instead of appending another
#: delta — bounding both the file and the reload's replay chain. The
#: occasional O(repository) rebase write amortizes to O(1) per
#: compaction.
ORDER_REBASE_RECORDS = 64


class RepositoryLog:
    """Segmented append-only change log + dirty-only compaction.

    Parameters:

    * ``dfs`` — the file system holding manifest, sections and segments;
    * ``path`` — the manifest path (shared with ``load_repository``);
      section files live at ``<path>.sec-<label>.g<generation>``;
    * ``log_path`` — the segment *base* path (default ``<path>.log``):
      shard ``s``'s segment is ``<log_path>.<s>``, the catch-all's (and
      a plain repository's single partition's) is ``<log_path>.catchall``;
    * ``compact_ratio`` — per-shard compaction threshold: a shard is
      *dirty* when its segment records per owned entry exceed this
      (≤ 0 is rejected; large values effectively disable compaction,
      which the ablation benchmark uses to isolate the append cost);
    * ``ranker`` — deployment metadata recorded in the manifest, exactly
      as ``save_repository(..., ranker=...)`` records it.

    Call :meth:`attach` to bind a repository (the indexed
    :class:`~repro.restore.repository.Repository` or the sharded
    subclass — the frozen seed baseline has no change-event channel),
    then :meth:`checkpoint` whenever the on-DFS state should catch up
    with the live one; :class:`~repro.restore.manager.ReStore` does this
    every ``checkpoint_every`` submits.
    """

    #: Locking contract, enforced by `repro.tools.statlint`
    #: (``lock-discipline``): every piece of log-side checkpoint state
    #: is only touched inside ``with self._mutex:``, so event intake and
    #: flush/compact stay atomic with respect to each other.
    #: ``*_locked`` methods assert "caller holds the mutex".
    GUARDED_BY = {"_seq": "_mutex", "_next_key": "_mutex",
                  "_keys": "_mutex", "_pending": "_mutex",
                  "_segment_records": "_mutex", "_sections": "_mutex",
                  "_order_log": "_mutex",
                  "_last_recorded_order": "_mutex",
                  "_order_records": "_mutex", "_generation": "_mutex"}

    def __init__(self, dfs, path=DEFAULT_REPOSITORY_PATH, log_path=None,
                 compact_ratio=1.0, ranker=None):
        if compact_ratio <= 0:
            raise ValueError(
                f"compact_ratio must be positive, got {compact_ratio}")
        self.dfs = dfs
        self.path = path
        self.log_path = log_path if log_path is not None else f"{path}.log"
        self.compact_ratio = compact_ratio
        self.ranker = ranker
        self.repository = None
        # Event intake and checkpointing share one re-entrant mutex.
        # Delivery order through the change-event channel IS the durable
        # order — the lock only makes each record's intake (seq
        # assignment + buffer append) and each flush/compact atomic, it
        # never reorders. Re-entrant because checkpoint() nests
        # compact()/flush().
        self._mutex = threading.RLock()
        self._seq = 0                # last sequence number assigned
        self._next_key = 0           # stable-key allocator
        self._keys = {}              # entry_id -> stable log key
        self._pending = {}           # label -> serialized records not on DFS
        self._segment_records = {}   # label -> complete records in its segment
        self._sections = {}          # label -> manifest section descriptor
        # v5 order-log state: the file the current manifest points at,
        # the scan order as last made durable there (the delta base),
        # and how many records the file holds (the rebase trigger).
        self._order_log = None
        self._last_recorded_order = None
        self._order_records = 0
        # Section-file generation counter. Strictly monotonic and
        # *decoupled from the sequence counter*: a healing or repeated
        # compaction can run at an unchanged seq, and naming files by
        # seq alone would overwrite the currently-referenced section in
        # place — a crash before the manifest swap would then brick the
        # restart. attach() seeds it above every generation on disk.
        self._generation = 0

    # Lifecycle --------------------------------------------------------------

    def attach(self, repository):
        """Bind ``repository`` and subscribe to its change events.

        A repository freshly rebuilt by ``load_repository`` from this
        manifest resumes seamlessly: sequence numbers, stable keys,
        per-segment record counts, the clean sections' file pointers,
        and the order log's delta base continue from the loader's
        replay state. Anything else — a live repository, one loaded
        from a v1-v4 file, or a reload whose files had crash damage
        (torn tails, stale records, orphan order records) — is
        checkpointed immediately: attach writes a fresh full v5
        snapshot (every section, a rebased order log) and truncates
        every segment. That initial compaction is also the v1-v4 → v5
        migration path.
        """
        if self.repository is not None:
            if self.repository is repository:
                return self
            raise RepositoryError(
                "this RepositoryLog is already attached to a different "
                "repository; detach() it first")
        if not hasattr(repository, "add_listener"):
            # Checked before any state mutates, so a failed attach
            # leaves the log reusable.
            raise RepositoryError(
                f"{type(repository).__name__} has no change-event "
                f"channel (add_listener); the frozen seed baseline "
                f"cannot drive a RepositoryLog")
        if getattr(repository, "persistence_log", None) is not None:
            # Two logs on one repository would buffer every mutation
            # twice (one of them usually forever) and, at shared paths,
            # interleave records with independent sequence counters.
            raise RepositoryError(
                "repository already has an attached RepositoryLog; "
                "detach()/close() it first")
        loaded_from_here = (
            getattr(repository, "loader_report", None) is not None
            and repository.loader_report.snapshot_path == self.path
            # Identity, not just a matching path string: a load from a
            # *different* DFS must not vouch for this one (an empty
            # repository loaded from fresh dfs_A would otherwise bypass
            # the wipe guard and compact over dfs_B's durable state).
            and getattr(repository.loader_report, "dfs", None) is self.dfs
            # And a file must actually have been read: a load that found
            # nothing (e.g. the manifest was deleted while segments
            # still hold records) vouches for nothing — the wipe
            # guard must still protect the segments.
            and repository.loader_report.format_version is not None)
        probe = None  # lazy: the clean-resume path never needs it
        if len(repository) == 0 and not loaded_from_here:
            probe = self._probe_durable_state()
            if probe[0]:
                # Almost certainly a restart that forgot
                # load_repository(): attaching would compact the empty
                # live state over the snapshot and silently wipe it. (A
                # repository genuinely emptied after loading from this
                # path is exempt — its loader report vouches for it.)
                raise RepositoryError(
                    f"refusing to attach an empty repository over the "
                    f"snapshot at {self.path!r}, which holds {probe[0]} "
                    f"record(s): the initial compaction would wipe it. "
                    f"Load it first (load_repository) or delete the "
                    f"stale snapshot to really start fresh")
        self.repository = repository
        # The whole rebind holds the mutex: add_listener() below makes
        # the change-event channel live.
        with self._mutex:
            self._bind_locked(repository, probe)
        return self

    def _bind_locked(self, repository, probe):
        # A fresh binding: records buffered (and keys assigned) for a
        # previously attached repository describe state this one does
        # not share — flushing them into the new segments would inject
        # ghost mutations and reused sequence numbers (detach() warns to
        # flush/close first if they were wanted).
        self._pending = {}
        self._keys = {}
        self._segment_records = {}
        self._sections = {}
        self._order_log = None
        self._last_recorded_order = None
        self._order_records = 0
        report = getattr(repository, "loader_report", None)
        resumable = (
            report is not None
            and report.format_version == DELTA_MANIFEST_VERSION
            and report.snapshot_path == self.path
            and report.log_path == self.log_path
            and getattr(report, "dfs", None) is self.dfs
            # The replay state is single-use: it describes the repository
            # as loaded. A later attach (after mutations possibly logged
            # and compacted by another RepositoryLog) must not rewind the
            # sequence counter to load time — records appended after a
            # rewind would sit at or below the on-DFS watermarks and be
            # silently skipped as stale on the next reload.
            and not report.replay_state_consumed
            and self.dfs.exists(self.path)
            # The on-DFS partition layout must be the live one: a v4
            # file loaded into a repository with a different shard count
            # would tag events with shard ids its sections do not cover.
            and self._layout_matches(report)
        )
        if report is not None:
            report.replay_state_consumed = True
        untracked_mutations = False
        if resumable:
            self._seq = report.last_seq
            live_ids = {entry.entry_id for entry in repository}
            self._keys = {entry_id: key
                          for entry_id, key in report.keys.items()
                          if entry_id in live_ids}
            # Mutations applied between load and attach happened before
            # the listener subscribed, so the log never saw them: a
            # removal leaves a loader key with no live entry, a
            # use-stamp leaves live stats differing from their values at
            # load time. Either forces the healing compaction below
            # (inserts are caught by the unkeyed check).
            untracked_mutations = (
                len(self._keys) != len(report.keys)
                or any((entry.stats.use_count, entry.stats.last_used_tick)
                       != report.use_stats.get(entry.entry_id)
                       for entry in repository))
        self._next_key = 1 + max(
            (_key_index(key) for key in self._keys.values()), default=-1)
        unkeyed = [entry for entry in repository
                   if entry.entry_id not in self._keys]
        for entry in unkeyed:
            self._assign_key_locked(entry)
        repository.add_listener(self._on_event)
        repository.persistence_log = self
        self._generation = 1 + max(
            (_section_generation(file)
             for prefix in (section_file_prefix(self.path),
                            order_log_prefix(self.path))
             for file in self.dfs.list_files(prefix=prefix)), default=-1)
        clean = (resumable
                 and not unkeyed
                 and not untracked_mutations
                 and report.torn_tail_dropped == 0
                 and report.stale_records == 0
                 and report.dangling_records == 0
                 # Orphan order records (a compaction crashed between
                 # its order-log append and its manifest swap) sit in
                 # the file this log would keep appending to; resuming
                 # over them would interleave live generations with the
                 # dead one's. Heal with a rebase instead.
                 and report.orphan_order_records == 0)
        if clean:
            self._segment_records = dict(report.segment_records)
            self._sections = {label: dict(state)
                              for label, state in report.section_state.items()}
            self._order_log = report.order_log_path
            self._last_recorded_order = [
                list(pair) for pair in report.recorded_order or ()]
            self._order_records = report.order_records
            # Delta records carry generations above the file's name
            # (they are appended between rebases): the counter must
            # clear the manifest's authoritative generation too, or a
            # fresh compaction could reuse a generation already present
            # in the order log.
            self._generation = max(self._generation, report.order_gen + 1)
        else:
            # The healing compaction must not hand out watermarks below
            # sequence numbers already durable at this path: if the
            # compaction crashes between the manifest swap and the
            # segment truncation, leftover records above the watermark
            # would replay as fresh mutations on top of sections that
            # never saw them.
            if probe is None:
                probe = self._probe_durable_state()
            self._seq = max(self._seq, probe[1])
            self.compact()

    def _layout_matches(self, report):
        """Does the loaded manifest's partition layout (labels and
        segment paths) match what this log would write for the live
        repository?"""
        expected = {shard_label(shard_id)
                    for shard_id in self.repository.shard_sizes()}
        if set(report.section_state) != expected:
            return False
        return all(state.get("segment") == self._segment_path(label)
                   for label, state in report.section_state.items())

    def _probe_durable_state(self):
        """One pass over the durable files at this path, returning
        ``(records, max_seq)``: how many records they hold (snapshot
        entries plus outstanding segment lines — state can live entirely
        in the segments before the first compaction; conservative,
        possibly-stale lines included) and the highest sequence number
        among the manifest's watermarks and the segment records
        (unparseable lines, e.g. a torn tail, are skipped). Runs once
        per :meth:`attach` — the wipe guard needs the count, the
        non-resumable compaction needs the sequence floor."""
        records = 0
        top = 0
        if self.dfs.exists(self.path):
            manifest = read_manifest_line(self.dfs, self.path)
            if manifest is not None:
                num_lines = self.dfs.status(self.path).num_lines
                records += manifest.get("entries", max(0, num_lines - 1))
                for field in ("base_seq", "last_seq"):
                    value = manifest.get(field, 0)
                    if isinstance(value, int):
                        top = max(top, value)
                for section in manifest.get("sections", ()):
                    if (isinstance(section, dict)
                            and isinstance(section.get("base_seq"), int)):
                        top = max(top, section["base_seq"])
            else:
                # v1 (or unreadable first line): one entry per line.
                records += self.dfs.status(self.path).num_lines
        # The legacy single v3 log plus every v4 segment under the base.
        log_files = set(self.dfs.list_files(prefix=f"{self.log_path}."))
        if self.dfs.exists(self.log_path):
            log_files.add(self.log_path)
        for log_file in sorted(log_files):
            log_lines = self.dfs.read_lines(log_file)
            records += len(log_lines)
            for line in log_lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and isinstance(record.get("seq"),
                                                           int):
                    top = max(top, record["seq"])
        return records, top

    def detach(self):
        """Unsubscribe from the repository (pending records are kept;
        flush or compact first if they must reach the DFS)."""
        if self.repository is not None:
            self.repository.remove_listener(self._on_event)
            if getattr(self.repository, "persistence_log", None) is self:
                self.repository.persistence_log = None
            self.repository = None

    def close(self):
        """Flush pending deltas, then detach."""
        if self.repository is not None:
            self.flush()
            self.detach()

    def _require_attached(self, operation):
        """Checkpointing needs the live repository (shard sizes, members,
        scan order); fail with a clean error instead of the bare
        AttributeError an unattached ``self.repository`` would raise."""
        if self.repository is None:
            raise RepositoryError(
                f"cannot {operation}(): this RepositoryLog is not "
                f"attached to a repository (call attach() first)")

    # Change events ----------------------------------------------------------

    def _assign_key_locked(self, entry):
        key = f"k{self._next_key}"
        self._next_key += 1
        self._keys[entry.entry_id] = key
        return key

    def _on_event(self, op, entry):
        with self._mutex:
            self._intake_locked(op, entry)

    def _intake_locked(self, op, entry):
        shard_id = self.repository.shard_id_of(entry)
        record = {"op": op, "shard": shard_id}
        if op == "insert":
            record["key"] = self._assign_key_locked(entry)
            record["entry"] = entry_to_json(entry)
        elif op == "remove":
            key = self._keys.pop(entry.entry_id, None)
            if key is None:
                # The entry was never keyed, so nothing durable
                # references it: a '"key": null' remove record would be
                # pure noise the loader could only drop. Skip it — and
                # skip *before* taking a sequence number, so the durable
                # stream has no phantom gap.
                return
            record["key"] = key
        elif op == "use":
            key = self._keys.get(entry.entry_id)
            if key is None:
                return  # same: an unkeyed use-stamp references nothing
            record["key"] = key
            # Absolute values, not increments: replay is idempotent.
            record["use_count"] = entry.stats.use_count
            record["last_used_tick"] = entry.stats.last_used_tick
        else:
            return  # an event this release does not persist
        self._seq += 1
        record["seq"] = self._seq
        self._pending.setdefault(shard_label(shard_id), []).append(
            json.dumps(record, sort_keys=True))

    # Checkpointing ----------------------------------------------------------

    def segment_path(self, shard_id):
        """The segment file holding ``shard_id``'s change records."""
        return self._segment_path(shard_label(shard_id))

    def _segment_path(self, label):
        return segment_file_path(self.log_path, label)

    @property
    def pending_records(self):
        """Buffered change records not yet appended to any segment."""
        with self._mutex:
            return sum(len(lines) for lines in self._pending.values())

    @property
    def log_records(self):
        """Complete change records across all DFS segments."""
        with self._mutex:
            return sum(self._segment_records.values())

    def segment_record_counts(self):
        """Complete on-DFS records per partition label (observability)."""
        with self._mutex:
            return {label: count
                    for label, count in sorted(self._segment_records.items())
                    if count}

    def log_ratio(self):
        """(on-DFS + pending) change records per repository entry,
        across all segments (0 entries count as 1; an unattached log
        reports over the empty repository). Compaction triggers on the
        *per-shard* ratios — see :meth:`dirty_shards` — this global view
        is kept for reporting."""
        size = len(self.repository) if self.repository is not None else 0
        return (self.log_records + self.pending_records) / max(1, size)

    def _sizes_by_label(self):
        if self.repository is None:
            return {}
        return {shard_label(shard_id): size
                for shard_id, size in self.repository.shard_sizes().items()}

    def dirty_shards(self):
        """Labels of partitions whose segments outgrew their slice:
        (segment + pending records) per owned entry above
        ``compact_ratio``. These are the shards :meth:`checkpoint` will
        compact — the others' sections are reused untouched."""
        sizes = self._sizes_by_label()
        dirty = []
        with self._mutex:
            for label in sorted(set(self._segment_records)
                                | set(self._pending)):
                records = (self._segment_records.get(label, 0)
                           + len(self._pending.get(label, ())))
                if records > 0 and (records / max(1, sizes.get(label, 0))
                                    > self.compact_ratio):
                    dirty.append(label)
        return dirty

    def should_compact(self):
        return bool(self.dirty_shards())

    def flush(self):
        """Append pending change records to their segments; O(delta),
        one tail-block append per touched partition."""
        with self._mutex:
            return self._flush_labels_locked(sorted(self._pending))

    def _flush_labels_locked(self, labels):
        appended = 0
        for label in labels:
            lines = self._pending.get(label)
            if not lines:
                continue
            self.dfs.append_lines(self._segment_path(label), lines)
            self._segment_records[label] = (
                self._segment_records.get(label, 0) + len(lines))
            # Cleared per label as soon as its append lands, so a
            # failure on a later segment cannot double-append this one.
            self._pending[label] = []
            appended += len(lines)
        self._pending = {label: lines
                         for label, lines in self._pending.items() if lines}
        return appended

    def checkpoint(self):
        """Bring the on-DFS state up to the live repository.

        Appends the pending deltas — except for partitions whose
        segments outgrew the ``compact_ratio`` threshold, which are
        compacted instead (their pending deltas are subsumed by the
        fresh section rewrite). Returns ``{"appended": n,
        "compacted": bool, "compacted_shards": [labels]}``; ``appended``
        counts every pending record made durable either way.
        """
        self._require_attached("checkpoint")
        with self._mutex:
            dirty = self.dirty_shards()
            if dirty:
                durable = self.pending_records
                self.compact(dirty)
                return {"appended": durable, "compacted": True,
                        "compacted_shards": dirty}
            return {"appended": self.flush(), "compacted": False,
                    "compacted_shards": []}

    def compact(self, shards=None):
        """Streaming snapshot rewrite of ``shards`` (labels; default:
        every partition) + truncation of just those shards' segments.

        Per dirty shard, in crash-safe order:

        1. clean shards' pending records are flushed first, so every
           record at or below the new manifest's ``last_seq`` is durable
           before the manifest references that sequence number;
        2. each compacted shard's entries are rewritten into a **new**
           generation-suffixed section file — never in place, so a crash
           here leaves the old manifest's files intact (the new ones are
           unreferenced garbage, collected by the next compaction);
        3. the scan-order record lands in the order log — an O(changes)
           delta appended to the current file for a dirty-only
           compaction, a full record in a fresh generation-named file on
           rebase — a crash here leaves an orphan record/file the loader
           skips;
        4. the manifest swap makes the new sections (and, via
           ``order_gen``, the new order record) authoritative;
        5. only then are the compacted shards' segments truncated — a
           crash between 4 and 5 leaves records at or below the new
           sections' ``base_seq``, skipped as stale on replay;
        6. superseded section and order-log generations (and a legacy v3
           single log) are deleted.

        The cost is O(entries of the compacted shards) serialization
        plus an O(changes since the last compaction) scan-order record
        (a delta appended to the v5 order log; full compactions rebase
        the order log to a single full record).
        """
        self._require_attached("compact")
        with self._mutex:
            return self._compact_locked(shards)

    def _compact_locked(self, shards):
        repository = self.repository
        labels = {shard_label(shard_id): shard_id
                  for shard_id in repository.shard_sizes()}
        if shards is None:
            targets = dict(labels)
        else:
            unknown = sorted(set(shards) - set(labels))
            if unknown:
                raise RepositoryError(
                    f"cannot compact unknown partition(s) {unknown}; "
                    f"this repository has {sorted(labels)}")
            targets = {label: labels[label] for label in shards}
        for label, shard_id in labels.items():
            # A partition with no recorded section state must be
            # rewritten too, or the new manifest could not reference it.
            if label not in targets and label not in self._sections:
                targets[label] = shard_id
        self._flush_labels_locked([label for label in sorted(self._pending)
                                   if label not in targets])
        watermark = self._seq
        # A fresh generation per compaction, even at an unchanged seq:
        # the referenced section files must never be rewritten in place.
        generation = self._generation
        self._generation += 1
        rank = repository.scan_rank()
        sections = {}
        for label in sorted(labels):
            if label not in targets:
                sections[label] = self._sections[label]
                continue
            members = sorted(repository.shard_members(labels[label]),
                             key=lambda entry: rank[entry.entry_id])
            file = None
            if members:
                file = section_file_path(self.path, label, generation)
                lines = [json.dumps({"position": rank[entry.entry_id],
                                     "key": self._keys[entry.entry_id],
                                     "entry": entry_to_json(entry)},
                                    sort_keys=True)
                         for entry in members]
                self.dfs.write_lines(file, lines, overwrite=True)
            sections[label] = {"shard": labels[label], "file": file,
                               "entries": len(members),
                               "base_seq": watermark,
                               "segment": self._segment_path(label)}
        order = [[self._keys[entry.entry_id], entry._sequence]
                 for entry in repository.scan()]
        # The scan-order record: a delta against the last durable order
        # when only dirty shards compacted (O(changes) appended to the
        # current order log), a full record in a *fresh* generation-named
        # file otherwise — full compactions, unexpressible deltas
        # (survivors moved), and periodic rebases that bound the replay
        # chain. Appended/written *before* the manifest swap: a crash in
        # between leaves an orphan record (gen above the manifest's
        # order_gen) that the loader skips and the next attach heals.
        delta = None
        if (set(targets) != set(labels)
                and self._order_log is not None
                and self._last_recorded_order is not None
                and self._order_records < ORDER_REBASE_RECORDS):
            delta = encode_order_delta(self._last_recorded_order, order)
        if delta is not None:
            order_log = self._order_log
            self.dfs.append_lines(order_log, [json.dumps(
                {"gen": generation, **delta}, sort_keys=True)])
            order_records = self._order_records + 1
        else:
            order_log = order_log_path(self.path, generation)
            self.dfs.write_lines(order_log, [json.dumps(
                {"gen": generation, "full": order}, sort_keys=True)],
                overwrite=True)
            order_records = 1
        header = {MANIFEST_KEY: DELTA_MANIFEST_VERSION,
                  "num_shards": getattr(repository, "num_shards", 0),
                  "entries": len(repository),
                  "last_seq": watermark,
                  "log": self.log_path,
                  "order_log": order_log,
                  "order_gen": generation,
                  "sections": [sections[label] for label in sorted(sections)]}
        ranker_name = getattr(self.ranker, "name", self.ranker)
        if ranker_name is not None:
            header["ranker"] = ranker_name
        self.dfs.write_lines(self.path, [json.dumps(header, sort_keys=True)],
                             overwrite=True)
        for label in sorted(targets):
            segment = sections[label]["segment"]
            if self.dfs.exists(segment):
                self.dfs.write_lines(segment, [], overwrite=True)
        # Only now are the buffered records subsumed by sections that
        # actually landed — a failed write must leave them pending, or a
        # caller that catches the error and retries would silently lose
        # those mutations.
        for label in targets:
            self._pending.pop(label, None)
            self._segment_records[label] = 0
        self._sections = sections
        self._order_log = order_log
        self._last_recorded_order = order
        self._order_records = order_records
        referenced = {state["file"] for state in sections.values()
                      if state["file"] is not None}
        for old in self.dfs.list_files(prefix=section_file_prefix(self.path)):
            if old not in referenced:
                self.dfs.delete_if_exists(old)
        for old in self.dfs.list_files(prefix=order_log_prefix(self.path)):
            if old != order_log:
                self.dfs.delete_if_exists(old)
        # A legacy single-file v3 log at the base path is fully subsumed
        # by the sections (this is the v3 -> v4 migration tail).
        self.dfs.delete_if_exists(self.log_path)
        return sorted(targets)

    def describe(self):
        with self._mutex:
            state = ("unattached" if self.repository is None
                     else f"seq {self._seq}")
            dirty = ", ".join(self.dirty_shards()) or "none"
            return (
                f"RepositoryLog[{self.path} + {self.log_path}.*]: "
                f"{state}, {self.log_records} logged record(s) across "
                f"{sum(1 for count in self._segment_records.values() if count)} "
                f"segment(s), {self.pending_records} pending, "
                f"ratio {self.log_ratio():.2f}/{self.compact_ratio}, "
                f"dirty: {dirty}"
            )

    def __repr__(self):
        return f"<{self.describe()}>"


def _section_generation(file):
    """The integer generation suffix of a section file name
    (``"....g17"`` → 17); unparseable names count as -1 so the
    allocator simply skips past them."""
    _, _, suffix = file.rpartition(".g")
    if suffix.isdigit():
        return int(suffix)
    return -1


def _key_index(key):
    """The integer suffix of a stable log key (``"k17"`` → 17). Keys this
    class did not mint (e.g. a snapshot written directly through
    ``save_snapshot`` uses ``"s<position>"`` fallbacks) count as -1: they
    live in a different prefix, so the allocator cannot collide with
    them and need not skip past them."""
    if isinstance(key, str) and key[:1] == "k" and key[1:].isdigit():
        return int(key[1:])
    return -1
