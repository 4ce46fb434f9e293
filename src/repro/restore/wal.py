"""Incremental repository persistence: one append-only change log.

:func:`~repro.restore.persistence.save_repository` rewrites the whole
repository on every save — O(repository) per checkpoint.
:class:`RepositoryLog` makes the steady-state checkpoint O(delta): it
subscribes to the repository's change-event channel
(``Repository.add_listener``), turns every insert, remove and use-stamp
into one JSONL record with a monotonic sequence number, and
:meth:`~RepositoryLog.flush` appends the buffered records to the log
(``DistributedFileSystem.append_lines`` places blocks only for the new
lines). When ``(log + pending records) / entries`` exceeds
``compact_ratio``, :meth:`~RepositoryLog.compact` swaps in a fresh
snapshot and truncates the log.

Crash safety is positional: the snapshot lands as one atomic
``write_lines(..., overwrite=True)`` swap *before* the log is
truncated, so a crash in between leaves records at or below the new
``base_seq``, which replay skips as stale; a crash mid-append leaves a
torn final line, which replay drops. Use-stamps are absolute values, so
replaying one twice converges. Entries are named across restarts by
**stable log keys** minted here (entry ids are process-local). Nothing
here knows about shards: a sharded repository persists like a plain one.
"""

import json
import threading

from repro.common.errors import RepositoryError
from repro.restore.persistence import (
    DEFAULT_REPOSITORY_PATH,
    entry_to_json,
    log_file_path,
    MANIFEST_VERSION,
    read_manifest_line,
    snapshot_lines,
)


class RepositoryLog:
    """Append-only change log + periodic compaction for one repository.

    Parameters:

    * ``dfs`` — the file system holding snapshot and log;
    * ``path`` — the snapshot path (shared with ``load_repository``);
    * ``log_path`` — the change-log path (default ``<path>.log``);
    * ``compact_ratio`` — compaction threshold: compact when (logged +
      pending) records per repository entry exceed this (≤ 0 is
      rejected; large values effectively disable compaction, which the
      ablation benchmark uses to isolate the append cost);
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
    #: (``lock-discipline``): checkpoint state is only touched inside
    #: ``with self._mutex:``; ``*_locked`` methods assert the caller
    #: holds it.
    GUARDED_BY = {"_seq": "_mutex", "_next_key": "_mutex",
                  "_keys": "_mutex", "_pending": "_mutex",
                  "_log_records": "_mutex"}

    def __init__(self, dfs, path=DEFAULT_REPOSITORY_PATH, log_path=None,
                 compact_ratio=1.0, ranker=None):
        if compact_ratio <= 0:
            raise ValueError(
                f"compact_ratio must be positive, got {compact_ratio}")
        self.dfs = dfs
        self.path = path
        self.log_path = (log_path if log_path is not None
                         else log_file_path(path))
        self.compact_ratio = compact_ratio
        self.ranker = ranker
        self.repository = None
        # Event intake and checkpointing share one re-entrant mutex: it
        # makes each record's intake and each flush/compact atomic, never
        # reorders (delivery order IS the durable order). Re-entrant
        # because checkpoint() nests flush().
        self._mutex = threading.RLock()
        self._seq = 0                # last sequence number assigned
        self._next_key = 0           # stable-key allocator
        self._keys = {}              # entry_id -> stable log key
        self._pending = []           # serialized records not yet on DFS
        self._log_records = 0        # complete records in the DFS log

    # Lifecycle --------------------------------------------------------------

    def attach(self, repository):
        """Bind ``repository`` and subscribe to its change events.

        A repository freshly rebuilt by ``load_repository`` from this
        snapshot/log pair resumes seamlessly: sequence numbers and
        stable keys continue from the loader's replay state, whatever
        repository class or shard count it was loaded into. Anything
        else — a live repository, a file written by ``save_repository``
        (no log pointer), or a reload whose log had crash damage (torn
        tail, stale or dangling records) — is checkpointed immediately:
        attach writes a fresh snapshot and truncates the log.
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
            # The same DFS by identity (a load from another filesystem
            # vouches for nothing here), and a snapshot really read (a
            # load that found none must not let the guard below wipe a
            # log that still holds records).
            and getattr(repository.loader_report, "dfs", None) is self.dfs
            and repository.loader_report.format_version is not None)
        probe = None  # lazy: the clean-resume path never needs it
        if len(repository) == 0 and not loaded_from_here:
            probe = self._probe_durable_state()
            if probe[0]:
                # Almost certainly a restart that forgot
                # load_repository(): the initial compaction would wipe
                # the durable state.
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
        # previously attached repository would inject ghost mutations
        # and reused sequence numbers into this one's log.
        self._pending = []
        self._keys = {}
        self._log_records = 0
        report = getattr(repository, "loader_report", None)
        resumable = (
            report is not None
            and report.format_version == MANIFEST_VERSION
            and report.snapshot_path == self.path
            and report.log_path == self.log_path
            and getattr(report, "dfs", None) is self.dfs
            # The replay state is single-use: a later attach must not
            # rewind the sequence counter to load time, or its records
            # could sit at or below a newer on-DFS base_seq and be
            # skipped as stale on the next reload.
            and not report.replay_state_consumed
            and self.dfs.exists(self.path)
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
            # Removals and use-stamps applied between load and attach
            # never reached the log; either forces the healing
            # compaction below (inserts are caught as unkeyed).
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
        clean = (resumable
                 and not unkeyed
                 and not untracked_mutations
                 and report.torn_tail_dropped == 0
                 and report.stale_records == 0
                 and report.dangling_records == 0)
        if clean:
            self._log_records = report.log_records
        else:
            # base_seq must clear every sequence already durable here,
            # or a crash before the truncation would replay old records
            # as fresh mutations on top of the new snapshot.
            if probe is None:
                probe = self._probe_durable_state()
            self._seq = max(self._seq, probe[1])
            self._compact_locked()

    def _probe_durable_state(self):
        """``(records, max_seq)`` of the durable files at this path:
        snapshot entries plus log lines (possibly stale ones included —
        the wipe guard's count), and the highest of ``base_seq`` and the
        log's parseable sequence numbers (the healing compaction's
        floor)."""
        records = 0
        top = 0
        if self.dfs.exists(self.path):
            # A file without a manifest counts every line.
            manifest = read_manifest_line(self.dfs, self.path) or {}
            records += self.dfs.status(self.path).num_lines - bool(manifest)
            if isinstance(manifest.get("base_seq"), int):
                top = manifest["base_seq"]
        if self.dfs.exists(self.log_path):
            log_lines = self.dfs.read_lines(self.log_path)
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
        """Fail cleanly (not with a bare AttributeError) when there is
        no live repository to checkpoint."""
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
        record = {"op": op}
        if op == "insert":
            record["key"] = self._assign_key_locked(entry)
            record["entry"] = entry_to_json(entry)
        elif op == "remove":
            key = self._keys.pop(entry.entry_id, None)
            if key is None:
                # The entry was never keyed, so nothing durable
                # references it: a '"key": null' remove record would be
                # pure noise the loader could only count as dangling.
                # Skip it — and skip *before* taking a sequence number,
                # so the durable stream has no phantom gap.
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
        self._pending.append(json.dumps(record, sort_keys=True))

    # Checkpointing ----------------------------------------------------------

    @property
    def pending_records(self):
        """Buffered change records not yet appended to the DFS log."""
        with self._mutex:
            return len(self._pending)

    @property
    def log_records(self):
        """Complete change records currently in the DFS log."""
        with self._mutex:
            return self._log_records

    def log_ratio(self):
        """(on-DFS + pending) log records per repository entry — what
        :attr:`compact_ratio` bounds (0 entries count as 1; an
        unattached log reports over the empty repository)."""
        size = len(self.repository) if self.repository is not None else 0
        return (self.log_records + self.pending_records) / max(1, size)

    def should_compact(self):
        with self._mutex:
            total = self._log_records + len(self._pending)
        return total > 0 and self.log_ratio() > self.compact_ratio

    def flush(self):
        """Append pending change records to the DFS log; O(delta)."""
        with self._mutex:
            if not self._pending:
                return 0
            appended = len(self._pending)
            self.dfs.append_lines(self.log_path, self._pending)
            self._log_records += appended
            self._pending = []
            return appended

    def checkpoint(self):
        """Bring the on-DFS state up to the live repository.

        Appends the pending deltas — unless the log has outgrown the
        ``compact_ratio`` threshold, in which case the whole repository
        is compacted instead (the pending deltas are subsumed by the
        snapshot). Returns ``{"appended": n, "compacted": bool}``;
        ``appended`` counts every pending record made durable either way.
        """
        self._require_attached("checkpoint")
        with self._mutex:
            if self.should_compact():
                durable = len(self._pending)
                self._compact_locked()
                return {"appended": durable, "compacted": True}
            return {"appended": self.flush(), "compacted": False}

    def compact(self):
        """Snapshot rewrite + log truncation, in crash-safe order.

        The snapshot lands first, as one atomic ``write_lines(...,
        overwrite=True)`` swap whose ``base_seq`` covers every record
        assigned so far; only then is the log truncated. A crash in
        between leaves records at or below ``base_seq``, which replay
        skips as stale. The cost is O(repository) serialization.
        """
        self._require_attached("compact")
        with self._mutex:
            self._compact_locked()

    def _compact_locked(self):
        self.dfs.write_lines(
            self.path,
            snapshot_lines(self.repository, self._keys, self._seq,
                           self.log_path, self.ranker),
            overwrite=True)
        if self.dfs.exists(self.log_path):
            self.dfs.write_lines(self.log_path, [], overwrite=True)
        # Only now are the buffered records subsumed by a snapshot that
        # actually landed — a failed write must leave them pending, or a
        # caller that catches the error and retries would silently lose
        # those mutations.
        self._pending = []
        self._log_records = 0

    def describe(self):
        with self._mutex:
            state = ("unattached" if self.repository is None
                     else f"seq {self._seq}")
            return (
                f"RepositoryLog[{self.path} + {self.log_path}]: "
                f"{state}, {self._log_records} logged record(s), "
                f"{len(self._pending)} pending, "
                f"ratio {self.log_ratio():.2f}/{self.compact_ratio}"
            )

    def __repr__(self):
        return f"<{self.describe()}>"


def _key_index(key):
    """The integer suffix of a stable log key (``"k17"`` → 17). Keys this
    class did not mint (``save_repository`` writes ``"s<position>"``)
    count as -1: they live in a different prefix, so the allocator
    cannot collide with them and need not skip past them."""
    if isinstance(key, str) and key[:1] == "k" and key[1:].isdigit():
        return int(key[1:])
    return -1
