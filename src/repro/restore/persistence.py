"""Repository persistence: survive a ReStore restart.

The paper's repository is durable state ("Facebook stores the result of
any query ... for seven days"); this module saves/loads it through the
DFS itself. Entries are serialized as *skeleton plans* — per operator
its kind, canonical signature, schema and input edges — because
matching and rewriting need only signatures and DAG structure, never
executable closures. Statistics, input versions, ownership, provenance
and the fingerprint round-trip too; Loads come back as real
:class:`~repro.physical.operators.POLoad` operators, so a reloaded
repository rebuilds its leaf-load and fingerprint indexes identically.

There is one durable format, ``"restore-manifest": 6`` (spec in
``docs/PERSISTENCE.md``): ``<path>`` holds the **snapshot** — a manifest
line (``num_shards``, ``entries``, ``base_seq``, ``log``, optional
``ranker``), then one ``{"key", "entry"}`` line per entry in scan order
— and the manifest's ``log`` (``<path>.log`` by default) is one
append-only **change log** of ``{seq, op, key, ...}`` records written
by :class:`~repro.restore.wal.RepositoryLog`, replayed past
``base_seq``. The format knows no shard layout: ``num_shards`` only
picks the class a no-target load builds, and a sharded layout is
recomputed from the stable load-key hash, so a file loads into any
repository class and shard count with the same scan order and match
decisions. Every load attaches a :class:`LoaderReport`.
"""

import json
import warnings

from repro.common.errors import RepositoryError
from repro.data.schema import Field, Schema
from repro.data.types import DataType
from repro.physical.operators import PhysOp, POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore.index import parse_load_signature
from repro.restore.repository import Repository, RepositoryEntry
from repro.restore.sharding import ShardedRepository
from repro.restore.stats import EntryStats


class SkeletonOp(PhysOp):
    """A deserialized operator: fixed signature, no executable payload."""

    def __init__(self, kind, signature, schema, inputs):
        super().__init__(inputs, schema)
        self.kind = kind
        self._signature = signature

    def signature(self):
        return self._signature

    def copy_with_inputs(self, inputs):
        return self._carry(
            SkeletonOp(self.kind, self._signature, self.schema, list(inputs))
        )


# --- Schema (de)serialization ---------------------------------------------------


def schema_to_json(schema):
    if schema is None:
        return None
    return [
        {
            "name": field.name,
            "dtype": field.dtype.value,
            "element": schema_to_json(field.element),
        }
        for field in schema.fields
    ]


def schema_from_json(data):
    if data is None:
        return None
    fields = [
        Field(item["name"], DataType(item["dtype"]),
              schema_from_json(item["element"]))
        for item in data
    ]
    return Schema(fields)


# --- Plan (de)serialization -----------------------------------------------------


def plan_to_json(plan):
    """Topologically-ordered operator records with input indices."""
    operators = plan.operators()
    index = {id(op): position for position, op in enumerate(operators)}
    records = []
    for op in operators:
        records.append(
            {
                "kind": op.kind,
                "signature": op.signature(),
                "schema": schema_to_json(op.schema),
                "inputs": [index[id(parent)] for parent in op.inputs],
                "store_path": op.path if isinstance(op, POStore) else None,
            }
        )
    return records


def plan_from_json(records):
    operators = []
    for record in records:
        inputs = [operators[i] for i in record["inputs"]]
        if record["store_path"] is not None:
            op = POStore(inputs[0], record["store_path"])
        else:
            op = _operator_from_record(record, inputs)
        operators.append(op)
    sinks = [op for op in operators if isinstance(op, POStore)]
    if len(sinks) != 1:
        raise RepositoryError(
            f"a serialized entry plan must have exactly one Store, got {len(sinks)}"
        )
    return PhysicalPlan(sinks)


def _operator_from_record(record, inputs):
    """Rebuild one non-Store operator.

    Loads come back as real POLoads (path/version recovered from the
    canonical signature) so the repository's leaf-load index can key a
    reloaded entry exactly as it keyed the original; everything else is a
    signature-preserving skeleton.
    """
    if record["kind"] == "load" and not inputs:
        parsed = parse_load_signature(record["signature"])
        if parsed is not None:
            path, version = parsed
            return POLoad(path, schema_from_json(record["schema"]), version)
    return SkeletonOp(record["kind"], record["signature"],
                      schema_from_json(record["schema"]), inputs)


# --- Repository (de)serialization ---------------------------------------------------


def entry_to_json(entry):
    """One entry as a JSON-able dict — the ``entry`` payload of snapshot
    lines and insert log records."""
    stats = entry.stats
    return {
        "plan": plan_to_json(entry.plan),
        "fingerprint": entry.fingerprint,
        # The insertion sequence is the scan order's final tie-break.
        # It must round-trip: re-insertion mints sequences in scan-
        # position order, but a subsumption-edge-constrained scan order
        # can invert metric-tied entries relative to insertion order —
        # a post-reload recompute would then break those ties
        # differently than the live repository.
        "sequence": getattr(entry, "_sequence", None),
        "output_path": entry.output_path,
        "input_versions": entry.input_versions,
        "owns_file": entry.owns_file,
        "origin": entry.origin,
        "stats": {
            "input_bytes": stats.input_bytes,
            "output_bytes": stats.output_bytes,
            "producing_job_time": stats.producing_job_time,
            "map_time": stats.map_time,
            "reduce_time": stats.reduce_time,
            "created_tick": stats.created_tick,
            "last_used_tick": stats.last_used_tick,
            "use_count": stats.use_count,
        },
    }


def entry_from_json(data, report=None):
    raw = data["stats"]
    stats = EntryStats(
        raw["input_bytes"], raw["output_bytes"], raw["producing_job_time"],
        map_time=raw["map_time"], reduce_time=raw["reduce_time"],
        created_tick=raw["created_tick"],
    )
    stats.last_used_tick = raw["last_used_tick"]
    stats.use_count = raw["use_count"]
    entry = RepositoryEntry(
        plan_from_json(data["plan"]),
        data["output_path"],
        stats,
        input_versions=data["input_versions"],
        owns_file=data["owns_file"],
        origin=data["origin"],
    )
    # The saved fingerprint is derivable state: the plan round-trips its
    # signatures, so the recomputed hash is authoritative. A stale saved
    # value (e.g. after a signature-canonicalization change in a newer
    # release) must not brick the restart — the recomputed fingerprint
    # wins, and the repository re-indexes with it. But the drift itself
    # must be observable, not invisible: verify the saved value and
    # surface mismatches through the loader counter and a warning.
    saved_fingerprint = data.get("fingerprint")
    if saved_fingerprint is not None and saved_fingerprint != entry.fingerprint:
        if report is not None:
            # Count only: the loader emits one aggregated warning at the
            # end (a drift hits every entry of a large repository at
            # once) through a path that cannot brick the restart.
            report.fingerprint_mismatches += 1
        else:
            warnings.warn(
                f"saved fingerprint for entry {entry.output_path!r} does "
                f"not match the recomputed one (signature "
                f"canonicalization drift since the save?); the "
                f"recomputed value wins",
                RuntimeWarning, stacklevel=2)
    return entry


DEFAULT_REPOSITORY_PATH = "/restore/repository.jsonl"

#: manifest marker key; its value is the format version
MANIFEST_KEY = "restore-manifest"
#: the one format this release reads and writes
MANIFEST_VERSION = 6


def log_file_path(path):
    """The default change log of the snapshot at ``path``."""
    return f"{path}.log"


class LoaderReport:
    """What ``load_repository`` observed while rebuilding a repository.

    Attached to every returned repository as ``loader_report``. The
    counters make restart anomalies observable instead of silent —
    ``fingerprint_mismatches`` flags signature-canonicalization drift
    between the saving and loading release, ``torn_tail_dropped`` /
    ``stale_records`` / ``dangling_records`` account for every log
    record that was not replayed — and ``last_seq`` / ``keys`` /
    ``use_stats`` are the replay state a
    :class:`~repro.restore.wal.RepositoryLog` resumes from when it
    re-attaches after a restart.
    """

    def __init__(self, path, dfs=None):
        self.snapshot_path = path
        #: the filesystem the load read from — resume checks compare it
        #: by identity, so a report cannot vouch for a different DFS
        #: that merely shares the path string
        self.dfs = dfs
        self.format_version = None     # None: no snapshot found
        self.log_path = None           # the manifest's change log
        self.entries_loaded = 0        # entries in the final repository
        self.log_records = 0           # lines found in the change log
        self.replayed_records = 0      # log records applied
        self.stale_records = 0         # records at or below base_seq
        self.dangling_records = 0      # records whose target was gone
        self.torn_tail_dropped = 0     # partial final line from a crash
        self.orphaned_log_records = 0  # log lines no snapshot references
        self.fingerprint_mismatches = 0
        self.last_seq = 0              # highest sequence number seen
        self.keys = {}                 # entry_id -> stable log key
        #: (use_count, last_used_tick) per entry at load time — lets a
        #: re-attaching RepositoryLog detect use-stamps applied between
        #: load and attach (which its listener never saw) and heal with
        #: a compaction instead of silently losing them.
        self.use_stats = {}
        # The replay state (last_seq/keys) is only valid until the first
        # RepositoryLog attaches — it describes the repository *as
        # loaded*, not as later mutated — so attach() consumes it.
        self.replay_state_consumed = False

    def as_dict(self):
        return {
            "snapshot_path": self.snapshot_path,
            "format_version": self.format_version,
            "log_path": self.log_path,
            "entries_loaded": self.entries_loaded,
            "log_records": self.log_records,
            "replayed_records": self.replayed_records,
            "stale_records": self.stale_records,
            "dangling_records": self.dangling_records,
            "torn_tail_dropped": self.torn_tail_dropped,
            "orphaned_log_records": self.orphaned_log_records,
            "fingerprint_mismatches": self.fingerprint_mismatches,
            "last_seq": self.last_seq,
        }

    def describe(self):
        return (
            f"loaded {self.entries_loaded} entr(ies) from "
            f"{self.snapshot_path!r} (format v{self.format_version}): "
            f"{self.replayed_records} log record(s) replayed, "
            f"{self.stale_records} stale, {self.dangling_records} dangling, "
            f"{self.torn_tail_dropped} torn-tail dropped, "
            f"{self.fingerprint_mismatches} fingerprint mismatch(es)"
        )

    def __repr__(self):
        return f"LoaderReport({self.describe()})"


def snapshot_lines(repository, keys, base_seq, log_path, ranker=None):
    """The snapshot of ``repository`` as file lines — the one writer
    both :func:`save_repository` and compaction use: the manifest, then
    one ``{"key", "entry"}`` line per entry in scan order. ``keys`` maps
    entry ids to stable log keys; ``base_seq`` is the highest log
    sequence number the snapshot subsumes; ``log_path`` is the log a
    loader replays past it (None: none). ``ranker`` (an instance or a
    name) is deployment metadata — it reorders probes, never state.
    """
    entries = repository.scan()
    header = {MANIFEST_KEY: MANIFEST_VERSION,
              "num_shards": getattr(repository, "num_shards", 0),
              "entries": len(entries),
              "base_seq": base_seq,
              "log": log_path}
    ranker_name = getattr(ranker, "name", ranker)
    if ranker_name is not None:
        header["ranker"] = ranker_name
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps({"key": keys[entry.entry_id],
                             "entry": entry_to_json(entry)}, sort_keys=True)
                 for entry in entries)
    return lines


def save_repository(repository, dfs, path=DEFAULT_REPOSITORY_PATH,
                    ranker=None):
    """Persist the whole repository through the DFS as one snapshot.

    A full save is authoritative: fresh keys, ``base_seq`` 0 and no log
    pointer, after which the log the overwritten snapshot pointed at
    (custom paths included) and the conventional ``<path>.log`` are
    deleted — their records are in the save. Records a still-attached
    :class:`~repro.restore.wal.RepositoryLog` checkpoints *after* the
    save land in a log this snapshot does not reference; the loader
    flags them loudly.
    """
    superseded = {log_file_path(path)}
    manifest = read_manifest_line(dfs, path)
    if manifest is not None and isinstance(manifest.get("log"), str):
        superseded.add(manifest["log"])
    keys = {entry.entry_id: f"s{position}"
            for position, entry in enumerate(repository.scan())}
    status = dfs.write_lines(path, snapshot_lines(repository, keys, 0, None,
                                                  ranker), overwrite=True)
    for log in sorted(superseded - {path}):
        dfs.delete_if_exists(log)
    return status


def read_manifest_line(dfs, path):
    """The manifest dict on ``path``'s first line, or None (missing or
    empty file, or a first line that is not a manifest).

    Reads only the file's first block — line 0 always lives there — so
    sniffing a large snapshot costs O(block), not O(file).
    """
    if not dfs.exists(path):
        return None
    lines = dfs.read_block_lines(path, 0)
    if not lines:
        return None
    try:
        first = json.loads(lines[0])
    except ValueError:
        return None
    if isinstance(first, dict) and MANIFEST_KEY in first:
        return first
    return None


def load_repository(dfs, path=DEFAULT_REPOSITORY_PATH, repository=None):
    """Rebuild a repository from its snapshot and change log; a missing
    snapshot loads empty.

    ``repository`` is the target; when omitted, the manifest's
    ``num_shards`` picks a plain :class:`Repository` (0) or a
    :class:`~repro.restore.sharding.ShardedRepository` of that many
    shards. Any target loads the same scan order; a pre-populated one
    gets the union and keeps its own order rules. Raises
    :class:`~repro.common.errors.RepositoryError` on any version other
    than :data:`MANIFEST_VERSION`, an unparseable snapshot line (naming
    file and line index), a truncated snapshot, or a corrupt log line
    that is not the final one.
    """
    report = LoaderReport(path, dfs)
    lines = dfs.read_lines(path) if dfs.exists(path) else []
    if not lines:
        repository = repository if repository is not None else Repository()
        repository.loader_report = report
        # The snapshot is gone (or empty) but its log is not: those
        # records cannot be replayed without it, and silence would hide
        # the loss.
        _count_orphaned_log(dfs, path, report,
                            f"no repository snapshot at {path!r}, but")
        return repository
    manifest = _parse_snapshot_line(lines[0], path, 0, (MANIFEST_KEY,))
    version = manifest[MANIFEST_KEY]
    if version != MANIFEST_VERSION:
        raise RepositoryError(
            f"unsupported repository format version {version!r} in "
            f"{path!r}; this release reads only version "
            f"{MANIFEST_VERSION}")
    report.format_version = version
    body = lines[1:]
    expected = manifest.get("entries", len(body))
    if len(body) != expected:
        raise RepositoryError(
            f"repository snapshot {path!r} truncated: manifest promises "
            f"{expected} entr(ies), file holds {len(body)}")
    if repository is None:
        num_shards = manifest.get("num_shards", 0)
        repository = (ShardedRepository(num_shards=num_shards)
                      if num_shards >= 1 else Repository())
    preexisting = len(repository)
    by_key = {}
    loaded = []
    sequences = []
    for index, line in enumerate(body, start=1):
        record = _parse_snapshot_line(line, path, index, ("key", "entry"))
        entry = repository.insert(entry_from_json(record["entry"], report))
        loaded.append(entry)
        sequences.append(record["entry"].get("sequence"))
        by_key[record["key"]] = entry
    if not preexisting:
        # A partial load into a pre-populated target keeps the target's
        # own order: the saved order is not a permutation of the union.
        _restore_saved_order(repository, loaded, sequences)
    base_seq = manifest.get("base_seq", 0)
    report.last_seq = base_seq
    report.log_path = manifest.get("log")
    if report.log_path is None:
        _count_orphaned_log(dfs, path, report,
                            f"the snapshot at {path!r} references no "
                            f"change log, but")
    elif dfs.exists(report.log_path):
        _replay_log(dfs.read_lines(report.log_path), base_seq, repository,
                    by_key, report)
    report.keys = {entry.entry_id: key for key, entry in by_key.items()}
    report.use_stats = {
        entry.entry_id: (entry.stats.use_count, entry.stats.last_used_tick)
        for entry in by_key.values()}
    # Surface the manifest (format version, shard count, ranker
    # metadata) to the caller.
    repository.manifest_metadata = dict(manifest)
    report.entries_loaded = len(repository)
    repository.loader_report = report
    if report.fingerprint_mismatches:
        _warn_unbrickable(
            f"{report.fingerprint_mismatches} saved fingerprint(s) in "
            f"{path!r} did not match the recomputed ones (signature "
            f"canonicalization drift since the save?); recomputed "
            f"values won — see loader_report.fingerprint_mismatches")
    return repository


def _parse_snapshot_line(line, path, index, required):
    """One snapshot line as a dict holding every ``required`` field;
    anything else is corruption, named by file and line index."""
    try:
        record = json.loads(line)
    except ValueError:
        record = None
    if not (isinstance(record, dict)
            and all(field in record for field in required)):
        raise RepositoryError(
            f"corrupt repository snapshot {path!r}: line {index} is not "
            f"a JSON object with {', '.join(map(repr, required))}")
    return record


def _warn_unbrickable(message):
    """Warn loudly without ever bricking the restart: forces print-only
    so an escalating filter (``-W error``) cannot turn the documented
    recovery path into a load failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def _count_orphaned_log(dfs, path, report, context):
    """Count (and warn about) records in ``<path>.log`` that no snapshot
    references — checkpoints after a full save, or a deleted snapshot."""
    log = log_file_path(path)
    if dfs.exists(log):
        report.orphaned_log_records = dfs.status(log).num_lines
    if report.orphaned_log_records:
        _warn_unbrickable(
            f"{context} {log!r} holds {report.orphaned_log_records} "
            f"change-log record(s); they were NOT replayed")


def _restore_saved_order(repository, loaded, sequences):
    """Pin the reloaded scan order — and insertion sequences — to the
    saved ones.

    Sequential insertion re-derives the *greedy* order, but a repository
    saved after removals can be in a non-greedy order ("previous order
    minus the removed entries"); the file order is the live history and
    must win. Re-insertion also mints tie-break sequences in scan order,
    while the live tie-break is insertion order, so the saved sequences
    are restored for later recomputes to break metric ties identically.
    """
    force = getattr(repository, "force_scan_order", None)
    if force is not None:
        force(loaded)
    if (all(sequence is not None for sequence in sequences)
            and len(set(sequences)) == len(sequences)):
        for entry, sequence in zip(loaded, sequences):
            entry._sequence = sequence
        repository._sequence = max(sequences, default=-1) + 1


def _replay_log(lines, base_seq, repository, by_key, report):
    """Apply the change-log records past ``base_seq`` in file order."""
    report.log_records = len(lines)
    for record in _parse_log(lines, report):
        if record["seq"] <= base_seq:
            # Pre-compaction history: a crash between the snapshot swap
            # and the log truncation leaves the old records behind; the
            # snapshot already reflects them.
            report.stale_records += 1
            continue
        _apply_log_record(record, repository, by_key, report)
        report.last_seq = max(report.last_seq, record["seq"])


def _parse_log(lines, report):
    """Complete records of the change log, dropping a torn final line
    (a crash mid-append) and failing on mid-file corruption."""
    records = []
    last = len(lines) - 1
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not (isinstance(record, dict)
                and isinstance(record.get("seq"), int) and "op" in record):
            if index == last:
                report.torn_tail_dropped += 1
                break
            raise RepositoryError(
                f"corrupt repository log {report.log_path!r}: unreadable "
                f"record at line {index} is not the final line")
        records.append(record)
    return records


def _apply_log_record(record, repository, by_key, report):
    op = record["op"]
    if op == "insert":
        entry = repository.insert(entry_from_json(record["entry"], report))
        by_key[record.get("key")] = entry
        report.replayed_records += 1
    elif op == "remove":
        entry = by_key.pop(record.get("key"), None)
        if entry is None:
            # The target is already gone (e.g. a duplicated record, or a
            # remove whose insert never made the log): count, don't die.
            report.dangling_records += 1
            return
        # No dfs argument: the live removal already deleted any owned
        # file — replay only restores the in-memory state.
        repository.remove(entry)
        report.replayed_records += 1
    elif op == "use":
        entry = by_key.get(record.get("key"))
        if entry is None:
            report.dangling_records += 1
            return
        # Use-stamps are absolute values, so replay is idempotent and a
        # record for an already-stamped entry converges to live state.
        entry.stats.use_count = record["use_count"]
        entry.stats.last_used_tick = record["last_used_tick"]
        report.replayed_records += 1
    else:
        # An op from a newer release: skip it rather than brick the
        # restart (the counter keeps it observable).
        report.dangling_records += 1
