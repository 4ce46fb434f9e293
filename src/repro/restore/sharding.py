"""A sharded ReStore repository: partitioned matching, global semantics.

The indexed :class:`~repro.restore.repository.Repository` (PR 1) made
each lookup cheap, but the repository is still one object serving every
probe serially. This module partitions the entry set across N **shards**
so that a match probe only does work proportional to the shards that
could possibly answer it. Shards are probed serially, one after the
other.

Sharding layout
---------------

* Every entry is owned by **exactly one** shard, chosen by a stable hash
  (CRC-32, process-independent — persistence and restarts reproduce the
  layout) of the entry's *representative leaf-load key*: the minimum
  ``(path, version)`` pair of its load set. Entries whose loads cannot
  be keyed (or that read nothing) live in a dedicated **catch-all**
  partition consulted by every probe, because no load filter can rule
  them out.

* Containment requires an entry's load set to be a *subset* of the
  job's (see :mod:`repro.restore.index`), so an entry that can match a
  job has its representative key among the job's load keys. A probe for
  a job touching ``k`` load keys therefore fans out to **at most k
  shards** (plus the catch-all) and provably sees every possible match.

* The **canonical-fingerprint dict** is kept globally, not per shard: it
  is the cross-shard dedup channel that keeps ``find_equivalent`` O(1)
  for the whole repository and guarantees an equivalent computation is
  never stored twice, whichever shard would own the duplicate.

* Each shard filters only its own entries (~n/N of the repository) and
  the fan-out merges the per-shard candidates **back into the paper's
  global priority order** (Section 3's subsumption-then-metrics order)
  before the matcher runs — so the first match is the same entry the
  unsharded repository's sequential scan would have chosen, bit for bit.

:class:`ShardedRepository` subclasses :class:`Repository` for the global
view: scan order, ``find_equivalent``, insert/remove bookkeeping, and the
subsumption machinery are shared code, which is what makes the
observational-equivalence property ("sharding changes no decision")
testable and true by construction. The shards add the partitioned probe
path and per-shard statistics; the property suite drives
``ShardedRepository(n ∈ {1, 2, 8})`` in lock-step against the unsharded
and the seed linear-scan repositories.
"""

import zlib

from repro.common.errors import RepositoryError
from repro.restore.index import LoadIndex, leaf_loads
from repro.restore.repository import Repository
from repro.restore.stats import ShardStats

#: shard id of the catch-all partition in reports and persistence manifests
CATCHALL_SHARD = -1


def shard_index_for_key(load_key, num_shards):
    """Stable shard index for one ``(path, version)`` leaf-load key.

    CRC-32 of ``"{path}@v{version}"`` — deterministic across processes
    (unlike the salted builtin ``hash``), so a persisted repository
    reloads into the same layout it was saved from.
    """
    path, version = load_key
    return zlib.crc32(f"{path}@v{version}".encode("utf-8")) % num_shards


class RepositoryShard:
    """One partition of a :class:`ShardedRepository`.

    Holds its subset of entries (insertion-ordered) plus a private
    :class:`~repro.restore.index.LoadIndex` over just those entries, and
    answers ``probe(job_loads)`` with the local entries whose load sets
    the job cannot rule out — the per-shard half of ``match_candidates``.
    """

    __slots__ = ("shard_id", "stats", "_entries", "_load_index")

    def __init__(self, shard_id):
        self.shard_id = shard_id
        self.stats = ShardStats(shard_id)
        self._entries = {}            # entry_id -> entry, insertion order
        self._load_index = LoadIndex()

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def add(self, entry, entry_loads):
        self._entries[entry.entry_id] = entry
        self._load_index.add(entry, entry_loads)
        self.stats.occupancy = len(self._entries)

    def discard(self, entry):
        self._entries.pop(entry.entry_id, None)
        self._load_index.discard(entry)
        self.stats.occupancy = len(self._entries)

    def probe(self, job_loads):
        """Local candidates for a job reading ``job_loads`` (unordered:
        the owning repository merges shard results into the global
        priority order).

        Cost is O(local entries) — the sharded analogue of the unsharded
        repository's full-scan filter, deliberately so: a shard is
        modeled as an independent service scanning *its own slice*,
        which is the unit of work that sharding divides (probe cost
        n → n/N per shard, the scaling the ablation benchmark measures).
        """
        self.stats.probes += 1
        candidate_ids = self._load_index.candidate_ids(job_loads)
        if not candidate_ids:
            return ()
        result = [entry for entry in self._entries.values()
                  if entry.entry_id in candidate_ids]
        self.stats.candidates_returned += len(result)
        return result


class ShardedRepository(Repository):
    """A :class:`Repository` whose entries are partitioned into shards.

    Parameters:

    * ``num_shards`` — number of hash partitions (≥ 1).

    All repository semantics are **identical** to the unsharded
    :class:`Repository`: same scan order (the paper Section 3 priority
    order over the global entry set), same ``find_equivalent`` answers
    (the fingerprint dict is global — the cross-shard dedup channel),
    same ``match_candidates`` sequences (per-shard candidates are merged
    back into global scan order). What changes is the *cost*: a probe
    touches only the shards owning the job's leaf-load keys.
    """

    def __init__(self, num_shards=4):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        super().__init__()
        self.num_shards = num_shards
        self._shards = [RepositoryShard(index) for index in range(num_shards)]
        self._catchall = RepositoryShard(CATCHALL_SHARD)
        self._shard_of = {}           # entry_id -> owning RepositoryShard
        self._logical_probes = 0      # match_candidates calls (fan-outs)
        #: manifest header of the persisted file this repository was
        #: loaded from (set by ``load_repository``), or None.
        self.manifest_metadata = None

    # Shard layout -----------------------------------------------------------

    def owning_shard(self, entry_loads):
        """The shard that owns an entry reading ``entry_loads``.

        Keyed entries hash their representative (minimum) load key;
        unkeyable or load-free entries go to the catch-all partition.
        """
        if not entry_loads:  # None (unkeyable) or empty
            return self._catchall
        return self._shards[shard_index_for_key(min(entry_loads),
                                                self.num_shards)]

    def shards(self):
        """The regular shards, in shard-id order (catch-all excluded)."""
        return tuple(self._shards)

    def partitions(self):
        """All partitions: the regular shards, then the catch-all."""
        return tuple(self._shards) + (self._catchall,)

    def shard_report(self):
        """Per-shard occupancy/probe/hit counters as a list of dicts
        (catch-all last, shard id ``-1``), for operational reporting.

        Per-shard ``probes`` counts *consultations*: one logical match
        probe that fans out to an owned shard **and** the occupied
        catch-all shows up in both rows. Use :meth:`merged_shard_stats`
        for repository-level totals — summing this column double-counts
        every such probe.
        """
        return [shard.stats.as_dict() for shard in self.partitions()]

    def merged_shard_stats(self):
        """Repository-level totals across all partitions.

        ``probes`` is the number of **logical** ``match_candidates``
        fan-outs, counted once per call at the repository level —
        summing the per-shard probe counters instead would double-count
        any probe that consulted both an owned shard and the occupied
        catch-all (each partition counts its own consultation). The
        summed figure is still reported as ``shard_consults``.
        ``candidates_returned`` and ``match_hits`` are exact sums of the
        per-partition counters — with the caveat that an unkeyable-plan
        probe falls back to the global scan without consulting any
        partition, so it contributes to ``probes`` but to neither
        ``shard_consults`` nor ``candidates_returned`` (its rewrites are
        still credited to the owning shard's ``match_hits``).
        """
        return {
            "entries": len(self),
            "probes": self._logical_probes,
            "shard_consults": sum(shard.stats.probes
                                  for shard in self.partitions()),
            "candidates_returned": sum(shard.stats.candidates_returned
                                       for shard in self.partitions()),
            "match_hits": sum(shard.stats.match_hits
                              for shard in self.partitions()),
        }

    def record_match_hit(self, entry):
        """Credit a successful rewrite to the shard owning ``entry``
        (called by the manager after the matcher picks a candidate)."""
        shard = self._shard_of.get(entry.entry_id)
        if shard is not None:
            shard.stats.match_hits += 1

    def shard_id_of(self, entry):
        """The id of the shard owning ``entry`` (catch-all is ``-1``),
        or None when the entry is not registered with any shard."""
        shard = self._shard_of.get(entry.entry_id)
        return shard.shard_id if shard is not None else None

    def shard_sizes(self):
        """Entry count per partition, ``{shard_id: entries}``, every
        partition included (the catch-all under ``-1``, empty shards at
        0) — the denominator of segmented persistence's per-shard dirty
        ratio, and the partition universe its manifest records."""
        return {shard.shard_id: len(shard) for shard in self.partitions()}

    def shard_members(self, shard_id):
        """The entries owned by partition ``shard_id``
        (insertion-ordered; the segmented snapshot writer re-sorts by
        scan rank). O(shard), not O(repository) — what keeps a
        dirty-shard section rewrite proportional to the shard."""
        for shard in self.partitions():
            if shard.shard_id == shard_id:
                return tuple(shard)
        raise RepositoryError(f"no shard {shard_id!r} in this repository")

    # Mutation ---------------------------------------------------------------
    #
    # Inserts and removals are the inherited global operations; the
    # _post_insert/_post_remove hooks register the entry with its owning
    # shard so that change-event listeners (incremental persistence)
    # observe a consistent shard layout when the event fires.

    def _post_insert(self, entry):
        # The global load index just computed and cached the entry's leaf
        # loads; reuse them rather than re-walking the plan.
        entry_loads = self._load_index.loads_of(entry.entry_id)
        shard = self.owning_shard(entry_loads)
        shard.add(entry, entry_loads)
        self._shard_of[entry.entry_id] = shard

    def _post_remove(self, entry):
        shard = self._shard_of.pop(entry.entry_id, None)
        if shard is not None:
            shard.discard(entry)

    # Matching ---------------------------------------------------------------

    def _filtered_candidates(self, plan):
        """Fan out to the shards owning ``plan``'s leaf-load keys, merge
        their candidates back into the global priority order.

        This is the sharded half of the inherited ``match_candidates``
        (the ranker tail is shared base-class code, so both repository
        flavors have one ranking path). A job touching k load keys
        consults at most k shards plus the catch-all (only when the
        catch-all is occupied). Unkeyable plans fall back to the full
        global scan, exactly like the unsharded repository. Either way
        this counts as **one** logical probe (see
        :meth:`merged_shard_stats`), however many partitions it fans
        out to.
        """
        self._logical_probes += 1
        job_loads = leaf_loads(plan)
        if job_loads is None:
            return self.scan()
        shard_ids = self._consulted_shard_ids(job_loads)
        if not shard_ids:
            return ()
        rank = self.scan_rank()
        return tuple(sorted(
            (entry for shard_id in shard_ids
             for entry in self._partition_by_id(shard_id).probe(job_loads)),
            key=lambda entry: rank[entry.entry_id]))

    def _consulted_shard_ids(self, job_loads):
        """The partition ids a probe for ``job_loads`` must consult: the
        owners of the job's load keys, plus the catch-all when occupied."""
        shard_ids = sorted({shard_index_for_key(key, self.num_shards)
                            for key in job_loads})
        if len(self._catchall):
            shard_ids.append(CATCHALL_SHARD)
        return shard_ids

    def _partition_by_id(self, shard_id):
        return (self._catchall if shard_id == CATCHALL_SHARD
                else self._shards[shard_id])

    def describe(self):
        lines = [
            f"ShardedRepository: {len(self)} entr(ies) across "
            f"{self.num_shards} shard(s) "
            f"(+{len(self._catchall)} catch-all)"
        ]
        for shard in self.partitions():
            lines.append(f"- {shard.stats.describe()}")
        lines.extend(f"- {entry.describe()}" for entry in self.scan())
        return "\n".join(lines)
