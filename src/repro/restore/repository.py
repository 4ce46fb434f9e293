"""The ReStore repository of stored MapReduce job outputs.

Each record holds (paper Section 2.2): the physical plan of the job that
produced the output, the output's filename in the DFS, and statistics
about the producing job and about reuse frequency.

The entries are kept **partially ordered** so that a sequential scan finds
the best match first (paper Section 3):

1. a plan that subsumes another (contains all its operators) comes first;
2. otherwise, higher input/output size ratio first, then longer producing
   job execution time first.

The scan order is the *priority-greedy topological order* of the strict
subsumption DAG: repeatedly emit the ready entry with the best rule-2
metrics (ties broken by insertion sequence, so the order is a pure
function of the entry set). The seed implementation re-derived it from
scratch with O(n^2) containment tests per insert; this version maintains
it incrementally on top of :mod:`repro.restore.index`:

* ``find_equivalent`` is a fingerprint-bucket lookup (O(1) plus an exact
  confirmation of the bucket) instead of a full scan;
* on ``insert``, subsumption edges are computed only against entries the
  leaf-load index deems reachable (containment forces the contained
  plan's loads to be a subset of the container's), and an isolated entry
  is spliced into the existing order without rerunning Kahn's algorithm;
* ``match_candidates`` gives the matcher only the entries whose loads are
  a subset of the job's, in scan order — provably the same first match as
  the seed's full scan;
* ``remove`` prunes the subsumption cache, the edge sets, and all index
  buckets, so eviction-heavy retention policies no longer leak.

The frozen seed implementation lives in :mod:`repro.restore.baseline` and
the property suite asserts order- and decision-equivalence against it.
"""

import heapq
import itertools

from repro.common.errors import RepositoryError
from repro.restore.index import LoadIndex, leaf_loads, plan_fingerprint
from repro.restore.matcher import contains


class RepositoryEntry:
    """One stored job output (paper Section 2.2).

    Holds the producing job's physical plan (``Loads → … → Store``), the
    output's DFS path, execution/reuse statistics
    (:class:`~repro.restore.stats.EntryStats` — the ordering and
    retention rules read them), the versions of the datasets the plan
    read (Rule 4 invalidation), whether ReStore owns the stored file
    (safe to delete on evict), and whole-job/sub-job provenance.
    """

    _ids = itertools.count(1)

    def __init__(self, plan, output_path, stats, input_versions=None,
                 owns_file=True, origin="whole-job"):
        self.entry_id = f"e{next(self._ids)}"
        #: canonical physical plan: Loads -> ... -> Store(output_path)
        self.plan = plan
        self.output_path = output_path
        self.stats = stats
        #: dataset versions read by the producing job: {path: version}
        self.input_versions = dict(input_versions or {})
        #: whether the DFS file belongs to ReStore (safe to delete on evict)
        self.owns_file = owns_file
        #: "whole-job" or "sub-job" (provenance, for reporting)
        self.origin = origin
        self._fingerprint = None

    @property
    def fingerprint(self):
        """Canonical structural hash of the entry's plan (computed once,
        round-tripped by persistence)."""
        if self._fingerprint is None:
            self._fingerprint = plan_fingerprint(self.plan)
        return self._fingerprint

    @property
    def num_operators(self):
        return len(self.plan.operators())

    def describe(self):
        return (
            f"{self.entry_id} [{self.origin}] -> {self.output_path} "
            f"({self.stats.output_bytes} B, ratio {self.stats.reduction_ratio:.1f})"
        )

    def __repr__(self):
        return f"<RepositoryEntry {self.entry_id} {self.output_path}>"


_NO_EDGES = frozenset()


def _priority(entry):
    # higher ratio first, then longer producing time, then age
    return (-entry.stats.reduction_ratio,
            -entry.stats.producing_job_time,
            entry._sequence)


class Repository:
    """Ordered collection of :class:`RepositoryEntry`.

    ``scan()`` yields entries in match-priority order; ``insert`` keeps the
    partial order; ``find_equivalent`` deduplicates re-registrations of the
    same computation; ``match_candidates`` narrows a matcher pass to the
    entries the leaf-load index cannot rule out.
    """

    def __init__(self):
        self._entries = []
        self._order = None            # cached immutable scan() snapshot
        self._rank = None             # entry_id -> scan position
        self._rank_for = None         # the scan() snapshot _rank was built from
        self._by_id = {}
        self._sequence = 0
        self._subsumption_cache = {}
        self._cache_keys = {}         # entry id -> cache keys involving it
        self._load_index = LoadIndex()
        self._buckets = {}            # fingerprint -> [entries, insert order]
        self._edges_out = {}          # a subsumes b: edges_out[a] ∋ b (ids)
        self._edges_in = {}
        # After a removal the scan order is "previous order minus the
        # removed entry" (matching the seed, which never reorders on
        # remove) — which is NOT necessarily the greedy order of the
        # remaining set, so the next insert cannot use the splice fast
        # path and must rerun Kahn over the cached edges.
        self._order_is_greedy = True
        # Change-event channel: callables invoked as listener(op, entry)
        # with op in {"insert", "remove", "use"} after each mutation.
        # This is what incremental persistence (repro.restore.wal)
        # subscribes to; an empty list costs one truth test per mutation.
        self._listeners = []

    # Change events ---------------------------------------------------------

    def add_listener(self, listener):
        """Subscribe ``listener(op, entry)`` to insert/remove/use events."""
        self._listeners.append(listener)

    def remove_listener(self, listener):
        """Unsubscribe a listener previously added (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, op, entry):
        for listener in self._listeners:
            listener(op, entry)

    def record_use(self, entry, tick):
        """Stamp a reuse on ``entry`` and emit a ``"use"`` change event.

        The manager routes use-stamps through here (instead of mutating
        ``entry.stats`` directly) so that Rule 3 reuse windows survive a
        restart when a :class:`~repro.restore.wal.RepositoryLog` is
        attached.
        """
        entry.stats.record_use(tick)
        self._notify("use", entry)

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def scan(self):
        """Entries in the order the matcher must try them.

        Returns an immutable snapshot; the same tuple object is handed
        out until an insert or removal changes the order, so rescan loops
        no longer allocate a fresh list per pass.
        """
        if self._order is None:
            self._order = tuple(self._entries)
        return self._order

    def match_candidates(self, plan, ranker=None):
        """Entries that could be contained in ``plan``, in try order.

        Containment maps every entry Load onto an equally-signed Load of
        the input plan, so only entries whose ``(path, version)`` load set
        is a subset of the plan's can match; all others are skipped
        without a containment test. Falls back to the full scan when the
        plan's loads cannot be keyed.

        Without a ``ranker`` (or with a structural one) the candidates
        come back in global scan order — the paper's priority order,
        bit-identical to the seed. A non-structural
        :class:`~repro.restore.ranking.CandidateRanker` reorders exactly
        the same candidate *set* (ranking never adds or drops entries;
        the property suite asserts the permutation).
        """
        candidates = self._filtered_candidates(plan)
        if ranker is None or ranker.is_structural:
            return candidates
        return tuple(ranker.order(candidates, self))

    def _filtered_candidates(self, plan):
        """The load-index filter half of :meth:`match_candidates`, in
        scan order."""
        candidate_ids = self._load_index.candidate_ids(leaf_loads(plan))
        if candidate_ids is None:
            return self.scan()
        if not candidate_ids:
            return ()
        return tuple(entry for entry in self.scan()
                     if entry.entry_id in candidate_ids)

    def scan_rank(self):
        """entry_id -> position in the global scan order (cached per
        scan snapshot; invalidated automatically on insert/remove)."""
        order = self.scan()
        if self._rank_for is not order:
            self._rank = {entry.entry_id: position
                          for position, entry in enumerate(order)}
            self._rank_for = order
        return self._rank

    def subsumption_edges_among(self, entry_ids):
        """Strict-subsumption edges restricted to ``entry_ids``:
        ``{a: {b, ...}}`` where entry ``a``'s plan strictly contains
        entry ``b``'s. Rankers use this to keep the paper's rule 1 (a
        container is tried before everything it subsumes) a hard
        constraint while reordering the rest."""
        ids = set(entry_ids)
        return {entry_id: self._edges_out.get(entry_id, _NO_EDGES) & ids
                for entry_id in ids}

    def entry(self, entry_id):
        """The entry with ``entry_id`` (:class:`RepositoryError` if absent)."""
        try:
            return self._by_id[entry_id]
        except KeyError:
            raise RepositoryError(f"no entry {entry_id!r}") from None

    def total_stored_bytes(self):
        return sum(entry.stats.output_bytes for entry in self._entries)

    # Insertion ------------------------------------------------------------

    def insert(self, entry):
        """Insert keeping the partial order.

        Rule 1 (subsumption) is a hard constraint: a plan that contains
        another's operators scans first. Containment is transitive, so the
        strict-subsumption relation is a DAG; the scan order is its
        topological order, with rule 2's metrics (input/output ratio, then
        producing-job time — higher first) breaking ties among entries no
        constraint relates.

        Subsumption edges are discovered only against entries the load
        index deems reachable. When the new entry turns out isolated (no
        edges either way) and the current order is still greedy, it is
        spliced in directly: an always-ready node is emitted by the greedy
        scheduler at the first step where its priority beats the entry the
        scheduler would otherwise pick, leaving all other relative
        positions untouched.
        """
        entry._sequence = self._sequence
        self._sequence += 1
        entry_loads = leaf_loads(entry.plan)
        touched = self._discover_edges(entry, entry_loads)

        self._by_id[entry.entry_id] = entry
        self._load_index.add(entry, entry_loads)
        self._buckets.setdefault(entry.fingerprint, []).append(entry)
        self._edges_out.setdefault(entry.entry_id, set())
        self._edges_in.setdefault(entry.entry_id, set())

        if touched or not self._order_is_greedy:
            self._entries.append(entry)
            self._recompute_order()
            self._order_is_greedy = True
        else:
            self._splice(entry)
        self._order = None
        self._post_insert(entry)
        self._notify("insert", entry)
        return entry

    def _post_insert(self, entry):
        """Subclass hook, called after ``entry`` is fully indexed but
        before the insert change event fires (sharding registers the
        entry with its owning shard here, so listeners observing the
        event see a consistent shard layout)."""

    def _post_remove(self, entry):
        """Subclass hook, the removal counterpart of :meth:`_post_insert`
        (called after the remove change event fires, so listeners still
        see the entry in its shard)."""

    def _discover_edges(self, entry, entry_loads):
        """Record subsumption edges between ``entry`` and the index-reachable
        candidates; returns True when any edge was found."""
        touched = False
        # Entries the new plan could strictly contain: their loads must be
        # a subset of the new plan's loads.
        below_ids = self._load_index.candidate_ids(entry_loads)
        if below_ids is None:
            below_ids = set(self._by_id)
        # Entries that could strictly contain the new plan: their loads
        # must be a superset of the new plan's loads (unkeyable new plans
        # must conservatively consider everything).
        if entry_loads is None:
            above_ids = set(self._by_id)
        else:
            above_ids = self._load_index.superset_ids(entry_loads)
        for other_id in below_ids:
            if self._subsumes(entry, self._by_id[other_id]):
                self._edges_out.setdefault(entry.entry_id, set()).add(other_id)
                self._edges_in[other_id].add(entry.entry_id)
                touched = True
        for other_id in above_ids:
            if self._subsumes(self._by_id[other_id], entry):
                self._edges_out[other_id].add(entry.entry_id)
                self._edges_in.setdefault(entry.entry_id, set()).add(other_id)
                touched = True
        return touched

    def _subsumes(self, a, b):
        """Does entry ``a``'s plan strictly contain entry ``b``'s?"""
        key = (a.entry_id, b.entry_id)
        cached = self._subsumption_cache.get(key)
        if cached is None:
            cached = contains(b.plan, a.plan) and not contains(a.plan, b.plan)
            self._subsumption_cache[key] = cached
            self._cache_keys.setdefault(a.entry_id, set()).add(key)
            self._cache_keys.setdefault(b.entry_id, set()).add(key)
        return cached

    def _splice(self, entry):
        """Insert an edge-free entry into a greedy order, keeping it greedy."""
        rank = _priority(entry)
        for position, existing in enumerate(self._entries):
            if rank < _priority(existing):
                self._entries.insert(position, entry)
                return
        self._entries.append(entry)

    def _recompute_order(self):
        """Priority-greedy topological order over the cached edge sets.

        Equivalent to the seed's Kahn's-algorithm-with-resort, but with a
        heap and zero containment tests: the priority key is total (the
        insertion sequence is unique), so "sort the ready list, pop the
        head" and "pop the heap minimum" emit identical orders.
        """
        entries = self._entries
        # remove() prunes both edge directions, so every id in the edge
        # sets is a live entry — no aliveness filtering needed here.
        blockers = {entry.entry_id: len(self._edges_in[entry.entry_id])
                    for entry in entries}
        ready = [(_priority(entry), entry) for entry in entries
                 if blockers[entry.entry_id] == 0]
        heapq.heapify(ready)
        ordered = []
        while ready:
            _, entry = heapq.heappop(ready)
            ordered.append(entry)
            for dependent_id in self._edges_out[entry.entry_id]:
                blockers[dependent_id] -= 1
                if blockers[dependent_id] == 0:
                    dependent = self._by_id[dependent_id]
                    heapq.heappush(ready, (_priority(dependent), dependent))
        if len(ordered) != len(entries):
            raise RepositoryError("subsumption relation is cyclic (bug)")
        self._entries = ordered

    def force_scan_order(self, entries):
        """Adopt ``entries`` — a permutation of the current contents — as
        the scan order.

        Persistence loaders need this for exact state reconstruction: a
        live repository's order after a removal is "previous order minus
        the removed entry" (matching the seed), which is *not*
        necessarily the greedy order of the remaining set — so reloading
        by sequential insert, which re-normalizes greedily, can diverge
        from the order the file recorded. The saved positions are
        authoritative; the order is marked non-greedy so the next insert
        reruns Kahn exactly as the live repository would.
        """
        entries = list(entries)
        if [e.entry_id for e in entries] == [e.entry_id for e in self._entries]:
            return
        # Identity, not id-string, and an exact length: a list that
        # duplicates one entry while dropping another (or that carries
        # look-alike objects sharing ids with the repository's own
        # instances) must not desynchronize _entries from _by_id.
        if (len(entries) != len(self._entries)
                or {id(entry) for entry in entries}
                != {id(entry) for entry in self._entries}):
            raise RepositoryError(
                "force_scan_order requires a permutation of the "
                "repository's current entries")
        self._entries = entries
        self._order = None
        self._order_is_greedy = False

    def find_equivalent(self, plan):
        """An entry computing exactly ``plan`` (mutual containment), if any.

        Fingerprint-equal entries are the only possible equivalents, so
        only that bucket is confirmed with the exact mutual-containment
        test; among several equivalents (possible via direct inserts) the
        one earliest in scan order is returned, as the seed's linear scan
        would.
        """
        if len(plan.stores()) != 1:
            # Degenerate probe (no single match frontier): fall back to
            # the seed's literal scan so behavior stays bit-identical —
            # an empty repository answers None instead of raising.
            for entry in self._entries:
                if contains(entry.plan, plan) and contains(plan, entry.plan):
                    return entry
            return None
        bucket = self._buckets.get(plan_fingerprint(plan))
        if not bucket:
            return None
        matches = [entry for entry in bucket
                   if contains(entry.plan, plan) and contains(plan, entry.plan)]
        if not matches:
            return None
        if len(matches) == 1:
            return matches[0]
        positions = {entry.entry_id: index
                     for index, entry in enumerate(self._entries)}
        return min(matches, key=lambda entry: positions[entry.entry_id])

    # Removal --------------------------------------------------------------------

    def remove(self, entry, dfs=None):
        """Drop ``entry``; delete its file when ReStore owns it.

        All index state referencing the entry is pruned — including its
        pairs in the subsumption cache, which the seed left behind to grow
        without bound under eviction-heavy retention policies.
        """
        try:
            self._entries.remove(entry)
        except ValueError as exc:
            raise RepositoryError(f"{entry!r} is not in the repository") from exc
        entry_id = entry.entry_id
        self._order = None
        self._order_is_greedy = False
        del self._by_id[entry_id]
        self._load_index.discard(entry)
        bucket = self._buckets.get(entry.fingerprint)
        if bucket is not None:
            bucket[:] = [kept for kept in bucket if kept is not entry]
            if not bucket:
                del self._buckets[entry.fingerprint]
        for other_id in self._edges_out.pop(entry_id, ()):
            self._edges_in.get(other_id, set()).discard(entry_id)
        for other_id in self._edges_in.pop(entry_id, ()):
            self._edges_out.get(other_id, set()).discard(entry_id)
        for key in self._cache_keys.pop(entry_id, ()):
            self._subsumption_cache.pop(key, None)
            partner = key[0] if key[1] == entry_id else key[1]
            partner_keys = self._cache_keys.get(partner)
            if partner_keys is not None:
                partner_keys.discard(key)
        self._notify("remove", entry)
        self._post_remove(entry)
        if dfs is not None and entry.owns_file:
            dfs.delete_if_exists(entry.output_path)

    def describe(self):
        lines = [f"Repository: {len(self._entries)} entr(ies)"]
        lines.extend(f"- {entry.describe()}" for entry in self._entries)
        return "\n".join(lines)
