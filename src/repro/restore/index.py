"""Indexing structures for the ReStore repository.

The paper's repository matcher is a *sequential scan* in priority order
(Section 3): every ``find_equivalent`` walks all entries with a full
mutual-containment check, and every insert re-derives the subsumption
partial order with O(n^2) containment tests. That is faithful — and it is
exactly the overhead Figs. 11/14 measure. This module provides the two
structures that remove the linear factors without changing a single
matching decision:

* **plan fingerprints** (:func:`plan_fingerprint`) — a canonical
  structural hash over operator signatures and DAG edges of a plan's
  match frontier. Operator equivalence is signature equality plus
  pairwise-equivalent inputs (splits skipped), so two mutually-contained
  single-Store plans always hash identically; the fingerprint therefore
  never produces a false negative and turns ``find_equivalent`` into a
  dict lookup plus an exact confirmation of the (tiny) bucket.

* **leaf-load keys** (:func:`leaf_loads`) — the frozenset of
  ``(path, version)`` pairs a plan reads. Containment maps every
  repository Load onto an input-plan Load with an identical signature
  (``LOAD[path@vN]``), so an entry can only match a job whose load set is
  a superset of the entry's. An inverted index over these keys lets the
  matcher try only plausible entries instead of scanning everything.

Both functions accept skeleton plans reloaded from persistence: a
skeleton Load carries no ``path``/``version`` attributes, but its
canonical signature embeds them and :func:`parse_load_signature` recovers
the pair.
"""

import hashlib

from repro.restore.matcher import match_frontier, skip_splits


def parse_load_signature(signature):
    """Recover ``(path, version)`` from a canonical Load signature.

    Load signatures are ``LOAD[{path}@v{version}]`` with an integer
    version (``POLoad.signature``). Returns None when ``signature`` does
    not have that shape (a foreign skeleton operator, say).
    """
    if not (signature.startswith("LOAD[") and signature.endswith("]")):
        return None
    body = signature[len("LOAD["):-1]
    path, sep, version = body.rpartition("@v")
    if not sep:
        return None
    try:
        return path, int(version)
    except ValueError:
        return None


def leaf_loads(plan):
    """The frozenset of ``(path, version)`` pairs ``plan`` reads.

    Returns None when any leaf Load cannot be keyed (no path/version
    attributes and an unparseable signature) — callers must then treat
    the plan as matchable against anything, which preserves correctness
    at the cost of indexing that one entry.
    """
    keys = set()
    for op in plan.operators():
        if op.kind != "load":
            continue
        path = getattr(op, "path", None)
        version = getattr(op, "version", None)
        if path is None or version is None:
            parsed = parse_load_signature(op.signature())
            if parsed is None:
                return None
            path, version = parsed
        keys.add((path, version))
    return frozenset(keys)


def operator_fingerprint(op):
    """Canonical structural hash of the subtree rooted at ``op``.

    The fingerprint is a SHA-256 Merkle hash over (signature, child
    fingerprints) with Split operators skipped — precisely the structure
    :func:`repro.restore.matcher.find_containment` recurses over. Mutual
    containment of two single-Store plans implies equivalent frontiers,
    hence equal fingerprints; unequal fingerprints prove non-equivalence.
    Child *digests* are combined rather than child serializations, so
    shared subplans cost O(nodes), not O(paths). Stable across processes,
    so it round-trips through persistence.

    The hash covers the frontier subtree only (never the Store).
    """
    memo = {}

    def canon(node_op):
        node_op = skip_splits(node_op)
        key = id(node_op)
        cached = memo.get(key)
        if cached is None:
            signature = node_op.signature()
            node = hashlib.sha256(
                f"[{len(signature)}:{signature}".encode("utf-8"))
            for parent in node_op.inputs:
                node.update(canon(parent).encode("ascii"))
            node.update(b"]")
            cached = node.hexdigest()
            memo[key] = cached
        return cached

    return canon(op)


def plan_fingerprint(plan):
    """Canonical structural hash of ``plan``'s match frontier.

    Delegates to :func:`operator_fingerprint` at
    :func:`~repro.restore.matcher.match_frontier` — see there for the
    hash's equivalence guarantees.
    """
    return operator_fingerprint(match_frontier(plan))


#: sentinel distinguishing "caller did not pass keys" from None (unkeyable)
_UNKEYED = object()


class LoadIndex:
    """Inverted index from leaf-load keys to entry ids.

    ``candidate_ids(job_loads)`` answers "which entries could possibly be
    contained in a plan reading exactly these datasets" — entries whose
    load set is a subset of ``job_loads``, plus any entry whose loads
    could not be keyed (conservatively always a candidate).
    """

    def __init__(self):
        self._postings = {}    # (path, version) -> set of entry ids
        self._loads = {}       # entry id -> frozenset of keys, or None
        self._unindexed = set()  # ids with unknown (or empty) load sets

    def add(self, entry, keys=_UNKEYED):
        if keys is _UNKEYED:
            keys = leaf_loads(entry.plan)
        self._loads[entry.entry_id] = keys
        if not keys:  # None (unparseable) or empty: always a candidate
            self._unindexed.add(entry.entry_id)
            return
        for key in keys:
            self._postings.setdefault(key, set()).add(entry.entry_id)

    def discard(self, entry):
        keys = self._loads.pop(entry.entry_id, None)
        self._unindexed.discard(entry.entry_id)
        for key in keys or ():
            postings = self._postings.get(key)
            if postings is not None:
                postings.discard(entry.entry_id)
                if not postings:
                    del self._postings[key]

    def loads_of(self, entry_id):
        return self._loads.get(entry_id)

    def candidate_ids(self, job_loads):
        """Ids of entries whose load set is a subset of ``job_loads``.

        ``job_loads`` of None (unkeyable plan) means "no filtering":
        returns None, and the caller must fall back to the full scan.
        """
        if job_loads is None:
            return None
        touched = set(self._unindexed)
        for key in job_loads:
            touched |= self._postings.get(key, _EMPTY)
        return {
            entry_id for entry_id in touched
            if self._loads[entry_id] is None or self._loads[entry_id] <= job_loads
        }

    def superset_ids(self, entry_loads):
        """Ids of entries whose load set is a superset of ``entry_loads``.

        These are the only existing entries whose plans could contain a
        new plan reading ``entry_loads`` (used for subsumption-edge
        discovery on insert). Unkeyable entries are always included.
        """
        if not entry_loads:
            return set(self._loads)
        iterator = iter(entry_loads)
        result = set(self._postings.get(next(iterator), _EMPTY))
        for key in iterator:
            if not result:
                break
            result &= self._postings.get(key, _EMPTY)
        return result | self._unindexed


_EMPTY = frozenset()
