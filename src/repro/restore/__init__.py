"""ReStore: reusing results of MapReduce jobs (the paper's contribution).

The three components of Figure 7:

* **plan matcher and rewriter** (:mod:`repro.restore.matcher`,
  :mod:`repro.restore.rewriter`) — rewrites each input job to reuse stored
  job outputs, including whole-job elimination;
* **sub-job enumerator** (:mod:`repro.restore.enumerator` with the
  heuristics of :mod:`repro.restore.heuristics`) — injects Split + Store
  operators to materialize sub-job outputs;
* **enumerated sub-job selector** (:mod:`repro.restore.selector`) — decides
  from execution statistics which outputs to keep and when to evict.

:class:`repro.restore.ReStore` wires them into the JobControl loop exactly
as Section 6.2 describes.

The matching pipeline and its cost
----------------------------------

The paper's matcher is a *sequential scan* of the repository in priority
order, and the seed reproduced it literally. With n entries, L loads per
plan, and C the cost of one containment test:

=====================  =====================  ==========================
operation              seed (linear scan)     indexed (PR 1)
=====================  =====================  ==========================
``find_equivalent``    O(n·C) full scan       O(C) fingerprint bucket
``insert``             O(n²) cached subsume   O(k·C + n) — k candidates
                       checks + Kahn rerun    from the load index, splice
                                              (Kahn rerun only when the
                                              entry has subsumption edges
                                              or after a removal)
matcher pass           O(n·C)                 O(k·C): only entries whose
                                              loads ⊆ the job's loads
``remove``             O(n), leaks the        O(n + cache): prunes the
                       subsumption cache      cache, edges, and indexes
=====================  =====================  ==========================

The supporting structures live in :mod:`repro.restore.index` (canonical
plan fingerprints and the leaf-load inverted index). The contract is that
indexing changes *nothing* observable: ``scan()`` yields the exact order
the seed's reorder produced and every match/rewrite/registration decision
is bit-identical. The seed implementation is frozen as
:class:`repro.restore.baseline.LinearScanRepository`, and the property
suite (``tests/test_property_restore.py``) checks order- and
decision-equivalence against it on randomized workflow streams;
``benchmarks/bench_ablation_repository.py`` reports the speedup.

Sharding (PR 2) extends the same contract to a *partitioned* store:
:class:`repro.restore.sharding.ShardedRepository` hashes entries across
N shards by leaf-load key, keeps the canonical-fingerprint dict as the
global cross-shard dedup channel, probes only the shards owning a
job's load keys for ``match_candidates``, and merges per-shard
candidates back into the
paper's priority order — identical decisions, probe cost proportional to
the owning shards instead of the whole repository.

Ranking (PR 3) makes the *order* of that merged candidate walk pluggable
(:mod:`repro.restore.ranking`): the default
:class:`~repro.restore.ranking.StructuralRanker` keeps the paper's
priority order bit-identical to the seed, while
:class:`~repro.restore.ranking.SavingsRanker` tries candidates by
Equation-2 estimated savings (subsumption still a hard constraint, scan
rank as the deterministic tiebreak); every applied rewrite's estimated
vs realized savings is recorded on the
:class:`~repro.restore.manager.ReStoreReport`'s ranking ledger.

Incremental persistence (PR 4, segmented in PR 5) keeps the repository
durable without rewriting the whole file per checkpoint: the repository
exposes a change-event channel (``add_listener`` / ``record_use``) and
:class:`~repro.restore.wal.RepositoryLog` appends one JSONL record per
mutation — tagged with a monotonic sequence number and the owning shard
— to that shard's own segment file. Compaction is dirty-only: a shard
whose segment outgrows its slice gets its snapshot section rewritten
(an immutable generation-suffixed file) and its segment truncated,
while clean shards' sections are reused on disk — steady-state
compaction is O(dirty shards), not O(repository). ``load_repository``
replays sections-then-segments (merged by sequence number, with
per-segment torn-tail tolerance and stale-record watermarks) and
reports what it saw via
:class:`~repro.restore.persistence.LoaderReport`. See
``docs/PERSISTENCE.md`` for the durable format and
``docs/ARCHITECTURE.md`` for the design.

Everything runs in one process, inline on the submit path: the manager
registers each job's outputs as the job finishes, then runs the
eviction sweep and the persistence checkpoint before ``submit``
returns, as Section 6.2 describes.
"""

from repro.restore.baseline import LinearScanRepository
from repro.restore.heuristics import (
    AggressiveHeuristic,
    ConservativeHeuristic,
    NoHeuristic,
)
from repro.restore.index import (
    leaf_loads,
    operator_fingerprint,
    plan_fingerprint,
)
from repro.restore.manager import ReStore, ReStoreReport
from repro.restore.matcher import find_containment, pairwise_plan_traversal
from repro.restore.persistence import (
    load_repository,
    LoaderReport,
    save_repository,
    save_snapshot,
)
from repro.restore.ranking import (
    CandidateRanker,
    estimate_entry_savings,
    SavingsRanker,
    StructuralRanker,
)
from repro.restore.repository import Repository, RepositoryEntry
from repro.restore.selector import (
    HeuristicRetentionPolicy,
    KeepEverythingPolicy,
)
from repro.restore.sharding import ShardedRepository
from repro.restore.wal import RepositoryLog

__all__ = [
    "AggressiveHeuristic",
    "CandidateRanker",
    "ConservativeHeuristic",
    "estimate_entry_savings",
    "find_containment",
    "HeuristicRetentionPolicy",
    "KeepEverythingPolicy",
    "leaf_loads",
    "LinearScanRepository",
    "load_repository",
    "LoaderReport",
    "NoHeuristic",
    "operator_fingerprint",
    "pairwise_plan_traversal",
    "plan_fingerprint",
    "save_repository",
    "save_snapshot",
    "Repository",
    "RepositoryEntry",
    "RepositoryLog",
    "ReStore",
    "ReStoreReport",
    "SavingsRanker",
    "ShardedRepository",
    "StructuralRanker",
]
