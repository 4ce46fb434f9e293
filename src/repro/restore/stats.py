"""Statistics attached to repository entries (paper Sections 3 and 5).

For every stored job output, the repository keeps the statistics that the
MapReduce system collected while producing it — input/output sizes, the
execution time of the producing job — plus reuse-tracking counters used by
the ordering rules and the eviction rules.

Three operational counter families ride along:

* :class:`MatchCounters` — per-workflow accounting of *why* repository
  candidates offered to the matcher were not used (missing output file,
  failed containment), attached to every
  :class:`~repro.restore.manager.ReStoreReport`;
* :class:`ShardStats` — per-shard probe/candidate/hit/occupancy counters
  maintained by :class:`~repro.restore.sharding.ShardedRepository`;
* :class:`RankingLedger` — per-rewrite estimated vs realized savings
  (the :mod:`~repro.restore.ranking` cost model's error, observable on
  every :class:`~repro.restore.manager.ReStoreReport`).
"""


class EntryStats:
    """Execution + reuse statistics for one repository entry."""

    __slots__ = (
        "input_bytes",
        "output_bytes",
        "producing_job_time",
        "map_time",
        "reduce_time",
        "created_tick",
        "last_used_tick",
        "use_count",
    )

    def __init__(self, input_bytes, output_bytes, producing_job_time,
                 map_time=0.0, reduce_time=0.0, created_tick=0):
        self.input_bytes = input_bytes
        self.output_bytes = output_bytes
        self.producing_job_time = producing_job_time
        self.map_time = map_time
        self.reduce_time = reduce_time
        self.created_tick = created_tick
        self.last_used_tick = created_tick
        self.use_count = 0

    @property
    def reduction_ratio(self):
        """Input bytes per output byte — ordering rule 2's first metric
        ("the ratio between the size of the input data and output data;
        the higher the better")."""
        return self.input_bytes / max(1, self.output_bytes)

    def record_use(self, tick):
        self.use_count += 1
        self.last_used_tick = max(self.last_used_tick, tick)

    def __repr__(self):
        return (
            f"EntryStats(in={self.input_bytes}B, out={self.output_bytes}B, "
            f"time={self.producing_job_time:.1f}s, uses={self.use_count})"
        )


class MatchCounters:
    """Why matcher candidates were (not) used, for one workflow.

    ``match_candidates`` narrows the repository to entries that *could*
    match; this records what happened to each candidate the matcher then
    actually tried:

    * ``matched`` — containment held and the job was rewritten;
    * ``skipped_missing_output`` — the entry's stored file is gone from
      the DFS (evicted externally, or deleted by an operator);
    * ``skipped_no_containment`` — the candidate survived the load-index
      (or shard-merge) filter but the exact containment test failed.

    The split explains reports beyond "how many rewrites happened": a
    high ``skipped_no_containment`` count means the candidate filter is
    loose for this workload, a high ``skipped_missing_output`` count
    means the repository is stale relative to the DFS.
    """

    __slots__ = ("candidates_tried", "matched", "skipped_missing_output",
                 "skipped_no_containment")

    def __init__(self):
        self.candidates_tried = 0
        self.matched = 0
        self.skipped_missing_output = 0
        self.skipped_no_containment = 0

    @property
    def skipped(self):
        return self.skipped_missing_output + self.skipped_no_containment

    def as_dict(self):
        return {
            "candidates_tried": self.candidates_tried,
            "matched": self.matched,
            "skipped_missing_output": self.skipped_missing_output,
            "skipped_no_containment": self.skipped_no_containment,
        }

    def describe(self):
        return (
            f"{self.candidates_tried} candidate(s) tried: "
            f"{self.matched} matched, "
            f"{self.skipped_missing_output} skipped (missing output), "
            f"{self.skipped_no_containment} skipped (no containment)"
        )

    def __repr__(self):
        return f"MatchCounters({self.describe()})"


class RankingDecision:
    """One applied rewrite's savings accounting.

    ``estimated_savings`` is the :mod:`~repro.restore.ranking` score
    computed from the entry's recorded statistics (what a
    ``SavingsRanker`` ranks by); ``realized_savings`` re-evaluates the
    same formula at rewrite time against the stored file's actual size.
    The difference is the estimator's error for this decision.
    """

    __slots__ = ("job_id", "entry_id", "estimated_savings", "realized_savings")

    def __init__(self, job_id, entry_id, estimated_savings, realized_savings):
        self.job_id = job_id
        self.entry_id = entry_id
        self.estimated_savings = estimated_savings
        self.realized_savings = realized_savings

    @property
    def estimate_error(self):
        return self.estimated_savings - self.realized_savings

    def as_dict(self):
        return {
            "job_id": self.job_id,
            "entry_id": self.entry_id,
            "estimated_savings": self.estimated_savings,
            "realized_savings": self.realized_savings,
            "estimate_error": self.estimate_error,
        }

    def __repr__(self):
        return (
            f"RankingDecision({self.job_id} <- {self.entry_id}, "
            f"est={self.estimated_savings:.1f}s, "
            f"real={self.realized_savings:.1f}s)"
        )


class RankingLedger:
    """Every rewrite's estimated vs realized savings, for one workflow.

    Recorded by the manager for **every** applied rewrite, whichever
    ranker chose it — the structural default gets the same accounting,
    so switching rankers is an observable A/B, not a blind flag flip.
    """

    __slots__ = ("ranker_name", "decisions")

    def __init__(self, ranker_name="structural"):
        self.ranker_name = ranker_name
        self.decisions = []

    def record(self, job_id, entry_id, estimated_savings, realized_savings):
        decision = RankingDecision(job_id, entry_id, estimated_savings,
                                   realized_savings)
        self.decisions.append(decision)
        return decision

    def __len__(self):
        return len(self.decisions)

    @property
    def total_estimated_savings(self):
        return sum(decision.estimated_savings for decision in self.decisions)

    @property
    def total_realized_savings(self):
        return sum(decision.realized_savings for decision in self.decisions)

    @property
    def mean_absolute_error(self):
        """Mean |estimated - realized| over the workflow's rewrites —
        the estimator-error counter the ranking docs promise."""
        if not self.decisions:
            return 0.0
        return (sum(abs(decision.estimate_error)
                    for decision in self.decisions) / len(self.decisions))

    def as_dict(self):
        return {
            "ranker": self.ranker_name,
            "decisions": [decision.as_dict() for decision in self.decisions],
            "total_estimated_savings": self.total_estimated_savings,
            "total_realized_savings": self.total_realized_savings,
            "mean_absolute_error": self.mean_absolute_error,
        }

    def describe(self):
        if not self.decisions:
            return f"ranker={self.ranker_name}: no rewrites"
        return (
            f"ranker={self.ranker_name}: {len(self.decisions)} rewrite(s), "
            f"estimated {self.total_estimated_savings:.1f}s saved, "
            f"realized {self.total_realized_savings:.1f}s, "
            f"mean |error| {self.mean_absolute_error:.2f}s"
        )

    def __repr__(self):
        return f"RankingLedger({self.describe()})"


class ShardStats:
    """Probe/candidate/hit counters for one repository shard.

    ``occupancy`` is the shard's current entry count (maintained by the
    owning :class:`~repro.restore.sharding.ShardedRepository`), ``probes``
    counts ``match_candidates`` fan-outs that consulted this shard,
    ``candidates_returned`` the entries it contributed to merged candidate
    lists, and ``match_hits`` the rewrites that used one of its entries.
    """

    __slots__ = ("shard_id", "occupancy", "probes", "candidates_returned",
                 "match_hits")

    def __init__(self, shard_id):
        self.shard_id = shard_id
        self.occupancy = 0
        self.probes = 0
        self.candidates_returned = 0
        self.match_hits = 0

    def as_dict(self):
        return {
            "shard": self.shard_id,
            "occupancy": self.occupancy,
            "probes": self.probes,
            "candidates_returned": self.candidates_returned,
            "match_hits": self.match_hits,
        }

    def describe(self):
        return (
            f"shard {self.shard_id}: {self.occupancy} entr(ies), "
            f"{self.probes} probe(s), {self.candidates_returned} candidate(s), "
            f"{self.match_hits} hit(s)"
        )

    def __repr__(self):
        return f"ShardStats({self.describe()})"
