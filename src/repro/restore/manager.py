"""The ReStore manager: Section 6.2's extension of the JobControl loop.

For every job that becomes ready, in order:

1. stamp the versions of the datasets its Loads read,
2. **match & rewrite** against the repository (repeating the sequential
   scan after every successful rewrite, paper Section 3),
3. simplify: stores whose input degenerated to a bare Load are removed
   (whole-job reuse — dependents are rewired onto the stored output;
   final user outputs become cheap copy jobs),
4. **enumerate sub-jobs** and inject Split+Store per the heuristic,
5. execute; afterwards register the job's outputs and the materialized
   sub-jobs in the repository with their execution statistics, subject to
   the retention policy's admission rules.

One logical-clock tick per submitted workflow drives reuse windows.
"""

import itertools

from repro.common import LogicalClock
from repro.mrcompiler.jobcontrol import JobControl
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore.enumerator import enumerate_and_inject
from repro.restore.heuristics import AggressiveHeuristic
from repro.restore.matcher import find_containment
from repro.restore.ranking import (
    estimate_entry_savings,
    realized_entry_savings,
    resolve_ranker,
)
from repro.restore.repository import Repository, RepositoryEntry
from repro.restore.rewriter import apply_rewrite, classify_copy_stores, restamp_stages
from repro.restore.selector import KeepEverythingPolicy
from repro.restore.stats import EntryStats, MatchCounters, RankingLedger


class ReStoreReport:
    """What ReStore did while executing one workflow.

    Besides the decision lists (rewrites, eliminations, registrations,
    evictions), the report carries :class:`~repro.restore.stats.MatchCounters`
    explaining why candidate entries offered by ``match_candidates`` were
    *not* used — a candidate can survive the load-index / shard-merge
    filter and still be skipped because its stored file is gone from the
    DFS or because the exact containment test (paper Section 3) fails.
    """

    def __init__(self, workflow_name, ranker_name="structural"):
        self.workflow_name = workflow_name
        self.rewrites = []            # (job_id, entry_id)
        self.eliminated_jobs = []     # job_ids fully served from the repository
        self.injected_stores = []     # (job_id, operator_kind, path)
        self.registered_entries = []  # entry ids added this run
        self.rejected_candidates = [] # paths rejected by the retention policy
        self.evicted_entries = []     # entry ids removed by the sweep
        self.checkpoint = None        # persistence checkpoint outcome, if any
        self.match_counters = MatchCounters()  # why candidates were skipped
        #: per-rewrite estimated vs realized savings (estimator error)
        self.ranking = RankingLedger(ranker_name)

    @property
    def num_rewrites(self):
        return len(self.rewrites)

    def describe(self):
        return (
            f"ReStore[{self.workflow_name}]: {self.num_rewrites} rewrite(s), "
            f"{len(self.eliminated_jobs)} job(s) eliminated, "
            f"{len(self.injected_stores)} store(s) injected, "
            f"{len(self.registered_entries)} entr(ies) registered, "
            f"{len(self.evicted_entries)} evicted; "
            f"matcher: {self.match_counters.describe()}; "
            f"{self.ranking.describe()}"
        )


class ReStore(JobControl):
    """ReStore on top of the MapReduce engine.

    Parameters mirror the system's knobs:

    * ``repository`` — where stored outputs live: the indexed
      :class:`~repro.restore.repository.Repository` by default, or a
      :class:`~repro.restore.sharding.ShardedRepository` for partitioned
      matching (the manager is repository-agnostic — every decision is
      identical either way, only the probe cost changes);
    * ``heuristic`` — sub-job selection (:class:`AggressiveHeuristic` is
      the paper's default, Section 4); pass None to disable sub-job
      materialization;
    * ``retention`` — admission/eviction policy (paper default stores
      everything; :class:`~repro.restore.selector.HeuristicRetentionPolicy`
      implements Section 5's Rules 1-4);
    * ``ranker`` — candidate try-order for the matcher: None or
      ``"structural"`` for the paper's Section 3 priority order (the
      default, bit-identical to the seed), ``"savings"`` for
      :class:`~repro.restore.ranking.SavingsRanker` (best
      cost-model-estimated savings first, subsumption still a hard
      constraint), or any :class:`~repro.restore.ranking.CandidateRanker`
      instance (the manager binds its cost model). A non-structural
      ranker needs a ranking-capable repository (the indexed or sharded
      one — not the frozen seed baseline);
    * ``enable_rewrite`` / ``enable_registration`` — turn the matcher or
      the repository population off (used by the experiments to measure
      overhead and no-reuse baselines);
    * ``persistence`` — a :class:`~repro.restore.wal.RepositoryLog` to
      keep the repository durable incrementally (or ``True`` for a
      default-configured one on this manager's DFS): the manager
      attaches it and, every ``checkpoint_every`` submits, appends the
      accumulated change records (inserts, eviction removals,
      use-stamps) to the change log — or, once the log outgrows its
      ratio threshold, compacts it into a fresh snapshot. The
      checkpoint outcome lands on ``last_report.checkpoint``. None (the default) leaves
      persistence to explicit ``save_repository`` calls.
    """

    MATERIALIZED_PREFIX = "/restore/materialized"

    #: sentinel: "use the paper's default heuristic" (None disables sub-jobs)
    _DEFAULT = object()

    _instance_ids = itertools.count(1)

    def __init__(self, dfs, cost_model, repository=None, heuristic=_DEFAULT,
                 retention=None, clock=None, enable_rewrite=True,
                 enable_registration=True, register_whole_jobs=True,
                 register_final_outputs=True, ranker=None, persistence=None,
                 checkpoint_every=1):
        super().__init__(dfs, cost_model, keep_temps=True)
        self.repository = repository if repository is not None else Repository()
        self.heuristic = AggressiveHeuristic() if heuristic is self._DEFAULT else heuristic
        self.retention = retention or KeepEverythingPolicy()
        self.ranker = resolve_ranker(ranker, cost_model)
        self.clock = clock or LogicalClock()
        self.enable_rewrite = enable_rewrite
        self.enable_registration = enable_registration
        if persistence is True:
            # Knob convenience: a default RepositoryLog on this
            # manager's DFS (snapshot + change log under
            # /restore/repository.jsonl*).
            from repro.restore.wal import RepositoryLog
            persistence = RepositoryLog(dfs)
        self.persistence = persistence
        if persistence is not None:
            if persistence.ranker is None:
                # Snapshots written by managed persistence carry the same
                # deployment metadata save_repository(..., ranker=) would
                # record; set before attach — it may compact immediately.
                persistence.ranker = self.ranker
            persistence.attach(self.repository)
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._submits_since_checkpoint = 0
        #: register outputs of whole jobs (intermediate temps and, when
        #: ``register_final_outputs`` also holds, user-facing outputs)
        self.register_whole_jobs = register_whole_jobs
        self.register_final_outputs = register_final_outputs
        self.last_report = None
        # Each manager materializes under its own directory so that several
        # ReStore instances sharing one DFS never overwrite each other.
        self._mat_prefix = f"{self.MATERIALIZED_PREFIX}/r{next(self._instance_ids)}"
        self._mat_counter = itertools.count(1)
        self._pending_candidates = {}
        self._kept_paths = set()
        self._discard_paths = []

    # Public API ------------------------------------------------------------

    def submit(self, workflow):
        """Execute ``workflow`` with reuse; returns the WorkflowResult.

        Runs the Section 6.2 loop for every job (match & rewrite →
        simplify → enumerate sub-jobs → execute → register), then the
        retention policy's eviction sweep (Section 5, Rules 3-4).
        ``self.last_report`` describes the rewrites, eliminations,
        registrations, evictions, and the matcher's skip accounting for
        this workflow; one logical-clock tick per submit drives reuse
        windows.
        """
        self.clock.tick()
        report = self.last_report = ReStoreReport(workflow.name,
                                                  self.ranker.name)
        self._discard_paths = []
        result = self.run(workflow)
        for path in self._discard_paths:
            if path not in self._kept_paths:
                self.dfs.delete_if_exists(path)
        self._discard_paths = []
        evicted = self.retention.sweep(self.repository, self.dfs, self.clock)
        report.evicted_entries.extend(entry.entry_id for entry in evicted)
        for entry in evicted:
            # An evicted entry's path must not keep shielding later
            # discards of the same location (and a long-running manager
            # must not accumulate paths forever).
            self._kept_paths.discard(entry.output_path)
        if self.persistence is not None:
            self._submits_since_checkpoint += 1
            if self._submits_since_checkpoint >= self.checkpoint_every:
                self._submits_since_checkpoint = 0
                report.checkpoint = self.persistence.checkpoint()
        return result

    def close(self):
        """Flush the attached :class:`~repro.restore.wal.RepositoryLog`'s
        pending change records to its log.

        Without this, records buffered since the last checkpoint are
        lost on shutdown. Idempotent, and also reachable as a context
        manager::

            with ReStore(dfs, cost_model, ...) as manager:
                manager.submit(workflow)
        """
        if self.persistence is not None:
            self.persistence.flush()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # JobControl hooks ---------------------------------------------------------

    def prepare_job(self, job, workflow, result):
        self._stamp_load_versions(job)
        if self.enable_rewrite:
            self._match_and_rewrite(job)
        if not self._simplify(job, workflow):
            return False
        if self.heuristic is not None:
            candidates = enumerate_and_inject(job, self.heuristic,
                                              self._allocate_materialized_path)
            self._pending_candidates[job.job_id] = candidates
            self.last_report.injected_stores.extend(
                (job.job_id, candidate.operator.kind, candidate.path)
                for candidate in candidates
            )
        return True

    def after_job(self, job, run_result, executed):
        candidates = self._pending_candidates.pop(job.job_id, ())
        if not executed or not self.enable_registration:
            # The injected stores already executed and materialized
            # their files; nothing will ever register (and so own)
            # them, so they must be discarded or they accumulate under
            # /restore/materialized forever.
            self._discard_paths.extend(candidate.path
                                       for candidate in candidates)
            return
        if self.register_whole_jobs:
            for store in job.plan.stores():
                if store.injected:
                    continue
                if not store.temporary and not self.register_final_outputs:
                    continue
                self.apply_register(
                    job.plan, store.inputs[0], store.path,
                    self._entry_stats(store.path, run_result),
                    owns_file=store.temporary, origin="whole-job")
        for candidate in candidates:
            self.apply_register(
                job.plan, candidate.operator, candidate.path,
                self._entry_stats(candidate.path, run_result),
                owns_file=True, origin="sub-job")

    # Matching & rewriting -------------------------------------------------------

    def _stamp_load_versions(self, job):
        for load in job.loads():
            if self.dfs.exists(load.path):
                load.version = self.dfs.status(load.path).version

    def _match_and_rewrite(self, job):
        """Scan the repository; rewrite on the first match; rescan until
        no plan matches (paper Section 3).

        Each pass asks the repository for its match candidates — entries
        the leaf-load index (and, for a sharded repository, the shard
        fan-out merge) cannot rule out, in scan order. Skipped entries
        provably cannot match (a containment maps every entry Load onto
        an identically-versioned job Load), so the first candidate that
        matches is exactly the entry the seed's full sequential scan
        would have chosen. The candidates are recomputed every pass
        because a rewrite changes the job's load set.

        Every candidate the filter let through is accounted for in the
        report's :class:`~repro.restore.stats.MatchCounters`: matched,
        skipped because its stored output no longer exists, or skipped
        because the exact containment test rejected it after the
        candidate merge.
        """
        counters = self.last_report.match_counters
        record_hit = getattr(self.repository, "record_match_hit", None)
        # Use-stamps go through the repository's change-event channel so
        # an attached RepositoryLog persists them (Rule 3 reuse windows
        # survive a restart); the frozen seed baseline has no channel and
        # gets the direct stamp.
        record_use = getattr(self.repository, "record_use", None)
        progressed = True
        while progressed:
            progressed = False
            for entry in self._match_candidates(job):
                counters.candidates_tried += 1
                if not self.dfs.exists(entry.output_path):
                    counters.skipped_missing_output += 1
                    continue
                match = find_containment(entry.plan, job.plan)
                if match is None:
                    counters.skipped_no_containment += 1
                    continue
                self._record_ranking_decision(job, entry)
                apply_rewrite(job, match, entry, self.dfs)
                if record_use is not None:
                    record_use(entry, self.clock.now())
                else:
                    entry.stats.record_use(self.clock.now())
                counters.matched += 1
                if record_hit is not None:
                    record_hit(entry)
                self.last_report.rewrites.append((job.job_id, entry.entry_id))
                progressed = True
                break

    def _record_ranking_decision(self, job, entry):
        """Ledger one applied rewrite's estimated vs realized savings.

        The estimate comes from the active ranker when it has one (so
        the ledger logs exactly the number the ranker ranked by, even
        when the ranker was constructed over a different cost model);
        rankers that do not estimate — the structural default — get the
        same accounting from the manager's cost model. Realized savings
        re-evaluate against the same model, so the estimated-vs-realized
        delta isolates estimator error, not model disagreement.
        """
        estimated = self.ranker.estimated_savings(entry)
        model = getattr(self.ranker, "cost_model", None) or self.cost_model
        if estimated is None:
            estimated = estimate_entry_savings(entry, model)
        self.last_report.ranking.record(
            job.job_id, entry.entry_id, estimated,
            realized_entry_savings(entry, model, self.dfs))

    def _match_candidates(self, job):
        """The repository's candidates for ``job``, in the ranker's
        try order.

        The structural default calls ``match_candidates(plan)`` exactly
        as the seed did — keeping that path signature-identical is what
        lets the lock-step property suite drive the frozen baseline
        repository (which accepts no ranker) through this manager.
        """
        if self.ranker.is_structural:
            return self.repository.match_candidates(job.plan)
        return self.repository.match_candidates(job.plan, ranker=self.ranker)

    def _simplify(self, job, workflow):
        """Drop copy stores; eliminate the job when nothing remains.

        Returns False when the job is fully served from stored outputs.
        """
        removable, _ = classify_copy_stores(job)
        if not removable:
            return True
        if len(removable) == len(job.plan.sinks):
            for store, load in removable:
                self._rewire_dependents(workflow, store.path, load.path)
            self.last_report.eliminated_jobs.append(job.job_id)
            return False
        for store, load in removable:
            job.plan.remove_sink(store)
            self._rewire_dependents(workflow, store.path, load.path)
        restamp_stages(job)
        return True

    def _rewire_dependents(self, workflow, old_path, new_path):
        """Point every load of ``old_path`` in the workflow at ``new_path``
        (versions are stamped when the reading job is prepared)."""
        for other in workflow.jobs:
            for load in other.loads():
                if load.path == old_path:
                    load.path = new_path

    # Registration --------------------------------------------------------------

    def _allocate_materialized_path(self):
        return f"{self._mat_prefix}/m{next(self._mat_counter)}"

    def _entry_stats(self, output_path, run_result):
        """The execution statistics a registration records (Section 2.2)."""
        return EntryStats(
            input_bytes=run_result.stats.map_input_bytes,
            output_bytes=(self.dfs.file_size(output_path)
                          if self.dfs.exists(output_path) else 0),
            producing_job_time=run_result.execution_time,
            map_time=run_result.breakdown.t_load,
            reduce_time=run_result.breakdown.t_store,
            created_tick=self.clock.now(),
        )

    def apply_register(self, job_plan, frontier_op, output_path, stats,
                       owns_file, origin):
        """Clone, dedup, admit-or-reject one registration.

        The subtree of ``job_plan`` ending at ``frontier_op`` becomes the
        entry plan ``Loads → … → Store(output_path)``. A plan equivalent
        to a stored entry is not stored twice, and the retention policy
        (Rules 1-2) decides admission. Files nothing will own are queued
        for the end-of-submit discard.
        """
        clone, _ = job_plan.clone_subgraph(frontier_op)
        if isinstance(clone, POLoad):
            # trivial Load->Store plans are never useful
            if origin == "sub-job":
                self._discard_paths.append(output_path)
            return
        entry_plan = PhysicalPlan([POStore(clone, output_path)])
        existing = self.repository.find_equivalent(entry_plan)
        if existing is not None:
            if existing.output_path == output_path:
                # A re-registration at the same content-addressed path:
                # the "duplicate" file IS the entry's stored file, so
                # shield it from any queued discard.
                self._kept_paths.add(output_path)
            if origin == "sub-job":
                # A duplicate at a *different* path references nothing —
                # the existing entry keeps its own file — so it must
                # stay discardable: shielding it would leak one orphan
                # materialized file (and one shield-set string) per
                # re-enumerated sub-plan, forever.
                self._discard_paths.append(output_path)
            return
        versions = {load.path: load.version for load in entry_plan.loads()}
        entry = RepositoryEntry(entry_plan, output_path, stats,
                                input_versions=versions, owns_file=owns_file,
                                origin=origin)
        if self.retention.should_keep(entry, self.cost_model):
            self.repository.insert(entry)
            self._kept_paths.add(output_path)
            self.last_report.registered_entries.append(entry.entry_id)
        else:
            self.last_report.rejected_candidates.append(output_path)
            if owns_file:
                self._discard_paths.append(output_path)
