"""End-to-end ReStore tests: reuse across workflows, per the paper."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.restore import (
    AggressiveHeuristic,
    ConservativeHeuristic,
    NoHeuristic,
    ReStore,
    ReStoreReport,
)
from repro.restore.stats import EntryStats

from tests.helpers import (
    compile_query,
    make_cost_model,
    make_dfs,
    Q1_TEXT,
    Q2_TEXT,
    seed_page_views,
    seed_users,
)


def fresh_restore(dfs, **kwargs):
    return ReStore(dfs, make_cost_model(), **kwargs)


def baseline_output(text, out_path):
    """Run ``text`` on a fresh, identical cluster without any reuse."""
    dfs = make_dfs()
    seed_page_views(dfs)
    seed_users(dfs, include=range(6))
    from repro.mapreduce import WorkflowExecutor

    workflow = compile_query(text, "baseline", dfs)
    WorkflowExecutor(dfs, make_cost_model()).execute(workflow)
    return dfs.read_lines(out_path)


class TestWholeJobReuse:
    def setup_method(self):
        self.dfs = make_dfs()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_q2_reuses_q1_join(self):
        # The paper's running example (Figures 2-4): Q1's join job output
        # is reused by Q2, whose workflow drops to one MapReduce job.
        restore = fresh_restore(self.dfs, heuristic=None)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        assert len(restore.repository) >= 1

        result = restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        report = restore.last_report
        assert report.num_rewrites >= 1
        executed = [r for r in result.job_results.values() if not r.skipped]
        assert len(executed) == 1  # only the group job ran

    def test_rewritten_q2_output_identical_to_baseline(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        assert self.dfs.read_lines("/out/L3_out") == baseline_output(
            Q2_TEXT, "/out/L3_out"
        )

    def test_resubmitted_workflow_eliminates_intermediate_job(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        first = restore.submit(compile_query(Q2_TEXT, "first", self.dfs))
        second = restore.submit(compile_query(Q2_TEXT, "second", self.dfs))
        assert restore.last_report.eliminated_jobs  # the join job vanished
        assert second.total_time < first.total_time
        assert self.dfs.read_lines("/out/L3_out") == baseline_output(
            Q2_TEXT, "/out/L3_out"
        )

    def test_reuse_is_faster(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        first = restore.submit(compile_query(Q2_TEXT, "w1", self.dfs))
        second = restore.submit(compile_query(Q2_TEXT, "w2", self.dfs))
        assert second.total_time < first.total_time

    def test_modified_input_prevents_reuse(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        # Overwrite page_views: versions change, stored outputs are stale.
        seed_page_views(self.dfs, seed=99)
        restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        assert restore.last_report.num_rewrites == 0
        # Output must reflect the NEW data (no stale reuse).
        fresh = make_dfs()
        seed_page_views(fresh, seed=99)
        seed_users(fresh, include=range(6))
        from repro.mapreduce import WorkflowExecutor

        WorkflowExecutor(fresh, make_cost_model()).execute(
            compile_query(Q2_TEXT, "check", fresh)
        )
        assert self.dfs.read_lines("/out/L3_out") == fresh.read_lines("/out/L3_out")


class TestSubJobReuse:
    def setup_method(self):
        self.dfs = make_dfs()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_aggressive_injects_stores_for_q1(self):
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        kinds = sorted(kind for _, kind, _ in restore.last_report.injected_stores)
        # Two Projects get Split+Store (Figure 8); the Join feeds the final
        # Store so its output is already materialized.
        assert kinds == ["foreach", "foreach"]

    def test_conservative_vs_aggressive_on_q2(self):
        # The Join itself feeds job1's Store (its output is already
        # materialized as the inter-job temp), so HA adds the Group only.
        for heuristic, expected_kinds in (
            (ConservativeHeuristic(), {"foreach"}),
            (AggressiveHeuristic(), {"foreach", "group"}),
        ):
            dfs = make_dfs()
            seed_page_views(dfs)
            seed_users(dfs, include=range(6))
            restore = fresh_restore(dfs, heuristic=heuristic)
            restore.submit(compile_query(Q2_TEXT, "q2", dfs))
            kinds = {kind for _, kind, _ in restore.last_report.injected_stores}
            assert kinds == expected_kinds

    def test_no_heuristic_injects_most(self):
        counts = {}
        for heuristic in (ConservativeHeuristic(), AggressiveHeuristic(), NoHeuristic()):
            dfs = make_dfs()
            seed_page_views(dfs)
            seed_users(dfs, include=range(6))
            restore = fresh_restore(dfs, heuristic=heuristic)
            restore.submit(compile_query(Q2_TEXT, "q2", dfs))
            counts[heuristic.name] = len(restore.last_report.injected_stores)
        assert counts["conservative"] <= counts["aggressive"] <= counts["no-heuristic"]

    def test_injection_preserves_query_output(self):
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        assert self.dfs.read_lines("/out/L3_out") == baseline_output(
            Q2_TEXT, "/out/L3_out"
        )

    def test_q1_reuses_projection_subjobs(self):
        # Figure 6: after the projections are stored, a re-submitted Q1 is
        # rewritten to load the two projected datasets.
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "first", self.dfs))
        result = restore.submit(compile_query(Q1_TEXT, "second", self.dfs))
        # Second run: the entire job was matched (join output stored), so
        # the job collapses to a copy; or at minimum projections reused.
        assert restore.last_report.num_rewrites >= 1
        assert self.dfs.read_lines("/out/L2_out") == baseline_output(
            Q1_TEXT, "/out/L2_out"
        )

    def test_subjob_enables_reuse_across_different_queries(self):
        # Store sub-jobs from Q1; then a NEW query over the projected
        # page_views (group by user) reuses the projection sub-job.
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        other = """
        A = load '/data/page_views' as (user:chararray, timestamp:int,
            est_revenue:double, page_info:chararray, page_links:chararray);
        B = foreach A generate user, est_revenue;
        C = group B by user;
        D = foreach C generate group, COUNT(B);
        store D into '/out/other';
        """
        restore.submit(compile_query(other, "other", self.dfs))
        assert restore.last_report.num_rewrites >= 1

    def test_materialized_files_live_under_restore_prefix(self):
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        materialized = self.dfs.list_files(ReStore.MATERIALIZED_PREFIX)
        assert len(materialized) == 2


class TestRepositoryBehaviour:
    def setup_method(self):
        self.dfs = make_dfs()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_whole_job_entry_preferred_over_subjob(self):
        # Ordering rule 1: the join plan subsumes the projection sub-plans,
        # so it must come first in the scan order.
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        entries = restore.repository.scan()
        sizes = [entry.num_operators for entry in entries]
        join_entries = [e for e in entries if any(
            op.kind == "join" for op in e.plan.operators())]
        first_join_pos = entries.index(join_entries[0])
        projection_only = [
            e for e in entries
            if all(op.kind in ("load", "foreach", "store")
                   for op in e.plan.operators())
            and any(op.kind == "foreach" for op in e.plan.operators())
        ]
        for proj in projection_only:
            # every subsumed projection entry appears after the join entry
            if any(op.path == "/data/page_views" for op in proj.plan.loads()):
                assert entries.index(proj) > first_join_pos

    def test_q2_rewrite_uses_join_not_projections(self):
        # With both the whole join and the projections stored, Q2 must be
        # rewritten with the join output (the best match, Section 3).
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        used = [entry_id for _, entry_id in restore.last_report.rewrites]
        first_entry = restore.repository.entry(used[0])
        assert any(op.kind == "join" for op in first_entry.plan.operators())

    def test_registration_can_be_disabled(self):
        restore = fresh_restore(self.dfs, heuristic=None, enable_registration=False)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        assert len(restore.repository) == 0

    def test_rewrite_can_be_disabled(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        no_reuse = fresh_restore(self.dfs, heuristic=None, enable_rewrite=False)
        no_reuse.repository = restore.repository
        no_reuse.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        assert no_reuse.last_report.num_rewrites == 0


class TestResourceAccounting:
    """Regression tests for the PR 4 leak fixes."""

    def setup_method(self):
        self.dfs = make_dfs()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_disabled_registration_discards_materialized_files(self):
        """With registration off, injected sub-job stores still execute
        and write to the DFS; their outputs must be discarded after the
        submit instead of accumulating forever."""
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic(),
                                enable_registration=False)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        assert len(restore.repository) == 0
        assert self.dfs.list_files(ReStore.MATERIALIZED_PREFIX) == []

    def test_duplicate_candidates_are_discarded_not_shielded(self):
        """Regression: a sub-job candidate equivalent to an existing
        entry materializes a redundant file at a fresh path; it must be
        discarded, not shielded forever by _kept_paths (which the
        eviction pruning can never reach — no entry owns that path)."""
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic(),
                                enable_rewrite=False)
        restore.submit(compile_query(Q1_TEXT, "first", self.dfs))
        first_files = set(self.dfs.list_files(ReStore.MATERIALIZED_PREFIX))
        kept_before = len(restore._kept_paths)
        # Re-enumeration materializes the same sub-plans at fresh paths;
        # find_equivalent dedups them, and the fresh files must go.
        restore.submit(compile_query(Q1_TEXT, "second", self.dfs))
        assert set(self.dfs.list_files(ReStore.MATERIALIZED_PREFIX)) == \
            first_files
        assert len(restore._kept_paths) == kept_before

    def test_kept_paths_pruned_on_eviction(self):
        """Paths whose entries the sweep evicts must leave _kept_paths:
        a long-running manager must not leak memory, and a stale path
        must not shield a later discard of the same location."""
        from repro.restore import HeuristicRetentionPolicy

        restore = fresh_restore(
            self.dfs, heuristic=AggressiveHeuristic(),
            retention=HeuristicRetentionPolicy(window_ticks=100))
        removed_paths = []

        def observe(op, entry):
            if op == "remove":
                removed_paths.append(entry.output_path)

        restore.repository.add_listener(observe)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        assert restore._kept_paths
        # Rule 4: modifying the users dataset evicts every entry that
        # read the old version at the next sweep.
        seed_users(self.dfs, include=range(4))
        restore.submit(compile_query(Q1_TEXT.replace(
            "'/out/L2_out'", "'/out/L2_again'"), "q1b", self.dfs))
        assert restore.last_report.evicted_entries
        assert removed_paths
        # No evicted entry's path lingers in the shield set, so a later
        # discard of the same location is no longer wrongly blocked.
        assert not set(removed_paths) & restore._kept_paths

    def test_disabled_registration_discards_files_once(self):
        """With registration off, every pending candidate's file is
        queued for discard exactly once, so each path is deleted once."""
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic(),
                                enable_registration=False)
        deleted = []
        original = self.dfs.delete_if_exists

        def counting_delete(path):
            deleted.append(path)
            return original(path)

        self.dfs.delete_if_exists = counting_delete
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        restore.close()
        assert len(restore.repository) == 0
        assert self.dfs.list_files(ReStore.MATERIALIZED_PREFIX) == []
        materialized = [path for path in deleted
                        if path.startswith(ReStore.MATERIALIZED_PREFIX)]
        assert materialized  # the injected stores did execute
        assert len(materialized) == len(set(materialized))


class TestInlineRegistration:
    def setup_method(self):
        self.dfs = make_dfs()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_equivalent_registration_keeps_first_entry(self):
        """A second registration of the same computation at another path
        is deduplicated by ``find_equivalent``: one entry, the first
        path, one registration on the report."""
        manager = fresh_restore(self.dfs, heuristic=None)
        job = compile_query(Q1_TEXT, "manual", self.dfs).topological_jobs()[0]
        frontier = job.plan.stores()[0].inputs[0]
        manager.last_report = ReStoreReport("manual")
        for path in ("/stored/a", "/stored/b"):
            stats = EntryStats(input_bytes=1000, output_bytes=10,
                               producing_job_time=2.0, map_time=0.5,
                               reduce_time=0.5, created_tick=1)
            manager.apply_register(job.plan, frontier, path, stats,
                                   owns_file=False, origin="whole-job")
        [entry] = manager.repository.scan()
        assert entry.output_path == "/stored/a"
        assert len(manager.last_report.registered_entries) == 1

    def test_restore_starts_no_processes_or_threads(self):
        """ReStore runs in one process on the caller's thread: a durable
        submit imports no process or thread-pool machinery and leaves
        only the main thread alive."""
        script = textwrap.dedent("""
            import sys
            import threading

            import repro
            from tests.helpers import (compile_query, make_cost_model,
                                       make_dfs, Q1_TEXT, seed_page_views,
                                       seed_users)

            dfs = make_dfs()
            seed_page_views(dfs)
            seed_users(dfs, include=range(6))
            manager = repro.restore.ReStore(dfs, make_cost_model(),
                                            persistence=True)
            manager.submit(compile_query(Q1_TEXT, "q1", dfs))
            assert len(manager.repository) > 0
            loaded = {"multiprocessing", "concurrent.futures"} & set(sys.modules)
            assert not loaded, loaded
            assert threading.active_count() == 1, threading.enumerate()
        """)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([os.path.join(root, "src"),
                                               root]))
        completed = subprocess.run([sys.executable, "-c", script], cwd=root,
                                   env=env, capture_output=True, text=True,
                                   timeout=120)
        assert completed.returncode == 0, completed.stderr
