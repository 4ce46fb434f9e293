"""Quickstart: the paper's running example (queries Q1 and Q2).

Q1 joins page_views with users; Q2 performs the same join and then groups
and aggregates. With ReStore, executing Q1 stores its job outputs (and the
outputs of materialized sub-jobs); submitting Q2 afterwards rewrites its
workflow to reuse the stored join instead of recomputing it (paper
Figures 2-4).

Run:  python examples/quickstart.py
"""

from repro import PigSystem
from repro.common import format_ratio
from repro.pigmix import PigMixConfig, PigMixData

Q1 = """
A = load '/data/page_views' as (user:chararray, action:int, timespent:int,
    query_term:chararray, ip_addr:chararray, timestamp:int,
    estimated_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, estimated_revenue;
alpha = load '/data/users' as (name:chararray, phone:chararray,
    address:chararray, city:chararray, state:chararray, zip:chararray);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into '/out/L2_out';
"""

Q2 = """
A = load '/data/page_views' as (user:chararray, action:int, timespent:int,
    query_term:chararray, ip_addr:chararray, timestamp:int,
    estimated_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, estimated_revenue;
alpha = load '/data/users' as (name:chararray, phone:chararray,
    address:chararray, city:chararray, state:chararray, zip:chararray);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.estimated_revenue);
store E into '/out/L3_out';
"""


def main():
    # A simulated 15-node cluster with a small PigMix-style dataset,
    # cost-calibrated so that page_views counts as the paper's 15 GB.
    system = PigSystem()
    PigMixData(PigMixConfig(num_page_views=2_000, num_users=100)).install(system.dfs)
    system = system.with_scale(15 * 1024**3 / system.dfs.file_size("/data/page_views"))

    # Baseline: Q2 with no reuse at all.
    baseline = system.run(Q2, "q2-baseline")
    baseline_output = system.dfs.read_lines("/out/L3_out")
    print(f"Q2 without reuse:      {baseline.total_time:8.1f} simulated seconds "
          f"({len(baseline.workflow.jobs)} MapReduce jobs)")

    # With ReStore: run Q1 first (populates the repository)...
    restore = system.restore()
    q1_result = restore.submit(system.compile(Q1, "q1"))
    print(f"Q1 with ReStore:       {q1_result.total_time:8.1f} simulated seconds; "
          f"repository now holds {len(restore.repository)} entr(ies)")

    # ... then submit Q2: its join job is rewritten away.
    q2_result = restore.submit(system.compile(Q2, "q2"))
    report = restore.last_report
    print(f"Q2 with ReStore:       {q2_result.total_time:8.1f} simulated seconds; "
          f"{report.num_rewrites} rewrite(s), "
          f"{len(report.eliminated_jobs)} job(s) eliminated")

    # Reuse never changes results.
    assert system.dfs.read_lines("/out/L3_out") == baseline_output
    speedup = format_ratio(baseline.total_time, q2_result.total_time)
    print(f"Speedup from reuse:    {speedup:>9}  (outputs verified identical)")

    # Re-submitting Q2 finds everything in the repository: the whole
    # workflow collapses.
    q2_again = restore.submit(system.compile(Q2, "q2-again"))
    print(f"Q2 re-submitted:       {q2_again.total_time:8.1f} simulated seconds "
          f"({format_ratio(baseline.total_time, q2_again.total_time, '.0f')})")
    assert system.dfs.read_lines("/out/L3_out") == baseline_output

    print("\nRepository contents:")
    print(restore.repository.describe())


if __name__ == "__main__":
    main()
