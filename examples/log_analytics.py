"""Log analytics: the paper's motivating scenario (Section 1).

An internet company's usage-log warehouse is queried by many analysts.
Every query starts the same way — load the logs, project/filter away most
of the data — and then does its own analysis. ReStore materializes those
shared early steps as sub-jobs the first time they run; every later query,
even a *different* one submitted at a different time, is rewritten to
start from the materialized data.

The script simulates a day of ad-hoc analysis and reports per-query
times with and without ReStore, plus what the repository accumulated.

Run:  python examples/log_analytics.py
"""

from repro import PigSystem
from repro.common import format_ratio
from repro.pigmix import PigMixConfig, PigMixData

LOAD_LOGS = """
A = load '/data/page_views' as (user:chararray, action:int, timespent:int,
    query_term:chararray, ip_addr:chararray, timestamp:int,
    estimated_revenue:double, page_info:chararray, page_links:chararray);
"""

# Five analyst queries sharing the load + project/filter prefix.
ANALYST_QUERIES = {
    "revenue_by_user": LOAD_LOGS + """
B = foreach A generate user, estimated_revenue;
C = group B by user;
D = foreach C generate group, SUM(B.estimated_revenue);
store D into '/out/revenue_by_user';
""",
    "sessions_by_user": LOAD_LOGS + """
B = foreach A generate user, estimated_revenue;
C = group B by user;
D = foreach C generate group, COUNT(B);
store D into '/out/sessions_by_user';
""",
    "morning_traffic": LOAD_LOGS + """
B = foreach A generate user, timestamp;
C = filter B by timestamp < 43200;
D = group C by user;
E = foreach D generate group, COUNT(C);
store E into '/out/morning_traffic';
""",
    "afternoon_traffic": LOAD_LOGS + """
B = foreach A generate user, timestamp;
C = filter B by timestamp >= 43200;
D = group C by user;
E = foreach D generate group, COUNT(C);
store E into '/out/afternoon_traffic';
""",
    "top_spenders": LOAD_LOGS + """
B = foreach A generate user, estimated_revenue;
C = group B by user;
D = foreach C generate group, SUM(B.estimated_revenue) as total;
E = order D by total desc;
F = limit E 10;
store F into '/out/top_spenders';
""",
}


def build_system():
    system = PigSystem()
    PigMixData(PigMixConfig(num_page_views=3_000, num_users=150)).install(system.dfs)
    # Calibrate: the logs count as 150 GB.
    scale = 150 * 1024**3 / system.dfs.file_size("/data/page_views")
    return system.with_scale(scale)


def main():
    print(f"{'query':>20}  {'no reuse':>10}  {'ReStore':>10}  {'speedup':>8}  rewrites")
    baseline_system = build_system()
    restore_system = build_system()
    restore = restore_system.restore()

    total_plain = 0.0
    total_restore = 0.0
    for name, query in ANALYST_QUERIES.items():
        plain = baseline_system.run(query, name)
        result = restore.submit(restore_system.compile(query, name))
        report = restore.last_report
        # Results must agree between the two clusters.
        out_path = f"/out/{name}"
        assert (baseline_system.dfs.read_lines(out_path)
                == restore_system.dfs.read_lines(out_path)), name
        total_plain += plain.total_time
        total_restore += result.total_time
        print(f"{name:>20}  {plain.total_time:9.0f}s  {result.total_time:9.0f}s  "
              f"{format_ratio(plain.total_time, result.total_time):>8}  "
              f"{report.num_rewrites}")

    print("-" * 66)
    print(f"{'TOTAL':>20}  {total_plain:9.0f}s  {total_restore:9.0f}s  "
          f"{format_ratio(total_plain, total_restore):>8}")
    print(f"\nrepository: {len(restore.repository)} entries, "
          f"{restore.repository.total_stored_bytes()} stored bytes (actual)")
    reused = [e for e in restore.repository if e.stats.use_count > 0]
    print(f"entries reused at least once: {len(reused)}")
    for entry in reused:
        print(f"  - {entry.describe()} (uses={entry.stats.use_count})")


if __name__ == "__main__":
    main()
