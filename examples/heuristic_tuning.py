"""Choosing a sub-job heuristic: Conservative vs Aggressive vs None.

Section 7.3 of the paper compares the heuristics on overhead (extra time
and storage while materializing) and benefit (speedup when reusing).
This example reproduces that trade-off on one workload — a wide GROUP
query like PigMix L6, the case the paper calls out as HA's risk — and on
a cheap projection query where HA shines.

Run:  python examples/heuristic_tuning.py
"""

from repro import PigSystem
from repro.common import format_ratio
from repro.pigmix import PigMixConfig, PigMixData
from repro.restore import (
    AggressiveHeuristic,
    ConservativeHeuristic,
    NoHeuristic,
    Repository,
)

WIDE_GROUP = """
A = load '/data/page_views' as (user:chararray, action:int, timespent:int,
    query_term:chararray, ip_addr:chararray, timestamp:int,
    estimated_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, action, timespent, query_term;
C = group B by (user, query_term) parallel 40;
D = foreach C generate flatten(group), SUM(B.timespent);
store D into '/out/wide_group';
"""

CHEAP_PROJECTION = """
A = load '/data/page_views' as (user:chararray, action:int, timespent:int,
    query_term:chararray, ip_addr:chararray, timestamp:int,
    estimated_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, estimated_revenue;
C = group B by user parallel 40;
D = foreach C generate group, SUM(B.estimated_revenue);
store D into '/out/cheap_projection';
"""


def build_system():
    system = PigSystem()
    PigMixData(PigMixConfig(num_page_views=3_000, num_users=150)).install(system.dfs)
    scale = 150 * 1024**3 / system.dfs.file_size("/data/page_views")
    return system.with_scale(scale)


def evaluate(query, label):
    print(f"\n--- {label} ---")
    print(f"{'heuristic':>14}  {'overhead':>9}  {'stored MB':>10}  {'speedup':>8}")
    system = build_system()
    plain = system.run(query, "plain").total_time
    for heuristic in (ConservativeHeuristic(), AggressiveHeuristic(), NoHeuristic()):
        repository = Repository()
        generating = system.restore(
            heuristic=heuristic,
            enable_rewrite=False,
            register_final_outputs=False,
            repository=repository,
        )
        gen_result = generating.submit(system.compile(query, "generate"))
        stored = sum(
            result.stats.injected_store_bytes
            for result in gen_result.job_results.values()
        )
        reusing = system.restore(heuristic=None, enable_registration=False,
                                 repository=repository)
        reuse_result = reusing.submit(system.compile(query, "reuse"))
        overhead = gen_result.total_time / plain
        speedup = format_ratio(plain, reuse_result.total_time)
        stored_mb = stored * system.cost_model.config.scale / 1024**2
        print(f"{heuristic.name:>14}  {overhead:8.2f}x  {stored_mb:10,.0f}  "
              f"{speedup:>8}")
    print(f"(no-reuse baseline: {plain:.0f} simulated seconds)")


def main():
    evaluate(CHEAP_PROJECTION, "cheap projection + group (HA shines)")
    evaluate(WIDE_GROUP, "wide group, large bags (HA's risk case, like PigMix L6)")
    print(
        "\nTakeaway (matches Section 7.3): the Aggressive Heuristic gives"
        "\nthe most reuse benefit and usually costs little more than the"
        "\nConservative one — but for wide groups its materialized Group"
        "\noutput is large, so the overhead risk is real. No-Heuristic"
        "\nnever beats Aggressive."
    )


if __name__ == "__main__":
    main()
