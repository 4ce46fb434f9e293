"""Unit tests for the sharded repository (layout, fan-out, per-shard
statistics, and the manager integration)."""

import pytest

from repro import PigSystem
from repro.common.errors import RepositoryError
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore import (
    Repository,
    RepositoryEntry,
    ShardedRepository,
)
from repro.restore.persistence import SkeletonOp
from repro.restore.sharding import CATCHALL_SHARD, shard_index_for_key
from repro.restore.stats import EntryStats

from tests.helpers import (
    Q1_TEXT,
    Q2_TEXT,
    seed_page_views,
    seed_users,
)


def _chain_plan(index, path, extra_op=None):
    """Load -> Filter [-> ForEach] -> Store skeleton plan (cheap fixture)."""
    load = POLoad(path, None, 0)
    chain = SkeletonOp("filter", f"FILTER[a>{index}]", None, [load])
    if extra_op is not None:
        chain = SkeletonOp("foreach", f"FOREACH[{extra_op}]", None, [chain])
    return PhysicalPlan([POStore(chain, f"/stored/s{index}")])


def _entry(index, path="/data/d0"):
    stats = EntryStats(input_bytes=1000 + index, output_bytes=10 + index,
                       producing_job_time=1.0 + index)
    return RepositoryEntry(_chain_plan(index, path), f"/stored/s{index}", stats)


def _unkeyable_entry(index):
    """An entry whose leaf Load cannot be keyed (foreign signature)."""
    load = SkeletonOp("load", f"FOREIGN[{index}]", None, [])
    chain = SkeletonOp("filter", f"FILTER[u>{index}]", None, [load])
    plan = PhysicalPlan([POStore(chain, f"/stored/u{index}")])
    stats = EntryStats(1000, 10, 1.0)
    return RepositoryEntry(plan, f"/stored/u{index}", stats)


def pigmix_system():
    system = PigSystem()
    seed_page_views(system.dfs)
    seed_users(system.dfs, include=range(6))
    return system


class TestShardLayout:
    def test_hash_is_stable_and_in_range(self):
        key = ("/data/page_views", 3)
        first = shard_index_for_key(key, 8)
        assert first == shard_index_for_key(key, 8)  # deterministic
        assert 0 <= first < 8
        assert shard_index_for_key(key, 1) == 0

    def test_every_entry_owned_by_exactly_one_shard(self):
        repo = ShardedRepository(num_shards=4)
        for index in range(20):
            repo.insert(_entry(index, path=f"/data/d{index % 6}"))
        occupancies = [len(shard) for shard in repo.partitions()]
        assert sum(occupancies) == len(repo) == 20
        # The same entry id never appears in two partitions.
        seen = set()
        for shard in repo.partitions():
            for entry in shard:
                assert entry.entry_id not in seen
                seen.add(entry.entry_id)

    def test_layout_reproducible_across_instances(self):
        a, b = ShardedRepository(8), ShardedRepository(8)
        for index in range(12):
            path = f"/data/d{index % 5}"
            a.insert(_entry(index, path))
            b.insert(_entry(index, path))
        layout_a = [[e.output_path for e in shard] for shard in a.partitions()]
        layout_b = [[e.output_path for e in shard] for shard in b.partitions()]
        assert layout_a == layout_b

    def test_unkeyable_entries_live_in_catchall(self):
        repo = ShardedRepository(num_shards=4)
        repo.insert(_unkeyable_entry(1))
        report = repo.shard_report()
        assert report[-1]["shard"] == CATCHALL_SHARD
        assert report[-1]["occupancy"] == 1
        assert all(row["occupancy"] == 0 for row in report[:-1])

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedRepository(num_shards=0)

    def test_invalid_executor_rejected(self):
        # Probes run serially in-process; there is no executor knob.
        with pytest.raises(TypeError):
            ShardedRepository(num_shards=2, executor="bogus")


class TestFanOut:
    def test_probe_consults_only_owning_shards(self):
        repo = ShardedRepository(num_shards=8)
        for index in range(16):
            repo.insert(_entry(index, path=f"/data/d{index % 4}"))
        probe = _chain_plan(0, "/data/d0", extra_op="probe")
        before = {shard.shard_id: shard.stats.probes
                  for shard in repo.partitions()}
        repo.match_candidates(probe)
        probed = [shard.shard_id for shard in repo.partitions()
                  if shard.stats.probes > before[shard.shard_id]]
        # One load key -> at most one shard (catch-all is empty, skipped).
        assert len(probed) == 1
        assert probed[0] == shard_index_for_key(("/data/d0", 0), 8)

    def test_occupied_catchall_always_consulted(self):
        repo = ShardedRepository(num_shards=4)
        repo.insert(_entry(0, path="/data/d0"))
        unkeyable = _unkeyable_entry(1)
        repo.insert(unkeyable)
        probe = _chain_plan(0, "/data/d0", extra_op="probe")
        candidates = repo.match_candidates(probe)
        # The catch-all entry cannot be ruled out by the load filter, so
        # it must be among the candidates (exactly as the unsharded
        # repository treats unkeyable entries).
        assert unkeyable in candidates

    def test_candidates_match_unsharded_repository(self):
        plain = Repository()
        sharded = ShardedRepository(num_shards=8)
        for index in range(30):
            path = f"/data/d{index % 7}"
            plain.insert(_entry(index, path))
            sharded.insert(_entry(index, path))
        for key_index in range(7):
            probe = _chain_plan(1000 + key_index, f"/data/d{key_index}",
                                extra_op="probe")
            assert [e.output_path for e in sharded.match_candidates(probe)] \
                == [e.output_path for e in plain.match_candidates(probe)]

    def test_unkeyable_probe_falls_back_to_full_scan(self):
        repo = ShardedRepository(num_shards=4)
        for index in range(6):
            repo.insert(_entry(index, path=f"/data/d{index % 2}"))
        probe_load = SkeletonOp("load", "FOREIGN[p]", None, [])
        probe_chain = SkeletonOp("filter", "FILTER[p]", None, [probe_load])
        probe = PhysicalPlan([POStore(probe_chain, "/out/p")])
        assert repo.match_candidates(probe) == repo.scan()

    def test_removal_updates_shard(self):
        repo = ShardedRepository(num_shards=4)
        entries = [repo.insert(_entry(index, path=f"/data/d{index % 3}"))
                   for index in range(9)]
        repo.remove(entries[4])
        assert sum(len(shard) for shard in repo.partitions()) == 8
        probe = _chain_plan(4, f"/data/d{4 % 3}", extra_op="probe")
        assert entries[4] not in repo.match_candidates(probe)
        with pytest.raises(RepositoryError):
            repo.remove(entries[4])


class TestShardStats:
    def test_probe_and_candidate_counters(self):
        repo = ShardedRepository(num_shards=2)
        for index in range(10):
            repo.insert(_entry(index, path="/data/d0"))
        probe = _chain_plan(3, "/data/d0")  # equivalent to entry 3
        repo.match_candidates(probe)
        owning = shard_index_for_key(("/data/d0", 0), 2)
        report = {row["shard"]: row for row in repo.shard_report()}
        assert report[owning]["probes"] == 1
        assert report[owning]["candidates_returned"] == 10
        assert report[owning]["occupancy"] == 10

    def test_match_hits_credited_to_owning_shard(self):
        system = pigmix_system()
        repository = ShardedRepository(num_shards=4)
        restore = system.restore(repository=repository)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        assert restore.last_report.num_rewrites >= 1
        assert sum(row["match_hits"]
                   for row in repository.shard_report()) >= 1

    def test_merged_stats_count_logical_probes_once(self):
        # Regression: a probe whose load keys land in an owned shard
        # while the catch-all is occupied consults BOTH partitions. The
        # per-shard probe counters each record their own consultation,
        # so summing that column counts one logical probe twice; the
        # merged view must report it once.
        repo = ShardedRepository(num_shards=4)
        repo.insert(_entry(0, path="/data/d0"))
        repo.insert(_unkeyable_entry(1))  # occupies the catch-all
        probe = _chain_plan(0, "/data/d0", extra_op="probe")
        repo.match_candidates(probe)
        merged = repo.merged_shard_stats()
        assert merged["probes"] == 1
        assert merged["shard_consults"] == 2  # owned shard + catch-all
        # The naive sum over shard_report() is exactly the double count
        # the merged view corrects.
        assert sum(row["probes"] for row in repo.shard_report()) == 2

    def test_merged_stats_without_catchall_agree_with_sum(self):
        repo = ShardedRepository(num_shards=4)
        repo.insert(_entry(0, path="/data/d0"))
        probe = _chain_plan(0, "/data/d0", extra_op="probe")
        repo.match_candidates(probe)
        repo.match_candidates(probe)
        merged = repo.merged_shard_stats()
        assert merged["probes"] == 2
        assert merged["shard_consults"] == 2  # empty catch-all skipped

    def test_unkeyable_probe_counts_as_one_logical_probe(self):
        repo = ShardedRepository(num_shards=4)
        for index in range(4):
            repo.insert(_entry(index, path=f"/data/d{index}"))
        probe_load = SkeletonOp("load", "FOREIGN[p]", None, [])
        probe_chain = SkeletonOp("filter", "FILTER[p]", None, [probe_load])
        probe = PhysicalPlan([POStore(probe_chain, "/out/p")])
        repo.match_candidates(probe)  # full-scan fallback
        assert repo.merged_shard_stats()["probes"] == 1

    def test_merged_candidate_and_hit_totals_are_exact_sums(self):
        system = pigmix_system()
        repository = ShardedRepository(num_shards=4)
        restore = system.restore(repository=repository)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        merged = repository.merged_shard_stats()
        report = repository.shard_report()
        assert merged["entries"] == len(repository)
        assert merged["match_hits"] == sum(row["match_hits"] for row in report)
        assert merged["candidates_returned"] == \
            sum(row["candidates_returned"] for row in report)
        assert merged["probes"] <= merged["shard_consults"]

    def test_describe_mentions_shards(self):
        repo = ShardedRepository(num_shards=3)
        repo.insert(_entry(0))
        text = repo.describe()
        assert "3 shard(s)" in text
        assert "shard 0" in text


class TestManagerParity:
    """A ReStore manager behaves identically on sharded and plain repos
    (the property suite drives this at scale; this is the smoke path)."""

    def test_quickstart_scenario_identical(self):
        results = {}
        for label, repository in (("plain", Repository()),
                                  ("sharded", ShardedRepository(num_shards=8))):
            system = pigmix_system()
            restore = system.restore(repository=repository)
            restore.submit(system.compile(Q1_TEXT))
            restore.submit(system.compile(Q2_TEXT))
            results[label] = {
                "rewrites": restore.last_report.num_rewrites,
                "counters": restore.last_report.match_counters.as_dict(),
                "entries": len(repository),
                "output": system.dfs.read_lines("/out/L3_out"),
            }
        assert results["plain"] == results["sharded"]
        assert results["sharded"]["rewrites"] >= 1

    def test_find_equivalent_is_global_across_shards(self):
        # Registering the same computation twice must dedup even when a
        # second insert would land in a different shard's probe path:
        # the fingerprint dict is global.
        repo = ShardedRepository(num_shards=8)
        entry = _entry(7, path="/data/d3")
        repo.insert(entry)
        duplicate_plan = _chain_plan(7, "/data/d3")
        assert repo.find_equivalent(duplicate_plan) is entry
