"""The sharded facade: routing, merged scans, identity, durability."""

import random

import pytest

from repro.config import ReorgConfig, ShardConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.shard import ParallelReorganizer, ShardedDatabase
from repro.storage.page import Record


def tiny_config() -> TreeConfig:
    return TreeConfig(
        leaf_capacity=8,
        internal_capacity=8,
        leaf_extent_pages=1024,
        internal_extent_pages=512,
        buffer_pool_pages=256,
        side_pointers=SidePointerKind.ONE_WAY,
    )


def sparse_records(n=1200, deleted=0.6, seed=7):
    records = [Record(k, f"v{k}") for k in range(n)]
    doomed = random.Random(seed).sample(range(n), int(n * deleted))
    return records, doomed


def load_sharded(n_shards, n=1200):
    sdb = ShardedDatabase(tiny_config(), ShardConfig(n_shards=n_shards))
    records, doomed = sparse_records(n)
    sdb.bulk_load(records, leaf_fill=1.0, internal_fill=0.6)
    for key in doomed:
        sdb.delete(key)
    return sdb, sorted(set(range(n)) - set(doomed))


def leaf_layout(store, tree):
    return [
        (pid, [(r.key, r.payload) for r in store.get_leaf(pid).records])
        for pid in tree.leaf_ids_in_key_order()
    ]


class TestRoutingAndScans:
    def test_point_ops_route_and_count(self):
        sdb, alive = load_sharded(4)
        assert sdb.search(alive[0]) is not None
        assert sdb.search(alive[0]).key == alive[0]
        dead = next(k for k in range(1200) if k not in alive)
        assert sdb.search(dead) is None
        sdb.insert(Record(dead, "back"))
        assert sdb.search(dead).payload == "back"
        assert sdb.record_count() == len(alive) + 1
        routed = sum(h.stats.routed_inserts for h in sdb.handles)
        assert routed == 1
        assert sum(h.stats.routed_lookups for h in sdb.handles) == 4

    def test_merged_scan_equals_single_tree(self):
        sdb, alive = load_sharded(4)
        merged = [(r.key, r.payload) for r in sdb.range_scan(0, 1199)]
        assert merged == [(k, f"v{k}") for k in alive]
        # Sub-ranges crossing one separator merge correctly too.
        sep = sdb.router.separators[1]
        lo, hi = sep - 50, sep + 50
        part = [(r.key, r.payload) for r in sdb.range_scan(lo, hi)]
        assert part == [(k, f"v{k}") for k in alive if lo <= k <= hi]

    def test_validate_covers_every_shard(self):
        sdb, _ = load_sharded(3)
        sdb.validate()

    def test_derived_separators_balance_shards(self):
        sdb, alive = load_sharded(4)
        counts = [h.tree().record_count() for h in sdb.handles]
        assert sum(counts) == len(alive)
        assert max(counts) - min(counts) < len(alive) // 2

    def test_skewed_records_need_explicit_separators(self):
        sdb = ShardedDatabase(tiny_config(), ShardConfig(n_shards=4))
        with pytest.raises(ValueError, match="separators"):
            sdb.bulk_load([Record(1, "x")] * 40)

    def test_scan_routes_per_shard_not_per_leaf(self, monkeypatch):
        """Regression: the merged scan must probe the router O(#shards)
        times per scan — the shard boundary check is hoisted out of the
        per-leaf walk — and the clamped per-shard bounds must not change
        the result."""
        from repro.shard.router import ShardRouter

        sdb, alive = load_sharded(4)
        probes: list[int] = []
        original = ShardRouter.shard_for

        def counting(self, key):
            probes.append(key)
            return original(self, key)

        monkeypatch.setattr(ShardRouter, "shard_for", counting)
        merged = [(r.key, r.payload) for r in sdb.range_scan(0, 1199)]
        assert merged == [(k, f"v{k}") for k in alive]
        # shards_for_range probes the endpoints once each; nothing else in
        # the scan may touch the router, however many leaves are walked.
        assert len(probes) == 2
        probes.clear()
        sep = sdb.router.separators[1]
        lo, hi = sep - 50, sep + 50
        part = [(r.key, r.payload) for r in sdb.range_scan(lo, hi)]
        assert part == [(k, f"v{k}") for k in alive if lo <= k <= hi]
        assert len(probes) == 2


class TestOneShardIdentity:
    def test_layout_byte_identical_to_unsharded(self):
        db = Database(tiny_config())
        records, doomed = sparse_records()
        tree = db.bulk_load_tree(records, leaf_fill=1.0, internal_fill=0.6)
        for key in doomed:
            tree.delete(key)
        sdb, _ = load_sharded(1)
        handle = sdb.handle(0)
        assert leaf_layout(sdb.store, handle.tree()) == leaf_layout(
            db.store, db.tree()
        )


class TestShardedDurability:
    def test_checkpoint_crash_recover_restores_pass3(self):
        sdb, alive = load_sharded(2)
        state = sdb.handle(1).pass3_state()
        state.reorg_bit = True
        state.stable_key = 777
        state.side_file_entries.append((778, 1, "insert"))
        sdb.flush()
        sdb.checkpoint()
        sdb.crash()
        assert sdb.handle(1).pass3_state().idle
        report = sdb.recover()
        assert set(report.pass3) == {"shard1"}
        assert sdb.handle(0).pass3_state().idle
        state = sdb.handle(1).pass3_state()
        assert state.reorg_bit
        assert state.stable_key == 777
        assert state.side_file_entries == [(778, 1, "insert")]
        merged = [r.key for r in sdb.range_scan(0, 1199)]
        assert merged == alive

    def test_crash_regrants_leases_on_rebuilt_map(self):
        sdb, _ = load_sharded(2)
        sdb.flush()
        sdb.checkpoint()
        before = [
            (h.store.leaf_lease.start, h.store.leaf_lease.end)
            for h in sdb.handles
        ]
        sdb.crash()
        sdb.recover()
        after = [
            (h.store.leaf_lease.start, h.store.leaf_lease.end)
            for h in sdb.handles
        ]
        assert before == after
        # Allocation still honours the lease after recovery.
        page = sdb.handle(1).store.allocate_leaf()
        assert before[1][0] <= page.page_id < before[1][1]


class TestParallelReorgOutcome:
    def test_reorg_preserves_records_and_speeds_up(self):
        sdb1, alive = load_sharded(1)
        sdb1.flush()
        sdb1.checkpoint()
        m1 = ParallelReorganizer(
            sdb1,
            ReorgConfig(target_fill=0.9),
            unit_pause=0.1,
            scan_pause=0.1,
            op_duration=1.0,
        ).run()
        sdb4, _ = load_sharded(4)
        sdb4.flush()
        sdb4.checkpoint()
        reorg = ParallelReorganizer(
            sdb4,
            ReorgConfig(target_fill=0.9),
            unit_pause=0.1,
            scan_pause=0.1,
            op_duration=1.0,
        )
        m4 = reorg.run()
        assert m4 < m1 / 2
        for sdb in (sdb1, sdb4):
            sdb.validate()
            assert [r.key for r in sdb.range_scan(0, 1199)] == alive
        assert set(reorg.results) == {h.tree_name for h in sdb4.handles}
        assert all(h.stats.reorg_units > 0 for h in sdb4.handles)
        assert all(h.stats.reorg_makespan <= m4 for h in sdb4.handles)

    def test_unit_ids_globally_unique_across_shards(self):
        from repro.wal.records import ReorgBeginRecord

        sdb, _ = load_sharded(3)
        sdb.flush()
        sdb.checkpoint()
        ParallelReorganizer(sdb, ReorgConfig(target_fill=0.9)).run()
        begins = [
            r.unit_id
            for r in sdb.log.records_from(1)
            if isinstance(r, ReorgBeginRecord)
        ]
        assert len(begins) == len(set(begins))
