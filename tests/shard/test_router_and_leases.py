"""The shard router and the extent-lease machinery it stands on."""

import pytest

from repro.config import ShardConfig, TreeConfig
from repro.errors import ExtentFullError, StorageError
from repro.shard.router import ShardRouter
from repro.storage.store import LEAF_EXTENT, StorageManager


class TestShardRouter:
    def test_separator_count_must_match(self):
        with pytest.raises(ValueError, match="separators"):
            ShardRouter((10,), 3)

    def test_separators_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            ShardRouter((10, 10), 3)

    def test_point_routing(self):
        router = ShardRouter((100, 200), 3)
        assert router.shard_for(-5) == 0
        assert router.shard_for(99) == 0
        assert router.shard_for(100) == 1  # separator key goes right
        assert router.shard_for(199) == 1
        assert router.shard_for(200) == 2
        assert router.shard_for(10_000) == 2

    def test_range_routing_is_contiguous(self):
        router = ShardRouter((100, 200), 3)
        assert list(router.shards_for_range(0, 50)) == [0]
        assert list(router.shards_for_range(50, 150)) == [0, 1]
        assert list(router.shards_for_range(0, 500)) == [0, 1, 2]
        assert list(router.shards_for_range(500, 400)) == []

    def test_key_range_of(self):
        router = ShardRouter((100, 200), 3)
        assert router.key_range_of(0) == (None, 100)
        assert router.key_range_of(1) == (100, 200)
        assert router.key_range_of(2) == (200, None)


class TestExtentLeases:
    def make_store(self):
        return StorageManager(
            TreeConfig(
                leaf_capacity=4,
                internal_capacity=4,
                leaf_extent_pages=64,
                internal_extent_pages=32,
                buffer_pool_pages=16,
            )
        )

    def test_overlapping_leases_rejected(self):
        fm = self.make_store().free_map
        fm.grant_lease(LEAF_EXTENT, 0, 32)
        with pytest.raises(StorageError, match="overlap"):
            fm.grant_lease(LEAF_EXTENT, 31, 64)
        fm.grant_lease(LEAF_EXTENT, 32, 64)  # exact adjacency is fine

    def test_lease_must_fit_extent(self):
        fm = self.make_store().free_map
        with pytest.raises(StorageError):
            fm.grant_lease(LEAF_EXTENT, 0, 65)

    def test_allocate_in_lease_stays_in_bounds(self):
        fm = self.make_store().free_map
        lease = fm.grant_lease(LEAF_EXTENT, 8, 12)
        got = {fm.allocate_in_lease(lease) for _ in range(4)}
        assert got == {8, 9, 10, 11}
        with pytest.raises(ExtentFullError):
            fm.allocate_in_lease(lease)

    def test_allocate_specific_page_outside_lease_rejected(self):
        fm = self.make_store().free_map
        lease = fm.grant_lease(LEAF_EXTENT, 8, 12)
        with pytest.raises(StorageError):
            fm.allocate_in_lease(lease, 20)

    def test_first_free_in_lease(self):
        fm = self.make_store().free_map
        lease = fm.grant_lease(LEAF_EXTENT, 8, 12)
        assert fm.first_free_in_lease(lease) == 8
        fm.allocate_in_lease(lease, 8)
        assert fm.first_free_in_lease(lease) == 9

    def test_drop_leases(self):
        fm = self.make_store().free_map
        fm.grant_lease(LEAF_EXTENT, 0, 32)
        fm.drop_leases(LEAF_EXTENT)
        fm.grant_lease(LEAF_EXTENT, 16, 48)  # no stale overlap check


class TestShardConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardConfig(n_shards=0)
        with pytest.raises(ValueError):
            ShardConfig(n_shards=2, separators=(1, 2))
        with pytest.raises(ValueError):
            ShardConfig(n_shards=3, separators=(5, 5))
        ShardConfig(n_shards=3, separators=(5, 9))
