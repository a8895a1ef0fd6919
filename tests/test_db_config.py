"""Tests for the Database facade, configuration validation and errors."""

import dataclasses

import pytest

from repro.config import FreeSpacePolicy, ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.errors import BTreeError, ReproError
from repro.storage.page import Record


class TestTreeConfigValidation:
    def test_defaults_are_valid(self):
        TreeConfig()
        ReorgConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(leaf_capacity=1),
            dict(internal_capacity=2),
            dict(leaf_extent_pages=0),
            dict(internal_extent_pages=0),
            dict(buffer_pool_pages=2),
            dict(seek_cost=0.5),
        ],
    )
    def test_invalid_tree_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TreeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target_fill=0.0),
            dict(target_fill=1.5),
            dict(internal_fill=0.0),
            dict(stable_point_interval=0),
            dict(max_unit_output_pages=0),
        ],
    )
    def test_invalid_reorg_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReorgConfig(**kwargs)

    def test_configs_are_frozen(self):
        config = TreeConfig()
        with pytest.raises(AttributeError):
            config.leaf_capacity = 99

    def test_tree_config_does_not_grow_knobs(self):
        names = [field.name for field in dataclasses.fields(TreeConfig)]
        assert len(names) <= 14, (
            f"TreeConfig has {len(names)} fields ({', '.join(names)}); "
            "ROADMAP aim 2 caps it at 14: every on/off knob doubles the "
            "configurations to test, so make the new behaviour the default "
            "or a constant, or delete a knob in the same change"
        )

    def test_enums_round_trip(self):
        assert FreeSpacePolicy("paper") is FreeSpacePolicy.PAPER
        assert SidePointerKind("two_way") is SidePointerKind.TWO_WAY


def small_db():
    return Database(
        TreeConfig(
            leaf_capacity=4,
            internal_capacity=4,
            leaf_extent_pages=64,
            internal_extent_pages=32,
        )
    )


class TestDatabaseFacade:
    def test_create_and_attach_tree(self):
        db = small_db()
        db.create_tree("a")
        assert db.has_tree("a")
        assert not db.has_tree("b")
        assert db.tree("a").record_count() == 0

    def test_bulk_load_and_lookup(self):
        db = small_db()
        tree = db.bulk_load_tree([Record(k) for k in range(20)])
        assert tree.search(7) is not None

    def test_drop_tree_name(self):
        db = small_db()
        db.create_tree("victim")
        db.drop_tree_name("victim")
        assert not db.has_tree("victim")
        with pytest.raises(BTreeError):
            db.tree("victim")

    def test_flush_makes_everything_durable(self):
        db = small_db()
        tree = db.bulk_load_tree([Record(k) for k in range(20)])
        db.flush()
        db.crash()
        report = db.recover()
        assert report.redo_applied >= 0
        assert db.tree().record_count() == 20

    def test_crash_counts(self):
        db = small_db()
        db.create_tree()
        db.flush()
        db.crash()
        db.recover()
        db.crash()
        db.recover()
        assert db.crashes == 2

    def test_checkpoint_returns_lsn(self):
        db = small_db()
        db.create_tree()
        lsn = db.checkpoint()
        assert lsn == db.log.last_checkpoint_lsn
        assert db.log.flushed_lsn >= lsn

    def test_recover_restores_pass3_state(self):
        db = small_db()
        db.create_tree()
        db.pass3_state().reorg_bit = True
        db.pass3_state().stable_key = 42
        db.pass3_state().side_file_entries.append((1, 2, "insert"))
        db.checkpoint()
        db.crash()
        db.recover()
        assert db.pass3_state().reorg_bit
        assert db.pass3_state().stable_key == 42
        assert db.pass3_state().side_file_entries == [(1, 2, "insert")]

    def test_two_trees_pass3_states_round_trip_independently(self):
        db = small_db()
        db.create_tree()
        db.create_tree("other")
        db.create_tree("idle")
        primary = db.pass3_state()
        primary.reorg_bit = True
        primary.stable_key = 42
        primary.side_file_entries.append((1, 2, "insert"))
        other = db.pass3_state("other")
        other.reorg_bit = True
        other.new_root = 7
        other.built_entries.append((0, 7))
        db.pass3_state("idle")
        lsn = db.checkpoint()
        record = db.log.get(lsn)
        assert record.pass3 == (
            ("other", True, None, 7, (), ((0, 7),)),
            ("primary", True, 42, -1, ((1, 2, "insert"),), ()),
        )
        db.crash()
        assert db.pass3_states == {}
        report = db.recover()
        assert db.pass3_states is report.pass3
        assert set(report.pass3) == {"primary", "other"}
        assert db.pass3_state() == primary
        assert db.pass3_state("other") == other
        assert db.pass3_state("idle").idle


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        import inspect

        import repro.errors as errors

        for name, cls in inspect.getmembers(errors, inspect.isclass):
            if cls.__module__ != "repro.errors":
                continue
            assert issubclass(cls, ReproError), name

    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
