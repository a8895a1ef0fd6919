"""The fragmentation-aware auto-reorg daemon: trigger policy and DES runs.

Decision-level tests drive :meth:`ReorgDaemon._decide` against
hand-positioned :class:`FragmentationStats` (threshold edges, hysteresis,
cooldown, deferrals); end-to-end tests run the daemon as a scheduler
process over a real fragmented tree and watch it reorganize.
"""

from types import SimpleNamespace

import pytest

from repro.btree.stats import collect_stats
from repro.config import DaemonConfig, ReorgConfig, TreeConfig
from repro.db import Database
from repro.metrics import FragmentationStats
from repro.reorg import DaemonTarget, ReorgDaemon
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler

CFG = DaemonConfig(
    poll_interval=1.0, frag_high=0.35, frag_low=0.15, cooldown=10.0
)


def frag_at(fill, leaves=10, cap=10):
    return FragmentationStats(
        records=int(round(fill * leaves * cap)),
        leaves=leaves,
        leaf_capacity=cap,
        synced=True,
    )


def make_daemon(config=CFG, *, fill=0.5, reorg_bit=False):
    frag = frag_at(fill)
    state = SimpleNamespace(reorg_bit=reorg_bit)
    db = SimpleNamespace(pass3_state=lambda name: state)
    target = DaemonTarget(db, "t", frag)
    return ReorgDaemon([target], config), target


class TestThreshold:
    def test_crossing_triggers(self):
        daemon, target = make_daemon(fill=0.5)  # frag 0.5 >= 0.35
        assert daemon._decide(target, now=1.0) == "trigger"

    def test_exactly_at_threshold_triggers(self):
        daemon, target = make_daemon(fill=0.65)  # frag 0.35 == frag_high
        assert target.frag.fragmentation == pytest.approx(0.35)
        assert daemon._decide(target, now=1.0) == "trigger"

    def test_just_below_threshold_idles(self):
        daemon, target = make_daemon(fill=0.66)  # frag 0.34 < 0.35
        assert daemon._decide(target, now=1.0) == "idle"

    def test_small_tree_is_skipped(self):
        daemon, target = make_daemon(fill=0.5)
        target.frag.leaves = 1  # below min_leaves=2
        assert daemon._decide(target, now=1.0) == "skip-small"
        assert daemon.stats.skipped_small == 1

    def test_max_triggers_caps_the_daemon(self):
        daemon, target = make_daemon(
            DaemonConfig(poll_interval=1.0, max_triggers=1), fill=0.3
        )
        daemon.stats.triggers = 1
        assert daemon._decide(target, now=1.0) == "idle"


class TestHysteresis:
    def test_fired_shard_holds_until_frag_low(self):
        daemon, target = make_daemon(fill=0.5)
        state = daemon._state["t"]
        state.armed = False  # as _reorganize leaves it
        assert daemon._decide(target, now=20.0) == "hold-hysteresis"
        assert daemon.stats.hysteresis_holds == 1

    def test_between_low_and_high_is_plain_idle(self):
        daemon, target = make_daemon(fill=0.75)  # frag 0.25, in the band
        daemon._state["t"].armed = False
        assert daemon._decide(target, now=20.0) == "idle"
        assert not daemon._state["t"].armed  # still disarmed

    def test_dropping_to_frag_low_rearms(self):
        daemon, target = make_daemon(fill=0.9)  # frag 0.10 <= frag_low
        daemon._state["t"].armed = False
        assert daemon._decide(target, now=20.0) == "idle"
        assert daemon._state["t"].armed
        # and the next crossing fires again
        target.frag.records = int(0.5 * 10 * 10)
        assert daemon._decide(target, now=21.0) == "trigger"

    def test_split_trigger_path_ignores_hysteresis(self):
        config = DaemonConfig(
            poll_interval=1.0,
            frag_high=0.35,
            frag_low=0.15,
            cooldown=0.0,
            split_trigger=3,
        )
        daemon, target = make_daemon(config, fill=1.0)  # fill says healthy
        daemon._state["t"].armed = False
        target.frag.leaf_splits = 3  # 3 splits since sync: scattered
        assert daemon._decide(target, now=20.0) == "trigger"


class TestDeferrals:
    def test_cooldown_defers_a_hot_shard(self):
        daemon, target = make_daemon(fill=0.5)
        daemon._state["t"].last_trigger = 15.0
        assert daemon._decide(target, now=20.0) == "defer-cooldown"
        assert daemon.stats.deferred_cooldown == 1
        # past the cooldown the same state fires
        assert daemon._decide(target, now=26.0) == "trigger"

    def test_manual_reorg_bit_defers(self):
        daemon, target = make_daemon(fill=0.5, reorg_bit=True)
        assert daemon._decide(target, now=1.0) == "defer-manual"
        assert daemon.stats.deferred_manual == 1


def fragmented_db(gap=0.0, n=200):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=8,
            leaf_extent_pages=256,
            internal_extent_pages=64,
            buffer_pool_pages=64,
            leaf_gap_fraction=gap,
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, "v") for k in range(n)], leaf_fill=1.0
    )
    for k in range(n):
        if k % 4:
            tree.delete(k)
    db.flush()
    return db


def des_run(db, config, *, horizon):
    daemon = ReorgDaemon.for_database(db, config, ReorgConfig())
    scheduler = Scheduler(
        db.locks, store=db.store, log=db.log, io_time=1.0, hit_time=0.05
    )
    daemon.spawn(scheduler, horizon=horizon)
    scheduler.run()
    assert not scheduler.failed
    return daemon


class TestEndToEnd:
    def test_daemon_reorganizes_a_fragmented_tree(self):
        db = fragmented_db()
        before = collect_stats(db.tree())
        assert before.leaf_fill < 0.35
        keys = [r.key for r in db.tree().items()]
        daemon = des_run(db, CFG, horizon=3.0)
        assert daemon.stats.triggers == 1
        assert [(t, n, a) for t, n, a in daemon.history if a == "trigger"]
        after = collect_stats(db.tree())
        assert after.leaf_count < before.leaf_count / 2
        assert after.leaf_fill > before.leaf_fill * 2
        assert [r.key for r in db.tree().items()] == keys
        db.tree().validate()
        # the trigger re-baselined the metrics from the switched tree
        frag = db.frag_stats()
        assert frag.reorgs_triggered == 1
        assert frag.splits_since_sync == 0
        assert frag.leaves == after.leaf_count

    def test_healthy_tree_is_left_alone(self):
        db = Database(TreeConfig(leaf_capacity=8, buffer_pool_pages=64))
        db.bulk_load_tree(
            [Record(k, "v") for k in range(100)], leaf_fill=1.0
        )
        db.flush()
        daemon = des_run(db, CFG, horizon=3.0)
        assert daemon.stats.polls == 3
        assert daemon.stats.triggers == 0
        assert {a for _, _, a in daemon.history} == {"idle"}

    def test_manual_reorg_holds_the_daemon_off(self):
        db = fragmented_db()
        db.pass3_state().reorg_bit = True  # a manual reorganizer owns the tree
        daemon = des_run(db, CFG, horizon=3.0)
        assert daemon.stats.triggers == 0
        assert daemon.stats.deferred_manual == daemon.stats.polls == 3
        assert {a for _, _, a in daemon.history} == {"defer-manual"}

    def test_horizon_bounds_the_poll_loop(self):
        db = Database(TreeConfig(leaf_capacity=8, buffer_pool_pages=64))
        db.bulk_load_tree(
            [Record(k, "v") for k in range(64)], leaf_fill=1.0
        )
        db.flush()
        config = DaemonConfig(poll_interval=5.0)
        daemon = des_run(db, config, horizon=12.0)
        assert daemon.stats.polls == 2  # t=5 and t=10; t=15 > horizon

    def test_gapped_daemon_rebuild_keeps_the_gap(self):
        db = fragmented_db(gap=0.25)
        daemon = des_run(db, CFG, horizon=3.0)
        assert daemon.stats.triggers == 1
        tree = db.tree()
        sizes = [
            tree.store.get_leaf(pid).num_items
            for pid in tree.leaf_ids_in_key_order()
        ]
        assert max(sizes) <= 6  # packed capacity of cap 8, gap 0.25
        tree.validate()
