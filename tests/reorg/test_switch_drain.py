"""The switch's old-tree drain (section 7.4): waiting, and forced aborts.

"Since there might be some on-going long transactions after we begin to
switch, we might have to wait for a long time before we can get the X lock
on old tree. ... we might set a time limit that the reorganizer can wait
for the X lock on the old tree.  If the reorganizer cannot get the X lock
within the time limit, then it will force the on-going transactions that
use the old tree to abort."
"""

import pytest

from repro.btree.protocols import reader_search
from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import SwitchTimeoutError
from repro.locks.modes import LockMode
from repro.locks.resources import tree_lock
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.locks.resources import current_lock_name
from repro.sim.workload import build_sparse_tree
from repro.txn.ops import Acquire, Think
from repro.txn.scheduler import Scheduler
from repro.txn.transaction import TxnState


def make_db():
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            buffer_pool_pages=128,
        )
    )
    build_sparse_tree(db, n_records=400, fill_after=0.3)
    return db


def long_old_tree_reader(db, tree_name, duration):
    """A transaction that holds its IS on the (old) tree lock for a very
    long time — the switch's straggler."""
    name = current_lock_name(db, tree_name)
    yield Acquire(tree_lock(name), LockMode.IS)
    yield Think(duration)
    return "finished naturally"


class TestSwitchDrain:
    def test_switch_waits_for_old_readers_without_limit(self):
        db = make_db()
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(), unit_pause=0.02, scan_pause=0.02
        )
        straggler = sched.spawn(
            long_old_tree_reader(db, "primary", duration=200.0), name="slow"
        )
        reorg_txn = sched.spawn(
            full_reorganization(protocol),
            name="reorg",
            is_reorganizer=True,
            at=0.1,
        )
        sched.run()
        # Both complete; the switch simply waited the straggler out.
        assert straggler.state is TxnState.COMMITTED
        assert reorg_txn.state is TxnState.COMMITTED
        assert sched.now >= 200.0
        db.tree().validate()

    def test_flip_bumps_old_root_version_before_the_drain_ends(self):
        """The one flip step re-anchors lock-free readers: while the drain
        still waits for an old-tree reader, the old root's version stamp
        has already moved and the old upper levels are still allocated."""
        db = make_db()
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        protocol = ReorgProtocol(
            db, "primary", ReorgConfig(), unit_pause=0.02, scan_pause=0.02
        )
        old_root = db.tree().root_id
        samples = []

        def observer():
            for _tick in range(300):
                yield Think(0.5)
                samples.append(
                    (
                        db.tree().root_id,
                        db.store.buffer.version_of(old_root),
                        db.store.free_map.is_free(old_root),
                    )
                )

        sched.spawn(long_old_tree_reader(db, "primary", duration=200.0), name="slow")
        sched.spawn(observer(), name="observer")
        reorg_txn = sched.spawn(
            full_reorganization(protocol), name="reorg", is_reorganizer=True, at=0.1
        )
        sched.run()
        assert reorg_txn.state is TxnState.COMMITTED
        flipped = next(i for i, s in enumerate(samples) if s[0] != old_root)
        # Flipped long before the straggler let the drain finish ...
        assert 0 < flipped and (flipped + 1) * 0.5 < 200.0
        (_, version_before, _), (_, version_after, freed) = samples[flipped - 1 : flipped + 1]
        assert version_after > version_before
        assert not freed
        # ... and the discard came only once it had.
        assert db.store.free_map.is_free(old_root)

    def test_switch_aborts_stragglers_after_limit(self):
        db = make_db()
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        config = ReorgConfig(
            switch_wait_limit=5.0, abort_old_transactions_on_timeout=True
        )
        protocol = ReorgProtocol(
            db, "primary", config, unit_pause=0.02, scan_pause=0.02
        )
        protocol.abort_hook = lambda victims: [
            sched.abort_transaction(v, "old-tree drain timeout")
            for v in victims
        ]
        straggler = sched.spawn(
            long_old_tree_reader(db, "primary", duration=10_000.0), name="slow"
        )
        reorg_txn = sched.spawn(
            full_reorganization(protocol),
            name="reorg",
            is_reorganizer=True,
            at=0.1,
        )
        sched.run()
        assert reorg_txn.state is TxnState.COMMITTED
        assert straggler.state is TxnState.ABORTED
        # The switch did not wait anywhere near the straggler's duration.
        # (The clock itself still drains the straggler's stale timer event.)
        assert reorg_txn.metrics.end_time < 1_000.0
        db.tree().validate()

    def test_switch_timeout_error_when_aborts_disabled(self):
        db = make_db()
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        config = ReorgConfig(
            switch_wait_limit=5.0, abort_old_transactions_on_timeout=False
        )
        protocol = ReorgProtocol(
            db, "primary", config, unit_pause=0.02, scan_pause=0.02
        )
        sched.spawn(
            long_old_tree_reader(db, "primary", duration=10_000.0), name="slow"
        )
        reorg_txn = sched.spawn(
            full_reorganization(protocol),
            name="reorg",
            is_reorganizer=True,
            at=0.1,
        )
        sched.run()
        failures = {t.name: e for t, e in sched.failed}
        assert "reorg" in failures
        assert isinstance(failures["reorg"], SwitchTimeoutError)

    def test_new_transactions_use_new_lock_name_after_flip(self):
        """Section 7.4: the new tree's lock name is distinct, so new
        transactions are not delayed by the old-tree drain."""
        db = make_db()
        sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
        config = ReorgConfig(
            switch_wait_limit=50.0, abort_old_transactions_on_timeout=True
        )
        protocol = ReorgProtocol(
            db, "primary", config, unit_pause=0.02, scan_pause=0.02
        )
        protocol.abort_hook = lambda victims: [
            sched.abort_transaction(v) for v in victims
        ]
        sched.spawn(
            long_old_tree_reader(db, "primary", duration=10_000.0), name="slow"
        )
        sched.spawn(
            full_reorganization(protocol),
            name="reorg",
            is_reorganizer=True,
            at=0.1,
        )
        # A steady drip of fresh readers; the late ones start after the
        # root flip and must finish long before the drain does.
        live = [r.key for r in db.tree().items()]
        readers = [
            sched.spawn(
                reader_search(db, "primary", live[i % len(live)]),
                at=2.0 * i,
                name=f"r{i}",
            )
            for i in range(30)
        ]
        sched.run()
        committed = [r for r in readers if r.state is TxnState.COMMITTED]
        assert len(committed) == len(readers)
        # No reader was stuck behind the drain window.
        assert max(r.metrics.wait_time for r in readers) < 5.0
        db.tree().validate()
