"""The discrete-event scheduler runs the same schedules it always ran.

Four scenarios drive the scheduler and the lock manager through the public
API only:

* a 4-shard forest under search/scan/insert/delete churn with the default
  reorganization daemon;
* a paced on-line reorganization (``ReorgProtocol``) under readers and
  deleters;
* the three-party conversion deadlock whose victim is the reorganizer;
* a reader that meets the reorganizer's RX lock and backs off.

Each digest covers what a schedule decides: the order in which processes
complete or fail, every ``TxnMetrics`` field of every process, the lock
manager's ``LockStats`` and every record logged after the setup
checkpoint, LSN fields aside and
transaction ids numbered by first appearance (the ids themselves come from
a process-wide counter).  A change to how the scheduler stores its events
or the lock manager its holders must reproduce every pinned value.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.btree.protocols import (
    reader_range_scan,
    reader_search,
    updater_delete,
    updater_insert,
)
from repro.config import ReorgConfig, ShardConfig, TreeConfig
from repro.db import Database
from repro.locks.modes import LockMode
from repro.locks.resources import page_lock
from repro.reorg.daemon import ReorgDaemon
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.shard import ShardedDatabase
from repro.sim.workload import build_sparse_tree
from repro.storage.page import Record
from repro.txn.ops import Acquire, ReleaseAll, Think
from repro.txn.scheduler import Scheduler
from repro.wal.records import SYSTEM_TXN
from tests.reorg.test_sync_passes_pinned import _LSN_FIELDS

IO_TIME, HIT_TIME = 0.2, 0.01


def _log_rows(log):
    """The records logged after the scenario's setup checkpoint (its only
    one), which cuts the log below itself."""
    ordinals = {SYSTEM_TXN: SYSTEM_TXN}
    rows = []
    for record in log.records_from(log.last_checkpoint_lsn + 1):
        row = [type(record).__name__]
        for f in dataclasses.fields(record):
            if f.name in _LSN_FIELDS:
                continue
            value = getattr(record, f.name)
            if f.name == "txn_id":
                value = ordinals.setdefault(value, len(ordinals))
            elif isinstance(value, Record):
                value = value.key
            elif isinstance(value, tuple):
                value = tuple(getattr(item, "key", item) for item in value)
            row.append((f.name, value))
        rows.append(tuple(row))
    return rows


def schedule_digest(scheduler, log):
    """One digest over everything the schedule decided."""
    completed = [(txn.name, repr(result)) for txn, result in scheduler.completed]
    failed = [(txn.name, type(exc).__name__) for txn, exc in scheduler.failed]
    metrics = [
        (txn.name, dataclasses.astuple(txn.metrics))
        for txn, _ in scheduler.completed + scheduler.failed
    ]
    stats = dataclasses.astuple(scheduler.lm.stats)
    text = repr((completed, failed, metrics, stats, scheduler.now, _log_rows(log)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _routed(sdb, kind, key, high):
    if kind == "scan":
        out = []
        for index in sdb.router.shards_for_range(key, high):
            handle = sdb.handles[index]
            out.extend(
                (yield from reader_range_scan(handle, handle.tree_name, key, high))
            )
        return [record.key for record in out]
    handle = sdb.handles[sdb.router.shard_for(key)]
    if kind == "search":
        record = yield from reader_search(handle, handle.tree_name, key)
        return None if record is None else record.key
    if kind == "insert":
        return (yield from updater_insert(handle, handle.tree_name, Record(key, "n")))
    return (yield from updater_delete(handle, handle.tree_name, key))


def shard_churn_digest():
    """Smoke-size forest: 1 600 even keys over 4 shards, 600 transactions
    arriving fast enough that some of them wait."""
    config = TreeConfig(
        leaf_capacity=16, internal_capacity=8, leaf_extent_pages=1024,
        internal_extent_pages=256, buffer_pool_pages=128,
    )
    sdb = ShardedDatabase(config, ShardConfig(n_shards=4))
    sdb.bulk_load([Record(k, "v") for k in range(0, 3200, 2)])
    sdb.flush()
    sdb.checkpoint()
    rng = random.Random(11)
    deletable = list(range(0, 3200, 2))
    rng.shuffle(deletable)
    insertable = list(range(1, 3200, 2))
    rng.shuffle(insertable)
    scheduler = Scheduler(
        sdb.locks, store=sdb.store, log=sdb.log, io_time=IO_TIME, hit_time=HIT_TIME
    )
    at = 0.0
    for index in range(600):
        at += rng.expovariate(20.0)
        draw = rng.random()
        if draw < 0.5:
            kind, key = "search", rng.randrange(3200)
        elif draw < 0.55:
            kind, key = "scan", rng.randrange(3000)
        elif draw < 0.775:
            kind, key = "insert", insertable.pop()
        else:
            kind, key = "delete", deletable.pop()
        scheduler.spawn(_routed(sdb, kind, key, key + 200), name=str(index), at=at)
    daemon = ReorgDaemon.for_shards(sdb)
    daemon.spawn(scheduler, horizon=at + 0.5)
    scheduler.run()
    assert scheduler.failed == []
    for handle in sdb.handles:
        handle.tree().validate()
    return schedule_digest(scheduler, sdb.log)


def paced_reorg_digest():
    """A paced on-line reorganization while readers and deleters run."""
    db = Database(
        TreeConfig(
            leaf_capacity=16, internal_capacity=8, leaf_extent_pages=1024,
            internal_extent_pages=256, buffer_pool_pages=128,
        )
    )
    build_sparse_tree(db, n_records=2000, fill_after=0.3)
    db.flush()
    db.checkpoint()
    live = sorted(record.key for record in db.tree().items())
    scheduler = Scheduler(
        db.locks, store=db.store, log=db.log, io_time=IO_TIME, hit_time=HIT_TIME
    )
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(),
        unit_pause=0.05, scan_pause=0.02, op_duration=0.3,
        abort_hook=lambda victims: [
            scheduler.abort_transaction(v, "old-tree drain timeout") for v in victims
        ],
    )
    scheduler.spawn(full_reorganization(protocol), name="reorganizer", is_reorganizer=True)
    rng = random.Random(13)
    victims = rng.sample(live, 80)
    at = 0.0
    for index in range(320):
        at += rng.expovariate(4.0)
        draw = rng.random()
        if draw < 0.7 or not victims:
            gen = reader_search(db, "primary", rng.randrange(2000))
        elif draw < 0.8:
            low = rng.randrange(1950)
            gen = reader_range_scan(db, "primary", low, low + 50)
        else:
            gen = updater_delete(db, "primary", victims.pop())
        scheduler.spawn(gen, name=str(index), at=at)
    scheduler.run()
    db.tree().validate()
    return schedule_digest(scheduler, db.log)


def deadlock_digest():
    """The three-party R -> X conversion deadlock of section 4.1: the
    reorganizer is the victim, undoes its unit and retries."""
    db = Database(
        TreeConfig(
            leaf_capacity=8, internal_capacity=16, leaf_extent_pages=512,
            internal_extent_pages=128, buffer_pool_pages=128,
        )
    )
    build_sparse_tree(db, n_records=400, fill_after=0.3)
    db.flush()
    db.checkpoint()
    tree = db.tree()
    base_id = tree.base_page_for(0).page_id
    other_leaf = tree.path_to_leaf(max(r.key for r in tree.items()))[-1]
    scheduler = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.02)
    protocol = ReorgProtocol(db, "primary", ReorgConfig(), op_duration=2.0)

    def user_b():
        yield Acquire(page_lock(other_leaf), LockMode.X)
        yield Think(4.0)
        yield Acquire(page_lock(base_id), LockMode.S)
        yield Think(0.5)
        yield ReleaseAll()

    def user_a():
        yield Acquire(page_lock(base_id), LockMode.S)
        yield Acquire(page_lock(other_leaf), LockMode.X)
        yield ReleaseAll()

    scheduler.spawn(user_b(), name="user-b", at=0.0)
    scheduler.spawn(user_a(), name="user-a", at=0.5)
    reorg = scheduler.spawn(protocol.pass1(), name="reorg", at=1.0, is_reorganizer=True)
    scheduler.run()
    assert reorg.metrics.deadlocks >= 1
    assert db.locks.stats.deadlocks >= 1
    return schedule_digest(scheduler, db.log)


def rx_backoff_digest():
    """A reader meets the unit's RX on its leaf, backs off to an instant RS
    on the base page and re-reads once the reorganizer lets go."""
    db = Database(
        TreeConfig(
            leaf_capacity=8, internal_capacity=16, leaf_extent_pages=512,
            internal_extent_pages=128, buffer_pool_pages=128,
        )
    )
    build_sparse_tree(db, n_records=400, fill_after=0.3)
    db.flush()
    db.checkpoint()
    tree = db.tree()
    key = next(iter(tree.items())).key
    path = tree.path_to_leaf(key)
    base_id, leaf_id = path[-2], path[-1]
    scheduler = Scheduler(
        db.locks, store=db.store, log=db.log, io_time=IO_TIME, hit_time=HIT_TIME
    )

    def reorganizer():
        yield Acquire(page_lock(base_id), LockMode.R)
        yield Acquire(page_lock(leaf_id), LockMode.RX)
        yield Think(3.0)
        yield ReleaseAll()

    scheduler.spawn(reorganizer(), name="reorg", is_reorganizer=True)
    reader = scheduler.spawn(reader_search(db, "primary", key), name="reader", at=1.0)
    scheduler.run()
    assert reader.metrics.rx_backoffs == 1
    assert db.locks.stats.rx_rejections == 1
    return schedule_digest(scheduler, db.log)


PINNED = {
    "shard_churn": (shard_churn_digest, "805c20302e70f01d"),
    "paced_reorg": (paced_reorg_digest, "4d3398cfec844892"),
    "deadlock": (deadlock_digest, "8caf3a022199a87e"),
    "rx_backoff": (rx_backoff_digest, "ac72505dcf13ecd4"),
}


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_des_schedule_pinned(scenario):
    run, expected = PINNED[scenario]
    assert run() == expected
