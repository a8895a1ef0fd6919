"""The DES pass 2 plans with one key-order cursor over the tree's leaf
cursor.

``KeyOrderCursor`` holds the place — base page and child index — of its
previous plan across the unit that runs it, and restarts at rank 0 only
when the tree's leaf-order counter moved behind it (a user split or freed
leaf).  These tests hold that planner to the one it replaced — a fresh
tree walk on every step — beside inserts that split leaves and deletes
that free one, check that an undisturbed reorganization walks the tree a
constant number of times, that a swap undone at a deadlock is undone and
its retry fixes side pointers from a neighbour's split, that a pass that
cannot converge says so, and that a DES move logs and recovers as the MOVE
unit it is.
"""

import random

import pytest

from repro.btree.protocols import updater_delete, updater_insert
from repro.config import FreeSpacePolicy, ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint, DeadlockError, ReorgError
from repro.locks.modes import LockMode
from repro.locks.resources import tree_lock
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.reorg.swap import KeyOrderCursor
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.sim.workload import build_sparse_tree
from repro.storage.page import PageKind, Record
from repro.storage.store import LEAF_EXTENT
from repro.txn.ops import Acquire, Convert, ReleaseAll
from repro.txn.scheduler import Scheduler
from repro.wal.records import ReorgBeginRecord, ReorgEndRecord, ReorgUnitType


def make_db(kind=SidePointerKind.NONE, n_records=900):
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            buffer_pool_pages=256,
            side_pointers=kind,
        )
    )
    build_sparse_tree(db, n_records=n_records, fill_after=0.3)
    return db


def make_scheduler(db):
    return Scheduler(db.locks, store=db.store, log=db.log, io_time=0.05, hit_time=0.005)


def walk_every_step_plan(db, tree):
    """The planner the cursor replaced: a fresh walk on every step, the
    first leaf out of place, and an occupied slot taken only from a later
    leaf of this tree."""
    if db.store.get(tree.root_id).kind is PageKind.LEAF:
        return None
    chain = tree.leaf_ids_in_key_order()
    start = db.store.disk.extent(LEAF_EXTENT).start
    rank = {page: position for position, page in enumerate(chain)}
    for index, leaf in enumerate(chain):
        target = start + index
        if leaf == target:
            continue
        occupied = not db.store.free_map.is_free(target)
        if occupied and rank.get(target, -1) <= index:
            continue
        return leaf, target, occupied
    return None


#: Every seed whose run meets the test's own preconditions (seeds 4 and 24
#: free no leaf while pass 2 plans).  Until a swap undone at a deadlock was
#: really undone and a move whose free target a split took was skipped,
#: the pass raised on 20 of the 28 ONE_WAY seeds.
CLEAN = [
    (kind, seed)
    for kind in (SidePointerKind.NONE, SidePointerKind.ONE_WAY)
    for seed in range(30)
    if seed not in (4, 24)
]


@pytest.mark.parametrize("kind, seed", CLEAN, ids=lambda v: getattr(v, "value", v))
def test_cursor_plans_as_a_walk_every_step_beside_splits_and_frees(
    seed, kind, monkeypatch
):
    db = make_db(kind)
    # First-fit compaction scatters the leaves: pass 2 then swaps and moves.
    config = ReorgConfig(free_space_policy=FreeSpacePolicy.FIRST_FIT)
    Reorganizer(db, db.tree(), config).run_pass1()
    tree = db.tree()
    oracle = {r.key: r.payload for r in tree.items()}
    rng = random.Random(seed)
    sched = make_scheduler(db)
    protocol = ReorgProtocol(db, "primary", config, unit_pause=0.05, op_duration=0.2)
    reorg = sched.spawn(protocol.pass2(), name="reorg", is_reorganizer=True)

    # Inserts pile into a few key ranges until their leaves split ...
    absent = sorted(set(range(1000)) - set(oracle))
    hot = [k for start in rng.sample(absent[:-40], 4) for k in absent if start <= k < start + 40]
    for i, key in enumerate(rng.sample(hot, 60)):
        sched.spawn(updater_insert(db, "primary", Record(key, "new")), at=0.5 + 0.4 * i)
        oracle[key] = "new"
    # ... while one leaf is deleted empty, which frees it.
    chain = tree.leaf_ids_in_key_order()
    victim = tree.store.get_leaf(chain[rng.randrange(len(chain) // 2)])
    for i, key in enumerate(victim.keys()):
        sched.spawn(updater_delete(db, "primary", key), at=1.0 + 2.0 * i)
        del oracle[key]

    plans, cursors = [], set()
    planned = KeyOrderCursor.next_misplaced

    def checked(cursor):
        plan = planned(cursor)
        assert plan == walk_every_step_plan(db, db.tree()), f"step {len(plans)}"
        plans.append(plan)
        cursors.add(cursor)
        return plan

    monkeypatch.setattr(KeyOrderCursor, "next_misplaced", checked)
    frag = db.frag_stats()
    splits, leaves = frag.leaf_splits, frag.leaves
    sched.run()

    assert sched.failed == []
    assert any(txn is reorg for txn, _ in sched.completed) and plans[-1] is None
    # Splits and a freed leaf landed while pass 2 planned, and restarted it
    # (units move no leaf below the tree API's count).
    freed = leaves + (frag.leaf_splits - splits) - frag.leaves
    ((cursor,),) = [cursors]
    assert frag.leaf_splits > splits and freed >= 1 and cursor.restarts > 1
    assert any(occupied for _, _, occupied in plans[:-1])
    assert any(not occupied for _, _, occupied in plans[:-1])
    final = db.tree()
    final.validate()
    assert {r.key: r.payload for r in final.items()} == oracle


@pytest.mark.parametrize("kind", list(SidePointerKind), ids=lambda k: k.value)
def test_undisturbed_des_reorganization_walks_a_constant_number_of_times(kind, walks):
    db = make_db(kind, n_records=1500)
    sched = make_scheduler(db)
    protocol = ReorgProtocol(db, "primary", ReorgConfig(), unit_pause=0.05, op_duration=0.2)
    walks.clear()
    sched.spawn(full_reorganization(protocol), name="reorg", is_reorganizer=True)
    sched.run()
    (stats,) = [result for _txn, result in sched.completed]
    assert stats["pass1"]["units"] + stats["pass2"]["moves"] + stats["pass2"]["swaps"] > 100
    # Pass 2's leaf count at its one restart: none per unit or per step.
    assert len(walks) == 1
    db.tree().validate()


def victim_at_first_convert(gen):
    """Forward ``gen``'s ops to the scheduler, except that its first R->X
    conversion is answered as the lock manager answers a deadlock victim."""
    send, throw, converted = None, None, False
    while True:
        try:
            op = gen.send(send) if throw is None else gen.throw(throw)
        except StopIteration as stop:
            return stop.value
        send, throw = None, None
        if isinstance(op, Convert) and not converted:
            converted, throw = True, DeadlockError("reorganizer chosen as victim")
            continue
        try:
            send = yield op
        except Exception as exc:
            throw = exc


def run_one_unit(protocol, unit, stats):
    """The reorganizer's generator for ``unit`` alone, under the tree lock."""
    yield Acquire(tree_lock(protocol._lock_name()), LockMode.IX)
    done = yield from protocol._run_unit(lambda: unit, stats)
    yield ReleaseAll()
    return done


@pytest.mark.parametrize(
    "kind", [SidePointerKind.NONE, SidePointerKind.ONE_WAY], ids=lambda k: k.value
)
def test_a_swap_undone_at_a_deadlock_is_undone(kind):
    """Section 5.2: a swap across two base pages picked as deadlock victim
    at its R->X conversion gets its contents exchanged back, so the retry
    finds each leaf's parent by the leaf's own keys and completes."""
    db = make_db(kind)
    tree = db.tree()
    protocol = ReorgProtocol(db, "primary", ReorgConfig())
    parent_of = protocol.engine.parent_of
    chain = tree.leaf_ids_in_key_order()
    a = chain[2]
    b = next(leaf for leaf in reversed(chain) if parent_of(leaf) != parent_of(a))
    oracle = {r.key: r.payload for r in tree.items()}
    stats = {"retries": 0, "undone": 0}
    sched = make_scheduler(db)
    sched.spawn(
        victim_at_first_convert(run_one_unit(protocol, protocol._swap_unit(a, b), stats)),
        name="reorg", is_reorganizer=True,
    )
    sched.run()

    assert sched.failed == [] and stats == {"retries": 1, "undone": 1}
    assert [done for _txn, done in sched.completed] == [True]
    final = db.tree()
    final.validate()
    assert {r.key: r.payload for r in final.items()} == oracle
    swapped = [{a: b, b: a}.get(leaf, leaf) for leaf in chain]
    assert final.leaf_ids_in_key_order() == swapped


def test_retried_swap_reads_a_neighbour_split_it_did_not_patch():
    """A swap picked as deadlock victim at its R->X conversion is undone —
    its contents exchanged back — and retried from the start.  A user's
    split of the leaf before it, under another base page, lands between the
    retry's neighbour read and its X lock on that leaf: the side-pointer fix
    must see the split."""
    db = make_db(SidePointerKind.ONE_WAY)
    tree = db.tree()
    protocol = ReorgProtocol(db, "primary", ReorgConfig())
    parent_of, capacity = protocol.engine.parent_of, db.store.config.leaf_capacity
    chain = tree.leaf_ids_in_key_order()

    def room(leaf, after):  # absent keys an insert routes to ``leaf``
        low, high = (tree.store.get_leaf(pid).min_key() for pid in (leaf, after))
        return [
            k for k in range(low, high)
            if tree.leaf_for(k).page_id == leaf and tree.search(k) is None
        ]

    # a opens its base page and swaps with that page's last leaf b; before,
    # the last leaf of another base page, is filled.
    a, before = next(
        (a, before) for before, a in zip(chain, chain[1:])
        if parent_of(before) != parent_of(a)
        and not db.store.get_internal(parent_of(before)).is_full
        and len(room(before, a)) > capacity - tree.store.get_leaf(before).num_items
    )
    b = db.store.get_internal(parent_of(a)).children()[-1]
    assert b != a
    fill = room(before, a)
    for key in fill[: capacity - tree.store.get_leaf(before).num_items]:
        tree.insert(Record(key, "fill"))
    oracle = {r.key: r.payload for r in tree.items()}
    splitting = fill[-1]
    oracle[splitting] = "new"
    assert tree.store.get_leaf(before).is_full

    stats = {"retries": 0, "undone": 0}
    unit = protocol._swap_unit(a, b)
    sched = make_scheduler(db)
    sched.spawn(
        victim_at_first_convert(run_one_unit(protocol, unit, stats)),
        name="reorg", is_reorganizer=True,
    )
    # X on ``before`` from t=0.25, split at t=1.25: the retry starts at 0.5.
    sched.spawn(updater_insert(db, "primary", Record(splitting, "new"), think=1.0), at=0.25)
    splits = db.frag_stats().leaf_splits
    sched.run()

    assert sched.failed == [] and stats == {"retries": 1, "undone": 1}
    assert db.frag_stats().leaf_splits == splits + 1
    final = db.tree()
    final.validate()  # every side pointer, the split's new leaf's included
    assert {r.key: r.payload for r in final.items()} == oracle


def test_pass2_that_cannot_converge_fails_loudly():
    db = make_db()
    Reorganizer(db, db.tree(), ReorgConfig()).run_pass1()
    protocol = ReorgProtocol(db, "primary", ReorgConfig())
    units = []

    def always_skipped(describe, stats):
        units.append(describe())
        return False
        yield  # a generator that gives up before its first op

    protocol._run_unit = always_skipped
    sched = make_scheduler(db)
    sched.spawn(protocol.pass2(), name="reorg", is_reorganizer=True)
    with pytest.raises(ReorgError, match="ordering did not converge"):
        sched.run()
    # The step cap: 4 x leaves + 8, every step planning the same unit.
    assert len(units) == 4 * len(db.tree().leaf_ids_in_key_order()) + 8
    assert len({tuple(unit.leaves) for unit in units}) == 1


# -- a DES move is a MOVE unit -------------------------------------------------------


SCATTERED = ReorgConfig(free_space_policy=FreeSpacePolicy.FIRST_FIT)


def after_pass1(kind=SidePointerKind.ONE_WAY):
    """A tree whose pass 2 both swaps and moves, made durable after pass 1."""
    db = make_db(kind)
    Reorganizer(db, db.tree(), SCATTERED).run_pass1()
    db.flush()
    db.checkpoint()
    return db


def des_pass2(db):
    sched = make_scheduler(db)
    sched.spawn(ReorgProtocol(db, "primary", SCATTERED).pass2(), name="reorg", is_reorganizer=True)
    return sched


def test_des_moves_log_their_begin_as_move():
    db = after_pass1()
    mark = db.log.last_lsn
    sched = des_pass2(db)
    sched.run()
    ((_txn, stats),) = sched.completed
    types = [
        r.unit_type for r in db.log.records_from(mark + 1) if isinstance(r, ReorgBeginRecord)
    ]
    assert stats["moves"] > 0 and stats["swaps"] > 0
    assert types.count(ReorgUnitType.MOVE) == stats["moves"]
    assert types.count(ReorgUnitType.SWAP) == stats["swaps"]
    assert len(types) == stats["moves"] + stats["swaps"]


def test_a_crash_after_each_record_of_a_des_move_recovers_forward():
    db = after_pass1()
    mark = db.log.last_lsn
    des_pass2(db).run()
    logged = list(db.log.records_from(mark + 1))
    first = next(
        i for i, r in enumerate(logged)
        if isinstance(r, ReorgBeginRecord) and r.unit_type is ReorgUnitType.MOVE
    )
    end = next(
        i for i, r in enumerate(logged[first:], first)
        if isinstance(r, ReorgEndRecord) and r.unit_id == logged[first].unit_id
    )
    assert end - first > 3  # BEGIN, the MOVE pair, MODIFYs, END at least
    for crash_after in range(first + 1, end + 2):
        db = after_pass1()
        expected = [(r.key, r.payload) for r in db.tree().items()]
        sched = des_pass2(db)
        with pytest.raises(CrashPoint):
            with LogCrashInjector(db.log, after_records=crash_after):
                sched.run()
        recovery = crash_recover(db)
        in_flight = [p.unit_type for p in recovery.pending_units]
        assert in_flight == ([ReorgUnitType.MOVE] if crash_after <= end else []), crash_after
        Reorganizer(db, db.tree(), SCATTERED).forward_recover(recovery)
        tree = db.tree()
        tree.validate()
        assert [(r.key, r.payload) for r in tree.items()] == expected, crash_after
        assert not db.progress.unit_in_flight
