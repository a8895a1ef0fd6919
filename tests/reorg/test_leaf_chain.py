"""The leaf cursor the reorganizer finds neighbouring leaves with, and the
resident index of the synchronous passes.

Pass 2 plans on the tree's leaf cursor and every unit's side-pointer
neighbours are the cursor's steps from the unit's base pages; these tests
hold both to a fresh tree walk after *every* unit, check the pin scope of
the index holder, and that walks no longer happen per unit.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FreeSpacePolicy, ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.reorg.protocols import ReorgProtocol
from repro.reorg.reorganizer import Reorganizer
from repro.sim.crash import LogCrashInjector
from repro.sim.workload import build_sparse_tree
from repro.storage.page import NO_PAGE, PageKind, Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import LeafDeleteRecord

KINDS = list(SidePointerKind)


def sparse_db(kind, *, n_records=600, pool=128, capacity=8, empty=0, **flags):
    """A sparse tree; ``empty`` > 0 empties every that-many-th leaf without
    freeing it, as a crash between a delete and its free leaves it."""
    db = Database(
        TreeConfig(
            leaf_capacity=capacity,
            internal_capacity=capacity,
            leaf_extent_pages=1024,
            internal_extent_pages=512,
            buffer_pool_pages=pool,
            side_pointers=kind,
            **flags,
        )
    )
    tree = build_sparse_tree(db, n_records=n_records, fill_after=0.3)
    for leaf_id in tree.leaf_ids_in_key_order()[1::empty] if empty else ():
        for record in list(db.store.get_leaf(leaf_id).records):
            tree._log_apply(LeafDeleteRecord(page_id=leaf_id, record=record, tree_name=tree.name))
    return db, tree


def pinned(db):
    return [pid for pid, frame in db.store.buffer._frames.items() if frame.pins]


def internal_ids(db, tree):
    ids, stack = [], [tree.root_id]
    while stack:
        page = db.store.get(stack.pop())
        if page.kind is PageKind.INTERNAL:
            ids.append(page.page_id)
            stack.extend(page.children())
    return ids


def after_each_unit(engine, hook):
    """Call ``hook(result)`` whenever the engine completes a unit."""
    for name in ("complete_compact", "complete_swap"):
        def completed(*args, _complete=getattr(engine, name), **kwargs):
            result = _complete(*args, **kwargs)
            hook(result)
            return result

        setattr(engine, name, completed)


def check_neighbours(engine, tree):
    """Stepping the leaf cursor from the first place visits the walk's
    leaves, and the neighbours the engine finds from each place are the
    walk's: the previous and the next leaf in key order."""
    walk = tree.leaf_ids_in_key_order()
    assert tree.leaf_count() == len(walk)
    place = tree.first_leaf_place()
    if place is None:  # a leaf root has no base page, hence no place
        assert walk == [tree.root_id]
        return
    ring = [None, *walk, None]
    for rank, leaf in enumerate(walk):
        assert engine.leaf_places([place[0]], [leaf]) == [(*place, leaf)]
        steps = [tree.leaf_neighbour(*place, side) for side in (-1, 1)]
        assert [at and at[2] for at in steps] == [ring[rank], ring[rank + 2]]
        place = steps[1] and steps[1][:2]
    assert place is None


def check_every_unit(reorg, tree):
    """Before the passes and after each unit the engine's neighbours must
    be the tree walk's, and the tree valid.  Returns the (growing) list of
    unit types seen."""
    seen = []

    def check(result):
        check_neighbours(reorg.engine, tree)
        tree.validate()
        seen.append(result.unit_type)

    check_neighbours(reorg.engine, tree)
    after_each_unit(reorg.engine, check)
    return seen


# -- equal to the tree after every unit ------------------------------------------


CELLS = {
    # name: (ReorgConfig overrides, sparse_db arguments, what must have occurred)
    "in_place": (dict(free_space_policy=FreeSpacePolicy.NONE), {},
                 lambda p1, p2: p1.in_place_units and not p1.new_place_units),
    "new_place": ({}, {}, lambda p1, p2: p1.new_place_units),
    "multi_output": (dict(max_unit_output_pages=3), {},
                     lambda p1, p2: any(len(r.sources_freed) > 3 for r in p1.results)),
    "move": ({}, {}, lambda p1, p2: p2.moves),
    "swap": (dict(free_space_policy=FreeSpacePolicy.FIRST_FIT), {},
             lambda p1, p2: p2.swaps),
    "swap_seek_aware": (dict(free_space_policy=FreeSpacePolicy.FIRST_FIT),
                        dict(seek_aware_pass2=True), lambda p1, p2: p2.swaps),
    "empty_leaves": ({}, dict(empty=6), lambda p1, p2: p1.units and p2.moves),
    "leaf_root": ({}, dict(n_records=5), lambda p1, p2: p1.leaves_before == 1),
    "pool_8": ({}, dict(n_records=400, pool=8, capacity=4),
               lambda p1, p2: p1.units and p2.operations),
    "pool_16": ({}, dict(n_records=400, pool=16, capacity=4),
                lambda p1, p2: p1.units and p2.operations),
}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("cell", CELLS)
def test_chain_equals_walk_after_every_unit(cell, kind):
    overrides, shape, occurred = CELLS[cell]
    db, tree = sparse_db(kind, **shape)
    before = [(r.key, r.payload) for r in tree.items()]
    reorg = Reorganizer(db, tree, ReorgConfig(**overrides))
    seen = check_every_unit(reorg, tree)
    pass1, pass2 = reorg.run_pass1(), reorg.run_pass2()
    assert occurred(pass1, pass2), "the cell must exercise its kind of unit"
    assert len(seen) == pass1.units + pass2.operations
    assert [(r.key, r.payload) for r in tree.items()] == before
    assert pass1.leaves_after == len(tree.leaf_ids_in_key_order())
    assert pinned(db) == []


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.sets(st.integers(0, 4000), min_size=40, max_size=250),
    delete_fraction=st.floats(min_value=0.2, max_value=0.9),
    kind=st.sampled_from(KINDS),
    policy=st.sampled_from(list(FreeSpacePolicy)),
    outputs=st.sampled_from([1, 3]),
    seek_aware=st.booleans(),
    seed=st.integers(0, 99),
)
def test_chain_equals_walk_on_random_trees(
    keys, delete_fraction, kind, policy, outputs, seek_aware, seed
):
    db = Database(
        TreeConfig(
            leaf_capacity=4,
            internal_capacity=4,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            buffer_pool_pages=64,
            side_pointers=kind,
            seek_aware_pass2=seek_aware,
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, f"v{k}") for k in sorted(keys)], leaf_fill=1.0, internal_fill=0.6
    )
    doomed = int(len(keys) * delete_fraction)
    for key in random.Random(seed).sample(sorted(keys), doomed):
        tree.delete(key)
    before = [(r.key, r.payload) for r in tree.items()]
    reorg = Reorganizer(
        db, tree, ReorgConfig(free_space_policy=policy, max_unit_output_pages=outputs)
    )
    check_every_unit(reorg, tree)
    reorg.run_pass1()
    reorg.run_pass2()
    assert [(r.key, r.payload) for r in tree.items()] == before
    assert pinned(db) == []


def test_seek_aware_pass2_reaches_the_key_order_layout():
    layouts = []
    for seek_aware in (False, True):
        db, tree = sparse_db(SidePointerKind.ONE_WAY, seek_aware_pass2=seek_aware)
        reorg = Reorganizer(
            db, tree, ReorgConfig(free_space_policy=FreeSpacePolicy.FIRST_FIT)
        )
        reorg.run_pass1()
        assert reorg.run_pass2().swaps
        layouts.append(tree.leaf_ids_in_key_order())
    assert layouts[0] == layouts[1] == sorted(layouts[0])


def pass2_of_shuffled_tree(seed, seek_aware, *, des):
    """Pass 2 after pass 1 on a tree grown by shuffled inserts, run by the
    synchronous reorganizer or, with no users, on the DES: (swaps, moves,
    final layout, log bytes)."""
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=8,
            leaf_extent_pages=1024,
            internal_extent_pages=512,
            buffer_pool_pages=128,
            side_pointers=SidePointerKind.ONE_WAY,
            seek_aware_pass2=seek_aware,
        )
    )
    tree = db.create_tree()
    rng = random.Random(seed)
    keys = list(range(2000))
    rng.shuffle(keys)
    for key in keys:
        tree.insert(Record(key, "v"))
    for key in rng.sample(keys, 1400):
        tree.delete(key)
    reorg = Reorganizer(db, tree, ReorgConfig())
    reorg.run_pass1()
    logged = db.log.stats.bytes_appended
    if des:
        sched = Scheduler(db.locks, store=db.store, log=db.log)
        protocol = ReorgProtocol(db, tree.name, ReorgConfig())
        sched.spawn(protocol.pass2(), name="reorg", is_reorganizer=True)
        sched.run()
        ((_txn, stats),) = sched.completed
        swaps, moves = stats["swaps"], stats["moves"]
    else:
        stats = reorg.run_pass2()
        swaps, moves = stats.swaps, stats.moves
    tree.validate()
    return swaps, moves, tree.leaf_ids_in_key_order(), db.log.stats.bytes_appended - logged


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seek_aware_pass2_trades_swaps_for_moves(seed):
    """On a tree grown by shuffled inserts the two schedules end at one
    layout, but not through the same units: sweeping moves first leaves
    swaps only for true cycles, so the mix — and with it the log volume,
    in either direction — differs.  The DES pass honours the schedule too:
    run with no users, it makes the synchronous pass's units."""
    runs = {}
    for seek_aware in (False, True):
        runs[seek_aware] = pass2_of_shuffled_tree(seed, seek_aware, des=False)
        assert pass2_of_shuffled_tree(seed, seek_aware, des=True) == runs[seek_aware]
    (key_swaps, _, layout, key_order_log), (seek_swaps, _, seek_layout, seek_log) = (
        runs[False], runs[True]
    )
    assert seek_layout == layout == sorted(layout)
    assert key_swaps > 0, "the fixture must make key order swap"
    assert seek_swaps <= key_swaps
    assert (seek_swaps < key_swaps) == (seek_log != key_order_log)


# -- how often the tree is walked ----------------------------------------------------
# (``walks`` counts walks of the upper levels; tests/conftest.py)


def test_walks_do_not_scale_with_units(walks):
    counts = {}
    for n_records in (2_000, 8_000):
        db, tree = sparse_db(
            SidePointerKind.ONE_WAY, n_records=n_records, pool=512, capacity=16
        )
        walks.clear()
        report = Reorganizer(db, tree, ReorgConfig()).run()
        counts[n_records] = len(walks)
        assert report.pass1.units + report.pass2.operations > n_records // 100
    # Pass 1's leaf counts before and after, and pass 2's at its restart.
    assert counts[2_000] == counts[8_000] == 3


# -- the index holder ---------------------------------------------------------------


def test_index_is_pinned_during_the_leaf_passes_only():
    db, tree = sparse_db(SidePointerKind.ONE_WAY)
    index = sorted(internal_ids(db, tree))
    reorg = Reorganizer(db, tree, ReorgConfig())
    held = []
    after_each_unit(reorg.engine, lambda _: held.append(sorted(pinned(db))))
    # Pass 3 and the switch free the old index, outside the holder.
    dropped = []
    drop = db.store.buffer.drop

    def audited_drop(pid):
        assert pid not in pinned(db)
        dropped.append(pid)
        drop(pid)

    db.store.buffer.drop = audited_drop
    report = reorg.run()
    assert held and all(pins == index for pins in held)
    assert pinned(db) == []
    assert report.switch.old_internal_freed and set(index) <= set(dropped)
    db.tree().validate()


def test_pins_are_released_when_a_pass_crashes_or_a_unit_raises():
    db, tree = sparse_db(SidePointerKind.ONE_WAY)
    with pytest.raises(CrashPoint):
        with LogCrashInjector(db.log, after_records=40):
            Reorganizer(db, tree, ReorgConfig()).run()
    assert pinned(db) == []

    db, tree = sparse_db(SidePointerKind.ONE_WAY)
    reorg = Reorganizer(db, tree, ReorgConfig())
    calls = []

    def failing(*args, **kwargs):
        calls.append(sorted(pinned(db)))
        raise RuntimeError("unit failed")

    reorg.engine.complete_compact = failing
    with pytest.raises(RuntimeError):
        reorg.run_pass1()
    assert calls[0] == sorted(internal_ids(db, tree))
    assert pinned(db) == []


@pytest.mark.parametrize("pool, holds", [(8, 0), (16, 4)])
def test_pool_smaller_than_the_index_still_reorganizes(pool, holds):
    """The holder pins root-down only while the pool keeps the 2 * 4 + 4
    frames a unit needs; here that is a sliver of the index, or nothing,
    and all three passes must still run."""
    db, tree = sparse_db(SidePointerKind.TWO_WAY, n_records=400, pool=pool, capacity=4)
    assert len(internal_ids(db, tree)) > pool
    before = [(r.key, r.payload) for r in tree.items()]
    reorg = Reorganizer(db, tree, ReorgConfig())
    held = []
    after_each_unit(reorg.engine, lambda _: held.append(len(pinned(db))))
    reorg.run()
    assert set(held) == {holds}
    assert pinned(db) == []
    final = db.tree()
    final.validate()
    assert [(r.key, r.payload) for r in final.items()] == before
