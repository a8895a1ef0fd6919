"""The synchronous passes' maintained leaf chain and resident index.

A pass that owns the tree (``UnitEngine.owning_tree``) reads the engine's
key-order leaf chain, seeded from one walk and patched per unit; these tests
hold it to the tree after *every* unit, check the rebuild fallback, the pin
scope of the index holder, and that walks no longer scale with the unit
count.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    FreeSpacePolicy, ReorgConfig, ShardConfig, SidePointerKind, TreeConfig,
)
from repro.db import Database
from repro.errors import CrashPoint
from repro.reorg.protocols import ReorgProtocol
from repro.reorg.reorganizer import Reorganizer
from repro.reorg.unit import LeafChain
from repro.shard import ShardedDatabase
from repro.sim.crash import LogCrashInjector
from repro.sim.workload import build_sparse_tree
from repro.storage.page import NO_PAGE, PageKind, Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import SidePointerRecord

KINDS = list(SidePointerKind)


def sparse_db(kind, *, n_records=600, pool=128, capacity=8, **flags):
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


def check_every_unit(reorg, tree):
    """After each unit the chain the pass owns must be the tree's, and the
    tree valid.  Returns the (growing) list of unit types seen."""
    seen = []

    def check(result):
        assert list(reorg.engine.chain) == tree.leaf_ids_in_key_order()
        tree.validate()
        seen.append(result.unit_type)

    after_each_unit(reorg.engine, check)
    return seen


# -- the linked chain itself --------------------------------------------------------


@given(data=st.data(), n=st.integers(1, 12))
def test_chain_edits_match_a_list_model(data, n):
    model, order = list(range(n)), [0]
    chain = LeafChain(lambda: list(range(n)), lambda: order[0])
    chain.epoch()
    fresh = n
    for _ in range(6):
        order[0] += 1  # the engine's bump for its unit: the edit patches
        if data.draw(st.booleans()) and len(model) > 1:
            i, j = data.draw(
                st.lists(st.integers(0, len(model) - 1), min_size=2, max_size=2, unique=True)
            )
            chain.swap(model[i], model[j])
            model[i], model[j] = model[j], model[i]
        else:
            lo = data.draw(st.integers(0, len(model) - 1))
            hi = data.draw(st.integers(lo, len(model) - 1))
            removed = model[lo : hi + 1]
            random.Random(lo).shuffle(removed)  # any order names the same run
            # New-place (fresh ids) or in-place (one of the removed pages).
            inserted = data.draw(
                st.sampled_from([[fresh], [fresh, fresh + 1], removed[:1]])
            )
            fresh += 2
            chain.splice(removed, inserted)
            model[lo : hi + 1] = inserted
        assert list(chain) == model and len(chain) == len(model)
        for i, pid in enumerate(model):
            before = model[i - 1] if i else NO_PAGE
            after = model[i + 1] if i + 1 < len(model) else NO_PAGE
            assert chain.neighbours(pid) == (before, after)


def test_chain_reseeds_on_an_edit_that_disagrees_with_it():
    walks, order = [], [0]
    chain = LeafChain(lambda: walks.append(1) or [1, 2, 3, 4], lambda: order[0])
    chain.epoch()
    for edit in (
        lambda: chain.splice([1, 3], [9]),  # not one run
        lambda: chain.splice([2, 7], [9]),  # 7 is not chained
        lambda: chain.splice([2], [4]),  # 4 is chained elsewhere
        lambda: chain.swap(2, 7),
        lambda: chain.swap(2, 2),
    ):
        walks.clear()
        order[0] += 1
        edit()
        assert len(walks) == 1 and list(chain) == [1, 2, 3, 4]


# -- equal to the tree after every unit ------------------------------------------


CELLS = {
    # name: (ReorgConfig overrides, TreeConfig flags, what must have occurred)
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
}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("cell", CELLS)
def test_chain_equals_walk_after_every_unit(cell, kind):
    overrides, flags, occurred = CELLS[cell]
    db, tree = sparse_db(kind, **flags)
    before = [(r.key, r.payload) for r in tree.items()]
    reorg = Reorganizer(db, tree, ReorgConfig(**overrides))
    seen = check_every_unit(reorg, tree)
    pass1, pass2 = reorg.run_pass1(), reorg.run_pass2()
    assert occurred(pass1, pass2), "the cell must exercise its kind of unit"
    assert len(seen) == pass1.units + pass2.operations
    assert [(r.key, r.payload) for r in tree.items()] == before
    assert pass1.leaves_after == len(tree.leaf_ids_in_key_order())


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


# -- the rebuild fallback, and how often the tree is walked ----------------------------
# (``walks`` counts ``BPlusTree.leaf_ids_in_key_order`` calls; tests/conftest.py)


def test_corrupt_chain_is_rebuilt_not_served(walks):
    """Patch a leaf of the first group out of the chain: the unit's splice
    no longer matches, so the engine re-seeds from a walk and logs the very
    side pointers of an undisturbed pass."""
    logged = {}
    for corrupt in (False, True):
        db, tree = sparse_db(SidePointerKind.TWO_WAY)
        logged[corrupt] = records = []
        append = db.log.append

        def recording_append(record, append=append, records=records):
            if isinstance(record, SidePointerRecord):
                records.append((record.page_id, record.next_leaf, record.prev_leaf))
            return append(record)

        db.log.append = recording_append
        reorg = Reorganizer(db, tree, ReorgConfig())
        owning_tree = reorg.engine.owning_tree

        @contextmanager
        def corrupted():
            with owning_tree() as chain:
                tree.leaf_order_changed()  # so that the bad splice patches
                chain.splice([list(chain)[1]], [])
                yield chain

        if corrupt:
            reorg.engine.owning_tree = corrupted
        walks.clear()
        reorg.run_pass1()
        assert len(walks) == (2 if corrupt else 1)  # the seed, the rebuild
        tree.validate()
    assert logged[True] == logged[False] != []


@pytest.mark.parametrize("sharded", [False, True], ids=["database", "shard"])
def test_a_crash_stales_every_chain(sharded):
    """Redo stops at the stable log, which lacks a split the chain has
    already read: the crash, not a split or a unit, moves the counter."""
    config = TreeConfig(
        leaf_capacity=4, internal_capacity=4, leaf_extent_pages=256,
        internal_extent_pages=128, buffer_pool_pages=128,
        side_pointers=SidePointerKind.ONE_WAY,
    )
    records = [Record(k, "v") for k in range(0, 400, 2)]
    fill = dict(leaf_fill=1.0, internal_fill=0.5)  # the split stays below the root
    if sharded:
        db = ShardedDatabase(config, ShardConfig(n_shards=2))
        db.bulk_load(records, **fill)
        owner = db.handle(0)
    else:
        db = owner = Database(config)
        db.bulk_load_tree(records, **fill)
    db.flush()

    def walk():
        return owner.tree().leaf_ids_in_key_order()

    chain = LeafChain(walk, owner.tree().leaf_order)
    chain.epoch()
    owner.tree().insert(Record(1, "lost"))  # splits the first leaf
    chain.epoch()
    split = list(chain)
    db.crash()
    db.recover()
    chain.epoch()
    assert len(split) == len(list(chain)) + 1 and list(chain) == walk()


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
    # One seed walk per leaf pass and pass 3's leaf count.
    assert counts[2_000] == counts[8_000] <= 3


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
