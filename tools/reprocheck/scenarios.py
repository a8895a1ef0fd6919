"""The scenario registry: small, deterministic concurrency worlds.

Every builder returns a fresh :class:`~repro.analysis.explorer.World` —
same spawn plan, same tree, same keys on every call — which is what lets
the explorer re-execute a scenario hundreds of times and replay any trace.
Keep scenarios *tiny*: exploration cost is (schedules x world size).
"""

from __future__ import annotations

import contextlib

from repro.analysis.explorer import Scenario, World
from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.errors import (
    CrashPoint,
    DeadlockError,
    SwitchTimeoutError,
    TransactionAborted,
)
from repro.btree.protocols import (
    _locked_reader_range_scan,
    _optimistic_reader_range_scan,
    reader_range_scan,
    reader_search,
    updater_delete,
    updater_insert,
)
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.reorg.reorganizer import Reorganizer
from repro.sim.crash import LogCrashInjector, crash_recover
from repro.sim.workload import WorkloadConfig, build_sparse_tree, plan_workload, transaction_generator
from repro.storage.page import Record
from repro.txn.scheduler import Scheduler
from repro.wal.records import TreeSwitchRecord

_EXPECTED = (TransactionAborted, DeadlockError, SwitchTimeoutError)


def _tiny_config() -> TreeConfig:
    return TreeConfig(
        leaf_capacity=4,
        internal_capacity=4,
        leaf_extent_pages=64,
        internal_extent_pages=32,
        buffer_pool_pages=16,
    )


def _tiny_db(n_records: int, fill_after: float, seed: int) -> tuple[Database, frozenset[int]]:
    db = Database(_tiny_config())
    build_sparse_tree(db, n_records=n_records, fill_after=fill_after, seed=seed)
    db.flush()
    db.checkpoint()
    initial = frozenset(record.key for record in db.tree().items())
    return db, initial


def _scheduler(db: Database) -> Scheduler:
    return Scheduler(db.locks, store=db.store, log=db.log, io_time=1.0, hit_time=0.05)


# -- reader-vs-pass1 ----------------------------------------------------------------


def _build_reader_vs_pass1() -> World:
    db, initial = _tiny_db(n_records=24, fill_after=0.45, seed=5)
    scheduler = _scheduler(db)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(do_swap_pass=False),
        op_duration=0.4, unit_pause=0.1,
    )
    scheduler.spawn(protocol.pass1(), name="reorganizer", is_reorganizer=True)
    keys = sorted(initial)
    targets = [keys[1], keys[len(keys) // 2], keys[-2]]
    reads: dict[str, int] = {}
    for index, key in enumerate(targets):
        name = f"reader-{index}"
        scheduler.spawn(
            reader_search(db, "primary", key, think=0.05),
            name=name, at=0.3 + 0.4 * index,
        )
        reads[name] = key
    return World(
        db=db, scheduler=scheduler, initial_keys=initial, reads=reads,
        expected_failures=_EXPECTED,
    )


# -- updater-vs-pass3-switch --------------------------------------------------------


def _pass3_protocol(db: Database, scheduler: Scheduler) -> ReorgProtocol:
    config = ReorgConfig(
        do_swap_pass=False,
        switch_wait_limit=3.0,
        abort_old_transactions_on_timeout=True,
        stable_point_interval=3,
    )
    protocol = ReorgProtocol(db, "primary", config, op_duration=0.3)
    protocol.abort_hook = lambda victims: [
        scheduler.abort_transaction(victim, "old-tree drain timeout")
        for victim in victims
    ]
    return protocol


def _build_updater_vs_pass3_switch() -> World:
    db, initial = _tiny_db(n_records=40, fill_after=0.5, seed=7)
    scheduler = _scheduler(db)
    protocol = _pass3_protocol(db, scheduler)
    scheduler.spawn(protocol.pass3(), name="reorganizer", is_reorganizer=True)
    keys = sorted(initial)
    absent = next(k for k in range(40) if k not in initial)
    present = keys[len(keys) // 3]
    read_key = keys[-3]
    scheduler.spawn(
        updater_insert(db, "primary", Record(absent, "w"), think=0.05),
        name="insert-0", at=0.4,
    )
    scheduler.spawn(
        updater_delete(db, "primary", present, think=0.05),
        name="delete-0", at=0.9,
    )
    scheduler.spawn(
        reader_search(db, "primary", read_key, think=0.05),
        name="reader-0", at=1.3,
    )
    return World(
        db=db, scheduler=scheduler, initial_keys=initial,
        reads={"reader-0": read_key},
        writes={"insert-0": ("insert", absent), "delete-0": ("delete", present)},
        expected_failures=_EXPECTED,
    )


# -- updater-vs-pass2 ---------------------------------------------------------------


def _build_updater_vs_pass2() -> World:
    """A splitting insert and a free-at-empty delete race a DES pass 2 over
    leaves that shuffled inserts scattered across the extent, with one-way
    side pointers: each structural change moves the tree's leaf-order
    counter, so the pass's key-order planner restarts at rank 0, and every
    move or swap still X-locks the neighbours whose pointers it edits (the
    leaf cursor's steps from the unit's base pages)."""
    import random

    from repro.config import SidePointerKind

    config = TreeConfig(
        leaf_capacity=4,
        internal_capacity=4,
        leaf_extent_pages=64,
        internal_extent_pages=32,
        buffer_pool_pages=16,
        side_pointers=SidePointerKind.ONE_WAY,
    )
    db = Database(config)
    tree = db.create_tree()
    keys = list(range(0, 40, 2))
    random.Random(31).shuffle(keys)
    for key in keys:
        tree.insert(Record(key, "v"))
    leaves = [tree.store.get_leaf(pid) for pid in tree.leaf_ids_in_key_order()]
    # The insert lands in a full leaf (between two of its keys): it splits.
    full = next(leaf for leaf in leaves if leaf.is_full)
    absent = full.min_key() + 1
    # The delete takes the last record of a leaf: it frees the leaf.
    thinned = next(leaf for leaf in reversed(leaves) if not leaf.is_full)
    *others, last = thinned.keys()
    for key in others:
        tree.delete(key)
    db.flush()
    db.checkpoint()
    initial = frozenset(record.key for record in db.tree().items())
    scheduler = _scheduler(db)
    protocol = ReorgProtocol(db, "primary", ReorgConfig(), op_duration=0.3, unit_pause=0.05)
    scheduler.spawn(protocol.pass2(), name="reorganizer", is_reorganizer=True)
    scheduler.spawn(
        updater_insert(db, "primary", Record(absent, "w"), think=0.05),
        name="insert-0", at=0.4,
    )
    scheduler.spawn(
        updater_delete(db, "primary", last, think=0.05),
        name="delete-0", at=0.9,
    )
    return World(
        db=db, scheduler=scheduler, initial_keys=initial,
        writes={"insert-0": ("insert", absent), "delete-0": ("delete", last)},
        expected_failures=_EXPECTED,
    )


# -- crash-during-switch ------------------------------------------------------------


def _build_crash_during_switch() -> World:
    db, initial = _tiny_db(n_records=40, fill_after=0.5, seed=9)
    scheduler = _scheduler(db)
    config = ReorgConfig(do_swap_pass=False, stable_point_interval=3)
    protocol = ReorgProtocol(db, "primary", config, op_duration=0.3)
    scheduler.spawn(protocol.pass3(), name="reorganizer", is_reorganizer=True)
    keys = sorted(initial)
    reads: dict[str, int] = {}
    for index, key in enumerate((keys[2], keys[-4])):
        name = f"reader-{index}"
        scheduler.spawn(
            reader_search(db, "primary", key, think=0.05),
            name=name, at=0.3 + 0.5 * index,
        )
        reads[name] = key

    # Crash the instant the switch record is stable: the record is appended
    # and flushed, the root flip has NOT happened yet — recovery must finish
    # the switch forward (section 7.4 / 5.1).
    log = db.log
    original_append = log.append

    def crashing_append(record):
        lsn = original_append(record)
        if isinstance(record, TreeSwitchRecord):
            log.flush()
            raise CrashPoint("crash immediately after the switch record is stable")
        return lsn

    log.append = crashing_append

    def drive(world: World) -> None:
        try:
            world.scheduler.run()
        except CrashPoint:
            world.db.crash()
            report = world.db.recover()
            reorganizer = Reorganizer(world.db, world.db.tree("primary"), config)
            reorganizer.forward_recover(report)

    return World(
        db=db, scheduler=scheduler, initial_keys=initial, reads=reads,
        expected_failures=_EXPECTED, drive=drive,
    )


# -- canned workloads ---------------------------------------------------------------


def _build_mixed_tiny() -> World:
    db, initial = _tiny_db(n_records=40, fill_after=0.5, seed=11)
    scheduler = _scheduler(db)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(do_swap_pass=False),
        op_duration=0.3, unit_pause=0.05,
    )
    scheduler.spawn(
        full_reorganization(protocol), name="reorganizer", is_reorganizer=True
    )
    workload = WorkloadConfig(
        n_transactions=6,
        read_fraction=0.5, scan_fraction=0.0,
        insert_fraction=0.25, delete_fraction=0.25,
        key_space=40, mean_interarrival=0.25, think=0.05, seed=13,
    )
    reads: dict[str, int] = {}
    writes: dict[str, tuple[str, int]] = {}
    for index, plan in enumerate(plan_workload(workload)):
        name = f"{plan.kind}-{index}"
        scheduler.spawn(
            transaction_generator(db, "primary", plan, workload.think),
            name=name, at=plan.arrival,
        )
        if plan.kind == "read":
            reads[name] = plan.key
        elif plan.kind in ("insert", "delete"):
            writes[name] = (plan.kind, plan.key)
    return World(
        db=db, scheduler=scheduler, initial_keys=initial,
        reads=reads, writes=writes, expected_failures=_EXPECTED,
    )


def _build_scan_vs_pass1() -> World:
    db, initial = _tiny_db(n_records=24, fill_after=0.5, seed=15)
    scheduler = _scheduler(db)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(do_swap_pass=False),
        op_duration=0.3, unit_pause=0.05,
    )
    scheduler.spawn(protocol.pass1(), name="reorganizer", is_reorganizer=True)
    keys = sorted(initial)
    scheduler.spawn(
        reader_range_scan(db, "primary", keys[0], keys[len(keys) // 2], think_per_page=0.02),
        name="scan-0", at=0.3,
    )
    scheduler.spawn(
        reader_range_scan(db, "primary", keys[len(keys) // 3], keys[-1], think_per_page=0.02),
        name="scan-1", at=0.7,
    )
    absent = next(k for k in range(24) if k not in initial)
    scheduler.spawn(
        updater_insert(db, "primary", Record(absent, "w"), think=0.05),
        name="insert-0", at=1.0,
    )
    return World(
        db=db, scheduler=scheduler, initial_keys=initial,
        writes={"insert-0": ("insert", absent)},
        expected_failures=_EXPECTED,
    )


# -- scan-vs-empty-leaf -------------------------------------------------------------


def _build_scan_vs_empty_leaf() -> World:
    """A locked and an optimistic range scan cover an empty leaf while an
    inserter puts a key into it and pass 1 drains it.  The leaf is what a
    crash between the delete that empties a leaf and its free-at-empty
    records leaves behind after recovery; without side pointers it has no
    key to find its successor by."""
    db = Database(_tiny_config())
    tree = db.bulk_load_tree([Record(k, "v") for k in range(16)], leaf_fill=0.5)
    tree.delete(6)
    with contextlib.suppress(CrashPoint), LogCrashInjector(db.log, after_records=1):
        tree.delete(7)
    crash_recover(db)
    db.flush()
    db.checkpoint()
    initial = frozenset(k for k in range(16) if k not in (6, 7))
    scheduler = _scheduler(db)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(do_swap_pass=False),
        op_duration=0.3, unit_pause=0.05,
    )
    scheduler.spawn(
        _locked_reader_range_scan(db, "primary", 2, 12, think_per_page=0.02),
        name="scan-locked", at=0.0,
    )
    scheduler.spawn(
        _optimistic_reader_range_scan(db, "primary", 6, 15, think_per_page=0.02),
        name="scan-optimistic", at=0.1,
    )
    scheduler.spawn(
        updater_insert(db, "primary", Record(7, "w"), think=0.05),
        name="insert-0", at=0.3,
    )
    scheduler.spawn(protocol.pass1(), name="reorganizer", is_reorganizer=True, at=0.5)
    return World(
        db=db, scheduler=scheduler, initial_keys=initial,
        scans={"scan-locked": (2, 12), "scan-optimistic": (6, 15)},
        writes={"insert-0": ("insert", 7)},
        expected_failures=_EXPECTED,
    )


# -- shard-reorg-scan ---------------------------------------------------------------


def _build_shard_reorg_scan() -> World:
    """Two shard reorganizers run the full per-shard three-pass algorithm
    concurrently while a cross-shard range scan and per-shard point
    readers traverse the forest.  The scenario restricts itself to the
    read-linearizability and switch-safety invariants: the whole-tree
    structure / side-file invariants assume one tree covering every
    initial key, which a forest deliberately is not."""
    import random

    from repro.config import ShardConfig
    from repro.shard import ParallelReorganizer, ShardedDatabase

    sdb = ShardedDatabase(_tiny_config(), ShardConfig(n_shards=2))
    keys = list(range(32))
    sdb.bulk_load([Record(k, "v") for k in keys])
    for key in random.Random(21).sample(keys, 16):
        sdb.delete(key)
    sdb.flush()
    sdb.checkpoint()
    initial = frozenset(r.key for r in sdb.range_scan(0, 31))
    scheduler = Scheduler(
        sdb.locks, store=sdb.store, log=sdb.log, io_time=1.0, hit_time=0.05
    )
    reorg = ParallelReorganizer(
        sdb,
        ReorgConfig(do_swap_pass=False, stable_point_interval=3),
        op_duration=0.3,
        unit_pause=0.05,
    )
    reorg.spawn_all(scheduler)

    ordered = sorted(initial)

    def cross_shard_scan(low, high):
        # Shard order == key order under range partitioning, so the
        # concatenation is the merged scan.
        for handle in sdb.handles:
            yield from reader_range_scan(
                sdb, handle.tree_name, low, high, think_per_page=0.02
            )

    scheduler.spawn(
        cross_shard_scan(ordered[0], ordered[-1]), name="scan-0", at=0.3
    )
    reads: dict[str, int] = {}
    for index, key in enumerate((ordered[1], ordered[-2])):
        handle = sdb.handles[sdb.router.shard_for(key)]
        name = f"reader-{index}"
        scheduler.spawn(
            reader_search(sdb, handle.tree_name, key, think=0.05),
            name=name, at=0.5 + 0.4 * index,
        )
        reads[name] = key
    return World(
        db=sdb,
        scheduler=scheduler,
        tree_name=sdb.handles[0].tree_name,
        initial_keys=initial,
        reads=reads,
        expected_failures=_EXPECTED,
    )


# -- optimistic-reader-vs-reorg -----------------------------------------------------


def _build_optimistic_reader_vs_reorg() -> World:
    """Optimistic (latch-free) readers race a full three-pass
    reorganization: version-validated point descents and a leaf-chain scan
    run against pass-1 group moves and the pass-3 switch.  Readers that
    observe an RX holder downgrade to the Table-1 locked protocol; the
    rest never touch the lock manager, so read-linearizability here checks
    that version-stamp validation alone keeps their results admissible,
    and switch-safety that the root bump re-anchors in-flight descents.
    Restricted to those two invariants: the structure / side-file
    invariants assume locked readers' quiescent states."""
    config = TreeConfig(
        leaf_capacity=4,
        internal_capacity=4,
        leaf_extent_pages=64,
        internal_extent_pages=32,
        buffer_pool_pages=16,
        optimistic_reads=True,
    )
    db = Database(config)
    build_sparse_tree(db, n_records=24, fill_after=0.45, seed=17)
    db.flush()
    db.checkpoint()
    initial = frozenset(record.key for record in db.tree().items())
    scheduler = _scheduler(db)
    protocol = ReorgProtocol(
        db, "primary",
        ReorgConfig(do_swap_pass=False, stable_point_interval=3),
        op_duration=0.3, unit_pause=0.05,
    )
    scheduler.spawn(
        full_reorganization(protocol), name="reorganizer", is_reorganizer=True
    )
    keys = sorted(initial)
    reads: dict[str, int] = {}
    for index, key in enumerate((keys[1], keys[len(keys) // 2], keys[-2])):
        name = f"reader-{index}"
        scheduler.spawn(
            reader_search(db, "primary", key, think=0.05),
            name=name, at=0.3 + 0.4 * index,
        )
        reads[name] = key
    scheduler.spawn(
        reader_range_scan(db, "primary", keys[0], keys[-1], think_per_page=0.02),
        name="scan-0", at=0.5,
    )
    return World(
        db=db, scheduler=scheduler, initial_keys=initial, reads=reads,
        expected_failures=_EXPECTED,
    )


# -- daemon-vs-readers --------------------------------------------------------------


def _build_daemon_vs_readers() -> World:
    """The fragmentation-aware auto-reorg daemon — not a manually spawned
    reorganizer — decides from the live fill-factor metrics to run the
    three-pass reorganization over a two-shard forest while latch-free
    optimistic readers and a cross-shard range scan traverse it.  Both
    pre-fragmented shards cross ``frag_high`` on the daemon's first poll,
    so the daemon reorganizes them back-to-back inside its own transaction
    with readers in flight.  Restricted to read-linearizability and
    switch-safety for the same reasons as ``shard-reorg-scan`` (a forest
    breaks the whole-tree invariants' assumptions) and
    ``optimistic-reader-vs-reorg`` (latch-free readers have no locked
    quiescent states)."""
    import random

    from repro.config import DaemonConfig, ShardConfig
    from repro.reorg.daemon import ReorgDaemon
    from repro.shard import ShardedDatabase

    config = TreeConfig(
        leaf_capacity=4,
        internal_capacity=4,
        leaf_extent_pages=64,
        internal_extent_pages=32,
        buffer_pool_pages=16,
        optimistic_reads=True,
    )
    sdb = ShardedDatabase(config, ShardConfig(n_shards=2))
    keys = list(range(32))
    sdb.bulk_load([Record(k, "v") for k in keys])
    for key in random.Random(23).sample(keys, 16):
        sdb.delete(key)
    sdb.flush()
    sdb.checkpoint()
    initial = frozenset(r.key for r in sdb.range_scan(0, 31))
    scheduler = Scheduler(
        sdb.locks, store=sdb.store, log=sdb.log, io_time=1.0, hit_time=0.05
    )
    daemon = ReorgDaemon.for_shards(
        sdb,
        DaemonConfig(
            poll_interval=0.5,
            frag_high=0.20,
            frag_low=0.05,
            cooldown=10.0,
            max_triggers=2,
        ),
        ReorgConfig(do_swap_pass=False, stable_point_interval=3),
        op_duration=0.3,
        unit_pause=0.05,
    )
    daemon.spawn(scheduler, horizon=2.0)

    ordered = sorted(initial)

    def cross_shard_scan(low, high):
        for handle in sdb.handles:
            yield from reader_range_scan(
                sdb, handle.tree_name, low, high, think_per_page=0.02
            )

    scheduler.spawn(
        cross_shard_scan(ordered[0], ordered[-1]), name="scan-0", at=0.3
    )
    reads: dict[str, int] = {}
    for index, key in enumerate((ordered[1], ordered[-2])):
        handle = sdb.handles[sdb.router.shard_for(key)]
        name = f"reader-{index}"
        scheduler.spawn(
            reader_search(sdb, handle.tree_name, key, think=0.05),
            name=name, at=0.6 + 0.4 * index,
        )
        reads[name] = key
    return World(
        db=sdb,
        scheduler=scheduler,
        tree_name=sdb.handles[0].tree_name,
        initial_keys=initial,
        reads=reads,
        expected_failures=_EXPECTED,
    )


def _build_deadlock_victim() -> World:
    """Minimal ABBA deadlock with the reorganizer on one side: every
    schedule that closes the cycle must pick the reorganizer as victim
    (exercises the ``on_victim`` hook on real deadlocks)."""
    from repro.locks.modes import LockMode
    from repro.txn.ops import Acquire, ReleaseAll, Think

    db = Database(_tiny_config())
    db.create_tree()
    db.flush()
    scheduler = _scheduler(db)
    page_a = ("page", 900)
    page_b = ("page", 901)

    def locker(first, second):
        yield Acquire(first, LockMode.X)
        yield Think(0.5)
        yield Acquire(second, LockMode.X)
        yield Think(0.1)
        yield ReleaseAll()

    scheduler.spawn(
        locker(page_a, page_b), name="reorganizer", is_reorganizer=True
    )
    scheduler.spawn(locker(page_b, page_a), name="user", at=0.1)
    return World(
        db=db, scheduler=scheduler, expected_failures=(DeadlockError,),
    )


#: Scenarios that break an invariant on every tree so far, with the
#: invariants they break.  ``--all`` explores and reports them without
#: failing on those, and fails once one runs clean (then its pinned trace
#: becomes a regression test).  tests/analysis/traces/ pins each one's
#: shrunk trace as a strict xfail.
KNOWN_VIOLATIONS: dict[str, tuple[str, ...]] = {
    # ROADMAP item 1: a swap racing the insert's split can still leave a key
    # above its slot's bound, after which the pass may find a leaf with no
    # parent; and a waiter reads a page with no stable image (item 1(a)).
    "updater-vs-pass2": ("btree-structure", "no-runtime-error"),
}


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="reader-vs-pass1",
            description="three point readers race pass-1 leaf compaction "
            "(RX back-off, instant RS, Table-1 on base and leaf pages)",
            build=_build_reader_vs_pass1,
        ),
        Scenario(
            name="updater-vs-pass3-switch",
            description="structural updaters and a reader race pass 3 and "
            "the switch (side-file capture + replay, drain/abort policy)",
            build=_build_updater_vs_pass3_switch,
        ),
        Scenario(
            name="updater-vs-pass2",
            description="a splitting insert and a free-at-empty delete race "
            "a DES pass 2 with one-way side pointers (the key-order planner "
            "restarts; moves and swaps lock their cursor neighbours)",
            build=_build_updater_vs_pass2,
        ),
        Scenario(
            name="crash-during-switch",
            description="crash right after the switch record is stable; "
            "recovery must finish the switch forward",
            build=_build_crash_during_switch,
        ),
        Scenario(
            name="mixed-tiny",
            description="canned workload: 6 planned read/insert/delete "
            "transactions against a full three-pass reorganization",
            build=_build_mixed_tiny,
        ),
        Scenario(
            name="scan-vs-pass1",
            description="canned workload: two overlapping range scans and "
            "an insert against pass-1 compaction",
            build=_build_scan_vs_pass1,
        ),
        Scenario(
            name="scan-vs-empty-leaf",
            description="a locked and an optimistic range scan cover an "
            "empty leaf left by a crash while an insert fills it and pass 1 "
            "drains it (no side pointers)",
            build=_build_scan_vs_empty_leaf,
            invariants=("read-linearizability", "btree-structure"),
        ),
        Scenario(
            name="shard-reorg-scan",
            description="two shard reorganizers run full three-pass reorgs "
            "in parallel against a cross-shard range scan and point readers",
            build=_build_shard_reorg_scan,
            invariants=("read-linearizability", "switch-safety"),
        ),
        Scenario(
            name="optimistic-reader-vs-reorg",
            description="latch-free version-validated readers and a scan "
            "race a full three-pass reorganization (RX downgrade, restart "
            "on stamp mismatch, root bump at the switch)",
            build=_build_optimistic_reader_vs_reorg,
            invariants=("read-linearizability", "switch-safety"),
        ),
        Scenario(
            name="daemon-vs-readers",
            description="the auto-reorg daemon triggers per-shard reorgs "
            "from live fragmentation metrics while optimistic readers and "
            "a cross-shard scan race the passes and switches",
            build=_build_daemon_vs_readers,
            invariants=("read-linearizability", "switch-safety"),
        ),
        Scenario(
            name="deadlock-victim",
            description="ABBA deadlock between the reorganizer and a user "
            "transaction; the reorganizer must always be the victim",
            build=_build_deadlock_victim,
        ),
    )
}
