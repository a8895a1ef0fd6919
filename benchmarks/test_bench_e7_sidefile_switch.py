"""E7 — side-file catch-up convergence and the switch window.

Paper section 7: "While the reorganizer is doing catch-up, some more
updates may be appended to the side-file.  Since leaf page splits don't
happen very often, we will eventually catch up all the changes."  And at
the switch (7.4/7.5): "Usually there will only be a small number of such
changes since these are the ones made while the reorganizer is waiting for
the X lock" — updaters are blocked on base pages only during that short
window.

Two experiments:

* **convergence** — sweep the concurrent split rate (inserts behind the
  scan per scanned base page) and report side-file entries appended,
  catch-up rounds, and the residue the switch itself must apply;
* **switch window** — in the concurrency simulation, measure how long the
  X lock on the side file is held and how many transactions it delays,
  compared with the total reorganization time.
"""

import pytest

from repro.config import ReorgConfig
from repro.reorg.reorganizer import Reorganizer
from repro.storage.page import Record
from tests.reorg.pass3_hooks import run_pass3

from conftest import banner, degrade_uniform, make_db

N_RECORDS = 4000
SPLIT_RATES = [0, 1, 3, 6]


def run_pass3_with_split_rate(rate, seed=13):
    """Pass 3 with `rate` hot inserts behind the scan per base page."""
    import random

    db = make_db(internal_capacity=16)
    tree = degrade_uniform(db, N_RECORDS, 0.3, seed=seed)
    rng = random.Random(seed)
    deleted = sorted(
        set(range(N_RECORDS)) - {r.key for r in tree.items()}
    )

    def during_scan(shrinker):
        from repro.reorg.shrink import SCAN_DONE_KEY

        if not shrinker.scanning:
            return
        ck = shrinker.get_current()
        if ck >= SCAN_DONE_KEY:
            return
        behind = [k for k in deleted[:200] if k < ck]
        for _ in range(rate):
            if not behind:
                return
            key = behind.pop(rng.randrange(len(behind)))
            deleted.remove(key)
            tree.insert(Record(key, "hot"))

    reorg = Reorganizer(db, tree, ReorgConfig(stable_point_interval=4))
    reorg.run_pass1()
    reorg.run_pass2()
    pass3, switch = run_pass3(reorg, during_scan=during_scan)
    db.tree().validate()
    return db, pass3, switch


def test_e7_sidefile_convergence(benchmark):
    banner("E7 — side-file catch-up vs concurrent split rate (section 7)")
    print(
        f"{'splits/page':>12} {'appended':>9} {'applied':>8} "
        f"{'rounds':>7} {'at switch':>10}"
    )
    rows = {}
    for rate in SPLIT_RATES:
        db, pass3, switch = run_pass3_with_split_rate(rate)
        rows[rate] = (pass3, switch)
        print(
            f"{rate:>12} {pass3.sidefile_appended:>9} "
            f"{pass3.sidefile_applied + switch.final_catchup_entries:>8} "
            f"{pass3.catchup_rounds:>7} {switch.final_catchup_entries:>10}"
        )
    # Every appended entry is applied exactly once, whatever the rate.
    for rate, (pass3, switch) in rows.items():
        applied = pass3.sidefile_applied + switch.final_catchup_entries
        assert applied == pass3.sidefile_appended, rate
    # No activity -> empty side file; activity -> it grows with the rate.
    assert rows[0][0].sidefile_appended == 0
    assert (
        rows[SPLIT_RATES[-1]][0].sidefile_appended
        > rows[1][0].sidefile_appended
    )
    benchmark.pedantic(
        lambda: run_pass3_with_split_rate(2), rounds=1, iterations=1
    )


def test_e7_switch_window_is_short(benchmark):
    """The X-on-side-file window is a sliver of the whole reorganization,
    and only blocks base-page updaters (section 7.5)."""
    from repro.locks.modes import LockMode
    from repro.locks.resources import sidefile_lock
    from repro.reorg.protocols import ReorgProtocol, full_reorganization
    from repro.sim.workload import build_sparse_tree
    from repro.txn.scheduler import Scheduler

    db = make_db(internal_capacity=16)
    build_sparse_tree(db, n_records=N_RECORDS, fill_after=0.3)
    sched = Scheduler(db.locks, store=db.store, log=db.log, io_time=0.05)
    protocol = ReorgProtocol(
        db, "primary", ReorgConfig(), unit_pause=0.02, scan_pause=0.05,
        op_duration=0.1,
    )
    window = {"acquired": None, "released": None}
    original_request = db.locks.request
    original_release = db.locks.release

    def spy_request(owner, resource, mode, **kwargs):
        request = original_request(owner, resource, mode, **kwargs)
        if resource == sidefile_lock("primary") and mode is LockMode.X:
            window["acquired"] = sched.now
        return request

    def spy_release(owner, resource, mode):
        if resource == sidefile_lock("primary") and mode is LockMode.X:
            window["released"] = sched.now
        return original_release(owner, resource, mode)

    db.locks.request = spy_request
    db.locks.release = spy_release
    reorg_txn = sched.spawn(
        full_reorganization(protocol), name="reorg", is_reorganizer=True
    )
    sched.run()
    total = reorg_txn.metrics.elapsed
    held = window["released"] - window["acquired"]
    print(
        f"\nreorganization ran {total:.1f} time units; the switch held the "
        f"side-file X lock for {held:.2f} ({100 * held / total:.1f}%)"
    )
    assert window["acquired"] is not None
    assert held < total * 0.05
    db.tree().validate()
    benchmark.pedantic(
        lambda: run_pass3_with_split_rate(0), rounds=1, iterations=1
    )
