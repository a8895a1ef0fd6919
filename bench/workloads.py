"""Seeded input generators and the sizes of the six workloads.

Everything here is plain data: the program under test receives only the
key / op / arrival lists built below.  Every generator tracks the live key
set as it plans (the way ``repro.sim.churn.plan_churn`` does), so a planned
insert is always new and a planned delete always present; an exception or
a ``False`` from the library is therefore a failure, never an expected
outcome.  The same ``dict`` the generator maintains is the oracle the
runner compares results against.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

SEARCH, INSERT, DELETE, SCAN = "search", "insert", "delete", "scan"

#: Size parameters per profile.  Only capacities, extents, pool pages, the
#: side-pointer kind and op counts are set; every TreeConfig / ReorgConfig /
#: DaemonConfig *flag* stays at its default so a later "make the cheap path
#: the default" change shows up as a gain.  ``smoke`` runs the same code
#: paths at about a tenth of the size.
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        # Tree (~5.5k pages) < pool (8192): the buffer pool only ever hits.
        "point_fit": dict(
            n_records=100_000, leaf_fill=0.7, ops=120_000,
            leaf_capacity=32, internal_capacity=32,
            leaf_extent_pages=8192, internal_extent_pages=1024,
            buffer_pool_pages=8192,
        ),
        # ~2.9k leaves >> 256 pool pages: the miss/evict path dominates.
        "scan_spill": dict(
            n_records=64_000, groups=1_000, scan_width=2000, lookups_per_scan=50,
            leaf_capacity=32, internal_capacity=32,
            leaf_extent_pages=8192, internal_extent_pages=1024,
            buffer_pool_pages=256,
        ),
        "reorg_offline": dict(
            n_records=40_000, fill_after=0.3,
            leaf_capacity=16, internal_capacity=8,
            leaf_extent_pages=4096, internal_extent_pages=1024,
            buffer_pool_pages=512, side_pointers="one_way",
        ),
        "reorg_online": dict(
            n_records=36_000, fill_after=0.3, txns=2_600,
            mix=(0.70, 0.10, 0.00, 0.20), scan_width=50,
            mean_interarrival=0.25, think=0.0, cooldown=400,
            leaf_capacity=16, internal_capacity=8,
            leaf_extent_pages=4096, internal_extent_pages=1024,
            buffer_pool_pages=4096,  # > tree: user latency is lock waits, not I/O
        ),
        "shard_churn": dict(
            n_records=8_000, n_shards=4, txns=10_000,
            mix=(0.50, 0.05, 0.225, 0.225), scan_width=200,
            mean_interarrival=0.25, think=0.0, cooldown=400,
            leaf_capacity=16, internal_capacity=8,
            leaf_extent_pages=4096, internal_extent_pages=1024,
            buffer_pool_pages=512,
        ),
        "crash_recover": dict(
            n_records=12_000, delete_fraction=0.7,
            leaf_capacity=16, internal_capacity=8,
            leaf_extent_pages=4096, internal_extent_pages=1024,
            buffer_pool_pages=512,
        ),
    },
    "smoke": {
        "point_fit": dict(
            n_records=10_000, leaf_fill=0.7, ops=12_000,
            leaf_capacity=32, internal_capacity=32,
            leaf_extent_pages=1024, internal_extent_pages=256,
            buffer_pool_pages=1024,
        ),
        "scan_spill": dict(
            n_records=10_000, groups=60, scan_width=500, lookups_per_scan=50,
            leaf_capacity=32, internal_capacity=32,
            leaf_extent_pages=1024, internal_extent_pages=256,
            buffer_pool_pages=32,
        ),
        "reorg_offline": dict(
            n_records=4_000, fill_after=0.3,
            leaf_capacity=16, internal_capacity=8,
            leaf_extent_pages=1024, internal_extent_pages=256,
            buffer_pool_pages=128, side_pointers="one_way",
        ),
        "reorg_online": dict(
            n_records=2_000, fill_after=0.3, txns=400,
            mix=(0.70, 0.10, 0.00, 0.20), scan_width=50,
            mean_interarrival=0.25, think=0.0, cooldown=100,
            leaf_capacity=16, internal_capacity=8,
            leaf_extent_pages=1024, internal_extent_pages=256,
            buffer_pool_pages=128,
        ),
        "shard_churn": dict(
            n_records=1_600, n_shards=4, txns=1_500,
            mix=(0.50, 0.05, 0.225, 0.225), scan_width=200,
            mean_interarrival=0.25, think=0.0, cooldown=100,
            leaf_capacity=16, internal_capacity=8,
            leaf_extent_pages=1024, internal_extent_pages=256,
            buffer_pool_pages=128,
        ),
        "crash_recover": dict(
            n_records=2_000, delete_fraction=0.7,
            leaf_capacity=16, internal_capacity=8,
            leaf_extent_pages=1024, internal_extent_pages=256,
            buffer_pool_pages=128,
        ),
    },
}

#: Crash points of ``crash_recover`` as (pass, fraction of that pass's log
#: appends in the uninterrupted reorganization): 3 in pass 1, 1 in pass 2,
#: 2 in pass 3 / switch.
CRASH_POINTS: tuple[tuple[int, float], ...] = (
    (1, 0.2), (1, 0.5), (1, 0.8), (2, 0.5), (3, 0.4), (3, 0.9),
)


def payload_for(key: int, serial: int = 0) -> str:
    """Record payload; ``serial`` tells re-inserts of one key apart."""
    return f"v{key}.{serial}"


class KeyPool:
    """Live-key tracker: the dict oracle plus O(1) uniform picks."""

    def __init__(self, live: dict[int, str], absent: list[int]):
        self.oracle = live
        self._live = list(live)
        self._absent = absent

    @staticmethod
    def _swap_pop(keys: list[int], rng: random.Random) -> int:
        index = rng.randrange(len(keys))
        keys[index], keys[-1] = keys[-1], keys[index]
        return keys.pop()

    def take_absent(self, rng: random.Random, serial: int) -> tuple[int, str]:
        key = self._swap_pop(self._absent, rng)
        payload = payload_for(key, serial)
        self._live.append(key)
        self.oracle[key] = payload
        return key, payload

    def take_live(self, rng: random.Random) -> int:
        key = self._swap_pop(self._live, rng)
        del self.oracle[key]
        self._absent.append(key)
        return key


def even_keys(n_records: int) -> tuple[dict[int, str], list[int]]:
    """``n`` even keys live, the odd keys between them absent."""
    live = {2 * k: payload_for(2 * k) for k in range(n_records)}
    absent = [2 * k + 1 for k in range(n_records)]
    return live, absent


def plan_point_ops(
    rng: random.Random, pool: KeyPool, key_space: int, n_ops: int, serial0: int
) -> tuple[list[tuple[str, object]], list[str | None]]:
    """60 % search / 20 % insert / 20 % delete, uniform keys.

    Returns the op list — ``(SEARCH, key)``, ``(INSERT, (key, payload))``,
    ``(DELETE, key)`` — and, in op order, what each search must return
    (payload or ``None``).  ``pool`` is advanced to the post-plan state.
    """
    ops: list[tuple[str, object]] = []
    expected: list[str | None] = []
    oracle = pool.oracle
    for index in range(n_ops):
        roll = rng.random()
        if roll < 0.6:
            key = rng.randrange(key_space)
            ops.append((SEARCH, key))
            expected.append(oracle.get(key))
        elif roll < 0.8:
            ops.append((INSERT, pool.take_absent(rng, serial0 + index)))
        else:
            ops.append((DELETE, pool.take_live(rng)))
    return ops, expected


def plan_scan_groups(
    rng: random.Random, n_records: int, groups: int, width: int, lookups: int
) -> list[tuple[str, int]]:
    """Read-only mix over keys ``0..n-1`` (all live): one range scan of
    ``width`` keys per ``lookups`` point lookups, uniform."""
    ops: list[tuple[str, int]] = []
    for _ in range(groups):
        ops.append((SCAN, rng.randrange(n_records - width)))
        ops.extend((SEARCH, rng.randrange(n_records)) for _ in range(lookups))
    return ops


def plan_sparse(
    rng: random.Random, n_records: int, fill_after: float
) -> tuple[dict[int, str], list[int]]:
    """Keys ``0..n-1`` bulk-loaded full, then uniformly deleted down to
    ``fill_after``.  Returns (every record, the keys to delete)."""
    records = {key: payload_for(key) for key in range(n_records)}
    victims = rng.sample(range(n_records), int(n_records * (1.0 - fill_after)))
    return records, victims


@dataclass(frozen=True)
class Txn:
    """One planned DES user transaction and what the oracle expects of it."""

    index: int
    kind: str
    key: int
    high: int
    arrival: float
    payload: str | None
    #: SEARCH: payload or None.  SCAN: the live keys in [key, high] at plan
    #: time.  INSERT / DELETE: True (the update must succeed).
    expected: object


@dataclass
class TxnPlan:
    txns: list[Txn]
    #: (txn index, key) of every planned write, in index order; scans use it
    #: to find the keys a concurrent write may legitimately add or remove.
    writes: list[tuple[int, int]]
    oracle: dict[int, str]
    cooldown: int


def plan_txns(
    rng: random.Random,
    oracle: dict[int, str],
    *,
    key_space: int,
    n_txns: int,
    mix: tuple[float, float, float, float],
    scan_width: int,
    mean_interarrival: float,
    cooldown: int,
) -> TxnPlan:
    """Open-loop user stream: Poisson arrivals, uniform keys.

    ``mix`` is (search, scan, insert, delete).  Transactions overlap on the
    simulated clock, so two planned ops on one key could apply in either
    order; the plan keeps any write at least ``cooldown`` ops away from
    every other planned op on its key (the picked key slides forward to
    the next eligible one).  The runner checks after the run that no
    transaction was late enough to cross that window, which is what makes
    a strict per-result comparison against the plan-time oracle sound.
    """
    live_sorted = sorted(oracle)
    last_write: dict[int, int] = {}
    last_read: dict[int, int] = {}
    never = -(cooldown + 1)

    def slide(start: int, eligible) -> int:
        key = start
        for _ in range(key_space):
            if eligible(key):
                return key
            key = (key + 1) % key_space
        raise ValueError("generator exhausted: no eligible key in the key space")

    search_cut, scan_cut, insert_cut = mix[0], mix[0] + mix[1], mix[0] + mix[1] + mix[2]
    index = 0  # the op being planned; the two predicates below read it

    def unwritten(key: int) -> bool:
        return index - last_write.get(key, never) > cooldown

    def untouched(key: int) -> bool:
        return unwritten(key) and index - last_read.get(key, never) > cooldown

    txns: list[Txn] = []
    writes: list[tuple[int, int]] = []
    clock = 0.0
    for index in range(n_txns):
        clock += rng.expovariate(1.0 / mean_interarrival)
        roll = rng.random()
        start = rng.randrange(key_space)
        if roll < search_cut:
            key = slide(start, unwritten)
            last_read[key] = index
            txns.append(Txn(index, SEARCH, key, key, clock, None, oracle.get(key)))
        elif roll < scan_cut:
            high = min(start + scan_width - 1, key_space - 1)
            lo = bisect.bisect_left(live_sorted, start)
            hi = bisect.bisect_right(live_sorted, high)
            txns.append(
                Txn(index, SCAN, start, high, clock, None, tuple(live_sorted[lo:hi]))
            )
        elif roll < insert_cut:
            key = slide(start, lambda k: k not in oracle and untouched(k))
            payload = payload_for(key, index + 1)
            oracle[key] = payload
            bisect.insort(live_sorted, key)
            last_write[key] = index
            writes.append((index, key))
            txns.append(Txn(index, INSERT, key, key, clock, payload, True))
        else:
            key = slide(start, lambda k: k in oracle and untouched(k))
            del oracle[key]
            del live_sorted[bisect.bisect_left(live_sorted, key)]
            last_write[key] = index
            writes.append((index, key))
            txns.append(Txn(index, DELETE, key, key, clock, None, True))
    return TxnPlan(txns, writes, oracle, cooldown)


def ambiguous_keys(plan: TxnPlan, scan: Txn) -> set[int]:
    """Keys in the scan's range with a write planned within the cooldown
    window either side of it — the scan may or may not see those."""
    lo = bisect.bisect_left(plan.writes, (scan.index - plan.cooldown, -1))
    hi = bisect.bisect_right(plan.writes, (scan.index + plan.cooldown, 1 << 62))
    return {key for _, key in plan.writes[lo:hi] if scan.key <= key <= scan.high}
