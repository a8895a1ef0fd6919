"""Configuration objects shared across the library.

Four dataclasses collect the tunables of the system:

* :class:`TreeConfig` — shape of the B+-tree and its storage substrate.
* :class:`ReorgConfig` — parameters of the three-pass reorganization
  algorithm (target fill factor, swap pass on/off, empty-page policy,
  stable-point interval, ...).
* :class:`ShardConfig` — the shard count and partition bounds of a
  range-partitioned forest.
* :class:`DaemonConfig` — when the background reorganization daemon
  triggers.

All four are immutable so a configuration can be shared between a tree,
the reorganizer, and a benchmark harness without aliasing surprises.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class SidePointerKind(enum.Enum):
    """Kind of leaf-level side pointers the tree maintains (paper section 4.3)."""

    NONE = "none"
    ONE_WAY = "one_way"
    TWO_WAY = "two_way"


class FreeSpacePolicy(enum.Enum):
    """Policy used by pass 1 to pick an empty page for new-place compaction.

    ``PAPER`` is the heuristic of paper section 6.1: the first empty page
    located after the largest finished leaf page id L and before the leaf
    page C being reorganized.  ``FIRST_FIT`` takes any first free page.
    ``NONE`` disables new-place compaction entirely (in-place only), which
    maximizes the number of swaps pass 2 must perform.
    """

    PAPER = "paper"
    FIRST_FIT = "first_fit"
    NONE = "none"


@dataclass(frozen=True)
class TreeConfig:
    """Static shape parameters for a B+-tree and its disk.

    Attributes:
        leaf_capacity: maximum number of records a leaf page holds.
        internal_capacity: maximum number of (key, child) entries an internal
            page holds; the fanout.
        leaf_extent_pages: number of page slots in the leaf disk extent.
            The paper assumes leaf and internal pages live in different parts
            of the disk (section 6), so each gets its own extent.
        internal_extent_pages: number of page slots in the internal extent.
        side_pointers: which kind of leaf side pointers to maintain.
        buffer_pool_pages: capacity of the buffer pool in pages.
        careful_writing: whether the buffer manager enforces write-before
            dependencies, allowing MOVE log records to carry keys only
            (paper section 5, citing [LT95]).
        seek_cost: simulated cost of a non-sequential page read, used by the
            range-scan cost model.  A sequential read costs 1.0.
        readahead_pages: maximum pages per multi-page batch read
            (``SimulatedDisk.read_batch``).  Range scans and the reorg
            passes prefetch upcoming pages in batches of at most this many;
            a batch is charged one seek plus N-1 sequential reads.  0
            disables readahead entirely (no batch reads, no prefetch).
        seek_aware_pass2: schedule pass-2 moves/swaps in ascending
            source-page sweep order (an elevator pass over the pending
            leaves) instead of key order, minimising simulated head
            movement.  The final leaf layout is identical, but the units are
            not: a leaf moved early vacates the slot a later leaf would
            otherwise have had to swap into, so swaps turn into moves and
            the log volume changes along with the I/O pattern.  Key order
            stays the default: the paper's §6.1 claim (the pass-1 free-page
            heuristic saves pass-2 swaps, E1) is about that schedule.
        leaf_gap_fraction: fraction of each leaf's capacity that bulk load
            and the pass-1/2/3 rebuilds leave *empty* as an in-page gap
            (BS-tree, arXiv:2505.01180): subsequent inserts land in the
            reserved slack as in-place shifts instead of splitting.  The
            gap is slack below whatever fill factor the builder asked for
            — ``gapped_leaf_fill`` clamps the records-per-leaf count so at
            least ``leaf_gap_slots`` slots stay free.  0.0 (the default)
            reserves nothing and is byte-identical to the historical
            layout.  All gap arithmetic flows through
            :func:`leaf_gap_slots` / :func:`gapped_leaf_fill`; the build
            and reorg paths never compute slack inline (enforced by the
            ``gap-via-config`` lint rule).
    """

    leaf_capacity: int = 32
    internal_capacity: int = 32
    leaf_extent_pages: int = 4096
    internal_extent_pages: int = 1024
    side_pointers: SidePointerKind = SidePointerKind.NONE
    buffer_pool_pages: int = 256
    careful_writing: bool = True
    seek_cost: float = 10.0
    readahead_pages: int = 0
    seek_aware_pass2: bool = False
    leaf_gap_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.leaf_capacity < 2:
            raise ValueError("leaf_capacity must be at least 2")
        if self.internal_capacity < 3:
            # With "n keys, n children" pages and pre-emptive splitting, a
            # fan-out-2 internal page is born full and split cascades become
            # linear; 3 is the smallest capacity with geometric growth.
            raise ValueError("internal_capacity must be at least 3")
        if self.leaf_extent_pages < 1 or self.internal_extent_pages < 1:
            raise ValueError("extents must hold at least one page")
        if self.buffer_pool_pages < 4:
            raise ValueError("buffer pool must hold at least 4 pages")
        if self.seek_cost < 1.0:
            raise ValueError("seek_cost must be >= 1.0 (sequential cost is 1.0)")
        if self.readahead_pages < 0:
            raise ValueError("readahead_pages must be >= 0 (0 disables)")
        if not 0.0 <= self.leaf_gap_fraction < 1.0:
            raise ValueError("leaf_gap_fraction must be in [0, 1)")
        if self.leaf_capacity - leaf_gap_slots(self) < 1:
            raise ValueError(
                "leaf_gap_fraction leaves no usable record slot per leaf"
            )


@dataclass(frozen=True)
class ReorgConfig:
    """Parameters of the three-pass reorganization.

    Attributes:
        target_fill: f2, the page fill factor the reorganizer aims for
            (paper section 6: f2 > f1, the current fill factor).
        do_swap_pass: whether to run pass 2 at all.  The paper makes
            swapping optional: "the user can decide not to do swapping".
        free_space_policy: empty-page selection policy for pass 1.
        internal_fill: fill factor used when bulk-building the new upper
            levels in pass 3 ([Sal88] bottom-up construction).
        stable_point_interval: force-write the new tree to disk every this
            many newly built pages (paper section 7.3 suggests e.g. 5).
        switch_wait_limit: simulated-time limit the reorganizer waits for
            the X lock on the old tree before aborting old transactions
            (paper section 7.4).  ``None`` means wait forever.
        abort_old_transactions_on_timeout: if True, force old-tree
            transactions to abort when the wait limit expires; if False,
            raise :class:`repro.errors.SwitchTimeoutError` instead.
        max_unit_output_pages: how many new leaf pages a single
            reorganization unit may construct.  The paper chooses one at a
            time so locks are held briefly (section 6).
    """

    target_fill: float = 0.9
    do_swap_pass: bool = True
    free_space_policy: FreeSpacePolicy = FreeSpacePolicy.PAPER
    internal_fill: float = 0.9
    stable_point_interval: int = 5
    switch_wait_limit: float | None = None
    abort_old_transactions_on_timeout: bool = True
    max_unit_output_pages: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fill <= 1.0:
            raise ValueError("target_fill must be in (0, 1]")
        if not 0.0 < self.internal_fill <= 1.0:
            raise ValueError("internal_fill must be in (0, 1]")
        if self.stable_point_interval < 1:
            raise ValueError("stable_point_interval must be >= 1")
        if self.max_unit_output_pages < 1:
            raise ValueError("max_unit_output_pages must be >= 1")


@dataclass(frozen=True)
class ShardConfig:
    """Shape of a range-partitioned shard forest (:mod:`repro.shard`).

    Attributes:
        n_shards: number of range partitions.  1 degenerates to a single
            tree whose layout is byte-identical to an unsharded database
            built from the same records.
        separators: optional explicit partition bounds — ``n_shards - 1``
            strictly increasing keys; shard ``i`` owns keys in
            ``[separators[i-1], separators[i])`` (open-ended at both ends).
            When empty, :meth:`repro.shard.ShardedDatabase.bulk_load`
            derives equi-populated separators from the loaded records.

    Shard ``i``'s tree is named ``f"shard{i}"``.
    """

    n_shards: int = 1
    separators: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.separators:
            if len(self.separators) != self.n_shards - 1:
                raise ValueError(
                    f"need {self.n_shards - 1} separators for "
                    f"{self.n_shards} shards, got {len(self.separators)}"
                )
            if any(
                b <= a for a, b in zip(self.separators, self.separators[1:])
            ):
                raise ValueError("separators must be strictly increasing")


def fill_count(capacity: int, fill: float) -> int:
    """Entries per page at a fill factor, at least 1.

    The one canonical form of the "how many entries does a rebuilt page
    hold" computation, shared by the bottom-up level builder (bulk loading
    and pass 3).
    """
    return max(1, math.floor(capacity * fill + 1e-9))


def leaf_gap_slots(config: TreeConfig) -> int:
    """Record slots reserved as in-page slack per rebuilt/bulk-loaded leaf.

    The one canonical form of the gap arithmetic (the ``gap-via-config``
    lint rule bans re-deriving it in the build/reorg paths):
    ``floor(leaf_capacity * leaf_gap_fraction)``, with the same ``1e-9``
    epsilon as the fill-count arithmetic so e.g. ``16 * 0.25`` cannot land
    on 3 through floating-point noise.
    """
    return math.floor(config.leaf_capacity * config.leaf_gap_fraction + 1e-9)


def gapped_leaf_fill(config: TreeConfig, fill: float) -> int:
    """Records packed per leaf when building at ``fill`` under the gap.

    This is ``fill_count(leaf_capacity, fill)`` clamped so at least
    :func:`leaf_gap_slots` slots stay free: the gap wins over the requested
    fill factor when the two conflict, and the result is never below one
    record per leaf.  With ``leaf_gap_fraction == 0`` it reduces exactly to
    the historical fill-count, keeping default-config layouts
    byte-identical.
    """
    base = fill_count(config.leaf_capacity, fill)
    return max(1, min(base, config.leaf_capacity - leaf_gap_slots(config)))


@dataclass(frozen=True)
class DaemonConfig:
    """Policy knobs of the fragmentation-aware auto-reorg daemon.

    The daemon (:class:`repro.reorg.daemon.ReorgDaemon`) is a DES process
    that polls each watched tree's live
    :class:`repro.metrics.FragmentationStats` and triggers the paper's
    three-pass reorganization when fragmentation (``1 - fill_factor``)
    crosses a threshold — Bender et al.'s fragmentation bounds under
    batched insertions (PAPERS.md) are what make a measured threshold a
    sound trigger.

    Attributes:
        poll_interval: simulated time between metric polls.
        frag_high: trigger threshold — a shard whose fragmentation is at
            or above this (and which passes the deferral checks below)
            gets a three-pass reorg.
        frag_low: hysteresis re-arm level.  After a triggered reorg the
            daemon will not fire again for that shard until its
            fragmentation has first dropped to ``frag_low`` or below —
            one reorg per crossing, not one per poll.
        cooldown: minimum simulated time between daemon-triggered reorgs
            of the same shard, independent of hysteresis.
        min_leaves: shards with fewer live leaves than this are never
            reorganized (a near-empty tree's fill factor is noise).
        split_trigger: also trigger when the shard's leaf splits since its
            last metrics baseline reach this count, regardless of fill
            factor.  Every split allocates a leaf out of key order, so
            split count is the live proxy for *disk-order scatter* — the
            component of range-scan degradation that fill factor cannot
            see.  0 disables the split path (fill-threshold only).
        max_triggers: stop triggering after this many daemon-initiated
            reorgs in total (0 = unbounded); the poll loop keeps
            sampling metrics either way.
    """

    poll_interval: float = 5.0
    frag_high: float = 0.35
    frag_low: float = 0.15
    cooldown: float = 20.0
    min_leaves: int = 2
    split_trigger: int = 0
    max_triggers: int = 0

    def __post_init__(self) -> None:
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if not 0.0 < self.frag_high < 1.0:
            raise ValueError("frag_high must be in (0, 1)")
        if not 0.0 <= self.frag_low <= self.frag_high:
            raise ValueError("frag_low must be in [0, frag_high]")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.min_leaves < 1:
            raise ValueError("min_leaves must be >= 1")
        if self.split_trigger < 0:
            raise ValueError("split_trigger must be >= 0 (0 disables)")
        if self.max_triggers < 0:
            raise ValueError("max_triggers must be >= 0 (0 = unbounded)")


DEFAULT_TREE_CONFIG = TreeConfig()
DEFAULT_REORG_CONFIG = ReorgConfig()
DEFAULT_DAEMON_CONFIG = DaemonConfig()
