"""Pluggable placement policies for pass 2 and pass 3.

The paper's reorganization implicitly hard-codes one placement decision in
two places: pass 2 drives leaf ``i`` to the ``i``-th slot of the leaf
extent, and pass 3 takes the first free internal page for every node of the
new upper levels.  That key-order placement optimizes range scans, but a
root-to-leaf descent still scatters across the internal extent.  This
module extracts the decision into a :class:`PlacementPolicy` interface so
the passes themselves never compute a target page id (enforced by the
``placement-via-policy`` lint rule):

* ``key_order`` — the paper's placement, byte-identical to the historical
  behaviour;
* ``veb`` — same leaf placement, but the pass-3 upper levels are laid out
  in cache-oblivious van Emde Boas order (SNIPPETS.md: bcopeland/em_misc
  ``bfs_to_veb``) inside one contiguous free window, so a descent's
  parent-to-child hops land on nearby pages;
* ``none`` — no placement at all: pass 2 is skipped and pass 3 allocates
  first-fit.

A vEB layout restricted to any single level of the tree is left-to-right
order (each recursion step lays out the bottom subtrees in child order
over disjoint key ranges), so the ``veb`` policy's *leaf* slots coincide
with ``key_order`` — range-scan behaviour and the whole pass-2 move plan
(elevator planner, careful-writing dependencies, side-file, switch) are
reused unchanged; policies only reorder target page ids.  The property is
asserted by ``tests/reorg/test_placement.py``.

All placement is best-effort: a policy expresses *preferences*, and every
consumer falls back to the historical first-fit allocation when a
preferred page is taken (Find-Free-Space resolves a preference to the
nearest free page in the caller's lease).  Correctness never depends on a
preference being honoured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.config import PlacementPolicyKind, TreeConfig, fill_count, gapped_leaf_fill
from repro.storage.page import PageId
from repro.storage.store import INTERNAL_EXTENT

if TYPE_CHECKING:
    from repro.shard.store import ShardStore
    from repro.storage.store import StorageManager

    #: Policies duck-type the store: either facade carries ``free_map``,
    #: and the shard one adds the leases the resolvers clamp to.
    AnyStore = StorageManager | ShardStore

__all__ = [
    "PlacementPolicy",
    "TreeShape",
    "bfs_to_veb",
    "fill_count",
    "gapped_leaf_fill_count",
    "make_policy",
    "post_reorg_shape",
    "predict_base_width",
    "veb_order",
]


# -- post-reorg tree shape (shared helper) -----------------------------------


def gapped_leaf_fill_count(config: TreeConfig, fill: float) -> int:
    """Records per rebuilt *leaf* at ``fill``, honouring the leaf gap.

    The placement-side name for :func:`repro.config.gapped_leaf_fill`:
    pass 1's target-records-per-page and any gap-aware slot accounting go
    through here (or the config helper directly) rather than re-deriving
    the slack arithmetic — the ``gap-via-config`` lint rule pins that.
    Internal levels are unaffected by the gap; they keep :func:`fill_count`.
    """
    return gapped_leaf_fill(config, fill)


@dataclass(frozen=True)
class TreeShape:
    """Predicted shape of the post-reorg tree.

    Attributes:
        n_leaves: number of leaf pages after pass 1.
        fanout: entries per rebuilt internal page (``fill_count`` of the
            internal capacity at the reorg's ``internal_fill``).
        internal_widths: pages per internal level, bottom-up — index 0 is
            the base level, the last entry is the root level (always 1).
            Empty only for ``n_leaves == 0``; a single leaf still gets one
            base page, which doubles as the root (as pass 3 builds it).
    """

    n_leaves: int
    fanout: int
    internal_widths: tuple[int, ...]

    @property
    def internal_levels(self) -> int:
        return len(self.internal_widths)

    @property
    def n_internal(self) -> int:
        return sum(self.internal_widths)

    @property
    def height(self) -> int:
        """Levels including the leaf level."""
        return len(self.internal_widths) + (1 if self.n_leaves else 0)

    def widths_top_down(self, *, include_leaves: bool) -> tuple[int, ...]:
        widths = tuple(reversed(self.internal_widths))
        return widths + (self.n_leaves,) if include_leaves else widths


def post_reorg_shape(
    n_leaves: int, fanout: int, *, base_width: int | None = None
) -> TreeShape:
    """Predict the upper-level widths pass 3 will build over ``n_leaves``.

    Mirrors the bottom-up construction exactly: each level chunks the one
    below into groups of ``fanout``, stopping at width 1.  A single leaf
    yields one base page and no further levels (pass 3 makes the lone base
    page the root).

    ``base_width`` overrides the perfect-fill base-level estimate
    ``ceil(n_leaves / fanout)``.  Pass 3's stable points close the open
    base page early (section 7.3), so the real base level is usually wider
    than the perfect-fill chunking predicts; :func:`predict_base_width`
    computes the exact width from the old base level's entry counts, and
    only the levels *above* the base are perfect-fill chunked (the
    bottom-up upper build has no stable points).
    """
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    if n_leaves < 0:
        raise ValueError("n_leaves must be >= 0")
    if n_leaves == 0:
        return TreeShape(0, fanout, ())
    widths = [base_width if base_width is not None else -(-n_leaves // fanout)]
    while widths[-1] > 1:
        widths.append(-(-widths[-1] // fanout))
    return TreeShape(n_leaves, fanout, tuple(widths))


def predict_base_width(
    entry_counts: Sequence[int], per_page: int, stable_point_interval: int
) -> int:
    """Exact number of new base pages pass 3 will emit, stable points included.

    Pure arithmetic over what pass 3's base-level
    :class:`~repro.btree.bulkload.LevelBuilder` will do, touching no
    pages: the scan (:meth:`~repro.reorg.shrink.TreeShrinker.scan_base`)
    streams one new base entry per old base entry, the builder closes the
    open page at ``per_page`` entries,
    and — after finishing each *old* base page — takes a stable point
    whenever ``stable_point_interval`` new pages have closed since the last
    one, which closes the open page *early* (section 7.3).  Those early
    closures are why the real base level is wider than
    ``ceil(n_leaves / per_page)``: predicting them exactly is what lets the
    vEB plan cover every base page instead of degrading on the overflow.

    ``entry_counts`` are the entry counts of the old base pages in key
    order; the stable-point closure can only land on their boundaries.
    """
    if per_page < 1:
        raise ValueError("per_page must be >= 1")
    pages = open_count = since = 0
    for count in entry_counts:
        closed, open_count = divmod(open_count + count, per_page)
        pages += closed
        since += closed
        if since >= stable_point_interval:
            if open_count:
                pages += 1
                open_count = 0
            since = 0
    if open_count:
        pages += 1
    return pages


# -- BFS -> vEB numbering -----------------------------------------------------


def veb_order(
    widths_top_down: Sequence[int], fanout: int
) -> list[tuple[int, int]]:
    """All nodes of an implicit left-packed tree in van Emde Boas order.

    Nodes are named ``(depth, index)`` with depth 0 the (single) root and
    ``index`` the BFS position within the level; node ``(d, i)``'s children
    are ``(d + 1, j)`` for ``i * fanout <= j < (i + 1) * fanout`` clipped to
    the next level's width — exactly how the bottom-up builder chunks each
    level.  The classic recursion (cf. bcopeland/em_misc ``bfs_to_veb``)
    splits the height in half, lays out the top half, then each bottom
    subtree left to right; non-perfect trees simply have their right-edge
    subtrees clipped by the level widths.
    """
    if not widths_top_down:
        return []
    if widths_top_down[0] != 1:
        raise ValueError("vEB layout needs a single root at depth 0")
    for d in range(1, len(widths_top_down)):
        if widths_top_down[d] > widths_top_down[d - 1] * fanout:
            raise ValueError(
                f"level {d} width {widths_top_down[d]} exceeds fanout "
                f"{fanout} times level {d - 1}"
            )
    out: list[tuple[int, int]] = []

    def emit(depth: int, index: int, h: int) -> None:
        if h == 1:
            out.append((depth, index))
            return
        top_h = h // 2
        emit(depth, index, top_h)
        d_bot = depth + top_h
        lo = index * fanout**top_h
        hi = min((index + 1) * fanout**top_h, widths_top_down[d_bot])
        for j in range(lo, hi):
            emit(d_bot, j, h - top_h)

    emit(0, 0, len(widths_top_down))
    return out


def bfs_to_veb(
    widths_top_down: Sequence[int], fanout: int
) -> dict[tuple[int, int], int]:
    """Table lookup from BFS position ``(depth, index)`` to vEB rank.

    The ranks are a permutation of ``range(sum(widths_top_down))`` — the
    round-trip tests assert exactly that on perfect and non-perfect trees.
    """
    return {node: rank for rank, node in enumerate(veb_order(widths_top_down, fanout))}


# -- the policy interface -----------------------------------------------------


class Pass3Plan:
    """Resolved internal-page preferences for one pass-3 rebuild.

    Maps ``(level, index)`` — level 1 is the new base level, the highest
    level is the root; ``index`` counts pages left to right within the
    level — to a preferred page id.  ``resolve`` turns the preference into
    an actually-free page via Find-Free-Space's nearest-free fallback, or
    ``None`` when the node falls outside the predicted shape (concurrent
    updates grew the tree) so the caller uses its default allocation.
    """

    def __init__(self, shape: TreeShape, window_start: PageId):
        self.shape = shape
        self.window_start = window_start
        self.window_end = window_start + shape.n_internal
        ranks = bfs_to_veb(shape.widths_top_down(include_leaves=False), shape.fanout)
        levels = shape.internal_levels
        #: (level, index) -> preferred page id, level 1 = base.
        self.table: dict[tuple[int, int], PageId] = {
            (levels - depth, index): window_start + rank
            for (depth, index), rank in ranks.items()
        }

    def preference(self, level: int, index: int) -> PageId | None:
        return self.table.get((level, index))

    def resolve(self, store: AnyStore, level: int, index: int) -> PageId | None:
        """A free page id honouring the preference as closely as possible."""
        from repro.reorg.freespace import resolve_preference

        preferred = self.preference(level, index)
        if preferred is None:
            return None
        return resolve_preference(
            store.free_map,
            INTERNAL_EXTENT,
            preferred,
            lease=getattr(store, "internal_lease", None),
        )


class PlacementPolicy:
    """Where pass 2 puts each leaf and pass 3 puts each internal page.

    Subclasses override the hooks; the base class is the ``key_order``
    behaviour so the default path stays byte-identical to the paper's
    placement.
    """

    kind = PlacementPolicyKind.KEY_ORDER
    #: False skips pass 2 entirely (no leaf targets exist).
    places_leaves = True
    #: True makes pass 3 predict the tree shape and request a plan.
    plans_internals = False

    def leaf_slots(self, n_leaves: int, window_start: PageId) -> list[PageId] | None:
        """Target page for each leaf rank, or None to skip pass 2.

        ``window_start`` is the first page of the caller's target window:
        the shard's leaf-lease start, or the leaf extent start unsharded.
        """
        return [window_start + i for i in range(n_leaves)]

    def pass1_preference(
        self, *, largest_finished: PageId, current: PageId
    ) -> PageId | None:
        """Preferred Find-Free-Space target for a pass-1 compaction unit.

        Every built-in policy returns None — pass 1 placement is left to
        the configured :class:`~repro.config.FreeSpacePolicy`, which keeps
        pass-1 behaviour identical across policies and isolates what the
        benchmark compares to pass-2/3 placement.  The hook exists so a
        future policy (NUMA/tier-aware, say) can steer compaction too.
        """
        del largest_finished, current
        return None

    def pass3_plan(self, store: AnyStore, shape: TreeShape) -> Pass3Plan | None:
        """Internal-page plan for pass 3, or None for first-fit."""
        del store, shape
        return None


class KeyOrderPolicy(PlacementPolicy):
    """The paper's placement (section 6): contiguous key order."""


class VebPolicy(PlacementPolicy):
    """Cache-oblivious placement: key-order leaves, vEB upper levels."""

    kind = PlacementPolicyKind.VEB
    plans_internals = True

    def pass3_plan(self, store: AnyStore, shape: TreeShape) -> Pass3Plan | None:
        if shape.n_internal == 0:
            return None
        lease = getattr(store, "internal_lease", None)
        window_start = store.free_map.first_free_run(
            INTERNAL_EXTENT,
            shape.n_internal,
            after=lease.start - 1 if lease is not None else None,
            before=lease.end if lease is not None else None,
        )
        if window_start is None:
            # No contiguous window (fragmented or lease too small): degrade
            # gracefully to the default first-fit allocation.
            return None
        return Pass3Plan(shape, window_start)


class NoPlacementPolicy(PlacementPolicy):
    """No placement: pass 2 is a no-op, pass 3 allocates first-fit."""

    kind = PlacementPolicyKind.NONE
    places_leaves = False

    def leaf_slots(self, n_leaves: int, window_start: PageId) -> list[PageId] | None:
        del n_leaves, window_start
        return None


_POLICIES = {
    PlacementPolicyKind.KEY_ORDER: KeyOrderPolicy,
    PlacementPolicyKind.VEB: VebPolicy,
    PlacementPolicyKind.NONE: NoPlacementPolicy,
}


def make_policy(kind: PlacementPolicyKind) -> PlacementPolicy:
    return _POLICIES[kind]()
