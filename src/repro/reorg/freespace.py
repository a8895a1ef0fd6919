"""Find-Free-Space: choosing the empty page for new-place compaction.

Paper section 6.1: "Our goal is to minimize the amount of swapping (as
opposed to moving to an empty page) done in the second pass. ... In our
algorithm, we choose the first empty page which is in front of the leaf
page that is going to be reorganized, C, and after the largest finished
leaf page ID, L.  This forces C always to move to the 'left' or towards the
beginning of the data collection.  Since the total number of leaf pages
after reorganization is going to be smaller, this is the correct direction.
Requiring that the empty space be after the largest reorganized page L
means that the new page constructed will be in the correct relative order
with all the leaf pages that have already been compacted."

Benchmark E1 compares this policy against FIRST_FIT (any free page) and
NONE (in-place only) and measures the pass-2 swaps each needs.
"""

from __future__ import annotations

from repro.config import FreeSpacePolicy
from repro.storage.allocator import ExtentLease, FreeSpaceMap
from repro.storage.page import NO_PAGE, PageId
from repro.storage.store import LEAF_EXTENT, StorageManager


def resolve_preference(
    free_map: FreeSpaceMap,
    extent_name: str,
    preference: PageId,
    *,
    lease: ExtentLease | None = None,
) -> PageId | None:
    """Resolve a placement preference to an actually-free page.

    Returns the preferred page itself when it is free (and inside the
    lease, if any), else the nearest free page in the lease — distance
    ties break toward the smaller id.  None only when the lease/extent has
    no free pages at all.
    """
    return free_map.nearest_free(
        extent_name,
        preference,
        after=lease.start - 1 if lease is not None else None,
        before=lease.end if lease is not None else None,
    )


def find_free_page(
    store: StorageManager,
    policy: FreeSpacePolicy,
    *,
    largest_finished: PageId,
    current: PageId,
    preference: PageId | None = None,
    above: PageId = NO_PAGE,
) -> PageId | None:
    """Pick an empty leaf-extent page for a new-place operation, or None.

    Args:
        store: storage manager owning the free map.
        policy: which selection rule to apply.
        largest_finished: L — the largest page id holding an already
            reorganized leaf (pass the extent start - 1 when none yet).
        current: C — the page id of the leaf about to be reorganized.
        preference: a placement-policy-provided target page.  When given it
            overrides the configured policy: the exact page is taken if
            free, else the nearest free in-lease page.  All built-in
            placement policies pass None, which preserves the historical
            selection byte for byte.
        above: the previous destination picked for the same multi-output
            unit.  Only larger page ids qualify, under every policy, so a
            unit's destinations are distinct and ascending.

    Returns None when the policy finds no suitable page, in which case the
    caller falls back to In-Place-Reorg (Figure 2).
    """
    lease = getattr(store, "leaf_lease", None)
    if preference is not None:
        resolved = resolve_preference(
            store.free_map, LEAF_EXTENT, preference, lease=lease
        )
        if resolved is not None:
            return resolved
        # Lease exhausted: fall through to the configured policy, which
        # reports the same exhaustion in its own terms.
    if policy is FreeSpacePolicy.NONE:
        return None
    if policy is FreeSpacePolicy.FIRST_FIT:
        # First fit ignores L and C, but not the unit's own earlier picks.
        bounds = lease if lease is not None else store.disk.extent(LEAF_EXTENT)
        return store.free_map.first_free_in_range(
            LEAF_EXTENT, max(above, bounds.start - 1), bounds.end
        )
    if policy is FreeSpacePolicy.PAPER:
        after, before = max(largest_finished, above), current
        if lease is not None:
            # Clamp L and C to the shard's leased slice: targets outside it
            # belong to other shards and must never be chosen.
            after = max(after, lease.start - 1)
            before = min(before, lease.end)
        return store.free_map.first_free_in_range(LEAF_EXTENT, after, before)
    raise ValueError(f"unknown policy {policy!r}")
