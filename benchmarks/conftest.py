"""Shared builders and report plumbing for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (Table 1, the
figures, or a quantified section-8 claim) and prints the reproduced
rows/series under a banner, so `pytest benchmarks/ --benchmark-only -s`
doubles as the experiment report.  EXPERIMENTS.md records one captured run.
"""

import random

import pytest

from repro.config import ReorgConfig, TreeConfig
from repro.db import Database
from repro.storage.page import Record


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def tree_config(
    leaf_capacity=16,
    internal_capacity=8,
    leaf_extent_pages=2048,
    internal_extent_pages=512,
    buffer_pool_pages=512,
    careful_writing=True,
    side_pointers=None,
    **features,
):
    """The benchmarks' tree shape; ``features`` sets any other field."""
    from repro.config import SidePointerKind

    return TreeConfig(
        leaf_capacity=leaf_capacity,
        internal_capacity=internal_capacity,
        leaf_extent_pages=leaf_extent_pages,
        internal_extent_pages=internal_extent_pages,
        buffer_pool_pages=buffer_pool_pages,
        careful_writing=careful_writing,
        side_pointers=side_pointers or SidePointerKind.NONE,
        **features,
    )


def make_db(**config):
    return Database(tree_config(**config))


def degrade_uniform(db, n_records, fill_after, *, seed=7, internal_fill=0.5,
                    name="primary"):
    """Bulk-load full, delete uniformly down to ``fill_after``."""
    tree = db.bulk_load_tree(
        [Record(k, "x" * 16) for k in range(n_records)],
        name=name,
        leaf_fill=1.0,
        internal_fill=internal_fill,
    )
    rng = random.Random(seed)
    for key in rng.sample(range(n_records), int(n_records * (1 - fill_after))):
        tree.delete(key)
    db.flush()
    db.checkpoint()
    return tree


def degrade_by_random_growth(db, n_records, fill_after, *, seed=7,
                             name="primary"):
    """Grow by random insertion (splits scatter the leaves), then thin."""
    tree = db.create_tree(name)
    rng = random.Random(seed)
    keys = list(range(n_records))
    rng.shuffle(keys)
    for key in keys:
        tree.insert(Record(key, "x" * 16))
    for key in rng.sample(range(n_records), int(n_records * (1 - fill_after))):
        tree.delete(key)
    db.flush()
    db.checkpoint()
    return tree
