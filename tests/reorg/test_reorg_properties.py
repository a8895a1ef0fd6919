"""Property-based tests of the reorganizer itself.

The master invariants, under hypothesis-driven randomness:

* a full reorganization is a *no-op on content*: the multiset of
  (key, payload) pairs is unchanged, for any degradation pattern, any
  side-pointer configuration, and any fill-factor target;
* it always improves (or preserves) the structural metrics it targets:
  fill factor, disk-order fraction, internal page count;
* interleaving user operations *between* passes never breaks the tree.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree.stats import collect_stats
from repro.config import (
    FreeSpacePolicy,
    ReorgConfig,
    SidePointerKind,
    TreeConfig,
)
from repro.db import Database
from repro.reorg.reorganizer import Reorganizer
from repro.storage.page import Record


def build_db(side, keys, delete_fraction, seed):
    import random

    db = Database(
        TreeConfig(
            leaf_capacity=4,
            internal_capacity=4,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            side_pointers=side,
            buffer_pool_pages=64,
        )
    )
    tree = db.bulk_load_tree(
        [Record(k, f"v{k}") for k in sorted(keys)], leaf_fill=1.0,
        internal_fill=0.6,
    )
    rng = random.Random(seed)
    victims = rng.sample(sorted(keys), int(len(keys) * delete_fraction))
    for key in victims:
        tree.delete(key)
    return db, tree


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.sets(st.integers(0, 5000), min_size=30, max_size=250),
    delete_fraction=st.floats(min_value=0.1, max_value=0.9),
    side=st.sampled_from(list(SidePointerKind)),
    policy=st.sampled_from(list(FreeSpacePolicy)),
    target=st.floats(min_value=0.5, max_value=1.0),
    seed=st.integers(0, 99),
)
def test_full_reorg_preserves_content(keys, delete_fraction, side, policy,
                                      target, seed):
    db, tree = build_db(side, keys, delete_fraction, seed)
    before = sorted((r.key, r.payload) for r in tree.items())
    config = ReorgConfig(target_fill=target, free_space_policy=policy)
    Reorganizer(db, tree, config).run()
    tree = db.tree()
    tree.validate()
    assert sorted((r.key, r.payload) for r in tree.items()) == before


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.sets(st.integers(0, 5000), min_size=60, max_size=250),
    seed=st.integers(0, 99),
)
def test_full_reorg_improves_structure(keys, seed):
    db, tree = build_db(SidePointerKind.NONE, keys, 0.6, seed)
    before = collect_stats(tree)
    from repro.storage.page import PageKind

    if db.store.get(tree.root_id).kind is PageKind.LEAF:
        return  # nothing structural to improve
    Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run()
    after = collect_stats(db.tree())
    assert after.leaf_fill >= before.leaf_fill - 1e-9
    assert after.disk_order_fraction == 1.0
    assert after.internal_count <= before.internal_count
    assert after.height <= before.height


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.sets(st.integers(0, 3000), min_size=60, max_size=200),
    interleaved=st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 4000)),
        min_size=0,
        max_size=30,
    ),
    seed=st.integers(0, 99),
)
def test_user_ops_between_passes(keys, interleaved, seed):
    """Run user operations between pass 1, pass 2 and pass 3 — the normal
    on-line situation (the paper explicitly tolerates splits appearing in
    already-reorganized regions: "we do not try to clean this up")."""
    db, tree = build_db(SidePointerKind.NONE, keys, 0.6, seed)
    model = {r.key: r.payload for r in tree.items()}
    from repro.storage.page import PageKind

    if db.store.get(tree.root_id).kind is PageKind.LEAF:
        return
    reorg = Reorganizer(db, tree, ReorgConfig(target_fill=0.9))
    chunks = [interleaved[0::3], interleaved[1::3], interleaved[2::3]]

    def apply_chunk(chunk):
        for op, key in chunk:
            if op == "insert" and key not in model:
                tree.insert(Record(key, "mid"))
                model[key] = "mid"
            elif op == "delete" and key in model:
                tree.delete(key)
                del model[key]

    reorg.run_pass1()
    apply_chunk(chunks[0])
    reorg.run_pass2()
    apply_chunk(chunks[1])
    if db.store.get(db.tree().root_id).kind is PageKind.INTERNAL:
        reorg.run_pass3()
    apply_chunk(chunks[2])
    final = db.tree()
    final.validate()
    assert sorted(r.key for r in final.items()) == sorted(model)
    for key in list(model)[:10]:
        assert final.search(key).payload == model[key]
