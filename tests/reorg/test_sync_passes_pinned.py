"""Synchronous passes 1 and 2 log what they logged before they became the
DES protocol driven alone.

Each cell reorganizes the same scattered tree under one combination of
side pointers, unit output size, Find-Free-Space policy and pass-2
schedule.  The digest covers every record the two passes log — its type,
unit id, pages and keys, LSN fields aside — and the disk statistics after
each pass.  The pinned values are those of the synchronous pass-1 and
pass-2 loops the protocol replaced.
"""

import hashlib
import itertools
import random
from dataclasses import fields

import pytest

from repro.config import FreeSpacePolicy, ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.reorg.reorganizer import Reorganizer
from repro.storage.page import Record

CELLS = list(
    itertools.product(
        list(SidePointerKind),
        (1, 3),
        (FreeSpacePolicy.PAPER, FreeSpacePolicy.FIRST_FIT),
        (False, True),
    )
)

_LSN_FIELDS = {"lsn", "prev_lsn", "move_out_lsn", "undo_next_lsn"}


def scattered_db(side, seek_aware):
    """Leaves scattered over the extent by shuffled inserts, then thinned."""
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=8,
            leaf_extent_pages=512,
            internal_extent_pages=256,
            buffer_pool_pages=128,
            side_pointers=side,
            seek_aware_pass2=seek_aware,
        )
    )
    tree = db.create_tree()
    rng = random.Random(5)
    keys = list(range(800))
    rng.shuffle(keys)
    for key in keys:
        tree.insert(Record(key, "v"))
    for key in rng.sample(keys, 560):
        tree.delete(key)
    return db, tree


def _row(record):
    row = [type(record).__name__]
    for f in fields(record):
        if f.name in _LSN_FIELDS:
            continue
        value = getattr(record, f.name)
        if isinstance(value, Record):
            value = value.key
        elif isinstance(value, tuple):
            value = tuple(getattr(item, "key", item) for item in value)
        row.append((f.name, value))
    return tuple(row)


def passes_digest(side, outputs, policy, seek_aware):
    db, tree = scattered_db(side, seek_aware)
    config = ReorgConfig(free_space_policy=policy, max_unit_output_pages=outputs)
    reorg = Reorganizer(db, tree, config)
    mark = db.log.last_lsn
    reorg.run_pass1()
    after_pass1 = repr(db.store.disk.stats)
    pass2 = reorg.run_pass2()
    after_pass2 = repr(db.store.disk.stats)
    tree.validate()
    rows = [_row(record) for record in db.log.records_from(mark + 1)]
    text = repr((rows, after_pass1, after_pass2))
    return hashlib.sha256(text.encode()).hexdigest()[:16], pass2


def _cell_id(cell):
    side, outputs, policy, seek_aware = cell
    return f"{side.value}-out{outputs}-{policy.value}-{'seek' if seek_aware else 'key'}"


PINNED = {
    "none-out1-paper-key": "aa09e7ae95135829",
    "none-out1-paper-seek": "aa08a6c3d311670f",
    "none-out1-first_fit-key": "0db80f3d747eb196",
    "none-out1-first_fit-seek": "0fd4ced9033e36f6",
    "none-out3-paper-key": "8999047a8fe6d1d3",
    "none-out3-paper-seek": "43326f3434100c02",
    "none-out3-first_fit-key": "9072ff585ed35da9",
    "none-out3-first_fit-seek": "cde4a04b366a22c5",
    "one_way-out1-paper-key": "0a318f37703a8cbf",
    "one_way-out1-paper-seek": "d5c954fcae304413",
    "one_way-out1-first_fit-key": "8b3f43278bc19a49",
    "one_way-out1-first_fit-seek": "4a4a61ed7475e3ea",
    "one_way-out3-paper-key": "610167041d698486",
    "one_way-out3-paper-seek": "26dee22e48af45b6",
    "one_way-out3-first_fit-key": "362a9f44f9cfa92f",
    "one_way-out3-first_fit-seek": "af2a93e4e2383c11",
    "two_way-out1-paper-key": "98c96491e60b0f46",
    "two_way-out1-paper-seek": "2ab67be58b8151f3",
    "two_way-out1-first_fit-key": "ac7ec7ff4d55f780",
    "two_way-out1-first_fit-seek": "0859031209d4e2c1",
    "two_way-out3-paper-key": "b1dd4c6f13c57667",
    "two_way-out3-paper-seek": "7a6cfc1280d4d0d7",
    "two_way-out3-first_fit-key": "41be43a87522ee1e",
    "two_way-out3-first_fit-seek": "55a40db616a98a96",
}


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_synchronous_passes_log_and_read_as_pinned(cell):
    digest, pass2 = passes_digest(*cell)
    assert pass2.swaps and pass2.moves, "the fixture must both swap and move"
    assert digest == PINNED[_cell_id(cell)]
