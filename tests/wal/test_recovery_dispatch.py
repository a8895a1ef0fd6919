"""Recovery looks a record's class up exactly: every concrete record class is
classified once, and a record of any other class stops recovery."""

import pytest

from repro.errors import LogError
from repro.storage.page import Record
from repro.wal import records
from repro.wal.recovery import _ANALYSIS
from tests.wal.test_recovery import small_db


def record_classes(base=records.LogRecord):
    for sub in base.__subclasses__():
        if sub.__module__ == records.__name__:
            yield sub
            yield from record_classes(sub)


def concrete_record_classes():
    classes = set(record_classes())
    return {cls for cls in classes if not any(
        other is not cls and issubclass(other, cls) for other in classes
    )}


def test_every_concrete_record_class_is_classified_once():
    classified = [cls for _action, group in _ANALYSIS for cls in group]
    concrete = concrete_record_classes()
    assert len(concrete) == 26
    assert len(classified) == len(set(classified))
    assert set(classified) == concrete


def test_recovery_refuses_an_unknown_record_class():
    class StrayInsert(records.LeafInsertRecord):
        """An isinstance test would take this for a leaf insert."""

    db = small_db()
    tree = db.create_tree()
    tree.insert(Record(1))
    db.checkpoint()
    db.log.append(StrayInsert(page_id=tree.root_id, record=Record(2)))
    db.log.flush()
    db.crash()
    with pytest.raises(LogError, match="StrayInsert"):
        db.recover()
