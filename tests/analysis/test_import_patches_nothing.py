"""Importing a class-patching analysis layer patches nothing.

The sanitizer and the race detector wrap hot-path methods at
``install()`` time only; production code merely imports them, so the
import alone must leave every method they wrap the original function.
(The explorer's equivalent is ``test_explorer.py::test_hooks_default_off``.)
"""

import os

import pytest

import repro.analysis.racedetect  # noqa: F401 (the import is the point)
import repro.analysis.sanitizer  # noqa: F401
from repro.locks.manager import LockManager
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.store import StorageManager
from repro.txn.scheduler import Scheduler
from repro.wal.log import LogManager

WRAPPED_ON_INSTALL = {
    "sanitizer": [
        (LockManager, "request"),
        (LockManager, "release"),
        (BufferPool, "fetch"),
        (BufferPool, "mark_dirty"),
        (SimulatedDisk, "write"),
        (Scheduler, "_step"),
    ],
    "racedetect": [
        (BufferPool, "fetch"),
        (BufferPool, "mark_dirty"),
        (BufferPool, "put_new"),
        (BufferPool, "drop"),
        (LockManager, "request"),
        (LockManager, "release"),
        (LockManager, "convert"),
        (Scheduler, "spawn"),
        (Scheduler, "_step"),
        (LogManager, "append"),
        (LogManager, "flush"),
        (StorageManager, "__init__"),
    ],
}


@pytest.mark.skipif(
    os.environ.get("REPRO_SANITIZER") == "1" or os.environ.get("REPRO_RACE") == "1",
    reason="tests/conftest.py installs a layer for the whole session",
)
@pytest.mark.parametrize("layer", sorted(WRAPPED_ON_INSTALL))
def test_import_does_not_patch(layer):
    for cls, attr in WRAPPED_ON_INSTALL[layer]:
        fn = getattr(cls, attr)
        assert not hasattr(fn, "__wrapped__"), f"{cls.__name__}.{attr} patched"
