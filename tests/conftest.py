"""Shared fixtures: small trees, stores and logs for the whole suite."""

import pytest

from repro.config import SidePointerKind, TreeConfig
from repro.storage.store import StorageManager
from repro.wal.log import LogManager


def make_env(
    leaf_capacity=8,
    internal_capacity=8,
    leaf_extent_pages=512,
    internal_extent_pages=256,
    side_pointers=SidePointerKind.NONE,
    careful_writing=True,
    buffer_pool_pages=128,
):
    """A (store, log) pair wired together (buffer pool respects WAL)."""
    config = TreeConfig(
        leaf_capacity=leaf_capacity,
        internal_capacity=internal_capacity,
        leaf_extent_pages=leaf_extent_pages,
        internal_extent_pages=internal_extent_pages,
        side_pointers=side_pointers,
        careful_writing=careful_writing,
        buffer_pool_pages=buffer_pool_pages,
    )
    store = StorageManager(config)
    log = LogManager()
    store.set_wal(log)
    return store, log


@pytest.fixture(scope="session", autouse=True)
def _runtime_sanitizer():
    """Wrap the whole suite in the runtime lock/WAL sanitizer when
    ``REPRO_SANITIZER=1`` — every existing test doubles as a protocol
    check (the CI ``sanitizer`` job runs tier-1 this way)."""
    import os

    if os.environ.get("REPRO_SANITIZER") != "1":
        yield
        return
    from repro.analysis.sanitizer import install, uninstall

    install()
    try:
        yield
    finally:
        uninstall()


@pytest.fixture(scope="session", autouse=True)
def _runtime_race_detector(_runtime_sanitizer):
    """Wrap the whole suite in the data-race detector when
    ``REPRO_RACE=1`` (the CI ``race`` job runs tier-1 this way).

    Depends on ``_runtime_sanitizer`` so the two patch layers nest LIFO:
    sanitizer installs first and uninstalls last, otherwise each would
    capture the other's wrappers as "originals".  Non-strict because
    tier-1 deliberately runs seeded-protocol-bug scenarios; dedicated
    tests assert on report presence/absence instead.
    """
    import os

    if os.environ.get("REPRO_RACE") != "1":
        yield
        return
    from repro.analysis.racedetect import install, uninstall

    install(strict=False)
    try:
        yield
    finally:
        uninstall()


@pytest.fixture
def walks(monkeypatch):
    """Counts ``BPlusTree.leaf_ids_in_key_order`` calls."""
    from repro.btree.tree import BPlusTree

    calls = []
    walk = BPlusTree.leaf_ids_in_key_order
    monkeypatch.setattr(
        BPlusTree, "leaf_ids_in_key_order", lambda self: calls.append(1) or walk(self)
    )
    return calls


@pytest.fixture
def env():
    return make_env()


@pytest.fixture
def store(env):
    return env[0]


@pytest.fixture
def log(env):
    return env[1]


# -- hypothesis profiles -------------------------------------------------
#
# The default profile keeps CI fast; `HYPOTHESIS_PROFILE=soak pytest tests/`
# runs the property suites with a 10x example budget.
import os

from hypothesis import settings

settings.register_profile("default", max_examples=50)
settings.register_profile("soak", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
