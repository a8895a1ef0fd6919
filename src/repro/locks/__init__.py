"""Locking: Table-1 modes, the lock manager, deadlock handling, resources."""

from repro.locks.manager import (
    LockManager,
    LockRequest,
    LockStats,
    RequestState,
)
from repro.locks.modes import (
    GRANTED_ORDER,
    LockMode,
    REQUESTED_ORDER,
    can_upgrade,
    compatibility_cell,
    compatible,
    format_table,
)
from repro.locks.resources import (
    current_lock_name,
    page_lock,
    record_lock,
    sidefile_key,
    sidefile_lock,
    tree_lock,
)

__all__ = [
    "GRANTED_ORDER",
    "LockManager",
    "LockMode",
    "LockRequest",
    "LockStats",
    "REQUESTED_ORDER",
    "RequestState",
    "can_upgrade",
    "compatibility_cell",
    "compatible",
    "current_lock_name",
    "format_table",
    "page_lock",
    "record_lock",
    "sidefile_key",
    "sidefile_lock",
    "tree_lock",
]
