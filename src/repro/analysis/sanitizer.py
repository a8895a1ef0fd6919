"""Runtime lock/WAL sanitizer — the dynamic half of reprolint.

When installed, the sanitizer patches four classes with shadow checks:

* :class:`~repro.locks.manager.LockManager` — after every public mutation
  (request / convert / downgrade / release / release_all / cancel_wait)
  the holder set of each touched resource is re-validated against the
  paper's Table 1: two distinct owners may never concurrently hold modes
  whose cell is *No*, nor a *blank* pairing ("the two lock modes won't be
  requested together by different requesters"), and RS — an instant-
  duration mode — may never appear in the holder table at all.  The
  deadlock victim choice is also shadowed: if a reorganizer participates
  in a cycle, it must be the victim (section 4.2).
* :class:`~repro.storage.buffer.BufferPool` — ``mark_dirty`` may not move
  a page LSN *backwards* (the redo page-LSN test relies on monotonicity)
  nor stamp an LSN the log has not appended yet; ``fetch`` of a page whose
  RX lock is held by a different transaction is a violation (RX is
  compatible with nothing — conflicting requesters must forgo and back
  off, not touch the page), and a *dirty* page fetched by a transaction
  holding no lock on it while others do is recorded as a warning.
  Pin/unpin pairs carry the version-stamp contract: a frame whose page
  LSN advanced while pinned (it was mutated) must have had its version
  stamp bumped before the unpin — otherwise a waiter comparing stamps
  (ROADMAP item 1(a)) would take a changed page for unchanged.
* :class:`~repro.storage.disk.SimulatedDisk` — ``write`` enforces the
  write-ahead rule end to end: a page image may not reach the disk while
  its ``page_lsn`` is beyond the log's ``flushed_lsn``.
* :class:`~repro.txn.scheduler.Scheduler` — ``_step`` publishes which
  transaction is currently driving storage calls, so buffer checks can
  attribute fetches to lock owners.  Outside a scheduler step (synchronous
  engine code, direct unit tests) lock-coverage checks are skipped.

Checks are class-level patches: when the sanitizer is *not* installed the
hot paths are byte-for-byte the original functions — zero overhead, the
same discipline as the :mod:`repro.perf` hooks.  Strict mode (the default)
raises on violations; warnings are always only recorded.

Usage::

    from repro.analysis import sanitizer
    san = sanitizer.install()           # strict; or install(strict=False)
    ...
    san.diagnostics                     # everything observed
    sanitizer.uninstall()

    with san.suspended():               # e.g. around crash simulation
        ...

or via the ``REPRO_SANITIZER=1`` pytest fixture (see ``tests/conftest.py``).
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ReproError
from repro.locks.modes import LockMode, compatibility_cell


class SanitizerError(ReproError):
    """Base of all sanitizer-detected protocol violations."""


class LockTableViolation(SanitizerError):
    """The granted lock table contradicts Table 1."""


class WALOrderViolation(SanitizerError):
    """Write-ahead / page-LSN ordering was broken."""


class VictimPolicyViolation(SanitizerError):
    """A deadlock was resolved against a non-reorganizer while a
    reorganizer was in the cycle."""


class VersionStampViolation(SanitizerError):
    """A mutated buffer frame was unpinned without its version stamp
    having been bumped — a waiter comparing stamps would take the changed
    page for unchanged."""


@dataclass(frozen=True)
class Diagnostic:
    """One observation: a violation (strict mode raises) or a warning."""

    kind: str
    severity: str  # "violation" | "warning"
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}/{self.severity}] {self.message}"


@dataclass
class Sanitizer:
    """Collected state of one installed sanitizer."""

    strict: bool = True
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: kind -> number of checks performed (not violations; for overhead
    #: accounting and "did it actually run" assertions in tests).
    checks: Counter = field(default_factory=Counter)
    _suspend_depth: int = 0

    @property
    def violations(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "violation"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def suspended_now(self) -> bool:
        return self._suspend_depth > 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Temporarily disable all checks (e.g. around crash simulation,
        where volatile state is *supposed* to contradict the disk)."""
        self._suspend_depth += 1
        try:
            yield
        finally:
            self._suspend_depth -= 1

    def violation(
        self, kind: str, message: str, exc_type: type[SanitizerError]
    ) -> None:
        self.diagnostics.append(Diagnostic(kind, "violation", message))
        if self.strict:
            raise exc_type(message)

    def warn(self, kind: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(kind, "warning", message))


# -- module state -------------------------------------------------------------

#: The installed sanitizer, or None (all patches gone).
_ACTIVE: Sanitizer | None = None

#: (cls, attr) -> original unbound function, for uninstall.
_ORIGINALS: dict[tuple[type, str], Any] = {}

#: SimulatedDisk -> the BufferPool in front of it (to reach its WAL hook).
_POOL_OF_DISK: "weakref.WeakKeyDictionary[Any, Any]" = weakref.WeakKeyDictionary()

#: BufferPool -> {page_id: (page_lsn, version) snapshot taken at pin time},
#: for the version-stamp-before-unpin check.
_PIN_SNAPSHOTS: "weakref.WeakKeyDictionary[Any, dict]" = weakref.WeakKeyDictionary()


class _StepContext:
    """Which transaction is currently driving storage calls, and under
    which lock manager.  Set by the patched ``Scheduler._step``."""

    __slots__ = ("owner", "lock_manager")

    def __init__(self) -> None:
        self.owner: Any = None
        self.lock_manager: Any = None


_CTX = _StepContext()


def active() -> Sanitizer | None:
    """The installed sanitizer, or None."""
    return _ACTIVE


# -- Table-1 holder-set validation --------------------------------------------


def _check_lock_table(san: Sanitizer, lm: Any, resource: Any) -> None:
    held = lm._holders.get(resource)
    if not held:
        return
    san.checks["lock-table"] += 1
    flat: list[tuple[Any, LockMode]] = [
        (owner, mode)
        for owner, counts in held.items()
        for mode, n in counts.items()
        if n > 0
    ]
    for owner, mode in flat:
        if mode is LockMode.RS:
            san.violation(
                "lock-table",
                f"RS held by {owner!r} on {resource!r}: RS is an "
                f"instant-duration mode and must never be granted",
                LockTableViolation,
            )
    for i, (owner_a, mode_a) in enumerate(flat):
        for owner_b, mode_b in flat[i + 1:]:
            if owner_a == owner_b:
                continue
            cell = compatibility_cell(mode_a, mode_b)
            if cell is None:
                cell = compatibility_cell(mode_b, mode_a)
            if cell is None:
                san.violation(
                    "lock-table",
                    f"blank Table-1 pairing held on {resource!r}: "
                    f"{mode_a.value} ({owner_a!r}) with {mode_b.value} "
                    f"({owner_b!r}) — the paper says these are never "
                    f"requested together",
                    LockTableViolation,
                )
            elif cell is False:
                san.violation(
                    "lock-table",
                    f"incompatible modes granted on {resource!r}: "
                    f"{mode_a.value} ({owner_a!r}) vs {mode_b.value} "
                    f"({owner_b!r}) (Table 1: No)",
                    LockTableViolation,
                )


def _rx_holder(lm: Any, resource: Any, *, other_than: Any) -> Any | None:
    """An owner other than ``other_than`` holding RX on ``resource``."""
    for owner, counts in lm._holders.get(resource, {}).items():
        if owner != other_than and counts.get(LockMode.RX, 0) > 0:
            return owner
    return None


# -- patch helpers -------------------------------------------------------------


def _patch(cls: type, attr: str, wrapper_factory: Callable[[Any], Any]) -> None:
    original = getattr(cls, attr)
    _ORIGINALS[(cls, attr)] = original
    wrapped = functools.wraps(original)(wrapper_factory(original))
    setattr(cls, attr, wrapped)


def _skip(san: Sanitizer | None) -> bool:
    return san is None or san._suspend_depth > 0


# -- lock manager patches -----------------------------------------------------


def _patch_lock_manager() -> None:
    from repro.locks.manager import LockManager

    def wrap_touch_one(original: Any) -> Any:
        """Wrap a mutator whose second positional arg names the resource
        (request / convert / downgrade / release take (owner, resource))."""

        def wrapper(self: Any, owner: Any, resource: Any, *args: Any, **kw: Any):
            result = original(self, owner, resource, *args, **kw)
            san = _ACTIVE
            if not _skip(san):
                _check_lock_table(san, self, resource)
            return result

        return wrapper

    def wrap_release_all(original: Any) -> Any:
        def wrapper(self: Any, owner: Any) -> None:
            san = _ACTIVE
            touched = (
                list(self._holders) + list(self._queues) if not _skip(san) else ()
            )
            original(self, owner)
            if not _skip(san):
                for resource in touched:
                    _check_lock_table(san, self, resource)

        return wrapper

    def wrap_cancel_wait(original: Any) -> Any:
        def wrapper(self: Any, owner: Any) -> None:
            san = _ACTIVE
            touched = list(self._queues) if not _skip(san) else ()
            original(self, owner)
            if not _skip(san):
                for resource in touched:
                    _check_lock_table(san, self, resource)

        return wrapper

    def wrap_deliver_deadlock(original: Any) -> Any:
        def wrapper(self: Any, victim: Any) -> None:
            san = _ACTIVE
            if not _skip(san):
                # Validate against the cycle that still exists at delivery
                # time (delivery is what removes the victim's requests).
                # Checking the *delivered* victim rather than wrapping
                # _choose_victim means buggy victim policies — including
                # overridden ones — cannot dodge the check.
                san.checks["victim-policy"] += 1
                cycle = self.find_deadlock_cycle()
                if (
                    cycle
                    and victim in cycle
                    and not getattr(victim, "is_reorganizer", False)
                    and any(getattr(o, "is_reorganizer", False) for o in cycle)
                ):
                    san.violation(
                        "victim-policy",
                        f"deadlock cycle {cycle!r} contains a reorganizer "
                        f"but {victim!r} was sacrificed; the paper always "
                        f"forces the reorganizer to give up its lock",
                        VictimPolicyViolation,
                    )
            original(self, victim)

        return wrapper

    for name in ("request", "convert", "downgrade", "release"):
        _patch(LockManager, name, wrap_touch_one)
    _patch(LockManager, "release_all", wrap_release_all)
    _patch(LockManager, "cancel_wait", wrap_cancel_wait)
    _patch(LockManager, "_deliver_deadlock", wrap_deliver_deadlock)


# -- buffer pool / disk patches ------------------------------------------------


def _real_wal(pool: Any) -> Any | None:
    """The pool's WAL hook iff it is a real log manager (exposes
    ``last_lsn``); the ``_NullWAL`` test stand-in is ignored."""
    wal = getattr(pool, "_wal", None)
    return wal if hasattr(wal, "last_lsn") else None


def _snapshot_pin(pool: Any, page_id: Any) -> None:
    """Record (page_lsn, version) at first pin; later pins keep the
    original snapshot so nested pin/unpin pairs still compare against the
    state the outermost pinner saw."""
    frame = pool._frames.get(page_id)
    if frame is None:
        return
    snaps = _PIN_SNAPSHOTS.setdefault(pool, {})
    if page_id not in snaps:
        snaps[page_id] = (frame.page.page_lsn, pool.version_of(page_id))


def _check_unpin(san: Sanitizer, pool: Any, page_id: Any) -> None:
    """The mutated-frame-unpinned-without-a-stamp-bump check.

    Runs *before* the pin count drops: if the page LSN advanced while the
    frame was pinned (it was mutated through the WAL funnel) but the
    version stamp is unchanged, a waiter that captured the stamp before
    the mutation would take the changed page for unchanged.
    """
    snaps = _PIN_SNAPSHOTS.get(pool)
    if not snaps or page_id not in snaps:
        return
    frame = pool._frames.get(page_id)
    if frame is None:
        del snaps[page_id]
        return
    san.checks["version-stamp"] += 1
    snap_lsn, snap_ver = snaps[page_id]
    if frame.page.page_lsn > snap_lsn and pool.version_of(page_id) == snap_ver:
        san.violation(
            "version-stamp",
            f"page {page_id} unpinned after mutation (page LSN "
            f"{snap_lsn} -> {frame.page.page_lsn}) without a version-stamp "
            f"bump; a waiter comparing stamps would take it for unchanged",
            VersionStampViolation,
        )
    if frame.pins <= 1:
        del snaps[page_id]


def _patch_buffer_pool() -> None:
    from repro.locks.resources import page_lock
    from repro.storage.buffer import BufferPool

    def wrap_init(original: Any) -> Any:
        def wrapper(self: Any, disk: Any, *args: Any, **kw: Any) -> None:
            original(self, disk, *args, **kw)
            _POOL_OF_DISK[disk] = self

        return wrapper

    def wrap_mark_dirty(original: Any) -> Any:
        def wrapper(self: Any, page_id: Any, lsn: Any = None) -> None:
            san = _ACTIVE
            if not _skip(san) and lsn is not None:
                frame = self._frames.get(page_id)
                if frame is not None:
                    san.checks["page-lsn"] += 1
                    if lsn < frame.page.page_lsn:
                        san.violation(
                            "page-lsn",
                            f"page {page_id} LSN would regress "
                            f"{frame.page.page_lsn} -> {lsn}; redo's "
                            f"page-LSN test needs monotonic stamps",
                            WALOrderViolation,
                        )
                    wal = _real_wal(self)
                    if wal is not None and 0 < wal.last_lsn < lsn:
                        san.violation(
                            "page-lsn",
                            f"page {page_id} stamped with LSN {lsn} but the "
                            f"log has only appended up to {wal.last_lsn}; "
                            f"log the change before dirtying the page",
                            WALOrderViolation,
                        )
            original(self, page_id, lsn)

        return wrapper

    def wrap_fetch(original: Any) -> Any:
        def wrapper(self: Any, page_id: Any, *, pin: bool = False) -> Any:
            page = original(self, page_id, pin=pin)
            san = _ACTIVE
            if pin and not _skip(san):
                _snapshot_pin(self, page_id)
            if _skip(san) or _CTX.lock_manager is None or _CTX.owner is None:
                return page
            san.checks["fetch-coverage"] += 1
            lm = _CTX.lock_manager
            owner = _CTX.owner
            resource = page_lock(page_id)
            foreign_rx = _rx_holder(lm, resource, other_than=owner)
            if foreign_rx is not None:
                # Navigation reads fetch pages before lock-coupling onto
                # them, so a foreign-RX fetch is legal as long as the S
                # request that follows forgoes — record it, don't raise.
                san.warn(
                    "rx-foreign-fetch",
                    f"{owner!r} fetched page {page_id} while {foreign_rx!r} "
                    f"holds RX on it; the S request that follows must "
                    f"forgo and back off via instant RS",
                )
            frame = self._frames.get(page_id)
            if (
                frame is not None
                and frame.dirty
                and not lm.held_modes(owner, resource)
                and any(o != owner for o in lm._holders.get(resource, ()))
            ):
                san.warn(
                    "dirty-fetch",
                    f"{owner!r} fetched dirty page {page_id} without "
                    f"holding a lock on it while other transactions do",
                )
            return page

        return wrapper

    def wrap_put_new(original: Any) -> Any:
        def wrapper(self: Any, page: Any, *, pin: bool = False) -> Any:
            result = original(self, page, pin=pin)
            if pin and not _skip(_ACTIVE):
                _snapshot_pin(self, page.page_id)
            return result

        return wrapper

    def wrap_pin(original: Any) -> Any:
        def wrapper(self: Any, page_id: Any) -> None:
            original(self, page_id)
            if not _skip(_ACTIVE):
                _snapshot_pin(self, page_id)

        return wrapper

    def wrap_unpin(original: Any) -> Any:
        def wrapper(self: Any, page_id: Any) -> None:
            san = _ACTIVE
            if not _skip(san):
                _check_unpin(san, self, page_id)
            original(self, page_id)

        return wrapper

    _patch(BufferPool, "__init__", wrap_init)
    _patch(BufferPool, "mark_dirty", wrap_mark_dirty)
    _patch(BufferPool, "fetch", wrap_fetch)
    _patch(BufferPool, "put_new", wrap_put_new)
    _patch(BufferPool, "pin", wrap_pin)
    _patch(BufferPool, "unpin", wrap_unpin)


def _patch_disk() -> None:
    from repro.storage.disk import SimulatedDisk

    def wrap_write(original: Any) -> Any:
        def wrapper(self: Any, page: Any) -> None:
            san = _ACTIVE
            if not _skip(san):
                pool = _POOL_OF_DISK.get(self)
                wal = _real_wal(pool) if pool is not None else None
                if wal is not None:
                    san.checks["write-ahead"] += 1
                    if page.page_lsn > wal.flushed_lsn:
                        san.violation(
                            "write-ahead",
                            f"page {page.page_id} written to disk with "
                            f"page_lsn={page.page_lsn} while the log is "
                            f"only flushed to {wal.flushed_lsn}; the "
                            f"write-ahead rule requires flushing first",
                            WALOrderViolation,
                        )
            original(self, page)

        return wrapper

    _patch(SimulatedDisk, "write", wrap_write)


# -- scheduler patch (owner attribution) --------------------------------------


def _patch_scheduler() -> None:
    from repro.txn.scheduler import Scheduler

    def wrap_step(original: Any) -> Any:
        def wrapper(self: Any, process: Any, value: Any, throw: Any) -> None:
            prev_owner, prev_lm = _CTX.owner, _CTX.lock_manager
            _CTX.owner, _CTX.lock_manager = process.txn, self.lm
            try:
                original(self, process, value, throw)
            finally:
                _CTX.owner, _CTX.lock_manager = prev_owner, prev_lm

        return wrapper

    _patch(Scheduler, "_step", wrap_step)


# -- install / uninstall -------------------------------------------------------


def install(*, strict: bool = True) -> Sanitizer:
    """Install the sanitizer (idempotent); returns the active instance.

    All patches are class-level, so every lock manager / buffer pool /
    disk / scheduler in the process is shadowed, whenever it was created.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    _ACTIVE = Sanitizer(strict=strict)
    _patch_lock_manager()
    _patch_buffer_pool()
    _patch_disk()
    _patch_scheduler()
    return _ACTIVE


def uninstall() -> Sanitizer | None:
    """Remove every patch; returns the sanitizer that was active (with its
    diagnostics intact), or None if none was installed."""
    global _ACTIVE
    san = _ACTIVE
    if san is None:
        return None
    for (cls, attr), original in _ORIGINALS.items():
        setattr(cls, attr, original)
    _ORIGINALS.clear()
    _POOL_OF_DISK.clear()
    _PIN_SNAPSHOTS.clear()
    _CTX.owner = _CTX.lock_manager = None
    _ACTIVE = None
    return san
