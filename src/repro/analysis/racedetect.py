"""reprorace — hybrid lockset + happens-before data-race detector.

Reprocheck (:mod:`repro.analysis.explorer`) only finds a missing lock on a
schedule it happens to explore; this module flags one on **any single
execution**, Eraser-style.  When installed it patches the same narrow
funnels as the sanitizer — lock manager, buffer pool, scheduler, WAL —
and maintains two complementary views of every page-frame access:

* **Vector clocks** per DES transaction, with happens-before edges from

  - lock *release -> acquire* (per-resource release clocks; a grant — also
    a delayed grant, joined via an ``on_grant`` chain — merges the
    resource's release clock into the acquirer),
  - WAL *flush ordering* (flushes of one log are serialized by the device,
    so flushers join a per-log clock; appends deliberately do **not**
    publish — the reorganizer's stable-point flushes must not absorb a
    concurrent updater's clock and mask its unlocked writes),
  - scheduler *spawn/join* (a process spawned from inside a step inherits
    the spawner's clock; every process joins the finish clocks of the
    transactions that completed before it started), and
  - optimistic *version validation*: a successful ``version_of``
    validation joins the page's write clock into the reader — PR 6's
    lock-free readers are benign — while a read that commits without
    validating is reported as an ``unvalidated-read``.

* **Eraser lockset state machines** per page
  (virgin -> exclusive -> shared -> shared-modified) fed by the live
  :class:`~repro.locks.manager.LockManager` holder sets.  Intention modes
  (IS/IX) are *not* protective — a tree-level IX must never mask a missing
  page lock.  Reads are protected by S/X/R/RX on a common resource, writes
  only by X/RX.  The reorg side-file hand-off (the ``TreeSwitchRecord``
  append that flips the root) is modeled as a *lockset transfer*: every
  page last written by the switching transaction restarts virgin, because
  ownership of the new tree passes from its builder to the readers that
  will lock it under the new tree-lock name.

A pair of accesses is reported as a race only when it is **both**
vector-clock-unordered **and** unprotected — the hybrid rule.  Reads
performed while holding no lock on the page are *pending* until they are
either validated (optimistic path), covered by a later lock acquire on the
same page by the same owner (the fetch-then-lock-couple navigation idiom),
or finalized at transaction end, where a conflicting unordered write turns
them into an ``unvalidated-read`` report.  Reports carry both access
sites, the Eraser state, the surviving candidate lockset and the
vector-clock evidence.

Like the sanitizer, every patch is class-level and opt-in: when not
installed the hot paths are byte-for-byte the original functions (enforced
by ``tests/analysis/test_import_patches_nothing.py``).  Enable via
:func:`install`, the ``REPRO_RACE=1`` pytest fixture,
or ``python -m reprorace`` (which race-checks every schedule reprocheck
explores).  Install *before* building the database: the optimistic-window
hook rides on the instance-bound ``version_of`` shortcut that
``StorageManager.__init__`` / ``ShardStore.__init__`` create.  When the
sanitizer is also wanted, install it first and uninstall it last (LIFO),
as ``tests/conftest.py`` does.
"""

from __future__ import annotations

import functools
import os
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ReproError
from repro.locks.modes import LockMode
from repro.locks.resources import PAGE

#: Modes that protect a *read* of a page they are held on.
_READ_PROTECTIVE = frozenset(
    {LockMode.S, LockMode.X, LockMode.R, LockMode.RX}
)
#: Modes that protect a *write*.  Version stamps never protect writes:
#: every funnel write bumps the version, so a version "lockset" on the
#: write side would mask everything.
_WRITE_PROTECTIVE = frozenset({LockMode.X, LockMode.RX})


class RaceError(ReproError):
    """A data race was detected (strict mode only)."""


@dataclass(frozen=True)
class AccessSite:
    """One side of a racing pair."""

    owner: str  #: repr of the accessing transaction
    op: str  #: "read" | "write"
    site: str  #: file:line in function (innermost generator frame)
    clock: int  #: accessor's own vector-clock component at access time
    locks: tuple[str, ...]  #: protective resources held at access time
    validated: bool = False  #: read was version-validated

    def __str__(self) -> str:
        held = ", ".join(self.locks) if self.locks else "no locks"
        extra = ", version-validated" if self.validated else ""
        return f"{self.op} by {self.owner} at {self.site} ({held}{extra})"


@dataclass(frozen=True)
class RaceReport:
    """Two conflicting, unordered, unprotected accesses to one page."""

    kind: str  #: "read-write" | "write-write" | "unvalidated-read"
    page_id: Any
    state: str  #: Eraser state of the page when the race surfaced
    candidate_lockset: tuple[str, ...]
    earlier: AccessSite
    later: AccessSite
    evidence: str  #: vector-clock evidence

    def summary(self) -> str:
        return (
            f"[{self.kind}] page {self.page_id} ({self.state}): "
            f"{self.earlier} vs {self.later}"
        )

    def __str__(self) -> str:
        cand = (
            ", ".join(self.candidate_lockset)
            if self.candidate_lockset
            else "(empty)"
        )
        return (
            f"{self.summary()}\n"
            f"    candidate lockset: {cand}\n"
            f"    {self.evidence}"
        )


@dataclass
class RaceDetector:
    """Collected state of one installed detector."""

    strict: bool = False
    reports: list[RaceReport] = field(default_factory=list)
    #: kind -> number of checks performed (for "did it run" assertions).
    checks: Counter = field(default_factory=Counter)
    _suspend_depth: int = 0
    _seen: set = field(default_factory=set)

    @property
    def suspended_now(self) -> bool:
        return self._suspend_depth > 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Temporarily disable all tracking (e.g. crash simulation)."""
        self._suspend_depth += 1
        try:
            yield
        finally:
            self._suspend_depth -= 1

    def report(
        self,
        *,
        kind: str,
        page_id: Any,
        state: str,
        candidate: tuple[str, ...],
        earlier: AccessSite,
        later: AccessSite,
        evidence: str,
    ) -> None:
        key = (kind, page_id, earlier.owner, earlier.site, later.owner, later.site)
        if key in self._seen:
            return
        self._seen.add(key)
        rep = RaceReport(
            kind=kind,
            page_id=page_id,
            state=state,
            candidate_lockset=candidate,
            earlier=earlier,
            later=later,
            evidence=evidence,
        )
        self.reports.append(rep)
        if self.strict:
            raise RaceError(str(rep))


# -- module state -------------------------------------------------------------

_ACTIVE: RaceDetector | None = None

#: (cls, attr) -> original unbound function, for uninstall.
_ORIGINALS: dict[tuple[type, str], Any] = {}

class _OwnerTable:
    """Mapping keyed by whatever drives an access — scheduler process
    objects in DES runs (held weakly, so per-run state dies with the
    run) or plain owner tokens like strings when the lock manager is
    exercised directly by unit tests (held strongly; cleared on
    uninstall)."""

    __slots__ = ("_weak", "_strong")

    def __init__(self) -> None:
        self._weak: "weakref.WeakKeyDictionary[Any, Any]" = (
            weakref.WeakKeyDictionary()
        )
        self._strong: dict = {}

    def _table(self, key: Any):
        try:
            weakref.ref(key)
        except TypeError:
            return self._strong
        return self._weak

    def get(self, key: Any, default: Any = None) -> Any:
        return self._table(key).get(key, default)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._table(key)[key] = value

    def pop(self, key: Any, default: Any = None) -> Any:
        return self._table(key).pop(key, default)

    def items(self) -> list:
        return list(self._weak.items()) + list(self._strong.items())

    def clear(self) -> None:
        self._weak.clear()
        self._strong.clear()


#: Transaction -> vector clock {Transaction: int}.
_VCS = _OwnerTable()
#: LockManager -> {resource: release clock} (lock release->acquire edges).
_LOCK_CLOCKS: "weakref.WeakKeyDictionary[Any, dict]" = weakref.WeakKeyDictionary()
#: LogManager -> flush clock (flusher<->flusher edges only).
_WAL_CLOCKS: "weakref.WeakKeyDictionary[Any, dict]" = weakref.WeakKeyDictionary()
#: Scheduler -> clock published by every finished/failed process.
_FINISH_CLOCKS: "weakref.WeakKeyDictionary[Any, dict]" = weakref.WeakKeyDictionary()
#: Transaction -> spawner's clock snapshot, joined at its first step.
_SPAWN_JOIN = _OwnerTable()
#: BufferPool -> {page_id: _PageState}.
_PAGE_STATES: "weakref.WeakKeyDictionary[Any, dict]" = weakref.WeakKeyDictionary()
#: Transaction -> {page_id: captured version} (open optimistic windows).
_WINDOWS = _OwnerTable()
#: Transaction -> {page_id: _PendingRead} (reads awaiting validation/lock).
_PENDING = _OwnerTable()


class _RaceContext:
    """Which process is driving storage calls right now."""

    __slots__ = ("owner", "lock_manager", "scheduler", "process")

    def __init__(self) -> None:
        self.owner: Any = None
        self.lock_manager: Any = None
        self.scheduler: Any = None
        self.process: Any = None

    def clear(self) -> None:
        self.owner = self.lock_manager = self.scheduler = self.process = None


_RCTX = _RaceContext()


def active() -> RaceDetector | None:
    """The installed detector, or None."""
    return _ACTIVE


def _skip(det: RaceDetector | None) -> bool:
    return det is None or det._suspend_depth > 0


def _patch(cls: type, attr: str, wrapper_factory: Callable[[Any], Any]) -> None:
    original = getattr(cls, attr)
    _ORIGINALS[(cls, attr)] = original
    wrapped = functools.wraps(original)(wrapper_factory(original))
    setattr(cls, attr, wrapped)


# -- vector-clock plumbing -----------------------------------------------------


def _vc(owner: Any) -> dict:
    vc = _VCS.get(owner)
    if vc is None:
        vc = _VCS[owner] = {owner: 1}
    return vc


def _merge(dst: dict, src: dict) -> None:
    for k, v in src.items():
        if v > dst.get(k, 0):
            dst[k] = v


def _site() -> str:
    """Source site of the current access: the innermost frame of the
    driving process's generator chain (suspended at a ``Call``/``Think``
    yield, or live during ``gen.send``)."""
    process = _RCTX.process
    gen = getattr(process, "gen", None)
    frame = None
    while gen is not None:
        f = getattr(gen, "gi_frame", None)
        if f is None:
            break
        frame = f
        gen = getattr(gen, "gi_yieldfrom", None)
    if frame is None:
        return "<outside scheduler>"
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{frame.f_lineno} in {code.co_name}"


def _protective(lm: Any, owner: Any) -> tuple[frozenset, frozenset]:
    """(read-protective, write-protective) resources ``owner`` holds.
    Intention modes are excluded by construction of the mode sets."""
    rset: set = set()
    wset: set = set()
    for res in lm._owned.get(owner, ()):
        for mode in lm._holders[res][owner]:
            if mode in _READ_PROTECTIVE:
                rset.add(res)
            if mode in _WRITE_PROTECTIVE:
                wset.add(res)
    return frozenset(rset), frozenset(wset)


def _res_reprs(resources: Any) -> tuple[str, ...]:
    return tuple(sorted(repr(r) for r in resources))


# -- per-page Eraser state -----------------------------------------------------


class _PageState:
    """History of one page: Eraser state machine + FastTrack-style
    last-write epoch and last-read-per-owner map."""

    __slots__ = (
        "state",
        "first_owner",
        "candidate",
        "last_write",
        "write_clock",
        "reads",
    )

    def __init__(self) -> None:
        self.state = "virgin"
        self.first_owner: Any = None
        #: Intersection of protective resources over all shared accesses
        #: (None until the page leaves the exclusive state).  Purely
        #: diagnostic — the pairwise rule below decides races.
        self.candidate: set | None = None
        #: (owner, clock, AccessSite, write-protective frozenset) | None
        self.last_write: tuple | None = None
        #: Join of every writer's clock (optimistic validation edge).
        self.write_clock: dict = {}
        #: owner -> (clock, AccessSite, read-protective frozenset, validated)
        self.reads: dict = {}

    def advance(self, owner: Any, *, write: bool, prot: frozenset) -> None:
        if self.state == "virgin":
            self.state = "exclusive"
            self.first_owner = owner
        elif self.state == "exclusive":
            if owner is not self.first_owner:
                self.state = "shared-modified" if write else "shared"
                self.candidate = set(prot)
            return
        else:
            if write:
                self.state = "shared-modified"
            if self.candidate is not None:
                self.candidate &= prot


class _PendingRead:
    """A page read performed while holding no lock on the page — in limbo
    until validated, covered by a later lock acquire, or finalized."""

    __slots__ = ("pool", "clock", "site", "snapshot", "rprot", "conflicts")

    def __init__(self, pool, clock, site, snapshot, rprot):
        self.pool = pool
        self.clock = clock
        self.site = site
        self.snapshot = snapshot  #: copy of the reader's VC at fetch time
        self.rprot = rprot
        #: Unordered, unprotected writes that hit the page while this read
        #: was pending — noted at write time (a later write, e.g. the
        #: reorganizer's own side-file apply, would overwrite last_write
        #: and hide them from the finalize check), judged at discharge:
        #: dropped if the read gets validated or lock-coupled, reported if
        #: the transaction commits the read as-is.
        self.conflicts: list = []


def _page_state(pool: Any, page_id: Any) -> _PageState:
    states = _PAGE_STATES.get(pool)
    if states is None:
        states = _PAGE_STATES[pool] = {}
    st = states.get(page_id)
    if st is None:
        st = states[page_id] = _PageState()
    return st


def _evidence(later_owner: Any, earlier_owner: Any, earlier_clock: int) -> str:
    vc = _vc(later_owner)
    return (
        f"VC evidence: VC[{later_owner!r}][{earlier_owner!r}] = "
        f"{vc.get(earlier_owner, 0)} < {earlier_clock} (the earlier access"
        f" is not ordered before the later one)"
    )


# -- access recording & the hybrid race rule ----------------------------------


def _record_read(
    det: RaceDetector,
    pool: Any,
    page_id: Any,
    owner: Any,
    *,
    rprot: frozenset,
    validated: bool,
    site: str | None = None,
) -> None:
    st = _page_state(pool, page_id)
    vc = _vc(owner)
    here = AccessSite(
        owner=repr(owner),
        op="read",
        site=site or _site(),
        clock=vc[owner],
        locks=_res_reprs(rprot),
        validated=validated,
    )
    det.checks["read-check"] += 1
    lw = st.last_write
    if lw is not None:
        w_owner, w_clock, w_site, w_prot = lw
        if (
            w_owner is not owner
            and vc.get(w_owner, 0) < w_clock
            and not validated
            and not (rprot & w_prot)
        ):
            st.advance(owner, write=False, prot=rprot)
            det.report(
                kind="read-write",
                page_id=page_id,
                state=st.state,
                candidate=_res_reprs(st.candidate or ()),
                earlier=w_site,
                later=here,
                evidence=_evidence(owner, w_owner, w_clock),
            )
            st.reads[owner] = (vc[owner], here, rprot, validated)
            return
    st.advance(owner, write=False, prot=rprot)
    st.reads[owner] = (vc[owner], here, rprot, validated)


def _record_write(det: RaceDetector, pool: Any, page_id: Any, owner: Any) -> None:
    lm = _RCTX.lock_manager
    if lm is None:
        return
    st = _page_state(pool, page_id)
    vc = _vc(owner)
    _, wprot = _protective(lm, owner)
    here = AccessSite(
        owner=repr(owner),
        op="write",
        site=_site(),
        clock=vc[owner],
        locks=_res_reprs(wprot),
    )
    det.checks["write-check"] += 1
    st.advance(owner, write=True, prot=wprot)
    cand = _res_reprs(st.candidate or ())
    lw = st.last_write
    if lw is not None:
        w_owner, w_clock, w_site, w_prot = lw
        if (
            w_owner is not owner
            and vc.get(w_owner, 0) < w_clock
            and not (wprot & w_prot)
        ):
            det.report(
                kind="write-write",
                page_id=page_id,
                state=st.state,
                candidate=cand,
                earlier=w_site,
                later=here,
                evidence=_evidence(owner, w_owner, w_clock),
            )
    for r_owner, (r_clock, r_site, r_rprot, r_validated) in st.reads.items():
        if r_owner is owner:
            continue
        if vc.get(r_owner, 0) >= r_clock:
            continue
        # A version-validated read is linearized at its validation point:
        # the version stamp is its lock, so a later unordered write is the
        # benign race PR 6 designed for.  Never applies to write pairs.
        if r_validated or (r_rprot & wprot):
            continue
        det.report(
            kind="read-write",
            page_id=page_id,
            state=st.state,
            candidate=cand,
            earlier=r_site,
            later=here,
            evidence=_evidence(owner, r_owner, r_clock),
        )
    for p_owner, pend in list(_PENDING.items()):
        p = pend.get(page_id)
        if p is None or p.pool is not pool:
            continue
        if (
            p_owner is not owner
            and vc.get(p_owner, 0) < p.clock
            and not (p.rprot & wprot)
        ):
            p.conflicts.append((here, p_owner))
        # This write is about to overwrite ``last_write`` — run the
        # finalize-time check against the *old* writer now, or its
        # evidence is lost (e.g. the reorganizer dropping the old tree
        # after the switch overwrites an updater's racy base write).
        if lw is not None:
            lw_owner, lw_clock, lw_site, lw_prot = lw
            if (
                lw_owner is not p_owner
                and p.snapshot.get(lw_owner, 0) < lw_clock
                and not (p.rprot & lw_prot)
            ):
                p.conflicts.append((lw_site, lw_owner))
    st.last_write = (owner, vc[owner], here, wprot)
    _merge(st.write_clock, vc)


def _discharge_pending_with_lock(det: RaceDetector, owner: Any, page_id: Any) -> None:
    """A lock was granted on a page the owner had read unlocked: the
    fetch-then-lock-couple idiom.  Re-record the read *now*, under the
    lock and after the grant's release-clock join."""
    pend = _PENDING.get(owner)
    if not pend:
        return
    p = pend.pop(page_id, None)
    if p is None:
        return
    lm = _RCTX.lock_manager
    rprot, _ = _protective(lm, owner) if lm is not None else (frozenset(), None)
    det.checks["pending-locked"] += 1
    _record_read(
        det,
        p.pool,
        page_id,
        owner,
        rprot=rprot,
        validated=False,
        site=f"{p.site} (lock-coupled after fetch)",
    )


def _finalize_pending(det: RaceDetector, owner: Any) -> None:
    """Transaction end (or mid-protocol ReleaseAll): any read still
    pending was never validated nor locked.  A conflicting write that is
    unordered w.r.t. the *fetch-time* clock snapshot is a race — checking
    against the snapshot matters, because by now drain/switch edges may
    have ordered the writer after the reader's current clock."""
    pend = _PENDING.get(owner)
    if not pend:
        return
    for page_id, p in list(pend.items()):
        det.checks["pending-final"] += 1
        states = _PAGE_STATES.get(p.pool)
        st = states.get(page_id) if states else None
        here = AccessSite(
            owner=repr(owner),
            op="read",
            site=p.site,
            clock=p.clock,
            locks=_res_reprs(p.rprot),
        )
        for w_site, _w_owner in p.conflicts:
            det.report(
                kind="unvalidated-read",
                page_id=page_id,
                state=st.state if st is not None else "shared-modified",
                candidate=_res_reprs(st.candidate or ()) if st is not None else (),
                earlier=here,
                later=w_site,
                evidence=(
                    f"VC evidence: the write was not ordered after the "
                    f"read (writer's VC missed clock {p.clock}); the read "
                    f"was never version-validated nor locked"
                ),
            )
        if p.conflicts:
            continue
        if st is not None:
            lw = st.last_write
            if lw is not None:
                w_owner, w_clock, w_site, w_prot = lw
                if (
                    w_owner is not owner
                    and p.snapshot.get(w_owner, 0) < w_clock
                    and not (p.rprot & w_prot)
                ):
                    st.advance(owner, write=False, prot=p.rprot)
                    det.report(
                        kind="unvalidated-read",
                        page_id=page_id,
                        state=st.state,
                        candidate=_res_reprs(st.candidate or ()),
                        earlier=here if p.clock <= w_clock else w_site,
                        later=w_site if p.clock <= w_clock else here,
                        evidence=(
                            f"VC evidence: snapshot[{w_owner!r}] = "
                            f"{p.snapshot.get(w_owner, 0)} < {w_clock}; the "
                            f"read was never version-validated nor locked"
                        ),
                    )
                    continue
            st.advance(owner, write=False, prot=p.rprot)
            st.reads[owner] = (p.clock, here, p.rprot, False)
    pend.clear()


def _discard_owner(owner: Any) -> None:
    """An aborted transaction never used its reads: drop them silently."""
    for table in (_PENDING, _WINDOWS):
        d = table.get(owner)
        if d:
            d.clear()


# -- optimistic windows (version_of instance hook) -----------------------------


def _on_version_of(
    det: RaceDetector, pool: Any, owner: Any, page_id: Any, version: int
) -> None:
    windows = _WINDOWS.get(owner)
    if windows is None:
        windows = _WINDOWS[owner] = {}
    captured = windows.get(page_id)
    if captured is None:
        windows[page_id] = version
        det.checks["window-capture"] += 1
        return
    if version == captured:
        # Successful validation: a read-acquire edge.  The reader is
        # ordered after every write the stamp covers, and the pending
        # read (if any) is discharged as validated.
        det.checks["validation"] += 1
        states = _PAGE_STATES.get(pool)
        st = states.get(page_id) if states else None
        if st is not None and st.write_clock:
            _merge(_vc(owner), st.write_clock)
        pend = _PENDING.get(owner)
        p = pend.pop(page_id, None) if pend else None
        _record_read(
            det,
            pool,
            page_id,
            owner,
            rprot=frozenset(),
            validated=True,
            site=p.site if p is not None else None,
        )
    else:
        # Mismatch: the protocol restarts — a benign race by design.
        det.checks["window-restart"] += 1
        windows.pop(page_id, None)
        pend = _PENDING.get(owner)
        if pend:
            pend.pop(page_id, None)


def _wrap_version_of(store: Any) -> None:
    """Wrap the *instance-bound* ``version_of`` shortcut.  Patching the
    BufferPool method instead would also intercept the sanitizer's
    internal stamp reads and open spurious windows."""
    inner = store.version_of
    if getattr(inner, "__race_hook__", False):
        return
    pool = store.buffer

    @functools.wraps(inner)
    def version_of(page_id: Any) -> int:
        version = inner(page_id)
        det = _ACTIVE
        if not _skip(det) and _RCTX.owner is not None:
            _on_version_of(det, pool, _RCTX.owner, page_id, version)
        return version

    version_of.__race_hook__ = True
    store.version_of = version_of


# -- side-file hand-off --------------------------------------------------------


def _handoff(det: RaceDetector, owner: Any) -> None:
    """``TreeSwitchRecord`` appended: lockset transfer.  Every page last
    written by the switching transaction (the new tree it built unlocked
    behind the side file / ``reorg_bit``) restarts virgin — its next
    locker becomes the new exclusive owner under the new tree-lock name.
    Targeted by last writer so one shard's switch cannot erase another
    shard's history on the shared pool."""
    det.checks["handoff"] += 1
    for states in _PAGE_STATES.values():
        for page_id in [
            pid
            for pid, st in states.items()
            if st.last_write is not None and st.last_write[0] is owner
        ]:
            del states[page_id]


# -- scheduler patches ---------------------------------------------------------


def _patch_scheduler() -> None:
    from repro.txn.scheduler import _START, Scheduler

    def wrap_spawn(original: Any) -> Any:
        def wrapper(self: Any, gen: Any, **kw: Any):
            txn = original(self, gen, **kw)
            det = _ACTIVE
            if not _skip(det) and _RCTX.owner is not None:
                # Spawned from inside a step: child inherits the
                # spawner's clock (joined when the child starts).
                _SPAWN_JOIN[txn] = dict(_vc(_RCTX.owner))
            return txn

        return wrapper

    def wrap_step(original: Any) -> Any:
        def wrapper(self: Any, process: Any, value: Any, throw: Any) -> None:
            det = _ACTIVE
            if value is _START and not _skip(det):
                # The process starts: join the clocks of everything that
                # finished on this scheduler and of its spawner.
                vc = _vc(process.txn)
                finished = _FINISH_CLOCKS.get(self)
                if finished:
                    _merge(vc, finished)
                spawned = _SPAWN_JOIN.pop(process.txn, None)
                if spawned:
                    _merge(vc, spawned)
            prev = (
                _RCTX.owner,
                _RCTX.lock_manager,
                _RCTX.scheduler,
                _RCTX.process,
            )
            _RCTX.owner = process.txn
            _RCTX.lock_manager = self.lm
            _RCTX.scheduler = self
            _RCTX.process = process
            try:
                original(self, process, value, throw)
            finally:
                (
                    _RCTX.owner,
                    _RCTX.lock_manager,
                    _RCTX.scheduler,
                    _RCTX.process,
                ) = prev

        return wrapper

    def wrap_finish(original: Any) -> Any:
        def wrapper(self: Any, process: Any, result: Any) -> None:
            original(self, process, result)
            det = _ACTIVE
            if not _skip(det):
                txn = process.txn
                _finalize_pending(det, txn)
                _discard_owner(txn)
                vc = _vc(txn)
                clock = _FINISH_CLOCKS.get(self)
                if clock is None:
                    clock = _FINISH_CLOCKS[self] = {}
                _merge(clock, vc)
                vc[txn] += 1

        return wrapper

    def wrap_fail(original: Any) -> Any:
        def wrapper(self: Any, process: Any, exc: Any) -> None:
            det = _ACTIVE
            if not _skip(det):
                # Aborted reads were never used; drop them silently
                # *before* release_all would finalize them.
                _discard_owner(process.txn)
            original(self, process, exc)
            if not _skip(det):
                txn = process.txn
                vc = _vc(txn)
                clock = _FINISH_CLOCKS.get(self)
                if clock is None:
                    clock = _FINISH_CLOCKS[self] = {}
                _merge(clock, vc)
                vc[txn] += 1

        return wrapper

    _patch(Scheduler, "spawn", wrap_spawn)
    _patch(Scheduler, "_step", wrap_step)
    _patch(Scheduler, "_finish", wrap_finish)
    _patch(Scheduler, "_fail", wrap_fail)


# -- lock-manager patches (happens-before edges + discharge) ------------------


def _on_granted(
    det: RaceDetector, lm: Any, owner: Any, resource: Any, state: Any
) -> None:
    """A request/convert was granted (now, or later via the on_grant
    chain): join the resource's release clock, and cover any pending
    unlocked read of that page.  ``state`` is the grant's RequestState;
    an immediate grant has no request object of its own."""
    det.checks["hb-grant"] += 1
    clocks = _LOCK_CLOCKS.get(lm)
    released = clocks.get(resource) if clocks else None
    if released:
        _merge(_vc(owner), released)
    from repro.locks.manager import RequestState

    if (
        state is RequestState.GRANTED
        and isinstance(resource, tuple)
        and resource[0] == PAGE
    ):
        _discharge_pending_with_lock(det, owner, resource[1])


def _chain_grant(lm: Any, prev: Any) -> Any:
    def chained(request: Any) -> None:
        det = _ACTIVE
        if not _skip(det):
            _on_granted(det, lm, request.owner, request.resource, request.state)
        if prev is not None:
            prev(request)

    return chained


def _publish_release(lm: Any, owner: Any, resources: Any) -> None:
    """Release/downgrade edge: publish the owner's clock into each
    resource's release clock *before* the manager dispatches waiters, so
    a grant fired inside the original call already sees it."""
    clocks = _LOCK_CLOCKS.get(lm)
    if clocks is None:
        clocks = _LOCK_CLOCKS[lm] = {}
    vc = _vc(owner)
    for resource in resources:
        released = clocks.get(resource)
        if released is None:
            released = clocks[resource] = {}
        _merge(released, vc)
    vc[owner] += 1


def _patch_lock_manager() -> None:
    from repro.locks.manager import LockManager, RequestState

    def wrap_request(original: Any) -> Any:
        def wrapper(
            self: Any,
            owner: Any,
            resource: Any,
            mode: Any,
            *,
            instant: bool = False,
            on_grant: Any = None,
            on_deadlock: Any = None,
        ):
            det = _ACTIVE
            if _skip(det):
                return original(
                    self,
                    owner,
                    resource,
                    mode,
                    instant=instant,
                    on_grant=on_grant,
                    on_deadlock=on_deadlock,
                )
            request = original(
                self,
                owner,
                resource,
                mode,
                instant=instant,
                on_grant=_chain_grant(self, on_grant),
                on_deadlock=on_deadlock,
            )
            if request.state in (RequestState.GRANTED, RequestState.INSTANT_DONE):
                _on_granted(det, self, owner, resource, request.state)
            return request

        return wrapper

    def wrap_convert(original: Any) -> Any:
        def wrapper(
            self: Any,
            owner: Any,
            resource: Any,
            to_mode: Any,
            *,
            on_grant: Any = None,
            on_deadlock: Any = None,
        ):
            det = _ACTIVE
            if _skip(det):
                return original(
                    self,
                    owner,
                    resource,
                    to_mode,
                    on_grant=on_grant,
                    on_deadlock=on_deadlock,
                )
            request = original(
                self,
                owner,
                resource,
                to_mode,
                on_grant=_chain_grant(self, on_grant),
                on_deadlock=on_deadlock,
            )
            if request.state is RequestState.GRANTED:
                _on_granted(det, self, owner, resource, request.state)
            return request

        return wrapper

    def wrap_release(original: Any) -> Any:
        def wrapper(self: Any, owner: Any, resource: Any, mode: Any) -> None:
            det = _ACTIVE
            if not _skip(det):
                _publish_release(self, owner, (resource,))
            original(self, owner, resource, mode)

        return wrapper

    def wrap_downgrade(original: Any) -> Any:
        def wrapper(
            self: Any, owner: Any, resource: Any, from_mode: Any, to_mode: Any
        ) -> None:
            det = _ACTIVE
            if not _skip(det):
                _publish_release(self, owner, (resource,))
            original(self, owner, resource, from_mode, to_mode)

        return wrapper

    def wrap_release_all(original: Any) -> Any:
        def wrapper(self: Any, owner: Any) -> None:
            det = _ACTIVE
            if not _skip(det):
                owned = list(self._owned.get(owner, ()))
                if owned:
                    _publish_release(self, owner, owned)
            original(self, owner)
            if not _skip(det):
                _finalize_pending(det, owner)
                windows = _WINDOWS.get(owner)
                if windows:
                    windows.clear()

        return wrapper

    _patch(LockManager, "request", wrap_request)
    _patch(LockManager, "convert", wrap_convert)
    _patch(LockManager, "release", wrap_release)
    _patch(LockManager, "downgrade", wrap_downgrade)
    _patch(LockManager, "release_all", wrap_release_all)


# -- buffer-pool patches (the page-frame funnel) ------------------------------


def _patch_buffer_pool() -> None:
    from repro.locks.resources import page_lock
    from repro.storage.buffer import BufferPool

    def wrap_fetch(original: Any) -> Any:
        def wrapper(self: Any, page_id: Any, *, pin: bool = False) -> Any:
            page = original(self, page_id, pin=pin)
            det = _ACTIVE
            if _skip(det) or _RCTX.owner is None or _RCTX.lock_manager is None:
                return page
            owner = _RCTX.owner
            rprot, _ = _protective(_RCTX.lock_manager, owner)
            if page_lock(page_id) in rprot:
                _record_read(
                    det, self, page_id, owner, rprot=rprot, validated=False
                )
            else:
                # No lock on this page: the read is pending until it is
                # validated, lock-coupled, or the transaction ends.
                det.checks["pending-read"] += 1
                vc = _vc(owner)
                pend = _PENDING.get(owner)
                if pend is None:
                    pend = _PENDING[owner] = {}
                if page_id not in pend:
                    # A re-fetch keeps the original pending: it carries
                    # the earliest snapshot and any conflict notes already
                    # attached by intervening writers.
                    pend[page_id] = _PendingRead(
                        self, vc[owner], _site(), dict(vc), rprot
                    )
            return page

        return wrapper

    def wrap_mark_dirty(original: Any) -> Any:
        def wrapper(self: Any, page_id: Any, lsn: Any = None) -> None:
            original(self, page_id, lsn)
            det = _ACTIVE
            if not _skip(det) and _RCTX.owner is not None:
                _record_write(det, self, page_id, _RCTX.owner)

        return wrapper

    def wrap_put_new(original: Any) -> Any:
        def wrapper(self: Any, page: Any, *, pin: bool = False) -> Any:
            result = original(self, page, pin=pin)
            det = _ACTIVE
            if not _skip(det):
                # Allocation starts a new object lifetime: a recycled
                # page id must not inherit the previous tenant's history.
                states = _PAGE_STATES.get(self)
                if states is not None:
                    states.pop(page.page_id, None)
                if _RCTX.owner is not None:
                    _record_write(det, self, page.page_id, _RCTX.owner)
            return result

        return wrapper

    def wrap_drop(original: Any) -> Any:
        def wrapper(self: Any, page_id: Any) -> None:
            det = _ACTIVE
            if not _skip(det) and _RCTX.owner is not None:
                # Dropping a page mutates it as far as readers are
                # concerned (the stamp bumps, the frame dies).
                _record_write(det, self, page_id, _RCTX.owner)
            original(self, page_id)
            if not _skip(det):
                states = _PAGE_STATES.get(self)
                if states is not None:
                    states.pop(page_id, None)

        return wrapper

    def wrap_crash(original: Any) -> Any:
        def wrapper(self: Any) -> None:
            original(self)
            states = _PAGE_STATES.get(self)
            if states is not None:
                states.clear()

        return wrapper

    _patch(BufferPool, "fetch", wrap_fetch)
    _patch(BufferPool, "mark_dirty", wrap_mark_dirty)
    _patch(BufferPool, "put_new", wrap_put_new)
    _patch(BufferPool, "drop", wrap_drop)
    _patch(BufferPool, "crash", wrap_crash)


# -- WAL patches ---------------------------------------------------------------


def _patch_wal() -> None:
    from repro.wal.log import LogManager
    from repro.wal.records import TreeSwitchRecord

    def wrap_append(original: Any) -> Any:
        def wrapper(self: Any, record: Any) -> int:
            lsn = original(self, record)
            det = _ACTIVE
            if (
                not _skip(det)
                and _RCTX.owner is not None
                and isinstance(record, TreeSwitchRecord)
            ):
                _handoff(det, _RCTX.owner)
            return lsn

        return wrapper

    def wrap_flush(original: Any) -> Any:
        def wrapper(self: Any, up_to_lsn: Any = None) -> None:
            original(self, up_to_lsn)
            det = _ACTIVE
            if not _skip(det) and _RCTX.owner is not None:
                # Flushes of one log are serialized by the device:
                # flusher<->flusher edges.  Appends deliberately publish
                # nothing — a reorganizer's stable-point flush must not
                # absorb a concurrent updater's append clock and order
                # away its unlocked writes.
                det.checks["hb-flush"] += 1
                owner = _RCTX.owner
                clock = _WAL_CLOCKS.get(self)
                if clock is None:
                    clock = _WAL_CLOCKS[self] = {}
                vc = _vc(owner)
                _merge(vc, clock)
                _merge(clock, vc)
                vc[owner] += 1

        return wrapper

    _patch(LogManager, "append", wrap_append)
    _patch(LogManager, "flush", wrap_flush)


# -- store patches (optimistic window hook) -----------------------------------


def _patch_stores() -> None:
    from repro.shard.store import ShardStore
    from repro.storage.store import StorageManager

    def wrap_init(original: Any) -> Any:
        def wrapper(self: Any, *args: Any, **kw: Any) -> None:
            original(self, *args, **kw)
            _wrap_version_of(self)

        return wrapper

    _patch(StorageManager, "__init__", wrap_init)
    _patch(ShardStore, "__init__", wrap_init)


# -- install / uninstall -------------------------------------------------------


def install(*, strict: bool = False) -> RaceDetector:
    """Install the race detector (idempotent); returns the active
    instance.  Install *before* constructing the database so the
    instance-bound ``version_of`` shortcut gets the optimistic-window
    hook; when combining with the sanitizer, install it after and remove
    it first (LIFO), or the class patches unwind to the wrong originals.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    _ACTIVE = RaceDetector(strict=strict)
    _patch_scheduler()
    _patch_lock_manager()
    _patch_buffer_pool()
    _patch_wal()
    _patch_stores()
    return _ACTIVE


def uninstall() -> RaceDetector | None:
    """Remove every patch; returns the detector that was active (reports
    intact), or None."""
    global _ACTIVE
    det = _ACTIVE
    if det is None:
        return None
    for (cls, attr), original in _ORIGINALS.items():
        setattr(cls, attr, original)
    _ORIGINALS.clear()
    for table in (
        _VCS,
        _LOCK_CLOCKS,
        _WAL_CLOCKS,
        _FINISH_CLOCKS,
        _SPAWN_JOIN,
        _PAGE_STATES,
        _WINDOWS,
        _PENDING,
    ):
        table.clear()
    _RCTX.clear()
    _ACTIVE = None
    return det


# -- explorer hook -------------------------------------------------------------


class RaceExplorer:
    """Race-check every schedule a reprocheck exploration visits.

    Wraps :class:`repro.analysis.explorer.Explorer` by overriding
    ``execute`` — ``explore``/``replay`` call through it, so every
    schedule runs under the detector and a race surfaces as a
    ``data-race`` violation with the schedule's replay trace attached.
    The detector is installed before the world is built (the recorder
    and the version_of shortcut must capture patched methods) and only
    uninstalled if this explorer installed it.
    """

    def __init__(self, **kw: Any) -> None:
        from repro.analysis.explorer import Explorer

        self._explorer = Explorer(**kw)
        self.last_reports: list[RaceReport] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._explorer, name)

    def explore(self, scenario: Any, **kw: Any) -> Any:
        return self._detected(lambda: self._explorer.explore(scenario, **kw))

    def replay(self, scenario: Any, trace: Any) -> Any:
        return self._detected(lambda: self._explorer.replay(scenario, trace))

    def _detected(self, call: Callable[[], Any]) -> Any:
        """Run ``call`` with the inner explorer's ``execute`` rerouted
        through the detector (explore and replay both call it)."""
        inner_execute = self._explorer.execute
        self._explorer.execute = functools.partial(
            self._raced_execute, inner_execute
        )
        try:
            return call()
        finally:
            self._explorer.execute = inner_execute

    def execute(self, scenario: Any, script: Any = (), **kw: Any) -> Any:
        return self._raced_execute(
            self._explorer.execute, scenario, script, **kw
        )

    def _raced_execute(
        self, inner: Any, scenario: Any, script: Any = (), **kw: Any
    ) -> Any:
        from repro.analysis.explorer import Violation

        det = active()
        owned = det is None
        if owned:
            det = install(strict=False)
        mark = len(det.reports)
        try:
            run = inner(scenario, script, **kw)
        finally:
            fresh = det.reports[mark:]
            if owned:
                uninstall()
        self.last_reports = fresh
        if run.violation is None and fresh:
            run.violation = Violation(
                invariant="data-race",
                message="; ".join(r.summary() for r in fresh[:3])
                + (f" (+{len(fresh) - 3} more)" if len(fresh) > 3 else ""),
                trace=run.trace,
                scenario=scenario.name,
            )
        return run
