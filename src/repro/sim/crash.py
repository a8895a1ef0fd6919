"""Crash injection: fail the system at a chosen point and recover it.

The harness provides deterministic crash windows for the recovery
experiments (E3) and the forward-recovery tests:

* :class:`LogCrashInjector` — raise :class:`~repro.errors.CrashPoint` after
  the N-th log append, optionally flushing the log on every append so the
  whole pre-crash prefix is stable (the interesting regime for forward
  recovery: maximum observable progress, crash at an arbitrary boundary).
* :func:`crash_recover` — the standard sequence: drop volatile state,
  run redo + undo, return the report.
* :func:`run_reorg_with_crash` — run a reorganization until the injector
  fires, then crash, recover, and forward-recover; returns a
  :class:`CrashRunResult` describing how much work survived.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ReorgConfig
from repro.db import Database
from repro.errors import CrashPoint
from repro.reorg.reorganizer import Reorganizer, ReorgReport
from repro.wal.log import LogManager
from repro.wal.records import LogRecord
from repro.wal.recovery import RecoveryReport


class LogCrashInjector:
    """Context manager that crashes after a fixed number of log appends."""

    def __init__(
        self,
        log: LogManager,
        *,
        after_records: int,
        flush_each: bool = True,
        label: str = "injected",
    ):
        self.log = log
        self.after_records = after_records
        self.flush_each = flush_each
        self.label = label
        self.appends_seen = 0
        self.fired = False
        self._original_append = None

    def __enter__(self) -> "LogCrashInjector":
        self._original_append = self.log.append

        def crashing_append(record: LogRecord) -> int:
            lsn = self._original_append(record)
            if self.flush_each:
                self.log.flush()
            self.appends_seen += 1
            if self.appends_seen >= self.after_records and not self.fired:
                self.fired = True
                raise CrashPoint(self.label)
            return lsn

        self.log.append = crashing_append  # type: ignore[method-assign]
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.log.append = self._original_append  # type: ignore[method-assign]


def crash_recover(db: Database, *, undo: bool = True) -> RecoveryReport:
    """Crash the database and run standard recovery."""
    db.crash()
    return db.recover(undo=undo)


@dataclass
class CrashRunResult:
    """What happened across one crash-interrupted reorganization."""

    crashed: bool
    appends_before_crash: int
    recovery: RecoveryReport | None
    forward: ReorgReport | None
    #: Reorg units completed before the crash (END records in the log).
    units_completed_before: int
    #: Units completed in total after forward recovery resumed/finished.
    units_completed_after: int


def count_completed_units(log: LogManager) -> int:
    """Reorganization units ended so far: END records appended, which a
    checkpoint's truncation does not erase (the records themselves it may).
    An END lost with a crash's unflushed tail still counts; the injector
    here flushes every append, so none is."""
    return log.stats.units_ended


def run_reorg_with_crash(
    db: Database,
    tree_name: str,
    config: ReorgConfig,
    *,
    crash_after_records: int,
    resume: bool = True,
) -> CrashRunResult:
    """Run a full reorganization, crash it mid-flight, recover forward.

    ``crash_after_records`` counts log appends from the start of the
    reorganization.  If the reorganization finishes before the injector
    fires, the result reports ``crashed=False``.
    """
    tree = db.tree(tree_name)
    reorg = Reorganizer(db, tree, config)
    injector = LogCrashInjector(db.log, after_records=crash_after_records)
    crashed = False
    try:
        with injector:
            reorg.run()
    except CrashPoint:
        crashed = True
    if not crashed:
        return CrashRunResult(
            crashed=False,
            appends_before_crash=injector.appends_seen,
            recovery=None,
            forward=None,
            units_completed_before=count_completed_units(db.log),
            units_completed_after=count_completed_units(db.log),
        )
    before_units = count_completed_units(db.log)
    recovery = crash_recover(db)
    forward = None
    if resume:
        tree = db.tree(tree_name)
        reorg = Reorganizer(db, tree, config)
        forward = reorg.forward_recover(recovery)
        if forward.switch is None:
            # The crash hit pass 1/2: the interrupted unit is finished;
            # now complete the remaining reorganization from LK onwards.
            reorg.run()
    return CrashRunResult(
        crashed=True,
        appends_before_crash=injector.appends_seen,
        recovery=recovery,
        forward=forward,
        units_completed_before=before_units,
        units_completed_after=count_completed_units(db.log),
    )
