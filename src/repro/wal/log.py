"""The log manager: append, flush, crash, and scan.

A standard WAL split into a *stable prefix* (survives crashes) and a
*volatile tail* (lost on crash).  ``append`` assigns monotonically increasing
LSNs starting at 1; ``flush`` advances the stable boundary; ``crash``
drops the tail.  The buffer pool calls :meth:`LogManager.flush` before
page writes (write-ahead rule) via the :class:`repro.storage.buffer.WALHook`
protocol.

The log keeps the records from a *base* LSN on (:attr:`LogManager.first_lsn`)
in one list, so LSN ``n`` sits at index ``n - first_lsn``.
:meth:`LogManager.truncate` reclaims the prefix below the section 5
low-water mark, which :meth:`repro.db.Database.checkpoint` computes, by
deleting it and advancing the base; reading an LSN below the base raises
:class:`~repro.errors.LogCorruptionError`.

Byte accounting feeds benchmark E4: every append adds the record's simulated
size (see :meth:`repro.wal.records.LogRecord.log_bytes`) to per-category
totals, so the careful-writing vs. full-contents comparison can be read
straight off :attr:`LogStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import LogCorruptionError, LogError
from repro.metrics import StatsDeltaMixin
from repro.wal.records import (
    CheckpointRecord,
    LogRecord,
    ReorgEndRecord,
    ReorgMoveInRecord,
    ReorgMoveOutRecord,
    ReorgRecord,
    ReorgSwapRecord,
)


@dataclass
class LogStats(StatsDeltaMixin):
    """Byte and record counters, by category.

    ``flushes`` counts stable-boundary advances (device flushes).
    ``absorbed_flushes`` always reads 0: it counted the flush requests a
    group-commit window absorbed, and that window is gone.  The bench
    report still reads it; drop it with the next benchmark change.
    ``records_truncated`` counts records reclaimed below the low-water
    mark, and ``units_ended`` the reorganization units' END records
    appended: both survive truncation, which erases the records themselves.
    """

    records_appended: int = 0
    bytes_appended: int = 0
    reorg_records: int = 0
    reorg_bytes: int = 0
    move_bytes: int = 0
    swap_bytes: int = 0
    flushes: int = 0
    absorbed_flushes: int = 0
    records_truncated: int = 0
    units_ended: int = 0


class LogManager:
    """Append-only simulated write-ahead log."""

    def __init__(self) -> None:
        #: The kept records; ``_records[i]`` has LSN ``_base + i``.
        self._records: list[LogRecord] = []
        self._base: int = 1
        self._flushed_upto: int = 0  # LSN of last stable record
        self._last_checkpoint_lsn: int = 0
        self.stats = LogStats()

    # -- append/flush -------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._base + len(self._records)

    @property
    def last_lsn(self) -> int:
        return self._base + len(self._records) - 1

    @property
    def first_lsn(self) -> int:
        """The lowest LSN still kept (``next_lsn`` when nothing is):
        ``last_lsn - first_lsn + 1`` records are held."""
        return self._base

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_upto

    @property
    def last_checkpoint_lsn(self) -> int:
        return self._last_checkpoint_lsn

    def append(self, record: LogRecord) -> int:
        """Assign the next LSN to ``record`` and append it (volatile)."""
        record.lsn = lsn = self._base + len(self._records)
        self._records.append(record)
        size = record.log_bytes()
        stats = self.stats
        stats.records_appended += 1
        stats.bytes_appended += size
        if record.is_reorg:
            stats.reorg_records += 1
            stats.reorg_bytes += size
            record_type = type(record)
            if record_type is ReorgMoveInRecord or record_type is ReorgMoveOutRecord:
                stats.move_bytes += size
            elif record_type is ReorgSwapRecord:
                stats.swap_bytes += size
            elif record_type is ReorgEndRecord:
                stats.units_ended += 1
        elif type(record) is CheckpointRecord:
            self._last_checkpoint_lsn = lsn
        return lsn

    def flush(self, up_to_lsn: int | None = None) -> None:
        """Make records with LSN <= ``up_to_lsn`` stable (default: all)."""
        target = self.last_lsn if up_to_lsn is None else min(up_to_lsn, self.last_lsn)
        if target <= self._flushed_upto:
            return
        self._flushed_upto = target
        self.stats.flushes += 1

    # -- crash / recovery scan ------------------------------------------------

    def crash(self) -> None:
        """Drop the volatile tail; only flushed records survive."""
        del self._records[self._flushed_upto + 1 - self._base :]
        # A checkpoint that never reached the disk is gone too.
        if self._last_checkpoint_lsn > self._flushed_upto:
            self._last_checkpoint_lsn = self._find_last_checkpoint()

    def _find_last_checkpoint(self) -> int:
        for record in reversed(self._records):
            if isinstance(record, CheckpointRecord):
                return record.lsn
        return 0

    def truncate(self, before_lsn: int) -> int:
        """Discard the stable records with LSN < ``before_lsn`` (log
        reclamation); :meth:`repro.db.Database.checkpoint` is the caller.

        Section 5: the reorg progress table's BEGIN LSN, "together with the
        transaction low-water mark [GR93], can be used to calculate the
        low-water mark for system recovery — i.e., the lowest LSN that must
        be kept available for recovery."  Truncating up to that mark is
        safe; truncating past it makes recovery fail loudly
        (:class:`~repro.errors.LogCorruptionError`) instead of silently.
        The volatile tail is never cut.

        One prefix ``del``: the cut records are released and the kept ones
        are not visited.  Returns the number of records discarded.
        """
        cut = min(before_lsn, self._flushed_upto + 1) - self._base
        if cut <= 0:
            return 0
        del self._records[:cut]
        self._base += cut
        self.stats.records_truncated += cut
        return cut

    def get(self, lsn: int) -> LogRecord:
        """Fetch one record by LSN."""
        index = lsn - self._base
        if not 0 <= index < len(self._records):
            if 1 <= lsn < self._base:
                raise LogCorruptionError(
                    f"LSN {lsn} was truncated away (below the low-water "
                    f"mark {self._base})"
                )
            raise LogError(f"LSN {lsn} out of range [1, {self.last_lsn}]")
        record = self._records[index]
        if record.lsn != lsn:
            raise LogError(f"log integrity failure at LSN {lsn}")
        return record

    def records_from(self, lsn: int) -> Iterator[LogRecord]:
        """Yield the kept records with LSN >= ``lsn`` in log order (from
        :attr:`first_lsn` when ``lsn`` is below it)."""
        yield from self._records[max(lsn - self._base, 0) :]

    def walk_chain(self, lsn: int) -> Iterator[LogRecord]:
        """Follow the prev_lsn chain backwards starting at ``lsn``."""
        cursor = lsn
        while cursor > 0:
            record = self.get(cursor)
            yield record
            cursor = record.prev_lsn

    def __len__(self) -> int:
        """LSNs assigned so far, truncated ones included."""
        return self.last_lsn
