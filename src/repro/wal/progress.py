"""The reorganization progress table (paper section 5).

"We keep an in-memory table to record the minimum LSN of the current
reorganization unit. ... We keep the most recent LSN of the unit.  We also
record the largest key (LK) of the last finished reorganization unit
processed. ... It will be copied to the log checkpoint record."

With the paper's single reorganization process the table holds one, two, or
three live values:

* only **LK** — the last unit finished and a new one has not started;
* LK and **begin LSN** — a unit just wrote its BEGIN record;
* LK, begin LSN and **recent LSN** — the unit has logged further work.

``recent_lsn`` supplies the ``prev_lsn`` field of the unit's next log record,
and together with the transaction low-water mark it bounds the log prefix
recovery must keep (section 5).

**Parallel-reorganization extension** (the paper's future work, section 9):
the table naturally generalizes to one `(begin LSN, recent LSN)` row per
in-flight unit — "whenever a new reorganization unit starts, it puts the
LSN of its BEGIN log record into this table" already reads that way.  The
single-unit API (``begin_lsn`` / ``recent_lsn`` / ``unit_logged``) keeps
working when at most one unit is in flight, which is the paper's base
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReorgError

#: LK value meaning "no unit has finished yet": below every real key.
NO_KEY_YET = -(2**62)


@dataclass
class ProgressSnapshot:
    """Immutable copy of the table, as stored in a checkpoint record."""

    largest_finished_key: int
    begin_lsn: int  # min over in-flight units; 0 when none
    recent_lsn: int  # of the single unit; 0 when none or ambiguous
    #: Parallel extension: every in-flight unit as (unit_id, begin, recent).
    units: tuple[tuple[int, int, int], ...] = ()


class ReorgProgressTable:
    """The tiny system table tracking reorganization progress."""

    def __init__(self):
        self._largest_finished_key: int = NO_KEY_YET
        #: unit_id -> [begin_lsn, recent_lsn]
        self._units: dict[int, list[int]] = {}

    # -- queries ------------------------------------------------------------

    @property
    def largest_finished_key(self) -> int:
        """LK: where to restart reorganization after a failure."""
        return self._largest_finished_key

    @property
    def unit_in_flight(self) -> bool:
        return bool(self._units)

    @property
    def units_in_flight(self) -> list[int]:
        return sorted(self._units)

    @property
    def begin_lsn(self) -> int:
        """BEGIN LSN of the single in-flight unit (0 when none).

        With several units in flight (parallel extension) this is the
        minimum — the low-water bound recovery needs.
        """
        if not self._units:
            return 0
        return min(begin for begin, _ in self._units.values())

    @property
    def recent_lsn(self) -> int:
        """LSN to use as prev_lsn for the single unit's next log record."""
        if not self._units:
            return 0
        if len(self._units) > 1:
            raise ReorgError(
                "recent_lsn is ambiguous with several units in flight; "
                "use recent_lsn_of(unit_id)"
            )
        (_, recent), = self._units.values()
        return recent

    def recent_lsn_of(self, unit_id: int) -> int:
        try:
            return self._units[unit_id][1]
        except KeyError:
            raise ReorgError(f"unit {unit_id} is not in flight") from None

    @property
    def unit_id(self) -> int:
        if len(self._units) != 1:
            return 0
        return next(iter(self._units))

    def low_water_lsn(self, txn_low_water: int) -> int:
        """Lowest LSN that must stay available for recovery.

        The minimum of every in-flight unit's BEGIN LSN and the transaction
        low-water mark ([GR93]), per section 5.
        """
        if self.unit_in_flight:
            return min(self.begin_lsn, txn_low_water)
        return txn_low_water

    def snapshot(self) -> ProgressSnapshot:
        units = tuple(
            (unit_id, begin, recent)
            for unit_id, (begin, recent) in sorted(self._units.items())
        )
        single_recent = (
            units[0][2] if len(units) == 1 else 0
        )
        return ProgressSnapshot(
            self._largest_finished_key,
            self.begin_lsn,
            single_recent,
            units,
        )

    # -- lifecycle ------------------------------------------------------------

    def unit_started(self, unit_id: int, begin_lsn: int) -> None:
        """A unit wrote its BEGIN record."""
        if unit_id in self._units:
            raise ReorgError(f"unit {unit_id} is already in flight")
        if begin_lsn <= 0:
            raise ReorgError("begin LSN must be positive")
        self._units[unit_id] = [begin_lsn, begin_lsn]

    def unit_logged(self, lsn: int, unit_id: int | None = None) -> None:
        """An in-flight unit wrote another record."""
        if not self._units:
            raise ReorgError("no unit in flight")
        if unit_id is None:
            if len(self._units) > 1:
                raise ReorgError(
                    "unit_id required with several units in flight"
                )
            unit_id = next(iter(self._units))
        entry = self._units.get(unit_id)
        if entry is None:
            raise ReorgError(f"unit {unit_id} is not in flight")
        if lsn <= entry[1]:
            raise ReorgError(f"LSN {lsn} does not advance past {entry[1]}")
        entry[1] = lsn

    def unit_finished(self, largest_key: int, unit_id: int | None = None) -> None:
        """The unit wrote END: deletes its entry and advances LK."""
        unit_id = self._resolve(unit_id)
        del self._units[unit_id]
        self._largest_finished_key = max(self._largest_finished_key, largest_key)

    def unit_aborted(self, unit_id: int | None = None) -> None:
        """The unit was undone (deadlock victim); LK does not advance."""
        unit_id = self._resolve(unit_id)
        del self._units[unit_id]

    def _resolve(self, unit_id: int | None) -> int:
        if not self._units:
            raise ReorgError("no unit in flight")
        if unit_id is None:
            if len(self._units) > 1:
                raise ReorgError("unit_id required with several units in flight")
            return next(iter(self._units))
        if unit_id not in self._units:
            raise ReorgError(f"unit {unit_id} is not in flight")
        return unit_id

    # -- crash recovery ---------------------------------------------------------

    def restore(self, snapshot: ProgressSnapshot) -> None:
        """Reload the table from a checkpoint record."""
        self._largest_finished_key = snapshot.largest_finished_key
        self._units = {
            unit_id: [begin, recent] for unit_id, begin, recent in snapshot.units
        }

    def crash(self) -> None:
        """The table is volatile: a crash clears it (recovery restores it)."""
        self._largest_finished_key = NO_KEY_YET
        self._units = {}
