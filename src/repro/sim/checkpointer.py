"""A background checkpointer process for the discrete-event scheduler.

Takes sharp checkpoints at a fixed simulated-time cadence while the
workload and the reorganizer run.  Checkpoints capture the paper's system
state — the reorg progress table (section 5), the pass-3 stable key, side
file and reorganization bit (sections 7.2-7.3) — so a crash at any moment
bounds redo to the last checkpoint interval.  Each checkpoint also cuts
the log below the section 5 low-water mark, which is how a long run
bounds the log it keeps.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.db import Database
from repro.txn.ops import Call, Think


def checkpointer(
    db: Database,
    *,
    interval: float,
    rounds: int | None = None,
) -> Generator[Any, Any, int]:
    """Checkpoint every ``interval`` simulated time units.

    Runs for ``rounds`` checkpoints (None = until the simulation drains it
    by having nothing else scheduled — give it a finite count in tests).
    Returns the number of checkpoints taken.
    """
    taken = 0
    while rounds is None or taken < rounds:
        yield Think(interval)
        yield Call(db.checkpoint)
        taken += 1
    return taken
