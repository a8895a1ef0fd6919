"""reprorace: race-check reprocheck scenarios on every explored schedule.

The detector itself lives in the library (:mod:`repro.analysis.racedetect`)
so ``REPRO_RACE=1`` test runs can use
it without the tools path; this package is the command-line front end.
"""

from reprorace.cli import main

__all__ = ["main"]
