"""Replay one minimized historical trace per invariant.

Each ``traces/*.trace`` file pins a schedule that once exposed (or was
minimized while hunting) a protocol bug.  Replaying it is deterministic and
cheap — one world build, one run — so these act as targeted regression
tests: the named invariant must hold along the exact interleaving.
"""

from pathlib import Path

import pytest

from tests.analysis.conftest import REPO_ROOT  # noqa: F401 (sys.path side effect)

from repro.analysis import invariants
from repro.analysis.explorer import Explorer

from reprocheck.scenarios import SCENARIOS

TRACES_DIR = Path(__file__).resolve().parent / "traces"


def load_trace(path: Path) -> dict:
    meta: dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        assert sep, f"{path.name}: malformed line {line!r}"
        meta.setdefault(key.strip(), value.strip())
    for required in ("scenario", "invariant", "trace"):
        assert required in meta, f"{path.name}: missing {required!r}"
    return meta


TRACE_FILES = sorted(TRACES_DIR.glob("*.trace"))


def _traces():
    """A trace with an ``xfail:`` line pins a known, still-open violation
    (reprocheck's KNOWN_VIOLATIONS): strict, so fixing it fails here."""
    for path in TRACE_FILES:
        reason = load_trace(path).get("xfail")
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        yield pytest.param(path, marks=marks, id=path.stem)


@pytest.mark.parametrize("path", _traces())
def test_historical_trace_replays_clean(path):
    meta = load_trace(path)
    scenario = SCENARIOS[meta["scenario"]]
    explorer = Explorer(invariants=[meta["invariant"]])
    outcome = explorer.replay(scenario, meta["trace"])
    assert outcome.violation is None, outcome.violation


def test_one_trace_per_invariant():
    covered = {
        meta["invariant"]
        for meta in map(load_trace, TRACE_FILES)
        if "xfail" not in meta
    }
    assert covered == set(invariants.REGISTRY)
