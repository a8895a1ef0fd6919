"""The traced benchmark run wraps library methods by name.

``bench/trace.py`` installs its wrappers with ``cls.__dict__[name]`` and a
library PR may not edit ``bench/``, so a method renamed or moved to a base
class kills ``python3 -m pytest bench/`` (CI job ``bench``) with a KeyError.
This says so in the tier-1 suite instead.
"""

import pytest

trace = pytest.importorskip("bench.trace")


def test_every_traced_method_is_defined_on_its_class():
    missing = [
        f"{cls.__name__}.{name}"
        for cls, name, _layer, _kind, _coarse in trace._targets()
        if name not in cls.__dict__
    ]
    assert not missing, (
        f"bench/trace.py::_targets() wraps {missing}, which the class no longer "
        "defines itself: keep the name (an alias will do) until a benchmark PR "
        "drops it from _targets()"
    )


def test_unit_completions_are_traced_unit_engine_methods():
    from repro.reorg.unit import UnitEngine

    traced = {name for cls, name, *_ in trace._targets() if cls is UnitEngine}
    assert set(trace.UNIT_COMPLETIONS) <= traced, (
        "bench/trace.py::UNIT_COMPLETIONS counts unit.calls from methods "
        "_targets() does not wrap on UnitEngine"
    )
