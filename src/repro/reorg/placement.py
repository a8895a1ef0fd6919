"""Class names ``bench/trace.py::_targets()`` still imports (ROADMAP item 4(b)).

Passes 2 and 3 place pages in the paper's key order themselves
(:mod:`repro.reorg.swap`, :mod:`repro.reorg.shrink`).  Nothing in the
library uses these names; the module leaves with the next change to
``bench/trace.py::_targets()``.
"""


# ROADMAP item 4(b): the tracer looks these four up and wraps none of them.
class PlacementPolicy:
    pass


class KeyOrderPolicy:
    pass


class VebPolicy:
    pass


class NoPlacementPolicy:
    pass


class Pass3Plan:
    # ROADMAP item 4(b): the tracer wraps this name; nothing calls it.
    def resolve(self) -> None:
        pass
