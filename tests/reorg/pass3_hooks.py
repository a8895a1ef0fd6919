"""Test-side instruments for pass 3.

Updater activity is injected into a synchronous pass 3 where the paper's
updaters meet it: after the scan gives up the S lock on a base page, and
after a catch-up round applied the side file.  The hooks ride on the ops
of the one pass-3 generator (:meth:`repro.reorg.protocols.ReorgProtocol.
pass3`); the library takes no hook parameter.  A page-read spy tells which
kinds of pages one step fetches.
"""

from dataclasses import fields

from repro.locks.modes import LockMode
from repro.reorg.shrink import TreeShrinker
from repro.reorg.switch import SwitchStats
from repro.txn.ops import Call, Release
from repro.txn.scheduler import run_alone


def with_hooks(gen, shrinker, *, during_scan=None, during_catchup=None):
    """Pass ``gen``'s ops through unchanged.  ``during_scan(shrinker)`` runs
    after each base page's S ``Release``; ``during_catchup(shrinker)``
    after each ``apply_side_file_once`` ``Call``, before ``gen`` resumes."""
    value = None
    try:
        while True:
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield op
            if during_scan and type(op) is Release and op.mode is LockMode.S:
                during_scan(shrinker)
            elif (
                during_catchup
                and type(op) is Call
                and op.fn == shrinker.apply_side_file_once
            ):
                during_catchup(shrinker)
    finally:
        gen.close()


def run_pass3(reorg, **hooks):
    """``reorg.run_pass3()`` with ``during_scan`` / ``during_catchup`` hooks;
    returns the same (Pass3Stats, SwitchStats)."""
    shrinker = TreeShrinker(reorg.db, reorg.tree, reorg.config)
    counts = run_alone(with_hooks(reorg.protocol.pass3(shrinker), shrinker, **hooks))
    switch = SwitchStats(**{f.name: counts[f.name] for f in fields(SwitchStats)})
    return shrinker.stats, switch


def kinds_read_during(monkeypatch, db, cls, name):
    """The kinds of the pages ``db.store.get`` returns while ``cls.name``
    runs, in read order; filled in as the test goes on."""
    kinds, active = [], []
    get, method = db.store.get, getattr(cls, name)

    def spy_get(page_id):
        page = get(page_id)
        if active:
            kinds.append(page.kind)
        return page

    def spied(self, *args, **kwargs):
        active.append(name)
        try:
            return method(self, *args, **kwargs)
        finally:
            active.pop()

    monkeypatch.setattr(db.store, "get", spy_get)
    monkeypatch.setattr(cls, name, spied)
    return kinds
