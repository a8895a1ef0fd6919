"""Seeded-bug acceptance tests for reproflow (issue 8).

Three deliberately planted defects — an exception-path pin leak, a lock
acquired in a helper that escapes without release, and a lock-order
inversion — must each be caught in a *single* ``analyze_files`` run, with
an interprocedural call-path witness naming the root, the hop and the
site.  Clean control fixtures with the same shapes (but correct
``try/finally`` or pairing) must produce zero findings, so the analyses
discriminate rather than pattern-match.
"""

import ast

from repro.analysis.flowgraph import analyze_files

PIN_LEAK = '''\
def acquire(buf, pid):
    buf.pin(pid)


def work(pid):
    raise ValueError(pid)


def entry(buf, pid):
    acquire(buf, pid)
    work(pid)
    buf.unpin(pid)
'''

PIN_CLEAN = '''\
def acquire(buf, pid):
    buf.pin(pid)


def work(pid):
    raise ValueError(pid)


def entry(buf, pid):
    acquire(buf, pid)
    try:
        work(pid)
    finally:
        buf.unpin(pid)
'''

LOCK_ESCAPE = '''\
def grab(lm, owner, key):
    lm.request(owner, tree_lock(key), X)


def entry(lm, owner):
    grab(lm, owner, "t")
    compute()
'''

LOCK_CLEAN = '''\
def grab(lm, owner, key):
    lm.request(owner, tree_lock(key), X)


def entry(lm, owner):
    grab(lm, owner, "t")
    compute()
    lm.release_all(owner)
'''

LOCK_ORDER = '''\
def forward(lm, o):
    lm.request(o, tree_lock("a"), X)
    lm.request(o, tree_lock("b"), X)
    lm.release_all(o)


def backward(lm, o):
    lm.request(o, tree_lock("b"), X)
    lm.request(o, tree_lock("a"), X)
    lm.release_all(o)
'''

ORDER_CLEAN = '''\
def forward(lm, o):
    lm.request(o, tree_lock("a"), X)
    lm.request(o, tree_lock("b"), X)
    lm.release_all(o)


def also_forward(lm, o):
    lm.request(o, tree_lock("a"), X)
    lm.request(o, tree_lock("b"), X)
    lm.release_all(o)
'''

OVERRIDE_BASE = '''\
class Base:
    def run(self, lm, owner):
        self.step(lm, owner)
        lm.release_all(owner)

    def leaky_run(self, lm, owner):
        self.step(lm, owner)

    def step(self, lm, owner):
        compute()
'''

OVERRIDE_SUB = '''\
class Worker(Base):
    def step(self, lm, owner):
        lm.request(owner, tree_lock("t"), X)
'''


def _analyze(sources):
    files = [(rel, ast.parse(src)) for rel, src in sources.items()]
    return analyze_files(files)


def _one_run():
    """All seeded bugs and all clean controls through one analyze_files."""
    return _analyze({
        "fix/pin_leak.py": PIN_LEAK,
        "fix/pin_clean.py": PIN_CLEAN,
        "fix/lock_escape.py": LOCK_ESCAPE,
        "fix/lock_clean.py": LOCK_CLEAN,
        "fix/lock_order.py": LOCK_ORDER,
        "fix/order_clean.py": ORDER_CLEAN,
    })


def test_exception_path_pin_leak_caught_with_witness():
    report = _one_run()
    hits = [
        f for f in report.findings
        if f.analysis == "pin-balance" and f.path == "fix/pin_leak.py"
    ]
    assert len(hits) == 1, [str(f) for f in report.findings]
    (finding,) = hits
    assert finding.line == 2  # the buf.pin(pid) site inside acquire()
    assert "exception" in finding.message
    witness = "\n".join(finding.witness)
    # Interprocedural: the witness walks root -> hop -> site.
    assert "entry()" in witness
    assert "acquire()" in witness
    assert "fix/pin_leak.py:2" in witness


def test_lock_escape_through_helper_caught_with_witness():
    report = _one_run()
    hits = [
        f for f in report.findings
        if f.analysis == "lock-pairing" and f.path == "fix/lock_escape.py"
    ]
    assert len(hits) == 1, [str(f) for f in report.findings]
    (finding,) = hits
    assert finding.line == 2  # the lm.request(...) site inside grab()
    witness = "\n".join(finding.witness)
    assert "entry()" in witness
    assert "grab()" in witness
    assert "fix/lock_escape.py:2" in witness


def test_lock_order_inversion_caught_with_both_edges():
    report = _one_run()
    hits = [
        f for f in report.findings
        if f.analysis == "lock-order" and f.path == "fix/lock_order.py"
    ]
    assert hits, [str(f) for f in report.findings]
    finding = hits[0]
    witness = "\n".join(finding.witness)
    # Both inverted acquisition orders appear in the cycle witness.
    assert "tree_lock('a')" in witness
    assert "tree_lock('b')" in witness
    assert "forward" in witness
    assert "backward" in witness


def test_clean_controls_report_nothing():
    report = _analyze({
        "fix/pin_clean.py": PIN_CLEAN,
        "fix/lock_clean.py": LOCK_CLEAN,
        "fix/order_clean.py": ORDER_CLEAN,
    })
    assert report.findings == [], [str(f) for f in report.findings]


def test_clean_controls_stay_clean_alongside_seeded_bugs():
    # The control files must stay silent even in the combined run: no
    # finding may point into a *_clean.py fixture.
    report = _one_run()
    noise = [f for f in report.findings if "clean" in f.path]
    assert noise == [], [str(f) for f in noise]


def test_self_call_reaches_subclass_override():
    # Base.run() releases what Worker.step() acquired: the override is
    # reached through ``self.step()``, so it is not a root of its own and
    # only the run that never releases is reported.
    report = _analyze({
        "fix/override_base.py": OVERRIDE_BASE,
        "fix/override_sub.py": OVERRIDE_SUB,
    })
    assert len(report.findings) == 1, [str(f) for f in report.findings]
    (finding,) = report.findings
    assert finding.analysis == "lock-pairing"
    assert (finding.path, finding.line) == ("fix/override_sub.py", 3)
    assert "leaky_run()" in finding.message


SET_ESCAPE = '''\
def lock_unit(leaves):
    yield AcquireSet(leaves, RX)
    yield AcquireSet(lambda: neighbours(leaves), X)
    yield ReleaseSet(leaves, RX)


def neighbours(leaves):
    return []
'''

SET_CLEAN = '''\
def lock_unit(leaves):
    yield AcquireSet(leaves, RX)
    found = yield AcquireSet(lambda: neighbours(leaves), X)
    yield ReleaseSet(leaves, RX)
    yield ReleaseSet(found, X)


def neighbours(leaves):
    return []
'''


def test_lock_set_acquired_and_never_released_is_caught():
    # A set op is one lock on page_lock(<its pages>); a lazy set's pages
    # are its callable's body.  The RX set is released, the X set is not.
    report = _analyze({"fix/set_escape.py": SET_ESCAPE})
    assert len(report.findings) == 1, [str(f) for f in report.findings]
    (finding,) = report.findings
    assert finding.analysis == "lock-pairing"
    assert (finding.path, finding.line) == ("fix/set_escape.py", 3)
    assert "X lock on page_lock(neighbours(leaves))" in finding.message
    assert _analyze({"fix/set_clean.py": SET_CLEAN}).findings == []
