"""Interprocedural pin/lock typestate analysis (the ``reproflow`` core).

Where :mod:`reprolint` checks one function's AST at a time and the runtime
sanitizer / reprocheck / reprorace observe *executions*, this module checks
obligations that span function boundaries **statically**:

* **pin balance** — every ``BufferPool.fetch(..., pin=True)`` / ``pin()``
  must reach a matching ``unpin()`` on every path, including exception
  paths, even when the unpin lives in a callee or the pinned page is handed
  back to a caller.
* **lock pairing** — Table-1 lock manager traffic (``request`` / ``convert``
  / ``downgrade`` / ``release`` / ``release_all`` and the generator-protocol
  ops ``Acquire`` / ``Convert`` / ``Downgrade`` / ``Release`` / ``ReleaseAll``
  / ``AcquireSet`` / ``ReleaseSet``, a set being one lock) must balance per
  owner+mode by the time a call-graph root returns normally.  Exception
  escapes are deliberately *not* flagged: the scheduler's ``release_all``
  backstop covers them (section 5's victim policy), which is also why
  findings carry the acquire site, not the exit.
* **lock order** — held-while-acquiring edges (lock→lock and pin↔lock for
  careful-writing ordering) are collected across all interprocedural paths;
  cycles whose every edge is a *blocking* request under Table 1 are
  reported as potential deadlocks.  This complements the runtime waits-for
  detector in :mod:`repro.locks.manager`, which only sees cycles that
  actually form on explored schedules.

Design notes
------------

The analysis is a structural abstract interpretation over the AST rather
than an explicit basic-block CFG: each compound statement is interpreted
compositionally with dedicated *unwind channels* (exception, return, break,
continue), which gives exact ``try``/``except``/``finally`` routing —
``finally`` bodies are re-run once per live channel, the equivalent of
finally-block duplication in a lowered CFG.

Exceptional states use **prefix snapshots**: a may-raise event contributes
the state *before* its own effect, so ``page = pool.fetch(pid, pin=True)``
does not leak a pin when the fetch itself fails, but a later risky call
does.  May-raise events are calls, ``raise``, and the blocking ops
(``Acquire`` / ``Convert`` — the scheduler throws ``DeadlockError`` into
the generator at those yields); release events never raise, so the
canonical ``finally: unpin`` pattern stays clean.

Held state is a *set* keyed ``(kind, owner, family, mode)`` — not a
counter — so loop-shaped acquire/release passes (``for leaf in unit:
yield Release(page_lock(leaf), RX)``) balance without widening.  Loops are
assumed to execute at least once (a zero-iteration-only leak is out of
scope and documented as such).  Joins are may-unions: a residual item means
*some* path reaches the exit still holding it.

Function summaries carry normal-exit residuals (adds), releases (removes,
applied as may-removes), ``release_all`` owners, conversions, and the
transitive set of lock/pin requests (for order edges at call sites).
Summaries are computed over Tarjan SCCs in reverse topological order with
a bounded fixpoint inside each SCC.  Exceptional residuals are *not*
propagated to callers: an exception-path pin leak is reported exactly
once, in the function whose exception exit holds the pin.

Every finding carries a call-path witness of the form
``root() -> helper() @ file:line -> acquire X(resource) @ file:line``.

Determinism: all maps are insertion-ordered or iterated sorted; no set
iteration order escapes into output, so two runs over the same tree are
byte-identical regardless of hash seeding.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.locks.modes import LockMode, can_upgrade, compatibility_cell

#: Owner sentinel for generator-protocol ops: the scheduler supplies the
#: transaction, so every op in one generator shares one logical owner.
PROC = "<proc>"

PIN_BALANCE = "pin-balance"
LOCK_PAIRING = "lock-pairing"
LOCK_ORDER = "lock-order"
ANALYSES = (PIN_BALANCE, LOCK_PAIRING, LOCK_ORDER)

#: Receiver names that identify a LockManager in sync call position.
_LM_RECEIVERS = {"locks", "lm", "lock_manager", "_lm"}
_SYNC_METHODS = {"request", "release", "release_all", "convert", "downgrade"}
_PIN_METHODS = {"fetch", "put_new", "pin", "unpin"}
#: Generator-protocol op constructors (repro.txn.ops).
_OP_NAMES = {"Acquire", "Release", "ReleaseAll", "Convert", "Downgrade",
             "AcquireSet", "ReleaseSet"}

#: The buffer pool / lock manager implement the primitives; their internals
#: are not protocol clients, so their events are not extracted and their
#: functions are not call-resolution targets.
_NO_PIN_MODULE_PREFIXES = ("repro.storage.",)
_NO_LOCK_MODULE_PREFIXES = ("repro.locks.",)
_NO_TARGET_MODULE_PREFIXES = ("repro.locks.", "repro.storage.buffer")

_FAMILY_RE = re.compile(r"^(\w[\w.]*)\(")

_MAX_CANDIDATES = 8
_MAX_CHAIN = 6
_MAX_SUMMARY_ITEMS = 60
_SCC_PASSES = 4
_MAX_CYCLE_LEN = 5
_CYCLE_BUDGET = 20000
_MAX_CYCLES = 50


def _family(text: str) -> str:
    """Resource-constructor family of an unparsed resource expression:
    ``page_lock(leaf)`` -> ``page_lock``; non-call texts are their own
    family (``self._sidefile``)."""
    match = _FAMILY_RE.match(text)
    if match:
        return match.group(1).rsplit(".", 1)[-1]
    return text


def _mode_text(node: ast.expr) -> str:
    """``LockMode.X`` -> ``X``; a bare alias ``X`` -> ``X``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return "?"


def _mode_of(text: str) -> LockMode | None:
    try:
        return LockMode[text]
    except KeyError:
        return None


def _can_upgrade_text(held: str, target: str) -> bool:
    if held == target:
        return True
    h, t = _mode_of(held), _mode_of(target)
    if h is None or t is None:
        return False
    return can_upgrade(h, t)


def _blocks(node: str, granted: str, requested: str) -> bool:
    """Would ``requested`` block behind ``granted`` on ``node``?

    Mirrors ``LockManager._conflicts``: RS waiters are blocked by R/X
    only; blank Table-1 cells never block (the modes are never requested
    together); pin nodes always "block" (a pinned page stalls eviction /
    careful writing).  Unknown mode texts are conservatively blocking.
    """
    if node.startswith("pin:"):
        return True
    req = _mode_of(requested)
    if req is LockMode.RS:
        return granted in ("R", "X")
    held = _mode_of(granted)
    if held is None or req is None:
        return True
    if held is LockMode.RS:
        return False
    return compatibility_cell(held, req) is False


@dataclass(frozen=True)
class Site:
    """A source location (posix path relative to the repo root)."""

    path: str
    line: int
    col: int = 0

    def __str__(self) -> str:
        return f"{self.path}:{self.line}"


#: Call-path breadcrumbs: ``(callee qualname, call-site path, call line)``
#: from the outermost frame inward.
Chain = tuple[tuple[str, str, int], ...]


@dataclass(frozen=True)
class Item:
    """One abstract held resource (a pin or a lock mode)."""

    kind: str  # "pin" | "lock"
    owner: str
    family: str
    mode: str  # "" for pins
    fine: str  # full unparsed resource text (order-graph node identity)
    site: Site  # acquire site
    chain: Chain = ()

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.kind, self.owner, self.family, self.mode)

    def node(self) -> str:
        return self.fine if self.kind == "lock" else "pin:" + self.fine

    def describe(self) -> str:
        if self.kind == "pin":
            return f"pin({self.fine})"
        return f"acquire {self.mode}({self.fine})"


#: Abstract state: insertion-ordered map of held items.
State = dict[tuple[str, str, str, str], Item]


def _join(a: State | None, b: State | None) -> State | None:
    """May-union of two states (``None`` = unreachable)."""
    if a is None:
        return None if b is None else dict(b)
    if b is None:
        return dict(a)
    out = dict(a)
    for key, item in b.items():
        out.setdefault(key, item)
    return out


@dataclass(frozen=True)
class FlowFinding:
    """One reproflow finding, with its interprocedural witness."""

    analysis: str
    path: str
    line: int
    col: int
    message: str
    witness: tuple[str, ...] = ()
    #: every source site that may carry a suppression for this finding
    #: (for cycles: each edge's request site).
    sites: tuple[tuple[str, int], ...] = ()

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.analysis, self.message)

    def to_dict(self) -> dict:
        return {
            "analysis": self.analysis,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "witness": list(self.witness),
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.analysis}] {self.message}"


@dataclass
class Event:
    """One typestate-relevant program event, in evaluation order."""

    kind: str  # pin+ pin- lock+ lock- lockall- convert downgrade call
    site: Site
    owner: str = ""
    resource: str = ""
    mode: str = ""
    mode2: str = ""  # downgrade target mode
    instant: bool = False
    may_raise: bool = False
    call: ast.Call | None = None


@dataclass(frozen=True)
class Acq:
    """A transitive lock/pin request, for held-while-acquiring edges."""

    kind: str
    fine: str
    mode: str
    site: Site
    chain: Chain


@dataclass(frozen=True)
class Summary:
    """Effect summary of one function, applied at its call sites."""

    adds: tuple[Item, ...] = ()
    removes: tuple[tuple[str, str, str, str], ...] = ()  # (kind, owner, resource, mode)
    removes_all: tuple[str, ...] = ()
    converts: tuple[tuple[str, str, str], ...] = ()  # (owner, resource, to_mode)
    acquires: tuple[Acq, ...] = ()

    def has_effects(self) -> bool:
        return bool(
            self.adds or self.removes or self.removes_all
            or self.converts or self.acquires
        )

    def sig(self) -> tuple:
        """Fixpoint signature: keys only (witness chains may churn)."""
        return (
            tuple(item.key for item in self.adds),
            self.removes,
            self.removes_all,
            self.converts,
            tuple((a.kind, a.fine, a.mode) for a in self.acquires),
        )


_EMPTY_SUMMARY = Summary()


@dataclass
class FuncInfo:
    """One function/method collected from the analyzed tree."""

    qualname: str
    module: str
    rel: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None
    params: tuple[str, ...]
    allow_pins: bool
    allow_locks: bool


def _module_name(rel: str) -> str:
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _starts_with_any(text: str, prefixes: Sequence[str]) -> bool:
    return any(text.startswith(p) for p in prefixes)


class Program:
    """The analyzed tree: functions, indexes, events, call resolution."""

    def __init__(self, files: Sequence[tuple[str, ast.Module]]) -> None:
        self.functions: list[FuncInfo] = []
        self._top: dict[tuple[str, str], FuncInfo] = {}
        self._by_name: dict[str, list[FuncInfo]] = {}
        self._meth: dict[tuple[str, str, str], FuncInfo] = {}
        self._meth_by_name: dict[str, list[FuncInfo]] = {}
        #: base class name -> (module, class) of the classes that list it
        #: as a base, so ``self.m()`` also reaches overrides of ``m``.
        self._subclasses: dict[str, list[tuple[str, str]]] = {}
        self._events: dict[int, list[Event]] = {}
        self._resolved: dict[int, tuple[FuncInfo, ...]] = {}
        self._subst: dict[tuple[int, str], list[tuple[re.Pattern, str]]] = {}
        self.file_count = len(files)
        for rel, tree in sorted(files, key=lambda pair: pair[0]):
            module = _module_name(rel)
            self._collect(tree.body, module, rel, prefix=module, cls=None, top=True)
        self.callees: dict[str, tuple[str, ...]] = {}
        self.roots: set[str] = set()
        self._build_call_graph()

    # -- collection -------------------------------------------------------

    def _collect(
        self,
        body: list[ast.stmt],
        module: str,
        rel: str,
        prefix: str,
        cls: str | None,
        top: bool,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                args = stmt.args
                params = tuple(
                    a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)
                )
                info = FuncInfo(
                    qualname=qual,
                    module=module,
                    rel=rel,
                    node=stmt,
                    cls=cls,
                    params=params,
                    allow_pins=not _starts_with_any(module, _NO_PIN_MODULE_PREFIXES),
                    allow_locks=not _starts_with_any(module, _NO_LOCK_MODULE_PREFIXES),
                )
                self.functions.append(info)
                indexable = not _starts_with_any(module, _NO_TARGET_MODULE_PREFIXES)
                if indexable:
                    if cls is None:
                        if top:
                            self._top.setdefault((module, stmt.name), info)
                        self._by_name.setdefault(stmt.name, []).append(info)
                    else:
                        self._meth.setdefault((module, cls, stmt.name), info)
                        self._meth_by_name.setdefault(stmt.name, []).append(info)
                # nested defs are separate functions
                self._collect(stmt.body, module, rel, qual, cls=None, top=False)
            elif isinstance(stmt, ast.ClassDef):
                for base in stmt.bases:
                    base_name = ast.unparse(base).rpartition(".")[2]
                    self._subclasses.setdefault(base_name, []).append(
                        (module, stmt.name)
                    )
                self._collect(
                    stmt.body, module, rel, f"{prefix}.{stmt.name}",
                    cls=stmt.name, top=False,
                )

    # -- event extraction -------------------------------------------------

    def events(self, node: ast.AST, func: FuncInfo) -> list[Event]:
        cached = self._events.get(id(node))
        if cached is None:
            cached = []
            self._extract(node, func, cached)
            self._events[id(node)] = cached
        return cached

    def _site(self, node: ast.AST, func: FuncInfo) -> Site:
        return Site(func.rel, getattr(node, "lineno", 1), getattr(node, "col_offset", 0))

    def _extract(self, node: ast.AST, func: FuncInfo, out: list[Event]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.Lambda):
            # thunks like ``yield Call(lambda: switch.run())`` execute in
            # the same process: inline their bodies.
            self._extract(node.body, func, out)
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = node.value
            if (
                isinstance(node, ast.Yield)
                and isinstance(value, ast.Call)
                and self._op_name(value) in _OP_NAMES
            ):
                for arg in value.args:
                    self._extract(arg, func, out)
                for kw in value.keywords:
                    self._extract(kw.value, func, out)
                if func.allow_locks:
                    ev = self._op_event(value, func)
                    if ev is not None:
                        out.append(ev)
                return
            if value is not None:
                self._extract(value, func, out)
            return
        if isinstance(node, ast.Call):
            # evaluation order: callee expression, then arguments.
            self._extract(node.func, func, out)
            for arg in node.args:
                self._extract(arg, func, out)
            for kw in node.keywords:
                self._extract(kw.value, func, out)
            out.append(self._classify_call(node, func))
            return
        for child in ast.iter_child_nodes(node):
            self._extract(child, func, out)

    @staticmethod
    def _op_name(call: ast.Call) -> str:
        f = call.func
        if isinstance(f, ast.Name):
            return f.id
        if isinstance(f, ast.Attribute):
            return f.attr
        return ""

    def _op_event(self, call: ast.Call, func: FuncInfo) -> Event | None:
        name = self._op_name(call)
        site = self._site(call, func)
        args = call.args
        kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}

        def text(i: int, kw: str | None = None) -> str:
            if i < len(args):
                return ast.unparse(args[i])
            if kw and kw in kwargs:
                return ast.unparse(kwargs[kw])
            return "?"

        def mode(i: int, kw: str | None = None) -> str:
            if i < len(args):
                return _mode_text(args[i])
            if kw and kw in kwargs:
                return _mode_text(kwargs[kw])
            return "?"

        if name in ("AcquireSet", "ReleaseSet"):
            # One lock on page_lock(<pages>); a lazy set's pages are its body.
            pages = args[0] if args else kwargs.get("pages")
            pages = pages.body if isinstance(pages, ast.Lambda) else pages
            acquire = name == "AcquireSet"
            return Event(
                "lock+" if acquire else "lock-", site, owner=PROC, may_raise=acquire,
                resource=f"page_lock({ast.unparse(pages) if pages else '?'})",
                mode=mode(1, "mode"),
            )
        if name == "Acquire":
            instant_node = kwargs.get("instant")
            instant = isinstance(instant_node, ast.Constant) and bool(instant_node.value)
            return Event(
                "lock+", site, owner=PROC, resource=text(0, "resource"),
                mode=mode(1, "mode"), instant=instant, may_raise=True,
            )
        if name == "Release":
            return Event(
                "lock-", site, owner=PROC, resource=text(0, "resource"),
                mode=mode(1, "mode"),
            )
        if name == "ReleaseAll":
            return Event("lockall-", site, owner=PROC)
        if name == "Convert":
            return Event(
                "convert", site, owner=PROC, resource=text(0, "resource"),
                mode=mode(1, "mode"), may_raise=True,
            )
        if name == "Downgrade":
            return Event(
                "downgrade", site, owner=PROC, resource=text(0, "resource"),
                mode=mode(1, "from_mode"), mode2=mode(2, "to_mode"),
            )
        return None

    def _classify_call(self, call: ast.Call, func: FuncInfo) -> Event:
        site = self._site(call, func)
        f = call.func
        meth = recv_last = None
        if isinstance(f, ast.Attribute):
            meth = f.attr
            recv = ast.unparse(f.value)
            recv_last = recv.rsplit(".", 1)[-1]
        elif isinstance(f, ast.Name):
            meth = f.id
        args = call.args
        kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}

        if func.allow_pins and meth in _PIN_METHODS:
            if meth in ("fetch", "put_new"):
                pin_kw = kwargs.get("pin")
                if isinstance(pin_kw, ast.Constant) and pin_kw.value is True and args:
                    return Event(
                        "pin+", site, owner=PROC,
                        resource=ast.unparse(args[0]), may_raise=True,
                    )
            elif meth == "pin" and args:
                return Event(
                    "pin+", site, owner=PROC,
                    resource=ast.unparse(args[0]), may_raise=True,
                )
            elif meth == "unpin" and args:
                return Event("pin-", site, owner=PROC, resource=ast.unparse(args[0]))

        if (
            func.allow_locks
            and meth in _SYNC_METHODS
            and recv_last in _LM_RECEIVERS
        ):
            texts = [ast.unparse(a) for a in args]
            if meth == "request" and len(texts) >= 3:
                instant_node = kwargs.get("instant")
                instant = (
                    isinstance(instant_node, ast.Constant) and bool(instant_node.value)
                )
                return Event(
                    "lock+", site, owner=texts[0], resource=texts[1],
                    mode=_mode_text(args[2]), instant=instant, may_raise=True,
                )
            if meth == "release" and len(texts) >= 3:
                return Event(
                    "lock-", site, owner=texts[0], resource=texts[1],
                    mode=_mode_text(args[2]),
                )
            if meth == "release_all" and len(texts) >= 1:
                return Event("lockall-", site, owner=texts[0])
            if meth == "convert" and len(texts) >= 3:
                return Event(
                    "convert", site, owner=texts[0], resource=texts[1],
                    mode=_mode_text(args[2]), may_raise=True,
                )
            if meth == "downgrade" and len(texts) >= 4:
                return Event(
                    "downgrade", site, owner=texts[0], resource=texts[1],
                    mode=_mode_text(args[2]), mode2=_mode_text(args[3]),
                )
        return Event("call", site, may_raise=True, call=call)

    # -- call resolution --------------------------------------------------

    def resolve(self, call: ast.Call, caller: FuncInfo) -> tuple[FuncInfo, ...]:
        cached = self._resolved.get(id(call))
        if cached is not None:
            return cached
        result = self._resolve_uncached(call, caller)
        self._resolved[id(call)] = result
        return result

    def _resolve_uncached(
        self, call: ast.Call, caller: FuncInfo
    ) -> tuple[FuncInfo, ...]:
        f = call.func
        if isinstance(f, ast.Name):
            hit = self._top.get((caller.module, f.id))
            if hit is not None:
                return (hit,)
            cands = self._by_name.get(f.id, [])
            return tuple(cands) if len(cands) == 1 else ()
        if isinstance(f, ast.Attribute):
            name = f.attr
            if name in _SYNC_METHODS or name in _PIN_METHODS:
                return ()
            recv = f.value
            if (
                isinstance(recv, ast.Name)
                and recv.id in ("self", "cls")
                and caller.cls is not None
            ):
                hit = self._meth.get((caller.module, caller.cls, name))
                if hit is not None:
                    return (hit, *self._overrides(caller.cls, name))
            cands = self._meth_by_name.get(name, [])
            if not cands:
                top = self._by_name.get(name, [])
                return tuple(top) if len(top) == 1 else ()
            if len(cands) > _MAX_CANDIDATES:
                return ()
            return tuple(cands)
        return ()

    def _overrides(self, cls: str, name: str) -> list[FuncInfo]:
        """Definitions of method ``name`` in (transitive) subclasses of
        ``cls``: a ``self.name()`` call in ``cls`` dispatches to them too."""
        found: list[FuncInfo] = []
        pending, seen = [cls], {cls}
        while pending:
            for module, sub in self._subclasses.get(pending.pop(), ()):
                if sub in seen:
                    continue
                seen.add(sub)
                pending.append(sub)
                hit = self._meth.get((module, sub, name))
                if hit is not None:
                    found.append(hit)
        return found

    def substitution(
        self, call: ast.Call, cand: FuncInfo
    ) -> list[tuple[re.Pattern, str]]:
        cached = self._subst.get((id(call), cand.qualname))
        if cached is not None:
            return cached
        params = list(cand.params)
        mapping: dict[str, str] = {}
        if (
            isinstance(call.func, ast.Attribute)
            and params
            and params[0] in ("self", "cls")
        ):
            mapping[params[0]] = ast.unparse(call.func.value)
            params = params[1:]
        for name, arg in zip(params, call.args):
            if isinstance(arg, ast.Starred):
                break
            mapping[name] = ast.unparse(arg)
        for kw in call.keywords:
            if kw.arg and kw.arg in cand.params:
                mapping[kw.arg] = ast.unparse(kw.value)
        subst = [
            (re.compile(rf"\b{re.escape(k)}\b"), v)
            for k, v in sorted(mapping.items())
            if v != k
        ]
        self._subst[(id(call), cand.qualname)] = subst
        return subst

    # -- call graph / SCCs ------------------------------------------------

    def _build_call_graph(self) -> None:
        called: set[str] = set()
        for func in self.functions:
            targets: dict[str, None] = {}
            for stmt in func.node.body:
                for ev in self._iter_all_events(stmt, func):
                    if ev.kind == "call" and ev.call is not None:
                        for cand in self.resolve(ev.call, func):
                            targets[cand.qualname] = None
            self.callees[func.qualname] = tuple(targets)
            called.update(targets)
        self.roots = {
            f.qualname for f in self.functions if f.qualname not in called
        }

    def _iter_all_events(self, stmt: ast.stmt, func: FuncInfo) -> Iterator[Event]:
        """All events in a statement *including* nested compound bodies
        (used only for call-graph construction; the interpreter extracts
        per-region instead)."""
        for ev in self.events(stmt, func):
            yield ev
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt) and not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from self._iter_all_events(child, func)

    def scc_order(self) -> list[list[FuncInfo]]:
        """Tarjan SCCs of the call graph, callees before callers."""
        by_qual = {f.qualname: f for f in self.functions}
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[FuncInfo]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            # iterative Tarjan to dodge recursion limits on deep graphs
            work = [(v, iter(self.callees.get(v, ())))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in by_qual:
                        continue
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(self.callees.get(w, ()))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    members = [by_qual[q] for q in comp if q in by_qual]
                    members.sort(key=lambda f: (f.rel, f.node.lineno))
                    sccs.append(members)

        for func in self.functions:
            if func.qualname not in index:
                strongconnect(func.qualname)
        # Tarjan emits SCCs in reverse topological order already
        # (callees before callers) for this traversal.
        return sccs

    def scc_has_cycle(self, scc: list[FuncInfo]) -> bool:
        quals = {f.qualname for f in scc}
        if len(scc) > 1:
            return True
        q = scc[0].qualname
        return q in self.callees.get(q, ())


@dataclass
class _EdgeInfo:
    """Witness for one held-while-acquiring edge."""

    func: str
    req_site: Site
    req_chain: Chain
    held_site: Site


@dataclass
class _Sink:
    """Global collectors for the final (reporting) pass."""

    edges: dict[tuple[str, str, str, str], _EdgeInfo] = field(default_factory=dict)


class _Interp:
    """Structural abstract interpreter for one function."""

    def __init__(
        self,
        prog: Program,
        func: FuncInfo,
        summaries: dict[str, Summary],
        sink: _Sink | None,
    ) -> None:
        self.p = prog
        self.f = func
        self.sums = summaries
        self.sink = sink
        self.exc: State | None = None
        self.ret: State | None = None
        self._break: list[State | None] = []
        self._cont: list[State | None] = []
        self._acquires: dict[tuple[str, str, str], Acq] = {}
        self._removes: dict[tuple[str, str, str, str], None] = {}
        self._removes_all: dict[str, None] = {}
        self._converts: dict[tuple[str, str, str], None] = {}

    # -- driving ----------------------------------------------------------

    def run(self) -> tuple[State | None, State | None]:
        out = self._block(self.f.node.body, {})
        return _join(out, self.ret), self.exc

    def summary(self, normal: State | None) -> Summary:
        adds: tuple[Item, ...] = ()
        if normal:
            adds = tuple(
                normal[k] for k in sorted(normal)
            )[:_MAX_SUMMARY_ITEMS]
        return Summary(
            adds=adds,
            removes=tuple(self._removes)[:_MAX_SUMMARY_ITEMS],
            removes_all=tuple(self._removes_all),
            converts=tuple(self._converts)[:_MAX_SUMMARY_ITEMS],
            acquires=tuple(
                self._acquires[k] for k in sorted(self._acquires)
            )[:_MAX_SUMMARY_ITEMS],
        )

    # -- statements -------------------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt], state: State | None) -> State | None:
        for stmt in stmts:
            if state is None:
                return None
            state = self._stmt(stmt, state)
        return state

    def _stmt(self, s: ast.stmt, st: State) -> State | None:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return st
        if isinstance(s, ast.Return):
            if s.value is not None:
                st = self._events(s.value, st)
            self.ret = _join(self.ret, st)
            return None
        if isinstance(s, ast.Raise):
            if s.exc is not None:
                st = self._events(s.exc, st)
            self.exc = _join(self.exc, st)
            return None
        if isinstance(s, ast.If):
            st = self._events(s.test, st)
            a = self._block(s.body, dict(st))
            b = self._block(s.orelse, dict(st))
            return _join(a, b)
        if isinstance(s, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(s, st)
        if isinstance(s, ast.Break):
            if self._break:
                self._break[-1] = _join(self._break[-1], st)
            return None
        if isinstance(s, ast.Continue):
            if self._cont:
                self._cont[-1] = _join(self._cont[-1], st)
            return None
        if isinstance(s, ast.Try) or s.__class__.__name__ == "TryStar":
            return self._try(s, st)  # type: ignore[arg-type]
        if isinstance(s, (ast.With, ast.AsyncWith)):
            for item in s.items:
                st = self._events(item.context_expr, st)
            return self._block(s.body, st)
        if isinstance(s, ast.Match):
            st = self._events(s.subject, st)
            outs: State | None = None
            for case in s.cases:
                cs = dict(st)
                if case.guard is not None:
                    cs = self._events(case.guard, cs)
                outs = _join(outs, self._block(case.body, cs))
            return _join(outs, st)
        return self._events(s, st)

    def _loop(self, s: ast.For | ast.AsyncFor | ast.While, st: State) -> State | None:
        test: ast.expr | None = None
        if isinstance(s, (ast.For, ast.AsyncFor)):
            st = self._events(s.iter, st)
        else:
            test = s.test
        self._break.append(None)
        self._cont.append(None)
        inp: State = st
        out: State | None = None
        for _ in range(4):
            cur = dict(inp)
            if test is not None:
                cur = self._events(test, cur)
            o = self._block(s.body, cur)
            o = _join(o, self._cont[-1])
            self._cont[-1] = None
            if o is None:
                out = None
                break
            new_inp = _join(inp, o) or {}
            out = o
            if set(new_inp) == set(inp):
                break
            inp = new_inp
        self._cont.pop()
        brk = self._break.pop()
        after = out  # loops assumed to run at least once (module docstring)
        if s.orelse and after is not None:
            after = self._block(s.orelse, after)
        return _join(after, brk)

    def _capture(
        self, fn: Callable[[State], State | None], st: State
    ) -> tuple[State | None, State | None, State | None, State | None, State | None]:
        saved_exc, saved_ret = self.exc, self.ret
        self.exc = None
        self.ret = None
        saved_brk = saved_cont = None
        if self._break:
            saved_brk, self._break[-1] = self._break[-1], None
            saved_cont, self._cont[-1] = self._cont[-1], None
        out = fn(st)
        captured = (
            out,
            self.exc,
            self.ret,
            self._break[-1] if self._break else None,
            self._cont[-1] if self._cont else None,
        )
        self.exc, self.ret = saved_exc, saved_ret
        if self._break:
            self._break[-1] = saved_brk
            self._cont[-1] = saved_cont
        return captured

    def _try(self, s: ast.Try, st: State) -> State | None:
        b_out, b_exc, b_ret, b_brk, b_cont = self._capture(
            lambda x: self._block(s.body, x), st
        )
        handlers = s.handlers
        catches_all = any(
            h.type is None
            or (
                isinstance(h.type, (ast.Name, ast.Attribute))
                and _mode_text(h.type) in ("Exception", "BaseException")
            )
            for h in handlers
        )
        h_out = h_ret = h_brk = h_cont = esc = None
        for h in handlers:
            if b_exc is None:
                break
            o, e, r, bk, cn = self._capture(
                lambda x, h=h: self._block(h.body, x), dict(b_exc)
            )
            h_out = _join(h_out, o)
            esc = _join(esc, e)
            h_ret = _join(h_ret, r)
            h_brk = _join(h_brk, bk)
            h_cont = _join(h_cont, cn)
        if handlers:
            if not catches_all:
                esc = _join(esc, b_exc)
        else:
            esc = b_exc
        if s.orelse and b_out is not None:
            o, e, r, bk, cn = self._capture(
                lambda x: self._block(s.orelse, x), b_out
            )
            b_out = o
            esc = _join(esc, e)
            b_ret = _join(b_ret, r)
            b_brk = _join(b_brk, bk)
            b_cont = _join(b_cont, cn)
        normal = _join(b_out, h_out)
        ret = _join(b_ret, h_ret)
        brk = _join(b_brk, h_brk)
        cont = _join(b_cont, h_cont)
        fin = s.finalbody

        def thru(x: State | None) -> State | None:
            if x is None:
                return None
            return self._block(fin, dict(x)) if fin else x

        if esc is not None:
            self.exc = _join(self.exc, thru(esc))
        if ret is not None:
            self.ret = _join(self.ret, thru(ret))
        if brk is not None and self._break:
            self._break[-1] = _join(self._break[-1], thru(brk))
        if cont is not None and self._cont:
            self._cont[-1] = _join(self._cont[-1], thru(cont))
        return thru(normal)

    # -- events -----------------------------------------------------------

    def _events(self, node: ast.AST, st: State) -> State:
        for ev in self.p.events(node, self.f):
            st = self._apply(ev, st)
        return st

    def _note_acquire(
        self,
        st: State,
        kind: str,
        node: str,
        mode: str,
        site: Site,
        chain: Chain,
        skip_fine: str | None = None,
    ) -> None:
        self._acquires.setdefault(
            (kind, node, mode), Acq(kind, node, mode, site, chain)
        )
        if self.sink is None:
            return
        for key in sorted(st):
            held = st[key]
            if held.node() == node:
                continue
            if skip_fine is not None and held.fine == skip_fine:
                continue
            edge = (held.node(), held.mode, node, mode)
            self.sink.edges.setdefault(
                edge, _EdgeInfo(self.f.qualname, site, chain, held.site)
            )

    def _apply(self, ev: Event, st: State) -> State:
        if ev.may_raise:
            self.exc = _join(self.exc, st)
        kind = ev.kind
        if kind == "pin+":
            item = Item("pin", PROC, ev.resource, "", ev.resource, ev.site)
            self._note_acquire(st, "pin", item.node(), "", ev.site, ())
            st.setdefault(item.key, item)
        elif kind == "pin-":
            st.pop(("pin", PROC, ev.resource, ""), None)
            self._removes[("pin", PROC, ev.resource, "")] = None
        elif kind == "lock+":
            item = Item(
                "lock", ev.owner, _family(ev.resource), ev.mode, ev.resource, ev.site
            )
            # instant acquires never enter the held set but still block
            # behind holders, so they participate in order edges.
            self._note_acquire(st, "lock", item.node(), ev.mode, ev.site, ())
            if not ev.instant:
                st.setdefault(item.key, item)
        elif kind == "lock-":
            st.pop(("lock", ev.owner, _family(ev.resource), ev.mode), None)
            self._removes[("lock", ev.owner, ev.resource, ev.mode)] = None
        elif kind == "lockall-":
            for key in [k for k in st if k[0] == "lock" and k[1] == ev.owner]:
                st.pop(key)
            self._removes_all[ev.owner] = None
        elif kind == "convert":
            fam = _family(ev.resource)
            for key in [
                k
                for k in st
                if k[0] == "lock"
                and k[1] == ev.owner
                and k[2] == fam
                and _can_upgrade_text(k[3], ev.mode)
            ]:
                st.pop(key)
            item = Item("lock", ev.owner, fam, ev.mode, ev.resource, ev.site)
            self._note_acquire(
                st, "lock", item.node(), ev.mode, ev.site, (), skip_fine=ev.resource
            )
            st.setdefault(item.key, item)
            self._converts[(ev.owner, ev.resource, ev.mode)] = None
        elif kind == "downgrade":
            fam = _family(ev.resource)
            st.pop(("lock", ev.owner, fam, ev.mode), None)
            self._removes[("lock", ev.owner, ev.resource, ev.mode)] = None
            item = Item("lock", ev.owner, fam, ev.mode2, ev.resource, ev.site)
            st.setdefault(item.key, item)
        elif kind == "call" and ev.call is not None:
            self._apply_call(ev, st)
        return st

    def _apply_call(self, ev: Event, st: State) -> None:
        assert ev.call is not None
        for cand in self.p.resolve(ev.call, self.f):
            summ = self.sums.get(cand.qualname)
            if summ is None or not summ.has_effects():
                continue
            sub = self.p.substitution(ev.call, cand)

            def subst(text: str) -> str:
                for pat, rep in sub:
                    text = pat.sub(rep, text)
                return text

            def smode(mode: str) -> str:
                # modes passed as parameters: substitute, then reduce
                # ``LockMode.X`` spellings to the bare mode name.
                mode = subst(mode)
                if re.fullmatch(r"[\w.]+", mode):
                    return mode.rsplit(".", 1)[-1]
                return mode

            hop = (cand.qualname, ev.site.path, ev.site.line)
            # order edges first: caller-held items vs everything the
            # callee transitively requests.
            for acq in summ.acquires:
                fine2 = subst(acq.fine)
                chain2 = (hop,) + acq.chain
                self._note_acquire(
                    st, acq.kind, fine2, smode(acq.mode), acq.site,
                    chain2[:_MAX_CHAIN],
                )
            for rkind, rowner, rres, rmode in summ.removes:
                owner2, res2 = subst(rowner), subst(rres)
                if rkind == "pin":
                    st.pop(("pin", PROC, res2, ""), None)
                    self._removes[("pin", PROC, res2, "")] = None
                else:
                    mode2 = smode(rmode)
                    st.pop(("lock", owner2, _family(res2), mode2), None)
                    self._removes[("lock", owner2, res2, mode2)] = None
            for rowner in summ.removes_all:
                owner2 = subst(rowner)
                for key in [k for k in st if k[0] == "lock" and k[1] == owner2]:
                    st.pop(key)
                self._removes_all[owner2] = None
            for cowner, cres, cmode in summ.converts:
                # a convert inside the callee upgrades a lock the *caller*
                # may hold: drop the caller's upgradable modes.  The
                # converted-to mode is NOT added here — if it survives to
                # the callee's normal exit it already sits in summ.adds.
                owner2, res2 = subst(cowner), subst(cres)
                cmode = smode(cmode)
                fam = _family(res2)
                for key in [
                    k
                    for k in st
                    if k[0] == "lock"
                    and k[1] == owner2
                    and k[2] == fam
                    and _can_upgrade_text(k[3], cmode)
                ]:
                    st.pop(key)
                self._converts[(owner2, res2, cmode)] = None
            for item in summ.adds:
                owner2, fine2 = subst(item.owner), subst(item.fine)
                fam = _family(fine2) if item.kind == "lock" else fine2
                new = Item(
                    item.kind, owner2, fam,
                    smode(item.mode) if item.kind == "lock" else item.mode,
                    fine2, item.site,
                    chain=((hop,) + item.chain)[:_MAX_CHAIN],
                )
                st.setdefault(new.key, new)


def _node_family(node: str) -> str:
    if node.startswith("pin:"):
        return "pin:" + _family(node[4:])
    return _family(node)


def _render_witness(root_qual: str, item: Item) -> tuple[str, ...]:
    lines = [f"{root_qual}()"]
    for qual, path, line in item.chain:
        lines.append(f"-> {qual}() @ {path}:{line}")
    lines.append(f"-> {item.describe()} @ {item.site}")
    return tuple(lines)


def _find_cycles(
    edges: dict[tuple[str, str, str, str], _EdgeInfo],
) -> list[list[tuple[str, str, str, str]]]:
    """Elementary cycles (length <= _MAX_CYCLE_LEN) in the order graph
    whose every edge is a blocking request under Table 1."""
    adj: dict[str, list[tuple[str, str, str, str]]] = {}
    for key in sorted(edges):
        src = key[0]
        if src == key[2]:
            continue  # self-edges: lock coupling / re-entrant re-requests
        adj.setdefault(src, []).append(key)
    cycles: list[list[tuple[str, str, str, str]]] = []
    seen: set[tuple[tuple[str, str, str, str], ...]] = set()
    #: family-level shapes already reported: cycles that differ only in
    #: the variable names inside the resource texts (``page_lock(base_a)``
    #: vs ``page_lock(base_b)``) are one deadlock pattern, not many.
    shapes: set[tuple[tuple[str, str, str, str], ...]] = set()
    budget = [_CYCLE_BUDGET]

    def shape_of(
        cand: list[tuple[str, str, str, str]],
    ) -> tuple[tuple[str, str, str, str], ...]:
        fams = [
            (_node_family(k[0]), k[1], _node_family(k[2]), k[3]) for k in cand
        ]
        best = min(range(len(fams)), key=lambda i: fams[i:] + fams[:i])
        return tuple(fams[best:] + fams[:best])

    def deadlocks(path: list[tuple[str, str, str, str]]) -> bool:
        n = len(path)
        for i in range(n):
            req = path[i]
            nxt = path[(i + 1) % n]
            # the request of edge i targets the node edge i+1 holds.
            if not _blocks(req[2], nxt[1], req[3]):
                return False
        return True

    def dfs(
        start: str,
        node: str,
        path: list[tuple[str, str, str, str]],
        visited: set[str],
    ) -> None:
        if budget[0] <= 0 or len(cycles) >= _MAX_CYCLES:
            return
        for key in adj.get(node, ()):
            budget[0] -= 1
            if budget[0] <= 0:
                return
            dst = key[2]
            if dst == start and path:
                cand = path + [key]
                if deadlocks(cand):
                    best = min(range(len(cand)), key=lambda i: cand[i])
                    canon = tuple(cand[best:] + cand[:best])
                    shape = shape_of(cand)
                    if canon not in seen and shape not in shapes:
                        seen.add(canon)
                        shapes.add(shape)
                        cycles.append(list(canon))
            elif dst not in visited and dst > start and len(path) + 1 < _MAX_CYCLE_LEN:
                visited.add(dst)
                dfs(start, dst, path + [key], visited)
                visited.discard(dst)

    for start in sorted(adj):
        dfs(start, start, [], {start})
    cycles.sort(key=lambda c: c[0])
    return cycles


@dataclass
class FlowReport:
    """Result of one whole-program analysis run."""

    findings: list[FlowFinding]
    stats: dict


def analyze_files(
    files: Sequence[tuple[str, ast.Module]],
    *,
    analyses: Sequence[str] | None = None,
) -> FlowReport:
    """Analyze parsed modules given as ``(relative posix path, tree)``."""
    wanted = set(analyses) if analyses is not None else set(ANALYSES)
    unknown = wanted - set(ANALYSES)
    if unknown:
        raise ValueError(f"unknown analysis: {', '.join(sorted(unknown))}")
    prog = Program(files)

    # Phase 1: summaries over SCCs, callees first.
    sums: dict[str, Summary] = {}
    order = prog.scc_order()
    for scc in order:
        passes = _SCC_PASSES if prog.scc_has_cycle(scc) else 1
        for _ in range(passes):
            changed = False
            for func in scc:
                interp = _Interp(prog, func, sums, sink=None)
                normal, _exc = interp.run()
                summ = interp.summary(normal)
                if summ.sig() != sums.get(func.qualname, _EMPTY_SUMMARY).sig():
                    changed = True
                sums[func.qualname] = summ
            if not changed:
                break

    # Phase 2: reporting pass.
    sink = _Sink()
    findings: list[FlowFinding] = []
    #: acquire site -> (chain length, qualname, finding) — innermost wins.
    exc_pins: dict[Site, tuple[int, str, FlowFinding]] = {}
    report_order = sorted(prog.functions, key=lambda f: (f.rel, f.node.lineno))
    for func in report_order:
        interp = _Interp(prog, func, sums, sink=sink)
        normal, exc = interp.run()
        if func.qualname in prog.roots and normal:
            for key in sorted(normal):
                item = normal[key]
                if item.kind == "pin" and PIN_BALANCE in wanted:
                    findings.append(FlowFinding(
                        analysis=PIN_BALANCE,
                        path=item.site.path,
                        line=item.site.line,
                        col=item.site.col,
                        message=(
                            f"page pin on {item.fine} is still held when "
                            f"{func.qualname}() returns — no unpin() on this path"
                        ),
                        witness=_render_witness(func.qualname, item),
                        sites=((item.site.path, item.site.line),),
                    ))
                elif item.kind == "lock" and LOCK_PAIRING in wanted:
                    findings.append(FlowFinding(
                        analysis=LOCK_PAIRING,
                        path=item.site.path,
                        line=item.site.line,
                        col=item.site.col,
                        message=(
                            f"{item.mode} lock on {item.fine} (owner {item.owner}) "
                            f"escapes {func.qualname}() without a release"
                        ),
                        witness=_render_witness(func.qualname, item),
                        sites=((item.site.path, item.site.line),),
                    ))
        if exc and PIN_BALANCE in wanted:
            for key in sorted(exc):
                item = exc[key]
                if item.kind != "pin":
                    continue
                finding = FlowFinding(
                    analysis=PIN_BALANCE,
                    path=item.site.path,
                    line=item.site.line,
                    col=item.site.col,
                    message=(
                        f"page pin on {item.fine} leaks if an exception "
                        f"unwinds {func.qualname}() — no finally/handler "
                        "unpins it on that path"
                    ),
                    witness=_render_witness(func.qualname, item),
                    sites=((item.site.path, item.site.line),),
                )
                prev = exc_pins.get(item.site)
                cand = (len(item.chain), func.qualname, finding)
                if prev is None or cand[:2] < prev[:2]:
                    exc_pins[item.site] = cand
    findings.extend(f for _, _, f in exc_pins.values())

    if LOCK_ORDER in wanted:
        for cycle in _find_cycles(sink.edges):
            nodes = " -> ".join(f"{k[3]}({k[2]})" for k in cycle)
            first = sink.edges[cycle[0]]
            witness: list[str] = []
            sites: list[tuple[str, int]] = []
            for key in cycle:
                info = sink.edges[key]
                line = (
                    f"{info.func}() holds {key[1] or 'pin'}({key[0]}) while "
                    f"requesting {key[3] or 'pin'}({key[2]}) @ {info.req_site}"
                )
                for qual, path, lno in info.req_chain:
                    line += f" via {qual}() @ {path}:{lno}"
                witness.append(line)
                sites.append((info.req_site.path, info.req_site.line))
            findings.append(FlowFinding(
                analysis=LOCK_ORDER,
                path=first.req_site.path,
                line=first.req_site.line,
                col=first.req_site.col,
                message=(
                    "potential static deadlock: held-while-acquiring cycle "
                    f"{cycle[0][1] or 'pin'}({cycle[0][0]}) -> {nodes}"
                ),
                witness=tuple(witness),
                sites=tuple(sites),
            ))

    findings.sort(key=FlowFinding.sort_key)
    stats = {
        "files": prog.file_count,
        "functions": len(prog.functions),
        "roots": len(prog.roots),
        "sccs": len(order),
        "order_edges": len(sink.edges),
        "findings": len(findings),
        "by_analysis": {
            name: sum(1 for f in findings if f.analysis == name)
            for name in ANALYSES
        },
    }
    return FlowReport(findings=findings, stats=stats)
