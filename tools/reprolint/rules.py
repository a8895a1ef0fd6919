"""The rule catalogue — each rule encodes one invariant of the paper's
protocol stack that Python itself cannot enforce.

Rules report ``(line, col, message)`` tuples; the engine handles
suppressions and path scoping.  ``docs/static_analysis.md`` documents each
rule with examples; keep the two in sync when adding rules.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from reprolint.engine import LintContext, Rule, register

#: Paths allowed to touch page internals / the raw disk: the storage layer
#: itself and the do/redo interpreter (which IS the WAL apply path).
_STORAGE_PATHS = ("src/repro/storage/",)
_WAL_APPLY = "src/repro/wal/apply.py"

#: Private per-page containers; mutating them directly skips the logged
#: mutator methods and therefore the WAL.
_PAGE_INTERNALS = {"_records", "_keys", "_children"}

#: Public page fields whose *assignment* outside the sanctioned layers is a
#: WAL bypass (they are all covered by log record types).
_PAGE_FIELDS = {"page_lsn", "next_leaf", "prev_leaf", "low_mark"}

_LOCK_MODE_NAMES = {"IS", "IX", "S", "X", "R", "RX", "RS"}


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _call_name(func: ast.expr) -> str | None:
    """The trailing identifier of a call target (``a.b.c(...)`` -> ``c``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _is_true(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _mentions_mode(node: ast.expr, mode: str) -> bool:
    """Whether an expression is the bare name ``RS`` or ``LockMode.RS``."""
    if isinstance(node, ast.Name):
        return node.id == mode
    if isinstance(node, ast.Attribute):
        return node.attr == mode and isinstance(node.value, ast.Name) and (
            node.value.id == "LockMode"
        )
    return False


@register
class PageInternalsRule(Rule):
    """WAL-bypass detection: page state may only change through the logged
    mutator methods; poking ``_records``/``_keys``/``_children`` (or
    assigning ``page_lsn``/side pointers/low marks) outside the storage
    layer and ``wal/apply.py`` mutates pages the log never heard about."""

    name = "page-internals"
    description = (
        "no direct access to Page/LeafPage/InternalPage internals outside "
        "repro/storage and repro/wal/apply.py"
    )
    include = ("src/",)
    exclude = _STORAGE_PATHS + (_WAL_APPLY,)

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if node.attr in _PAGE_INTERNALS and not _is_self(node.value):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"access to page-internal attribute {node.attr!r} "
                        f"outside the storage layer (WAL bypass)",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _PAGE_FIELDS
                        and not _is_self(target.value)
                    ):
                        yield (
                            target.lineno,
                            target.col_offset,
                            f"assignment to page field {target.attr!r} outside "
                            f"the storage layer (WAL bypass; log it instead)",
                        )


#: Call names that acquire a lock and ones that give one back.
_ACQUIRES = {"request", "Acquire", "AcquireSet"}
_RELEASES = {
    "release",
    "release_all",
    "cancel_wait",
    "downgrade",
    "convert",
    "Release",
    "ReleaseAll",
    "ReleaseSet",
    "Downgrade",
    "Convert",
}


@register
class LockReleasePairingRule(Rule):
    """Every lock acquisition must have a release/convert/downgrade on some
    path in the same function, or carry a ``# reprolint: held-across``
    escape explaining why the lock outlives the function."""

    name = "lock-release-pairing"
    description = (
        "LockManager.request(...) / Acquire(...) paired with a release or "
        "conversion in the same function (or '# reprolint: held-across')"
    )
    include = ("src/",)

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        held_across = ctx.suppressions.held_across
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            acquires: list[ast.Call] = []
            releases = False
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                called = _call_name(sub.func)
                if called in _ACQUIRES:
                    # Instant-duration requests are never actually held, so
                    # there is nothing to release.
                    if not _is_true(_keyword(sub, "instant")):
                        acquires.append(sub)
                elif called in _RELEASES:
                    releases = True
            if releases:
                continue
            for call in acquires:
                if call.lineno in held_across:
                    continue
                yield (
                    call.lineno,
                    call.col_offset,
                    "lock acquired but no release/convert/downgrade appears "
                    "in this function; add one or mark the line "
                    "'# reprolint: held-across -- <why>'",
                )


@register
class BufferBypassRule(Rule):
    """All stable writes must flow through the buffer pool, whose flush
    path enforces the write-ahead rule via its WALHook; writing (or
    reading/erasing) the simulated disk directly skips that check."""

    name = "buffer-bypass"
    description = (
        "no direct SimulatedDisk read/write/erase outside repro/storage "
        "(bypasses the buffer pool's WALHook)"
    )
    include = ("src/",)
    exclude = _STORAGE_PATHS

    _DISK_METHODS = {"write", "read", "erase", "write_page"}
    _DISK_NAMES = {"disk", "_disk"}

    def _is_disk_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._DISK_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self._DISK_NAMES
        return False

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "write_page":
                yield (
                    node.lineno,
                    node.col_offset,
                    "write_page bypasses the buffer pool; use "
                    "buffer.fetch/mark_dirty/flush_page",
                )
            elif func.attr in self._DISK_METHODS and self._is_disk_expr(func.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"direct disk.{func.attr}(...) bypasses the buffer pool "
                    f"and its WAL hook; go through the StorageManager",
                )


@register
class NoRawDiskWriteRule(Rule):
    """The batched-I/O layer made the raw disk a sharper knife: ``write``
    moves the shared head and bills seek/sequential cost, ``read_batch``
    has an ascending-ids contract.  Tests and tools that poke the disk
    directly silently distort those numbers for everything measured after
    them, so raw access is fenced into the storage layer and its own test
    suite; everyone else goes through the StorageManager / BufferPool."""

    name = "no-raw-disk-write"
    description = (
        "no direct SimulatedDisk read/write/erase/read_batch outside the "
        "storage layer and its tests (distorts the shared-head cost model)"
    )
    include = ("src/", "tests/", "tools/")
    exclude = _STORAGE_PATHS + ("tests/storage/",)

    _DISK_METHODS = {"write", "read", "erase", "read_batch"}
    _DISK_NAMES = {"disk", "_disk"}

    def _is_disk_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._DISK_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self._DISK_NAMES
        return False

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in self._DISK_METHODS and self._is_disk_expr(func.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"raw disk.{func.attr}(...) outside the storage layer; "
                    f"it moves the shared disk head and skews the I/O cost "
                    f"model — use the StorageManager/BufferPool",
                )


@register
class BareExceptRule(Rule):
    """A bare ``except:`` swallows CrashPoint / KeyboardInterrupt and hides
    protocol violations; always name the exceptions you mean."""

    name = "bare-except"
    description = "no bare 'except:' clauses anywhere"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    "bare 'except:' — name the exception types "
                    "(a bare clause also swallows CrashPoint)",
                )


@lru_cache(maxsize=8)
def _perf_counter_slots(root: Path) -> frozenset[str]:
    """The registered counter names: PerfCounters.__slots__ in perf.py."""
    perf_py = root / "src" / "repro" / "perf.py"
    if not perf_py.is_file():
        return frozenset()
    tree = ast.parse(perf_py.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PerfCounters":
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    )
                    and isinstance(stmt.value, (ast.Tuple, ast.List))
                ):
                    return frozenset(
                        el.value
                        for el in stmt.value.elts
                        if isinstance(el, ast.Constant) and isinstance(el.value, str)
                    )
    return frozenset()


@register
class PerfCounterRegistryRule(Rule):
    """Counter bumps must hit slots that exist: a typo'd counter name on a
    ``__slots__`` object raises AttributeError — but only on the first hit
    of that code path, which benchmarks may never take."""

    name = "perf-counters"
    description = (
        "repro.perf counter increments only on names registered in "
        "PerfCounters.__slots__"
    )

    _RECEIVERS = {"_COUNTERS", "counters"}

    def _is_counters_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._RECEIVERS
        if isinstance(node, ast.Attribute):
            return node.attr == "counters"
        return False

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        slots = _perf_counter_slots(ctx.root)
        if not slots:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.AugAssign, ast.Assign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and self._is_counters_expr(target.value)
                    and target.attr not in slots
                    and not target.attr.startswith("__")
                ):
                    yield (
                        target.lineno,
                        target.col_offset,
                        f"counter {target.attr!r} is not registered in "
                        f"PerfCounters.__slots__ (src/repro/perf.py)",
                    )


@register
class PublicAnnotationsRule(Rule):
    """The lock manager and the reorganizer are the protocol surface; their
    public signatures must be fully typed so call-site mistakes (a mode
    where a resource goes, a PageId where a key goes) surface in review."""

    name = "public-annotations"
    description = (
        "public functions in repro/reorg/ and repro/locks/ carry full "
        "parameter and return annotations"
    )
    include = ("src/repro/reorg/", "src/repro/locks/")

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        # Only top-level functions and methods: functions nested inside
        # another function are implementation details.
        yield from self._scan(ctx.tree.body)

    def _scan(self, body: list[ast.stmt]) -> Iterator[tuple[int, int, str]]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._scan(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                missing = [
                    arg.arg
                    for arg in (
                        node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                    )
                    if arg.annotation is None and arg.arg not in ("self", "cls")
                ]
                if node.returns is None:
                    missing.append("return")
                if missing:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"public function {node.name!r} is missing type "
                        f"annotations for: {', '.join(missing)}",
                    )


@register
class RSInstantRule(Rule):
    """RS is the paper's unconditional *instant-duration* mode ([Moh90]):
    it is never actually granted, so requesting it without instant=True is
    a protocol error the lock manager only catches at run time."""

    name = "rs-instant"
    description = "every RS lock request passes instant=True"
    include = ("src/",)

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node.func) not in _ACQUIRES:
                continue
            if not any(_mentions_mode(arg, "RS") for arg in node.args):
                continue
            if not _is_true(_keyword(node, "instant")):
                yield (
                    node.lineno,
                    node.col_offset,
                    "RS requested without instant=True; RS is an "
                    "instant-duration mode and is never held",
                )


@register
class MarkDirtyLSNRule(Rule):
    """Dirtying a page without stamping the covering log record's LSN
    breaks the WAL-flush-skip fast path and the redo page-LSN test; only
    the storage layer itself may dirty pages anonymously."""

    name = "mark-dirty-lsn"
    description = (
        "mark_dirty(...) outside repro/storage must pass the covering log "
        "record's LSN"
    )
    include = ("src/",)
    exclude = _STORAGE_PATHS

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node.func) != "mark_dirty":
                continue
            if len(node.args) < 2 and _keyword(node, "lsn") is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    "mark_dirty without an LSN: pass the log record's LSN "
                    "so the page-LSN chain stays intact",
                )


@register
class MarkDirtyFunnelRule(Rule):
    """A clean buffer frame shares the disk's stable image, so a page may
    change only after ``BufferPool.fetch_for_update`` gave the pool a
    private copy.  The do/redo interpreter is that funnel for every logged
    change; dirtying a page anywhere else skips it (the pool raises at run
    time, this rule says so before)."""

    name = "mark-dirty-funnel"
    description = (
        "mark_dirty(...) is called only from repro/storage and "
        "repro/wal/apply.py, behind fetch_for_update"
    )
    include = ("src/",)
    exclude = _STORAGE_PATHS + (_WAL_APPLY,)

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _call_name(node.func) == "mark_dirty":
                yield (
                    node.lineno,
                    node.col_offset,
                    "mark_dirty outside the do/redo interpreter: change "
                    "pages by logging a record and applying it "
                    "(repro.wal.apply), which fetches them for update",
                )


@register
class LockModeLiteralRule(Rule):
    """Lock modes are enum members; string spellings silently miss Table-1
    dispatch (``'X' != LockMode.X``) and dodge the blank-cell check."""

    name = "lockmode-literal"
    description = (
        "no string literals where a LockMode belongs (comparisons against "
        "mode values, LockMode('X') round-trips)"
    )
    include = ("src/",)

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                has_mode_attr = any(
                    isinstance(s, ast.Attribute) and s.attr == "mode" for s in sides
                )
                literal = next(
                    (
                        s
                        for s in sides
                        if isinstance(s, ast.Constant)
                        and s.value in _LOCK_MODE_NAMES
                    ),
                    None,
                )
                if has_mode_attr and literal is not None:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"comparing a lock mode against the string "
                        f"{literal.value!r}; use LockMode.{literal.value}",
                    )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "LockMode"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "constructing LockMode from a string literal; name "
                        "the member directly",
                    )


@register
class SuppressionReasonRule(Rule):
    """Suppressions document accepted risk; an unexplained one is just a
    silenced alarm.  Every directive must end with ``-- <reason>``."""

    name = "suppression-reason"
    description = "every reprolint suppression comment carries a '-- reason'"

    def check(self, ctx: LintContext) -> Iterable[tuple[int, int, str]]:
        for line, text in ctx.suppressions.missing_reason:
            yield (
                line,
                0,
                f"suppression without a reason: {text!r} — append "
                f"'-- <why this is safe>'",
            )


@register
class StaleSuppressionRule(Rule):
    """A suppression that no longer absorbs any finding is a silenced
    alarm for a fire that went out — it hides future regressions on that
    line.  The detection itself lives in the engine (it needs to observe
    every other rule's suppression hits, so it runs after the rule loop,
    and only on full-rule-set runs); this class is the catalogue entry
    and lets the finding be suppressed like any other."""

    name = "stale-suppression"
    description = (
        "suppression whose rule no longer fires on that line (checked on "
        "full-rule-set runs only)"
    )

    def check(self, ctx: LintContext) -> Iterable[tuple[int, int, str]]:
        return ()


@register
class ShardRouterOnlyRule(Rule):
    """Shard isolation is structural: a :class:`ShardHandle` can only reach
    its own tree because all tree access inside ``src/repro/shard/`` flows
    through the handle (``handle.tree()`` / ``BPlusTree.attach`` on the
    leased store).  Calling ``Database.tree()`` from shard internals would
    hand a shard the *unsharded* primary tree — a cross-shard backdoor the
    lease machinery cannot police."""

    name = "shard-router-only"
    description = (
        "no direct Database.tree() access inside src/repro/shard/; go "
        "through the ShardHandle (or the router on the facade)"
    )
    include = ("src/repro/shard/",)

    #: Receiver spellings that denote the underlying Database (as opposed
    #: to a ShardHandle, whose conventional names are handle/h/shard).
    _DB_NAMES = {"db", "database", "_db", "base_db", "parent_db", "Database"}

    def _is_database_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._DB_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self._DB_NAMES
        return False

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr != "tree":
                continue
            if self._is_database_expr(func.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    "Database.tree() called from shard internals; shard "
                    "code must reach trees through its ShardHandle so the "
                    "extent-lease isolation holds",
                )


@register
class TruncateViaCheckpointRule(Rule):
    """The log is cut below one mark only: the section 5 low-water mark
    that :meth:`repro.db.Database.checkpoint` computes from the checkpoint,
    the active transactions' first LSNs, the in-flight units' BEGIN LSNs
    and the running pass 3's stable points.  A ``truncate`` anywhere else
    picks its own mark, and one that misses a term loses records recovery
    still reads — which surfaces only at the next crash."""

    name = "truncate-via-checkpoint"
    description = (
        "LogManager.truncate is called only from repro/db.py (the "
        "checkpoint's low-water mark) and the WAL package"
    )
    include = ("src/",)
    exclude = ("src/repro/db.py", "src/repro/wal/")

    #: Receiver spellings that denote a LogManager.
    _LOG_NAMES = {"log", "_log", "wal", "_wal"}

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr != "truncate":
                continue
            receiver = func.value
            name = receiver.id if isinstance(receiver, ast.Name) else (
                receiver.attr if isinstance(receiver, ast.Attribute) else None
            )
            if name in self._LOG_NAMES:
                yield (
                    node.lineno,
                    node.col_offset,
                    "log.truncate(...) outside the checkpoint; the log is "
                    "cut only at the low-water mark Database.checkpoint "
                    "computes (section 5)",
                )


def _walk_in_function(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own body: lambdas are entered (they execute inline
    in the generator's step), nested ``def``/``class`` are not (they are
    their own lint unit)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


@register
class ChoicePointRegisteredRule(Rule):
    """The reorganizer blocks *through the scheduler*, and only there.

    A synchronous ``locks.request(...)`` / ``locks.convert(...)`` (or a
    wall-clock ``sleep``) anywhere in ``src/repro/reorg/`` bypasses the
    scheduler's choice-point API: the discrete-event clock never advances,
    the explorer (``repro.analysis.explorer``) never sees the blocking
    point, and model-checked traces silently lose coverage.  Every pass is
    a generator that yields ``Acquire``/``Convert``/``Think`` ops instead;
    a synchronous caller drives it with ``run_alone``, not with a lock
    manager of its own.
    """

    name = "choice-point-registered"
    description = (
        "blocking operations in the reorganizer go through scheduler ops "
        "(yield Acquire/Convert/Think), never synchronous lock-manager calls"
    )
    include = ("src/repro/reorg/",)

    _BLOCKING = {"request", "convert"}
    _LM_NAMES = {"locks", "lm", "lock_manager", "_lm"}

    def _is_lock_manager(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in self._LM_NAMES
        if isinstance(node, ast.Name):
            return node.id in self._LM_NAMES
        return False

    def check(self, ctx: LintContext) -> Iterable[tuple[int, int, str]]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _walk_in_function(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = _call_name(node.func)
                if (
                    callee in self._BLOCKING
                    and isinstance(node.func, ast.Attribute)
                    and self._is_lock_manager(node.func.value)
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"synchronous lock-manager .{callee}() in "
                        f"{func.name!r}; yield an "
                        f"{'Acquire' if callee == 'request' else 'Convert'} "
                        f"op so the scheduler registers the choice point",
                    )
                elif callee == "sleep":
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"wall-clock sleep() in {func.name!r}; "
                        f"yield Think(duration) so simulated time advances "
                        f"through the scheduler",
                    )


@register
class GapViaConfigRule(Rule):
    """Leaf gap sizing has exactly one home: the
    :func:`repro.config.leaf_gap_slots` / :func:`repro.config.gapped_leaf_fill`
    helpers.  The builders
    that lay leaves out — bulk load and the pass 2/3 rebuild paths — must
    route every per-leaf record count through those helpers, never
    open-code slack arithmetic: two call sites each computing
    ``leaf_capacity * (1 - fraction)`` with their own rounding is how a
    bulk-loaded tree and a reorganized tree end up with different gaps.
    Flagged in the layout builders: any mention of ``leaf_gap_fraction``
    (only the config helpers may interpret the knob) and any arithmetic on
    ``leaf_capacity`` (a capacity used directly is fine; a capacity summed
    or scaled is a fill computation that belongs in the helpers)."""

    name = "gap-via-config"
    description = (
        "leaf layout builders size gaps only via the TreeConfig helpers "
        "(leaf_gap_slots / gapped_leaf_fill); no literal slack arithmetic"
    )
    include = (
        "src/repro/btree/bulkload.py",
        "src/repro/reorg/compact.py",
        "src/repro/reorg/shrink.py",
    )

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "leaf_gap_fraction"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "layout builders must not interpret 'leaf_gap_fraction' "
                    "themselves; call leaf_gap_slots()/gapped_leaf_fill() "
                    "(repro/config.py) so every builder rounds the gap the "
                    "same way",
                )
            elif isinstance(node, ast.BinOp):
                for operand in (node.left, node.right):
                    if (
                        isinstance(operand, ast.Attribute)
                        and operand.attr == "leaf_capacity"
                    ):
                        yield (
                            node.lineno,
                            node.col_offset,
                            "arithmetic on 'leaf_capacity' in a layout "
                            "builder is an open-coded fill/gap computation; "
                            "route it through gapped_leaf_fill() "
                            "(repro/config.py)",
                        )
                        break


@register
class PinGuardRule(Rule):
    """Pins taken outside a ``try/finally`` or ``with`` survive any
    exception raised before the matching ``unpin``; reproflow proves the
    leak interprocedurally (pin-balance), this hint points at the habit
    that causes it while the function is still on screen."""

    name = "pin-guard"
    description = (
        "fetch(..., pin=True) lexically outside try/finally or with; "
        "advisory — reproflow's pin-balance analysis is the proof"
    )
    include = ("src/",)
    severity = "hint"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        yield from self._scan(ctx.tree, guarded=False)

    def _scan(
        self, node: ast.AST, guarded: bool
    ) -> Iterator[tuple[int, int, str]]:
        for child in ast.iter_child_nodes(node):
            child_guarded = guarded
            if isinstance(child, (ast.With, ast.AsyncWith)):
                child_guarded = True
            elif isinstance(child, (ast.Try, ast.TryStar)) and (
                child.finalbody or child.handlers
            ):
                child_guarded = True
            if (
                not child_guarded
                and isinstance(child, ast.Call)
                and _call_name(child.func) == "fetch"
                and _is_true(_keyword(child, "pin"))
            ):
                yield (
                    child.lineno,
                    child.col_offset,
                    "fetch(..., pin=True) outside try/finally or with; an "
                    "exception before unpin() leaks the pin — reproflow's "
                    "pin-balance analysis checks the exception paths "
                    "interprocedurally",
                )
            yield from self._scan(child, child_guarded)
