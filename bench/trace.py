"""Span tracer for the traced run: class-level wrappers installed from here.

Nothing in ``src/`` knows about this file.  :func:`install` replaces the
public methods listed in :func:`_targets` on their *classes*, and must run
before any ``Database`` is constructed: ``StorageManager.__init__`` binds
``self.get = self.buffer.fetch`` once, so an instance built earlier keeps
the untraced function (the same constraint ``analysis/sanitizer.install``
documents).  :func:`uninstall` puts the originals back.

Two kinds of record, so memory stays bounded:

* every call is folded into an accumulator per (layer, method, parent
  layer): calls, total time, self time, direct child calls;
* *coarse* boundaries — tree op, user transaction, reorg unit, pass,
  recovery phase, scheduler run — are also kept as full spans (id, parent
  span, root span, name, layer, start, end), capped at ``max_spans``.

Recording happens only inside a measured phase (:meth:`Tracer.root`), so
fixture builds and oracle checks stay out of the table.  Self time is a
call's duration minus the time its traced children cover, so the raw self
times (``traced_self_s``) of one phase sum to its traced wall time.  The
wrappers themselves cost time: ``self_s`` is the raw figure minus the
per-call wrapper cost :func:`calibrate` measures on a no-op (the part
inside the callee's window from the callee, the rest from its caller),
then scaled so the column sums to the untraced wall of the same phase
(:meth:`Tracer.set_overhead`).
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Any, Callable

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, max_spans: int = 20_000):
        #: Open frames, innermost last: [layer, child_ns, child_calls].
        #: Empty outside a measured phase, and then nothing is recorded.
        self.stack: list[list] = []
        #: Ids of the open coarse spans, innermost last.
        self.span_stack: list[int] = []
        #: (layer, name, parent layer) -> [calls, total_ns, self_ns, child_calls]
        self.agg: dict[tuple[str, str, str], list[int]] = {}
        #: (id, parent id, root id, name, layer, start_ns, end_ns, busy_ns)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.max_spans = max_spans
        self._ids = itertools.count(1)
        self._roots: dict[int, int] = {}
        #: Per-call wrapper cost in ns that falls inside the callee's own
        #: timed window / outside it (charged to the caller); :func:`calibrate`.
        self.cost_in_ns = 0.0
        self.cost_out_ns = 0.0
        #: Factor that makes the adjusted self times sum to the untraced
        #: wall of the same phase; :meth:`set_overhead`.
        self.scale = 1.0

    # -- recording -----------------------------------------------------------

    def slot(self, layer: str, name: str, parent_layer: str) -> list[int]:
        return self.agg.setdefault((layer, name, parent_layer), [0, 0, 0, 0])

    def open_span(self) -> tuple[int, int]:
        span_id = next(self._ids)
        parent_id = self.span_stack[-1] if self.span_stack else 0
        self._roots[span_id] = self._roots.get(parent_id, span_id)
        return span_id, parent_id

    def close_span(
        self, span_id: int, parent_id: int, name: str, layer: str,
        start: int, end: int, busy: int,
    ) -> None:
        root = self._roots.pop(span_id)
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (span_id, parent_id, root, name, layer, start, end, busy)
            )
        else:
            self.spans_dropped += 1

    # -- wrappers ------------------------------------------------------------

    def root(self, phase: Callable, name: str = "phase") -> Callable:
        """Wrap a measured phase: the one frame every other frame nests in
        (layer ``bench`` — its self time is the benchmark's own loop)."""
        stack, span_stack = self.stack, self.span_stack

        def traced_phase():
            frame = ["bench", 0, 0]
            stack.append(frame)
            span_id, parent_id = self.open_span()
            span_stack.append(span_id)
            t0 = _now()
            try:
                return phase()
            finally:
                dt = _now() - t0
                span_stack.pop()
                stack.pop()
                slot = self.slot("bench", name, "")
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[1]
                slot[3] += frame[2]
                self.close_span(span_id, parent_id, name, "bench", t0, t0 + dt, dt)

        return traced_phase

    def wrap(self, fn: Callable, layer: str, name: str, coarse: bool) -> Callable:
        """Trace a plain function or method (a no-op outside a phase)."""
        stack, span_stack = self.stack, self.span_stack
        open_span, close_span = self.open_span, self.close_span
        slots: dict[str, list[int]] = {}  # parent layer -> accumulator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, 0, 0]
            stack.append(frame)
            if coarse:
                span_id, parent_id = open_span()
                span_stack.append(span_id)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                stack.pop()
                parent[1] += dt
                parent[2] += 1
                slot = slots.get(parent[0])
                if slot is None:
                    slot = slots[parent[0]] = self.slot(layer, name, parent[0])
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[1]
                slot[3] += frame[2]
                if coarse:
                    span_stack.pop()
                    close_span(span_id, parent_id, name, layer, t0, t0 + dt, dt)

        return traced

    def wrap_generator(self, gen, layer: str, name: str):
        """Trace a protocol generator: each resumption is one timed frame,
        the generator's whole life one coarse span (``busy`` = the sum of
        its resumptions; start/end bracket them on the wall clock, where
        other processes of the DES interleave)."""
        stack, span_stack = self.stack, self.span_stack
        span_id = 0
        parent_id = 0
        started = 0
        busy = 0
        send_value: Any = None
        throw: BaseException | None = None
        try:
            while True:
                parent = stack[-1] if stack else ["", 0, 0]
                frame = [layer, 0, 0]
                stack.append(frame)
                if not span_id:
                    span_id, parent_id = self.open_span()
                    started = _now()
                span_stack.append(span_id)
                t0 = _now()
                try:
                    if throw is not None:
                        exc, throw = throw, None
                        op = gen.throw(exc)
                    else:
                        op = gen.send(send_value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    dt = _now() - t0
                    busy += dt
                    span_stack.pop()
                    stack.pop()
                    parent[1] += dt
                    parent[2] += 1
                    slot = self.slot(layer, name, parent[0])
                    slot[0] += 1
                    slot[1] += dt
                    slot[2] += dt - frame[1]
                    slot[3] += frame[2]
                send_value = None
                try:
                    send_value = yield op
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in by the scheduler: forward it
                    throw = exc
        finally:
            if span_id:
                self.close_span(
                    span_id, parent_id, name, layer, started, _now(), busy
                )

    def wrap_generator_method(self, fn: Callable, layer: str, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.wrap_generator(fn(*args, **kwargs), layer, name)

        return traced

    # -- reporting -----------------------------------------------------------

    def set_overhead(self, untraced_wall_s: float) -> None:
        """What the calibrated per-call cost does not explain of the gap
        between the traced and the untraced wall (colder caches, mostly) is
        spread in proportion to time: the adjusted self times are scaled to
        sum to the untraced wall of the same phase."""
        self.scale = 1.0
        total = sum(
            self._adjusted(calls, self_ns, children)
            for calls, _total, self_ns, children in self.agg.values()
        )
        if total > 0:
            self.scale = untraced_wall_s * 1e9 / total

    def _adjusted(self, calls: int, self_ns: int, children: int) -> float:
        own = self_ns - calls * self.cost_in_ns - children * self.cost_out_ns
        return max(0.0, own) * self.scale

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, raw and overhead-adjusted self seconds."""
        table: dict[str, dict[str, float]] = {}
        for (layer, _name, _parent), (calls, _total, self_ns, children) in self.agg.items():
            row = table.setdefault(
                layer, {"calls": 0, "traced_self_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += calls
            row["traced_self_s"] += self_ns / 1e9
            row["self_s"] += self._adjusted(calls, self_ns, children) / 1e9
        total = sum(row["self_s"] for row in table.values()) or 1.0
        for row in table.values():
            row["share"] = row["self_s"] / total
        return table

    def method_totals(
        self, layer: str, names: tuple[str, ...]
    ) -> tuple[int, float, float]:
        """(calls, adjusted self seconds, total seconds) of some methods."""
        calls = 0
        self_s = total_s = 0.0
        for (lyr, name, _parent), (n, total, self_ns, children) in self.agg.items():
            if lyr == layer and name in names:
                calls += n
                self_s += self._adjusted(n, self_ns, children) / 1e9
                total_s += total / 1e9
        return calls, self_s, total_s

    def dump(self) -> dict:
        return {
            "span_fields": [
                "id", "parent", "root", "name", "layer",
                "start_ns", "end_ns", "busy_ns",
            ],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "wrapper_cost_ns": {"in": self.cost_in_ns, "out": self.cost_out_ns},
            "self_time_scale": self.scale,
            "aggregates": [
                {
                    "layer": layer, "name": name, "parent_layer": parent,
                    "calls": calls, "total_ns": total, "self_ns": self_ns,
                    "child_calls": children,
                }
                for (layer, name, parent), (calls, total, self_ns, children)
                in sorted(self.agg.items())
            ],
        }


def calibrate(tracer: Tracer, calls: int = 50_000) -> None:
    """Measure what one wrapper costs inside and outside the callee's own
    timed window, on a one-argument no-op method."""

    class Probe:
        def noop(self, arg):
            return None

    probe = Probe()
    plain = probe.noop
    wrapped = tracer.wrap(Probe.noop, "calibrate", "noop", coarse=False)
    t0 = _now()
    for _ in range(calls):
        plain(1)
    base = _now() - t0

    def loop():
        for _ in range(calls):
            wrapped(probe, 1)

    t0 = _now()
    tracer.root(loop, "calibrate")()
    total = _now() - t0
    inside = tracer.agg[("calibrate", "noop", "bench")][1]
    per_call = max(0.0, (total - base) / calls)
    tracer.cost_in_ns = min(per_call, inside / calls)
    tracer.cost_out_ns = per_call - tracer.cost_in_ns
    tracer.agg.clear()
    tracer.spans.clear()


def _targets() -> list[tuple[type, str, str, str, bool]]:
    """(class, method, layer, kind, coarse) for every wrapped public method."""
    from repro.btree.tree import BPlusTree
    from repro.locks.manager import LockManager
    from repro.reorg import placement
    from repro.reorg.protocols import ReorgProtocol
    from repro.reorg.reorganizer import Reorganizer
    from repro.reorg.shrink import TreeShrinker
    from repro.reorg.switch import Switcher
    from repro.reorg.unit import UnitEngine
    from repro.shard.router import ShardRouter
    from repro.storage.allocator import FreeSpaceMap
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import SimulatedDisk
    from repro.storage.page import InternalPage, LeafPage
    from repro.txn.scheduler import Scheduler
    from repro.wal.log import LogManager
    from repro.wal.recovery import RecoveryManager

    fn, gen = "fn", "gen"
    targets: list[tuple[type, str, str, str, bool]] = []

    def add(cls, layer, names, *, kind=fn, coarse=False):
        targets.extend((cls, name, layer, kind, coarse) for name in names)

    add(BPlusTree, "btree.tree", ("search", "insert", "delete", "range_scan"), coarse=True)
    add(BPlusTree, "btree.tree", ("leaf_ids_in_key_order",))
    add(LeafPage, "storage.page", ("find", "insert", "delete", "records_in_range", "clone"))
    add(InternalPage, "storage.page",
        ("child_for", "route_for", "insert_entry", "remove_entry_for_child",
         "update_entry", "clone"))
    add(BufferPool, "storage.buffer",
        ("fetch", "put_new", "mark_dirty", "flush_page", "flush_all"))
    add(SimulatedDisk, "storage.disk", ("read", "read_batch", "write"))
    add(FreeSpaceMap, "storage.allocator",
        ("allocate", "allocate_in_lease", "first_free", "first_free_in_range",
         "first_free_run", "first_free_in_lease", "nearest_free"))
    add(LockManager, "locks.manager", ("request", "convert", "release", "release_all"))
    add(LogManager, "wal.log", ("append", "flush"))
    add(RecoveryManager, "wal.recovery", ("run",), coarse=True)
    add(Scheduler, "txn.scheduler", ("run",), coarse=True)
    add(Scheduler, "txn.scheduler", ("spawn",))
    add(Reorganizer, "reorg.compact", ("run_pass1",), coarse=True)
    add(Reorganizer, "reorg.swap", ("run_pass2",), coarse=True)
    add(Reorganizer, "reorg.shrink", ("run_pass3",), coarse=True)
    add(Reorganizer, "wal.recovery", ("forward_recover",), coarse=True)
    add(ReorgProtocol, "reorg.protocols", ("pass1", "pass2", "pass3"), kind=gen)
    add(UnitEngine, "reorg.unit",
        ("compact_unit", "compact_unit_multi", "move_unit", "swap_unit",
         "finish_unit", "undo_unit", "rollback_unit"), coarse=True)
    add(UnitEngine, "reorg.unit",
        ("begin_compact", "complete_compact", "begin_compact_multi",
         "complete_compact_multi", "begin_swap", "complete_swap"))
    add(TreeShrinker, "reorg.shrink", ("scan", "build_upper", "catch_up"), coarse=True)
    add(Switcher, "reorg.switch", ("run", "finish_pending_switch"), coarse=True)
    add(ShardRouter, "shard.router", ("shard_for",))
    for cls in (placement.PlacementPolicy, placement.KeyOrderPolicy,
                placement.VebPolicy, placement.NoPlacementPolicy):
        add(cls, "reorg.placement",
            [n for n in ("leaf_slots", "pass1_preference", "pass3_plan")
             if n in cls.__dict__])
    add(placement.Pass3Plan, "reorg.placement", ("resolve",))
    return targets


#: Methods that complete one reorganization unit (``unit.calls``).
UNIT_COMPLETIONS = (
    "complete_compact", "complete_compact_multi", "complete_swap", "finish_unit",
)

_installed: list[tuple[type, str, Any]] = []


def install(tracer: Tracer) -> None:
    if _installed:
        raise RuntimeError("trace already installed")
    for cls, name, layer, kind, coarse in _targets():
        original = cls.__dict__[name]
        if kind == "gen":
            wrapped = tracer.wrap_generator_method(original, layer, name)
        else:
            wrapped = tracer.wrap(original, layer, name, coarse)
        _installed.append((cls, name, original))
        setattr(cls, name, wrapped)


def uninstall() -> None:
    while _installed:
        cls, name, original = _installed.pop()
        setattr(cls, name, original)
