"""Bounded schedule-exploration model checker for the reorg protocols.

The discrete-event scheduler is a pure function of spawn times, operation
costs and lock state, so a concurrency experiment normally exercises *one*
interleaving.  This module turns the scheduler into a model checker that
enumerates interleavings and asserts invariants on every one — the
systematic-concurrency-testing analogue of the PR-2 runtime sanitizer.

How it works
============

Two controlled **choice points** are injected through the hooks the
production code exposes (and never pays for when detached):

* ``Scheduler.pick_next`` — at every event boundary, *which* pending event
  runs next (not just the earliest-timestamped one);
* ``LockManager.grant_order`` — when a wait queue with more than one entry
  is dispatched, which waiter is considered first.

A whole scenario is re-executed from scratch for every explored schedule
(stateless model checking); a schedule is identified by its **trace** — the
dot-separated list of choices taken at every choice point with more than
one option (see :func:`format_trace`).  Exploration is a DFS over trace
prefixes with two reductions:

* **state-hash pruning** — alternatives below an already-expanded lock/
  process/log fingerprint are skipped (heuristic: fingerprints abstract
  the full state; disable with ``hash_pruning=False``);
* a **DPOR-style independence filter** — an alternative is skipped when
  the step it would promote touches lock resources and pages disjoint
  from every step it would commute past (heuristic: footprints are
  derived from lock calls and logged page ids; steps with *no* recorded
  footprint are conservatively treated as dependent; disable with
  ``dpor=False``).

At every explored state the enabled **invariants**
(:mod:`repro.analysis.invariants`) are checked; a violation aborts that
schedule and is reported with its replayable trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.db import Database
from repro.txn.scheduler import Scheduler

#: Trace-format version tag; bump on any change to choice-point placement.
TRACE_VERSION = "t1"

#: Safety valve: maximum recorded choice points in one schedule.
_MAX_CHOICE_POINTS = 100_000


class InvariantViolation(Exception):
    """An invariant failed at an explored state.

    Deliberately *not* a :class:`~repro.errors.ReproError`: protocol code
    catches those, and a violation must always reach the explorer.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message


class TraceError(ValueError):
    """A trace string is malformed or does not fit the scenario."""


def format_trace(choices: Sequence[int]) -> str:
    """Render a choice list as a compact replayable trace string."""
    body = ".".join(str(c) for c in choices) if choices else "-"
    return f"{TRACE_VERSION}:{body}"


def parse_trace(text: str) -> list[int]:
    """Inverse of :func:`format_trace`; raises :class:`TraceError`."""
    text = text.strip()
    prefix = f"{TRACE_VERSION}:"
    if not text.startswith(prefix):
        raise TraceError(
            f"trace must start with {prefix!r} (got {text[:8]!r})"
        )
    body = text[len(prefix):]
    if body == "-":
        return []
    try:
        choices = [int(part) for part in body.split(".")]
    except ValueError as err:
        raise TraceError(f"malformed trace body {body!r}: {err}") from None
    if any(c < 0 for c in choices):
        raise TraceError(f"negative choice in trace {text!r}")
    return choices


@dataclass
class World:
    """Everything a scenario run exposes to the invariant suite."""

    db: Database
    scheduler: Scheduler
    tree_name: str = "primary"
    #: Keys present when the scenario starts (sequential-model baseline).
    initial_keys: frozenset[int] = frozenset()
    #: txn name -> key, for point lookups whose results are checked.
    reads: dict[str, int] = field(default_factory=dict)
    #: txn name -> (low, high), for range scans whose results are checked.
    scans: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: txn name -> ("insert" | "delete", key).
    writes: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: Exception types a process may legitimately die with.
    expected_failures: tuple[type[BaseException], ...] = ()
    #: Custom driver (crash scenarios); ``None`` = ``scheduler.run()``.
    drive: Callable[["World"], None] | None = None
    #: Scratch space for invariants (memoised LSNs etc.).
    notes: dict[str, Any] = field(default_factory=dict)

    def tree(self):
        return self.db.tree(self.tree_name)


@dataclass(frozen=True)
class Scenario:
    """A named, deterministically re-buildable concurrency experiment."""

    name: str
    description: str
    build: Callable[[], World]
    #: Invariant names to check; () = every registered invariant.
    invariants: tuple[str, ...] = ()


@dataclass
class Violation:
    """One invariant failure, with the trace that reproduces it."""

    invariant: str
    message: str
    trace: str
    scenario: str = ""

    def to_dict(self) -> dict[str, str]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "trace": self.trace,
            "scenario": self.scenario,
        }


@dataclass
class RunOutcome:
    """Everything recorded while executing one schedule."""

    #: Choice taken at each recorded (arity > 1) choice point.
    choices: list[int]
    #: Number of options at each recorded choice point.
    arities: list[int]
    #: "event" or "grant" per recorded choice point.
    kinds: list[str]
    #: For event choices: the option event keys; None for grant choices.
    event_options: list[list[tuple] | None]
    #: For event choices: state fingerprint before the choice; else None.
    fingerprints: list[int | None]
    #: For event choices: index into ``exec_log`` of the chosen event.
    choice_exec_index: list[int]
    #: Executed events in order: (event key, lock/page footprint).
    exec_log: list[tuple[tuple, frozenset]]
    violation: Violation | None
    world: World
    events: int

    @property
    def trace(self) -> str:
        return format_trace(self.choices)


class _Recorder:
    """Choice-point policy + instrumentation for ONE schedule execution.

    Plays back a *script* (list of ints) at the choice points it meets, in
    order; past the end of the script it always picks choice 0 (for event
    picks that is the earliest ``(time, seq)`` event — the native
    schedule).  Records every choice with arity > 1 so the completed run's
    full trace replays deterministically.
    """

    def __init__(
        self,
        world: World,
        script: Sequence[int],
        state_checks: Sequence[tuple[str, Callable[[World], None]]],
        *,
        check_victim_policy: bool = True,
        strict: bool = False,
    ):
        self.world = world
        self.script = list(script)
        self.state_checks = list(state_checks)
        self.check_victim_policy = check_victim_policy
        #: Strict mode (trace replay): a scripted choice that exceeds the
        #: arity actually met is a TraceError instead of silently clamped.
        self.strict = strict
        self.choices: list[int] = []
        self.arities: list[int] = []
        self.kinds: list[str] = []
        self.event_options: list[list[tuple] | None] = []
        self.fingerprints: list[int | None] = []
        self.choice_exec_index: list[int] = []
        self.exec_log: list[tuple[tuple, frozenset]] = []
        self.events = 0
        self._steps: dict[str, int] = {}
        self._pending_key: tuple | None = None
        self._pending_foot: set = set()

    # -- choice plumbing -----------------------------------------------------

    def _next_choice(self, arity: int, kind: str) -> int:
        depth = len(self.choices)
        if depth >= _MAX_CHOICE_POINTS:
            raise TraceError(
                f"schedule exceeded {_MAX_CHOICE_POINTS} choice points"
            )
        choice = self.script[depth] if depth < len(self.script) else 0
        if choice >= arity:
            if self.strict:
                raise TraceError(
                    f"trace choice {choice} at depth {depth} but only "
                    f"{arity} options ({kind} point) — trace does not fit "
                    f"this scenario/build"
                )
            choice = 0
        self.choices.append(choice)
        self.arities.append(arity)
        self.kinds.append(kind)
        return choice

    # -- Scheduler.pick_next hook ---------------------------------------------

    def pick_next(self, options: list[tuple]) -> int:
        # The state reached by the previous event is now complete.
        self._flush_exec()
        self._check_state()
        keys = [self._event_key(event) for event in options]
        if len(options) == 1:
            choice = 0
        else:
            fingerprint = self._fingerprint()
            self.choice_exec_index.append(len(self.exec_log))
            choice = self._next_choice(len(options), "event")
            self.event_options.append(keys)
            self.fingerprints.append(fingerprint)
        key = keys[choice]
        self._pending_key = key
        self.events += 1
        return choice

    def _event_key(self, event: tuple) -> tuple:
        """(process name, per-process step index) for a pending event.

        Every heap entry carries the process it wakes; the key is stable
        across runs taking the same choices, unlike heap sequence numbers.
        """
        name = event[2].txn.name
        return (name, self._steps.get(name, 0))

    def _flush_exec(self) -> None:
        if self._pending_key is None:
            return
        key = self._pending_key
        self.exec_log.append((key, frozenset(self._pending_foot)))
        self._steps[key[0]] = key[1] + 1
        self._pending_key = None
        self._pending_foot = set()

    # -- LockManager hooks ----------------------------------------------------

    def grant_order(self, resource, queue):
        choice = self._next_choice(len(queue), "grant")
        if choice == 0:
            reordered = queue
        else:
            reordered = [queue[choice]] + queue[:choice] + queue[choice + 1:]
        self.event_options.append(None)
        self.fingerprints.append(None)
        self.choice_exec_index.append(-1)
        return reordered

    def on_victim(self, cycle, victim) -> None:
        if not self.check_victim_policy:
            return
        if any(getattr(owner, "is_reorganizer", False) for owner in cycle) and (
            not getattr(victim, "is_reorganizer", False)
        ):
            names = ", ".join(getattr(o, "name", repr(o)) for o in cycle)
            raise InvariantViolation(
                "victim-policy",
                f"deadlock cycle [{names}] contains the reorganizer but "
                f"{getattr(victim, 'name', victim)!r} was chosen as victim",
            )

    # -- footprint instrumentation --------------------------------------------

    def touch(self, token) -> None:
        self._pending_foot.add(token)

    def instrument(self) -> None:
        """Shadow lock-manager/log mutators with footprint-recording
        wrappers (instance attributes; the classes stay untouched)."""
        lm = self.world.db.locks
        for name in ("request", "convert", "release", "downgrade"):
            original = getattr(lm, name)

            def wrapped(owner, resource, *args, _orig=original, **kwargs):
                self.touch(resource)
                return _orig(owner, resource, *args, **kwargs)

            setattr(lm, name, wrapped)

        orig_release_all = lm.release_all

        def release_all(owner):
            for resource in lm.owned_resources(owner):
                self.touch(resource)
            return orig_release_all(owner)

        lm.release_all = release_all

        orig_cancel = lm.cancel_wait

        def cancel_wait(owner):
            request = lm.waiting_request(owner)
            if request is not None:
                self.touch(request.resource)
            return orig_cancel(owner)

        lm.cancel_wait = cancel_wait

        log = self.world.db.log
        orig_append = log.append

        def append(record):
            page_id = getattr(record, "page_id", None)
            # Records without a page id (switch, checkpoint, done) act as
            # global serialization tokens: conservatively dependent.
            self.touch(("page", page_id) if page_id is not None else ("wal-global",))
            return orig_append(record)

        log.append = append

    # -- state checks ----------------------------------------------------------

    def _check_state(self) -> None:
        for _name, check in self.state_checks:
            check(self.world)

    def _fingerprint(self) -> int:
        """Abstraction of the state: lock table + queues + process phase +
        log position.  Used only to prune re-expansion of equivalent
        states; collisions merely under-explore (heuristic)."""
        lm = self.world.db.locks
        holders = tuple(sorted(
            (
                repr(resource),
                getattr(owner, "name", repr(owner)),
                tuple(sorted(
                    (mode.value, count)
                    for mode, count in counts.items() if count > 0
                )),
            )
            for resource, held in lm._holders.items()
            for owner, counts in held.items()
        ))
        queues = tuple(sorted(
            (
                repr(resource),
                tuple(
                    (
                        getattr(req.owner, "name", repr(req.owner)),
                        req.mode.value,
                        req.instant,
                        req.convert_from.value if req.convert_from else "",
                    )
                    for req in queue
                ),
            )
            for resource, queue in lm._queues.items()
        ))
        processes = tuple(
            (
                proc.txn.name,
                proc.done,
                proc.waiting_since is not None,
                self._steps.get(proc.txn.name, 0),
            )
            for proc in self.world.scheduler._processes.values()
        )
        return hash((holders, queues, processes, self.world.db.log.last_lsn))


@dataclass
class ExplorationResult:
    """Summary of one bounded exploration."""

    scenario: str
    schedules_run: int = 0
    distinct_schedules: int = 0
    choice_points: int = 0
    max_depth: int = 0
    pruned_by_hash: int = 0
    pruned_by_independence: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: True when the frontier emptied before the schedule budget ran out
    #: (the bounded state space was exhausted).
    frontier_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "schedules_run": self.schedules_run,
            "distinct_schedules": self.distinct_schedules,
            "choice_points": self.choice_points,
            "max_depth": self.max_depth,
            "pruned_by_hash": self.pruned_by_hash,
            "pruned_by_independence": self.pruned_by_independence,
            "frontier_exhausted": self.frontier_exhausted,
            "violations": [v.to_dict() for v in self.violations],
        }


class Explorer:
    """DFS over schedule-trace prefixes with pruning and invariants."""

    def __init__(
        self,
        *,
        invariants: Iterable[str] | None = None,
        dpor: bool = True,
        hash_pruning: bool = True,
    ):
        from repro.analysis import invariants as inv

        self.invariant_set = inv.get(invariants)
        self.dpor = dpor
        self.hash_pruning = hash_pruning

    # -- single-schedule execution ---------------------------------------------

    def execute(
        self, scenario: Scenario, script: Sequence[int] = (), *, strict: bool = False
    ) -> RunOutcome:
        """Run one schedule of ``scenario`` following ``script`` (default
        choice 0 past its end) and check invariants along the way."""
        names = scenario.invariants or None
        from repro.analysis import invariants as inv

        enabled = (
            self.invariant_set if names is None else inv.get(names)
        )
        state_checks = [
            (i.name, i.check) for i in enabled if i.scope == "state"
        ]
        final_checks = [
            (i.name, i.check) for i in enabled if i.scope == "final"
        ]
        check_victim = any(i.name == "victim-policy" for i in enabled)

        world = scenario.build()
        recorder = _Recorder(
            world, script, state_checks,
            check_victim_policy=check_victim, strict=strict,
        )
        world.scheduler.pick_next = recorder.pick_next
        world.db.locks.grant_order = recorder.grant_order
        world.db.locks.on_victim = recorder.on_victim
        recorder.instrument()

        violation: Violation | None = None
        try:
            if world.drive is not None:
                world.drive(world)
            else:
                world.scheduler.run()
            recorder._flush_exec()
            recorder._check_state()
            for name, check in final_checks:
                check(world)
        except InvariantViolation as err:
            violation = Violation(
                invariant=err.invariant,
                message=err.message,
                trace=format_trace(recorder.choices),
                scenario=scenario.name,
            )
        except TraceError:
            raise
        except Exception as err:  # a schedule that crashes IS a finding
            violation = Violation(
                invariant="no-runtime-error",
                message=f"{type(err).__name__}: {err}",
                trace=format_trace(recorder.choices),
                scenario=scenario.name,
            )
        finally:
            # Close abandoned generators now (crashed or violating runs
            # leave processes mid-flight).  Their ``finally: yield
            # ReleaseAll()`` blocks would otherwise fire "generator ignored
            # GeneratorExit" warnings at GC time.
            for process in world.scheduler._processes.values():
                if not process.done:
                    try:
                        process.gen.close()
                    except RuntimeError:
                        pass
        if strict and violation is None and len(script) > len(recorder.choices):
            raise TraceError(
                f"trace has {len(script)} choices but the run met only "
                f"{len(recorder.choices)} choice points"
            )
        return RunOutcome(
            choices=recorder.choices,
            arities=recorder.arities,
            kinds=recorder.kinds,
            event_options=recorder.event_options,
            fingerprints=recorder.fingerprints,
            choice_exec_index=recorder.choice_exec_index,
            exec_log=recorder.exec_log,
            violation=violation,
            world=world,
            events=recorder.events,
        )

    def replay(self, scenario: Scenario, trace: str | Sequence[int]) -> RunOutcome:
        """Deterministically re-run one schedule from its trace string."""
        script = parse_trace(trace) if isinstance(trace, str) else list(trace)
        return self.execute(scenario, script, strict=True)

    # -- exploration ------------------------------------------------------------

    def explore(
        self,
        scenario: Scenario,
        *,
        max_schedules: int = 1000,
        seed_trace: str | Sequence[int] | None = None,
        stop_on_first_violation: bool = False,
        max_violations: int = 25,
    ) -> ExplorationResult:
        """Bounded DFS over schedules of ``scenario``.

        Starts from ``seed_trace`` (default: the native schedule) and
        expands alternative choices depth-first, pruning via state hashes
        and the independence filter.
        """
        result = ExplorationResult(scenario=scenario.name)
        if seed_trace is None:
            seed: list[int] = []
        elif isinstance(seed_trace, str):
            seed = parse_trace(seed_trace)
        else:
            seed = list(seed_trace)
        frontier: list[list[int]] = [seed]
        distinct: set[tuple[int, ...]] = set()
        expanded: set[int] = set()
        while frontier and result.schedules_run < max_schedules:
            prefix = frontier.pop()
            run = self.execute(scenario, prefix)
            result.schedules_run += 1
            result.choice_points += len(run.choices)
            result.max_depth = max(result.max_depth, len(run.choices))
            distinct.add(tuple(run.choices))
            if run.violation is not None:
                result.violations.append(run.violation)
                if (
                    stop_on_first_violation
                    or len(result.violations) >= max_violations
                ):
                    break
            for depth in range(len(prefix), len(run.choices)):
                arity = run.arities[depth]
                if arity <= 1:
                    continue
                if run.kinds[depth] == "event":
                    fingerprint = run.fingerprints[depth]
                    if self.hash_pruning and fingerprint is not None:
                        if fingerprint in expanded:
                            result.pruned_by_hash += arity - 1
                            continue
                        expanded.add(fingerprint)
                for alternative in range(1, arity):
                    if (
                        self.dpor
                        and run.kinds[depth] == "event"
                        and self._independent(run, depth, alternative)
                    ):
                        result.pruned_by_independence += 1
                        continue
                    frontier.append(run.choices[:depth] + [alternative])
        result.distinct_schedules = len(distinct)
        result.frontier_exhausted = not frontier
        return result

    @staticmethod
    def _independent(run: RunOutcome, depth: int, alternative: int) -> bool:
        """True when promoting ``alternative`` at ``depth`` provably
        commutes with every step it would jump ahead of (disjoint nonempty
        footprints), so the reordered schedule is equivalent to one already
        explored.  Conservative: unknown (empty) footprints never prune."""
        options = run.event_options[depth]
        if options is None:
            return False
        alt_key = options[alternative]
        start = run.choice_exec_index[depth]
        if start < 0:
            return False
        for index in range(start, len(run.exec_log)):
            if run.exec_log[index][0] == alt_key:
                alt_foot = run.exec_log[index][1]
                if not alt_foot:
                    return False
                for key_foot in run.exec_log[start:index]:
                    foot = key_foot[1]
                    if not foot or (foot & alt_foot):
                        return False
                return True
        # The alternative never executed under this schedule (blocked,
        # aborted, ...): cannot establish independence.
        return False
