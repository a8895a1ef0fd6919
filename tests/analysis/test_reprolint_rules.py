"""Every reprolint rule fires on a seeded violation and stays quiet on the
corresponding clean idiom; suppression directives work as documented."""

import json
import subprocess
import sys
import textwrap

import pytest

from tests.analysis.conftest import REPO_ROOT

from reprolint.engine import all_rules, lint_source


def findings_for(path: str, source: str, *rules: str):
    return lint_source(
        path,
        textwrap.dedent(source),
        root=REPO_ROOT,
        rules=list(rules) or None,
    )


def rule_names(findings) -> set:
    return {f.rule for f in findings}


# -- page-internals -----------------------------------------------------------


class TestPageInternals:
    def test_fires_on_private_container_access(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def corrupt(page, record):
                page._records.append(record)
            """,
            "page-internals",
        )
        assert rule_names(found) == {"page-internals"}

    def test_fires_on_page_field_assignment(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def relink(leaf, other):
                leaf.next_leaf = other.page_id
            """,
            "page-internals",
        )
        assert rule_names(found) == {"page-internals"}

    def test_quiet_inside_storage_layer_and_wal_apply(self):
        source = """
        def mutate(page, record):
            page._records.append(record)
        """
        for path in ("src/repro/storage/seeded.py", "src/repro/wal/apply.py"):
            assert findings_for(path, source, "page-internals") == []

    def test_quiet_on_self_access(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            class Thing:
                def mutate(self, record):
                    self._records.append(record)
            """,
            "page-internals",
        )
        assert found == []


# -- lock-release-pairing -----------------------------------------------------


class TestLockReleasePairing:
    def test_fires_on_unpaired_request(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def grab(lm, owner, resource, mode):
                lm.request(owner, resource, mode)
            """,
            "lock-release-pairing",
        )
        assert rule_names(found) == {"lock-release-pairing"}

    def test_quiet_when_released_in_same_function(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def grab(lm, owner, resource, mode):
                lm.request(owner, resource, mode)
                lm.release(owner, resource, mode)
            """,
            "lock-release-pairing",
        )
        assert found == []

    def test_quiet_on_instant_requests(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def backoff(lm, owner, resource, mode):
                lm.request(owner, resource, mode, instant=True)
            """,
            "lock-release-pairing",
        )
        assert found == []

    def test_held_across_escape(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def grab(lm, owner, resource, mode):
                lm.request(owner, resource, mode)  # reprolint: held-across -- released by caller at unit end
            """,
            "lock-release-pairing",
        )
        assert found == []

    def test_quiet_when_conversion_present(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def upgrade(lm, owner, resource, s_mode, x_mode):
                lm.request(owner, resource, s_mode)
                lm.convert(owner, resource, x_mode)
            """,
            "lock-release-pairing",
        )
        assert found == []


# -- buffer-bypass ------------------------------------------------------------


class TestBufferBypass:
    def test_fires_on_direct_disk_write(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def stomp(disk, page):
                disk.write(page)
            """,
            "buffer-bypass",
        )
        assert rule_names(found) == {"buffer-bypass"}

    def test_fires_on_write_page(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def stomp(store, page):
                store.write_page(page)
            """,
            "buffer-bypass",
        )
        assert rule_names(found) == {"buffer-bypass"}

    def test_quiet_inside_storage_layer(self):
        found = findings_for(
            "src/repro/storage/seeded.py",
            """
            def flush(self, frame):
                self._disk.write(frame.page)
            """,
            "buffer-bypass",
        )
        assert found == []


# -- no-raw-disk-write --------------------------------------------------------


class TestNoRawDiskWrite:
    def test_fires_in_tests_outside_storage(self):
        found = findings_for(
            "tests/reorg/test_seeded.py",
            """
            def test_stomp(db, page):
                db.store.disk.write(page)
            """,
            "no-raw-disk-write",
        )
        assert rule_names(found) == {"no-raw-disk-write"}

    def test_fires_on_raw_batch_read_in_tools(self):
        found = findings_for(
            "tools/seeded_probe.py",
            """
            def probe(disk, ids):
                return disk.read_batch(ids)
            """,
            "no-raw-disk-write",
        )
        assert rule_names(found) == {"no-raw-disk-write"}

    def test_quiet_in_storage_tests(self):
        found = findings_for(
            "tests/storage/test_seeded.py",
            """
            def test_roundtrip(disk, page):
                disk.write(page)
                return disk.read(page.page_id)
            """,
            "no-raw-disk-write",
        )
        assert found == []

    def test_quiet_on_buffer_pool_idiom(self):
        found = findings_for(
            "tests/reorg/test_seeded.py",
            """
            def test_fetch(store, pid):
                return store.buffer.fetch(pid)
            """,
            "no-raw-disk-write",
        )
        assert found == []

    def test_suppression_with_reason_accepted(self):
        found = findings_for(
            "tests/analysis/test_seeded.py",
            """
            def test_catch(db, page):
                db.store.disk.write(page)  # reprolint: disable=no-raw-disk-write -- the raw write is the point
            """,
            "no-raw-disk-write",
        )
        assert found == []


# -- bare-except --------------------------------------------------------------


class TestBareExcept:
    def test_fires_everywhere_even_tests(self):
        source = """
        def swallow(fn):
            try:
                fn()
            except:
                pass
        """
        assert rule_names(
            findings_for("tests/seeded.py", source, "bare-except")
        ) == {"bare-except"}
        assert rule_names(
            findings_for("src/repro/seeded.py", source, "bare-except")
        ) == {"bare-except"}

    def test_quiet_on_typed_except(self):
        found = findings_for(
            "src/repro/seeded.py",
            """
            def swallow(fn):
                try:
                    fn()
                except ValueError:
                    pass
            """,
            "bare-except",
        )
        assert found == []


# -- perf-counters ------------------------------------------------------------


class TestPerfCounters:
    def test_fires_on_unregistered_counter(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def bump(_COUNTERS):
                _COUNTERS.nonexistent_counter += 1
            """,
            "perf-counters",
        )
        assert rule_names(found) == {"perf-counters"}

    def test_quiet_on_registered_counter(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def bump(_COUNTERS):
                _COUNTERS.buffer_hits += 1
            """,
            "perf-counters",
        )
        assert found == []

    def test_registry_is_read_from_perf_py(self):
        # Sanity-check the cross-file fact the rule depends on.
        from reprolint.rules import _perf_counter_slots

        slots = _perf_counter_slots(REPO_ROOT)
        assert "buffer_hits" in slots
        assert "wal_flush_skips" in slots
        assert "nonexistent_counter" not in slots


# -- public-annotations -------------------------------------------------------


class TestPublicAnnotations:
    def test_fires_on_unannotated_public_function(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def run_pass(during_scan=None):
                return during_scan
            """,
            "public-annotations",
        )
        assert rule_names(found) == {"public-annotations"}

    def test_quiet_on_private_nested_and_annotated(self):
        found = findings_for(
            "src/repro/locks/seeded.py",
            """
            def _helper(x):
                def nested(y):
                    return y
                return nested(x)

            class Manager:
                def release(self, owner: object, resource: object) -> None:
                    pass
            """,
            "public-annotations",
        )
        assert found == []

    def test_scoped_to_reorg_and_locks_only(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def run_pass(during_scan=None):
                return during_scan
            """,
            "public-annotations",
        )
        assert found == []


# -- rs-instant ---------------------------------------------------------------


class TestRSInstant:
    def test_fires_on_durable_rs(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def backoff(lm, owner, base):
                lm.request(owner, base, LockMode.RS)
            """,
            "rs-instant",
        )
        assert rule_names(found) >= {"rs-instant"}

    def test_fires_on_acquire_op_too(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def protocol(base):
                yield Acquire(base, RS)
            """,
            "rs-instant",
        )
        assert rule_names(found) == {"rs-instant"}

    def test_quiet_with_instant_true(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def protocol(base):
                yield Acquire(base, RS, instant=True)
            """,
            "rs-instant",
        )
        assert found == []


# -- mark-dirty-lsn -----------------------------------------------------------


class TestMarkDirtyLSN:
    def test_fires_without_lsn(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def dirty(store, pid):
                store.mark_dirty(pid)
            """,
            "mark-dirty-lsn",
        )
        assert rule_names(found) == {"mark-dirty-lsn"}

    def test_quiet_with_lsn(self):
        source = """
        def dirty(store, pid, lsn):
            store.mark_dirty(pid, lsn)
            store.mark_dirty(pid, lsn=lsn)
        """
        assert findings_for(
            "src/repro/btree/seeded.py", source, "mark-dirty-lsn"
        ) == []

    def test_quiet_inside_storage(self):
        found = findings_for(
            "src/repro/storage/seeded.py",
            """
            def dirty(self, pid):
                self.buffer.mark_dirty(pid)
            """,
            "mark-dirty-lsn",
        )
        assert found == []


# -- mark-dirty-funnel ----------------------------------------------------------


class TestMarkDirtyFunnel:
    def test_fires_outside_storage_and_wal_apply(self):
        source = """
        def dirty(store, pid, lsn):
            page = store.buffer.fetch_for_update(pid)
            store.mark_dirty(pid, lsn)
        """
        for path in ("src/repro/btree/seeded.py", "src/repro/shard/seeded.py"):
            found = findings_for(path, source, "mark-dirty-funnel")
            assert rule_names(found) == {"mark-dirty-funnel"}
            assert found[0].line == 4

    def test_quiet_inside_storage_and_wal_apply(self):
        source = """
        def dirty(store, pid, lsn):
            store.mark_dirty(pid, lsn)
        """
        for path in ("src/repro/storage/seeded.py", "src/repro/wal/apply.py"):
            assert findings_for(path, source, "mark-dirty-funnel") == []

    def test_quiet_on_a_bound_shadow(self):
        found = findings_for(
            "src/repro/shard/seeded.py",
            """
            class Facade:
                def __init__(self, base):
                    self.mark_dirty = base.buffer.mark_dirty
            """,
            "mark-dirty-funnel",
        )
        assert found == []


# -- lockmode-literal ---------------------------------------------------------


class TestLockModeLiteral:
    def test_fires_on_string_mode_compare(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def is_exclusive(request):
                return request.mode == "X"
            """,
            "lockmode-literal",
        )
        assert rule_names(found) == {"lockmode-literal"}

    def test_fires_on_string_construction(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def parse(LockMode):
                return LockMode("RX")
            """,
            "lockmode-literal",
        )
        assert rule_names(found) == {"lockmode-literal"}

    def test_quiet_on_member_compare(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def is_exclusive(request, LockMode):
                return request.mode is LockMode.X
            """,
            "lockmode-literal",
        )
        assert found == []


# -- suppression-reason -------------------------------------------------------


class TestSuppressionReason:
    def test_fires_on_reasonless_directive(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def swallow(fn):
                try:
                    fn()
                except:  # reprolint: disable=bare-except
                    pass
            """,
            "bare-except",
            "suppression-reason",
        )
        # The disable still works, but the missing reason is flagged.
        assert rule_names(found) == {"suppression-reason"}

    def test_quiet_with_reason(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def swallow(fn):
                try:
                    fn()
                except:  # reprolint: disable=bare-except -- fuzz harness must survive anything
                    pass
            """,
            "bare-except",
            "suppression-reason",
        )
        assert found == []


# -- choice-point-registered --------------------------------------------------


class TestChoicePointRegistered:
    def test_fires_on_direct_lock_request_in_reorg_generator(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def pass1(self):
                for page_id in self.plan:
                    self.db.locks.request(self.txn, ("page", page_id), LockMode.RS)
                    yield Think(self.unit_pause)
            """,
            "choice-point-registered",
        )
        assert rule_names(found) == {"choice-point-registered"}
        assert "Acquire" in found[0].message

    def test_fires_on_convert_and_sleep(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def pass3(self):
                lm = self.db.locks
                lm.convert(self.txn, ("tree", "primary"), LockMode.RX)
                time.sleep(self.unit_pause)
                yield ReleaseAll()
            """,
            "choice-point-registered",
        )
        assert len(found) == 2
        assert rule_names(found) == {"choice-point-registered"}

    def test_quiet_on_yielded_ops(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def pass1(self):
                for page_id in self.plan:
                    yield Acquire(("page", page_id), LockMode.RS)
                    yield Think(self.unit_pause)
                yield Convert(("tree", "primary"), LockMode.RX)
            """,
            "choice-point-registered",
        )
        assert found == []

    def test_fires_in_synchronous_helpers(self):
        # No synchronous code in the reorganizer takes a lock: forward
        # recovery and the synchronous passes drive the generators with
        # run_alone, so a direct lock-manager call anywhere is a finding.
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def forward_recover(self, report):
                self.db.locks.request(self.txn, ("tree", "primary"), LockMode.X)
            """,
            "choice-point-registered",
        )
        assert rule_names(found) == {"choice-point-registered"}

    def test_quiet_outside_reorg_package(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def walker(self):
                self.db.locks.request(self.txn, ("page", 1), LockMode.S)
                yield Think(0.1)
            """,
            "choice-point-registered",
        )
        assert found == []

    def test_suppression_with_reason_works(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def pass1(self):
                self.db.locks.request(self.txn, ("page", 1), LockMode.RS)  # reprolint: disable=choice-point-registered -- instant-grant RS probe
                yield Think(0.1)
            """,
            "choice-point-registered",
            "suppression-reason",
        )
        assert found == []


# -- shard-router-only --------------------------------------------------------


class TestShardRouterOnly:
    def test_fires_on_database_tree_call(self):
        found = findings_for(
            "src/repro/shard/seeded.py",
            """
            def leak(db):
                return db.tree()
            """,
            "shard-router-only",
        )
        assert rule_names(found) == {"shard-router-only"}

    def test_fires_on_attribute_receiver(self):
        found = findings_for(
            "src/repro/shard/seeded.py",
            """
            class Facade:
                def leak(self):
                    return self._db.tree("primary")
            """,
            "shard-router-only",
        )
        assert rule_names(found) == {"shard-router-only"}

    def test_quiet_on_handle_access_and_attach(self):
        found = findings_for(
            "src/repro/shard/seeded.py",
            """
            def route(handle, store, log):
                tree = handle.tree()
                other = BPlusTree.attach(store, log, name="shard0")
                return tree, other
            """,
            "shard-router-only",
        )
        assert found == []

    def test_scoped_to_shard_package_only(self):
        source = """
        def fine(db):
            return db.tree()
        """
        for path in ("src/repro/sim/seeded.py", "tests/shard/seeded.py"):
            assert findings_for(path, source, "shard-router-only") == []

    def test_shard_package_is_clean(self):
        from reprolint.engine import lint_paths

        found = lint_paths(
            ["src/repro/shard"], root=REPO_ROOT, rules=["shard-router-only"]
        )
        assert found == []


# -- truncate-via-checkpoint --------------------------------------------------


class TestTruncateViaCheckpoint:
    def test_fires_on_truncate_outside_the_checkpoint(self):
        found = findings_for(
            "src/repro/sim/seeded.py",
            """
            def reclaim(db, lsn):
                db.log.truncate(lsn)
            """,
            "truncate-via-checkpoint",
        )
        assert rule_names(found) == {"truncate-via-checkpoint"}

    def test_fires_on_a_bare_log_receiver(self):
        found = findings_for(
            "src/repro/reorg/seeded.py",
            """
            def reclaim(log):
                return log.truncate(log.last_checkpoint_lsn)
            """,
            "truncate-via-checkpoint",
        )
        assert rule_names(found) == {"truncate-via-checkpoint"}

    def test_quiet_in_the_checkpoint_and_the_wal_package(self):
        source = """
        def checkpoint(self, lsn):
            self.log.truncate(lsn)
        """
        for path in ("src/repro/db.py", "src/repro/wal/log.py", "tests/wal/seeded.py"):
            assert findings_for(path, source, "truncate-via-checkpoint") == []

    def test_quiet_on_other_truncates(self):
        found = findings_for(
            "src/repro/sim/seeded.py",
            """
            def rewind(handle):
                handle.truncate(0)
            """,
            "truncate-via-checkpoint",
        )
        assert found == []

    def test_src_tree_is_clean(self):
        from reprolint.engine import lint_paths

        found = lint_paths(["src"], root=REPO_ROOT, rules=["truncate-via-checkpoint"])
        assert found == []


# -- engine behaviour ---------------------------------------------------------


class TestEngine:
    def test_syntax_error_is_a_finding_not_a_crash(self):
        found = findings_for("src/repro/broken.py", "def broken(:\n")
        assert rule_names(found) == {"syntax-error"}

    def test_disable_file_suppresses_everywhere(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            # reprolint: disable-file=bare-except -- seeded corpus file
            def swallow(fn):
                try:
                    fn()
                except:
                    pass
            """,
            "bare-except",
        )
        assert found == []

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            findings_for("src/repro/x.py", "x = 1\n", "no-such-rule")

    def test_catalogue_has_at_least_eight_rules(self):
        names = {rule.name for rule in all_rules()}
        assert len(names) >= 8
        assert {
            "page-internals",
            "lock-release-pairing",
            "buffer-bypass",
            "bare-except",
            "perf-counters",
            "public-annotations",
        } <= names

    def test_findings_sorted_and_serializable(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def bad(disk, page, store, pid):
                store.mark_dirty(pid)
                disk.write(page)
            """,
        )
        assert [f.line for f in found] == sorted(f.line for f in found)
        for finding in found:
            as_dict = finding.to_dict()
            assert set(as_dict) == {
                "rule", "path", "line", "col", "message", "severity",
            }
            assert str(finding).startswith("src/repro/btree/seeded.py:")


# -- stale-suppression --------------------------------------------------------


class TestStaleSuppression:
    def test_stale_line_suppression_is_flagged(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def tidy():
                return 1  # reprolint: disable=bare-except -- left over
            """,
        )
        assert rule_names(found) == {"stale-suppression"}
        assert "bare-except" in found[0].message
        assert found[0].line == 3

    def test_live_line_suppression_stays_quiet(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def swallow(fn):
                try:
                    fn()
                except:  # reprolint: disable=bare-except -- must survive
                    pass
            """,
        )
        assert found == []

    def test_half_stale_directive_names_only_the_dead_rule(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def swallow(fn):
                try:
                    fn()
                except:  # reprolint: disable=bare-except,buffer-bypass -- one lives
                    pass
            """,
        )
        assert rule_names(found) == {"stale-suppression"}
        assert "buffer-bypass" in found[0].message
        assert "bare-except" not in found[0].message

    def test_stale_bare_disable_mentions_any_rule(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def tidy():
                return 1  # reprolint: disable -- blanket silence
            """,
        )
        assert rule_names(found) == {"stale-suppression"}
        assert "any rule" in found[0].message

    def test_stale_file_wide_suppression_points_at_the_directive(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            # reprolint: disable-file=bare-except -- corpus file, allegedly
            def tidy():
                return 1
            """,
        )
        assert rule_names(found) == {"stale-suppression"}
        assert found[0].line == 2
        assert "file-wide" in found[0].message

    def test_live_file_wide_suppression_stays_quiet(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            # reprolint: disable-file=bare-except -- seeded corpus file
            def swallow(fn):
                try:
                    fn()
                except:
                    pass
            """,
        )
        assert found == []

    def test_partial_rule_runs_never_judge_staleness(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def tidy():
                return 1  # reprolint: disable=bare-except -- left over
            """,
            "bare-except",
        )
        assert found == [], (
            "a deselected rule not firing is not evidence of staleness"
        )

    def test_held_across_escape_is_never_stale(self):
        found = findings_for(
            "src/repro/wal/seeded.py",
            """
            def pass1_start(self):
                yield Acquire(("page", 1), LockMode.RX)  # reprolint: held-across -- released by pass 3
            """,
        )
        assert found == [], (
            "held-across is consumed inside lock-release-pairing; the "
            "engine cannot observe its use and must not flag it"
        )

    def test_stale_finding_is_itself_suppressible(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def tidy():
                return 1  # reprolint: disable=bare-except,stale-suppression -- kept for a pending revert
            """,
        )
        assert found == []

    def test_stale_suppression_is_in_the_catalogue(self):
        assert "stale-suppression" in {rule.name for rule in all_rules()}


# -- CLI ----------------------------------------------------------------------


class TestCLI:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "reprolint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "tools", "PATH": "/usr/bin:/bin"},
        )

    def test_exit_zero_on_clean_file(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def fine() -> int:\n    return 1\n")
        proc = self._run(str(clean))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exit_one_and_json_on_findings(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("try:\n    pass\nexcept:\n    pass\n")
        proc = self._run("--json", str(dirty))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload and payload[0]["rule"] == "bare-except"

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        assert "page-internals" in proc.stdout


# -- pin-guard ----------------------------------------------------------------


class TestPinGuard:
    def test_fires_on_unguarded_pinned_fetch(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def scan(pool, pid):
                page = pool.fetch(pid, pin=True)
                return page.records()
            """,
            "pin-guard",
        )
        assert rule_names(found) == {"pin-guard"}
        (finding,) = found
        assert finding.severity == "hint"
        assert "reproflow" in finding.message
        assert ":hint]" in str(finding)

    def test_quiet_under_try_finally(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def scan(pool, pid):
                page = pool.fetch(pid, pin=True)
                try:
                    return page.records()
                finally:
                    pool.unpin(pid)
            """,
            "pin-guard",
        )
        # Only the fetch *before* the try is flagged: the guarded idiom is
        # fetch inside the try (or a with block), unpin in the finally.
        assert rule_names(found) == {"pin-guard"}
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def scan(pool, pid):
                try:
                    page = pool.fetch(pid, pin=True)
                    return page.records()
                finally:
                    pool.unpin(pid)
            """,
            "pin-guard",
        )
        assert found == []

    def test_quiet_inside_with(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def scan(pool, pid):
                with pool.pinned(pid):
                    page = pool.fetch(pid, pin=True)
                    return page.records()
            """,
            "pin-guard",
        )
        assert found == []

    def test_quiet_on_unpinned_fetch(self):
        found = findings_for(
            "src/repro/btree/seeded.py",
            """
            def scan(pool, pid):
                page = pool.fetch(pid)
                return page.records()
            """,
            "pin-guard",
        )
        assert found == []

    def test_hint_does_not_gate_the_cli(self):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "src" / "repro"
            tree.mkdir(parents=True)
            (tree / "seeded.py").write_text(
                "def scan(pool, pid):\n"
                "    return pool.fetch(pid, pin=True)\n"
            )
            proc = subprocess.run(
                [sys.executable, "-m", "reprolint", "--json", "src"],
                cwd=tmp,
                env={"PYTHONPATH": str(REPO_ROOT / "tools"), "PATH": "/usr/bin:/bin"},
                capture_output=True,
                text=True,
            )
        payload = json.loads(proc.stdout)
        hints = [f for f in payload if f["rule"] == "pin-guard"]
        assert hints and all(f["severity"] == "hint" for f in hints)
        assert proc.returncode == 0


# -- gap-via-config -----------------------------------------------------------


class TestGapViaConfig:
    def test_fires_on_direct_gap_fraction_use(self):
        found = findings_for(
            "src/repro/btree/bulkload.py",
            """
            def leaf_budget(config):
                return int(config.leaf_capacity * (1 - config.leaf_gap_fraction))
            """,
            "gap-via-config",
        )
        assert rule_names(found) == {"gap-via-config"}
        assert len(found) == 2  # the knob read and the capacity arithmetic

    def test_fires_on_capacity_arithmetic_in_rebuild(self):
        found = findings_for(
            "src/repro/reorg/compact.py",
            """
            def target_records(self, fill):
                return self.db.store.config.leaf_capacity - 4
            """,
            "gap-via-config",
        )
        assert rule_names(found) == {"gap-via-config"}

    def test_quiet_on_helper_calls(self):
        found = findings_for(
            "src/repro/reorg/shrink.py",
            """
            from repro.config import gapped_leaf_fill, leaf_gap_slots

            def target_records(config, fill):
                if leaf_gap_slots(config) > 0:
                    return gapped_leaf_fill(config, fill)
                return gapped_leaf_fill(config, 1.0)
            """,
            "gap-via-config",
        )
        assert found == []

    def test_quiet_on_plain_capacity_reads(self):
        found = findings_for(
            "src/repro/btree/bulkload.py",
            """
            def fits(config, n):
                return n <= config.leaf_capacity
            """,
            "gap-via-config",
        )
        assert found == []

    def test_quiet_outside_layout_builders(self):
        source = """
        def slack(config):
            return config.leaf_capacity * config.leaf_gap_fraction
        """
        for path in (
            "src/repro/config.py",  # the helpers' own home
            "src/repro/btree/tree.py",
            "tools/reprolint/rules.py",
        ):
            assert findings_for(path, source, "gap-via-config") == []

    def test_layout_builders_are_clean(self):
        from reprolint.engine import lint_paths

        found = lint_paths(
            ["src/repro/btree/bulkload.py", "src/repro/reorg"],
            root=REPO_ROOT,
            rules=["gap-via-config"],
        )
        assert found == []
