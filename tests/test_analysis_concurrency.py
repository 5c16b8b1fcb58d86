"""The concurrency checker, both prongs.

Static: the ``guarded-by`` annotation grammar, the three guarded-by
rules plus the lock-order-cycle project rule on a fixture corpus,
suppression round-trips, and the meta-test that the annotated serving
stack itself lints clean.  Dynamic: the ``REPRO_TSAN`` sanitizer —
instrumented locks, order-inversion detection, guard enforcement and
the Eraser lockset check.

The mutation meta-tests are the point of the subsystem: they re-remove
the ``with self._lock:`` guard from a clone of the *real*
``QueryCache.put`` and assert that each prong mechanically rediscovers
the stale-put race that was originally found by hand.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.analysis import tsan
from repro.analysis.concurrency import (
    CONCURRENCY_RULE_IDS,
    GuardSpecError,
    build_lock_order_graph,
    guard_specs_for_class,
    parse_guard_spec,
)
from repro.analysis.engine import collect_contexts, lint_source
from repro.analysis.findings import Finding
from repro.analysis.lint import EXIT_CLEAN, EXIT_FINDINGS, main
from repro.analysis.rules import all_rule_ids
from repro.analysis.tsan import TsanError

SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
CACHE_PY = os.path.join(SRC_REPRO, "serve", "cache.py")

FUTURE = "from __future__ import annotations\n"


# ----------------------------------------------------------------------
# Annotation grammar
# ----------------------------------------------------------------------
class TestGuardSpecGrammar:
    def test_plain_lock_path(self):
        spec = parse_guard_spec("_lock")
        assert spec.kind == "lock"
        assert spec.path == ("_lock",)
        assert not spec.writes_only

    def test_dotted_lock_path(self):
        spec = parse_guard_spec("publisher.lock")
        assert spec.kind == "lock"
        assert spec.path == ("publisher", "lock")

    def test_writes_only_qualifier(self):
        spec = parse_guard_spec("_lock [writes]")
        assert spec.kind == "lock"
        assert spec.writes_only

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("immutable-after-publish", "immutable"),
            ("thread-local", "thread-local"),
            ("atomic-ref", "atomic"),
        ],
    )
    def test_markers(self, text, kind):
        assert parse_guard_spec(text).kind == kind

    def test_external_guard(self):
        spec = parse_guard_spec("external:QueryCache._lock")
        assert spec.kind == "external"
        assert spec.external == ("QueryCache", "_lock")

    @pytest.mark.parametrize(
        "text",
        [
            "immutable-after-publish [writes]",  # markers take no qualifier
            "external:QueryCache._lock [writes]",
            "external:no_dot",  # must be <Class>.<attr>
            "not a path at all [",
            "",
        ],
    )
    def test_malformed_specs_raise(self, text):
        with pytest.raises(GuardSpecError):
            parse_guard_spec(text)

    def test_guard_specs_for_class_normalizes_aliases(self):
        source = FUTURE + textwrap.dedent(
            """
            import threading

            class Owner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: lock

                @property
                def lock(self):
                    return self._lock
            """
        )
        specs = guard_specs_for_class(source, "Owner")
        # `lock` resolves through the property alias to `_lock`.
        assert specs["count"].path == ("_lock",)


# ----------------------------------------------------------------------
# Rule corpus (scope: serve/, obs/runtime.py)
# ----------------------------------------------------------------------
MISSING_SRC = FUTURE + textwrap.dedent(
    """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1
    """
)

VIOLATION_SRC = FUTURE + textwrap.dedent(
    """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock

        def bump(self):
            self.count += 1
    """
)

INVALID_SRC = FUTURE + textwrap.dedent(
    """
    class Counter:
        def __init__(self):
            self.count = 0  # guarded-by: not a spec [
    """
)

CYCLE_SRC = FUTURE + textwrap.dedent(
    """
    import threading

    class TwoLocks:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()
            self.x = 0  # guarded-by: _a
            self.y = 0  # guarded-by: _b

        def forward(self):
            with self._a:
                with self._b:
                    self.x += 1
                    self.y += 1

        def backward(self):
            with self._b:
                with self._a:
                    self.x += 1
                    self.y += 1
    """
)

CONCURRENCY_CORPUS = [
    ("guarded-by-missing", MISSING_SRC, 8),
    ("guarded-by-violation", VIOLATION_SRC, 11),
    ("guarded-by-invalid", INVALID_SRC, 5),
    ("lock-order-cycle", CYCLE_SRC, 14),
]


@pytest.mark.parametrize(
    "rule,source,line",
    CONCURRENCY_CORPUS,
    ids=[rule for rule, _, _ in CONCURRENCY_CORPUS],
)
class TestConcurrencyCorpus:
    def test_rule_fires_at_expected_line(self, rule, source, line):
        findings = lint_source(source, path="serve/fixture.py", root=None)
        matching = [f for f in findings if f.rule == rule]
        assert matching, f"{rule} did not fire on its fixture"
        assert matching[0].line == line
        # Single-defect corpus: no other concurrency rule fires.
        assert {f.rule for f in findings} == {rule}

    def test_out_of_scope_path_is_exempt(self, rule, source, line):
        # The concurrency rules police the threaded subsystems only.
        findings = lint_source(source, path="kecc/fixture.py", root=None)
        assert [f for f in findings if f.rule in CONCURRENCY_RULE_IDS] == []

    def test_suppression_comment_silences(self, rule, source, line):
        lines = source.splitlines()
        lines[line - 1] += f"  # repro-lint: ignore[{rule}]"
        suppressed = "\n".join(lines) + "\n"
        findings = lint_source(suppressed, path="serve/fixture.py", root=None)
        assert [f for f in findings if f.rule == rule] == []


class TestRuleSemantics:
    def test_lock_kind_guard_satisfied_is_clean(self):
        source = FUTURE + textwrap.dedent(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self.count += 1
            """
        )
        assert lint_source(source, path="serve/fixture.py") == []

    def test_writes_only_guard_allows_bare_reads(self):
        source = FUTURE + textwrap.dedent(
            """
            import threading

            class Gauge:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.level = 0  # guarded-by: _lock [writes]

                def set(self, value):
                    with self._lock:
                        self.level = value

                def peek(self):
                    return self.level
            """
        )
        assert lint_source(source, path="serve/fixture.py") == []

    def test_immutable_marker_flags_post_init_write(self):
        source = FUTURE + textwrap.dedent(
            """
            class Frozen:
                def __init__(self):
                    self.value = 1  # guarded-by: immutable-after-publish

                def clobber(self):
                    self.value = 2
            """
        )
        findings = lint_source(source, path="serve/fixture.py")
        assert [f.rule for f in findings] == ["guarded-by-violation"]
        assert findings[0].line == 8

    def test_method_level_guard_annotation(self):
        source = FUTURE + textwrap.dedent(
            """
            import threading

            class Owner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: _lock

                # guarded-by: _lock
                def _bump_locked(self):
                    self.count += 1

                def bump(self):
                    with self._lock:
                        self._bump_locked()
            """
        )
        assert lint_source(source, path="serve/fixture.py") == []

    def test_calling_guard_requiring_method_without_lock_flagged(self):
        source = FUTURE + textwrap.dedent(
            """
            import threading

            class Owner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: _lock

                # guarded-by: _lock
                def _bump_locked(self):
                    self.count += 1

                def bump(self):
                    self._bump_locked()
            """
        )
        findings = lint_source(source, path="serve/fixture.py")
        assert [f.rule for f in findings] == ["guarded-by-violation"]
        assert findings[0].line == 15

    def test_lock_order_cycle_is_a_warning(self):
        findings = lint_source(CYCLE_SRC, path="serve/fixture.py")
        assert [f.severity for f in findings] == ["warning"]

    def test_consistent_nesting_has_no_cycle(self):
        source = CYCLE_SRC.replace(
            "        with self._b:\n            with self._a:",
            "        with self._a:\n            with self._b:",
        )
        assert lint_source(source, path="serve/fixture.py") == []


# ----------------------------------------------------------------------
# The annotated serving stack itself
# ----------------------------------------------------------------------
class TestRealTree:
    def test_concurrency_lint_on_src_is_clean(self):
        assert main(["--concurrency", SRC_REPRO]) == EXIT_CLEAN

    def test_lock_order_graph_of_serving_stack(self):
        graph = build_lock_order_graph(collect_contexts([SRC_REPRO]))
        assert "QueryCache._lock" in graph["nodes"]
        assert "SnapshotPublisher._lock" in graph["nodes"]
        assert "ServingIndex._inflight_lock" in graph["nodes"]
        # The serving stack never nests one shared lock inside another:
        # an empty order graph is the strongest possible no-deadlock
        # statement the static prong can make.
        assert graph["cycles"] == []

    def test_new_rules_are_registered(self):
        ids = set(all_rule_ids())
        assert CONCURRENCY_RULE_IDS <= ids


# ----------------------------------------------------------------------
# Static mutation meta-test: rediscover the PR-4 stale-put race
# ----------------------------------------------------------------------
def _drop_lock_guard(source: str, class_name: str, method: str) -> str:
    """Remove the ``with self._lock:`` wrapper from one real method.

    The with-line disappears and its body dedents one level — exactly
    the mutation that reintroduces the hand-found race.
    """
    tree = ast.parse(source)
    target = None
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == class_name:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == method:
                    for stmt in fn.body:
                        if isinstance(stmt, ast.With):
                            target = stmt
    assert target is not None, f"no with-block in {class_name}.{method}"
    lines = source.splitlines()
    start, end = target.lineno, target.end_lineno
    body = [
        line[4:] if line.startswith("    ") else line
        for line in lines[start:end]
    ]
    return "\n".join(lines[: start - 1] + body + lines[end:]) + "\n"


class TestStaticMutation:
    def test_unguarded_cache_put_is_flagged(self):
        with open(CACHE_PY) as fh:
            source = fh.read()
        mutated = _drop_lock_guard(source, "QueryCache", "put")
        findings = lint_source(mutated, path="serve/cache.py", root=None)
        violations = [f for f in findings if f.rule == "guarded-by-violation"]
        assert violations, "removing the put lock produced no finding"
        # The store that served stale answers in PR 4 is among them.
        store_line = next(
            i
            for i, line in enumerate(mutated.splitlines(), start=1)
            if "self._entries[key] = CacheEntry(" in line
        )
        assert store_line in {f.line for f in violations}

    def test_unmutated_cache_is_clean(self):
        with open(CACHE_PY) as fh:
            source = fh.read()
        assert lint_source(source, path="serve/cache.py", root=None) == []


# ----------------------------------------------------------------------
# Dynamic prong: the sanitizer itself
# ----------------------------------------------------------------------
@pytest.fixture()
def tsan_enabled():
    tsan.enable()
    try:
        yield
    finally:
        tsan.disable()
        tsan.reset()


class TestSanitizer:
    def test_factories_return_plain_locks_when_disabled(self):
        assert not tsan.enabled()
        lock = tsan.new_lock("t.plain")
        assert not isinstance(lock, tsan.SanitizedLock)

    def test_factories_return_sanitized_locks_when_enabled(self, tsan_enabled):
        lock = tsan.new_lock("t.lock")
        rlock = tsan.new_rlock("t.rlock")
        assert isinstance(lock, tsan.SanitizedLock)
        assert isinstance(rlock, tsan.SanitizedRLock)
        with lock:
            assert lock.locked()
        assert not lock.locked()
        with rlock:
            with rlock:  # reentrant
                pass

    def test_lock_order_inversion_raises(self, tsan_enabled):
        a = tsan.new_lock("inv.A")
        b = tsan.new_lock("inv.B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(TsanError, match="lock-order inversion"):
                a.acquire()

    def test_consistent_order_records_edge(self, tsan_enabled):
        a = tsan.new_lock("ord.A")
        b = tsan.new_lock("ord.B")
        with a:
            with b:
                pass
        graph = tsan.lock_order_graph()
        assert {"from": "ord.A", "to": "ord.B"} in graph["edges"]

    def test_monitored_guard_enforced(self, tsan_enabled):
        specs = {"count": parse_guard_spec("_lock")}

        @tsan.monitored(guards=specs)
        class Counter:
            def __init__(self):
                self._lock = tsan.new_lock("mon.Counter._lock")
                self.count = 0

        counter = Counter()
        with counter._lock:
            counter.count += 1  # guarded: fine
        with pytest.raises(TsanError, match="without holding"):
            counter.count += 1

    def test_monitored_immutable_write_raises(self, tsan_enabled):
        specs = {"value": parse_guard_spec("immutable-after-publish")}

        @tsan.monitored(guards=specs)
        class Box:
            def __init__(self):
                self.value = 1

        box = Box()
        assert box.value == 1  # reads are free
        with pytest.raises(TsanError, match="immutable-after-publish"):
            box.value = 2

    def test_eraser_lockset_violation_across_threads(self, tsan_enabled):
        specs = {"gen": parse_guard_spec("external:Owner._lock")}

        @tsan.monitored(guards=specs)
        class Entry:
            def __init__(self):
                self.gen = 0

        entry = Entry()
        lock_a = tsan.new_lock("eraser.A")
        lock_b = tsan.new_lock("eraser.B")
        with lock_a:
            entry.gen += 1  # seeds the lockset with {A}
        errors = []

        def other_thread():
            try:
                with lock_b:
                    entry.gen += 1  # {A} & {B} is empty, 2 threads
            except TsanError as exc:
                errors.append(exc)

        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join()
        assert len(errors) == 1
        assert "lockset violation" in str(errors[0])

    def test_eraser_lockset_common_lock_is_clean(self, tsan_enabled):
        specs = {"gen": parse_guard_spec("external:Owner._lock")}

        @tsan.monitored(guards=specs)
        class Entry:
            def __init__(self):
                self.gen = 0

        entry = Entry()
        lock = tsan.new_lock("eraser.common")
        with lock:
            entry.gen += 1

        def other_thread():
            with lock:
                entry.gen += 1

        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join()
        with lock:
            assert entry.gen == 2

    def test_monitored_is_identity_when_disabled(self):
        assert not tsan.enabled()

        class Plain:
            def __init__(self):
                self.value = 1

        decorated = tsan.monitored(guards={"value": parse_guard_spec("x")})(
            Plain
        )
        assert decorated is Plain


# ----------------------------------------------------------------------
# Dynamic mutation meta-test: the sanitizer catches the same mutation
# ----------------------------------------------------------------------
class TestDynamicMutation:
    def test_sanitizer_catches_unguarded_cache_put(self, tmp_path, tsan_enabled):
        with open(CACHE_PY) as fh:
            source = fh.read()
        mutated = _drop_lock_guard(source, "QueryCache", "put")
        module_path = tmp_path / "cache_mutated_tsan.py"
        module_path.write_text(mutated)
        spec = importlib.util.spec_from_file_location(
            "cache_mutated_tsan", str(module_path)
        )
        module = importlib.util.module_from_spec(spec)
        # Insert before exec: the monitored decorator reads the guard
        # annotations back out of sys.modules via inspect.getsource.
        sys.modules["cache_mutated_tsan"] = module
        try:
            spec.loader.exec_module(module)
            cache = module.QueryCache(capacity=4)
            with pytest.raises(TsanError):
                cache.put(("sc", (1, 2), None), 3, generation=0)
        finally:
            del sys.modules["cache_mutated_tsan"]

    def test_unmutated_cache_runs_clean_under_sanitizer(
        self, tmp_path, tsan_enabled
    ):
        with open(CACHE_PY) as fh:
            source = fh.read()
        module_path = tmp_path / "cache_clean_tsan.py"
        module_path.write_text(source)
        spec = importlib.util.spec_from_file_location(
            "cache_clean_tsan", str(module_path)
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules["cache_clean_tsan"] = module
        try:
            spec.loader.exec_module(module)
            cache = module.QueryCache(capacity=4)
            key = ("sc", (1, 2), None)
            cache.put(key, 3, generation=0, touch=frozenset({1, 2}))
            entry = cache.get(key, generation=0)
            assert entry is not None and entry.value == 3
            cache.advance(1, affected=frozenset({9}))
            assert cache.get(key, generation=1).value == 3
        finally:
            del sys.modules["cache_clean_tsan"]


# ----------------------------------------------------------------------
# Severity + CLI plumbing
# ----------------------------------------------------------------------
class TestSeverity:
    def test_error_renders_without_marker(self):
        finding = Finding("x.py", 3, 0, "some-rule", "boom")
        assert finding.render() == "x.py:3:1: [some-rule] boom"
        assert finding.to_dict()["severity"] == "error"

    def test_warning_renders_with_marker(self):
        finding = Finding("x.py", 3, 0, "some-rule", "boom", severity="warning")
        assert finding.render() == "x.py:3:1: warning [some-rule] boom"
        assert finding.to_dict()["severity"] == "warning"


class TestCLI:
    def _warning_only_tree(self, tmp_path):
        serve = tmp_path / "serve"
        serve.mkdir()
        (serve / "fixture.py").write_text(CYCLE_SRC)
        return str(tmp_path)

    def test_fail_on_error_exempts_warnings(self, tmp_path, capsys):
        root = self._warning_only_tree(tmp_path)
        assert main(["--concurrency", root]) == EXIT_FINDINGS
        capsys.readouterr()
        assert main(["--concurrency", "--fail-on", "error", root]) == EXIT_CLEAN
        out = capsys.readouterr().out
        # Warnings are still printed, they just stop failing the run.
        assert "warning [lock-order-cycle]" in out

    def test_lock_graph_artifact(self, tmp_path, capsys):
        root = self._warning_only_tree(tmp_path)
        graph_path = tmp_path / "graph.json"
        main(["--concurrency", "--lock-graph", str(graph_path), root])
        capsys.readouterr()
        graph = json.loads(graph_path.read_text())
        assert "TwoLocks._a" in graph["nodes"]
        assert graph["cycles"] == [["TwoLocks._a", "TwoLocks._b"]]
        assert any(
            edge["from"] == "TwoLocks._a" and edge["to"] == "TwoLocks._b"
            for edge in graph["edges"]
        )

    def test_rules_flag_accepts_concurrency_ids(self, tmp_path, capsys):
        root = self._warning_only_tree(tmp_path)
        assert main(["--rules", "lock-order-cycle", root]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "[lock-order-cycle]" in out

    def test_end_to_end_tsan_subprocess(self):
        """REPRO_TSAN=1 wires the sanitizer in from a cold start."""
        script = (
            "from repro.analysis import tsan\n"
            "from repro.serve.cache import QueryCache\n"
            "assert tsan.enabled()\n"
            "cache = QueryCache(capacity=4)\n"
            "assert isinstance(cache._lock, tsan.SanitizedLock)\n"
            "cache.put(('sc', (1,), None), 7, generation=0)\n"
            "print('tsan-ok')\n"
        )
        env = dict(os.environ)
        env["REPRO_TSAN"] = "1"
        env["PYTHONPATH"] = os.path.abspath(
            os.path.join(SRC_REPRO, os.pardir)
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "tsan-ok" in result.stdout
