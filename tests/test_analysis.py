"""The static invariant analyzer: framework, every rule, and the gate.

Three tiers:

* framework units — suppression parsing, finding round-trips, baseline
  semantics, the parsed project model;
* per-rule true positives against the fixture mini-packages under
  ``tests/fixtures/analysis/`` (each tree is a package literally named
  ``repro`` so the rules' real-tree defaults apply; the trees are
  parsed, never imported);
* the meta-gate — the real tree analyzes clean, and deliberately
  injecting one violation per rule into a temp-dir copy trips exactly
  that rule at the expected file:line.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import load_project, run_check
from repro.analysis.checker import all_checkers
from repro.analysis.findings import (
    Finding,
    parse_suppressions,
    severity_at_least,
)
from repro.analysis.report import load_baseline, to_json_payload
from repro.api.registry import CHECKERS, RegistryError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"
REAL_TREE = Path(__file__).resolve().parent.parent / "src" / "repro"
RULES = ("determinism", "layering", "spans")


def fixture_root(rule):
    return str(FIXTURES / rule / "repro")


def check_fixture(rule, **kwargs):
    return run_check(root=fixture_root(rule), rules=[rule], **kwargs)


def by_rule(result, rule):
    return [f for f in result.active if f.rule == rule]


# ----------------------------------------------------------------------
# Framework units
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_inline_same_line(self):
        sup, = parse_suppressions(
            "x = wall()  # repro: allow[determinism] telemetry\n"
        )
        assert sup.covers("determinism", 1)
        assert not sup.covers("determinism", 2)   # not comment-only
        assert not sup.covers("layering", 1)
        assert sup.reason == "telemetry"

    def test_comment_only_blesses_next_line(self):
        source = "# repro: allow[layering] wired up lazily\nx = 1\n"
        sup, = parse_suppressions(source)
        assert sup.comment_only
        assert sup.covers("layering", 1) and sup.covers("layering", 2)
        assert not sup.covers("layering", 3)

    def test_multiple_rules_in_one_marker(self):
        sup, = parse_suppressions("y = f()  # repro: allow[a, b]\n")
        assert sup.rules == frozenset({"a", "b"})


class TestFinding:
    def test_json_round_trip(self):
        finding = Finding(
            path="repro/x.py", line=3, rule="spans", severity="warning",
            message="m", suppressed=True,
        )
        assert Finding.from_json_dict(finding.to_json_dict()) == finding

    def test_severity_validated(self):
        with pytest.raises(ValueError):
            Finding(path="p", line=1, rule="r", severity="fatal",
                    message="m")

    def test_severity_ordering(self):
        assert severity_at_least("error", "warning")
        assert severity_at_least("warning", "warning")
        assert not severity_at_least("warning", "error")

    def test_active_excludes_suppressed_and_baselined(self):
        finding = Finding(path="p", line=1, rule="r", severity="error",
                          message="m")
        assert finding.active
        assert not finding.with_flags(suppressed=True).active
        assert not finding.with_flags(baselined=True).active


class TestProjectModel:
    def test_relative_imports_resolve(self):
        project = load_project(fixture_root("layering"))
        trainer = project.get("repro.core.trainer")
        assert any(e.target == "repro.analysis" for e in trainer.imports)
        assert trainer.origins["alpha"] == "repro.analysis.alpha"

    def test_deferred_imports_marked(self):
        project = load_project(fixture_root("layering"))
        beta = project.get("repro.analysis.beta")
        deferred = [e for e in beta.imports if e.deferred]
        assert len(deferred) == 1
        assert deferred[0].target == "repro.analysis.alpha"

    def test_non_package_root_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_project(str(tmp_path))


class TestCheckerRegistry:
    def test_all_rules_registered(self):
        assert set(RULES) <= set(CHECKERS.names())
        for name in RULES:
            checker = CHECKERS.get(name)()
            assert checker.rule == name
            assert checker.description

    def test_unknown_rule_lists_available(self):
        with pytest.raises(RegistryError, match="determinism"):
            all_checkers(["nosuch"])


# ----------------------------------------------------------------------
# Per-rule true positives (fixture trees)
# ----------------------------------------------------------------------

class TestDeterminismRule:
    def test_every_bad_idiom_flagged(self):
        result = check_fixture("determinism")
        flagged = {f.line for f in by_rule(result, "determinism")
                   if f.path == "repro/sim.py"}
        # time.time / perf_counter / bare monotonic ref / np global RNG
        # / stdlib singleton / unseeded default_rng
        assert flagged == {9, 10, 11, 12, 13, 14}

    def test_seeded_rngs_pass(self):
        result = check_fixture("determinism")
        good = {16, 17}  # default_rng(7), random.Random(3)
        assert not good & {f.line for f in result.findings
                           if f.path == "repro/sim.py"}

    def test_console_seam_allowlisted(self):
        result = check_fixture("determinism")
        assert not [f for f in result.findings
                    if f.path == "repro/obs/console.py"]

    def test_strict_virtual_plane_bans_the_seam(self):
        result = check_fixture("determinism")
        engine = [f for f in by_rule(result, "determinism")
                  if f.path == "repro/serve/engine.py"]
        assert len(engine) == 1 and engine[0].line == 5
        assert "wall_clock_s" in engine[0].message

    def test_inline_suppression_mutes_but_reports(self):
        result = check_fixture("determinism")
        suppressed = [f for f in result.findings
                      if f.path == "repro/sim.py" and f.line == 18]
        assert len(suppressed) == 1
        assert suppressed[0].suppressed and not suppressed[0].active


class TestLayeringRule:
    def test_upward_import_flagged(self):
        result = check_fixture("layering")
        up = [f for f in by_rule(result, "layering")
              if f.path == "repro/core/trainer.py"]
        assert len(up) == 1 and up[0].line == 3
        assert "layer violation" in up[0].message

    def test_downward_import_clean(self):
        result = check_fixture("layering")
        assert not [f for f in result.findings
                    if f.path == "repro/serve/engine.py"]

    def test_module_cycle_flagged_once(self):
        result = check_fixture("layering")
        cycles = [f for f in by_rule(result, "layering")
                  if "import cycle" in f.message]
        assert len(cycles) == 1
        assert "repro.analysis.alpha" in cycles[0].message
        assert "repro.analysis.beta" in cycles[0].message


class TestSpansRule:
    @pytest.fixture(scope="class")
    def result(self):
        return check_fixture("spans")

    def test_undeclared_emit_flagged(self, result):
        assert any(f.path == "repro/eng.py" and "'zeta'" in f.message
                   for f in by_rule(result, "spans"))

    def test_undeclared_consumer_match_flagged(self, result):
        assert any(f.path == "repro/obs/views.py"
                   and "'delta'" in f.message
                   for f in by_rule(result, "spans"))

    def test_unconsumed_vocab_kind_is_error(self, result):
        gamma = [f for f in by_rule(result, "spans")
                 if "'gamma'" in f.message and f.severity == "error"]
        assert len(gamma) == 1
        assert gamma[0].path == "repro/obs/tracer.py"
        assert gamma[0].line == 6

    def test_unemitted_vocab_kind_is_warning(self, result):
        assert any("'gamma'" in f.message and f.severity == "warning"
                   for f in result.findings)

    def test_dynamic_reemit_skipped(self, result):
        assert not any(f.line == 8 and f.path == "repro/eng.py"
                       for f in result.findings)

    def test_declared_emits_and_matches_clean(self, result):
        assert not any("'alpha'" in f.message or "'beta'" in f.message
                       for f in result.findings)


# ----------------------------------------------------------------------
# Baseline semantics + JSON payload
# ----------------------------------------------------------------------

class TestBaseline:
    def test_baselined_findings_do_not_fail(self):
        first = check_fixture("layering")
        assert first.failed()
        baseline = [f.to_json_dict() for f in first.active]
        second = check_fixture("layering", baseline=baseline)
        assert not second.failed()
        assert all(f.baselined for f in second.findings if not f.active)

    def test_stale_baseline_entry_fails_the_gate(self):
        stale = [{"path": "repro/gone.py", "line": 1,
                  "rule": "layering", "severity": "error",
                  "message": "paid off long ago"}]
        result = check_fixture("layering", baseline=stale + [
            f.to_json_dict() for f in check_fixture("layering").active
        ])
        assert result.stale_baseline == stale
        assert result.failed()

    def test_text_report_flags_muted_findings_only_when_verbose(self):
        from repro.analysis.report import format_text

        suppressed = check_fixture("determinism")
        assert "[suppressed]" not in format_text(suppressed)
        assert "[suppressed]" in format_text(suppressed, verbose=True)
        assert "1 suppressed/baselined" in format_text(suppressed)

        first = check_fixture("layering")
        baselined = check_fixture("layering", baseline=[
            f.to_json_dict() for f in first.active
        ])
        text = format_text(baselined, verbose=True)
        assert text.count("[baselined]") == len(first.active)
        assert "0 active finding(s)" in text

    def test_text_report_names_stale_baseline_entries(self):
        from repro.analysis.report import format_text

        stale = [{"path": "repro/gone.py", "line": 7,
                  "rule": "layering", "severity": "error",
                  "message": "paid off long ago"}]
        result = check_fixture("layering", baseline=stale)
        text = format_text(result)
        assert "repro/gone.py:7: stale baseline entry [layering]" in text
        assert text.endswith("1 stale baseline entr(y/ies)")

    def test_load_baseline_accepts_a_bare_entry_list(self, tmp_path):
        entries = [{"path": "repro/a.py", "line": 1, "rule": "spans",
                    "severity": "error", "message": "m"}]
        path = tmp_path / "base.json"
        path.write_text(json.dumps(entries))
        assert load_baseline(str(path)) == entries
        assert load_baseline(None) is None

    def test_load_baseline_rejects_other_schema(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text('{"schema_version": 99, "findings": []}')
        with pytest.raises(ValueError, match="schema_version"):
            load_baseline(str(path))

    def test_committed_baseline_is_empty(self):
        committed = load_baseline(str(
            Path(__file__).resolve().parent.parent
            / "scripts" / "check_baseline.json"
        ))
        assert committed == []


class TestJsonPayload:
    def test_schema_round_trip(self):
        result = check_fixture("spans")
        payload = to_json_payload(result)
        assert payload["schema_version"] == 1
        assert {r["rule"] for r in payload["rules"]} == {"spans"}
        rebuilt = [Finding.from_json_dict(f) for f in payload["findings"]]
        assert rebuilt == result.findings
        assert payload["counts"]["total"] == len(result.findings)
        assert payload["counts"]["active"] == len(result.active)


# ----------------------------------------------------------------------
# The real tree: clean today, and each rule actually guards it
# ----------------------------------------------------------------------

class TestRealTree:
    def test_repro_check_runs_clean(self):
        result = run_check(root=str(REAL_TREE))
        assert len(result.checkers) == len(RULES)
        assert result.active == [], [f.anchor for f in result.active]

    def test_nothing_imports_processes_or_sockets(self):
        # Serving is the discrete-event simulator: no module may reach
        # for worker processes, an event loop or a network socket.
        assert process_or_socket_imports(REAL_TREE) == []


BANNED_IMPORTS = ("multiprocessing", "asyncio", "socket", "concurrent.futures")


def process_or_socket_imports(root):
    """``relpath: module`` for every banned import edge under ``root``."""
    hits = []
    for module in load_project(str(root)):
        names = {e.target for e in module.imports}
        names |= set(module.origins.values())
        hits += [f"{module.relpath}: {name}" for name in sorted(names)
                 if any(name == b or name.startswith(b + ".")
                        for b in BANNED_IMPORTS)]
    return hits


def inject(tree, relpath, code):
    """Append ``code`` to a copied module; return its first line number."""
    path = tree / relpath
    original = path.read_text()
    path.write_text(original + code)
    return len(original.splitlines()) + 1


@pytest.fixture()
def tree_copy(tmp_path):
    dst = tmp_path / "repro"
    shutil.copytree(REAL_TREE, dst,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dst


class TestInjectedViolations:
    """Acceptance: one deliberate violation per rule, caught at the
    exact file:line, in an analyzed copy (never the live tree)."""

    def expect(self, tree, rule, relpath, line):
        result = run_check(root=str(tree), rules=[rule])
        hits = [f for f in result.active
                if f.rule == rule and f.path == relpath]
        assert any(f.line == line for f in hits), (
            f"expected {rule} at {relpath}:{line}, got "
            f"{[f.anchor for f in result.active]}"
        )
        assert result.failed("error")

    def test_wall_clock_in_simulator(self, tree_copy):
        line = inject(tree_copy, "serve/simulator.py",
                      "import time\n_T0 = time.time()\n")
        self.expect(tree_copy, "determinism",
                    "repro/serve/simulator.py", line + 1)

    def test_core_importing_serve(self, tree_copy):
        line = inject(tree_copy, "core/trainer.py",
                      "from repro.serve import routing as _routing\n")
        self.expect(tree_copy, "layering", "repro/core/trainer.py", line)

    def test_unknown_span_kind(self, tree_copy):
        line = inject(
            tree_copy, "serve/cluster.py",
            "def _bogus_span(tracer):\n"
            '    tracer.emit("warp_speed", 0.0)\n',
        )
        self.expect(tree_copy, "spans", "repro/serve/cluster.py", line + 1)


class TestImportGuard:
    """The process/socket guard sees every import form in a copy."""

    @pytest.mark.parametrize("code, banned", [
        ("import socket\n", "socket"),
        ("import multiprocessing.pool as _pool\n", "multiprocessing.pool"),
        ("from concurrent.futures import ThreadPoolExecutor\n",
         "concurrent.futures"),
        ("def _later():\n    import asyncio\n", "asyncio"),
    ], ids=["import", "dotted-alias", "from-import", "deferred"])
    def test_injected_import_is_caught(self, tree_copy, code, banned):
        inject(tree_copy, "serve/engine.py", code)
        hits = process_or_socket_imports(tree_copy)
        assert f"repro/serve/engine.py: {banned}" in hits
        assert all(h.startswith("repro/serve/engine.py: ") for h in hits)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------

class TestCheckCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check", "--fail-on", "error"]) == 0
        assert "0 active finding(s)" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["check", "--rules", "nosuch"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_payload_parses(self, capsys):
        assert main(["check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["counts"]["active"] == 0
        assert len(payload["rules"]) == len(RULES)

    def test_findings_fail_the_exit_code(self, capsys):
        assert main([
            "check", "--root", fixture_root("layering"),
            "--rules", "layering",
        ]) == 1
        assert "layer violation" in capsys.readouterr().out

    def test_baseline_flag_round_trip(self, tmp_path, capsys):
        assert main([
            "check", "--root", fixture_root("layering"),
            "--rules", "layering", "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(payload))
        assert main([
            "check", "--root", fixture_root("layering"),
            "--rules", "layering", "--baseline", str(base),
        ]) == 0

    def test_missing_baseline_is_usage_error(self, capsys):
        assert main(["check", "--baseline", "nope.json"]) == 2
        assert "cannot read baseline" in capsys.readouterr().err
