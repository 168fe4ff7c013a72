"""CLI smoke paths: exit codes and help plumbing for every subcommand."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestList:
    def test_exit_code_and_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "table1" in out and "fig7" in out

    def test_module_invocation(self):
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "table1" in proc.stdout


class TestRun:
    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "nosuch"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table1", "--scale", "galactic"])
        assert excinfo.value.code == 2

    def test_smoke_run_exit_code(self, capsys):
        assert main(["run", "fig5", "--scale", "smoke"]) == 0
        assert "fig5" in capsys.readouterr().out


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "serve-sim" in out

    def test_serve_sim_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--scenario" in out and "--policy" in out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestServeSim:
    """`repro serve-sim` end to end at smoke scale, single and fleet."""

    def test_single_engine_reports_every_policy(self, tmp_path, capsys):
        import json

        out = tmp_path / "r.json"
        assert main(["serve-sim", "--scenario", "constant",
                     "--output", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert [r["policy"] for r in reports] == ["static", "slo", "queue"]
        assert all("per_replica" not in r for r in reports)
        assert "serve-sim scenario=constant" in capsys.readouterr().out

    def test_replicas_switch_to_the_fleet_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "r.json"
        assert main(["serve-sim", "--policy", "slo", "--replicas", "3",
                     "--router", "round_robin", "--output", str(out)]) == 0
        (report,) = json.loads(out.read_text())
        assert (report["router"], report["replicas"]) == ("round_robin", 3)
        assert [r["replica"] for r in report["per_replica"]] == [0, 1, 2]
        assert sum(r["requests"] for r in report["per_replica"]) == \
            report["num_requests"]
        text = capsys.readouterr().out
        assert "serve-sim fleet scenario=bursty" in text
        assert "router=round_robin replicas=3" in text

    def test_replicas_below_one_is_an_error(self, capsys):
        assert main(["serve-sim", "--replicas", "0"]) == 2
        assert "--replicas 0 must be >= 1" in capsys.readouterr().err


class TestChoicesComeFromManifest:
    """CLI choice lists are built from the names declared in
    repro.api.registry rather than hand-copied literals; this pins the
    parsers to the registry, and tests/test_api_registry.py pins the
    registry to the defining modules."""

    @staticmethod
    def _subparser(name):
        import argparse

        from repro.__main__ import _build_parser

        parser = _build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return subparsers.choices[name]

    def test_serve_sim_choices_match_manifest(self):
        from repro.api.registry import choices

        parser = self._subparser("serve-sim")
        parsed = {a.dest: tuple(a.choices) for a in parser._actions
                  if a.choices is not None}
        assert parsed == {
            "scenario": choices("scenarios"),
            "policy": ("all",) + choices("policies"),
            "scale": choices("serve_scales"),
            "router": choices("routers"),
        }

    def test_run_scale_choices_match_manifest(self):
        from repro.api.registry import choices

        run = self._subparser("run")
        parsed = {a.dest: a.choices for a in run._actions
                  if a.choices is not None}
        assert tuple(parsed["scale"]) == choices("scales")

    def test_parser_build_does_not_import_serve_stack(self):
        """The whole point of the lazy registry: `repro --help` must not
        pay for numpy-heavy subsystem imports."""
        import subprocess

        code = (
            "import sys; import repro.__main__ as m; m._build_parser(); "
            "heavy = [name for name in ('repro.serve', 'repro.quant', "
            "'repro.experiments', 'repro.core', 'repro.hardware') "
            "if name in sys.modules]; "
            "sys.exit(2 if heavy else 0)"
        )
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
