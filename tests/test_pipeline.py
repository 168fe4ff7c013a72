"""Pipeline orchestrator: artifact chaining, stage independence, CLI."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.api.config import (
    DeployConfig,
    ModelConfig,
    PipelineConfig,
    SearchConfig,
    ServeConfig,
    TrainConfig,
)
from repro.api.pipeline import STAGES, Pipeline, PipelineError, run_pipeline

EXAMPLE = (
    Path(__file__).resolve().parent.parent / "examples"
    / "pipeline_smoke.json"
)


def zoo_config(**overrides):
    """Smallest sensible zoo-model pipeline (no architecture search)."""
    base = dict(
        name="unit",
        seed=0,
        model=ModelConfig(
            model="resnet8", bit_widths=(4, 8), num_classes=3,
            width_mult=0.25, image_size=8,
        ),
        train=TrainConfig(
            epochs=1, batch_size=16, train_samples=64, test_samples=32,
        ),
        deploy=DeployConfig(device="edge", generations=2),
        serve=ServeConfig(
            scenario="constant", policy="static", num_requests=24,
            max_batch=8, mapper_generations=2,
        ),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def derived_config():
    """Tiny SP-NAS pipeline exercising the generate stage for real."""
    return PipelineConfig(
        name="unit-derived",
        model=ModelConfig(
            model="derived", bit_widths=(4, 8), num_classes=3, image_size=8,
        ),
        search=SearchConfig(space="tiny", epochs=1, batch_size=16, samples=48),
        train=TrainConfig(
            epochs=1, batch_size=16, train_samples=48, test_samples=24,
        ),
        deploy=DeployConfig(device="edge", generations=2),
        serve=ServeConfig(
            scenario="bursty", policy="slo", num_requests=24,
            max_batch=8, mapper_generations=2,
        ),
    )


class TestEndToEnd:
    def test_zoo_pipeline_chains_all_artifacts(self, tmp_path):
        result = run_pipeline(zoo_config(), run_dir=str(tmp_path / "run"))
        assert result.stages_run == list(STAGES)
        for stage, path in result.artifacts.items():
            assert os.path.exists(path), stage

        arch = json.loads(Path(result.artifacts["generate"]).read_text())
        assert arch["source"] == "zoo" and arch["model"] == "resnet8"

        train = json.loads(Path(result.artifacts["train"]).read_text())
        assert [e["bits"] for e in train["accuracies"]] == [4, 8]
        assert os.path.exists(tmp_path / "run" / "checkpoint.npz")

        deploy = json.loads(Path(result.artifacts["deploy"]).read_text())
        assert [m["bits"] for m in deploy["mappings"]] == [4, 8]
        assert all(m["latency_s"] > 0 for m in deploy["mappings"])

        serve = json.loads(Path(result.artifacts["serve"]).read_text())
        # The serve stage must price the engine from the deploy artifact.
        assert serve["latency_source"] == "deploy"
        assert serve["reports"][0]["policy"] == "static"
        assert serve["reports"][0]["num_requests"] == 24

        # The run dir documents its own config + summary.
        assert (tmp_path / "run" / "config.json").exists()
        summary = json.loads(
            (tmp_path / "run" / "pipeline_report.json").read_text()
        )
        assert summary["stages_run"] == list(STAGES)

    def test_derived_pipeline_and_checkpoint_round_trip(self, tmp_path):
        from repro.serve.checkpoint import load_checkpoint
        from repro.tensor import Tensor, no_grad

        run_dir = str(tmp_path / "run")
        result = run_pipeline(derived_config(), run_dir=run_dir)
        arch = json.loads(Path(result.artifacts["generate"]).read_text())
        assert arch["source"] == "spnas"
        assert len(arch["specs"]) == 6  # tiny space: 3 stages x 2 layers

        # The checkpoint must rebuild the searched topology bit-for-bit.
        sp_net, config = load_checkpoint(os.path.join(run_dir, "checkpoint"))
        assert config.model == "derived"
        assert config.arch["space"] == "tiny"
        again, _ = load_checkpoint(os.path.join(run_dir, "checkpoint"))
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(
            np.float32
        )
        sp_net.eval(), again.eval()
        with no_grad():
            for bits in sp_net.bit_widths:
                np.testing.assert_array_equal(
                    sp_net(Tensor(x), bits=bits).data,
                    again(Tensor(x), bits=bits).data,
                )

    def test_fleet_serve_stage_materializes_replicas(self, tmp_path):
        """serve.replicas > 1 runs the fleet path: replicas built from
        the stage checkpoint, fleet metrics + per-replica occupancy in
        the artifact."""
        config = zoo_config(
            serve=ServeConfig(
                scenario="bursty", policy="slo", num_requests=48,
                max_batch=8, mapper_generations=2,
                replicas=2, router="least_queue",
            ),
        )
        result = run_pipeline(config, run_dir=str(tmp_path / "run"))
        serve = json.loads(Path(result.artifacts["serve"]).read_text())
        assert serve["mode"] == "fleet"
        assert serve["latency_source"] == "deploy"
        (report,) = serve["reports"]
        assert report["router"] == "least_queue"
        assert report["replicas"] == 2
        assert len(report["per_replica"]) == 2
        for key in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
            assert report[key] > 0
        assert sum(report["occupancy"].values()) == 48

    def test_single_engine_serve_stage_reports_single_mode(self, tmp_path):
        result = run_pipeline(zoo_config(), run_dir=str(tmp_path / "run"))
        serve = json.loads(Path(result.artifacts["serve"]).read_text())
        assert serve["mode"] == "single"

    def test_generate_stage_is_deterministic(self, tmp_path):
        config = derived_config()
        first = Pipeline(config, run_dir=str(tmp_path / "a")).generate()
        second = Pipeline(config, run_dir=str(tmp_path / "b")).generate()
        assert first["labels"] == second["labels"]


class TestStageIndependence:
    def test_deploy_without_checkpoint_fails_clearly(self, tmp_path):
        pipe = Pipeline(zoo_config(), run_dir=str(tmp_path / "empty"))
        with pytest.raises(PipelineError, match="train"):
            pipe.deploy()

    def test_train_for_derived_without_architecture_fails(self, tmp_path):
        pipe = Pipeline(derived_config(), run_dir=str(tmp_path / "empty"))
        with pytest.raises(PipelineError, match="architecture"):
            pipe.train()

    def test_stages_resume_across_pipeline_instances(self, tmp_path):
        run_dir = str(tmp_path / "run")
        config = zoo_config()
        Pipeline(config, run_dir=run_dir).run(stages=["generate", "train"])
        # A fresh instance (fresh process in real life) picks up the
        # checkpoint from disk.
        result = Pipeline(config, run_dir=run_dir).run(stages=["serve"])
        assert result.stages_run == ["serve"]
        serve = json.loads(Path(result.artifacts["serve"]).read_text())
        # deploy never ran, so serving priced its own latency search.
        assert serve["latency_source"] == "serve-search"

    def test_stale_deploy_artifact_fails_clearly(self, tmp_path):
        """A deploy report that doesn't price every served bit-width must
        raise PipelineError guidance, not a raw KeyError."""
        run_dir = str(tmp_path / "run")
        config = zoo_config()
        pipe = Pipeline(config, run_dir=run_dir)
        pipe.run(stages=["generate", "train", "deploy"])
        deploy_path = pipe.artifact_path("deploy_report.json")
        report = json.loads(Path(deploy_path).read_text())
        report["mappings"] = report["mappings"][:1]  # drop the 8-bit row
        Path(deploy_path).write_text(json.dumps(report))
        with pytest.raises(PipelineError, match="re-run the deploy stage"):
            pipe.serve()

    def test_unknown_stage_rejected(self, tmp_path):
        pipe = Pipeline(zoo_config(), run_dir=str(tmp_path / "run"))
        with pytest.raises(PipelineError, match="unknown stage"):
            pipe.run(stages=["ship-it"])

    def test_stages_execute_in_pipeline_order(self, tmp_path):
        pipe = Pipeline(zoo_config(), run_dir=str(tmp_path / "run"))
        result = pipe.run(stages=["train", "generate"])  # order-insensitive
        assert result.stages_run == ["generate", "train"]


def _without_seconds(value):
    """A report with its wall-clock ``seconds`` fields removed."""
    if isinstance(value, dict):
        return {k: _without_seconds(v) for k, v in value.items()
                if k != "seconds"}
    if isinstance(value, list):
        return [_without_seconds(v) for v in value]
    return value


class TestPipelineTelemetry:
    """``obs=True`` records stage spans and serve span events beside the
    run's reports, never inside them."""

    STAGES = ["train", "serve"]

    def test_traced_run_writes_sidecar_and_keeps_reports(self, tmp_path):
        from repro.obs import load_run_events

        plain = run_pipeline(zoo_config(), run_dir=str(tmp_path / "a"),
                             stages=self.STAGES)
        traced = run_pipeline(zoo_config(), run_dir=str(tmp_path / "b"),
                              stages=self.STAGES, obs=True)
        for stage in self.STAGES:
            assert _without_seconds(traced.reports[stage]) == \
                _without_seconds(plain.reports[stage])
        assert not (tmp_path / "a" / "obs").exists()
        assert [p.name for p in (tmp_path / "b" / "obs").iterdir()] == \
            ["trace_events.jsonl"]
        events = load_run_events(str(tmp_path / "b"))
        assert [e["stage"] for e in events if e["kind"] == "stage"] == \
            self.STAGES
        completes = [e for e in events if e["kind"] == "complete"]
        assert len(completes) == 24
        assert {e["policy"] for e in completes} == {"static"}
        assert {(e["replica"], e["bits"]) for e in completes} == {(0, 8)}


class TestPipelineCLI:
    def test_validate_ok_exit_zero(self, capsys):
        assert main(["pipeline", "validate", "--config", str(EXAMPLE)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_unknown_key_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"trian": {}}')
        assert main(["pipeline", "validate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid pipeline config" in err and "trian" in err

    def test_validate_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["pipeline", "validate", "--config", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_validate_missing_file_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["pipeline", "validate", "--config", missing]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_show_prints_normalised_config(self, capsys):
        assert main(["pipeline", "show", "--config", str(EXAMPLE)]) == 0
        out = capsys.readouterr().out
        assert '"bit_widths"' in out and "generate -> train" in out

    def test_run_unknown_stage_exit_two(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--config", str(EXAMPLE),
            "--run-dir", str(tmp_path), "--stages", "deplyo",
        ]) == 2
        assert "unknown stage" in capsys.readouterr().err

    def test_run_degenerate_stages_exit_two(self, tmp_path, capsys):
        """`--stages ','` must not silently fall back to running all
        four stages."""
        assert main([
            "pipeline", "run", "--config", str(EXAMPLE),
            "--run-dir", str(tmp_path), "--stages", " , ",
        ]) == 2
        assert "names no valid stage" in capsys.readouterr().err

    def test_run_missing_upstream_exit_one(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--config", str(EXAMPLE),
            "--run-dir", str(tmp_path / "empty"), "--stages", "deploy",
        ]) == 1
        assert "pipeline failed" in capsys.readouterr().err

    def test_run_with_obs_and_seed_then_profile(self, tmp_path, capsys):
        config_path = zoo_config().save(str(tmp_path / "zoo.json"))
        run_dir = tmp_path / "run"
        assert main([
            "pipeline", "run", "--config", config_path,
            "--run-dir", str(run_dir), "--stages", "train,serve",
            "--seed", "5", "--obs",
        ]) == 0
        out = capsys.readouterr().out
        assert "train -> serve" in out
        assert f"telemetry {run_dir}/obs" in out
        saved = json.loads((run_dir / "config.json").read_text())
        assert saved["seed"] == 5
        assert main(["obs", str(run_dir), "--profile"]) == 0
        profile = capsys.readouterr().out
        assert "## Pipeline stages" in profile
        assert "### Self-time by bit-width" in profile

    def test_example_config_runs_end_to_end(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--config", str(EXAMPLE),
            "--run-dir", str(tmp_path / "run"),
        ]) == 0
        out = capsys.readouterr().out
        assert "generate -> train -> deploy -> serve" in out
