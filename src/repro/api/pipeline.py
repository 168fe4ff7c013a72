"""The end-to-end InstantNet flow as one config-driven orchestrator.

:class:`Pipeline` chains the paper's four stages through on-disk
artifacts in a run directory, so each stage can run in its own process
(or be skipped and resumed later) while ``run()`` executes them
back-to-back:

====================  ================================================
``generate``          SP-NAS architecture search (or zoo pass-through)
                      -> ``architecture.json``
``train``             switchable-precision training + per-bit eval
                      -> ``checkpoint.npz``/``.json``,
                      ``train_report.json``
``deploy``            AutoMapper dataflow search per bit-width
                      -> ``deploy_report.json``
``serve``             traffic replay against the inference engine
                      -> ``serve_report.json``
====================  ================================================

Every stage re-seeds the repo RNG from ``config.seed``, so a pipeline
is a pure function of its :class:`~repro.api.config.PipelineConfig`.
Every component a JSON config names (model, quantizer, search space,
device, policy, scenario, ...) resolves through
:func:`repro.api.registry.lookup`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.tracer import NULL_TRACER
from ..obs.wallclock import wall_clock_s
from .config import PipelineConfig
from .registry import choices, lookup

__all__ = [
    "PipelineError",
    "Pipeline",
    "PipelineResult",
    "STAGES",
    "run_pipeline",
]

STAGES: Tuple[str, ...] = ("generate", "train", "deploy", "serve")

ARTIFACTS = {
    "generate": "architecture.json",
    "train": "train_report.json",
    "deploy": "deploy_report.json",
    "serve": "serve_report.json",
}


class PipelineError(RuntimeError):
    """A stage cannot run — usually a missing upstream artifact."""


def _bits_to_json(bits) -> Any:
    return list(bits) if isinstance(bits, tuple) else bits


def _bits_from_json(bits):
    return tuple(int(b) for b in bits) if isinstance(bits, list) else int(bits)


@dataclass
class PipelineResult:
    """What ``Pipeline.run`` returns: artifact paths + stage summaries."""

    config: PipelineConfig
    run_dir: str
    stages_run: List[str] = field(default_factory=list)
    artifacts: Dict[str, str] = field(default_factory=dict)
    reports: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    seconds: float = 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.config.name,
            "run_dir": self.run_dir,
            "stages_run": list(self.stages_run),
            "artifacts": dict(self.artifacts),
            "seconds": self.seconds,
        }


class Pipeline:
    """Run the generate -> train -> deploy -> serve flow for one config."""

    def __init__(
        self,
        config: PipelineConfig,
        run_dir: Optional[str] = None,
        obs: bool = False,
    ):
        self.config = config
        self.run_dir = run_dir or config.run_dir or os.path.join(
            "runs", config.name
        )
        # Telemetry rides next to the config, never inside it: the
        # config is written verbatim into the run dir and embedded in
        # artifacts, and traced runs must produce byte-identical
        # reports.  ``run()`` writes the obs/ sidecar bundle at the end.
        self.tracer = NULL_TRACER
        if obs:
            from ..obs.tracer import Tracer

            self.tracer = Tracer()

    # ------------------------------------------------------------------
    # Artifact plumbing
    # ------------------------------------------------------------------
    def artifact_path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    def _write_json(self, name: str, payload: Dict[str, Any]) -> str:
        os.makedirs(self.run_dir, exist_ok=True)
        path = self.artifact_path(name)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def _read_json(self, name: str, needed_by: str) -> Dict[str, Any]:
        path = self.artifact_path(name)
        if not os.path.exists(path):
            raise PipelineError(
                f"stage {needed_by!r} needs {path} — run the upstream "
                f"stage first (repro pipeline run --stages ...)"
            )
        with open(path) as handle:
            return json.load(handle)

    def _seed(self) -> None:
        from .. import rng

        rng.set_seed(self.config.seed)

    def _synthetic(self, samples: int, split: str):
        """One split of the synthetic data every stage shares."""
        from ..data.synthetic import SyntheticSpec, make_synthetic

        cfg = self.config
        spec = SyntheticSpec(
            name=f"pipeline-{cfg.name}",
            num_classes=cfg.model.num_classes,
            image_size=cfg.model.image_size,
            difficulty=cfg.train.difficulty,
        )
        return make_synthetic(spec, samples, split)

    # ------------------------------------------------------------------
    # Stage: generate
    # ------------------------------------------------------------------
    def generate(self) -> Dict[str, Any]:
        """SP-NAS the architecture (or record the zoo model) -> JSON."""
        cfg = self.config
        start = wall_clock_s()
        self._seed()
        if cfg.search is None:
            artifact = {
                "source": "zoo",
                "model": cfg.model.model,
                "bit_widths": [_bits_to_json(b) for b in cfg.model.bit_widths],
                "seconds": 0.0,
            }
            self._write_json(ARTIFACTS["generate"], artifact)
            return artifact

        from ..core.spnas import SPNASConfig, SPNASSearcher

        space = lookup("search_spaces", cfg.search.space)(cfg.model.image_size)
        search_set = self._synthetic(cfg.search.samples, "search")
        searcher = SPNASSearcher(
            space,
            cfg.model.bit_widths,
            cfg.model.num_classes,
            SPNASConfig(
                epochs=cfg.search.epochs,
                batch_size=cfg.search.batch_size,
                flops_target=cfg.search.flops_target,
                lambda_eff=cfg.search.lambda_eff,
                arch_bits=cfg.search.arch_bits,
                weight_mode=cfg.search.weight_mode,
                quantizer=cfg.model.quantizer,
            ),
        )
        result = searcher.search(search_set)
        artifact = {
            "source": "spnas",
            "space": cfg.search.space,
            "input_size": cfg.model.image_size,
            "specs": [
                {
                    "kind": s.kind,
                    "expansion": s.expansion,
                    "kernel_size": s.kernel_size,
                }
                for s in result.specs
            ],
            "labels": list(result.labels),
            "flops": result.flops,
            "bit_widths": [_bits_to_json(b) for b in result.bit_widths],
            "seconds": round(wall_clock_s() - start, 3),
        }
        self._write_json(ARTIFACTS["generate"], artifact)
        return artifact

    # ------------------------------------------------------------------
    # Stage: train
    # ------------------------------------------------------------------
    def _spnet_config(self):
        """The pipeline's model, with the searched ``arch`` for derived."""
        cfg = self.config
        if cfg.model.model != "derived":
            return cfg.model
        artifact = self._read_json(ARTIFACTS["generate"], "train")
        if artifact.get("source") != "spnas":
            raise PipelineError(
                "model 'derived' needs an spnas architecture artifact; "
                f"found source {artifact.get('source')!r}"
            )
        return replace(cfg.model, arch={
            "space": artifact["space"],
            "input_size": artifact["input_size"],
            "specs": artifact["specs"],
        })

    def train(self) -> Dict[str, Any]:
        """Build + train the SP-Net, evaluate every bit-width, checkpoint."""
        from ..core import SwitchableTrainer, evaluate_all_bits
        from ..core import TrainConfig as CoreTrainConfig
        from ..serve.checkpoint import build_sp_net, save_checkpoint

        cfg = self.config
        start = wall_clock_s()
        self._seed()
        spnet_config = self._spnet_config()
        sp_net = build_sp_net(spnet_config)
        train_set = self._synthetic(cfg.train.train_samples, "train")
        test_set = self._synthetic(cfg.train.test_samples, "test")
        # The method contributes its loss only: the checkpoint records
        # model.quantizer, which the net above was built with.
        trainer = SwitchableTrainer(
            sp_net,
            lookup("strategies", cfg.train.method).loss(cfg.train.beta),
            CoreTrainConfig(
                epochs=cfg.train.epochs,
                batch_size=cfg.train.batch_size,
                lr=cfg.train.lr,
                momentum=cfg.train.momentum,
                weight_decay=cfg.train.weight_decay,
                augment=cfg.train.augment,
                loader_key=f"pipeline-{cfg.name}-loader",
            ),
        )
        history = trainer.fit(train_set)
        accuracies = evaluate_all_bits(sp_net, test_set)
        npz_path, json_path = save_checkpoint(
            sp_net, spnet_config, self.artifact_path("checkpoint")
        )
        artifact = {
            "method": cfg.train.method,
            "checkpoint": os.path.basename(npz_path),
            "checkpoint_meta": os.path.basename(json_path),
            "epoch_losses": [round(l, 6) for l in history.epoch_losses],
            "accuracies": [
                {"bits": _bits_to_json(bits), "accuracy": acc}
                for bits, acc in accuracies.items()
            ],
            "num_parameters": sp_net.num_parameters(),
            "seconds": round(wall_clock_s() - start, 3),
        }
        self._write_json(ARTIFACTS["train"], artifact)
        return artifact

    def _load_checkpoint(self, needed_by: str):
        from ..serve.checkpoint import load_checkpoint

        base = self.artifact_path("checkpoint")
        if not os.path.exists(base + ".json"):
            raise PipelineError(
                f"stage {needed_by!r} needs {base}.json — run the train "
                f"stage first (repro pipeline run --stages train)"
            )
        return load_checkpoint(base)

    # ------------------------------------------------------------------
    # Stage: deploy
    # ------------------------------------------------------------------
    def deploy(self) -> Dict[str, Any]:
        """AutoMapper the trained net onto the target, per bit-width."""
        from ..core.automapper import AutoMapper, AutoMapperConfig, map_bit_widths

        cfg = self.config
        start = wall_clock_s()
        self._seed()
        sp_net, _ = self._load_checkpoint("deploy")
        mapper = AutoMapper(
            lookup("devices", cfg.deploy.device)(),
            AutoMapperConfig(
                generations=cfg.deploy.generations,
                metric=cfg.deploy.metric,
                warm_start=cfg.deploy.warm_start,
                seed_key=f"pipeline-{cfg.name}-deploy",
            ),
        )
        mapped = map_bit_widths(
            mapper, sp_net.model, cfg.model.image_size, sp_net.bit_widths,
            pipeline=cfg.deploy.pipeline, batch=cfg.deploy.batch,
        )
        mappings = []
        for bits, result in mapped.items():
            mappings.append({
                "bits": _bits_to_json(bits),
                "effective_bits": result.workloads[0].bits,
                "edp": result.edp,
                "energy_pj": result.energy_pj,
                "latency_s": result.latency_s,
                "per_image_latency_s": result.latency_s / cfg.deploy.batch,
                "per_image_energy_pj": result.energy_pj / cfg.deploy.batch,
                "evaluations": result.evaluations,
                "pipeline": result.pipeline,
            })
        artifact = {
            "device": cfg.deploy.device,
            "metric": cfg.deploy.metric,
            "num_layers": len(result.workloads),
            "mappings": mappings,
            "seconds": round(wall_clock_s() - start, 3),
        }
        self._write_json(ARTIFACTS["deploy"], artifact)
        return artifact

    # ------------------------------------------------------------------
    # Stage: serve
    # ------------------------------------------------------------------
    def serve(self) -> Dict[str, Any]:
        """Replay the configured traffic scenario against the checkpoint.

        When a ``deploy_report.json`` exists, its per-bit latencies
        price the engine — the deployment the mapper found is exactly
        what serving simulates.  Otherwise the serve stage runs its own
        (cheaper) latency-metric search.

        ``serve.replicas > 1`` serves through a
        :class:`~repro.serve.cluster.ReplicaFleet` behind the configured
        router, every replica materialized independently from the
        stage's checkpoint via
        :class:`~repro.serve.registry.ModelRegistry`.
        """
        from ..serve.engine import BitLatencyModel
        from ..serve.simulator import (
            ServeScale,
            build_report,
            make_engine,
            prepare_simulation,
            simulate,
        )

        cfg = self.config
        start = wall_clock_s()
        self._seed()
        sp_net, spnet_config = self._load_checkpoint("serve")
        latency_model = None
        deploy_path = self.artifact_path(ARTIFACTS["deploy"])
        if os.path.exists(deploy_path):
            with open(deploy_path) as handle:
                deploy_report = json.load(handle)
            per_image = {
                _bits_from_json(m["bits"]): float(m["per_image_latency_s"])
                for m in deploy_report["mappings"]
            }
            unpriced = [b for b in sp_net.bit_widths if b not in per_image]
            if unpriced:
                raise PipelineError(
                    f"deploy artifact {deploy_path} prices bit-widths "
                    f"{list(per_image)} but the checkpoint serves "
                    f"{list(sp_net.bit_widths)} — re-run the deploy stage "
                    f"(repro pipeline run --stages deploy)"
                )
            per_energy = {
                _bits_from_json(m["bits"]): float(m["per_image_energy_pj"])
                for m in deploy_report["mappings"]
            }
            latency_model = BitLatencyModel(
                per_image, per_image_energy_pj=per_energy
            )
        serve_scale = ServeScale(
            name=f"pipeline-{cfg.name}",
            num_requests=cfg.serve.num_requests,
            model=spnet_config,
            max_batch=cfg.serve.max_batch,
            mapper_generations=cfg.serve.mapper_generations,
            slo_batches=cfg.serve.slo_batches,
            difficulty=cfg.train.difficulty,
        )
        fixture = prepare_simulation(
            cfg.serve.scenario, serve_scale,
            sp_net=sp_net, config=spnet_config,
            latency_model=latency_model,
        )
        policies = (
            choices("policies") if cfg.serve.policy == "all"
            else (cfg.serve.policy,)
        )
        fleet_mode = cfg.serve.replicas > 1
        reports = []
        if fleet_mode:
            from ..serve.cluster import (
                build_fleet_report,
                make_fleet,
                simulate_fleet,
            )
            from ..serve.registry import ModelRegistry

            # Replicas materialize independently from the stage's own
            # checkpoint: the fleet serves exactly what train saved.
            registry = ModelRegistry(self.run_dir)
            for name in policies:
                fleet = make_fleet(
                    fixture, name,
                    replicas=cfg.serve.replicas,
                    router=cfg.serve.router,
                    registry=registry, model_name="checkpoint",
                    tracer=self.tracer.bind(
                        scenario=cfg.serve.scenario, policy=name,
                        router=cfg.serve.router,
                        replicas=cfg.serve.replicas,
                    ),
                )
                end_s = simulate_fleet(fleet, fixture.requests)
                reports.append(
                    build_fleet_report(
                        cfg.serve.scenario, name, fixture.scale, fleet,
                        end_s, fixture.slo_s,
                    )
                )
        else:
            for name in policies:
                engine = make_engine(
                    fixture, name,
                    tracer=self.tracer.bind(
                        scenario=cfg.serve.scenario, policy=name,
                    ),
                )
                end_s = simulate(engine, fixture.requests)
                reports.append(
                    build_report(
                        cfg.serve.scenario, name, fixture.scale, engine,
                        end_s, fixture.slo_s,
                    )
                )
        artifact = {
            "scenario": cfg.serve.scenario,
            "mode": "fleet" if fleet_mode else "single",
            "latency_source": "deploy" if latency_model else "serve-search",
            "reports": [r.to_json_dict() for r in reports],
            "seconds": round(wall_clock_s() - start, 3),
        }
        self._write_json(ARTIFACTS["serve"], artifact)
        return artifact

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self, stages: Optional[Sequence[str]] = None) -> PipelineResult:
        """Execute ``stages`` (default: all four) in pipeline order."""
        chosen = list(stages) if stages else list(STAGES)
        unknown = [s for s in chosen if s not in STAGES]
        if unknown:
            raise PipelineError(
                f"unknown stage(s) {unknown}; available: {list(STAGES)}"
            )
        chosen = [s for s in STAGES if s in chosen]
        start = wall_clock_s()
        result = PipelineResult(config=self.config, run_dir=self.run_dir)
        os.makedirs(self.run_dir, exist_ok=True)
        self.config.save(self.artifact_path("config.json"))
        for stage in chosen:
            stage_start = wall_clock_s()
            result.reports[stage] = getattr(self, stage)()
            result.stages_run.append(stage)
            result.artifacts[stage] = self.artifact_path(ARTIFACTS[stage])
            if self.tracer.enabled:
                # Stage spans run on the wall clock (offset from run
                # start), unlike the sim-clock serve events they wrap.
                self.tracer.emit(
                    "stage",
                    round(stage_start - start, 6),
                    stage=stage,
                    seconds=round(wall_clock_s() - stage_start, 3),
                )
        result.seconds = round(wall_clock_s() - start, 3)
        self._write_json("pipeline_report.json", result.to_json_dict())
        if self.tracer.enabled:
            from ..obs.artifacts import write_obs_artifacts

            write_obs_artifacts(self.run_dir, self.tracer)
        return result


def run_pipeline(
    config: PipelineConfig,
    run_dir: Optional[str] = None,
    stages: Optional[Sequence[str]] = None,
    obs: bool = False,
) -> PipelineResult:
    """One-call facade: ``run_pipeline(PipelineConfig.load(path))``."""
    return Pipeline(config, run_dir=run_dir, obs=obs).run(stages)
