"""The four benchmark workloads, each driven through the public API.

A workload has three parts:

* ``load()`` imports what it needs from ``repro`` (timed once);
* ``build()`` makes the fixture from the seed (timed several times;
  the last fixture is kept);
* ``run_op()`` runs one operation of fixed size and returns an
  :class:`Op`: its user-facing wall time, its steps, its output checks
  and the outputs that must repeat exactly for the seed.

Every operation of a run starts from the same fixture, so every
operation of a run must produce the same outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
PIPELINE_CONFIG = os.path.join(ROOT, "examples", "pipeline_smoke.json")


@dataclass
class Op:
    """What one operation did, and what a user of it would see."""

    wall_s: float               # user-facing time of the operation
    steps_s: List[float]        # per-step wall times
    items: int                  # items of work completed
    busy_s: float               # time over which ``items`` were done
    attempted: int
    failed: int
    outputs: object             # must repeat exactly for the seed
    problems: List[str] = field(default_factory=list)
    # Windows the traced run attributes span time against, plus counts.
    facts: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# train_cdt
# ----------------------------------------------------------------------
TRAIN_SIZES = {
    "full": dict(width_mult=0.5, bits=(4, 8, 12, 16), image_size=16,
                 num_classes=10, train_samples=64, test_samples=64,
                 batch_size=8),
    "tiny": dict(width_mult=0.25, bits=(4, 8), image_size=8,
                 num_classes=4, train_samples=16, test_samples=16,
                 batch_size=8),
}


class TrainCDT:
    """CDT training of MobileNetV2 (Table I's model), then per-bit eval.

    Closed loop: one fit of a fixed number of steps, then
    ``evaluate_all_bits`` on a held-out split, from the same initial
    weights every operation.  A step is one CDT training step, which
    forwards the batch once per candidate bit-width.
    """

    name = "train_cdt"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = TRAIN_SIZES[size]

    def load(self) -> None:
        from repro import core, data, rng, serve

        self.core, self.data, self.rng, self.serve = core, data, rng, serve
        self.strategy_cls = _step_timed(core.CascadeDistillation)

    def build(self) -> None:
        s = self.size
        self.rng.set_seed(self.seed)
        self.sp_net = self.serve.build_sp_net(self.serve.SPNetConfig(
            model="mobilenet_v2", bit_widths=s["bits"],
            num_classes=s["num_classes"], width_mult=s["width_mult"],
            image_size=s["image_size"], setting="cifar",
        ))
        self.initial_state = self.sp_net.state_dict()
        spec = self.data.SyntheticSpec(
            name="perfbench-train", num_classes=s["num_classes"],
            image_size=s["image_size"],
        )
        self.train_set = self.data.make_synthetic(spec, s["train_samples"], "train")
        self.test_set = self.data.make_synthetic(spec, s["test_samples"], "test")

    def run_op(self, recorder=None) -> Op:
        core = self.core
        self.sp_net.load_state_dict(self.initial_state)
        self.rng.set_seed(self.seed)
        strategy = self.strategy_cls(beta=1.0)
        trainer = core.SwitchableTrainer(self.sp_net, strategy, core.TrainConfig(
            epochs=1, batch_size=self.size["batch_size"],
            loader_key="perfbench-train-loader",
        ))
        start = time.perf_counter()
        history = trainer.fit(self.train_set)
        fit_end = time.perf_counter()
        if recorder is not None:
            recorder.phase = "eval."
        try:
            accuracies = core.evaluate_all_bits(self.sp_net, self.test_set)
        finally:
            if recorder is not None:
                recorder.phase = ""
        end = time.perf_counter()

        starts = strategy.step_starts + [fit_end]
        steps = [b - a for a, b in zip(starts, starts[1:])]
        bad = sum(1 for loss in strategy.losses if not math.isfinite(loss))
        problems = [f"{bad} non-finite training steps"] if bad else []
        return Op(
            wall_s=end - start, steps_s=steps,
            items=len(self.train_set), busy_s=fit_end - start,
            attempted=len(steps), failed=bad,
            outputs={
                "step_losses": strategy.losses,
                "final_loss": history.final_loss,
                "accuracy": {str(b): a for b, a in accuracies.items()},
            },
            problems=problems,
            facts={"window_s": fit_end - start, "eval_s": end - fit_end,
                   "eval_passes": 1, "eval_images": len(self.test_set)},
        )


def _step_timed(strategy_cls):
    """``strategy_cls`` that stamps the start and loss of each step."""

    class StepTimed(strategy_cls):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.step_starts: List[float] = []
            self.losses: List[float] = []

        def compute_loss(self, sp_net, x, labels):
            self.step_starts.append(time.perf_counter())
            loss, per_bit = super().compute_loss(sp_net, x, labels)
            self.losses.append(loss.item())
            return loss, per_bit

    return StepTimed


# ----------------------------------------------------------------------
# deploy_mapper
# ----------------------------------------------------------------------
DEPLOY_SIZES = {
    "full": dict(bits=(4, 8, 12, 16), layers=None, generations=6),
    "tiny": dict(bits=(4, 8), layers=8, generations=1),
}


class DeployMapper:
    """AutoMapper maps MobileNetV2's layers onto an Eyeriss-like ASIC.

    Closed loop: one operation maps the whole network at every
    bit-width with a fresh mapper, as the pipeline's deploy stage does.
    A step is the mapping at one bit-width.
    """

    name = "deploy_mapper"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = DEPLOY_SIZES[size]

    def load(self) -> None:
        from repro import hardware, rng
        from repro.core import automapper

        self.hardware, self.rng, self.automapper = hardware, rng, automapper

    def build(self) -> None:
        self.rng.set_seed(self.seed)
        self.workloads = self.hardware.mobilenetv2_workloads()[: self.size["layers"]]
        self.device = self.hardware.eyeriss_like_asic()

    def run_op(self, recorder=None) -> Op:
        self.rng.set_seed(self.seed)
        mapper = self.automapper.AutoMapper(
            self.device,
            self.automapper.AutoMapperConfig(
                generations=self.size["generations"], metric="edp",
                warm_start=True, seed_key="perfbench-deploy",
            ),
        )
        steps, results = [], []
        for bits in self.size["bits"]:
            priced = [dataclasses.replace(w, bits=bits) for w in self.workloads]
            start = time.perf_counter()
            result = mapper.search_network(priced, pipeline=False)
            steps.append(time.perf_counter() - start)
            results.append((bits, priced, result))

        attempted = failed = 0
        problems = []
        edp = {}
        for bits, priced, result in results:
            for workload, flow, cost in zip(priced, result.dataflows, result.layer_costs):
                attempted += 1
                if not (cost.valid and flow.covers(workload)):
                    failed += 1
            repriced = self.hardware.evaluate_network(
                priced, result.dataflows, self.device, False
            )
            if repriced.edp != result.edp:
                problems.append(
                    f"{bits}-bit: re-priced EDP {repriced.edp!r} != reported {result.edp!r}"
                )
            edp[str(bits)] = result.edp
        if failed:
            problems.append(f"{failed} invalid layer mappings")
        wall = sum(steps)
        return Op(
            wall_s=wall, steps_s=steps, items=attempted, busy_s=wall,
            attempted=attempted, failed=failed,
            outputs={"edp": edp, "evaluations": mapper.evaluations,
                     "cost_cache_hits": mapper.cost_cache_hits},
            problems=problems,
            facts={"window_s": wall},
        )


# ----------------------------------------------------------------------
# serve_bursty
# ----------------------------------------------------------------------
SERVE_SIZES = {
    "full": {},
    "tiny": dict(num_requests=48, mapper_generations=1),
}
SCENARIO = "bursty"
FLEET_REPLICAS = 4


@contextlib.contextmanager
def dispatch_probe(batches: list):
    """Time each ``InferenceEngine.dispatch`` call that releases a batch.

    The one probe a timed run installs: a batch's dispatch is the step
    this workload's step times are defined on.  ``batches`` receives
    ``(seconds, request ids)`` per released batch.
    """
    from repro.serve import InferenceEngine

    original = InferenceEngine.__dict__["dispatch"]

    def dispatch(self, now=None, flush=False):
        start = time.perf_counter()
        record = original(self, now, flush)
        if record is not None:
            batches.append((
                time.perf_counter() - start,
                [r.request_id for r in record.results],
            ))
        return record

    InferenceEngine.dispatch = dispatch
    try:
        yield batches
    finally:
        InferenceEngine.dispatch = original


class ServeBursty:
    """The bursty scenario through the single-engine and fleet loops.

    Arrivals are open loop on the simulator's virtual clock; the wall
    clock is closed loop, since each forward runs when the simulator
    reaches it.  One operation runs ``run_serve_sim`` over every
    policy, then ``run_fleet_sim`` with four replicas behind the
    least-queue router, over one shared fixture.  A step is one
    micro-batch dispatch.
    """

    name = "serve_bursty"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = SERVE_SIZES[size]

    def load(self) -> None:
        from repro import rng, serve

        self.rng, self.serve = rng, serve

    def build(self) -> None:
        serve = self.serve
        scale = dataclasses.replace(serve.SERVE_SCALES["smoke"], **self.size)
        self.rng.set_seed(self.seed)
        start = time.perf_counter()
        self.fixture = serve.prepare_simulation(SCENARIO, scale)
        self.prepare_s = time.perf_counter() - start

    def run_op(self, recorder=None) -> Op:
        serve = self.serve
        batches: list = []
        with dispatch_probe(batches):
            start = time.perf_counter()
            reports = serve.run_serve_sim(
                SCENARIO, "all", seed=self.seed, fixture=self.fixture
            )
            reports += serve.run_fleet_sim(
                SCENARIO, "slo", seed=self.seed, replicas=FLEET_REPLICAS,
                router="least_queue", fixture=self.fixture,
            )
            wall = time.perf_counter() - start

        n = len(self.fixture.requests)
        expected = len(reports)
        served = Counter(rid for _, ids in batches for rid in ids)
        failed = sum(max(0, expected - served[i]) for i in range(n))
        problems = []
        if failed:
            problems.append(f"{failed} requests not completed")
        extra = sorted(i for i, c in served.items() if c > expected or not 0 <= i < n)
        if extra:
            problems.append(f"{len(extra)} requests completed more than once")
        short = [r.policy for r in reports if r.num_requests != n]
        if short:
            problems.append(f"reports short of {n} requests: {short}")
        completed = sum(r.num_requests for r in reports)
        return Op(
            wall_s=wall, steps_s=[s for s, _ in batches],
            items=completed, busy_s=wall,
            attempted=n * expected, failed=failed,
            outputs=[r.to_json_dict() for r in reports],
            problems=problems,
            facts={"window_s": wall,
                   "bit_switches": sum(r.switches for r in reports),
                   "batches": len(batches), "requests": completed},
        )


# ----------------------------------------------------------------------
# pipeline_smoke
# ----------------------------------------------------------------------
PIPELINE_ARTIFACTS = (
    "architecture.json", "checkpoint.npz", "train_report.json",
    "deploy_report.json", "serve_report.json",
)
STAGE_ARTIFACTS = {
    "generate": "architecture.json", "train": "train_report.json",
    "deploy": "deploy_report.json", "serve": "serve_report.json",
}
PIPELINE_TINY = dict(
    search=dict(samples=32), train=dict(train_samples=32, test_samples=16),
    deploy=dict(generations=1), serve=dict(num_requests=16, mapper_generations=1),
)


def _without_seconds(value):
    """A report with its wall-clock fields removed."""
    if isinstance(value, dict):
        return {k: _without_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_without_seconds(v) for v in value]
    return value


class PipelineSmoke:
    """``run_pipeline`` on ``examples/pipeline_smoke.json``.

    Closed loop: one operation is one whole generate -> train -> deploy
    -> serve run in a fresh temporary run directory.  A step is a run.
    """

    name = "pipeline_smoke"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size

    def load(self) -> None:
        # repro.api resolves its exports lazily; import what the four
        # stages run so that the imports count as set-up.
        import repro.api.pipeline  # noqa: F401
        import repro.core.automapper  # noqa: F401
        import repro.core.spnas  # noqa: F401
        import repro.serve  # noqa: F401
        from repro import api

        self.api = api

    def build(self) -> None:
        config = self.api.PipelineConfig.load(PIPELINE_CONFIG)
        changes = {"seed": self.seed}
        if self.size == "tiny":
            changes.update({
                section: dataclasses.replace(getattr(config, section), **values)
                for section, values in PIPELINE_TINY.items()
            })
        self.config = dataclasses.replace(config, **changes)

    def run_op(self, recorder=None) -> Op:
        import json

        os.makedirs(OUT_DIR, exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix="pipeline-run-", dir=OUT_DIR)
        problems = []
        try:
            start = time.perf_counter()
            try:
                self.api.run_pipeline(self.config, run_dir=run_dir)
            except Exception as exc:  # a failed stage is counted, not fatal
                problems.append(f"pipeline raised {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
            done = [s for s, a in STAGE_ARTIFACTS.items()
                    if os.path.exists(os.path.join(run_dir, a))]
            missing = [a for a in PIPELINE_ARTIFACTS
                       if not os.path.exists(os.path.join(run_dir, a))]
            if missing:
                problems.append(f"missing artifacts: {missing}")
            outputs = {}
            for artifact in STAGE_ARTIFACTS.values():
                path = os.path.join(run_dir, artifact)
                if os.path.exists(path):
                    with open(path) as handle:
                        outputs[artifact] = _without_seconds(json.load(handle))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        failed = len(STAGE_ARTIFACTS) - len(done)
        return Op(
            wall_s=wall, steps_s=[wall], items=1, busy_s=wall,
            attempted=len(STAGE_ARTIFACTS), failed=failed,
            outputs=outputs, problems=problems,
            facts={"window_s": wall},
        )


WORKLOADS = {
    "train_cdt": TrainCDT,
    "deploy_mapper": DeployMapper,
    "serve_bursty": ServeBursty,
    "pipeline_smoke": PipelineSmoke,
}
