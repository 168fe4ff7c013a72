"""Benchmark of the InstantNet flow: one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload train_cdt --seed 0 --seconds 15 --trace 0

Workloads: train_cdt, deploy_mapper, serve_bursty, pipeline_smoke (see
NOTES.md).  The run imports ``repro`` from ``src/``, builds the fixture
from the seed, then repeats one fixed-size operation for ``--seconds``
and checks every operation's outputs.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  Spans of a traced run and the recorded outputs are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
# Share of a traced run's time spent on the untraced operations it
# compares the traced ones against.
UNTRACED_SHARE = 0.4
# A traced train step or serving run must attribute at least this much
# of its wall time to the named layers.
MIN_ATTRIBUTED = {"train_cdt": 0.9, "serve_bursty": 0.9}
# One BLAS thread: the inputs are small, and two threads on two shared
# vCPUs spin-wait on each other, which doubled the run-to-run spread.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "train_cdt", "deploy_mapper", "serve_bursty", "pipeline_smoke"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    return parser.parse_args(argv)


def measure(workload, seconds: float, kernel_s: float, min_ops: int = 1,
            recorder=None):
    """Repeat ``workload.run_op`` for ``seconds`` and at least ``min_ops`` times.

    Returns the operations, each operation's speed scale (see speed.py)
    and the last calibration kernel time, which opens the next window.
    """
    import speed

    ops, scales = [], []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        gc.collect()  # each operation starts from the same collector state
        ops.append(workload.run_op(recorder))
        after = speed.kernel_s()
        scales.append(speed.scale(kernel_s, after))
        kernel_s = after
    return ops, scales, kernel_s


def canonical(outputs) -> str:
    return json.dumps(outputs, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # One CPU, so that the calibration kernel and the workload see the
    # same vCPU: contention on the two vCPUs is not correlated.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from workloads import OUT_DIR, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    start = time.perf_counter()
    try:
        workload.load()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    # Imported after set-up, so that numpy's import counts in setup_s.
    import report
    import speed

    kernel_s = speed.kernel_s()
    setup_scale = speed.REFERENCE_S / kernel_s

    problems = []
    if args.trace:
        import spans

        untraced, untraced_scales, kernel_s = measure(
            workload, args.seconds * UNTRACED_SHARE, kernel_s
        )
        recorder = spans.SpanRecorder()
        with spans.traced(recorder):
            traced, traced_scales, _ = measure(
                workload, 0, kernel_s, len(untraced), recorder
            )
        ops = untraced + traced
        metrics = report.per_layer(
            recorder, traced, traced_scales, untraced, untraced_scales,
            getattr(workload, "prepare_s", 0.0) * setup_scale,
        )
        floor = MIN_ATTRIBUTED.get(args.workload)
        if floor is not None and metrics["attributed_share"] < floor:
            problems.append(
                f"traced run attributes {metrics['attributed_share']:.3f} of "
                f"wall time to the layers, below {floor}"
            )
        units = {name: unit for name, unit, _ in report.per_layer_definitions()}
    else:
        ops, scales, _ = measure(workload, args.seconds, kernel_s)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = report.end_to_end(setup_s * setup_scale, rss_mb, ops, scales)
        units = {name: unit for name, unit, _, _ in report.END_TO_END}
        named = report.named(args.workload, metrics, ops, scales)
        print("named: " + ", ".join(
            f"{name}={value:.6g} {unit}" for name, (value, unit) in named.items()
        ))

    for op in ops:
        problems.extend(op.problems)
    first = canonical(ops[0].outputs)
    diverged = sum(1 for op in ops[1:] if canonical(op.outputs) != first)
    if diverged:
        problems.append(f"{diverged} of {len(ops)} operations gave different outputs")
    digest = hashlib.sha256(first.encode()).hexdigest()

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    with open(stem + "-outputs.json", "w") as handle:
        handle.write(first + "\n")
    if args.trace:
        recorder.write(stem + "-spans.json")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} ops={len(ops)} outputs_sha256={digest}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
