#!/usr/bin/env bash
# Repo CI gate: tier-1 tests (the repo invariants included, in
# tests/test_invariants.py), the slow claims' collection, the pipeline,
# serving and obs smokes, the end-to-end IoT and AutoMapper examples,
# and the benchmark's own smoke test (perfbench/smoke.py, which tier-1
# does not collect).
#
#   bash scripts/ci.sh            # full gate
#   bash scripts/ci.sh --fast     # tier-1 and the slow claims' collection only
#
# Each stage fails fast; the script exits non-zero on the first failure.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

# Every temp dir a stage makes joins TEMP_DIRS; one EXIT trap removes them.
TEMP_DIRS=()
trap 'rm -rf "${TEMP_DIRS[@]}"' EXIT

echo "==> numpy runtime (SIMD dispatch; the bitwise float32 tests depend on it)"
python -c "import numpy; numpy.show_runtime()"

echo "==> tier-1 pytest (must leave the tree as it found it)"
TREE_BEFORE="$(git status --porcelain)"
python -m pytest -x -q --durations=15
TREE_AFTER="$(git status --porcelain)"
if [[ "$TREE_BEFORE" != "$TREE_AFTER" ]]; then
    echo "tier-1 changed the tree:"
    diff <(echo "$TREE_BEFORE") <(echo "$TREE_AFTER") || true
    exit 1
fi

echo "==> slow claims collect (tier-1 deselects them; they must still import)"
python -m pytest --collect-only -q -m slow

if [[ "${1:-}" == "--fast" ]]; then
    echo "==> done (fast mode: skipped the smokes and perfbench)"
    exit 0
fi

echo "==> pipeline smoke (generate -> train -> deploy -> serve from one JSON, scipy blocked)"
python -m repro pipeline validate --config examples/pipeline_smoke.json
PIPELINE_RUN_DIR="$(mktemp -d)"
TEMP_DIRS+=("$PIPELINE_RUN_DIR")
# The runtime needs only numpy: with scipy unimportable the run must pass.
python -c "
import sys
sys.modules['scipy'] = None
from repro.__main__ import main
sys.exit(main(sys.argv[1:]))
" pipeline run --config examples/pipeline_smoke.json \
    --run-dir "$PIPELINE_RUN_DIR"
for artifact in architecture.json checkpoint.npz checkpoint.json \
        deploy_report.json serve_report.json pipeline_report.json; do
    test -f "$PIPELINE_RUN_DIR/$artifact" \
        || { echo "missing pipeline artifact: $artifact"; exit 1; }
done
# The run dir's config.json must load back as a valid pipeline config.
python -m repro pipeline validate --config "$PIPELINE_RUN_DIR/config.json"

echo "==> traced pipeline smoke (--obs writes the trace; repro obs renders it)"
PIPELINE_OBS_DIR="$(mktemp -d)"
TEMP_DIRS+=("$PIPELINE_OBS_DIR")
python -m repro pipeline run --config examples/pipeline_smoke.json \
    --run-dir "$PIPELINE_OBS_DIR" --obs
[[ "$(ls -A "$PIPELINE_OBS_DIR/obs")" == "trace_events.jsonl" ]] \
    || { echo "pipeline obs/ must hold exactly trace_events.jsonl"; exit 1; }
python -m repro obs "$PIPELINE_OBS_DIR" > /dev/null \
    || { echo "repro obs failed to render the traced pipeline run dir"; exit 1; }
python -m repro obs "$PIPELINE_OBS_DIR" --profile > /dev/null \
    || { echo "repro obs --profile failed on the traced pipeline run dir"; exit 1; }

echo "==> plain and traced pipeline runs agree (tracing must not change a result)"
for artifact in checkpoint.npz checkpoint.json; do
    cmp "$PIPELINE_RUN_DIR/$artifact" "$PIPELINE_OBS_DIR/$artifact" \
        || { echo "traced pipeline $artifact differs from the plain run"; exit 1; }
done
# Stage reports record their wall time under "seconds"; all else must match.
python - "$PIPELINE_RUN_DIR" "$PIPELINE_OBS_DIR" <<'EOF'
import json, sys

def timeless(value):
    if isinstance(value, dict):
        return {k: timeless(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [timeless(v) for v in value]
    return value

plain, traced = sys.argv[1:]
for name in ("architecture.json", "train_report.json", "deploy_report.json",
             "serve_report.json"):
    reports = [timeless(json.load(open(f"{d}/{name}"))) for d in (plain, traced)]
    if reports[0] != reports[1]:
        sys.exit(f"traced pipeline {name} differs from the plain run")
EOF

echo "==> serve-sim smoke (bursty scenario, all policies; tracing must not change the report)"
SERVE_SIM_DIR="$(mktemp -d)"
TEMP_DIRS+=("$SERVE_SIM_DIR")
python -m repro serve-sim --scenario bursty --policy all --scale smoke --seed 0 \
    --output "$SERVE_SIM_DIR/serve_sim.json"
python -m repro serve-sim --scenario bursty --policy all --scale smoke --seed 0 \
    --output "$SERVE_SIM_DIR/serve_sim_traced.json" --obs-dir "$SERVE_SIM_DIR/obs"
cmp "$SERVE_SIM_DIR/serve_sim.json" "$SERVE_SIM_DIR/serve_sim_traced.json" \
    || { echo "traced serve-sim report differs from untraced run"; exit 1; }

echo "==> fleet serve-sim + obs smoke (4 replicas behind least_queue; the report"
echo "    must be deterministic and unchanged by tracing, and the trace must render)"
FLEET_DIR="$(mktemp -d)"
TEMP_DIRS+=("$FLEET_DIR")
python -m repro serve-sim --replicas 4 --router least_queue \
    --output "$FLEET_DIR/A.json"
python -m repro serve-sim --replicas 4 --router least_queue \
    --output "$FLEET_DIR/B.json" --obs-dir "$FLEET_DIR/run"
cmp "$FLEET_DIR/A.json" "$FLEET_DIR/B.json" \
    || { echo "traced fleet report differs from untraced run"; exit 1; }
grep -q '"energy_per_request_pj"' "$FLEET_DIR/A.json" \
    || { echo "fleet report lacks the energy-per-request column"; exit 1; }
[[ "$(ls -A "$FLEET_DIR/run/obs")" == "trace_events.jsonl" ]] \
    || { echo "obs/ must hold exactly trace_events.jsonl"; exit 1; }
python -m repro obs "$FLEET_DIR/run" > /dev/null \
    || { echo "repro obs failed to render the traced run dir"; exit 1; }
python -m repro obs "$FLEET_DIR/run" --profile > /dev/null \
    || { echo "repro obs --profile failed on the traced run dir"; exit 1; }

echo "==> observability tour (record, verify, inspect)"
python examples/observability_tour.py > /dev/null

echo "==> end-to-end IoT example (SP-NAS -> CDT -> AutoMapper per bit-width)"
python examples/end_to_end_iot.py > /dev/null

echo "==> AutoMapper example (AlexNet on an Eyeriss-class ASIC, per-bit-width mappings)"
python examples/deploy_dataflow.py > /dev/null

echo "==> perfbench smoke (every workload runs, checks its outputs, prints its metrics)"
# perfbench imports src/ itself and checks it refuses to run without it,
# which an inherited PYTHONPATH pointing at src/ would defeat.
env -u PYTHONPATH python -m pytest -q perfbench/smoke.py

echo "==> CI gate passed"
