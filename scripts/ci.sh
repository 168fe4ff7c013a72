#!/usr/bin/env bash
# Repo CI gate: static analysis, tier-1 tests, the pipeline, serving
# and obs smokes, and the benchmark's own smoke test (perfbench/smoke.py,
# which tier-1 does not collect).
#
#   bash scripts/ci.sh            # full gate
#   bash scripts/ci.sh --fast     # tier-1 tests only
#
# Each stage fails fast; the script exits non-zero on the first failure.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> static analysis (repro check vs committed findings baseline)"
python -m repro check --fail-on error --baseline scripts/check_baseline.json
git diff --quiet -- scripts/check_baseline.json \
    || { echo "scripts/check_baseline.json has uncommitted edits;" \
         "baseline updates must land as their own commit"; exit 1; }
python - <<'PY'
# The baseline may only grow in an explicit baseline-update commit (one
# that touches nothing but the baseline file); silent growth inside a
# code commit defeats the gate.
import json
import subprocess
import sys


def entries(ref):
    proc = subprocess.run(
        ["git", "show", f"{ref}:scripts/check_baseline.json"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    return len(json.loads(proc.stdout).get("findings", []))


head, prev = entries("HEAD"), entries("HEAD~1")
if head is None or prev is None or head <= prev:
    sys.exit(0)
touched = subprocess.run(
    ["git", "diff", "--name-only", "HEAD~1", "HEAD"],
    capture_output=True, text=True, check=True,
).stdout.split()
if touched != ["scripts/check_baseline.json"]:
    print(f"findings baseline grew {prev} -> {head} entries inside a "
          f"code commit; grow it only via a baseline-only commit")
    sys.exit(1)
PY

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

echo "==> pipeline smoke (generate -> train -> deploy -> serve from one JSON)"
python -m repro pipeline validate --config examples/pipeline_smoke.json
PIPELINE_RUN_DIR="$(mktemp -d)"
trap 'rm -rf "$PIPELINE_RUN_DIR"' EXIT
python -m repro pipeline run --config examples/pipeline_smoke.json \
    --run-dir "$PIPELINE_RUN_DIR"
for artifact in architecture.json checkpoint.npz deploy_report.json \
        serve_report.json pipeline_report.json; do
    test -f "$PIPELINE_RUN_DIR/$artifact" \
        || { echo "missing pipeline artifact: $artifact"; exit 1; }
done

echo "==> serve-sim smoke (bursty scenario, all policies; tracing must not change the report)"
SERVE_SIM_DIR="$(mktemp -d)"
trap 'rm -rf "$PIPELINE_RUN_DIR" "$SERVE_SIM_DIR"' EXIT
python -m repro serve-sim --scenario bursty --policy all --scale smoke --seed 0 \
    --output "$SERVE_SIM_DIR/serve_sim.json"
python -m repro serve-sim --scenario bursty --policy all --scale smoke --seed 0 \
    --output "$SERVE_SIM_DIR/serve_sim_traced.json" --obs-dir "$SERVE_SIM_DIR/obs"
cmp "$SERVE_SIM_DIR/serve_sim.json" "$SERVE_SIM_DIR/serve_sim_traced.json" \
    || { echo "traced serve-sim report differs from untraced run"; exit 1; }

echo "==> fleet serve-sim + obs smoke (4 replicas behind least_queue; the report"
echo "    must be deterministic and unchanged by tracing, and the trace must render)"
FLEET_DIR="$(mktemp -d)"
trap 'rm -rf "$PIPELINE_RUN_DIR" "$SERVE_SIM_DIR" "$FLEET_DIR"' EXIT
python -m repro serve-sim --replicas 4 --router least_queue \
    --output "$FLEET_DIR/A.json"
python -m repro serve-sim --replicas 4 --router least_queue \
    --output "$FLEET_DIR/B.json" --obs-dir "$FLEET_DIR/run"
cmp "$FLEET_DIR/A.json" "$FLEET_DIR/B.json" \
    || { echo "traced fleet report differs from untraced run"; exit 1; }
grep -q '"energy_per_request_pj"' "$FLEET_DIR/A.json" \
    || { echo "fleet report lacks the energy-per-request column"; exit 1; }
for artifact in obs/trace_events.jsonl obs/metrics.prom obs/metrics.jsonl; do
    test -f "$FLEET_DIR/run/$artifact" \
        || { echo "missing obs artifact: $artifact"; exit 1; }
done
python -m repro obs "$FLEET_DIR/run" > /dev/null \
    || { echo "repro obs failed to render the traced run dir"; exit 1; }
python -m repro obs "$FLEET_DIR/run" --profile > /dev/null \
    || { echo "repro obs --profile failed on the traced run dir"; exit 1; }

echo "==> observability tour (record, verify, export, inspect)"
python examples/observability_tour.py > /dev/null

echo "==> perfbench smoke (every workload runs, checks its outputs, prints its metrics)"
# perfbench imports src/ itself and checks it refuses to run without it,
# which an inherited PYTHONPATH pointing at src/ would defeat.
env -u PYTHONPATH python -m pytest -q perfbench/smoke.py

echo "==> CI gate passed"
