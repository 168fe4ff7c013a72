#!/usr/bin/env bash
# Repo CI gate: static analysis, tier-1 tests, the pipeline, serving,
# loadtest, obs and real-plane smokes, and the benchmark's own smoke test
# (perfbench/smoke.py, which tier-1 does not collect).
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

echo "==> tier-1 pytest (must leave the tree as it found it)"
TREE_BEFORE="$(git status --porcelain)"
python -m pytest -x -q
TREE_AFTER="$(git status --porcelain)"
if [[ "$TREE_BEFORE" != "$TREE_AFTER" ]]; then
    echo "tier-1 changed the tree:"
    diff <(echo "$TREE_BEFORE") <(echo "$TREE_AFTER") || true
    exit 1
fi

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

echo "==> serve-sim smoke (bursty scenario, all policies)"
python -m repro serve-sim --scenario bursty --policy all --scale smoke --seed 0

echo "==> fleet serve-sim smoke (4 replicas behind the least_queue router)"
python -m repro serve-sim --scenario bursty --policy slo --scale smoke \
    --replicas 4 --router least_queue --seed 0

echo "==> loadtest smoke (tiny grid; report must be bit-identical across runs)"
LOADTEST_DIR_A="$(mktemp -d)"
LOADTEST_DIR_B="$(mktemp -d)"
trap 'rm -rf "$PIPELINE_RUN_DIR" "$LOADTEST_DIR_A" "$LOADTEST_DIR_B"' EXIT
python -m repro loadtest --config examples/loadtest_smoke.json \
    --output-dir "$LOADTEST_DIR_A" --quiet
python -m repro loadtest --config examples/loadtest_smoke.json \
    --output-dir "$LOADTEST_DIR_B" --quiet
for artifact in loadtest_report.json loadtest_report.md \
        trace_bursty.jsonl trace_flash_crowd.jsonl; do
    test -f "$LOADTEST_DIR_A/$artifact" \
        || { echo "missing loadtest artifact: $artifact"; exit 1; }
done
diff -r "$LOADTEST_DIR_A" "$LOADTEST_DIR_B" \
    || { echo "loadtest run is not deterministic"; exit 1; }
grep -q '"energy_per_request_pj"' "$LOADTEST_DIR_A/loadtest_report.json" \
    || { echo "loadtest report lacks the energy-per-request column"; exit 1; }

echo "==> obs diff gate (identical smoke runs must diff clean)"
python -m repro obs diff "$LOADTEST_DIR_A" "$LOADTEST_DIR_B" \
    || { echo "obs diff flagged a regression between identical runs"; exit 1; }

echo "==> obs smoke (tracing must not change the deterministic report)"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$PIPELINE_RUN_DIR" "$LOADTEST_DIR_A" "$LOADTEST_DIR_B" "$OBS_DIR"' EXIT
python -m repro loadtest --config examples/loadtest_smoke.json \
    --output-dir "$OBS_DIR" --obs --quiet
cmp "$LOADTEST_DIR_A/loadtest_report.json" "$OBS_DIR/loadtest_report.json" \
    || { echo "traced loadtest report differs from untraced run"; exit 1; }
for artifact in obs/trace_events.jsonl obs/metrics.prom obs/metrics.jsonl; do
    test -f "$OBS_DIR/$artifact" \
        || { echo "missing obs artifact: $artifact"; exit 1; }
done
python -m repro obs "$OBS_DIR" > /dev/null \
    || { echo "repro obs failed to render the traced run dir"; exit 1; }
python -m repro obs "$OBS_DIR" --profile > /dev/null \
    || { echo "repro obs --profile failed on the traced run dir"; exit 1; }

echo "==> SLO gate (an injected unmeetable SLO must fail the check)"
if python -m repro slo check "$OBS_DIR" --latency-target-s 0.000000001 \
        --quiet; then
    echo "repro slo check passed an unmeetable 1 ns latency target"
    exit 1
fi

echo "==> real-plane pytest (spawned worker pool + gateway, marker-gated)"
python -m pytest -q -m real_plane

echo "==> serve-real smoke (real gateway + workers validated vs the simulator)"
SERVE_REAL_DIR="$(mktemp -d)"
trap 'rm -rf "$PIPELINE_RUN_DIR" "$LOADTEST_DIR_A" "$LOADTEST_DIR_B" "$OBS_DIR" "$SERVE_REAL_DIR"' EXIT
# One worker concentrates the burst so the policies separate and the
# --strict ordering + occupancy comparison against the simulator is
# non-vacuous; 96 requests keep the replay to seconds.
python -m repro serve-real --scenario bursty --policy all --workers 1 \
    --max-requests 96 --seed 0 --compare --strict \
    --output-dir "$SERVE_REAL_DIR"
for artifact in serve_real_report.json sim_vs_real.json trace.jsonl \
        metrics_scrape.prom obs/trace_events.jsonl obs/metrics.prom; do
    test -f "$SERVE_REAL_DIR/$artifact" \
        || { echo "missing serve-real artifact: $artifact"; exit 1; }
done
python - "$SERVE_REAL_DIR" <<'PY'
import json, sys
run_dir = sys.argv[1]
with open(f"{run_dir}/serve_real_report.json") as handle:
    payload = json.load(handle)
assert payload["plane"] == "real", payload.get("plane")
reports = payload["reports"]
assert len(reports) == 3, f"expected 3 policy reports, got {len(reports)}"
for report in reports:
    for key in ("policy", "num_requests", "latency_p50_s", "latency_p95_s",
                "latency_p99_s", "occupancy", "per_replica", "slo_s"):
        assert key in report, f"report lacks {key!r}"
    assert report["num_requests"] == 96, report["num_requests"]
for summary in payload["replay"]:
    assert summary["drained"], f"{summary['policy']} did not drain"
    assert summary["failed"] == [], summary["failed"]
with open(f"{run_dir}/sim_vs_real.json") as handle:
    assert json.load(handle)["verdict"]["ok"]
print("serve-real report schema + verdict ok")
PY
grep -Eq 'repro_requests_completed_total\{[^}]*\} [1-9]' \
        "$SERVE_REAL_DIR/metrics_scrape.prom" \
    || { echo "live /metrics scrape has no completed requests"; exit 1; }
grep -Eq 'repro_gateway_http_requests_total\{[^}]*code="200"[^}]*\} [1-9]' \
        "$SERVE_REAL_DIR/metrics_scrape.prom" \
    || { echo "live /metrics scrape has no gateway 200s"; exit 1; }
python -m repro obs "$SERVE_REAL_DIR" > /dev/null \
    || { echo "repro obs failed to render the serve-real run dir"; exit 1; }

echo "==> perfbench smoke (every workload runs, checks its outputs, prints its metrics)"
# perfbench imports src/ itself and checks it refuses to run without it,
# which an inherited PYTHONPATH pointing at src/ would defeat.
env -u PYTHONPATH python -m pytest -q perfbench/smoke.py

echo "==> CI gate passed"
