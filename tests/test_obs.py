"""Telemetry plane: tracer, metrics, exporters, sidecars, views, profile,
CLI."""

import json
import os

import numpy as np
import pytest

from repro.obs import (
    BATCH_SIZE_BUCKETS,
    EVENT_KINDS,
    NULL_TRACER,
    MetricsRecorder,
    MetricsRegistry,
    NullTracer,
    Tracer,
    bits_label,
    find_trace_file,
    load_events_jsonl,
    load_run_events,
    profile_events,
    render_events,
    render_profile,
    render_run_dir,
    write_obs_artifacts,
)
from repro.obs import console


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_emit_records_kind_time_and_fields(self):
        tracer = Tracer()
        event = tracer.emit("enqueue", 1.5, request_id=7, replica=0)
        assert event == {
            "kind": "enqueue", "time_s": 1.5, "request_id": 7, "replica": 0,
        }
        assert tracer.events == [event]
        assert len(tracer) == 1

    def test_sinks_see_events_at_emit_time(self):
        seen = []
        tracer = Tracer(sinks=(seen.append,))
        tracer.emit("route", 0.0, replica=1)
        tracer.emit("route", 0.1, replica=2)
        assert [e["replica"] for e in seen] == [1, 2]

    def test_bind_stamps_fields_and_emit_site_wins(self):
        tracer = Tracer()
        cell = tracer.bind(policy="slo", replica=0)
        cell.emit("batch", 2.0, size=4)
        cell.emit("batch", 3.0, size=2, replica=9)   # explicit field wins
        assert tracer.events[0]["policy"] == "slo"
        assert tracer.events[0]["replica"] == 0
        assert tracer.events[1]["replica"] == 9

    def test_bind_is_stackable(self):
        tracer = Tracer()
        tracer.bind(scenario="bursty").bind(policy="slo").emit("route", 0.0)
        assert tracer.events[0]["scenario"] == "bursty"
        assert tracer.events[0]["policy"] == "slo"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("enqueue", 0.25, request_id=0)
        tracer.emit("complete", 0.5, request_id=0, latency_s=0.25)
        path = tracer.save_jsonl(str(tmp_path / "trace.jsonl"))
        assert load_events_jsonl(path) == tracer.events

    def test_jsonl_bytes_are_deterministic(self):
        def build():
            t = Tracer()
            t.emit("batch", 1.0, bits=(4, 8), size=3)
            return t.to_jsonl()

        assert build() == build()

    def test_event_kinds_cover_request_lifecycle(self):
        for kind in ("enqueue", "route", "bit_switch", "batch",
                     "complete", "stage"):
            assert kind in EVENT_KINDS


class TestNullTracer:
    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_emit_is_noop_and_bind_returns_self(self):
        assert NULL_TRACER.emit("enqueue", 0.0, request_id=1) is None
        assert NULL_TRACER.bind(policy="slo") is NULL_TRACER

    def test_has_no_instance_state(self):
        # The zero-allocation contract: nothing to accumulate into.
        assert NullTracer.__slots__ == ()


class TestBitsLabel:
    def test_tuple_list_and_int_forms(self):
        assert bits_label((4, 8)) == "W4A8"
        assert bits_label([4, 8]) == "W4A8"      # JSON round-trip form
        assert bits_label(8) == "8"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_requests_total", "requests")
        c.inc(replica=0)
        c.inc(2, replica=0)
        c.inc(replica=1)
        assert c.value(replica=0) == 3
        assert c.value(replica=1) == 1
        assert c.value(replica=2) == 0

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_keeps_last_value(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5, replica=0)
        g.set(2, replica=0)
        assert g.value(replica=0) == 2
        assert g.value(replica=1) is None

    def test_histogram_buckets_are_cumulative(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        (sample,) = h.samples()
        assert sample["buckets"] == {"0.01": 1, "0.1": 2, "1": 3}
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(5.555)

    def test_histogram_rejects_bad_bounds(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h1", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(1.0, 0.5))

    def test_registry_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_requests_total", "requests served").inc(
            3, replica=0, bits="W4A8"
        )
        reg.histogram("repro_lat", buckets=(0.1, 1.0)).observe(0.5)
        text = reg.to_prometheus()
        assert "# HELP repro_requests_total requests served" in text
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{bits="W4A8",replica="0"} 3' in text
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{le="0.1"} 0' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_sum 0.5" in text
        assert "repro_lat_count 1" in text

    def test_label_values_are_escaped_and_round_trip(self):
        reg = MetricsRegistry()
        hostile = 'quote:" backslash:\\ newline:\nend'
        reg.counter("c_total").inc(2, note=hostile)
        text = reg.to_prometheus()
        # Raw specials never leak into the exposition line.
        [line] = [l for l in text.splitlines() if l.startswith("c_total{")]
        assert '\\"' in line and "\\\\" in line and "\\n" in line
        assert "\n" not in line
        # Unescaping the label value recovers the original byte-for-byte
        # (the Prometheus text-format contract: \\ then \" then \n).
        value = line.split('note="', 1)[1].rsplit('"}', 1)[0]
        out, i = [], 0
        while i < len(value):
            if value[i] == "\\":
                out.append({"n": "\n", '"': '"', "\\": "\\"}[value[i + 1]])
                i += 2
            else:
                out.append(value[i])
                i += 1
        assert "".join(out) == hostile

    def test_exporters_are_deterministic(self):
        def build():
            reg = MetricsRegistry()
            # Insertion order deliberately scrambled vs name order.
            reg.gauge("z_depth").set(4, replica=1)
            reg.counter("a_total").inc(replica=1)
            reg.counter("a_total").inc(replica=0)
            return reg.to_prometheus(), reg.to_jsonl()

        assert build() == build()

    def test_jsonl_rows_parse(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5, bits="8")
        rows = [json.loads(line) for line in reg.to_jsonl().splitlines()]
        assert rows == [{
            "kind": "counter", "labels": {"bits": "8"},
            "name": "c", "value": 5.0,
        }]


class TestMetricsRecorder:
    def test_folds_event_stream_into_metrics(self):
        reg = MetricsRegistry()
        tracer = Tracer(sinks=(MetricsRecorder(reg),))
        tracer.emit("enqueue", 0.0, request_id=0, replica=0, queue_depth=1)
        tracer.emit("route", 0.0, request_id=0, replica=0, active=2)
        tracer.emit("batch", 0.1, replica=0, bits=(4, 8), size=2,
                    start_s=0.1, finish_s=0.2, service_s=0.1, queue_depth=3)
        tracer.emit("complete", 0.2, request_id=0, replica=0, bits=(4, 8),
                    arrival_s=0.0, start_s=0.1, finish_s=0.2, latency_s=0.2)
        tracer.emit("bit_switch", 0.3, replica=0, from_bits=16,
                    to_bits=(4, 8))
        tracer.emit("stage", 0.0, stage="serve", seconds=1.25)

        assert reg.counter("repro_requests_enqueued_total").value(
            replica=0) == 1
        assert reg.counter("repro_requests_completed_total").value(
            replica=0, bits="W4A8") == 1
        assert reg.counter("repro_batches_total").value(
            replica=0, bits="W4A8") == 1
        assert reg.counter("repro_bit_switches_total").value(replica=0) == 1
        assert reg.counter("repro_pipeline_stage_seconds_total").value(
            stage="serve") == pytest.approx(1.25)
        assert reg.gauge("repro_queue_depth").value(replica=0) == 3
        assert reg.histogram("repro_request_latency_seconds").count() == 1
        assert reg.histogram("repro_batch_size").count() == 1


    def test_route_forward_and_decision_counters(self):
        reg = MetricsRegistry()
        tracer = Tracer(sinks=(MetricsRecorder(reg),))
        for replica in (0, 1, 1):
            tracer.emit("route", 0.0, request_id=0, replica=replica,
                        active=2)
        tracer.emit("policy_decision", 0.1, replica=1, bits=8,
                    batch_size=2, queue_depth=0, oldest_wait_s=0.0)
        tracer.emit("forward", 0.1, replica=1, bits=8, size=2)
        assert reg.counter("repro_requests_routed_total").value(
            replica=1) == 2
        assert reg.counter("repro_requests_routed_total").value(
            replica=0) == 1
        assert reg.counter("repro_policy_decisions_total").value(
            bits="8") == 1
        assert reg.counter("repro_forwards_total").value(
            replica=1, bits="8") == 1


# ----------------------------------------------------------------------
# Console
# ----------------------------------------------------------------------
class TestConsole:
    def test_info_respects_quiet_error_does_not(self, capsys):
        console.set_quiet(True)
        try:
            console.info("hidden")
            console.error("loud")
        finally:
            console.set_quiet(False)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "loud" in captured.err

    def test_experiment_main_prints_to_text(self, capsys):
        class Result:
            def to_text(self):
                return "== table =="

        assert console.experiment_main(lambda: Result()) == 0
        assert "== table ==" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Sidecar artifacts + run-dir loading
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_write_bundle_and_load_back(self, tmp_path):
        run_dir = str(tmp_path)
        reg = MetricsRegistry()
        tracer = Tracer(sinks=(MetricsRecorder(reg),))
        tracer.emit("enqueue", 0.0, request_id=0, replica=0, queue_depth=1)
        paths = write_obs_artifacts(run_dir, tracer=tracer, metrics=reg)
        assert set(paths) == {"trace", "metrics_prom", "metrics_jsonl"}
        for path in paths.values():
            assert os.path.isfile(path)
        assert find_trace_file(run_dir) == paths["trace"]
        assert load_run_events(run_dir) == tracer.events

    def test_missing_trace_raises_with_guidance(self, tmp_path):
        with pytest.raises(FileNotFoundError,
                           match="repro serve-sim --obs-dir"):
            load_run_events(str(tmp_path))


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
def _synthetic_cell_events():
    """A small two-replica run with one bit switch."""
    tracer = Tracer()
    cell = tracer.bind(scenario="bursty", policy="slo",
                       router="least_queue", replicas=2)
    t = 0.0
    for i in range(8):
        replica = i % 2
        cell.emit("enqueue", t, request_id=i, replica=replica,
                  queue_depth=1)
        cell.emit("route", t, request_id=i, replica=replica, active=2)
        t += 0.01
    for j, (replica, bits) in enumerate([(0, 8), (1, 16), (0, 16), (1, 16)]):
        start, finish = 0.1 + j * 0.05, 0.14 + j * 0.05
        cell.emit("batch", start, replica=replica, bits=bits, size=2,
                  start_s=start, finish_s=finish, service_s=0.04,
                  queue_depth=0)
        for k in range(2):
            rid = j * 2 + k
            cell.emit("complete", finish, request_id=rid, replica=replica,
                      bits=bits, arrival_s=rid * 0.01, start_s=start,
                      finish_s=finish,
                      latency_s=finish - rid * 0.01)
    cell.emit("bit_switch", 0.2, replica=0, from_bits=8, to_bits=16)
    return tracer


class TestViews:
    def test_render_events_contains_every_section(self):
        out = render_events(_synthetic_cell_events().events, title="demo")
        assert "# Observability report: demo" in out
        assert "scenario=bursty / policy=slo / router=least_queue " \
               "/ replicas=2" in out
        assert "### Per-replica timeline" in out
        assert "### Bit-occupancy Gantt" in out
        assert "### Queue depth / p95 time series" in out
        assert "### Slowest requests (top 10)" in out

    def test_timeline_merges_consecutive_same_bits_batches(self):
        out = render_events(_synthetic_cell_events().events)
        # replica 0 served bits=8 then bits=16 -> two segments;
        # replica 1 served 16 twice -> one merged segment of 2 batches.
        assert "| 0 | 0.1000 – 0.1400 | 8 | 1 | 2 |" in out
        assert "| 1 | 0.1500 – 0.2900 | 16 | 2 | 4 |" in out

    def test_slowest_table_is_latency_sorted(self):
        out = render_events(_synthetic_cell_events().events, top=3)
        rows = [line for line in out.splitlines()
                if line.startswith("| ") and " | " in line]
        # Top slowest request is id 6 (latest batch, earliest arrival
        # in it): latency 0.29 - 0.06.
        slow_section = out.split("### Slowest requests")[1]
        data_rows = [l for l in slow_section.splitlines()
                     if l.startswith("| ") and not l.startswith("| req")
                     and "---" not in l]
        assert data_rows[0].split("|")[1].strip() == "6"
        assert rows  # sanity: tables rendered

    def test_stage_events_render_pipeline_section(self):
        tracer = Tracer()
        tracer.emit("stage", 0.0, stage="train", seconds=2.5)
        tracer.emit("stage", 2.5, stage="serve", seconds=0.5)
        out = render_events(tracer.events)
        assert "## Pipeline stages" in out
        assert "| train | 2.500 |" in out

    def test_empty_events(self):
        assert "(no events recorded)" in render_events([])

    def test_unlabelled_events_form_one_run_cell(self):
        tracer = Tracer()
        tracer.emit("enqueue", 0.0, request_id=0, replica=0, queue_depth=1)
        tracer.emit("enqueue", 0.1, request_id=1, replica=0, queue_depth=2)
        out = render_events(tracer.events)
        assert "## Cell: run" in out

    def test_cell_that_never_dispatched(self):
        tracer = Tracer()
        cell = tracer.bind(scenario="bursty", policy="slo")
        cell.emit("enqueue", 0.0, request_id=0, replica=0, queue_depth=1)
        cell.emit("enqueue", 0.2, request_id=1, replica=0, queue_depth=2)
        out = render_events(tracer.events)
        assert "0 requests over 0 batches, 0 bit switches" in out
        # The timeline and the Gantt both have nothing to draw.
        assert out.count("(no batches dispatched)") == 2
        assert "(no completed requests)" in out
        assert "### Queue depth / p95 time series" in out

    def test_single_instant_cell_has_an_empty_series(self):
        tracer = Tracer()
        tracer.emit("enqueue", 0.5, request_id=0, replica=0, queue_depth=1)
        assert "(empty span)" in render_events(tracer.events)

    def test_timeline_caps_segments_per_replica(self):
        tracer = Tracer()
        for j in range(30):
            bits = 8 if j % 2 else 16
            start = 0.01 * j
            tracer.emit("batch", start, replica=0, bits=bits, size=1,
                        start_s=start, finish_s=start + 0.01,
                        service_s=0.01, queue_depth=0)
        out = render_events(tracer.events)
        assert "| 0 | … | … | (6 more segments) | … | … |" in out

    def test_render_run_dir_reads_sidecar(self, tmp_path):
        tracer = _synthetic_cell_events()
        write_obs_artifacts(str(tmp_path), tracer=tracer)
        out = render_run_dir(str(tmp_path), buckets=4, width=16)
        assert "### Per-replica timeline" in out
        assert "scenario=bursty" in out


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def _profiled_tracer():
    tracer = Tracer()
    cell = tracer.bind(scenario="steady", policy="queue",
                       router="round_robin", replicas=1)
    for j, bits in enumerate([8, (4, 8)]):
        start, finish = 0.1 + j * 0.1, 0.15 + j * 0.1
        cell.emit("batch", start, replica=0, bits=bits, size=2,
                  start_s=start, finish_s=finish, service_s=0.05,
                  queue_depth=0, energy_pj=1000.0)
        for k in range(2):
            rid = j * 2 + k
            cell.emit("complete", finish, request_id=rid, replica=0,
                      bits=bits, arrival_s=rid * 0.01, start_s=start,
                      finish_s=finish, latency_s=finish - rid * 0.01)
    tracer.emit("stage", 0.0, stage="serve", seconds=1.5)
    return tracer


class TestProfile:
    def test_folds_spans_into_attribution_tables(self):
        payload = profile_events(_profiled_tracer().events)
        [cell] = payload["cells"]
        assert cell["cell"]["scenario"] == "steady"
        per_bit = {row["bits"]: row for row in cell["per_bit"]}
        assert set(per_bit) == {"8", "W4A8"}
        assert sum(r["share"] for r in per_bit.values()) == pytest.approx(1.0)
        assert per_bit["8"]["requests"] == 2
        assert per_bit["8"]["energy_pj"] == pytest.approx(1000.0)
        waits = {r["bits"]: r for r in cell["queue_wait_by_bits"]}
        assert waits["8"]["wait_s"] > 0
        assert 0.0 <= waits["8"]["wait_share"] <= 1.0
        assert payload["stages"] == [
            {"stage": "serve", "start_s": 0.0, "seconds": 1.5},
        ]

    def test_render_emits_markdown_tables(self):
        out = render_profile(profile_events(_profiled_tracer().events))
        assert "# Span profile" in out
        assert "### Self-time by bit-width" in out
        assert "### Queue wait by bit-width" in out
        assert "## Pipeline stages" in out

    def test_profile_is_deterministic(self):
        events = _profiled_tracer().events
        assert profile_events(events) == profile_events(events)


# ----------------------------------------------------------------------
# Tracing must not change results (the determinism contract)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sim_fixture():
    from repro import rng
    from repro.serve import BitLatencyModel, SPNetConfig, build_sp_net
    from repro.serve.simulator import prepare_simulation

    rng.set_seed(0)
    config = SPNetConfig(
        model="resnet8", bit_widths=(4, 8, 16), num_classes=3,
        width_mult=0.25, image_size=8,
    )
    sp_net = build_sp_net(config)
    latency_model = BitLatencyModel(
        {4: 0.001, 8: 0.002, 16: 0.004}, batch_overhead_s=0.001
    )
    import dataclasses

    from repro.serve.simulator import SERVE_SCALES

    scale = dataclasses.replace(
        SERVE_SCALES["smoke"], num_requests=48, image_size=8,
        num_classes=3, bit_widths=(4, 8, 16),
    )
    return prepare_simulation(
        "bursty", scale, sp_net=sp_net, config=config,
        latency_model=latency_model,
    )


class TestTracingIsObservational:
    def test_single_engine_reports_identical_traced_vs_untraced(
        self, sim_fixture
    ):
        from repro.serve.simulator import build_report, make_engine, simulate

        def run(tracer):
            engine = make_engine(sim_fixture, "slo", tracer=tracer)
            end_s = simulate(engine, sim_fixture.requests)
            return build_report("bursty", "slo", sim_fixture.scale,
                               engine, end_s, sim_fixture.slo_s)

        untraced = run(NULL_TRACER)
        tracer = Tracer(sinks=(MetricsRecorder(MetricsRegistry()),))
        traced = run(tracer)
        assert traced.to_json_dict() == untraced.to_json_dict()
        assert len(tracer) > 0

    def test_fleet_reports_identical_traced_vs_untraced(self, sim_fixture):
        from repro.serve.cluster import (
            build_fleet_report,
            make_fleet,
            simulate_fleet,
        )

        def run(tracer):
            fleet = make_fleet(
                sim_fixture, "slo", replicas=2, router="least_queue",
                tracer=tracer,
            )
            end_s = simulate_fleet(fleet, sim_fixture.requests)
            return build_fleet_report("bursty", "slo", sim_fixture.scale,
                                      fleet, end_s, sim_fixture.slo_s)

        untraced = run(NULL_TRACER)
        tracer = Tracer()
        traced = run(tracer)
        assert traced.to_json_dict() == untraced.to_json_dict()
        kinds = {e["kind"] for e in tracer.events}
        assert {"enqueue", "route", "batch", "complete"} <= kinds

    def test_trace_jsonl_is_byte_identical_across_runs(self, sim_fixture):
        from repro.serve.cluster import make_fleet, simulate_fleet

        def run():
            tracer = Tracer()
            fleet = make_fleet(
                sim_fixture, "slo", replicas=2, router="least_queue",
                tracer=tracer,
            )
            simulate_fleet(fleet, sim_fixture.requests)
            return tracer.to_jsonl()

        assert run() == run()

    def test_engine_default_tracer_is_the_shared_null(self, sim_fixture):
        from repro.serve.simulator import make_engine

        engine = make_engine(sim_fixture, "static")
        assert engine.tracer is NULL_TRACER


# ----------------------------------------------------------------------
# CLI: repro obs
# ----------------------------------------------------------------------
class TestObsCli:
    def test_renders_run_dir(self, tmp_path, capsys):
        from repro.__main__ import main

        write_obs_artifacts(str(tmp_path), tracer=_synthetic_cell_events())
        assert main(["obs", str(tmp_path), "--buckets", "4"]) == 0
        out = capsys.readouterr().out
        assert "### Per-replica timeline" in out
        assert "### Slowest requests" in out

    def test_missing_run_dir_fails_with_guidance(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["obs", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "repro serve-sim --obs-dir" in err
        assert "repro pipeline run --obs" in err

    def test_output_flag_writes_markdown(self, tmp_path, capsys):
        from repro.__main__ import main

        write_obs_artifacts(str(tmp_path), tracer=_synthetic_cell_events())
        out_path = tmp_path / "report.md"
        assert main(["obs", str(tmp_path), "--output", str(out_path)]) == 0
        assert "### Bit-occupancy Gantt" in out_path.read_text()
