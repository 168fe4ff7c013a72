"""Telemetry plane: tracer, sidecars, views, profile, CLI."""

import os

import numpy as np
import pytest

from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
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
from repro.obs.tracer import CELL_KEYS, cell_key


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
        tracer.bind(scenario="bursty").bind(policy="slo").emit("enqueue", 0.0)
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
        for kind in ("enqueue", "bit_switch", "batch", "complete", "stage"):
            assert kind in EVENT_KINDS

    def test_vocabulary_is_exactly_what_the_views_read(self):
        # route/forward/policy_decision restated enqueue/batch and are
        # no longer emitted; the vocabulary holds the five kinds left.
        assert EVENT_KINDS == (
            "enqueue", "bit_switch", "batch", "complete", "stage",
        )

    def test_emit_stores_time_as_float(self):
        tracer = Tracer()
        event = tracer.emit("stage", 2, stage="serve")
        assert event["time_s"] == 2.0 and isinstance(event["time_s"], float)

    def test_rebinding_leaves_the_parent_view_unchanged(self):
        tracer = Tracer()
        cell = tracer.bind(scenario="bursty")
        cell.bind(policy="slo").emit("enqueue", 0.0)
        cell.emit("enqueue", 1.0)
        assert cell.fields == {"scenario": "bursty"}
        assert "policy" not in tracer.events[1]

    def test_jsonl_is_one_sorted_object_per_line(self):
        tracer = Tracer()
        tracer.emit("enqueue", 0.0, replica=1, request_id=3)
        tracer.emit("complete", 0.5, request_id=3)
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            '{"kind": "enqueue", "replica": 1, "request_id": 3, '
            '"time_s": 0.0}'
        )

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "enqueue", "time_s": 0.0}\n\n  \n'
                        '{"kind": "stage", "time_s": 1.0}\n')
        assert [e["kind"] for e in load_events_jsonl(str(path))] == [
            "enqueue", "stage",
        ]


class TestCellKey:
    def test_pairs_follow_cell_keys_order_and_skip_other_fields(self):
        event = {"kind": "batch", "time_s": 0.0, "replicas": 2,
                 "policy": "slo", "replica": 1, "scenario": "bursty",
                 "router": "least_queue"}
        assert cell_key(event) == (
            ("scenario", "bursty"), ("policy", "slo"),
            ("router", "least_queue"), ("replicas", 2),
        )
        assert CELL_KEYS == ("scenario", "policy", "router", "replicas")

    def test_single_engine_cell_has_no_fleet_labels(self):
        event = {"kind": "enqueue", "time_s": 0.0, "scenario": "constant",
                 "policy": "static"}
        assert cell_key(event) == (
            ("scenario", "constant"), ("policy", "static"),
        )

    def test_unlabelled_event_has_the_empty_key(self):
        assert cell_key({"kind": "enqueue", "time_s": 0.0}) == ()


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
        tracer = Tracer()
        tracer.emit("enqueue", 0.0, request_id=0, replica=0, queue_depth=1)
        paths = write_obs_artifacts(run_dir, tracer)
        assert set(paths) == {"trace"}
        assert os.listdir(tmp_path / "obs") == ["trace_events.jsonl"]
        assert find_trace_file(run_dir) == paths["trace"]
        assert load_run_events(run_dir) == tracer.events

    def test_missing_trace_raises_with_guidance(self, tmp_path):
        with pytest.raises(FileNotFoundError,
                           match="repro serve-sim --obs-dir"):
            load_run_events(str(tmp_path))

    def test_trace_found_from_obs_dir_or_the_file_itself(self, tmp_path):
        tracer = Tracer()
        tracer.emit("enqueue", 0.0, request_id=0, replica=0, queue_depth=1)
        trace = write_obs_artifacts(str(tmp_path), tracer)["trace"]
        assert find_trace_file(str(tmp_path / "obs")) == trace
        assert find_trace_file(trace) == trace
        assert find_trace_file(str(tmp_path / "elsewhere")) is None

    def test_rewriting_replaces_the_previous_trace(self, tmp_path):
        first = Tracer()
        for i in range(3):
            first.emit("enqueue", float(i), request_id=i, replica=0,
                       queue_depth=i + 1)
        write_obs_artifacts(str(tmp_path), first)
        second = Tracer()
        second.emit("stage", 0.0, stage="serve", seconds=0.5)
        write_obs_artifacts(str(tmp_path), second)
        assert load_run_events(str(tmp_path)) == second.events


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

    def test_cell_header_counts_requests_batches_and_switches(self):
        tracer = Tracer()
        tracer.emit("enqueue", 0.0, request_id=0, replica=0, queue_depth=1)
        tracer.emit("batch", 0.1, replica=0, bits=(4, 8), size=2,
                    start_s=0.1, finish_s=0.2, service_s=0.1, queue_depth=3)
        tracer.emit("complete", 0.2, request_id=0, replica=0, bits=(4, 8),
                    arrival_s=0.0, start_s=0.1, finish_s=0.2, latency_s=0.2)
        tracer.emit("bit_switch", 0.3, replica=0, from_bits=16,
                    to_bits=(4, 8))
        tracer.emit("stage", 0.0, stage="serve", seconds=1.25)
        out = render_events(tracer.events)
        assert "1 requests over 1 batches, 1 bit switches" in out
        assert "| serve | 1.250 |" in out

    def test_virtual_span_excludes_wall_clock_stage_events(self):
        # Stage events carry wall-clock offsets; the header's virtual
        # span must cover only the simulation-clock cell, as the
        # cell's own span line does.
        tracer = _synthetic_cell_events()
        tracer.emit("stage", 0.0004, stage="generate", seconds=1.5)
        tracer.emit("stage", 1.5004, stage="serve", seconds=0.5)
        out = render_events(tracer.events)
        assert "virtual span: 0.0000s – 0.2900s" in out
        assert "bit switches, span 0.0000s – 0.2900s" in out
        assert "1.5004" not in out

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

    def test_cells_render_in_sorted_label_order(self):
        tracer = Tracer()
        for policy in ("static", "queue", "slo"):
            tracer.bind(scenario="constant", policy=policy).emit(
                "enqueue", 0.0, request_id=0, replica=0, queue_depth=1,
            )
        out = render_events(tracer.events)
        titles = [line for line in out.splitlines()
                  if line.startswith("## Cell: ")]
        assert titles == [
            "## Cell: scenario=constant / policy=queue",
            "## Cell: scenario=constant / policy=slo",
            "## Cell: scenario=constant / policy=static",
        ]

    def test_stage_only_trace_renders_no_cell(self):
        tracer = Tracer()
        tracer.emit("stage", 0.0, stage="generate", seconds=0.25)
        tracer.emit("stage", 0.25, stage="train", seconds=3.0)
        out = render_events(tracer.events)
        assert "2 events: stage=2" in out
        assert "virtual span: 0.0000s – 0.0000s" in out
        assert "| generate | 0.250 |" in out
        assert "## Cell:" not in out

    def test_event_count_header_lists_kinds_alphabetically(self):
        out = render_events(_synthetic_cell_events().events)
        assert out.splitlines()[2] == (
            "21 events: batch=4, bit_switch=1, complete=8, enqueue=8"
        )

    def test_queue_depth_folds_batches_in_emit_order(self):
        # The batch at t=0.1 was dispatched after the enqueue at the
        # same instant: the backlog reads 1, 2, 0, 1, 2, never 3.
        tracer = Tracer()
        for t in (0.0, 0.1):
            tracer.emit("enqueue", t, request_id=int(t * 10), replica=0)
        tracer.emit("batch", 0.1, replica=0, bits=8, size=2, start_s=0.1,
                    finish_s=0.15, service_s=0.05, queue_depth=0)
        for t in (0.2, 0.3):
            tracer.emit("enqueue", t, request_id=int(t * 10), replica=0)
        out = render_events(tracer.events, buckets=1)
        assert "| 0.0000 | 4 | 0 | 2 | n/a |" in out

    def test_gantt_legend_orders_bits_by_width(self):
        out = render_events(_synthetic_cell_events().events, width=8)
        assert "legend: `1`=8  `2`=16  `.`=idle" in out

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

    def test_queue_wait_splits_per_replica(self):
        payload = profile_events(_synthetic_cell_events().events)
        [cell] = payload["cells"]
        rows = {r["replica"]: r for r in cell["queue_wait_by_replica"]}
        assert set(rows) == {"0", "1"}
        assert rows["0"]["requests"] == rows["1"]["requests"] == 4
        # Every batch in the synthetic run is served in 0.04 s.
        assert rows["0"]["service_s"] == pytest.approx(4 * 0.04)
        assert payload["stages"] == []

    def test_unlabelled_events_profile_as_one_run_cell(self):
        tracer = Tracer()
        tracer.emit("batch", 0.0, replica=0, bits=8, size=1, start_s=0.0,
                    finish_s=0.5, service_s=0.5, queue_depth=0)
        payload = profile_events(tracer.events)
        assert [c["cell"] for c in payload["cells"]] == [{}]
        assert payload["cells"][0]["per_bit"][0]["share"] == 1.0
        assert "## run" in render_profile(payload)

    def test_completions_without_arrival_are_not_attributed(self):
        tracer = Tracer()
        tracer.emit("complete", 1.0, request_id=0, replica=0, bits=8,
                    start_s=0.5, finish_s=1.0, latency_s=1.0)
        [cell] = profile_events(tracer.events)["cells"]
        assert cell["queue_wait_by_bits"] == []
        assert cell["queue_wait_by_replica"] == []

    def test_zero_length_batches_have_zero_share(self):
        tracer = Tracer()
        tracer.emit("batch", 0.0, replica=0, bits=8, size=1, start_s=0.0,
                    finish_s=0.0, service_s=0.0, queue_depth=0)
        [cell] = profile_events(tracer.events)["cells"]
        assert cell["per_bit"][0]["share"] == 0.0

    def test_render_top_truncates_each_table(self):
        payload = profile_events(_profiled_tracer().events)
        out = render_profile(payload, top=1)
        self_time = out.split("### Self-time by bit-width")[1].split("###")[0]
        rows = [l for l in self_time.splitlines()
                if l.startswith("| ") and "---" not in l]
        assert rows[0].startswith("| bits |")
        assert len(rows) == 2


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
        SERVE_SCALES["smoke"], num_requests=48, model=config,
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
        tracer = Tracer()
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
        assert {"enqueue", "batch", "complete"} <= kinds <= set(EVENT_KINDS)

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


class TestTraceRestatesRetiredKinds:
    """The ``forward``, ``policy_decision`` and ``route`` events were
    dropped because the kinds left carry the same facts; these tests
    pin that the trace still does."""

    @staticmethod
    def _single_engine_trace(fixture, seen_inputs=None):
        from repro.serve.simulator import make_engine, simulate

        tracer = Tracer()
        engine = make_engine(fixture, "slo", tracer=tracer)
        if seen_inputs is not None:
            choose = engine.controller.choose_bits

            def spy(inputs):
                seen_inputs.append(inputs)
                return choose(inputs)

            engine.controller.choose_bits = spy
        simulate(engine, fixture.requests)
        return tracer.events

    def test_batch_size_matches_the_completions_it_emits(self, sim_fixture):
        events = self._single_engine_trace(sim_fixture)
        for i, event in enumerate(events):
            if event["kind"] != "batch":
                continue
            completes = events[i + 1:i + 1 + event["size"]]
            assert [e["kind"] for e in completes] == \
                ["complete"] * event["size"]
            assert {(e["bits"], e["start_s"], e["finish_s"])
                    for e in completes} == {
                (event["bits"], event["start_s"], event["finish_s"])
            }

    def test_oldest_wait_is_batch_start_minus_next_arrival(
        self, sim_fixture
    ):
        seen = []
        events = self._single_engine_trace(sim_fixture, seen_inputs=seen)
        derived = [
            event["start_s"] - events[i + 1]["arrival_s"]
            for i, event in enumerate(events) if event["kind"] == "batch"
        ]
        assert len(derived) == len(seen) > 0
        assert derived == [inputs.oldest_wait_s for inputs in seen]

    def test_bit_switches_chain_the_batch_bits(self, sim_fixture):
        events = self._single_engine_trace(sim_fixture)
        current = sim_fixture.sp_net.highest
        for i, event in enumerate(events):
            if event["kind"] == "bit_switch":
                assert event["from_bits"] == current
                assert events[i + 1]["kind"] == "batch"
                assert events[i + 1]["bits"] == event["to_bits"]
                assert event["time_s"] == events[i + 1]["time_s"]
            elif event["kind"] == "batch":
                assert event["bits"] == current or \
                    events[i - 1]["kind"] == "bit_switch"
                current = event["bits"]

    def test_enqueue_depth_counts_the_replica_backlog(self, sim_fixture):
        events = self._single_engine_trace(sim_fixture)
        backlog = 0
        for event in events:
            if event["kind"] == "enqueue":
                backlog += 1
                assert event["queue_depth"] == backlog
            elif event["kind"] == "batch":
                backlog -= event["size"]
                assert event["queue_depth"] == backlog
        assert backlog == 0

    def test_fleet_enqueue_names_the_replica_and_fleet_size(
        self, sim_fixture
    ):
        from repro.serve.cluster import run_fleet_sim

        tracer = Tracer()
        run_fleet_sim(scenario="bursty", policy="slo", replicas=2,
                      router="least_queue", fixture=sim_fixture,
                      tracer=tracer)
        enqueued = {e["request_id"]: e for e in tracer.events
                    if e["kind"] == "enqueue"}
        completed = {e["request_id"]: e for e in tracer.events
                     if e["kind"] == "complete"}
        assert len(enqueued) == len(completed) == \
            len(sim_fixture.requests)
        for rid, enqueue in enqueued.items():
            assert enqueue["replicas"] == 2
            assert enqueue["replica"] == completed[rid]["replica"]
            assert enqueue["time_s"] == completed[rid]["arrival_s"]
        assert {e["replica"] for e in enqueued.values()} == {0, 1}


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

    def test_profile_output_writes_the_profile_tables(self, tmp_path,
                                                      capsys):
        from repro.__main__ import main

        write_obs_artifacts(str(tmp_path), tracer=_profiled_tracer())
        out_path = tmp_path / "profile.md"
        assert main(["obs", str(tmp_path), "--profile",
                     "--output", str(out_path)]) == 0
        written = out_path.read_text()
        assert written == render_profile(
            profile_events(_profiled_tracer().events)
        )
        assert "### Per-replica timeline" not in written

    def test_serve_sim_obs_dir_records_only_the_trace(self, tmp_path,
                                                      capsys):
        from repro.__main__ import main

        plain, traced = tmp_path / "a.json", tmp_path / "b.json"
        run_dir = tmp_path / "run"
        args = ["serve-sim", "--scenario", "constant", "--policy", "slo"]
        assert main(args + ["--output", str(plain)]) == 0
        assert main(args + ["--output", str(traced),
                            "--obs-dir", str(run_dir)]) == 0
        assert traced.read_bytes() == plain.read_bytes()
        assert os.listdir(run_dir / "obs") == ["trace_events.jsonl"]
        kinds = {e["kind"] for e in load_run_events(str(run_dir))}
        assert kinds <= set(EVENT_KINDS)
        assert {"enqueue", "batch", "complete"} <= kinds

    def test_bursty_peak_queue_matches_the_enqueue_depth(self, tmp_path,
                                                         capsys):
        from repro.__main__ import main

        run_dir = str(tmp_path / "run")
        assert main(["serve-sim", "--scenario", "bursty", "--policy", "all",
                     "--scale", "smoke", "--seed", "0",
                     "--obs-dir", run_dir]) == 0
        deepest = {}
        for event in load_run_events(run_dir):
            if event["kind"] == "enqueue":
                deepest[event["policy"]] = max(
                    deepest.get(event["policy"], 0), event["queue_depth"])
        peaks = {}
        for cell in render_run_dir(run_dir).split("## Cell: ")[1:]:
            policy = cell.split("policy=")[1].split()[0]
            series = cell.split("### Queue depth")[1].split("###")[0]
            peaks[policy] = max(
                int(row.split("|")[4]) for row in series.splitlines()
                if row.startswith("| ") and row[2].isdigit()
            )
        assert peaks == deepest == {"queue": 19, "slo": 19, "static": 19}
