"""Inference engine micro-batching + precision policies."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    BitLatencyModel,
    InferenceEngine,
    InferenceRequest,
    LatencySLOPolicy,
    PolicyInputs,
    QueueDepthPolicy,
    SPNetConfig,
    StaticPolicy,
    build_sp_net,
    make_policy,
)


BITS = (4, 8, 16)
PER_IMAGE = {4: 0.001, 8: 0.002, 16: 0.004}
OVERHEAD = 0.001


@pytest.fixture(scope="module")
def sp_net():
    cfg = SPNetConfig(
        model="resnet8", bit_widths=BITS, num_classes=3,
        width_mult=0.25, image_size=8,
    )
    return build_sp_net(cfg)


def latency_model():
    return BitLatencyModel(dict(PER_IMAGE), batch_overhead_s=OVERHEAD)


def request(i, arrival, label=0):
    image = np.full((3, 8, 8), float(i), dtype=np.float32)
    return InferenceRequest(
        request_id=i, arrival_s=arrival, image=image, label=label
    )


def make_engine(sp_net, policy=None, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("batch_timeout_s", 0.010)
    return InferenceEngine(
        sp_net, policy or StaticPolicy(), latency_model(), **kwargs
    )


def flush_all(engine, now):
    """Dispatch flushed batches back to back until the queue is empty."""
    records = []
    while engine.queue_depth:
        record = engine.dispatch(now, flush=True)
        records.append(record)
        now = record.finish_s
    return records


class TestBitLatencyModel:
    def test_batch_latency_is_affine(self):
        model = latency_model()
        assert model.batch_latency_s(8, 1) == pytest.approx(
            OVERHEAD + PER_IMAGE[8]
        )
        assert model.batch_latency_s(8, 5) == pytest.approx(
            OVERHEAD + 5 * PER_IMAGE[8]
        )

    def test_unknown_bits_raises(self):
        with pytest.raises(KeyError):
            latency_model().batch_latency_s(12, 1)

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            BitLatencyModel({})

    def test_default_overhead_is_one_slowest_image(self):
        assert BitLatencyModel(dict(PER_IMAGE)).batch_overhead_s == \
            PER_IMAGE[16]

    def test_batch_energy_is_linear_and_none_when_unpriced(self):
        priced = BitLatencyModel(
            dict(PER_IMAGE), per_image_energy_pj={8: 5.0}
        )
        assert priced.batch_energy_pj(8, 3) == pytest.approx(15.0)
        assert priced.batch_energy_pj(4, 3) is None
        assert latency_model().batch_energy_pj(8, 3) is None

    def test_fastest_bits(self):
        assert latency_model().fastest_bits() == 4


class TestMicroBatching:
    def test_no_dispatch_before_timeout_or_full(self, sp_net):
        engine = make_engine(sp_net)
        engine.submit(request(0, 0.0))
        assert engine.dispatch(0.001) is None
        assert engine.queue_depth == 1

    def test_timeout_releases_partial_batch(self, sp_net):
        engine = make_engine(sp_net)
        engine.submit(request(0, 0.0))
        engine.submit(request(1, 0.002))
        record = engine.dispatch(0.010)  # timeout of oldest expired
        assert record is not None and record.size == 2
        assert engine.queue_depth == 0
        # Latency decomposition: queue wait + service.
        service = OVERHEAD + 2 * PER_IMAGE[16]
        assert record.results[0].latency_s == pytest.approx(0.010 + service)
        assert record.results[1].latency_s == pytest.approx(0.008 + service)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        arrival=st.floats(0.0, 1e4, allow_nan=False),
        timeout=st.floats(1e-6, 1.0, allow_nan=False),
    )
    def test_dispatch_at_next_release_always_releases(
        self, sp_net, arrival, timeout
    ):
        """The simulator advances its clock to exactly next_release_s;
        that instant must release the batch, with no float shortfall."""
        engine = make_engine(sp_net, batch_timeout_s=timeout)
        engine.submit(request(0, arrival))
        release = engine.next_release_s()
        assert engine.dispatch(release) is not None

    def test_full_batch_releases_immediately(self, sp_net):
        engine = make_engine(sp_net)
        for i in range(6):
            engine.submit(request(i, 0.0))
        record = engine.dispatch(0.0)
        assert record is not None and record.size == 4  # max_batch
        assert engine.queue_depth == 2

    def test_flush_drains_everything(self, sp_net):
        engine = make_engine(sp_net)
        for i in range(6):
            engine.submit(request(i, 0.0))
        records = flush_all(engine, 0.0)
        assert [r.size for r in records] == [4, 2]
        # Second batch starts when the first finishes.
        assert records[1].start_s == pytest.approx(records[0].finish_s)
        assert engine.queue_depth == 0

    def test_one_forward_per_batch_and_stats(self, sp_net):
        engine = make_engine(sp_net)
        for i in range(4):
            engine.submit(request(i, 0.0, label=i % 3))
        record = engine.dispatch(0.0)
        stats = engine.stats
        assert stats.batches == 1
        assert stats.completed == 4
        assert stats.requests_per_bit[16] == 4
        assert stats.labelled == 4
        assert record.bits == 16

    def test_next_release_time(self, sp_net):
        engine = make_engine(sp_net)
        assert engine.next_release_s() is None
        engine.submit(request(0, 0.003))
        assert engine.next_release_s() == pytest.approx(0.013)

    def test_controller_outside_candidates_rejected(self, sp_net):
        class Rogue(StaticPolicy):
            def choose_bits(self, inputs):
                return 12

        engine = make_engine(sp_net, policy=Rogue())
        engine.submit(request(0, 0.0))
        with pytest.raises(ValueError, match="candidate set"):
            engine.dispatch(1.0)


class TestCallerOwnedTime:
    """The engine owns no clock: every timestamp derives from ``now``."""

    def test_dispatch_requires_now(self, sp_net):
        engine = make_engine(sp_net)
        engine.submit(request(0, 0.0))
        with pytest.raises(TypeError):
            engine.dispatch()
        assert engine.queue_depth == 1

    def test_batch_starts_at_the_callers_now(self, sp_net):
        engine = make_engine(sp_net)
        engine.submit(request(0, 0.0))
        record = engine.dispatch(123.5, flush=True)
        service = OVERHEAD + PER_IMAGE[16]
        assert record.start_s == 123.5
        assert record.finish_s == pytest.approx(123.5 + service)
        assert record.results[0].start_s == 123.5
        assert record.results[0].latency_s == pytest.approx(123.5 + service)

    def test_drain_preserves_fifo_order_across_batches(self, sp_net):
        engine = make_engine(sp_net)
        for i in range(10):
            engine.submit(request(i, 0.0))
        records = flush_all(engine, 1.0)
        assert [r.size for r in records] == [4, 4, 2]
        assert records[0].start_s == 1.0
        for prev, nxt in zip(records, records[1:]):
            assert nxt.start_s == prev.finish_s
        served = [res.request_id for r in records for res in r.results]
        assert served == list(range(10))

    def test_idle_engine_dispatch_is_a_noop(self, sp_net):
        engine = make_engine(sp_net)
        assert engine.dispatch(0.0, flush=True) is None
        assert engine.stats.batches == 0

    def test_identical_calls_give_identical_records(self, sp_net):
        def run():
            engine = make_engine(sp_net)
            for i in range(6):
                engine.submit(request(i, 0.001 * i, label=i % 3))
            records = [engine.dispatch(0.004), engine.dispatch(0.020)]
            return records + flush_all(engine, 0.050)

        first = run()
        assert all(r is not None for r in first)
        assert first == run()

    def test_priced_batches_accumulate_energy(self, sp_net):
        model = BitLatencyModel(
            dict(PER_IMAGE), batch_overhead_s=OVERHEAD,
            per_image_energy_pj={b: 10.0 * b for b in BITS},
        )
        engine = InferenceEngine(
            sp_net, StaticPolicy(), model, max_batch=4, batch_timeout_s=0.010
        )
        for i in range(6):
            engine.submit(request(i, 0.0))
        records = flush_all(engine, 0.0)
        assert [r.energy_pj for r in records] == [640.0, 320.0]
        assert engine.stats.energy_pj == pytest.approx(960.0)
        assert engine.stats.energy_priced == 6


class TestEngineConstruction:
    def test_default_timeout_is_one_full_batch_at_highest(self, sp_net):
        engine = InferenceEngine(
            sp_net, StaticPolicy(), latency_model(), max_batch=4
        )
        assert engine.batch_timeout_s == pytest.approx(
            OVERHEAD + 4 * PER_IMAGE[16]
        )

    def test_max_batch_below_one_rejected(self, sp_net):
        with pytest.raises(ValueError, match="max_batch"):
            make_engine(sp_net, max_batch=0)

    def test_latency_model_must_price_every_candidate(self, sp_net):
        partial = BitLatencyModel({4: 0.001, 8: 0.002})
        with pytest.raises(ValueError, match="lacks estimates"):
            InferenceEngine(sp_net, StaticPolicy(), partial)


def inputs(queue_depth=0, batch_size=4, oldest_wait=0.0, p95=None,
           current=16):
    return PolicyInputs(
        now=1.0, batch_size=batch_size, queue_depth=queue_depth,
        oldest_wait_s=oldest_wait, recent_p95_s=p95, current_bits=current,
        bit_widths=BITS, max_batch=4, latency_model=latency_model(),
    )


class TestPolicies:
    def test_static_default_is_highest(self, sp_net):
        engine = make_engine(sp_net)  # StaticPolicy()
        engine.submit(request(0, 0.0))
        record = engine.dispatch(0.0, flush=True)
        assert record.bits == 16
        # The default stays unresolved on the instance: it is the
        # dispatching engine's highest, not a value baked in at attach.
        assert engine.controller.bits is None

    def test_static_rejects_non_candidate(self, sp_net):
        with pytest.raises(ValueError):
            make_engine(sp_net, policy=StaticPolicy(12))

    def test_static_explicit_bits_serve_every_batch(self, sp_net):
        engine = make_engine(sp_net, policy=StaticPolicy(8))
        for i in range(6):
            engine.submit(request(i, 0.0))
        records = flush_all(engine, 0.0)
        assert [r.bits for r in records] == [8, 8]
        assert engine.stats.switches == 0
        assert engine.current_bits == 8

    def test_static_choice_revalidated_per_decision(self):
        from dataclasses import replace

        policy = StaticPolicy(8)
        assert policy.choose_bits(inputs()) == 8
        with pytest.raises(ValueError, match="not in candidate set"):
            policy.choose_bits(replace(inputs(), bit_widths=(4, 16)))

    def test_slo_picks_highest_fitting_precision(self):
        policy = LatencySLOPolicy(slo_s=0.100, safety=1.0)
        # Idle: 16-bit batch fits a 100ms SLO easily.
        assert policy.choose_bits(inputs()) == 16
        # predicted(bits) = wait + (overhead + 4*per) * (1 + ceil(depth/4)):
        # at depth 40, 16-bit blows the SLO (0.187s) but 8-bit just fits
        # (0.099s); at depth 44 only the lowest precision drains in time.
        assert policy.choose_bits(inputs(queue_depth=40)) == 8
        assert policy.choose_bits(inputs(queue_depth=44)) == 4

    def test_slo_feedback_clamp_steps_down(self):
        policy = LatencySLOPolicy(slo_s=0.100, safety=1.0)
        # Analytically 16 still fits, but the measured p95 violates the
        # SLO, so only precisions below current (16) are eligible.
        assert policy.choose_bits(inputs(p95=0.200, current=16)) == 8

    def test_slo_feedback_clamp_holds_at_bottom_rung(self):
        policy = LatencySLOPolicy(slo_s=0.100, safety=1.0)
        # Already at the fastest precision with the tail still violated:
        # stay put instead of bouncing straight back to the top.
        assert policy.choose_bits(inputs(p95=0.200, current=4)) == 4

    def test_slo_worst_case_falls_to_lowest(self):
        policy = LatencySLOPolicy(slo_s=0.001, safety=1.0)
        assert policy.choose_bits(inputs(oldest_wait=1.0)) == 4

    def test_queue_depth_ladder(self):
        policy = QueueDepthPolicy(low=0, high=16)
        assert policy.choose_bits(inputs(queue_depth=0)) == 16
        assert policy.choose_bits(inputs(queue_depth=8)) == 8
        assert policy.choose_bits(inputs(queue_depth=16)) == 4
        assert policy.choose_bits(inputs(queue_depth=100)) == 4

    def test_make_policy_registry(self):
        assert make_policy("static").name == "static"
        assert make_policy("slo", slo_s=0.1).name == "slo"
        assert make_policy("queue").name == "queue"
        with pytest.raises(ValueError):
            make_policy("rl-agent")

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            LatencySLOPolicy(slo_s=0.0)
        with pytest.raises(ValueError):
            LatencySLOPolicy(slo_s=1.0, safety=1.5)

    def test_queue_validation(self):
        with pytest.raises(ValueError):
            QueueDepthPolicy(low=-1)
        with pytest.raises(ValueError):
            QueueDepthPolicy(low=5, high=5)

    def test_slo_clamp_with_foreign_current_bits_falls_to_fastest(self):
        """Regression: when current_bits is not in the candidate ladder
        (policy reused across checkpoints with different bit sets) the
        over-SLO clamp must fall to the fastest rung, not silently
        no-op and keep serving above the SLO."""
        policy = LatencySLOPolicy(slo_s=0.100, safety=1.0)
        # current=12 is not one of BITS=(4, 8, 16); p95 violates the SLO.
        assert policy.choose_bits(inputs(p95=0.200, current=12)) == 4
        # Without the violation the foreign current_bits is irrelevant.
        assert policy.choose_bits(inputs(current=12)) == 16


class TestPolicyReattachSemantics:
    """One policy instance serves many engines without stale config —
    the property fleet replicas rely on when sharing a controller."""

    def small_net(self, bits):
        cfg = SPNetConfig(
            model="resnet8", bit_widths=bits, num_classes=3,
            width_mult=0.25, image_size=8,
        )
        return build_sp_net(cfg)

    def test_static_default_tracks_each_engine(self, sp_net):
        policy = StaticPolicy()
        big = make_engine(sp_net, policy=policy)          # bits (4, 8, 16)
        small_net = self.small_net((2, 4))
        small = InferenceEngine(
            small_net, policy,
            BitLatencyModel({2: 0.0005, 4: 0.001}, batch_overhead_s=0.001),
            max_batch=4, batch_timeout_s=0.010,
        )
        big.submit(request(0, 0.0))
        assert big.dispatch(0.0, flush=True).bits == 16
        small.submit(request(0, 0.0))
        assert small.dispatch(0.0, flush=True).bits == 4
        # And the first engine still serves ITS highest afterwards.
        big.submit(request(1, 0.0))
        assert big.dispatch(0.0, flush=True).bits == 16

    def test_static_reattach_revalidates_against_new_engine(self, sp_net):
        policy = StaticPolicy(bits=16)
        make_engine(sp_net, policy=policy)  # 16 is a candidate here
        small_net = self.small_net((2, 4))
        with pytest.raises(ValueError, match="candidate set"):
            InferenceEngine(
                small_net, policy,
                BitLatencyModel({2: 0.0005, 4: 0.001}),
                max_batch=4,
            )

    def test_queue_high_default_tracks_each_engine_max_batch(self):
        policy = QueueDepthPolicy()
        assert policy.high is None
        assert policy.saturation_depth(4) == 16
        assert policy.saturation_depth(8) == 32
        # Attach never bakes a resolved value into the instance.
        small_net = self.small_net((4, 8))
        InferenceEngine(
            small_net, policy,
            BitLatencyModel({4: 0.001, 8: 0.002}),
            max_batch=8,
        )
        assert policy.high is None
        # Depth 16 saturates a max_batch=4 engine (lowest precision)...
        assert policy.choose_bits(inputs(queue_depth=16)) == 4
        # ...but is only mid-ladder for a max_batch=8 engine.
        wide = PolicyInputs(
            now=1.0, batch_size=8, queue_depth=16, oldest_wait_s=0.0,
            recent_p95_s=None, current_bits=16, bit_widths=BITS,
            max_batch=8, latency_model=latency_model(),
        )
        assert policy.choose_bits(wide) == 8

    def test_shared_policy_decisions_are_input_pure(self, sp_net):
        """choose_bits depends only on the inputs snapshot: attaching to
        another engine in between must not change a decision."""
        policy = LatencySLOPolicy(slo_s=0.100, safety=1.0)
        make_engine(sp_net, policy=policy)
        before = policy.choose_bits(inputs(queue_depth=40))
        other = self.small_net((2, 4))
        InferenceEngine(
            other, policy, BitLatencyModel({2: 0.0005, 4: 0.001}),
            max_batch=4,
        )
        assert policy.choose_bits(inputs(queue_depth=40)) == before


class TestEngineStatsWindow:
    """Sliding-window p95 edge cases + the LatencySummary seam."""

    @staticmethod
    def stats(window):
        from repro.serve.engine import EngineStats

        return EngineStats(BITS, window=window)

    @staticmethod
    def batch(latencies, bits=8, first_id=0):
        from repro.serve.engine import BatchRecord, InferenceResult

        results = tuple(
            InferenceResult(
                request_id=first_id + i, arrival_s=0.0, start_s=0.0,
                finish_s=lat, bits=bits, prediction=0,
            )
            for i, lat in enumerate(latencies)
        )
        finish = max(lat for lat in latencies)
        return BatchRecord(
            bits=bits, start_s=0.0, finish_s=finish, results=results
        )

    def test_empty_window_has_no_p95(self):
        assert self.stats(window=4).recent_p95_s() is None

    def test_single_sample_is_its_own_p95(self):
        stats = self.stats(window=4)
        stats.record_batch(self.batch([0.030]))
        assert stats.recent_p95_s() == pytest.approx(0.030)

    def test_window_evicts_oldest_samples(self):
        stats = self.stats(window=4)
        # One slow outlier, then enough fast requests to push it out.
        stats.record_batch(self.batch([5.0]))
        stats.record_batch(self.batch([0.010, 0.010], first_id=1))
        assert stats.recent_p95_s() > 1.0        # outlier still in window
        stats.record_batch(self.batch([0.010, 0.010], first_id=3))
        assert stats.recent_p95_s() == pytest.approx(0.010)
        # The full history still remembers the outlier.
        assert max(stats.latencies_s) == pytest.approx(5.0)

    def test_latency_summary_matches_full_history(self):
        from repro.serve.stats import merge_engine_stats

        stats = self.stats(window=2)
        stats.record_batch(self.batch([0.010, 0.020, 0.040]))
        merged = merge_engine_stats([stats], end_s=0.040, slo_s=1.0)
        assert merged["latency_mean_s"] == pytest.approx(
            sum([0.010, 0.020, 0.040]) / 3
        )
        assert merged["latency_max_s"] == pytest.approx(0.040)
        assert merged["latency_p50_s"] == pytest.approx(0.020)

    def test_percentile_s_matches_numpy_linear_interpolation(self):
        import math

        from repro.serve.stats import percentile_s

        for q in (0, 50, 95, 99, 100):
            assert percentile_s([0.25], q) == 0.25
        assert percentile_s([1, 2, 3, 4], 50) == pytest.approx(2.5)
        assert percentile_s([0, 10], 95) == pytest.approx(9.5)
        assert math.isnan(percentile_s([], 95))


class TestMergeEngineStats:
    """The one aggregation behind every serving report."""

    @staticmethod
    def record(bits, latencies, labels=None, predictions=None,
               energy_pj=None):
        from repro.serve.engine import BatchRecord, InferenceResult

        labels = labels or [None] * len(latencies)
        predictions = predictions or [0] * len(latencies)
        results = tuple(
            InferenceResult(
                request_id=i, arrival_s=0.0, start_s=0.0, finish_s=lat,
                bits=bits, prediction=pred, label=label,
            )
            for i, (lat, label, pred) in enumerate(
                zip(latencies, labels, predictions)
            )
        )
        return BatchRecord(
            bits=bits, start_s=0.0, finish_s=max(latencies),
            results=results, energy_pj=energy_pj,
        )

    @staticmethod
    def stats(*records):
        from repro.serve.engine import EngineStats

        stats = EngineStats(BITS)
        for record in records:
            stats.record_batch(record)
        return stats

    def test_switches_count_bit_changes_only(self):
        stats = self.stats(*[
            self.record(bits, [0.01]) for bits in (8, 8, 4, 16, 16)
        ])
        assert stats.batches == 5
        assert stats.switches == 2

    def test_accuracy_counts_only_labelled_requests(self):
        batch = self.record(
            8, [0.01, 0.01, 0.01], labels=[1, None, 2],
            predictions=[1, 0, 0],
        )
        assert [r.correct for r in batch.results] == [True, None, False]
        stats = self.stats(batch)
        assert (stats.completed, stats.labelled, stats.correct) == (3, 2, 1)
        assert stats.labelled_per_bit[8] == 2
        assert stats.correct_per_bit[8] == 1

    def test_replicas_sum_and_list_per_replica_rows(self):
        from repro.serve.stats import merge_engine_stats, replica_rows

        a = self.stats(self.record(8, [0.01, 0.02], labels=[0, 0]),
                       self.record(4, [0.03], labels=[1]))
        b = self.stats(self.record(16, [0.04], labels=[0]))
        merged = merge_engine_stats([a, b], end_s=2.0, slo_s=1.0)
        assert merged["num_requests"] == 4
        assert merged["throughput_rps"] == pytest.approx(2.0)
        assert merged["batches"] == 3
        assert merged["mean_batch_size"] == pytest.approx(4 / 3)
        assert merged["occupancy"] == {"4": 1, "8": 2, "16": 1}
        assert merged["switches"] == 1
        assert merged["accuracy"] == pytest.approx(3 / 4)
        rows = replica_rows([a, b], end_s=2.0)
        assert [r["requests"] for r in rows] == [3, 1]
        assert rows[0]["busy_s"] == pytest.approx(0.05)
        assert rows[1]["utilization"] == pytest.approx(0.04 / 2.0)

    def test_idle_replica_row_is_all_zero(self):
        from repro.serve.stats import replica_rows

        busy = self.stats(self.record(4, [0.01, 0.03]))
        idle = self.stats()
        rows = replica_rows([busy, idle], end_s=0.5)
        assert [r["replica"] for r in rows] == [0, 1]
        assert rows[0]["occupancy"] == {"4": 2, "8": 0, "16": 0}
        assert rows[0]["utilization"] == pytest.approx(0.03 / 0.5)
        assert {k: rows[1][k] for k in (
            "requests", "batches", "mean_batch_size", "switches",
            "busy_s", "utilization",
        )} == {
            "requests": 0, "batches": 0, "mean_batch_size": 0.0,
            "switches": 0, "busy_s": 0.0, "utilization": 0.0,
        }
        assert rows[1]["occupancy"] == {"4": 0, "8": 0, "16": 0}

    def test_slo_violations_count_strictly_above(self):
        from repro.serve.stats import merge_engine_stats

        stats = self.stats(self.record(8, [0.01, 0.05, 0.06]))
        merged = merge_engine_stats([stats], end_s=0.06, slo_s=0.05)
        assert merged["slo_violations"] == 1
        assert "per_replica" not in merged

    def test_unlabelled_unpriced_run_reports_none(self):
        from repro.serve.stats import merge_engine_stats

        merged = merge_engine_stats(
            [self.stats(self.record(8, [0.01, 0.02]))],
            end_s=0.02, slo_s=1.0,
        )
        assert merged["accuracy"] is None
        assert merged["energy_pj"] == 0.0
        assert merged["energy_per_request_pj"] is None

    def test_empty_inputs_are_nan_results_or_absent_signals(self):
        import math

        from repro.serve.stats import LatencySummary, optional_percentile_s

        assert optional_percentile_s([], 95) is None
        assert optional_percentile_s([0.5], 95) == 0.5
        summary = LatencySummary.from_values([])
        assert summary.count == 0
        assert all(math.isnan(v) for v in (
            summary.p50_s, summary.p95_s, summary.p99_s,
            summary.mean_s, summary.max_s,
        ))


class TestServedLogits:
    """Pin the smoke serve model's eval logits, bit for bit.

    The schedule pins in ``tests/test_serve_simulator.py`` depend on
    arrivals and the latency model alone; this pins what a served
    forward computes.  One training-mode forward per bit-width first
    moves every batch norm's running statistics off their (0, 1)
    defaults, so the eval normalisation runs with non-trivial values.
    """

    # bits -> sha256 of the float32 logits of BATCH in eval mode.
    EXPECTED = {
        4: "0aec93fb00424b865c142008fc64f0f6b134b9f9d8a0b2678de3116172d73cec",
        8: "0e9530c383aa31a0efbaad9a9cba84e72f64f04174fd143ee6b4c5986128e411",
        16: "caea17634807bdac1666c29a6ade8a0ae3ef23c24a20fd99536a5071baf60600",
    }

    @staticmethod
    def _served_model_and_batch():
        from repro import rng as rng_mod
        from repro.serve.simulator import SERVE_SCALES
        from repro.tensor import Tensor

        rng_mod.set_seed(0)
        cfg = SERVE_SCALES["smoke"].model
        sp_net = build_sp_net(cfg)
        gen = np.random.default_rng(0)
        size = cfg.image_size
        warm = gen.standard_normal((8, 3, size, size)).astype(np.float32)
        batch = gen.standard_normal((5, 3, size, size)).astype(np.float32)
        sp_net.train()
        for bits in cfg.bit_widths:
            sp_net(Tensor(warm), bits)
        sp_net.eval()
        return sp_net, batch

    def test_eval_logits_are_pinned_and_match_the_grad_path(self):
        import hashlib

        from repro.tensor import Tensor, no_grad

        sp_net, batch = self._served_model_and_batch()
        digests = {}
        for bits in self.EXPECTED:
            with no_grad():
                served = sp_net(Tensor(batch), bits).data
            recorded = sp_net(Tensor(batch), bits)
            assert recorded.requires_grad
            assert served.dtype == np.float32
            np.testing.assert_array_equal(served, recorded.data)
            assert served.tobytes() == recorded.data.tobytes()
            digests[bits] = hashlib.sha256(served.tobytes()).hexdigest()
        assert digests == self.EXPECTED
