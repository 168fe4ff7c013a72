"""Experiment harness: every paper table/figure runs once per session.

The module fixture runs each ``ALL_EXPERIMENTS`` entry exactly once, at
seed 0: fig5 at ``default`` scale (it is pure hardware search, cheap
enough to cover all four networks), everything else at ``smoke``.  The
structure checks and each figure's shape claim then read that one
result.  Claims that need several seeds to separate methods are in
``test_claims.py`` (``pytest -m slow``).
"""

import pytest

from repro import rng as rng_mod
from repro.experiments import ALL_EXPERIMENTS, SCALES, get_scale
from repro.experiments.common import ExperimentResult, Scale, format_table


class TestCommon:
    def test_scales_registered(self):
        assert set(SCALES) == {"smoke", "default", "full"}

    def test_get_scale_by_name_and_passthrough(self):
        assert get_scale("smoke").name == "smoke"
        custom = Scale("c", 10, 10, 8, 3, 1, 8, 0.25, 1, 2)
        assert get_scale(custom) is custom

    def test_get_scale_unknown(self):
        with pytest.raises(ValueError):
            get_scale("gigantic")

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 222, "c": 3.5}]
        text = format_table(rows)
        assert "a" in text and "c" in text
        assert len(text.splitlines()) == 4

    def test_format_table_without_rows(self):
        assert format_table([]) == "(no rows)"

    def test_result_columns(self):
        res = ExperimentResult("x", "t")
        res.add_row(a=1)
        res.add_row(a=2)
        assert res.column("a") == [1, 2]


# Scale each experiment runs at; anything not listed runs at smoke.
RUN_SCALES = {"fig5": "default"}


@pytest.fixture(scope="module")
def results():
    """Each experiment's result, computed on first use and kept."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = ALL_EXPERIMENTS[name](
                scale=RUN_SCALES.get(name, "smoke"))
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_every_experiment_runs(results, name):
    res = results(name)
    assert res.experiment == name
    assert res.scale == RUN_SCALES.get(name, "smoke")
    assert res.rows


def test_run_is_a_function_of_its_arguments():
    rng_mod.set_seed(7)
    first = ALL_EXPERIMENTS["fig5"](scale="smoke", seed=0).rows
    rng_mod.set_seed(2021)
    assert ALL_EXPERIMENTS["fig5"](scale="smoke", seed=0).rows == first


class TestSmokeRuns:
    """Structure checks and shape claims on the one run per experiment."""

    def test_table1_structure(self, results):
        res = results("table1")
        assert len(res.rows) == 9  # 5 + 4 bit-width rows
        for row in res.rows:
            assert {"acc_sbm", "acc_sp", "acc_adabits", "acc_cdt"} <= set(row)

    def test_table1_cdt_within_noise_band_at_4bit(self, results):
        # Paper: CDT is the best method at the lowest bit-width.  Two
        # smoke epochs only bound a noise band; the ordering itself is
        # asserted over seeds in test_claims.py.
        low_rows = [r for r in results("table1").rows if r["bits"] == "4"]
        assert low_rows
        for r in low_rows:
            assert r["acc_cdt"] >= max(r["acc_sp"], r["acc_adabits"]) - 12.0

    def test_table2_covers_both_datasets(self, results):
        res = results("table2")
        assert {r["dataset"] for r in res.rows} == {"cifar10", "cifar100"}
        assert all("acc_cdt" in r and "acc_sbm" in r for r in res.rows)

    def test_table3_is_deeper_table2(self, results):
        res = results("table3")
        assert res.experiment == "table3"
        assert "n=2" in res.notes
        assert len(res.rows) >= 8

    def test_table4_bit_pairs(self, results):
        res = results("table4")
        bits = {r["bits"] for r in res.rows}
        assert "W2A2" in bits and "W32A2" in bits

    def test_table4_cdt_within_noise_band_at_w2a2(self, results):
        # Paper: CDT >= SP at the extreme W2A2 point (+4.5%).
        w2a2 = next(r for r in results("table4").rows if r["bits"] == "W2A2")
        assert w2a2["acc_cdt"] >= w2a2["acc_sp"] - 2.0

    def test_fig2_reports_kl_and_accuracy(self, results):
        res = results("fig2")
        methods = {r["method"] for r in res.rows}
        assert methods == {"vanilla", "cdt"}
        for row in res.rows:
            assert row["kl_4bit_to_32bit"] >= 0

    def test_fig2_cdt_tracks_32bit_distribution(self, results):
        # Paper: CDT's 4-bit output is far closer to the 32-bit one than
        # vanilla distillation's.
        rows = {r["method"]: r for r in results("fig2").rows}
        assert rows["cdt"]["kl_4bit_to_32bit"] <= \
            rows["vanilla"]["kl_4bit_to_32bit"] * 1.5

    def test_fig4_three_methods(self, results):
        res = results("fig4")
        assert {r["method"] for r in res.rows} == {"spnas", "fpnas", "lpnas"}
        assert all(r["flops"] > 0 for r in res.rows)

    def test_fig5_reductions_positive_overall(self, results):
        res = results("fig5")
        assert any(r["reduction_pct"] > 0 for r in res.rows)
        baselines = {r["baseline"] for r in res.rows}
        assert "eyeriss" in baselines and "dnnbuilder" in baselines

    def test_fig5_beats_eyeriss_on_every_asic_network(self, results):
        eyeriss = [r for r in results("fig5").rows
                   if r["baseline"] == "eyeriss"]
        assert len(eyeriss) == 4  # default scale covers all four networks
        assert all(r["reduction_pct"] > 0 for r in eyeriss)

    def test_fig5_asic_gain_exceeds_fpga_gain(self, results):
        # The paper's flexibility point: the ASIC leaves AutoMapper more
        # room than the FPGA does.
        rows = results("fig5").rows
        eyeriss = [r["reduction_pct"] for r in rows
                   if r["baseline"] == "eyeriss"]
        fpga = [r["reduction_pct"] for r in rows
                if r["platform"] == "fpga" and r["baseline"] == "dnnbuilder"]
        assert fpga
        assert max(eyeriss) >= max(fpga)

    def test_fig6_reports_edp_and_accuracy(self, results):
        res = results("fig6")
        for row in res.rows:
            assert row["edp_instantnet"] > 0
            assert 0 <= row["acc_instantnet"] <= 100

    def test_fig6_instantnet_edp_beats_baselines_at_lowest_bits(self, results):
        # Paper: -62.5%..-84.67% EDP at the lowest bit-width.
        rows = results("fig6").rows
        lowest = min(r["bits"] for r in rows)
        low_rows = [r for r in rows if r["bits"] == lowest]
        assert all(
            r["edp_instantnet"] < min(r["edp_sys1"], r["edp_sys2"])
            for r in low_rows
        )

    def test_fig7_fps_gain(self, results):
        res = results("fig7")
        assert all(r["fps_instantnet"] > 0 for r in res.rows)
        # Paper: 1.86x the FPS of the baseline FPGA system.
        assert all(r["fps_gain"] >= 1.0 for r in res.rows)
