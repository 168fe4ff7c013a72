"""Experiment harness: every table/figure runs at smoke scale with the
expected row structure.  These are the repo's regression net for the
paper-reproduction claims (quality is asserted at default scale in the
benchmark harness, not here)."""

import pytest

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


@pytest.mark.slow
class TestSmokeRuns:
    """One smoke run per experiment; wall time dominated by training."""

    @pytest.fixture(scope="class")
    def results(self):
        return {}

    def _run(self, results, name):
        if name not in results:
            results[name] = ALL_EXPERIMENTS[name](scale="smoke")
        return results[name]

    def test_table1_structure(self, results):
        res = self._run(results, "table1")
        assert len(res.rows) == 9  # 5 + 4 bit-width rows
        for row in res.rows:
            assert {"acc_sbm", "acc_sp", "acc_adabits", "acc_cdt"} <= set(row)

    def test_table2_covers_both_datasets(self, results):
        res = self._run(results, "table2")
        assert {r["dataset"] for r in res.rows} == {"cifar10", "cifar100"}

    def test_table3_is_deeper_table2(self, results):
        res = self._run(results, "table3")
        assert res.experiment == "table3"
        assert "n=2" in res.notes

    def test_table4_bit_pairs(self, results):
        res = self._run(results, "table4")
        bits = {r["bits"] for r in res.rows}
        assert "W2A2" in bits and "W32A2" in bits

    def test_fig2_reports_kl_and_accuracy(self, results):
        res = self._run(results, "fig2")
        methods = {r["method"] for r in res.rows}
        assert methods == {"vanilla", "cdt"}
        for row in res.rows:
            assert row["kl_4bit_to_32bit"] >= 0

    def test_fig4_three_methods(self, results):
        res = self._run(results, "fig4")
        assert {r["method"] for r in res.rows} == {"spnas", "fpnas", "lpnas"}
        assert all(r["flops"] > 0 for r in res.rows)

    def test_fig5_reductions_positive_overall(self, results):
        res = self._run(results, "fig5")
        assert any(r["reduction_pct"] > 0 for r in res.rows)
        baselines = {r["baseline"] for r in res.rows}
        assert "eyeriss" in baselines and "dnnbuilder" in baselines

    def test_fig6_reports_edp_and_accuracy(self, results):
        res = self._run(results, "fig6")
        for row in res.rows:
            assert row["edp_instantnet"] > 0
            assert 0 <= row["acc_instantnet"] <= 100

    def test_fig7_fps_gain(self, results):
        res = self._run(results, "fig7")
        assert all(r["fps_instantnet"] > 0 for r in res.rows)
        assert all(r["fps_gain"] > 0 for r in res.rows)
