"""Tests for the figure/table experiment modules (scaled-down runs)."""

from __future__ import annotations

import pytest

from repro.experiments.ablation import render_figure12, run_figure12
from repro.experiments.end_to_end import (
    figure6_rows,
    figure7_curves,
    figure8_rows,
    render_figure6,
    render_figure7,
    render_figure8,
    run_end_to_end,
)
from repro.experiments.miss_rate import render_table4, run_table4
from repro.experiments.orion_search import render_figure9, run_figure9
from repro.experiments.overhead import (
    render_bruteforce_comparison,
    render_figure10,
    run_bruteforce_comparison,
    run_figure10,
)
from repro.experiments.runner import ExperimentConfig
from repro.experiments.sensitivity import (
    render_figure11,
    render_group_size_search,
    run_figure11,
    run_group_size_search,
)

SMALL = ExperimentConfig(num_requests=20, seed=5)


@pytest.fixture(scope="module")
def small_matrix():
    """A tiny (2 policies x 2 scenarios) matrix shared by the figure tests."""
    return run_end_to_end(
        policies=("ESG", "FaST-GShare"),
        scenarios=("paper-strict-light", "paper-relaxed-heavy"),
        config=SMALL,
    )


class TestFigure6To8:
    def test_matrix_is_keyed_by_setting(self, small_matrix):
        assert list(small_matrix) == [
            ("strict-light", "ESG"),
            ("strict-light", "FaST-GShare"),
            ("relaxed-heavy", "ESG"),
            ("relaxed-heavy", "FaST-GShare"),
        ]
        assert small_matrix[("strict-light", "ESG")].scenario_name == "paper-strict-light"

    def test_two_scenarios_of_one_setting_are_refused_before_running(self):
        with pytest.raises(ValueError, match="'moderate-normal'"):
            run_end_to_end(
                policies=("ESG",),
                scenarios=("paper-moderate-normal", "poisson-normal"),
                config=SMALL,
            )

    def test_figure6_rows_normalised_to_esg(self, small_matrix):
        rows = figure6_rows(small_matrix)
        assert len(rows) == 4
        esg_rows = [r for r in rows if r.policy == "ESG"]
        assert all(r.cost_normalized_to_esg == pytest.approx(1.0) for r in esg_rows)
        assert all(0.0 <= r.slo_hit_rate <= 1.0 for r in rows)
        assert "Figure 6" in render_figure6(rows)

    def test_figure7_curves_cover_apps(self, small_matrix):
        curves = figure7_curves(small_matrix, setting="relaxed-heavy")
        assert curves
        assert all(c.setting == "relaxed-heavy" for c in curves)
        apps = {c.app for c in curves}
        assert apps  # at least one application observed
        for curve in curves:
            assert curve.slo_ms > 0
        assert "Figure 7" in render_figure7(curves)

    def test_figure8_rows_per_app(self, small_matrix):
        rows = figure8_rows(small_matrix)
        assert rows
        settings = {r.setting for r in rows}
        assert settings == {"strict-light", "relaxed-heavy"}
        assert "Figure 8" in render_figure8(rows)


class TestTable4:
    def test_miss_rate_rows(self):
        rows = run_table4(
            policies=("Aquatope",), scenarios=("paper-relaxed-heavy",), config=SMALL
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.setting == "relaxed-heavy"
        assert row.plan_attempts > 0
        assert 0.0 <= row.miss_rate <= 1.0
        assert "Table 4" in render_table4(rows)


class TestFigure9:
    def test_orion_sweep_points(self):
        points = run_figure9(cutoffs_ms=(1.0, 50.0), config=SMALL)
        assert len(points) == 4  # 2 cutoffs x (with/without overhead)
        assert {p.count_search_overhead for p in points} == {True, False}
        assert "Figure 9" in render_figure9(points)

    def test_overhead_charged_only_when_counted(self):
        points = run_figure9(cutoffs_ms=(50.0,), config=SMALL)
        with_overhead = next(p for p in points if p.count_search_overhead)
        without = next(p for p in points if not p.count_search_overhead)
        assert with_overhead.mean_overhead_ms >= without.mean_overhead_ms


class TestFigure10:
    def test_overhead_distributions(self):
        distributions = run_figure10(scenarios=("paper-moderate-normal",), config=SMALL)
        assert len(distributions) == 1
        dist = distributions[0]
        assert dist.setting == "moderate-normal"
        assert dist.stats.count > 0
        assert dist.mean_ms >= 0.0
        assert "Figure 10" in render_figure10(distributions)

    def test_bruteforce_comparison_agrees_and_is_faster(self):
        comparison = run_bruteforce_comparison()
        assert comparison.same_optimum
        assert comparison.esg_expansions < comparison.bruteforce_examined
        assert "search time" in render_bruteforce_comparison(comparison)


class TestFigure11:
    def test_k_sweep(self):
        points = run_figure11(k_values=(1, 5), config=SMALL)
        assert [p.k for p in points] == [1, 5]
        k5 = next(p for p in points if p.k == 5)
        assert k5.cost_normalized_to_k5 == pytest.approx(1.0)
        assert "Figure 11" in render_figure11(points)

    def test_group_size_search_times_grow(self):
        points = run_group_size_search(group_sizes=(1, 3))
        assert points[0].search_time_ms <= points[1].search_time_ms
        assert all(p.feasible for p in points)
        assert "group size" in render_group_size_search(points).lower()


class TestFigure12:
    def test_ablation_rows(self):
        rows = run_figure12(config=SMALL)
        assert [r.variant for r in rows] == ["ESG", "ESG w/o GPU sharing", "ESG w/o batching"]
        esg_row = rows[0]
        assert esg_row.cost_normalized_to_esg == pytest.approx(1.0)
        # The overrides reach the policy: whole GPUs hold more vGPU time.
        assert rows[1].total_vgpu_ms > esg_row.total_vgpu_ms
        assert "Figure 12" in render_figure12(rows)
