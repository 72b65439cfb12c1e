"""Tests for the pluggable arrival-process hierarchy."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.utils.rng import derive_rng
from repro.workloads.arrival import (
    ArrivalProcess,
    AzureIntervalProcess,
    DiurnalProcess,
    OnOffBurstProcess,
    PoissonProcess,
    TraceExhaustedError,
    TraceReplayProcess,
    iter_trace_intervals,
)
from repro.workloads.traces import NORMAL_INTERVALS, generate_intervals

ALL_PROCESSES = [
    AzureIntervalProcess(NORMAL_INTERVALS),
    AzureIntervalProcess(NORMAL_INTERVALS, burstiness=0.4),
    PoissonProcess(rate_per_s=40.0),
    OnOffBurstProcess(
        burst_rate_per_s=80.0, base_rate_per_s=15.0, mean_burst_ms=300.0, mean_gap_ms=500.0
    ),
    DiurnalProcess(base_rate_per_s=40.0, amplitude=0.6, period_ms=4000.0),
    TraceReplayProcess(intervals_ms=(10.0, 20.0, 30.0), loop=True),
]


@pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
class TestEveryProcess:
    def test_intervals_are_positive_and_sized(self, process: ArrivalProcess):
        intervals = process.intervals(50, derive_rng(3, "arrivals"))
        assert intervals.shape == (50,)
        assert (intervals > 0).all()

    def test_deterministic_given_derived_stream(self, process: ArrivalProcess):
        a = process.intervals(40, derive_rng(9, "workload", "x"))
        b = process.intervals(40, derive_rng(9, "workload", "x"))
        assert (a == b).all()

    def test_round_trips_through_pickle(self, process: ArrivalProcess):
        clone = pickle.loads(pickle.dumps(process))
        assert clone == process
        a = process.intervals(10, derive_rng(1, "p"))
        b = clone.intervals(10, derive_rng(1, "p"))
        assert (a == b).all()

    def test_arrival_times_cumulate_from_start(self, process: ArrivalProcess):
        times = process.arrival_times(20, derive_rng(5, "t"), start_ms=100.0)
        assert times[0] > 100.0
        assert (np.diff(times) > 0).all()

    def test_mean_interval_matches_empirical(self, process: ArrivalProcess):
        empirical = float(np.mean(process.intervals(4000, derive_rng(17, "mean"))))
        assert empirical == pytest.approx(process.mean_interval_ms, rel=0.15)

    def test_mean_rate_is_reciprocal(self, process: ArrivalProcess):
        assert process.mean_rate_per_s == pytest.approx(1000.0 / process.mean_interval_ms)


class TestAzureIntervalProcess:
    def test_byte_identical_to_paper_generator(self):
        """The default process IS the pre-scenario code path."""
        process = AzureIntervalProcess(NORMAL_INTERVALS)
        a = process.intervals(200, derive_rng(42, "workload", "moderate-normal"))
        b = generate_intervals(200, NORMAL_INTERVALS, derive_rng(42, "workload", "moderate-normal"))
        assert (a == b).all()

    def test_burstiness_forwarded(self):
        process = AzureIntervalProcess(NORMAL_INTERVALS, burstiness=0.5)
        a = process.intervals(100, derive_rng(4, "b"))
        b = generate_intervals(100, NORMAL_INTERVALS, derive_rng(4, "b"), burstiness=0.5)
        assert (a == b).all()

    def test_rejects_out_of_range_burstiness(self):
        with pytest.raises(ValueError, match="burstiness"):
            AzureIntervalProcess(NORMAL_INTERVALS, burstiness=1.5)


class TestPoissonProcess:
    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            PoissonProcess(rate_per_s=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            PoissonProcess(rate_per_s=-3.0)

    def test_exponential_shape(self):
        intervals = PoissonProcess(rate_per_s=50.0).intervals(5000, derive_rng(2, "p"))
        # Exponential: std == mean; a uniform would have std ~ 0.29 * width.
        assert float(np.std(intervals)) == pytest.approx(float(np.mean(intervals)), rel=0.1)


class TestOnOffBurstProcess:
    def test_zero_rates_rejected(self):
        with pytest.raises(ValueError, match="burst_rate_per_s"):
            OnOffBurstProcess(0.0, 10.0, 100.0, 100.0)
        with pytest.raises(ValueError, match="base_rate_per_s"):
            OnOffBurstProcess(50.0, 0.0, 100.0, 100.0)

    def test_zero_dwell_rejected(self):
        with pytest.raises(ValueError, match="mean_burst_ms"):
            OnOffBurstProcess(50.0, 10.0, 0.0, 100.0)
        with pytest.raises(ValueError, match="mean_gap_ms"):
            OnOffBurstProcess(50.0, 10.0, 100.0, 0.0)

    def test_burst_rate_must_dominate(self):
        with pytest.raises(ValueError, match="must be >="):
            OnOffBurstProcess(10.0, 50.0, 100.0, 100.0)

    def test_is_actually_bursty(self):
        """Interval dispersion well above a plain Poisson's (CV > 1)."""
        process = OnOffBurstProcess(
            burst_rate_per_s=200.0, base_rate_per_s=5.0, mean_burst_ms=200.0, mean_gap_ms=800.0
        )
        intervals = process.intervals(4000, derive_rng(6, "burst"))
        cv = float(np.std(intervals) / np.mean(intervals))
        assert cv > 1.3

    def test_mean_rate_time_weighted(self):
        process = OnOffBurstProcess(
            burst_rate_per_s=100.0, base_rate_per_s=20.0, mean_burst_ms=100.0, mean_gap_ms=300.0
        )
        # (100*100 + 20*300) / 400 = 40 req/s.
        assert process.mean_rate_per_s == pytest.approx(40.0)


class TestDiurnalProcess:
    def test_amplitude_one_rejected(self):
        """amplitude == 1 would allow a zero-rate trough (stalls thinning)."""
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalProcess(base_rate_per_s=40.0, amplitude=1.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalProcess(base_rate_per_s=40.0, amplitude=-0.1)

    def test_zero_base_rate_rejected(self):
        with pytest.raises(ValueError, match="base_rate_per_s"):
            DiurnalProcess(base_rate_per_s=0.0)

    def test_rate_oscillates_around_base(self):
        process = DiurnalProcess(base_rate_per_s=40.0, amplitude=0.5, period_ms=1000.0)
        assert process.rate_per_s_at(250.0) == pytest.approx(60.0)  # peak
        assert process.rate_per_s_at(750.0) == pytest.approx(20.0)  # trough
        assert process.rate_per_s_at(0.0) == pytest.approx(40.0)

    def test_zero_amplitude_reduces_to_poisson_mean(self):
        flat = DiurnalProcess(base_rate_per_s=40.0, amplitude=0.0)
        intervals = flat.intervals(3000, derive_rng(8, "flat"))
        assert float(np.mean(intervals)) == pytest.approx(25.0, rel=0.1)


class TestTraceReplayProcess:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TraceReplayProcess(intervals_ms=())

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            TraceReplayProcess(intervals_ms=(10.0, 0.0, 5.0))

    def test_exhausted_trace_raises(self):
        process = TraceReplayProcess(intervals_ms=(10.0, 20.0))
        with pytest.raises(TraceExhaustedError, match="holds 2 intervals but 5"):
            process.intervals(5, derive_rng(1, "t"))

    def test_loop_wraps_around(self):
        process = TraceReplayProcess(intervals_ms=(10.0, 20.0, 30.0), loop=True)
        intervals = process.intervals(7, derive_rng(1, "t"))
        assert intervals.tolist() == [10.0, 20.0, 30.0, 10.0, 20.0, 30.0, 10.0]

    def test_exact_length_without_loop(self):
        process = TraceReplayProcess(intervals_ms=(10.0, 20.0))
        assert process.intervals(2, derive_rng(1, "t")).tolist() == [10.0, 20.0]

    def test_from_csv_with_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("interval_ms\n5.0\n7.5\n2.5\n")
        process = TraceReplayProcess.from_csv(path)
        assert process.intervals_ms == (5.0, 7.5, 2.5)

    def test_from_csv_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            TraceReplayProcess.from_csv(path)

    def test_from_csv_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("interval_ms\n")
        with pytest.raises(ValueError, match="empty"):
            TraceReplayProcess.from_csv(path)

    def test_from_csv_non_numeric_mid_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("5.0\noops\n7.0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            TraceReplayProcess.from_csv(path)

    def test_from_csv_ragged_row_named_in_error(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("interval_ms,count\n10.0,1\n12.0\n")
        with pytest.raises(ValueError, match="no column 1"):
            TraceReplayProcess.from_csv(path, column=1)

    def test_from_csv_timestamps_differenced(self, tmp_path):
        path = tmp_path / "stamps.csv"
        path.write_text("t_ms\n10.0\n30.0\n60.0\n")
        process = TraceReplayProcess.from_csv(path, kind="timestamps")
        assert process.intervals_ms == (10.0, 20.0, 30.0)

    def test_from_csv_non_monotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "stamps.csv"
        path.write_text("10.0\n5.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            TraceReplayProcess.from_csv(path, kind="timestamps")

    def test_from_csv_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            TraceReplayProcess.from_csv(tmp_path / "x.csv", kind="nonsense")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_interval_rejected(self, bad):
        # A NaN interval passes an ``iv <= 0`` check and would give every
        # later request a NaN arrival time.
        with pytest.raises(ValueError, match="finite and > 0"):
            TraceReplayProcess(intervals_ms=(20.0, 25.0, bad, 22.0), loop=True)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", " Infinity"])
    @pytest.mark.parametrize("loader", ["eager", "lazy"])
    def test_from_csv_non_finite_value_named_with_line(self, tmp_path, cell, loader):
        path = tmp_path / "trace.csv"
        path.write_text(f"interval_ms\n20\n25\n{cell}\n22\n")
        with pytest.raises(ValueError, match=rf"non-finite value .* in trace .*trace\.csv line 4"):
            if loader == "eager":
                TraceReplayProcess.from_csv(path, loop=True)
            else:
                list(iter_trace_intervals(path, loop=False))

    def test_from_csv_errors_name_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("5.0\n\noops\n")
        with pytest.raises(ValueError, match=r"non-numeric value 'oops' in trace .* line 3"):
            TraceReplayProcess.from_csv(path)
        path.write_text("interval_ms,count\n10.0,1\n12.0\n")
        with pytest.raises(ValueError, match=r"line 3 has no column 1"):
            TraceReplayProcess.from_csv(path, column=1)
        path.write_text("t_ms\n10.0\n30.0\n30.0\n")
        with pytest.raises(ValueError, match=r"strictly increasing: 30.0 after 30.0 in .* line 4"):
            TraceReplayProcess.from_csv(path, kind="timestamps")
        path.write_text("interval_ms\n5.0\n0.0\n")
        with pytest.raises(ValueError, match=r"> 0 ms, got 0.0 in trace .* line 3"):
            TraceReplayProcess.from_csv(path)
        with pytest.raises(ValueError, match=r"> 0 ms, got 0.0 in trace .* line 3"):
            list(iter_trace_intervals(path))

    def test_bundled_sample_trace_loads(self):
        from repro.workloads.scenarios import SAMPLE_TRACE_PATH

        process = TraceReplayProcess.from_csv(SAMPLE_TRACE_PATH, loop=True)
        assert len(process.intervals_ms) >= 32
        assert all(iv > 0 for iv in process.intervals_ms)
