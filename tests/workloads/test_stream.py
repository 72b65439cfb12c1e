"""Tests for lazy request streams and streaming arrival intervals."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.utils.rng import derive_rng
from repro.workloads.applications import build_paper_applications
from repro.workloads.arrival import (
    AzureIntervalProcess,
    DiurnalProcess,
    OnOffBurstProcess,
    PoissonProcess,
    TraceExhaustedError,
    TraceFileReplayProcess,
    TraceReplayProcess,
    iter_trace_intervals,
)
from repro.workloads.generator import MODERATE_NORMAL, RELAXED_HEAVY, WorkloadGenerator
from repro.workloads.request import Request
from repro.workloads.stream import ListRequestStream
from repro.workloads.traces import NORMAL_INTERVALS


def make_generator(small_store, *, arrival=None, seed=17, label="stream", **kwargs):
    return WorkloadGenerator(
        applications=build_paper_applications(),
        setting=MODERATE_NORMAL,
        profile_store=small_store,
        rng=derive_rng(seed, label),
        arrival=arrival,
        **kwargs,
    )


#: The paper's Azure-interval sampling with batch-scale rate drift.
BURSTY_AZURE = AzureIntervalProcess(NORMAL_INTERVALS, burstiness=0.4)

#: Every streaming-capable arrival process, exercised by the exactness and
#: stream-equivalence tests below.
STREAMABLE_PROCESSES = {
    "azure": AzureIntervalProcess(NORMAL_INTERVALS),
    "poisson": PoissonProcess(rate_per_s=40.0),
    "onoff": OnOffBurstProcess(
        burst_rate_per_s=100.0,
        base_rate_per_s=5.0,
        mean_burst_ms=400.0,
        mean_gap_ms=600.0,
    ),
    "diurnal": DiurnalProcess(base_rate_per_s=40.0, amplitude=0.6, period_ms=4000.0),
    "trace-loop": TraceReplayProcess(intervals_ms=(12.0, 30.0, 18.0, 45.0), loop=True),
}


class TestIntervalStream:
    """interval_stream must match the bulk intervals() draws value-for-value."""

    @pytest.mark.parametrize("name", sorted(STREAMABLE_PROCESSES))
    def test_stream_matches_bulk_draws(self, name):
        process = STREAMABLE_PROCESSES[name]
        bulk = process.intervals(50, derive_rng(9, "ivs", name))
        stream = process.interval_stream(derive_rng(9, "ivs", name))
        lazy = np.array([next(stream) for _ in range(50)])
        assert np.array_equal(bulk, lazy)

    def test_nonlooping_trace_stream_ends(self):
        process = TraceReplayProcess(intervals_ms=(5.0, 7.0), loop=False)
        assert list(process.interval_stream(derive_rng(1, "t"))) == [5.0, 7.0]

    def test_bursty_azure_cannot_stream(self):
        process = AzureIntervalProcess(NORMAL_INTERVALS, burstiness=0.5)
        with pytest.raises(ValueError, match="burstiness"):
            process.interval_stream(derive_rng(1, "b"))


class TestCountRequestStream:
    def test_byte_identical_to_generate(self, small_store):
        eager = make_generator(small_store).generate(60)
        lazy = list(make_generator(small_store).stream(60))
        assert len(lazy) == 60
        for request, (arrival_ms, streamed) in zip(eager, lazy):
            assert arrival_ms == streamed.arrival_ms
            assert streamed.request_id == request.request_id
            assert streamed.arrival_ms == request.arrival_ms
            assert streamed.app_name == request.app_name
            assert streamed.slo_ms == request.slo_ms

    def test_materialize_equals_generate_with_weights_and_process(self, small_store):
        kwargs = dict(
            arrival=PoissonProcess(rate_per_s=50.0), app_weights=(4.0, 1.0, 1.0, 2.0)
        )
        eager = make_generator(small_store, **kwargs).generate(40)
        lazy = make_generator(small_store, **kwargs).stream(40).materialize()
        assert [(r.arrival_ms, r.app_name) for r in eager] == [
            (r.arrival_ms, r.app_name) for r in lazy
        ]

    def test_reiteration_yields_fresh_equal_requests(self, small_store):
        stream = make_generator(small_store).stream(10)
        first = [r for _, r in stream]
        second = [r for _, r in stream]
        assert [(a.request_id, a.arrival_ms, a.app_name) for a in first] == [
            (b.request_id, b.arrival_ms, b.app_name) for b in second
        ]
        # Fresh objects each pass: requests carry mutable runtime state and
        # must never be shared across simulation runs.
        assert all(a is not b for a, b in zip(first, second))

    def test_len(self, small_store):
        assert len(make_generator(small_store).stream(25)) == 25

    def test_workflows_first_appearance_order(self, small_store):
        eager = make_generator(small_store).generate(60)
        expected: dict[str, object] = {}
        for request in eager:
            expected.setdefault(request.app_name, request.workflow)
        workflows = make_generator(small_store).stream(60).workflows()
        assert list(workflows) == list(expected)

    def test_nonlooping_trace_too_short_raises(self, small_store):
        generator = make_generator(
            small_store, arrival=TraceReplayProcess(intervals_ms=(10.0, 10.0), loop=False)
        )
        with pytest.raises(TraceExhaustedError):
            generator.stream(5)

    def test_rejects_nonpositive_count(self, small_store):
        with pytest.raises(ValueError):
            make_generator(small_store).stream(0)


class TestDurationRequestStream:
    """The exact duration-coverage guarantee, per arrival process."""

    @pytest.mark.parametrize("name", sorted(STREAMABLE_PROCESSES))
    def test_covers_the_window_exactly(self, small_store, name):
        process = STREAMABLE_PROCESSES[name]
        duration_ms = 2_000.0
        requests = make_generator(small_store, arrival=process, label=name).generate_for_duration(
            duration_ms
        )
        assert requests
        assert all(r.arrival_ms <= duration_ms for r in requests)
        assert [r.request_id for r in requests] == list(range(len(requests)))
        # Exactness: replaying the same interval draws (the interval RNG
        # stream is interleaved with one app pick per request, so replay
        # mirrors that) shows the *next* arrival would exceed the window.
        replay_rng = derive_rng(17, name)
        intervals = process.interval_stream(replay_rng)
        clock, count = 0.0, 0
        while True:
            clock += next(intervals)
            if clock > duration_ms:
                break
            count += 1
            replay_rng.choice(4)  # consume the interleaved app pick
        assert count == len(requests)
        assert clock > duration_ms
        assert requests[-1].arrival_ms < clock

    def test_exact_counts_on_a_literal_trace(self, small_store):
        generator = make_generator(
            small_store,
            arrival=TraceReplayProcess(intervals_ms=(10.0, 20.0), loop=True),
        )
        requests = generator.generate_for_duration(95.0)
        # Arrivals at 10, 30, 40, 60, 70, 90; the next (100) exceeds 95.
        assert [r.arrival_ms for r in requests] == [10.0, 30.0, 40.0, 60.0, 70.0, 90.0]

    def test_bursty_under_generation_is_fixed(self, small_store):
        """The historical 1.3x mean-rate estimate silently truncated windows
        whose realised short-term rate beats the long-run mean (a window
        inside one long burst); exact generation covers them."""
        process = OnOffBurstProcess(
            burst_rate_per_s=100.0,
            base_rate_per_s=1.0,
            mean_burst_ms=20_000.0,
            mean_gap_ms=20_000.0,
        )
        duration_ms = 5_000.0
        old_estimate = max(1, int(duration_ms / process.mean_interval_ms * 1.3) + 8)
        requests = make_generator(small_store, arrival=process).generate_for_duration(duration_ms)
        assert len(requests) > old_estimate
        # At ~100 req/s the last covered arrival sits within a few mean
        # intervals of the bound — the old path stopped seconds short.
        assert requests[-1].arrival_ms > duration_ms - 200.0

    def test_nonlooping_trace_exhausting_mid_stream_raises(self, small_store):
        generator = make_generator(
            small_store,
            arrival=TraceReplayProcess(intervals_ms=(10.0,) * 20, loop=False),
        )
        with pytest.raises(TraceExhaustedError, match="before covering"):
            generator.generate_for_duration(1_000.0)

    def test_nonlooping_trace_covering_the_window_is_fine(self, small_store):
        generator = make_generator(
            small_store,
            arrival=TraceReplayProcess(intervals_ms=(10.0,) * 20, loop=False),
        )
        requests = generator.generate_for_duration(95.0)
        assert [r.arrival_ms for r in requests] == [float(t) for t in range(10, 100, 10)]

    def test_stream_equals_generate_for_duration(self, small_store):
        eager = make_generator(small_store, seed=23).generate_for_duration(1_500.0)
        lazy = make_generator(small_store, seed=23).stream_for_duration(1_500.0).materialize()
        assert [(r.arrival_ms, r.app_name, r.slo_ms) for r in eager] == [
            (r.arrival_ms, r.app_name, r.slo_ms) for r in lazy
        ]

    def test_second_iteration_raises(self, small_store):
        stream = make_generator(small_store).stream_for_duration(300.0)
        stream.materialize()
        with pytest.raises(RuntimeError, match="already iterated"):
            iter(stream).__next__()

    def test_workflows_declares_all_applications(self, small_store):
        stream = make_generator(small_store).stream_for_duration(300.0)
        assert list(stream.workflows()) == [wf.name for wf in build_paper_applications()]

    def test_app_weights_respected(self, small_store):
        generator = make_generator(small_store, app_weights=(1.0, 0.0, 0.0, 0.0))
        requests = generator.generate_for_duration(1_000.0)
        assert {r.app_name for r in requests} == {"image_classification"}


class TestListRequestStream:
    def test_replays_the_list_stably_sorted_by_arrival(self, small_store):
        requests = make_generator(small_store).generate(5)
        tied = Request(
            request_id=99,
            workflow=requests[2].workflow,
            arrival_ms=requests[2].arrival_ms,
            slo_ms=requests[2].slo_ms,
        )
        listed = [requests[3], tied, requests[0], requests[4], requests[2], requests[1]]
        pairs = list(ListRequestStream(listed))
        assert [request for _, request in pairs] == [
            requests[0], requests[1], tied, requests[2], requests[3], requests[4]
        ]
        assert all(arrival_ms == request.arrival_ms for arrival_ms, request in pairs)

    def test_workflows_in_the_lists_first_appearance_order(self, small_store):
        backwards = make_generator(small_store).generate(60)[::-1]
        expected: dict[str, object] = {}
        for request in backwards:
            expected.setdefault(request.app_name, request.workflow)
        assert list(ListRequestStream(backwards).workflows()) == list(expected)


class TestTraceFileReplayProcess:
    def write_trace(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_matches_inline_trace(self, tmp_path):
        path = self.write_trace(tmp_path, "t.csv", ["interval_ms", "12.5", "30.0", "18.25"])
        inline = TraceReplayProcess.from_csv(path)
        lazy = TraceFileReplayProcess(path=str(path))
        rng = derive_rng(1, "file")
        assert np.array_equal(inline.intervals(3, rng), lazy.intervals(3, rng))
        assert lazy.mean_interval_ms == inline.mean_interval_ms
        assert list(lazy.interval_stream(rng)) == list(inline.intervals_ms)

    def test_loop_wraps_and_timestamps_difference(self, tmp_path):
        path = self.write_trace(tmp_path, "ts.csv", ["t", "10", "25", "60"])
        inline = TraceReplayProcess.from_csv(path, kind="timestamps", loop=True)
        lazy = TraceFileReplayProcess(path=str(path), kind="timestamps", loop=True)
        rng = derive_rng(2, "file")
        assert np.array_equal(inline.intervals(8, rng), lazy.intervals(8, rng))

    def test_exhaustion_raises_trace_error(self, tmp_path):
        path = self.write_trace(tmp_path, "short.csv", ["5.0", "6.0"])
        lazy = TraceFileReplayProcess(path=str(path))
        with pytest.raises(TraceExhaustedError, match="loop=True"):
            lazy.intervals(3, derive_rng(3, "file"))

    def test_missing_file_rejected_at_construction(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceFileReplayProcess(path=str(tmp_path / "nope.csv"))

    def test_empty_trace_raises_even_when_looping(self, tmp_path):
        path = self.write_trace(tmp_path, "empty.csv", ["header_only"])
        with pytest.raises(ValueError, match="empty"):
            list(iter_trace_intervals(path, loop=True))

    def test_nonpositive_interval_rejected(self, tmp_path):
        path = self.write_trace(tmp_path, "bad.csv", ["5.0", "-1.0"])
        with pytest.raises(ValueError, match="> 0 ms"):
            list(iter_trace_intervals(path))

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = self.write_trace(tmp_path, "dec.csv", ["10", "9"])
        with pytest.raises(ValueError, match="strictly increasing"):
            list(iter_trace_intervals(path, kind="timestamps"))

    def test_pickles_by_path(self, tmp_path):
        path = self.write_trace(tmp_path, "p.csv", ["4.0", "8.0"])
        process = TraceFileReplayProcess(path=str(path), loop=True)
        clone = pickle.loads(pickle.dumps(process))
        rng = derive_rng(4, "file")
        assert np.array_equal(process.intervals(5, rng), clone.intervals(5, derive_rng(4, "file")))

    def test_duration_stream_over_file_trace(self, small_store, tmp_path):
        path = self.write_trace(tmp_path, "d.csv", ["10.0", "20.0"])
        generator = make_generator(
            small_store, arrival=TraceFileReplayProcess(path=str(path), loop=True)
        )
        requests = generator.generate_for_duration(95.0)
        assert [r.arrival_ms for r in requests] == [10.0, 30.0, 40.0, 60.0, 70.0, 90.0]


class TestStreamSettingVariants:
    """Count streams stay byte-identical under the paper's other settings."""

    def test_relaxed_heavy_parity(self, small_store):
        def build():
            return WorkloadGenerator(
                applications=build_paper_applications(),
                setting=RELAXED_HEAVY,
                profile_store=small_store,
                rng=derive_rng(99, "heavy"),
            )

        eager = build().generate(30)
        lazy = build().stream(30).materialize()
        assert [(r.arrival_ms, r.app_name) for r in eager] == [
            (r.arrival_ms, r.app_name) for r in lazy
        ]

    def test_burstiness_count_mode_still_works(self, small_store):
        """Count streams use bulk draws, so the batch-length burstiness
        envelope remains available (only open-ended streaming rejects it)."""

        def build():
            return make_generator(small_store, arrival=BURSTY_AZURE)

        eager = build().generate(30)
        lazy = build().stream(30).materialize()
        assert [r.arrival_ms for r in eager] == [r.arrival_ms for r in lazy]

    def test_duration_stream_with_burstiness_raises(self, small_store):
        generator = make_generator(small_store, arrival=BURSTY_AZURE)
        with pytest.raises(ValueError, match="burstiness"):
            generator.generate_for_duration(500.0)
