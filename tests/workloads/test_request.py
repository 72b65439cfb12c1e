"""Tests for request / job runtime records."""

from __future__ import annotations

import pytest

from repro.workloads.applications import image_classification
from repro.workloads.request import Job, Request


@pytest.fixture()
def request_obj() -> Request:
    return Request(request_id=1, workflow=image_classification(), arrival_ms=100.0, slo_ms=500.0)


class TestRequest:
    def test_deadline_and_budget(self, request_obj):
        assert request_obj.deadline_ms == 600.0
        assert request_obj.remaining_budget_ms(400.0) == 200.0
        assert request_obj.remaining_budget_ms(700.0) == -100.0

    def test_invalid_parameters_rejected(self):
        wf = image_classification()
        with pytest.raises(ValueError):
            Request(request_id=1, workflow=wf, arrival_ms=-1.0, slo_ms=100.0)
        with pytest.raises(ValueError):
            Request(request_id=1, workflow=wf, arrival_ms=0.0, slo_ms=0.0)

    @pytest.mark.parametrize("arrival_ms", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, arrival_ms):
        # ``NaN < 0`` is false, so a plain ``< 0`` check lets NaN through.
        with pytest.raises(ValueError, match="arrival_ms must be finite and >= 0"):
            Request(request_id=1, workflow=image_classification(), arrival_ms=arrival_ms, slo_ms=100.0)

    def test_nan_slo_rejected_and_infinite_slo_allowed(self):
        wf = image_classification()
        with pytest.raises(ValueError, match="slo_ms must be > 0, got nan"):
            Request(request_id=1, workflow=wf, arrival_ms=0.0, slo_ms=float("nan"))
        # An infinite SLO means "no limit" (ESG plans against it as such).
        unlimited = Request(request_id=1, workflow=wf, arrival_ms=0.0, slo_ms=float("inf"))
        assert unlimited.deadline_ms == float("inf")

    def test_stage_completion_progression(self, request_obj):
        assert not request_obj.is_complete

        request_obj.record_stage_completion("s1", 200.0, invoker_id=3)
        assert request_obj.remaining_stage_ids() == ["s2", "s3"]
        assert not request_obj.is_complete

        request_obj.record_stage_completion("s2", 300.0, invoker_id=4)
        request_obj.record_stage_completion("s3", 450.0, invoker_id=4)
        assert request_obj.is_complete
        assert request_obj.completed_ms == 450.0
        assert request_obj.latency_ms == 350.0
        assert request_obj.slo_hit is True

    def test_slo_miss(self, request_obj):
        request_obj.record_stage_completion("s1", 200.0, invoker_id=0)
        request_obj.record_stage_completion("s2", 500.0, invoker_id=0)
        request_obj.record_stage_completion("s3", 700.0, invoker_id=0)
        assert request_obj.slo_hit is False

    def test_slo_hit_none_while_running(self, request_obj):
        assert request_obj.slo_hit is None
        assert request_obj.latency_ms is None

    def test_double_completion_rejected(self, request_obj):
        request_obj.record_stage_completion("s1", 200.0, invoker_id=0)
        with pytest.raises(ValueError):
            request_obj.record_stage_completion("s1", 250.0, invoker_id=0)

    def test_unknown_stage_rejected(self, request_obj):
        with pytest.raises(KeyError):
            request_obj.record_stage_completion("zzz", 200.0, invoker_id=0)

    def test_predecessor_invoker(self, request_obj):
        assert request_obj.predecessor_invoker("s1") is None
        request_obj.record_stage_completion("s1", 200.0, invoker_id=7)
        assert request_obj.predecessor_invoker("s2") == 7


class TestDagProgress:
    """Stage rules on a split/join DAG: a -> (b, c) -> d."""

    def make(self, diamond_workflow) -> Request:
        return Request(request_id=9, workflow=diamond_workflow, arrival_ms=0.0, slo_ms=1e4)

    def test_only_the_last_sink_completes_the_request(self, diamond_workflow):
        request = self.make(diamond_workflow)
        assert request.record_stage_completion("a", 10.0, invoker_id=0) is False
        assert request.record_stage_completion("b", 20.0, invoker_id=1) is False
        assert request.record_stage_completion("c", 30.0, invoker_id=2) is False
        assert request.record_stage_completion("d", 40.0, invoker_id=2) is True
        assert request.completed_ms == 40.0

    def test_a_join_is_ready_once_every_predecessor_completed(self, diamond_workflow):
        request = self.make(diamond_workflow)
        request.record_stage_completion("a", 10.0, invoker_id=0)
        assert request.ready_successors("a") == ["b", "c"]
        request.record_stage_completion("c", 20.0, invoker_id=2)
        assert request.ready_successors("c") == []
        request.record_stage_completion("b", 30.0, invoker_id=1)
        assert request.ready_successors("b") == ["d"]

    def test_join_takes_the_latest_finishing_predecessor(self, diamond_workflow):
        request = self.make(diamond_workflow)
        request.record_stage_completion("a", 10.0, invoker_id=0)
        assert request.predecessor_invoker("d") is None
        request.record_stage_completion("c", 30.0, invoker_id=2)
        assert request.predecessor_invoker("d") == 2  # only c has finished
        request.record_stage_completion("b", 50.0, invoker_id=1)
        assert request.predecessor_invoker("d") == 1  # b finished last

    def test_join_tie_goes_to_the_first_predecessor(self, diamond_workflow):
        request = self.make(diamond_workflow)
        request.record_stage_completion("a", 10.0, invoker_id=0)
        request.record_stage_completion("c", 30.0, invoker_id=2)
        request.record_stage_completion("b", 30.0, invoker_id=1)
        assert request.predecessor_invoker("d") == 1  # b precedes c in edge order


class TestJob:
    def test_function_and_app_names(self, request_obj):
        job = Job(request=request_obj, stage_id="s2", ready_ms=150.0)
        assert job.function_name == "segmentation"
        assert job.app_name == "image_classification"

    def test_waiting_time_non_negative(self, request_obj):
        job = Job(request=request_obj, stage_id="s1", ready_ms=150.0)
        assert job.waiting_ms(100.0) == 0.0
        assert job.waiting_ms(200.0) == 50.0

    def test_remaining_budget_delegates_to_request(self, request_obj):
        job = Job(request=request_obj, stage_id="s1", ready_ms=150.0)
        assert job.remaining_budget_ms(300.0) == request_obj.remaining_budget_ms(300.0)

    def test_unknown_stage_rejected(self, request_obj):
        with pytest.raises(KeyError):
            Job(request=request_obj, stage_id="zzz", ready_ms=0.0)

    def test_negative_ready_time_rejected(self, request_obj):
        with pytest.raises(ValueError):
            Job(request=request_obj, stage_id="s1", ready_ms=-5.0)
