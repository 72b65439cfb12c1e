"""Shared fixtures for the test suite.

Fixtures that are expensive to build (profile stores over larger
configuration spaces) are session-scoped; tests must treat them as
read-only.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.cluster.events import RequestArrivalEvent, TaskCompletionEvent
from repro.cluster.tasks import Task
from repro.profiles.configuration import ConfigurationSpace
from repro.profiles.perf_model import AnalyticalPerformanceModel
from repro.profiles.pricing import PricingModel
from repro.profiles.profiler import ProfileStore
from repro.workloads.applications import build_paper_applications
from repro.workloads.dag import Workflow
from repro.workloads.request import Request


@pytest.fixture(scope="session")
def small_space() -> ConfigurationSpace:
    """A compact configuration space (18 configs) for fast unit tests."""
    return ConfigurationSpace.small()


@pytest.fixture(scope="session")
def small_store(small_space: ConfigurationSpace) -> ProfileStore:
    """Profiles of all six functions over the small space."""
    return ProfileStore.build(space=small_space)


@pytest.fixture(scope="session")
def default_store() -> ProfileStore:
    """Profiles over the default configuration space (80 configs)."""
    return ProfileStore.build()


@pytest.fixture(scope="session")
def perf_model() -> AnalyticalPerformanceModel:
    """The deterministic performance model with default parameters."""
    return AnalyticalPerformanceModel()


@pytest.fixture(scope="session")
def pricing() -> PricingModel:
    """The paper's AWS-derived pricing model."""
    return PricingModel()


@pytest.fixture(scope="session")
def paper_apps() -> list[Workflow]:
    """The four applications of the paper's evaluation."""
    return build_paper_applications()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A seeded random generator for per-test randomness."""
    return np.random.default_rng(1234)


@pytest.fixture()
def diamond_workflow() -> Workflow:
    """A DAG with a split and a join (for dominator/grouping tests)."""
    wf = Workflow("diamond")
    wf.add_stage("a", "super_resolution")
    wf.add_stage("b", "deblur")
    wf.add_stage("c", "segmentation")
    wf.add_stage("d", "classification")
    wf.add_edge("a", "b")
    wf.add_edge("a", "c")
    wf.add_edge("b", "d")
    wf.add_edge("c", "d")
    wf.validate()
    return wf


class TaskLog:
    """The tasks of simulations, read from their ``TaskCompletionEvent``s.

    The metrics collector keeps no task objects, so tests that inspect
    tasks record them through the simulation's event hooks:
    ``attach(simulation)`` records one simulation, and inside ``with
    log.capturing():`` every simulation ``run_experiment`` builds is
    recorded.  Tasks come in completion order, and only tasks whose
    completion event fired are seen (none past a horizon; see
    :meth:`in_flight_tasks`).  Requests come in arrival order, from their
    ``RequestArrivalEvent``s.
    """

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.requests: list[Request] = []
        self.simulations: list = []

    def attach(self, simulation):
        self.simulations.append(simulation)
        simulation.on_event(self._record)
        return simulation

    def _record(self, simulation, event) -> None:
        if isinstance(event, TaskCompletionEvent):
            self.tasks.append(event.task)
        elif isinstance(event, RequestArrivalEvent):
            self.requests.append(event.request)

    def in_flight_tasks(self) -> list[Task]:
        """Tasks still executing where the recorded runs stopped.

        Drains each recorded simulation's event loop, so call it only once
        the runs are over.
        """
        tasks = []
        for simulation in self.simulations:
            events = simulation.events
            while not events.empty:
                event = events.pop()
                if isinstance(event, TaskCompletionEvent):
                    tasks.append(event.task)
        return tasks

    @contextmanager
    def capturing(self):
        original = runner_module.Simulation
        log = self

        class RecordedSimulation(original):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                log.attach(self)

        runner_module.Simulation = RecordedSimulation
        try:
            yield self
        finally:
            runner_module.Simulation = original


@pytest.fixture(scope="session")
def task_log() -> type[TaskLog]:
    """Factory of :class:`TaskLog` recorders (``log = task_log()``)."""
    return TaskLog
