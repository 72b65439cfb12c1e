"""Tests for the Gaussian-process Bayesian optimiser and the Aquatope policy."""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines.aquatope as aquatope_module
from repro.baselines.aquatope import AquatopePolicy
from repro.baselines.bo import BayesianOptimizer, GaussianProcess
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.policy_api import AFWQueue, SchedulingContext
from repro.profiles.profiler import ProfileStore
from repro.utils.rng import derive_rng
from repro.workloads.applications import build_paper_applications, image_classification
from repro.workloads.request import Job, Request


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        x = np.linspace(0, 1, 8).reshape(-1, 1)
        y = np.sin(3 * x).ravel()
        gp = GaussianProcess(noise=1e-6).fit(x, y)
        mean, std = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-2)
        assert np.all(std < 0.2)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.1], [0.2]])
        y = np.array([1.0, 1.2])
        gp = GaussianProcess(lengthscale=0.05).fit(x, y)
        _, near_std = gp.predict(np.array([[0.15]]))
        _, far_std = gp.predict(np.array([[0.9]]))
        assert far_std[0] > near_std[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.array([[0.5]]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_single_point_fit(self):
        gp = GaussianProcess().fit(np.array([[0.5, 0.5]]), np.array([2.0]))
        mean, _ = gp.predict(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(2.0, abs=1e-3)


class TestBayesianOptimizer:
    def test_finds_minimum_of_quadratic(self):
        target = np.array([0.3, 0.7])

        def objective(x):
            return float(np.sum((x - target) ** 2))

        optimizer = BayesianOptimizer(
            num_dims=2,
            objective=objective,
            rng=derive_rng(0, "bo"),
            bootstrap=30,
            rounds=10,
            samples_per_round=3,
            candidate_pool=128,
        )
        result = optimizer.run()
        assert result.best_y < 0.02
        assert result.evaluations == 30 + 10 * 3

    def test_expected_improvement_positive_below_best(self):
        ei = BayesianOptimizer.expected_improvement(
            mean=np.array([0.5, 2.0]), std=np.array([0.1, 0.1]), best_y=1.0
        )
        assert ei[0] > ei[1]
        assert ei[0] > 0

    def test_reproducible_with_same_rng_seed(self):
        def objective(x):
            return float(np.sum(x**2))

        def run(seed):
            return BayesianOptimizer(
                num_dims=3,
                objective=objective,
                rng=derive_rng(seed, "bo-repro"),
                bootstrap=10,
                rounds=3,
                samples_per_round=2,
            ).run()

        assert run(5).best_y == run(5).best_y

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(num_dims=0, objective=lambda x: 0.0, rng=derive_rng(0, "x"))
        with pytest.raises(ValueError):
            BayesianOptimizer(num_dims=1, objective=lambda x: 0.0, rng=derive_rng(0, "x"), bootstrap=0)


def make_context(store) -> SchedulingContext:
    return SchedulingContext(
        profile_store=store,
        cluster=ClusterState(config=ClusterConfig(num_invokers=4)),
        config_space=store.space,
        pricing=store.pricing,
        workflows={wf.name: wf for wf in build_paper_applications()},
        transfer_model=DataTransferModel(),
    )


@pytest.fixture()
def fast_aquatope(small_store) -> AquatopePolicy:
    """A small training budget keeps the test quick while exercising the full path."""
    policy = AquatopePolicy(bootstrap=15, rounds=3, samples_per_round=2, seed=3)
    policy.bind(make_context(small_store))
    return policy


class TestAquatope:
    def test_training_produces_full_plan(self, fast_aquatope, small_store):
        wf = image_classification()
        slo = 1.2 * small_store.minimum_config_latency_ms(wf.function_names())
        plan = fast_aquatope.plan_for(wf, slo)
        assert set(plan) == set(wf.stage_ids())
        for config in plan.values():
            assert config in small_store.space

    def test_plan_is_cached_per_app_and_slo(self, fast_aquatope, small_store):
        wf = image_classification()
        slo = 1.2 * small_store.minimum_config_latency_ms(wf.function_names())
        first = fast_aquatope.plan_for(wf, slo)
        second = fast_aquatope.plan_for(wf, slo)
        assert first is second

    def test_plan_decision_is_static_and_marks_misses(self, fast_aquatope, small_store):
        wf = image_classification()
        base = small_store.minimum_config_latency_ms(wf.function_names())
        queue = AFWQueue(app_name=wf.name, stage_id="s1", function_name="super_resolution", workflow=wf)
        request = Request(request_id=0, workflow=wf, arrival_ms=0.0, slo_ms=1.2 * base)
        queue.push(Job(request=request, stage_id="s1", ready_ms=0.0))
        decision = fast_aquatope.plan(queue, now_ms=1.0)
        assert decision.used_preplanned
        assert decision.reported_overhead_ms == 0.0
        planned_batch = request.static_plan["s1"].batch_size
        assert decision.plan_miss == (planned_batch > 1)

    def test_tight_slo_prefers_faster_configs_than_relaxed(self, small_store):
        policy = AquatopePolicy(bootstrap=40, rounds=5, samples_per_round=3, seed=11)
        policy.bind(make_context(small_store))
        wf = image_classification()
        base = small_store.minimum_config_latency_ms(wf.function_names())

        def plan_latency(slo_factor):
            plan = policy.plan_for(wf, slo_factor * base)
            return sum(
                small_store.profile(wf.function_of(sid)).latency_ms(cfg.with_batch(1))
                for sid, cfg in plan.items()
            )

        assert plan_latency(0.8) <= plan_latency(3.0) * 1.25

    @pytest.mark.parametrize(
        "overrides, error, message",
        [
            ({"bootstrap": 0}, ValueError, "bootstrap must be a positive integer, got 0"),
            ({"rounds": -3}, ValueError, "rounds must be >= 0, got -3"),
            ({"rounds": 1.5}, TypeError, r"rounds must be an int, got 1\.5"),
            ({"samples_per_round": 2.5}, TypeError, r"samples_per_round must be an int, got 2\.5"),
            ({"latency_penalty": float("nan")}, ValueError, "latency_penalty must be finite"),
            ({"sample_noise_sigma": -1.0}, ValueError, "sample_noise_sigma must be finite"),
            ({"latency_penalty": True}, TypeError, "latency_penalty must be a number, got True"),
            ({"seed": 1.5}, TypeError, r"seed must be an int, got 1\.5"),
            ({"seed": -1}, ValueError, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_settings_rejected_at_construction(self, overrides, error, message):
        with pytest.raises(error, match=message):
            AquatopePolicy(**overrides)

    def test_zero_rounds_and_zero_noise_are_valid(self):
        policy = AquatopePolicy(rounds=0, latency_penalty=0.0, sample_noise_sigma=0.0)
        assert (policy.rounds, policy.latency_penalty, policy.sample_noise_sigma) == (0, 0.0, 0.0)

    def test_on_bind_clears_trained_plans(self, fast_aquatope, small_store):
        wf = image_classification()
        slo = 1.2 * small_store.minimum_config_latency_ms(wf.function_names())
        fast_aquatope.plan_for(wf, slo)
        fast_aquatope.bind(make_context(small_store))
        assert fast_aquatope._plans == {}


FAST_TRAINING = {"bootstrap": 15, "rounds": 3, "samples_per_round": 2, "seed": 3}


@pytest.fixture()
def trainings(monkeypatch) -> list:
    """An empty process-level memo, and a log of the trainings actually run."""
    monkeypatch.setattr(aquatope_module, "_TRAINED_PLANS", {})
    log = []
    train = AquatopePolicy.train

    def logged(self, workflow, slo_ms):
        log.append((workflow.name, slo_ms))
        return train(self, workflow, slo_ms)

    monkeypatch.setattr(AquatopePolicy, "train", logged)
    return log


def bound_aquatope(store, **overrides) -> AquatopePolicy:
    policy = AquatopePolicy(**{**FAST_TRAINING, **overrides})
    policy.bind(make_context(store))
    return policy


class TestTrainingMemo:
    def test_identical_inputs_train_once_per_process(self, small_store, trainings):
        wf = image_classification()
        slo = 1.2 * small_store.minimum_config_latency_ms(wf.function_names())
        first = bound_aquatope(small_store).plan_for(wf, slo)
        # A separately built store with the same content hits the memo too.
        rebuilt = ProfileStore.build(space=small_store.space)
        second = bound_aquatope(rebuilt).plan_for(wf, slo)
        assert len(trainings) == 1
        assert second == first and second is not first
        assert second == bound_aquatope(small_store).train(wf, slo)

    @pytest.mark.parametrize(
        "overrides, slo_shift",
        [({"seed": 4}, 0.0), ({"sample_noise_sigma": 0.06}, 0.0), ({}, 1e-9)],
        ids=["seed", "noise", "exact-slo"],
    )
    def test_any_changed_input_trains_again(self, small_store, trainings, overrides, slo_shift):
        wf = image_classification()
        slo = 1.2 * small_store.minimum_config_latency_ms(wf.function_names())
        bound_aquatope(small_store).plan_for(wf, slo)
        bound_aquatope(small_store, **overrides).plan_for(wf, slo + slo_shift)
        assert len(trainings) == 2

    def test_other_profiles_train_again(self, small_store, default_store, trainings):
        wf = image_classification()
        slo = 1.2 * small_store.minimum_config_latency_ms(wf.function_names())
        bound_aquatope(small_store).plan_for(wf, slo)
        bound_aquatope(default_store).plan_for(wf, slo)
        assert len(trainings) == 2

    def test_first_slo_in_a_rounding_bucket_decides_within_a_run(self, small_store, trainings):
        wf = image_classification()
        slo = float(round(1.2 * small_store.minimum_config_latency_ms(wf.function_names())))
        policy = bound_aquatope(small_store)
        plan = policy.plan_for(wf, slo)
        assert policy.plan_for(wf, slo + 0.25) is plan
        assert trainings == [(wf.name, slo)]
        # A new run that meets the other SLO first trains on its exact value.
        policy.bind(make_context(small_store))
        policy.plan_for(wf, slo + 0.25)
        assert trainings == [(wf.name, slo), (wf.name, slo + 0.25)]

    def test_handed_out_plans_are_copies(self, small_store, trainings):
        wf = image_classification()
        slo = 1.2 * small_store.minimum_config_latency_ms(wf.function_names())
        plan = bound_aquatope(small_store).plan_for(wf, slo)
        expected = dict(plan)
        plan.clear()
        assert bound_aquatope(small_store).plan_for(wf, slo) == expected
        assert len(trainings) == 1

    def test_memo_is_cleared_when_full(self, small_store, trainings, monkeypatch):
        monkeypatch.setattr(aquatope_module, "TRAINED_PLANS_LIMIT", 2)
        wf = image_classification()
        base = small_store.minimum_config_latency_ms(wf.function_names())
        policy = bound_aquatope(small_store)
        for factor in (1.0, 1.5, 2.0):
            policy.plan_for(wf, factor * base)
        assert len(aquatope_module._TRAINED_PLANS) == 1
        bound_aquatope(small_store).plan_for(wf, 1.0 * base)
        assert len(trainings) == 4
