"""Aquatope-style scheduling (Zhou et al., ASPLOS 2023), as described in
Section 4.2 of the ESG paper, extended with vGPU support.

"Aquatope relies on an offline training process, in which the application of
interest is profiled in many sample executions based on Bayesian
Optimization (BO), through which it builds up a performance model and learns
about the statistically good configurations for every stage in the
application. ... the training process starts with 100 bootstrapping samples,
iterates 50 rounds (we sample five configurations in each round), and
selects the best configuration.  The nature of its reliance on offline
training makes it unable to adapt to dynamic workload changes."

The BO objective minimises the workflow's total per-job cost with a penalty
for exceeding the SLO, evaluated against noisy samples of the performance
profiles (emulating the sample executions of the offline phase).  The
resulting per-stage configurations are *static*: every request of the
application reuses them, which is exactly why Table 4 reports a high
configuration miss rate for this baseline.

Training is a pure function of its inputs, so its results are memoized per
process across runs (:data:`_TRAINED_PLANS`): a sweep or a test suite that
simulates the same application and SLO many times trains it once.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.bo import BayesianOptimizer
from repro.cluster.policy_api import (
    AFWQueue,
    SchedulingContext,
    SchedulingDecision,
    SchedulingPolicy,
    preplanned_decision,
)
from repro.profiles.configuration import Configuration
from repro.utils.rng import derive_rng
from repro.utils.validation import ensure_non_negative_int, ensure_number, ensure_positive_int
from repro.workloads.dag import Workflow

__all__ = ["AquatopePolicy"]

#: Trained plans shared by every policy instance of this process, keyed by
#: everything :meth:`AquatopePolicy.train` reads (see
#: :meth:`AquatopePolicy._training_key`).  Cleared when it reaches
#: :data:`TRAINED_PLANS_LIMIT` entries.
_TRAINED_PLANS: dict[tuple, dict[str, Configuration]] = {}
TRAINED_PLANS_LIMIT = 256


class AquatopePolicy(SchedulingPolicy):
    """Offline-BO-trained static per-stage configurations."""

    name = "Aquatope"

    def __init__(
        self,
        *,
        bootstrap: int = 100,
        rounds: int = 50,
        samples_per_round: int = 5,
        latency_penalty: float = 10.0,
        sample_noise_sigma: float = 0.05,
        seed: int = 1234,
    ) -> None:
        """Create the policy.

        Parameters
        ----------
        bootstrap / rounds / samples_per_round:
            The BO training protocol (defaults follow the paper).
        latency_penalty:
            Weight of the SLO-violation penalty in the training objective
            (relative exceedance of the SLO times this weight, added to the
            per-job cost).
        sample_noise_sigma:
            Noise applied to profile latencies when emulating the offline
            sample executions.
        seed:
            Seed of the training randomness (independent of the simulation
            seed, as training happens offline).
        """
        super().__init__()
        # Checked here: a bad value would otherwise fail only inside the
        # first run's training, with an error naming no setting.
        ensure_non_negative_int(rounds, "rounds")
        ensure_non_negative_int(seed, "seed")
        for label, value in (
            ("latency_penalty", latency_penalty),
            ("sample_noise_sigma", sample_noise_sigma),
        ):
            if not (math.isfinite(ensure_number(value, label)) and value >= 0):
                raise ValueError(f"{label} must be finite and >= 0, got {value!r}")
        self.bootstrap = ensure_positive_int(bootstrap, "bootstrap")
        self.rounds = rounds
        self.samples_per_round = ensure_positive_int(samples_per_round, "samples_per_round")
        self.latency_penalty = latency_penalty
        self.sample_noise_sigma = sample_noise_sigma
        self.seed = seed
        #: Trained plans keyed by (application, rounded SLO).
        self._plans: dict[tuple[str, int], dict[str, Configuration]] = {}

    # ------------------------------------------------------------------
    # Offline training
    # ------------------------------------------------------------------
    def _decode(self, x: np.ndarray, num_stages: int) -> list[Configuration]:
        """Map a point of the unit hypercube to per-stage configurations."""
        space = self.context.config_space
        dims = (space.batch_options, space.vcpu_options, space.vgpu_options)
        configs: list[Configuration] = []
        for stage in range(num_stages):
            values = []
            for dim in range(3):
                options = dims[dim]
                idx = min(len(options) - 1, int(x[3 * stage + dim] * len(options)))
                values.append(options[idx])
            configs.append(Configuration(batch_size=values[0], vcpus=values[1], vgpus=values[2]))
        return configs

    def train(self, workflow: Workflow, slo_ms: float) -> dict[str, Configuration]:
        """Run the offline BO training for one application and SLO."""
        store = self.context.profile_store
        stage_ids = workflow.topological_order()
        profiles = [store.profile(workflow.function_of(sid)) for sid in stage_ids]
        rng = derive_rng(self.seed, "aquatope", workflow.name, str(int(slo_ms)))

        def objective(x: np.ndarray) -> float:
            configs = self._decode(x, len(stage_ids))
            latency = 0.0
            cost = 0.0
            for profile, config in zip(profiles, configs):
                noise = 1.0 + float(rng.normal(0.0, self.sample_noise_sigma))
                latency += profile.latency_ms(config) * max(0.5, noise)
                cost += profile.per_job_cost_cents(config)
            violation = max(0.0, (latency - slo_ms) / slo_ms)
            return cost + self.latency_penalty * violation

        optimizer = BayesianOptimizer(
            num_dims=3 * len(stage_ids),
            objective=objective,
            rng=rng,
            bootstrap=self.bootstrap,
            rounds=self.rounds,
            samples_per_round=self.samples_per_round,
        )
        result = optimizer.run()
        configs = self._decode(result.best_x, len(stage_ids))
        return dict(zip(stage_ids, configs))

    def _training_key(self, workflow: Workflow, slo_ms: float) -> tuple:
        """Every input :meth:`train` reads, by value.

        The profile tables are keyed by content, not by store identity:
        each run builds its own ``ProfileStore``.
        """
        store = self.context.profile_store
        space = self.context.config_space
        stage_ids = tuple(workflow.topological_order())
        tables = tuple(store.profile(workflow.function_of(sid)).table_key() for sid in stage_ids)
        return (
            self.bootstrap,
            self.rounds,
            self.samples_per_round,
            self.latency_penalty,
            self.sample_noise_sigma,
            self.seed,
            workflow.name,
            stage_ids,
            tables,
            (space.batch_options, space.vcpu_options, space.vgpu_options),
            slo_ms,
        )

    def plan_for(self, workflow: Workflow, slo_ms: float) -> dict[str, Configuration]:
        """Return (training on first use) the static plan for an application.

        Within a run, the first SLO seen in a rounding bucket decides the
        plan of the whole bucket.  Across runs, identical training inputs
        reuse the process-level memo; each caller gets its own copy.
        """
        key = (workflow.name, int(round(slo_ms)))
        plan = self._plans.get(key)
        if plan is None:
            memo_key = self._training_key(workflow, slo_ms)
            trained = _TRAINED_PLANS.get(memo_key)
            if trained is None:
                trained = self.train(workflow, slo_ms)
                if len(_TRAINED_PLANS) >= TRAINED_PLANS_LIMIT:
                    _TRAINED_PLANS.clear()
                _TRAINED_PLANS[memo_key] = dict(trained)
            plan = self._plans[key] = dict(trained)
        return plan

    def on_bind(self, context: SchedulingContext) -> None:
        """Reset the per-run plans (the process-level memo is keyed by value)."""
        self._plans.clear()

    # ------------------------------------------------------------------
    # SchedulingPolicy interface
    # ------------------------------------------------------------------
    def plan(self, queue: AFWQueue, now_ms: float) -> SchedulingDecision | None:
        """Look up the trained static configuration of the queue's stage."""
        if queue.is_empty:
            return None
        request = queue.oldest_job().request
        trained = self.plan_for(request.workflow, request.slo_ms)
        if request.static_plan is None:
            request.static_plan = dict(trained)
        # "Aquatope ... has negligible scheduling overhead" — the lookup is
        # charged as zero; training happens offline.
        return preplanned_decision(queue, request.static_plan)
