"""Integration tests for reproducibility and ablation behaviour."""

from __future__ import annotations

from repro.core.esg import ESGPolicy
from repro.experiments.runner import ExperimentConfig, run_experiment


def run_esg(seed: int, **policy_kwargs):
    config = ExperimentConfig(num_requests=20, seed=seed)
    policy = ESGPolicy(**policy_kwargs)
    return run_experiment(policy, "paper-moderate-normal", config=config)


def esg_tasks(task_log, seed: int, **policy_kwargs):
    """The tasks of :func:`run_esg`'s run (from its task completion events)."""
    log = task_log()
    with log.capturing():
        run_esg(seed, **policy_kwargs)
    return log.tasks


class TestReproducibility:
    def test_same_seed_gives_identical_results(self):
        a = run_esg(3).summary
        b = run_esg(3).summary
        assert a.total_cost_cents == b.total_cost_cents
        assert a.mean_latency_ms == b.mean_latency_ms
        assert a.slo_hit_rate == b.slo_hit_rate

    def test_different_seeds_give_different_workloads(self):
        a = run_esg(3).summary
        b = run_esg(4).summary
        assert (a.total_cost_cents, a.mean_latency_ms) != (b.total_cost_cents, b.mean_latency_ms)


class TestAblationBehaviour:
    def test_disabling_batching_never_creates_batches(self, task_log):
        tasks = esg_tasks(task_log, 7, batching=False)
        assert tasks and all(t.batch_size == 1 for t in tasks)

    def test_disabling_gpu_sharing_uses_whole_gpus(self, task_log):
        tasks = esg_tasks(task_log, 7, gpu_sharing=False)
        assert tasks and all(t.config.vgpus == 7 for t in tasks)

    def test_gpu_sharing_reduces_vgpu_time(self):
        shared = run_esg(7)
        exclusive = run_esg(7, gpu_sharing=False)
        assert shared.summary.total_vgpu_ms < exclusive.summary.total_vgpu_ms

    def test_static_esg_misses_more_or_equal_slo(self):
        adaptive = run_esg(11)
        static = run_esg(11, adaptive=False)
        assert static.summary.slo_hit_rate <= adaptive.summary.slo_hit_rate + 1e-9
