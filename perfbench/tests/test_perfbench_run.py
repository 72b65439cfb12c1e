"""The runner's pass scheduling and the host-speed scaling.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import hostspeed
import pytest
import run


def test_passes_makes_one_even_past_the_budget():
    assert len(run.passes(dict, seconds=0.0)) == 1


def test_passes_stops_when_the_next_pass_would_not_fit(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])

    def one_pass():
        now[0] += 3.0
        return {}

    # 3 s each: the fourth would end at 12 s, past a 10 s budget.
    assert len(run.passes(one_pass, seconds=10.0)) == 3
    now[0] = 0.0
    assert len(run.passes(one_pass, seconds=12.0)) == 4


def test_kernel_checksum():
    assert hostspeed.kernel() == hostspeed.CHECKSUM
    assert hostspeed.kernel_s() > 0.0


def test_sampler_scales_each_slice_by_its_own_kernel_time():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_S
    # A slice on the nominal host counts as is; one on a host twice as
    # slow shrinks by 2 ** ELASTICITY.
    sampler.slices = [(1.0, nominal), (2.0, 2 * nominal)]
    assert sampler.host_s() == pytest.approx(3.0)
    assert sampler.kernel_mean_s() == pytest.approx(1.5 * nominal)
    assert sampler.scaled_s() == pytest.approx(1.0 + 2.0 / 2**hostspeed.ELASTICITY)


def test_sampler_samples_through_a_run_and_leaves_the_kernel_out(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hostspeed, "kernel_s", lambda: 0.5)

    class FakeSimulation:
        def on_progress(self, hook, *, every_events):
            self.hook = hook

    simulation = FakeSimulation()
    sampler = hostspeed.Sampler()
    sampler.attach(simulation)
    sampler.start()
    for _ in range(10):  # ten progress calls, 0.1 s of run apart
        now[0] += 0.1
        simulation.hook(simulation)
    sampler.finish()
    # A sample at the first progress call a quarter second past the last
    # one (0.3, 0.6 and 0.9 s), then the 0.1 s tail at finish().
    assert [host_s for host_s, _ in sampler.slices] == pytest.approx([0.3, 0.3, 0.3, 0.1])
