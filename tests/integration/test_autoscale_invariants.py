"""Autoscale fuzz harness: control-loop invariants under randomized traffic.

Every test runs the ESG policy with an attached :class:`Autoscaler` on a
seed-derived random arrival trace (the workload setting, burstiness, trace
length and initial-warm posture all vary with the seed) and checks, *after
every actuation* (via the simulator's ``on_event`` hook, which fires
immediately after the autoscaler's own hook on the same event — no state
changes in between):

* **clamp band** — an applied scale-up never pushes the observed resident
  count above ``max_residents``; an applied scale-down never below
  ``min_residents``; the applied delta never exceeds or contradicts the
  requested one, and the target list matches it exactly;
* **tombstone hygiene** — no actuation ever targets an invoker that is not
  active at actuation time (scale-ups route through the prewarmer's
  tombstone-skipping picker; scale-downs only see live containers);
* **hysteresis discipline** (threshold) — actuations happen only at or
  above the high watermark (up) or at or below the low watermark under a
  quiet arrival rate (down): the controller never oscillates from strictly
  inside the band, and its patience counter stays below the bound;
* **anti-windup** (PID) — the integral term stays inside
  ``[-integral_clamp, +integral_clamp]`` after every decision.

Failures shrink: the harness re-runs growing prefixes of the failing trace
and reports the shortest request prefix that still violates an invariant,
so a red test hands a minimal reproduction (seed + trace recipe + prefix
length), not a full-trace haystack.  ``test_harness_catches_*`` prove the
checkers and the hook wiring can actually fail.
"""

from __future__ import annotations

import pytest

from repro.cluster.autoscale import (
    AutoscaleActuation,
    AutoscaleSpec,
    AutoscaleState,
    Autoscaler,
    PIDController,
    ThresholdController,
    get_autoscale_spec,
)
from repro.cluster.churn import get_churn_spec
from repro.cluster.cluster import ClusterConfig
from repro.cluster.controller import ControllerConfig
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.experiments.runner import build_profile_store, make_policy
from repro.profiles.profiler import ProfileStore
from repro.workloads.arrival import AzureIntervalProcess
from repro.workloads.generator import WORKLOAD_SETTINGS
from repro.workloads.scenarios import Scenario, get_scenario

CONTROLLER_SPECS = ("threshold-default", "pid-default")
SEEDS_PER_CONTROLLER = 21

_SETTINGS = ("moderate-normal", "relaxed-heavy", "strict-light")
#: Bursty tails are where feedback controllers actually fire (smooth light
#: traffic never builds a backlog on a 4-invoker cluster).
_BURSTINESS = (0.7, 0.9, 0.97)


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return build_profile_store()


def fuzz_trace(seed: int, store: ProfileStore):
    """Seed-derived random trace: setting, burstiness, length, warm posture."""
    setting = _SETTINGS[seed % len(_SETTINGS)]
    burstiness = _BURSTINESS[(seed // len(_SETTINGS)) % len(_BURSTINESS)]
    num_requests = 14 + (seed % 6)
    initial_warm = "home" if seed % 2 else "none"
    # Small clusters back up deeply under bursts — that is where the EWMA
    # smoothing of the PID path still sees a sustained error.
    num_invokers = 2 + (seed % 3)
    # The paper's Azure-interval arrivals with batch-scale rate drift, on
    # the setting's own request stream.
    scenario = Scenario(
        name=f"fuzz-{setting}-bursty",
        description="paper arrivals with rate drift",
        setting=setting,
        arrival=AzureIntervalProcess(
            WORKLOAD_SETTINGS[setting].intervals, burstiness=burstiness
        ),
        stream=setting,
    )
    requests = scenario.build_requests(num_requests, seed, store)
    return requests, setting, initial_warm, num_invokers


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------
def actuation_violations(
    actuation: AutoscaleActuation, spec: AutoscaleSpec, cluster
) -> list[str]:
    problems: list[str] = []
    a = actuation
    if a.requested == 0:
        problems.append("actuation recorded for a zero-delta decision")
    if a.applied > 0 and a.state.residents + a.applied > spec.max_residents:
        problems.append(
            f"scale-up broke the clamp: {a.state.residents} residents "
            f"+ {a.applied} applied > max_residents {spec.max_residents}"
        )
    if a.applied < 0 and a.state.residents + a.applied < spec.min_residents:
        problems.append(
            f"scale-down broke the clamp: {a.state.residents} residents "
            f"{a.applied} applied < min_residents {spec.min_residents}"
        )
    if abs(a.applied) > abs(a.requested):
        problems.append(f"applied {a.applied} exceeds requested {a.requested}")
    if a.applied != 0 and (a.applied > 0) != (a.requested > 0):
        problems.append(f"applied {a.applied} contradicts requested {a.requested}")
    if len(a.targets) != abs(a.applied):
        problems.append(
            f"{len(a.targets)} targets recorded for an applied delta of {a.applied}"
        )
    for invoker_id in a.targets:
        if not cluster.invoker(invoker_id).active:
            problems.append(
                f"actuation for {a.state.function_name!r} targeted "
                f"tombstoned invoker {invoker_id}"
            )
    return problems


def threshold_violations(actuation: AutoscaleActuation, spec: AutoscaleSpec) -> list[str]:
    """The hysteresis contract: never actuate from strictly inside the band."""
    problems: list[str] = []
    a = actuation
    if a.requested > 0 and a.state.queue_depth < spec.high_watermark:
        problems.append(
            f"threshold scaled up at depth {a.state.queue_depth} "
            f"below high watermark {spec.high_watermark}"
        )
    if a.requested < 0 and (
        a.state.queue_depth > spec.low_watermark
        or a.state.arrival_rate_per_s > spec.low_rate_per_s
    ):
        problems.append(
            f"threshold scaled down at depth {a.state.queue_depth}, rate "
            f"{a.state.arrival_rate_per_s:.1f}/s above the low gate "
            f"({spec.low_watermark}, {spec.low_rate_per_s}/s)"
        )
    return problems


def controller_violations(autoscaler: Autoscaler) -> list[str]:
    """Bounds on live controller state, re-checked after every event."""
    problems: list[str] = []
    for fn in sorted(autoscaler.controllers):
        controller = autoscaler.controllers[fn]
        if isinstance(controller, PIDController):
            if abs(controller.integral) > controller.integral_clamp + 1e-9:
                problems.append(
                    f"PID integral for {fn!r} wound up to {controller.integral} "
                    f"past the clamp {controller.integral_clamp}"
                )
        if isinstance(controller, ThresholdController):
            if not 0 <= controller.idle_rounds < controller.down_patience:
                problems.append(
                    f"threshold patience counter for {fn!r} is "
                    f"{controller.idle_rounds}, outside "
                    f"[0, {controller.down_patience})"
                )
    return problems


def all_violations(
    autoscaler: Autoscaler, new_actuations: list[AutoscaleActuation], cluster
) -> list[str]:
    problems: list[str] = []
    for actuation in new_actuations:
        problems.extend(actuation_violations(actuation, autoscaler.spec, cluster))
        if autoscaler.spec.kind == "threshold":
            problems.extend(threshold_violations(actuation, autoscaler.spec))
    problems.extend(controller_violations(autoscaler))
    return problems


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_once(
    spec_name: str,
    seed: int,
    requests,
    setting: str,
    store: ProfileStore,
    *,
    initial_warm: str = "home",
    num_invokers: int = 4,
    churn_spec_name: str | None = None,
    corrupt_picker=None,
) -> tuple[Autoscaler, list[str]]:
    """One fuzz run; returns the autoscaler and every violation observed."""
    cluster_config = ClusterConfig(num_invokers=num_invokers)
    schedule = None
    if churn_spec_name is not None:
        schedule = get_churn_spec(churn_spec_name).build(seed, cluster_config)
    simulation = Simulation(
        policy=make_policy("ESG"),
        requests=requests,
        profile_store=store,
        config=SimulationConfig(
            seed=seed,
            cluster=cluster_config,
            controller=ControllerConfig(initial_warm=initial_warm),
            churn=schedule,
        ),
        setting_name=setting,
    )
    autoscaler = Autoscaler(spec=get_autoscale_spec(spec_name)).attach(simulation)
    if corrupt_picker is not None:
        autoscaler._pick_invoker = corrupt_picker.__get__(autoscaler)
    violations: list[str] = []
    seen = 0

    # Registered after attach(), so this fires right after the autoscaler's
    # own hook on the same event: any actuation is checked against cluster
    # state at the exact virtual time it was applied.
    @simulation.on_event
    def _check(sim: Simulation, event) -> None:
        nonlocal seen
        new = autoscaler.actuations[seen:]
        seen = len(autoscaler.actuations)
        for problem in all_violations(autoscaler, new, sim.cluster):
            violations.append(f"after {event!r}: {problem}")

    simulation.run()
    return autoscaler, violations


def shrink(
    spec_name: str,
    seed: int,
    requests,
    setting: str,
    store: ProfileStore,
    *,
    initial_warm: str,
    num_invokers: int = 4,
    churn_spec_name: str | None = None,
) -> tuple[int, list[str]]:
    """Shortest failing trace prefix (linear growth, determinate)."""
    for k in range(1, len(requests) + 1):
        _, violations = run_once(
            spec_name,
            seed,
            requests[:k],
            setting,
            store,
            initial_warm=initial_warm,
            num_invokers=num_invokers,
            churn_spec_name=churn_spec_name,
        )
        if violations:
            return k, violations
    # The full trace failed but no prefix does: report it whole.
    _, violations = run_once(
        spec_name,
        seed,
        requests,
        setting,
        store,
        initial_warm=initial_warm,
        num_invokers=num_invokers,
        churn_spec_name=churn_spec_name,
    )
    return len(requests), violations


def fail_with_minimal_repro(
    spec_name: str,
    seed: int,
    requests,
    setting,
    store,
    *,
    initial_warm,
    num_invokers: int = 4,
    churn=None,
) -> None:
    prefix_len, min_violations = shrink(
        spec_name,
        seed,
        requests,
        setting,
        store,
        initial_warm=initial_warm,
        num_invokers=num_invokers,
        churn_spec_name=churn,
    )
    pytest.fail(
        f"autoscale invariants violated (spec={spec_name}, seed={seed}, "
        f"setting={setting}, initial_warm={initial_warm}, "
        f"num_invokers={num_invokers}, churn={churn});\n"
        f"minimal failing prefix: first {prefix_len} of {len(requests)} requests\n"
        "violations:\n" + "\n".join(f"  {v}" for v in min_violations)
    )


# ----------------------------------------------------------------------
# Fuzz tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec_name", CONTROLLER_SPECS)
def test_autoscale_invariants_hold_across_seeds(spec_name: str, store: ProfileStore):
    total_actuations = 0
    for seed in range(SEEDS_PER_CONTROLLER):
        requests, setting, initial_warm, num_invokers = fuzz_trace(seed, store)
        autoscaler, violations = run_once(
            spec_name,
            seed,
            requests,
            setting,
            store,
            initial_warm=initial_warm,
            num_invokers=num_invokers,
        )
        if violations:
            fail_with_minimal_repro(
                spec_name,
                seed,
                requests,
                setting,
                store,
                initial_warm=initial_warm,
                num_invokers=num_invokers,
            )
        total_actuations += len(autoscaler.actuations)
        assert autoscaler.decisions > 0
    # Vacuity guard: across the whole seed sweep this controller must have
    # actually actuated — an invariant suite over zero actuations proves
    # nothing.
    assert total_actuations > 0


@pytest.mark.parametrize("spec_name", CONTROLLER_SPECS)
def test_autoscale_respects_tombstones_under_eviction_storm(
    spec_name: str, store: ProfileStore
):
    """Regression: actuation during leave-heavy churn never targets a
    leaving invoker (the picker skips tombstones; retirement only ever sees
    live containers)."""
    saw_actuation_with_tombstones = False
    for seed in range(8):
        # The churn sweep keeps the 4-invoker cluster: eviction-storm's
        # leave pressure is calibrated against it, and the tombstone
        # invariant needs departures, not a tiny cluster.
        requests, setting, initial_warm, _ = fuzz_trace(seed, store)
        autoscaler, violations = run_once(
            spec_name,
            seed,
            requests,
            setting,
            store,
            initial_warm=initial_warm,
            churn_spec_name="eviction-storm",
        )
        if violations:
            fail_with_minimal_repro(
                spec_name,
                seed,
                requests,
                setting,
                store,
                initial_warm=initial_warm,
                churn="eviction-storm",
            )
        if autoscaler.actuations:
            saw_actuation_with_tombstones = True
    assert saw_actuation_with_tombstones


# ----------------------------------------------------------------------
# The harness itself must be able to fail
# ----------------------------------------------------------------------
def make_state(**overrides) -> AutoscaleState:
    defaults = dict(
        now_ms=10.0,
        function_name="f",
        queue_depth=0,
        arrival_rate_per_s=0.0,
        residents=1,
        active_invokers=4,
    )
    defaults.update(overrides)
    return AutoscaleState(**defaults)


class TestCheckersCatchForgedRecords:
    spec = get_autoscale_spec("threshold-default")

    def _cluster(self, store: ProfileStore):
        simulation = Simulation(
            policy=make_policy("ESG"),
            requests=get_scenario("paper-moderate-normal").build_requests(1, 0, store),
            profile_store=store,
            config=SimulationConfig(cluster=ClusterConfig(num_invokers=4)),
        )
        return simulation.cluster

    def test_clamp_overshoot_is_reported(self, store):
        forged = AutoscaleActuation(
            state=make_state(queue_depth=9, residents=self.spec.max_residents),
            requested=2,
            applied=2,
            targets=(0, 1),
        )
        problems = actuation_violations(forged, self.spec, self._cluster(store))
        assert any("broke the clamp" in p for p in problems)

    def test_floor_undershoot_is_reported(self, store):
        spec = AutoscaleSpec(name="forged-floor", min_residents=2, max_residents=4)
        forged = AutoscaleActuation(
            state=make_state(residents=2), requested=-1, applied=-1, targets=(0,)
        )
        problems = actuation_violations(forged, spec, self._cluster(store))
        assert any("broke the clamp" in p for p in problems)

    def test_tombstoned_target_is_reported(self, store):
        cluster = self._cluster(store)
        cluster.apply_leave(2)
        forged = AutoscaleActuation(
            state=make_state(queue_depth=9), requested=1, applied=1, targets=(2,)
        )
        problems = actuation_violations(forged, self.spec, cluster)
        assert any("tombstoned invoker 2" in p for p in problems)

    def test_in_band_actuation_is_reported(self):
        inside = AutoscaleActuation(
            state=make_state(queue_depth=1), requested=1, applied=1, targets=(0,)
        )
        assert any("below high watermark" in p for p in threshold_violations(inside, self.spec))
        down_with_traffic = AutoscaleActuation(
            state=make_state(queue_depth=0, arrival_rate_per_s=40.0),
            requested=-1,
            applied=-1,
            targets=(0,),
        )
        assert any(
            "above the low gate" in p
            for p in threshold_violations(down_with_traffic, self.spec)
        )

    def test_wound_up_integral_is_reported(self):
        autoscaler = Autoscaler(spec=get_autoscale_spec("pid-default"))
        controller = autoscaler.spec.build_controller()
        controller.integral = controller.integral_clamp + 1.0  # planted bug
        autoscaler.controllers["f"] = controller
        assert any("wound up" in p for p in controller_violations(autoscaler))


def test_harness_catches_planted_tombstone_placement(store: ProfileStore):
    """End-to-end self-test: corrupt the placement picker to prefer
    tombstoned invokers and check the hook-time observer reports it."""

    def bad_pick(self, cluster, function_name, now_ms):
        for invoker in cluster:
            if not invoker.active:
                return invoker.invoker_id  # planted bug
        from repro.cluster.prewarm import PrewarmManager

        return PrewarmManager.pick_invoker(cluster, function_name)

    caught: list[str] = []
    for seed in range(8):
        requests, setting, _, _ = fuzz_trace(seed, store)
        _, violations = run_once(
            "threshold-default",
            seed,
            requests,
            setting,
            store,
            initial_warm="none",
            churn_spec_name="eviction-storm",
            corrupt_picker=bad_pick,
        )
        caught.extend(violations)
        if caught:
            break
    assert any("tombstoned invoker" in v for v in caught)
