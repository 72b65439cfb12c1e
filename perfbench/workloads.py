"""The benchmark's workloads.

Each workload is one policy on one scenario, simulated as a batch job of a
stated request count.  Simulated arrivals are open loop: the scenario's
arrival process fixes every arrival time up front, whatever the backlog.

A run of a workload simulates ``variants`` distinct inputs drawn from the
run's ``--seed``: variant ``j`` uses input seed ``seed % VARIANT_SEED_STRIDE
+ j * VARIANT_SEED_STRIDE`` for its arrivals, application picks and runtime
noise, so for seeds below the stride variant 0 is exactly the input of
``--seed``.  Pooling a few
inputs keeps the reported figures close from one seed to the next.

This module holds data only; building a simulation needs the ``repro``
package and lives in ``child.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Distance between the input seeds of consecutive variants.  Run seeds are
#: reduced modulo it, so that no two variants of a run share an input.
VARIANT_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    policy: str
    #: Requests per simulation.
    requests: int
    #: Distinct inputs simulated per run.
    variants: int
    #: A registered scenario name, or ``None`` for an ad-hoc scenario of
    #: ``applications`` under ``setting``.
    scenario: str | None = None
    applications: tuple[str, ...] | None = None
    setting: str | None = None
    autoscale: str | None = None
    #: Seed of the churn schedule.  Fixed, not drawn from ``--seed``: the
    #: storm's timeline decides how far the cluster shrinks, and letting it
    #: vary would make every seed a different workload.
    churn_seed: int | None = None


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's own evaluation: four DAG apps, Azure heavy arrivals.
        # ESG_1Q search takes nearly all of the run time.
        Workload(
            name="paper-dag",
            policy="ESG",
            requests=200,
            variants=10,
            scenario="paper-relaxed-heavy",
        ),
        # One stage, so the search is almost never run (plan-cache hits):
        # the event loop, controller, prewarm, metrics fold and request
        # stream carry the run.
        Workload(
            name="single-stage",
            policy="ESG",
            requests=40_000,
            variants=3,
            applications=("single_stage_classification",),
            setting="relaxed-heavy",
        ),
        # A saturated, shrinking cluster: INFless re-plans and re-places
        # every parked queue on every tick, and the cluster index sees
        # joins, leaves, evictions and requeues beside its fit queries.
        Workload(
            name="churn-storm",
            policy="INFless",
            requests=200,
            variants=10,
            scenario="churn-eviction-storm",
            autoscale="pid-default",
            churn_seed=42,
        ),
    )
}


def input_seed(seed: int, variant: int) -> int:
    """The input seed of ``variant`` in a run of ``seed``.

    Any integer is a valid run seed: it is first reduced modulo the stride,
    so input seeds are never negative and the variants of one run never
    share an input.
    """
    return seed % VARIANT_SEED_STRIDE + variant * VARIANT_SEED_STRIDE
