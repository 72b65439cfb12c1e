"""Parallel experiment engine: picklable run specs and a process-pool executor.

Every experiment run in this repository is seed-deterministic and mutually
independent — a (policy, scenario, config) triple fully determines its
:class:`~repro.cluster.metrics.RunSummary`.  That makes sweeps
embarrassingly parallel: a :class:`RunSpec` captures one run as plain
picklable data (policy *name* plus constructor overrides, never a live
policy object), and an :class:`ExperimentEngine` executes a batch of specs
either in-process (``n_jobs=1``, the debuggable default) or across a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Each worker process rebuilds the :class:`~repro.profiles.profiler.ProfileStore`
once per configuration space and caches it for the specs it executes
(profiling is deterministic, and policies only read the store).  Results
come back in spec order with summaries identical to the sequential path.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.cluster.policy_api import SchedulingPolicy
from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    build_profile_store,
    make_policy,
    run_experiment,
)
from repro.experiments.store import ResultStore
from repro.profiles.configuration import ConfigurationSpace
from repro.profiles.profiler import ProfileStore
from repro.utils.validation import find_duplicates
from repro.workloads.scenarios import Scenario, resolve_scenario

__all__ = ["CellCallback", "RunSpec", "ExperimentEngine", "execute_spec", "resolve_n_jobs"]

#: Progress hook invoked in the parent process once per finished cell:
#: ``on_cell(index, spec, result, cached)`` — ``cached`` is True when the
#: result was served from the engine's :class:`ResultStore` without running
#: a simulation.  Cached cells report first (in spec order), then executed
#: cells in completion order.
CellCallback = Callable[[int, "RunSpec", "RunResult", bool], None]


@dataclass(frozen=True)
class RunSpec:
    """A self-contained, picklable description of one simulated run.

    The policy is stored by *name* (plus keyword overrides for its
    constructor) rather than as an instance: policies accumulate run state,
    so shipping a fresh build recipe to each worker is both safer and
    cheaper than pickling live objects.  The demand side is a ``scenario``:
    a registered name or a :class:`~repro.workloads.scenarios.Scenario`
    object.  Names are resolved against the global registry at construction
    time and the resolved *object* is stored: scenarios are picklable by
    design, so the spec carries the full demand bundle to workers — spawn
    workers never consult their own (possibly empty) registry, and ad-hoc
    unregistered scenarios work.  Anything else raises ``TypeError``.
    """

    policy: str
    #: The scenario object; a registered name passed here is resolved to it.
    scenario: Scenario
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    policy_overrides: Mapping[str, object] = field(default_factory=dict)
    #: Optional bookkeeping label (e.g. an ablation variant name).
    label: str | None = None
    #: When True the result carries only the :class:`RunSummary`
    #: (``metrics`` is ``None``): sweeps that read a few summary scalars
    #: ship no collectors over IPC, and the result store can serve the cell.
    summary_only: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.policy, str):
            raise TypeError(
                "RunSpec.policy must be a policy name; pass constructor arguments "
                f"via policy_overrides (got {type(self.policy).__name__})"
            )
        # Resolve eagerly: a typo fails at spec construction in the parent
        # process, and workers receive the resolved object.
        object.__setattr__(self, "scenario", resolve_scenario(self.scenario))

    @property
    def setting_name(self) -> str:
        """Name of the workload setting this spec's scenario runs under."""
        return self.scenario.setting

    def build_policy(self) -> SchedulingPolicy:
        """Instantiate a fresh policy from the stored name and overrides."""
        return make_policy(self.policy, **dict(self.policy_overrides))


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: Per-process cache: profiling a configuration space is deterministic and
#: policies only read the store, so one build per (worker, space) suffices.
_PROFILE_STORE_CACHE: dict[ConfigurationSpace, ProfileStore] = {}


def _profile_store_for(space: ConfigurationSpace) -> ProfileStore:
    store = _PROFILE_STORE_CACHE.get(space)
    if store is None:
        store = build_profile_store(space)
        _PROFILE_STORE_CACHE[space] = store
    return store


def execute_spec(spec: RunSpec) -> RunResult:
    """Execute one spec and return its full result.

    Module-level (not a method) so it is picklable as a process-pool task.

    A ``summary_only`` result carries the summary alone (``metrics`` is
    ``None``).
    """
    store = _profile_store_for(spec.config.space)
    result = run_experiment(
        spec.build_policy(), spec.scenario, config=spec.config, profile_store=store
    )
    if spec.summary_only:
        return RunResult(
            policy_name=result.policy_name,
            setting=result.setting,
            summary=result.summary,
            metrics=None,
            scenario_name=result.scenario_name,
        )
    return result


def _execute_spec_stored(item: tuple[RunSpec, str | None]) -> RunResult:
    """Worker task: execute one spec, persisting its summary when asked.

    Persistence happens *in the worker*, immediately after the run: an
    interrupted sweep keeps every completed cell, so ``--resume`` (or any
    re-run against the same store) only pays for the cells that were in
    flight or never started.  Writes are atomic, so concurrent workers —
    even two sweeps sharing one store — cannot tear an entry.
    """
    spec, store_root = item
    result = execute_spec(spec)
    if store_root is not None:
        ResultStore(store_root).put_summary(spec, result.summary)
    return result


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise a job count: ``None`` or ``<= 0`` means one per CPU core."""
    if n_jobs is None or n_jobs <= 0:
        return os.cpu_count() or 1
    return n_jobs


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class ExperimentEngine:
    """Executes batches of :class:`RunSpec`, optionally across processes.

    ``n_jobs=1`` (the default) runs every spec in the calling process —
    identical code path, fully debuggable.  ``n_jobs>1`` fans specs out to a
    :class:`ProcessPoolExecutor`; ``None`` or ``0`` uses one worker per CPU
    core.  Because every run is seed-deterministic, the returned results are
    identical to the sequential ones, in spec order.

    ``store`` (a :class:`~repro.experiments.store.ResultStore` or a path)
    adds the incremental-re-run discipline: before executing, specs are
    partitioned into **hits** — ``summary_only`` cells whose summary is
    already cached, loaded with no subprocess and no simulation — and
    **misses**, which are executed and then persisted (from inside the
    worker, so interrupted sweeps keep every finished cell).  Results are
    byte-identical either way; the store only changes *whether* a cell
    simulates, never what it returns.
    """

    def __init__(
        self,
        n_jobs: int | None = 1,
        *,
        mp_context: str | None = None,
        store: "ResultStore | str | Path | None" = None,
    ) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self._mp_context = mp_context
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store

    @property
    def _store_root(self) -> str | None:
        return str(self.store.root) if self.store is not None else None

    def run(
        self, specs: Iterable[RunSpec], *, on_cell: CellCallback | None = None
    ) -> list[RunResult]:
        """Execute ``specs`` and return their results in spec order.

        ``on_cell`` is invoked in the calling process once per finished
        cell (cache hits first, then executions as they complete) — the
        hook behind the sweep CLI's live done/cached/running counters.
        """
        spec_list = list(specs)
        if not spec_list:
            return []
        results: list[RunResult | None] = [None] * len(spec_list)
        pending: list[int] = []
        for index, spec in enumerate(spec_list):
            cached = self.store.load_result(spec) if self.store is not None else None
            if cached is not None:
                results[index] = cached
                if on_cell is not None:
                    on_cell(index, spec, cached, True)
            else:
                pending.append(index)
        if pending:
            if self.n_jobs == 1:
                for index in pending:
                    result = _execute_spec_stored((spec_list[index], self._store_root))
                    results[index] = result
                    if on_cell is not None:
                        on_cell(index, spec_list[index], result, False)
            else:
                mp_context = None
                if self._mp_context is not None:
                    import multiprocessing

                    mp_context = multiprocessing.get_context(self._mp_context)
                workers = min(self.n_jobs, len(pending))
                with ProcessPoolExecutor(
                    max_workers=workers, mp_context=mp_context
                ) as pool:
                    futures = {
                        pool.submit(
                            _execute_spec_stored, (spec_list[index], self._store_root)
                        ): index
                        for index in pending
                    }
                    for future in as_completed(futures):
                        index = futures[future]
                        result = future.result()
                        results[index] = result
                        if on_cell is not None:
                            on_cell(index, spec_list[index], result, False)
        return results  # type: ignore[return-value]  # every slot is filled

    def run_keyed(self, specs: Iterable[RunSpec]) -> dict[tuple[str, str], RunResult]:
        """Execute ``specs``; key results by ``(scenario_name, policy_name)``.

        The policy name is the *reported* one
        (``result.policy_name``), so overrides that rename a policy — e.g.
        ablation variants — key distinct cells.

        Two specs that map to the same cell would silently overwrite each
        other (a classic ablation-sweep footgun: two variants of a policy
        without a ``name`` override).  Colliding cells raise a
        :class:`ValueError` *before* any simulation runs — the reported name
        is determined by the spec's constructor overrides, so it can be
        checked by building the (cheap, unbound) policy objects up front.
        """
        spec_list = list(specs)
        keys = [(spec.scenario.name, spec.build_policy().name) for spec in spec_list]
        collisions = find_duplicates(keys)
        if collisions:
            cells = ", ".join(f"({scenario!r}, {policy!r})" for scenario, policy in collisions)
            raise ValueError(
                "run_keyed would silently overwrite results for colliding "
                f"cells: {cells}; give each variant a distinct reported name "
                "via policy_overrides={'name': ...} (or distinct scenarios)"
            )
        results = self.run(spec_list)
        keyed: dict[tuple[str, str], RunResult] = {}
        for spec, result in zip(spec_list, results):
            key = (spec.scenario.name, result.policy_name)
            if key in keyed:
                # Defensive: a policy whose reported name diverges from its
                # construction-time name would bypass the pre-run check.
                raise ValueError(f"duplicate result cell {key!r}")
            keyed[key] = result
        return keyed
