"""ESG_Dispatch: locality-first mapping of tasks to invoker nodes (Section 3.4).

The order of preference is:

1. the invoker that ran the *predecessor* stage of the workflow (so the
   stage's input can be passed through the local file system instead of
   remote storage) — only applicable to non-source stages;
2. the function's *home invoker* (OpenWhisk's hash-based default, which
   maximises warm starts);
3. any other invoker holding a warm container for the function;
4. a cold invoker, choosing the one with the most available resources.

A node is only eligible if it currently has the vCPUs and vGPUs the chosen
configuration needs.
"""

from __future__ import annotations

from repro.cluster.cluster import ClusterState
from repro.profiles.configuration import Configuration

__all__ = ["locality_first_invoker"]


def locality_first_invoker(
    cluster: ClusterState,
    app_name: str,
    function_name: str,
    config: Configuration,
    now_ms: float,
    *,
    predecessor_invoker_id: int | None = None,
) -> int | None:
    """Select an invoker for a task, preferring data locality and warm starts.

    Parameters
    ----------
    cluster:
        Current cluster state.
    app_name / function_name:
        Identify the AFW queue being dispatched (used for home-invoker
        hashing).
    config:
        The resource configuration the task needs.
    now_ms:
        Current simulation time (warm-container checks are time dependent).
    predecessor_invoker_id:
        The node that executed the predecessor stage of the request being
        dispatched, if any.

    Returns
    -------
    int | None
        The selected invoker id, or ``None`` when no node can currently host
        the configuration.

    Step 3 is :meth:`ClusterState.best_warm_invoker`.
    """
    invokers = cluster.invokers

    candidates = cluster.warm_candidate_ids(function_name)
    any_warm_elsewhere = False
    for i in candidates:
        if invokers[i].has_warm_container(function_name, now_ms):
            any_warm_elsewhere = True
            break

    # 1. Predecessor's node (data locality).  If taking it would force a cold
    #    start while a warm container exists elsewhere, defer it: a multi-
    #    second model load is never worth saving a few milliseconds of data
    #    transfer, and the controller knows both costs from the profiles.
    if predecessor_invoker_id is not None:
        predecessor = invokers[predecessor_invoker_id]
        if predecessor.can_fit(config) and (
            not any_warm_elsewhere or predecessor.has_any_container(function_name, now_ms)
        ):
            return predecessor_invoker_id

    # 2. Home invoker.
    home_id = cluster.home_invoker_id(app_name, function_name)
    home = invokers[home_id]
    home_fits = home.can_fit(config)
    if home_fits and (not any_warm_elsewhere or home.has_any_container(function_name, now_ms)):
        return home_id

    # 3. Other warm invokers (most available resources first).
    best_id = cluster.best_warm_invoker(function_name, config, now_ms, exclude=home_id)
    if best_id is not None:
        return best_id

    # 3b. Locality / home fallbacks without the warm-container requirement.
    if predecessor_invoker_id is not None and invokers[predecessor_invoker_id].can_fit(config):
        return predecessor_invoker_id
    if home_fits:
        return home_id

    # 4. Cold fallback: the fitting node with the most available resources.
    fallback = cluster.most_available_invoker(config)
    if fallback is not None:
        return fallback.invoker_id
    return None
