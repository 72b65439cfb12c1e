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
from repro.cluster.container import ContainerState
from repro.cluster.invoker import Invoker
from repro.profiles.configuration import Configuration

__all__ = ["locality_first_invoker"]

_BUSY = ContainerState.BUSY
_WARM = ContainerState.WARM
_STARTING = ContainerState.STARTING


def _has_resident(invoker: Invoker, function_name: str, now_ms: float) -> bool:
    """Inlined ``invoker.has_warm_container``: any WARM/BUSY live container."""
    for container in invoker._live.get(function_name, ()):
        state = container.state
        if state is _BUSY or (
            state is _WARM and container.warm_at_ms <= now_ms < container.expires_at_ms
        ):
            return True
    return False


def _has_any(invoker: Invoker, function_name: str, now_ms: float) -> bool:
    """Inlined ``invoker.has_any_container``: resident or starting container."""
    for container in invoker._live.get(function_name, ()):
        state = container.state
        if (
            state is _BUSY
            or state is _STARTING
            or (state is _WARM and container.warm_at_ms <= now_ms < container.expires_at_ms)
        ):
            return True
    return False


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

    Residency checks walk the invokers' live-container lists directly,
    capacity checks read the resource counters without the ``can_fit``
    indirection, and the warm-node argmax of step 3 iterates the cluster's
    warm-index set unsorted: its ``(vgpus, vcpus, -id)`` key is unique per
    node, so the winner cannot depend on iteration order.
    """
    invokers = cluster.invokers
    need_vcpus = config.vcpus
    need_vgpus = config.vgpus

    candidates = cluster.warm_candidate_ids(function_name)
    any_warm_elsewhere = False
    for i in candidates:
        if _has_resident(invokers[i], function_name, now_ms):
            any_warm_elsewhere = True
            break

    # 1. Predecessor's node (data locality).  If taking it would force a cold
    #    start while a warm container exists elsewhere, defer it: a multi-
    #    second model load is never worth saving a few milliseconds of data
    #    transfer, and the controller knows both costs from the profiles.
    if predecessor_invoker_id is not None:
        predecessor = invokers[predecessor_invoker_id]
        if (
            need_vcpus <= predecessor.total_vcpus - predecessor._used_vcpus
            and need_vgpus
            <= predecessor.gpu.total_vgpus - predecessor.gpu._used_vgpus
            and (
                _has_any(predecessor, function_name, now_ms) or not any_warm_elsewhere
            )
        ):
            return predecessor_invoker_id

    # 2. Home invoker.
    home_id = cluster.home_invoker_id(app_name, function_name)
    home = invokers[home_id]
    home_fits = (
        need_vcpus <= home.total_vcpus - home._used_vcpus
        and need_vgpus <= home.gpu.total_vgpus - home.gpu._used_vgpus
    )
    if home_fits and (_has_any(home, function_name, now_ms) or not any_warm_elsewhere):
        return home_id

    # 3. Other warm invokers (most available resources first).
    best_key: tuple[int, int, int] | None = None
    best_id: int | None = None
    for i in candidates:
        if i == home_id:
            continue
        invoker = invokers[i]
        if not _has_resident(invoker, function_name, now_ms):
            continue
        avail_vcpus = invoker.total_vcpus - invoker._used_vcpus
        gpu = invoker.gpu
        avail_vgpus = gpu.total_vgpus - gpu._used_vgpus
        if need_vcpus > avail_vcpus or need_vgpus > avail_vgpus:
            continue
        key = (avail_vgpus, avail_vcpus, -i)
        if best_key is None or key > best_key:
            best_key = key
            best_id = i
    if best_id is not None:
        return best_id

    # 3b. Locality / home fallbacks without the warm-container requirement.
    if predecessor_invoker_id is not None:
        predecessor = invokers[predecessor_invoker_id]
        if (
            need_vcpus <= predecessor.total_vcpus - predecessor._used_vcpus
            and need_vgpus
            <= predecessor.gpu.total_vgpus - predecessor.gpu._used_vgpus
        ):
            return predecessor_invoker_id
    if home_fits:
        return home_id

    # 4. Cold fallback: the fitting node with the most available resources.
    fallback = cluster.most_available_invoker(config)
    if fallback is not None:
        return fallback.invoker_id
    return None
