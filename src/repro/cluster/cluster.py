"""Cluster state: the set of invoker nodes managed by the controller.

Matches the testbed of Table 2: 16 nodes, each with 16 vCPUs and one A100
GPU split into up to 7 MIG instances (vGPUs).  Also implements OpenWhisk's
"home invoker" hashing: the default node for a function is determined by a
hash of its (namespace, action) identity, which concentrates invocations of
the same function on the same node and therefore yields more warm starts.

Cluster-wide queries are served from incrementally maintained indexes so
per-event cost stays (near-)constant as the cluster grows:

* a **free-capacity index** buckets invoker ids by their exact
  ``(available_vcpus, available_vgpus)`` pair — at most
  ``(vcpus+1) x (vgpus+1)`` buckets regardless of node count — backing
  :meth:`ClusterState.invokers_that_fit`,
  :meth:`ClusterState.most_available_invoker` and the baselines'
  fragmentation-minimising placement;
* a **per-function warm index** tracks which invokers hold a WARM/BUSY
  container of each function, backing
  :meth:`ClusterState.warm_invokers_for`;
* **counters** replace the ``sum(...)`` sweeps behind
  :meth:`ClusterState.total_available_vcpus` / ``total_available_vgpus``
  and the prewarmer's resident-container counts;
* a **capacity epoch**, :attr:`ClusterState.capacity_epoch`, counts the
  changes to any node's free capacity and the joins, so the controller can
  tell that no capacity moved since it recorded a failed attempt.

``tests/cluster/test_cluster_indexes.py`` checks every query against a
brute-force scan over ``invokers`` under random operation sequences.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterator

from repro.cluster.invoker import Invoker
from repro.cluster.container import DEFAULT_KEEP_ALIVE_MS
from repro.profiles.configuration import Configuration
from repro.utils.validation import ensure_positive, ensure_positive_int

__all__ = ["ClusterConfig", "ClusterState"]


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the emulated testbed."""

    num_invokers: int = 16
    vcpus_per_invoker: int = 16
    vgpus_per_invoker: int = 7
    keep_alive_ms: float = DEFAULT_KEEP_ALIVE_MS

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_invokers, "num_invokers")
        ensure_positive_int(self.vcpus_per_invoker, "vcpus_per_invoker")
        ensure_positive_int(self.vgpus_per_invoker, "vgpus_per_invoker")
        ensure_positive(self.keep_alive_ms, "keep_alive_ms")

    @property
    def total_vcpus(self) -> int:
        """Aggregate vCPU capacity of the cluster."""
        return self.num_invokers * self.vcpus_per_invoker

    @property
    def total_vgpus(self) -> int:
        """Aggregate vGPU capacity of the cluster."""
        return self.num_invokers * self.vgpus_per_invoker


class _CapacityBuckets:
    """Invoker ids bucketed by exact ``(available_vcpus, available_vgpus)``.

    The bucket space is bounded by the per-node capacity — 17 x 8 = 136
    buckets for the paper's nodes — so iterating buckets is O(1) in the
    number of invokers.  Each bucket keeps its member ids in a set plus a
    lazily-pruned min-heap, giving O(log n) membership moves and amortised
    O(log n) min-id lookups (the deterministic tie-break every placement
    rule uses).
    """

    def __init__(self) -> None:
        self._members: dict[tuple[int, int], set[int]] = {}
        self._heaps: dict[tuple[int, int], list[int]] = {}
        #: Stale (discarded-but-still-heaped) entry count per bucket; when it
        #: overtakes the live membership the heap is rebuilt, bounding heap
        #: memory by O(invokers) regardless of how much capacity churn a
        #: long run generates.
        self._stale: dict[tuple[int, int], int] = {}

    def add(self, bucket: tuple[int, int], invoker_id: int) -> None:
        self._members.setdefault(bucket, set()).add(invoker_id)
        heapq.heappush(self._heaps.setdefault(bucket, []), invoker_id)

    def discard(self, bucket: tuple[int, int], invoker_id: int) -> None:
        members = self._members.get(bucket)
        if members is not None and invoker_id in members:
            members.remove(invoker_id)
            stale = self._stale.get(bucket, 0) + 1
            if stale > max(8, len(members)):
                self._heaps[bucket] = sorted(members)
                self._stale[bucket] = 0
            else:
                self._stale[bucket] = stale

    def move(self, old: tuple[int, int], new: tuple[int, int], invoker_id: int) -> None:
        self.discard(old, invoker_id)
        self.add(new, invoker_id)

    def min_id(self, bucket: tuple[int, int]) -> int | None:
        """Smallest member id of the bucket (``None`` when empty)."""
        members = self._members.get(bucket)
        if not members:
            return None
        heap = self._heaps[bucket]
        while heap and heap[0] not in members:
            heapq.heappop(heap)
            self._stale[bucket] = max(0, self._stale.get(bucket, 0) - 1)
        return heap[0] if heap else None

    def iter_nonempty(self) -> Iterator[tuple[tuple[int, int], set[int]]]:
        """Yield every non-empty ``(bucket, member-ids)`` pair."""
        for bucket, members in self._members.items():
            if members:
                yield bucket, members

    def fitting_ids(self, need_vcpus: int, need_vgpus: int) -> list[int]:
        """All invoker ids whose bucket satisfies the requirement."""
        ids: list[int] = []
        for (cpu, gpu), members in self.iter_nonempty():
            if cpu >= need_vcpus and gpu >= need_vgpus:
                ids.extend(members)
        return ids


@dataclass
class ClusterState:
    """The live state of all invokers."""

    config: ClusterConfig = field(default_factory=ClusterConfig)
    invokers: list[Invoker] = field(init=False)
    _capacity: _CapacityBuckets = field(init=False, repr=False)
    _bucket_of: list[tuple[int, int]] = field(init=False, repr=False)
    _free_vcpus: int = field(init=False, repr=False)
    _free_vgpus: int = field(init=False, repr=False)
    #: Aggregate capacity of the *current* membership.  Equals the config
    #: totals until churn mutates the cluster.
    _total_vcpus: int = field(init=False, repr=False)
    _total_vgpus: int = field(init=False, repr=False)
    _warm_index: dict[str, set[int]] = field(init=False, repr=False)
    _live_counts: dict[str, int] = field(init=False, repr=False)
    #: Memo of :meth:`home_invoker_id` (pure in its arguments and the
    #: cluster size, so a join clears it): saves a sha256 digest per
    #: locality decision.
    _home_cache: dict[tuple[str, str], int] = field(init=False, repr=False)
    #: Capacity-bucket moves deferred until a query needs them: invoker id
    #: -> the bucket its pending move starts from.  The free-capacity
    #: counters stay exact on every change; :meth:`_flush_capacity_moves`
    #: applies the moves before any read of the bucket index, so readers
    #: observe exactly the state eager moves would have built.  A
    #: reserve/release pair with no capacity query in between cancels to a
    #: no-op instead of four heap operations.
    _pending_moves: dict[int, tuple[int, int]] = field(init=False, repr=False)
    #: Bumped on every change to any node's free capacity and on every
    #: join.  While it is unchanged, every node's free
    #: capacity is what it was (a leave of a node with no free capacity
    #: left changes nothing a placement can see, so it need not bump it).
    capacity_epoch: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self.invokers = [
            Invoker(
                invoker_id=i,
                total_vcpus=self.config.vcpus_per_invoker,
                total_vgpus=self.config.vgpus_per_invoker,
                keep_alive_ms=self.config.keep_alive_ms,
            )
            for i in range(self.config.num_invokers)
        ]
        self._capacity = _CapacityBuckets()
        full = (self.config.vcpus_per_invoker, self.config.vgpus_per_invoker)
        self._bucket_of = [full] * self.config.num_invokers
        for invoker in self.invokers:
            self._capacity.add(full, invoker.invoker_id)
            invoker.bind_cluster_callbacks(self._capacity_changed, self._containers_changed)
        self._free_vcpus = self.config.total_vcpus
        self._free_vgpus = self.config.total_vgpus
        self._total_vcpus = self.config.total_vcpus
        self._total_vgpus = self.config.total_vgpus
        self._warm_index = {}
        self._live_counts = {}
        self._home_cache = {}
        self._pending_moves = {}

    # ------------------------------------------------------------------
    # Index maintenance (invoked by the invokers' change callbacks)
    # ------------------------------------------------------------------
    def _capacity_changed(self, i: int, free_vcpus: int, free_vgpus: int) -> None:
        old = self._bucket_of[i]
        new = (free_vcpus, free_vgpus)
        if new == old:
            return
        self.capacity_epoch += 1
        self._bucket_of[i] = new
        self._free_vcpus += new[0] - old[0]
        self._free_vgpus += new[1] - old[1]
        pending = self._pending_moves
        origin = pending.get(i)
        if origin is None:
            pending[i] = old
        elif origin == new:
            # The node is back in the bucket every index reader last saw:
            # both heap moves cancel.
            del pending[i]

    def _flush_capacity_moves(self) -> None:
        pending = self._pending_moves
        if pending:
            capacity = self._capacity
            bucket_of = self._bucket_of
            for i, origin in pending.items():
                capacity.move(origin, bucket_of[i], i)
            pending.clear()

    def _containers_changed(self, invoker: Invoker, function_name: str, live_delta: int) -> None:
        if live_delta:
            self._live_counts[function_name] = (
                self._live_counts.get(function_name, 0) + live_delta
            )
        if invoker.resident_candidate_count(function_name) > 0:
            self._warm_index.setdefault(function_name, set()).add(invoker.invoker_id)
        else:
            members = self._warm_index.get(function_name)
            if members is not None:
                members.discard(invoker.invoker_id)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def invoker(self, invoker_id: int) -> Invoker:
        """Return the invoker with the given id."""
        if not 0 <= invoker_id < len(self.invokers):
            raise KeyError(f"invoker id {invoker_id} out of range [0, {len(self.invokers)})")
        return self.invokers[invoker_id]

    def __len__(self) -> int:
        return len(self.invokers)

    def __iter__(self):
        return iter(self.invokers)

    # ------------------------------------------------------------------
    # Home-invoker hashing (OpenWhisk behaviour)
    # ------------------------------------------------------------------
    def home_invoker_id(self, app_name: str, function_name: str) -> int:
        """Deterministic "home" node for invocations of a function.

        OpenWhisk hashes the namespace and action name; we hash the
        application and function names so different applications using the
        same function can land on different homes (matching the AFW-queue
        separation of the paper).
        """
        key = (app_name, function_name)
        home = self._home_cache.get(key)
        if home is None:
            home = self._hash_home(app_name, function_name)
            self._home_cache[key] = home
        return home

    def _hash_home(self, app_name: str, function_name: str) -> int:
        digest = hashlib.sha256(f"{app_name}/{function_name}".encode()).digest()
        return int.from_bytes(digest[:4], "big") % len(self.invokers)

    # ------------------------------------------------------------------
    # Cluster-wide queries
    # ------------------------------------------------------------------
    def invokers_that_fit(self, config: Configuration) -> tuple[Invoker, ...]:
        """Invokers that currently have room for ``config`` (ordered by id)."""
        self._flush_capacity_moves()
        ids = sorted(self._capacity.fitting_ids(config.vcpus, config.vgpus))
        return tuple(self.invokers[i] for i in ids)

    def warm_candidate_ids(self, function_name: str) -> Collection[int]:
        """Ids of the invokers holding a WARM or BUSY container of the function.

        A superset of the nodes where a warm start is possible right now
        (an idle container past its keep-alive stays a candidate until its
        expiry is processed), in no particular order.
        """
        return self._warm_index.get(function_name, ())

    def warm_invokers_for(self, function_name: str, now_ms: float) -> tuple[Invoker, ...]:
        """Invokers with a resident (warm or busy) container for ``function_name``."""
        members = self._warm_index.get(function_name)
        if not members:
            return ()
        return tuple(
            invoker
            for i in sorted(members)
            if (invoker := self.invokers[i]).has_warm_container(function_name, now_ms)
        )

    def has_warm_invoker(self, function_name: str, now_ms: float) -> bool:
        """True if any invoker holds a resident container for the function."""
        members = self._warm_index.get(function_name)
        if not members:
            return False
        return any(self.invokers[i].has_warm_container(function_name, now_ms) for i in members)

    def best_warm_invoker(
        self,
        function_name: str,
        config: Configuration,
        now_ms: float,
        *,
        exclude: int | None = None,
    ) -> int | None:
        """The id of the fitting node with a resident container of the function
        and the most free vGPUs, then vCPUs (ties to the lowest id).

        ESG_Dispatch's warm step; ``exclude`` skips one node (the home node,
        already tried).  The warm-index set is walked unsorted: the
        ``(vgpus, vcpus, -id)`` key is unique per node, so the winner cannot
        depend on the order, and the time-dependent residency check runs
        only for a node whose key would win.
        """
        members = self._warm_index.get(function_name)
        if not members:
            return None
        need_vcpus = config.vcpus
        need_vgpus = config.vgpus
        bucket_of = self._bucket_of
        invokers = self.invokers
        best_key: tuple[int, int, int] | None = None
        best_id: int | None = None
        for i in members:
            if i == exclude:
                continue
            free_vcpus, free_vgpus = bucket_of[i]
            if free_vcpus < need_vcpus or free_vgpus < need_vgpus:
                continue
            key = (free_vgpus, free_vcpus, -i)
            if (best_key is None or key > best_key) and invokers[i].has_warm_container(
                function_name, now_ms
            ):
                best_key = key
                best_id = i
        return best_id

    def most_available_invoker(self, config: Configuration) -> Invoker | None:
        """The fitting invoker with the most free resources (ties by id).

        Used as the cold-node fallback of ESG_Dispatch ("choose the one with
        the most available resources").  Delegates to
        :meth:`best_fitting_invoker` with the negated availability score
        (float negation is exact, and both rules tie-break to the lowest
        id), so there is exactly one bucket-scan implementation to maintain.
        """
        total_vcpus = self.config.vcpus_per_invoker
        return self.best_fitting_invoker(
            config, key=lambda cpu, gpu: -(gpu + cpu / total_vcpus)
        )

    def best_fitting_invoker(
        self, config: Configuration, key: Callable[[int, int], object]
    ) -> Invoker | None:
        """The fitting invoker minimising ``key(avail_vcpus, avail_vgpus)``.

        Ties break toward the lowest invoker id — the deterministic rule the
        fragmentation-minimising baselines (INFless, FaST-GShare) use.  The
        key may only depend on the node's free capacity (all invokers are
        homogeneous), which is what lets the capacity index answer the query
        per *bucket* instead of per node.
        """
        self._flush_capacity_moves()
        best_key: object | None = None
        best_id: int | None = None
        for (cpu, gpu), _members in self._capacity.iter_nonempty():
            if cpu < config.vcpus or gpu < config.vgpus:
                continue
            bucket_key = key(cpu, gpu)
            if best_key is None or bucket_key < best_key:
                best_key = bucket_key
                best_id = self._capacity.min_id((cpu, gpu))
            elif not bucket_key > best_key:  # equal keys: lowest id wins
                min_id = self._capacity.min_id((cpu, gpu))
                if min_id is not None and (best_id is None or min_id < best_id):
                    best_id = min_id
        return None if best_id is None else self.invokers[best_id]

    def resident_container_count(self, function_name: str) -> int:
        """Live (starting, warm or busy) containers of the function cluster-wide."""
        return self._live_counts.get(function_name, 0)

    def total_available_vcpus(self) -> int:
        """Free vCPUs across the cluster."""
        return self._free_vcpus

    def total_available_vgpus(self) -> int:
        """Free vGPUs across the cluster."""
        return self._free_vgpus

    def total_vcpus(self) -> int:
        """Aggregate vCPU capacity of the current membership."""
        return self._total_vcpus

    def total_vgpus(self) -> int:
        """Aggregate vGPU capacity of the current membership."""
        return self._total_vgpus

    def cpu_utilization(self) -> float:
        """Cluster-wide vCPU utilisation (relative to current membership)."""
        return 1.0 - self.total_available_vcpus() / self._total_vcpus

    def gpu_utilization(self) -> float:
        """Cluster-wide vGPU utilisation (relative to current membership)."""
        return 1.0 - self.total_available_vgpus() / self._total_vgpus

    # ------------------------------------------------------------------
    # Membership churn (invoked by the controller's churn handlers)
    # ------------------------------------------------------------------
    def apply_join(self, vcpus: int | None = None, vgpus: int | None = None) -> Invoker:
        """Add a node to the cluster; ``None`` shape means the config default.

        Mirrors ``__post_init__``: the new invoker is appended (ids are
        dense and never reused), registered with the capacity index, and
        wired to the callbacks.  The home-invoker memo
        depends on the cluster size, so a join invalidates it.  A join
        changes no existing node's free capacity but adds a node that may
        fit what fit nowhere before, so it bumps the capacity epoch.
        """
        invoker = Invoker(
            invoker_id=len(self.invokers),
            total_vcpus=vcpus if vcpus is not None else self.config.vcpus_per_invoker,
            total_vgpus=vgpus if vgpus is not None else self.config.vgpus_per_invoker,
            keep_alive_ms=self.config.keep_alive_ms,
        )
        self.invokers.append(invoker)
        bucket = (invoker.total_vcpus, invoker.total_vgpus)
        self._bucket_of.append(bucket)
        self._capacity.add(bucket, invoker.invoker_id)
        invoker.bind_cluster_callbacks(self._capacity_changed, self._containers_changed)
        self.capacity_epoch += 1
        self._free_vcpus += invoker.total_vcpus
        self._free_vgpus += invoker.total_vgpus
        self._total_vcpus += invoker.total_vcpus
        self._total_vgpus += invoker.total_vgpus
        self._home_cache.clear()
        return invoker

    def apply_leave(self, invoker_id: int) -> list:
        """Evict a node: drop its containers, zero its capacity, tombstone it.

        The invoker stays in the list so ids (and the home hash, which only
        changes on joins) remain stable; with zero total capacity no
        placement rule can ever select it again.  Re-bucketing it to
        ``(0, 0)`` bumps no epoch when the node had no free capacity left.
        Returns the containers that were force-stopped.  In-flight task
        bookkeeping (requeue/fail, metrics) is the controller's job.
        """
        invoker = self.invoker(invoker_id)
        if not invoker.active:
            return []
        self._total_vcpus -= invoker.total_vcpus
        self._total_vgpus -= invoker.total_vgpus
        return invoker.leave()

    def apply_resize(self, invoker_id: int, vcpus: int, vgpus: int) -> tuple[int, int]:
        """Re-target a node's capacity (harvested-VM shrink/grow).

        See :meth:`Invoker.resize` for the clamp.  Returns the applied
        ``(vcpus, vgpus)``; a departed node is left untouched.
        """
        invoker = self.invoker(invoker_id)
        old_vcpus, old_vgpus = invoker.total_vcpus, invoker.total_vgpus
        new_vcpus, new_vgpus = invoker.resize(vcpus, vgpus)
        self._total_vcpus += new_vcpus - old_vcpus
        self._total_vgpus += new_vgpus - old_vgpus
        return (new_vcpus, new_vgpus)
