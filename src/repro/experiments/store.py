"""Content-addressed result store: cache RunSummaries by spec identity.

Every run in this repository is a pure function of its
:class:`~repro.experiments.engine.RunSpec`: the policy recipe, the
scenario, the seed and the platform configuration fully
determine the :class:`~repro.cluster.metrics.RunSummary` (the tier-1 parity
suites pin this across processes and worker counts, and the golden corpus
pins the summaries themselves).  Re-simulating an identical cell is therefore pure
waste — exactly the cell production experiment managers cache.

A :class:`ResultStore` keys each run by a **stable content hash** of the
spec's code-relevant fields:

* the canonical policy identity plus its constructor overrides,
* the full scenario bundle (setting, arrival process, application mix,
  stream label, pinned topology, churn recipe, autoscale recipe, horizon),
* every :class:`~repro.experiments.runner.ExperimentConfig` knob that can
  change the simulated outcome — seed, request count, noise, configuration
  space, cluster shape, controller, horizon, churn and autoscale,
* the store schema version (bumping it invalidates every older entry).

Presentation-only fields are explicitly **excluded**: a spec's ``label``,
its ``summary_only`` transport flag, and the human-readable ``description``
of scenarios and topologies never reach the hash, so renaming a figure row
or re-describing a scenario does not invalidate its cached cells.

The hash is deterministic across processes and interpreter invocations:
mappings are canonicalized with sorted keys and digested with ``blake2s``
(the same PYTHONHASHSEED-proof construction :func:`~repro.utils.rng.derive_rng`
uses for RNG stream labels), so spawn workers, re-runs and machines all
agree on the key for one spec.

Entries are single JSON files written **atomically** (temp file +
``os.replace`` in the same directory): concurrent ``n_jobs=4`` workers and
interrupted sweeps can never leave a torn entry, and a torn/corrupted/
foreign file is simply treated as a miss (and overwritten by the next
execution), never an error.

Payloads record their ``kind``.  The store holds ``"summary"`` payloads —
the compact :class:`RunSummary` — so only callers that need *just* the
summary (``summary_only`` specs: the scenario sweeps, the churn study,
Table 4, Figures 6/9/11/12, ``esg-repro sweep``) are served from cache; a
spec that needs the run's metrics collector (``summary_only=False``) always
falls back to a live run, whose summary is then persisted for future
summary readers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro.cluster.metrics import RunSummary
from repro.experiments.runner import canonical_policy_key

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.experiments.engine import RunSpec
    from repro.experiments.runner import RunResult

__all__ = [
    "STORE_SCHEMA_VERSION",
    "SUMMARY_KIND",
    "ResultStore",
    "StoreEntry",
    "canonical_policy_key",
    "spec_key",
    "spec_key_doc",
]

#: Bump to invalidate every previously stored entry (e.g. when a simulator
#: change legitimately alters summaries without touching any spec field).
#: v2: the key document gained the ``autoscale`` config field.
#: v3: the event-loop mode left the key document (the simulator has one loop).
#: v4: the metrics mode and the cluster's index mode left the key document.
#: v5: the workload mode left the key document.
#: v6: the controller's ``count_overhead_in_latency`` and ``prewarm_enabled``
#: fields left the key document (overhead is always modeled and charged).
#: v7: the workload is always a scenario (no bare-setting documents), and
#: the config's ``burstiness`` left the key document.
STORE_SCHEMA_VERSION = 7

#: The payload kind the store holds today: a bare :class:`RunSummary`.
SUMMARY_KIND = "summary"

#: Per-class presentation-only fields excluded from the canonical key
#: document.  Everything else on these dataclasses is code-relevant.
_PRESENTATION_FIELDS: dict[str, frozenset[str]] = {
    "repro.workloads.scenarios.Scenario": frozenset({"description"}),
    "repro.cluster.topology.ClusterTopology": frozenset({"description"}),
}

# ----------------------------------------------------------------------
# Canonicalisation
# ----------------------------------------------------------------------
def _canonical(value: object) -> object:
    """Reduce ``value`` to a JSON-able form with a deterministic encoding.

    Dataclasses become ``{"__dataclass__": qualified-name, **init-fields}``
    (derived ``init=False`` fields and presentation-only fields skipped);
    mappings are rebuilt with sorted string keys so insertion order — and
    hence PYTHONHASHSEED — can never leak into the hash.  Unknown types
    raise instead of falling back to ``repr``: a silently unstable encoding
    would poison every key derived from it.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, Path):
        return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        label = f"{cls.__module__}.{cls.__qualname__}"
        skip = _PRESENTATION_FIELDS.get(label, frozenset())
        doc: dict[str, object] = {"__dataclass__": label}
        for field in dataclasses.fields(value):
            if not field.init or field.name in skip:
                continue
            doc[field.name] = _canonical(getattr(value, field.name))
        return doc
    if isinstance(value, Mapping):
        items: dict[str, object] = {}
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"store keys require string mapping keys, got {type(key).__name__}"
                )
            items[key] = _canonical(value[key])
        return dict(sorted(items.items()))
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise TypeError(
        f"cannot canonicalise {type(value).__module__}.{type(value).__qualname__} "
        "into a store key; spec fields must be plain data or dataclasses"
    )


def spec_key_doc(spec: "RunSpec") -> dict[str, object]:
    """The canonical key document of one spec (code-relevant fields only).

    ``label`` and ``summary_only`` are deliberately absent: the former is
    bookkeeping, and the latter changes how the result travels, not what
    the simulation computes — a full-result run and a summary-only run of
    the same cell must share a key so one can warm the cache for the other.
    """
    from repro.cluster.autoscale import get_autoscale_spec
    from repro.cluster.churn import get_churn_spec

    config = spec.config
    churn = config.churn
    if isinstance(churn, str):
        # A name and its resolved spec describe the same churn stream.
        churn = get_churn_spec(churn)
    autoscale = config.autoscale
    if isinstance(autoscale, str):
        # A name and its resolved spec describe the same controller.
        autoscale = get_autoscale_spec(autoscale)
    return {
        "schema": STORE_SCHEMA_VERSION,
        "policy": canonical_policy_key(spec.policy),
        "policy_overrides": _canonical(dict(spec.policy_overrides)),
        "workload": {"scenario": _canonical(spec.scenario)},
        "config": {
            "num_requests": config.num_requests,
            "seed": config.seed,
            "noise_sigma": config.noise_sigma,
            "space": _canonical(config.space),
            "cluster": _canonical(config.cluster),
            "cluster_pinned": config.cluster_pinned,
            "controller": _canonical(config.controller),
            "max_time_ms": config.max_time_ms,
            "churn": _canonical(churn),
            "autoscale": _canonical(autoscale),
        },
    }


def spec_key(spec: "RunSpec") -> str:
    """Stable content hash of one spec (32 hex chars, blake2s).

    A pure function of the spec's code-relevant fields and the store schema
    version — independent of PYTHONHASHSEED, dict insertion order, process
    boundaries and platform, like :func:`~repro.utils.rng.derive_rng`'s
    label hashing.
    """
    doc = json.dumps(
        spec_key_doc(spec), sort_keys=True, separators=(",", ":"), allow_nan=True
    )
    return hashlib.blake2s(doc.encode("utf-8"), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One decoded store record."""

    key: str
    kind: str
    summary: RunSummary


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp + replace).

    Readers either see the previous complete entry or the new complete
    entry, never a torn file — even with concurrent writers, the last
    complete rename wins and every intermediate state is a valid file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultStore:
    """Content-addressed on-disk cache of :class:`RunSummary` payloads.

    Layout: one JSON file per cell at ``<root>/<key[:2]>/<key>.json`` (the
    two-character fan-out keeps directories small at fleet scale).  Each
    file records the schema version, the key, the payload ``kind``, the
    human-readable canonical spec document (provenance — what exactly this
    cell was) and the summary payload.

    Robustness contract: loading never raises for a bad entry.  Missing,
    truncated, corrupted, schema-mismatched or key-mismatched files are all
    treated as misses; the next execution of that cell atomically replaces
    the bad file.
    """

    def __init__(
        self, root: str | Path, *, schema_version: int = STORE_SCHEMA_VERSION
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version

    # -- keys and paths ------------------------------------------------
    def key_for(self, spec: "RunSpec") -> str:
        """The content hash addressing ``spec``'s cell."""
        return spec_key(spec)

    def path_for_key(self, key: str) -> Path:
        """Entry path of one key."""
        return self.root / key[:2] / f"{key}.json"

    def path_for(self, spec: "RunSpec") -> Path:
        """Entry path of one spec."""
        return self.path_for_key(self.key_for(spec))

    # -- reads ---------------------------------------------------------
    def get_entry(self, key: str) -> StoreEntry | None:
        """Decode the entry stored under ``key``; ``None`` on any defect."""
        path = self.path_for_key(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                return None
            if payload.get("schema_version") != self.schema_version:
                return None
            if payload.get("key") != key:
                return None
            kind = payload.get("kind")
            summary_fields = payload.get("summary")
            if kind != SUMMARY_KIND or not isinstance(summary_fields, dict):
                return None
            summary = RunSummary(**summary_fields)
        except (ValueError, TypeError):
            # Truncated/corrupt JSON, or a field set from another era of
            # RunSummary: a miss, never an error.
            return None
        return StoreEntry(key=key, kind=kind, summary=summary)

    def get_summary(self, spec: "RunSpec") -> RunSummary | None:
        """The cached summary of ``spec``'s cell, if present and intact."""
        entry = self.get_entry(self.key_for(spec))
        return entry.summary if entry is not None else None

    def load_result(self, spec: "RunSpec") -> "RunResult | None":
        """Serve ``spec`` from cache, or ``None`` when it cannot be served.

        Only ``summary_only`` specs are servable from a summary payload: a
        caller that needs a live metrics collector must run the cell
        (honouring ``summary_only`` semantics is the store's job, not each
        call site's).  A served result is indistinguishable from a
        ``summary_only`` engine execution — no collector, byte-identical
        summary.
        """
        from repro.experiments.runner import RunResult

        if not spec.summary_only:
            return None
        summary = self.get_summary(spec)
        if summary is None:
            return None
        return RunResult(
            policy_name=summary.policy,
            setting=spec.scenario.setting_obj,
            summary=summary,
            metrics=None,
            scenario_name=spec.scenario.name,
        )

    # -- writes --------------------------------------------------------
    def put_summary(self, spec: "RunSpec", summary: RunSummary) -> str:
        """Persist ``summary`` as ``spec``'s cell; returns the key."""
        key = self.key_for(spec)
        payload = {
            "schema_version": self.schema_version,
            "key": key,
            "kind": SUMMARY_KIND,
            "spec": spec_key_doc(spec),
            "summary": dataclasses.asdict(summary),
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)
        _atomic_write_text(self.path_for_key(key), text + "\n")
        return key

    # -- enumeration ---------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Keys of every entry file currently on disk (valid or not)."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, spec_or_key: "RunSpec | str") -> bool:
        key = (
            spec_or_key
            if isinstance(spec_or_key, str)
            else self.key_for(spec_or_key)
        )
        return self.get_entry(key) is not None
