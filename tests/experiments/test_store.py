"""Tests for the content-addressed result store (keys, cache, robustness)."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.end_to_end import run_end_to_end
from repro.experiments.engine import ExperimentEngine, RunSpec, execute_spec
from repro.experiments.runner import DEFAULT_POLICIES, ExperimentConfig, run_matrix
from repro.experiments.store import (
    STORE_SCHEMA_VERSION,
    SUMMARY_KIND,
    ResultStore,
    canonical_policy_key,
    spec_key,
    spec_key_doc,
)
from repro.workloads.scenarios import get_scenario

SMALL = ExperimentConfig(num_requests=6, seed=11)


def _spec(policy: str = "ESG", **kwargs) -> RunSpec:
    kwargs.setdefault("scenario", "paper-strict-light")
    kwargs.setdefault("config", SMALL)
    return RunSpec(policy=policy, **kwargs)


class TestCanonicalPolicyKey:
    @pytest.mark.parametrize(
        ("spelling", "expected"),
        [
            ("ESG", "esg"),
            ("esg", "esg"),
            ("FaST-GShare", "fast-gshare"),
            ("fast_gshare", "fast-gshare"),
            ("Orion", "orion"),
            ("best-first", "orion"),
            ("bfs", "orion"),
            ("Aquatope", "aquatope"),
            ("bo", "aquatope"),
            ("INFless", "infless"),
        ],
    )
    def test_aliases_collapse(self, spelling, expected):
        assert canonical_policy_key(spelling) == expected

    def test_unknown_names_pass_through_normalised(self):
        # The store must never be stricter than make_policy: the engine
        # reports unknown policies, not the key function.
        assert canonical_policy_key("My_New Policy") == "my-new policy"


class TestSpecKey:
    def test_policy_spelling_is_irrelevant(self):
        assert spec_key(_spec("ESG")) == spec_key(_spec("esg"))
        assert spec_key(_spec("Orion")) == spec_key(_spec("bfs"))

    def test_override_insertion_order_is_irrelevant(self):
        a = _spec(policy_overrides={"k": 7, "group_size": 2})
        b = _spec(policy_overrides={"group_size": 2, "k": 7})
        assert spec_key(a) == spec_key(b)

    def test_label_and_summary_only_are_excluded(self):
        base = _spec()
        assert spec_key(base) == spec_key(_spec(label="renamed row"))
        assert spec_key(base) == spec_key(_spec(summary_only=True))

    def test_scenario_name_and_object_share_a_key(self):
        assert spec_key(_spec(scenario="paper-strict-light")) == spec_key(
            _spec(scenario=get_scenario("paper-strict-light"))
        )

    def test_churn_name_and_spec_share_a_key(self):
        by_name = _spec(config=ExperimentConfig(num_requests=6, churn="harvest-mild"))
        from repro.cluster.churn import get_churn_spec

        by_spec = _spec(
            config=ExperimentConfig(num_requests=6, churn=get_churn_spec("harvest-mild"))
        )
        assert spec_key(by_name) == spec_key(by_spec)

    def test_scenario_description_is_presentation_only(self):
        scenario = get_scenario("poisson-normal")
        renamed = dataclasses.replace(scenario, description="a brand new blurb")
        assert spec_key(_spec(scenario=scenario)) == spec_key(_spec(scenario=renamed))

    @pytest.mark.parametrize(
        "variant",
        [
            lambda: _spec("INFless"),
            lambda: _spec(policy_overrides={"k": 9}),
            lambda: _spec(scenario="paper-moderate-normal"),
            lambda: _spec(scenario="poisson-normal"),
            lambda: _spec(config=ExperimentConfig(num_requests=7, seed=11)),
            lambda: _spec(config=ExperimentConfig(num_requests=6, seed=12)),
            lambda: _spec(config=ExperimentConfig(num_requests=6, churn="harvest-mild")),
        ],
    )
    def test_code_relevant_changes_change_the_key(self, variant):
        assert spec_key(variant()) != spec_key(_spec())

    def test_doc_mentions_schema_version(self):
        assert spec_key_doc(_spec())["schema"] == STORE_SCHEMA_VERSION

    def test_schema_7_has_no_retired_modes(self):
        """The simulator has one event loop, one cluster index, one metrics
        collector and one workload path, the controller always charges the
        modeled overhead, and every run names a scenario, so the key
        document names none of their modes (schema 3 dropped the loop mode,
        schema 4 the metrics and index modes, schema 5 the workload mode,
        schema 6 the controller's overhead and prewarm switches, schema 7
        bare settings and burstiness; older keys are misses)."""
        assert STORE_SCHEMA_VERSION == 7
        doc = spec_key_doc(_spec())
        assert set(doc["workload"]) == {"scenario"}
        config = doc["config"]
        assert set(config) == {
            "num_requests",
            "seed",
            "noise_sigma",
            "space",
            "cluster",
            "cluster_pinned",
            "controller",
            "max_time_ms",
            "churn",
            "autoscale",
        }
        assert "index_mode" not in config["cluster"]
        assert "count_overhead_in_latency" not in config["controller"]
        assert "prewarm_enabled" not in config["controller"]

    def test_key_is_stable_across_hash_randomisation(self):
        """PYTHONHASHSEED (and process boundaries) must not move keys."""
        code = (
            "from repro.experiments.engine import RunSpec\n"
            "from repro.experiments.runner import ExperimentConfig\n"
            "from repro.experiments.store import spec_key\n"
            "spec = RunSpec(policy='ESG', scenario='paper-strict-light',\n"
            "               config=ExperimentConfig(num_requests=6, seed=11),\n"
            "               policy_overrides={'k': 7, 'group_size': 2, 'name': 'x'})\n"
            "print(spec_key(spec))\n"
        )
        keys = []
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            keys.append(proc.stdout.strip())
        assert len(set(keys)) == 1
        here = spec_key(
            _spec(policy_overrides={"name": "x", "group_size": 2, "k": 7})
        )
        assert keys[0] == here


class TestResultStoreBasics:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = _spec(summary_only=True)
        summary = execute_spec(spec).summary
        key = store.put_summary(spec, summary)
        assert key == spec_key(spec)
        assert spec in store
        assert key in store
        assert len(store) == 1
        assert list(store.keys()) == [key]
        assert store.get_summary(spec) == summary

    def test_entry_records_kind_and_provenance(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = _spec(summary_only=True)
        key = store.put_summary(spec, execute_spec(spec).summary)
        payload = json.loads(store.path_for_key(key).read_text())
        assert payload["kind"] == SUMMARY_KIND
        assert payload["schema_version"] == STORE_SCHEMA_VERSION
        assert payload["key"] == key
        assert payload["spec"] == spec_key_doc(spec)

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get_summary(_spec()) is None
        assert store.load_result(_spec(summary_only=True)) is None

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: "",  # truncated to nothing
            lambda text: text[: len(text) // 2],  # torn mid-write
            lambda text: "not json at all {",
            lambda text: json.dumps(["wrong", "shape"]),
            lambda text: text.replace('"kind": "summary"', '"kind": "exotic"'),
            lambda text: json.dumps({"schema_version": STORE_SCHEMA_VERSION}),
        ],
    )
    def test_corrupted_entries_are_misses_not_errors(self, tmp_path, mangle):
        store = ResultStore(tmp_path / "store")
        spec = _spec(summary_only=True)
        summary = execute_spec(spec).summary
        key = store.put_summary(spec, summary)
        path = store.path_for_key(key)
        path.write_text(mangle(path.read_text()))
        assert store.get_summary(spec) is None
        assert spec not in store
        # The next execution repairs the cell.
        store.put_summary(spec, summary)
        assert store.get_summary(spec) == summary

    def test_binary_garbage_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = _spec(summary_only=True)
        key = store.put_summary(spec, execute_spec(spec).summary)
        store.path_for_key(key).write_bytes(b"\xff\xfe\x00garbage\x00")
        assert store.get_summary(spec) is None

    def test_schema_version_bump_invalidates(self, tmp_path):
        root = tmp_path / "store"
        spec = _spec(summary_only=True)
        summary = execute_spec(spec).summary
        ResultStore(root).put_summary(spec, summary)
        newer = ResultStore(root, schema_version=STORE_SCHEMA_VERSION + 1)
        # The entry decodes as a miss for the newer schema...
        assert newer.get_summary(spec) is None
        assert newer.load_result(spec) is None
        # ...while the original schema still reads it.
        assert ResultStore(root).get_summary(spec) == summary

    def test_full_result_specs_are_never_served_from_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        full = _spec(summary_only=False)
        store.put_summary(full, execute_spec(full).summary)
        assert store.get_summary(full) is not None  # the summary IS cached
        assert store.load_result(full) is None  # but not servable as a result


class TestEngineWithStore:
    def test_hit_equals_miss_for_every_policy_and_scenario(self, tmp_path):
        """Cached summaries are byte-identical to live ones — all policies,
        paper and churn scenarios alike."""
        store = ResultStore(tmp_path / "store")
        specs = [
            RunSpec(
                policy=policy,
                scenario=scenario,
                config=SMALL,
                summary_only=True,
            )
            for policy in DEFAULT_POLICIES
            for scenario in ("paper-moderate-normal", "churn-mixed-normal")
        ]
        live = [execute_spec(spec) for spec in specs]
        cold = ExperimentEngine(1, store=store).run(specs)
        warm = ExperimentEngine(1, store=store).run(specs)
        for spec, a, b, c in zip(specs, live, cold, warm):
            blob = lambda result: json.dumps(  # noqa: E731
                dataclasses.asdict(result.summary), sort_keys=True, allow_nan=True
            )
            assert blob(a) == blob(b) == blob(c), spec
            assert a.metrics is b.metrics is c.metrics is None
            assert c.scenario_name == b.scenario_name

    def test_warm_run_executes_nothing(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        specs = [
            _spec(policy, summary_only=True) for policy in ("ESG", "INFless", "Orion")
        ]
        ExperimentEngine(1, store=store).run(specs)

        import repro.experiments.engine as engine_mod

        def boom(item):
            raise AssertionError(f"warm run executed {item[0]}")

        monkeypatch.setattr(engine_mod, "_execute_spec_stored", boom)
        flags = []
        results = ExperimentEngine(1, store=store).run(
            specs, on_cell=lambda i, s, r, cached: flags.append(cached)
        )
        assert len(results) == len(specs)
        assert flags == [True, True, True]

    def test_full_result_spec_runs_live_but_warms_the_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        full = _spec(summary_only=False)
        flags = []
        (result,) = ExperimentEngine(1, store=store).run(
            [full], on_cell=lambda i, s, r, cached: flags.append(cached)
        )
        assert flags == [False]
        assert result.metrics is not None  # the live run kept its collector
        # A second full-result run still cannot be served from a summary...
        flags.clear()
        ExperimentEngine(1, store=store).run(
            [full], on_cell=lambda i, s, r, cached: flags.append(cached)
        )
        assert flags == [False]
        # ...but a summary reader of the same cell is a pure hit.
        flags.clear()
        (served,) = ExperimentEngine(1, store=store).run(
            [_spec(summary_only=True)],
            on_cell=lambda i, s, r, cached: flags.append(cached),
        )
        assert flags == [True]
        assert served.summary == result.summary

    def test_concurrent_workers_leave_a_consistent_store(self, tmp_path):
        store_root = tmp_path / "store"
        specs = [
            RunSpec(
                policy=policy,
                scenario="paper-strict-light",
                config=ExperimentConfig(num_requests=6, seed=seed),
                summary_only=True,
            )
            for policy in ("ESG", "INFless")
            for seed in (1, 2, 3, 4)
        ]
        cold = ExperimentEngine(4, store=store_root).run(specs)
        store = ResultStore(store_root)
        assert len(store) == len(specs)
        for key in store.keys():
            assert store.get_entry(key) is not None  # every entry decodes
        flags = []
        warm = ExperimentEngine(4, store=store_root).run(
            specs, on_cell=lambda i, s, r, cached: flags.append(cached)
        )
        assert all(flags)
        for a, b in zip(cold, warm):
            assert a.summary == b.summary

    def test_figures_and_matrices_share_cells(self, tmp_path, monkeypatch):
        """Figure 6's matrix and a scenario matrix name the same paper
        scenarios, so one store serves both."""
        store = ResultStore(tmp_path / "store")
        policies = ("ESG", "INFless")
        figure = run_end_to_end(policies, config=SMALL, summary_only=True, store=store)

        import repro.experiments.engine as engine_mod

        def boom(item):
            raise AssertionError(f"a cached cell executed {item[0]}")

        monkeypatch.setattr(engine_mod, "_execute_spec_stored", boom)
        matrix = run_matrix(
            ["paper-moderate-normal"], policies, config=SMALL, summary_only=True, store=store
        )
        assert len(matrix) == len(policies)
        for (scenario, policy), result in matrix.items():
            assert scenario == "paper-moderate-normal"
            assert result.summary == figure[("moderate-normal", policy)].summary

    def test_store_accepts_paths_and_strings(self, tmp_path):
        spec = _spec(summary_only=True)
        for store in (tmp_path / "a", str(tmp_path / "b")):
            (result,) = ExperimentEngine(1, store=store).run([spec])
            assert ResultStore(store).get_summary(spec) == result.summary
