"""End-to-end tests for the command-line interface."""

import copy
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import engineered_query_set, scripts_to_json
from oracle import oracle_resample_means
import ragmeter
from ragmeter import stats
from ragmeter.cli import RunConfig, build_providers, load_config, main
from ragmeter.corpus import generate_synthetic, save_record_set


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")


def write_workspace(tmp_path: Path, *, bootstrap_b: int = 300, extra_scripts: dict | None = None):
    """Config + scripts + two engineered record files, ready for any command."""
    positive, pos_scripts = engineered_query_set("pos", 8, "positive")
    random_set, rand_scripts = engineered_query_set("rand", 8, "random")
    scripts = {**pos_scripts, **rand_scripts, **(extra_scripts or {})}
    write_json(tmp_path / "scripts.json", scripts_to_json(scripts))
    save_record_set(positive, tmp_path / "pos.jsonl")
    save_record_set(random_set, tmp_path / "rand.jsonl")
    write_json(
        tmp_path / "config.json",
        {
            "providers": {
                "mode": "stub",
                "stub": {
                    "scripts": "scripts.json",
                    "embedder": {"dimension": 1024},
                    "scorer": {"weights": [1.0, 1.0, 1.0, 1.0], "bias": 0.0},
                },
            },
            "bootstrap": {"B": bootstrap_b, "seed": 7},
            "parallelism": 2,
            "seed": 7,
        },
    )
    return tmp_path / "config.json"


def run(args: list[str]) -> int:
    return main([str(a) for a in args])


class TestEvaluate:
    def test_happy_path(self, tmp_path):
        config = write_workspace(tmp_path)
        out = tmp_path / "out"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["label"] == "pos"
        assert len(report["records"]) == 8
        assert 0.8 <= report["means"]["answer_relevance"] <= 1.0
        assert report["failure_counts"] == {m: 0 for m in report["failure_counts"]}
        assert (out / "metrics.txt").exists()
        manifest = json.loads((out / "evaluate.manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert manifest["seed"] == 7
        assert manifest["providers"]["generator"] == "stub:scripted"
        assert manifest["config"]["bootstrap"]["seed"] == 7
        # defaulted fields echo into the manifest verbatim
        assert manifest["config"]["generation"]["temperature"] == 0.0
        assert manifest["config"]["generation"]["top_p"] == 0.01
        assert manifest["config"]["bootstrap"]["ci_level"] == 0.95

    def test_empty_record_file_exits_4(self, tmp_path):
        config = write_workspace(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", empty]) == 4

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run(["evaluate", "--config", bad, "--out", tmp_path / "o", "x.jsonl"]) == 2

    def test_bad_record_rows_exit_2(self, tmp_path):
        config = write_workspace(tmp_path)
        broken = tmp_path / "broken.jsonl"
        broken.write_text('{"id": "r1", "query": "q"}\n', encoding="utf-8")
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", broken]) == 2

    def test_partial_failures_still_exit_0(self, tmp_path):
        positive, pos_scripts = engineered_query_set("pos", 4, "positive")
        lost, _ = engineered_query_set("lost", 2, "random")  # no scripts for these
        config = write_workspace(tmp_path, extra_scripts=pos_scripts)
        mixed = tmp_path / "mixed.jsonl"
        save_record_set(
            type(positive)(label="mixed", records=positive.records + lost.records), mixed
        )
        out = tmp_path / "out"
        assert run(["evaluate", "--config", config, "--out", out, mixed]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["failure_counts"]["faithfulness"] == 2

    def test_providers_flag_overrides_config(self, tmp_path):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["providers"]["mode"] = "http"  # no endpoints defined: unusable unless overridden
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code = run(["evaluate", "--config", config, "--providers", "stub", "--out", out,
                    tmp_path / "pos.jsonl"])
        assert code == 0
        manifest = json.loads((out / "evaluate.manifest.json").read_text())
        assert manifest["config"]["providers"]["mode"] == "stub"

    def test_manifest_round_trip(self, tmp_path):
        config = write_workspace(tmp_path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run(["evaluate", "--config", config, "--out", first, tmp_path / "pos.jsonl"]) == 0
        manifest = first / "evaluate.manifest.json"
        assert run(["evaluate", "--config", manifest, "--out", second, tmp_path / "pos.jsonl"]) == 0
        assert (first / "metrics.json").read_bytes() == (second / "metrics.json").read_bytes()


def write_metrics_report(path: Path, entries: list[dict]) -> None:
    write_json(path, {"label": "handmade", "means": {}, "failure_counts": {}, "records": entries})


def report_entry(record_id: str, scores: dict[str, float]) -> dict:
    return {
        "id": record_id,
        "query": "What drives the result?",
        "answer": "The result is driven by the inputs.",
        "contexts": ["The inputs drive the result."],
        "metrics": {m: {"value": v, "status": "ok"} for m, v in scores.items()},
    }


HIGH = {"faithfulness": 1.0, "answer_relevance": 0.9, "retrieval_recall": 0.8, "retrieval_precision": 0.7}
LOW = {"faithfulness": 1.0, "answer_relevance": 0.2, "retrieval_recall": 0.1, "retrieval_precision": 0.1}


class TestAggregate:
    def test_ranked_descending(self, tmp_path):
        config = write_workspace(tmp_path)
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [report_entry("low", LOW), report_entry("high", HIGH)])
        out = tmp_path / "out"
        assert run(["aggregate", "--config", config, "--out", out, report_path]) == 0
        ranked = json.loads((out / "aggregate.json").read_text())["ranked"]
        assert [r["id"] for r in ranked] == ["high", "low"]
        assert ranked[0]["logit"] == pytest.approx(sum(HIGH.values()))
        assert 0.0 < ranked[0]["normalized"] < 1.0

    def test_tie_broken_by_id(self, tmp_path):
        config = write_workspace(tmp_path)
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [report_entry("b", HIGH), report_entry("a", HIGH)])
        out = tmp_path / "out"
        assert run(["aggregate", "--config", config, "--out", out, report_path]) == 0
        ranked = json.loads((out / "aggregate.json").read_text())["ranked"]
        assert [r["id"] for r in ranked] == ["a", "b"]

    def test_missing_metric_exits_5(self, tmp_path):
        config = write_workspace(tmp_path)
        entry = report_entry("a", HIGH)
        entry["metrics"]["retrieval_recall"] = {"value": None, "status": "failed"}
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [entry])
        assert run(["aggregate", "--config", config, "--out", tmp_path / "o", report_path]) == 5

    def test_offline_scorer_exits_3(self, tmp_path):
        config_path = tmp_path / "http.json"
        write_json(
            config_path,
            {
                "providers": {
                    "mode": "http",
                    "http": {
                        "generator": {"url": "http://127.0.0.1:1/generate"},
                        "embedder": {"url": "http://127.0.0.1:1/embed"},
                        "scorer": {"url": "http://127.0.0.1:1/score", "timeout": 0.2},
                    },
                }
            },
        )
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [report_entry("a", HIGH)])
        assert run(["aggregate", "--config", config_path, "--out", tmp_path / "o", report_path]) == 3

    @pytest.mark.parametrize(
        "report",
        [
            [1, 2],
            {"records": [1]},
            {"records": [{**report_entry("a", HIGH), "metrics": [1]}]},
            {"records": [{**report_entry("a", HIGH), "metrics": HIGH}]},
            {"records": [{**report_entry("a", HIGH),
                          "metrics": {m: {"value": [1], "status": "ok"} for m in HIGH}}]},
            {"records": [{**report_entry("a", HIGH),
                          "metrics": {m: {"value": True, "status": "ok"} for m in HIGH}}]},
            {"records": [{**report_entry("a", HIGH),
                          "metrics": {m: {"value": "0.5", "status": "ok"} for m in HIGH}}]},
            {"records": [{**report_entry("a", HIGH),
                          "metrics": {m: {"value": 10**400, "status": "ok"} for m in HIGH}}]},
            {"records": [{**report_entry("a", HIGH),
                          "metrics": {m: {"value": math.nan, "status": "ok"} for m in HIGH}}]},
            {"records": [{**report_entry("a", HIGH), "contexts": 5}]},
            {"records": [{**report_entry("a", HIGH), "query": 5}]},
            {"records": [{**report_entry("a", HIGH), "id": 5}]},
            {"records": [{**report_entry("a", HIGH), "ground_truth": 5}]},
            {"records": [{**report_entry("a", HIGH), "answer": ""}]},
            {"records": [{**report_entry("a", HIGH), "notes": "x"}]},
        ],
        ids=["report-list", "record-not-object", "metrics-not-object", "cell-not-object",
             "value-list", "value-bool", "value-string", "value-beyond-float-range", "value-nan",
             "contexts-number", "query-number", "id-number", "ground-truth-number", "answer-empty",
             "unknown-key"],
    )
    def test_malformed_report_exits_2(self, tmp_path, capsys, report):
        config = write_workspace(tmp_path)
        report_path = tmp_path / "metrics.json"
        write_json(report_path, report)
        assert run(["aggregate", "--config", config, "--out", tmp_path / "o", report_path]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestBootstrap:
    def test_constant_values(self, tmp_path):
        config = write_workspace(tmp_path, bootstrap_b=1200)
        values_path = tmp_path / "values.json"
        write_json(values_path, [0.5] * 40)
        out = tmp_path / "out"
        assert run(["bootstrap", "--config", config, "--out", out, values_path]) == 0
        doc = json.loads((out / "bootstrap.json").read_text())
        assert doc["summary"]["boot_variance"] == 0.0
        assert doc["summary"]["ci_low"] == doc["summary"]["ci_high"]
        assert doc["unbiasedness"]["passed"] is True
        assert doc["convergence"]["converged"] is True

    def test_b_of_one_exits_6(self, tmp_path):
        config = write_workspace(tmp_path, bootstrap_b=1)
        values_path = tmp_path / "values.json"
        write_json(values_path, [0.1, 0.2, 0.3])
        assert run(["bootstrap", "--config", config, "--out", tmp_path / "o", values_path]) == 6

    def test_empty_values_exits_4(self, tmp_path):
        config = write_workspace(tmp_path)
        values_path = tmp_path / "values.json"
        write_json(values_path, [])
        assert run(["bootstrap", "--config", config, "--out", tmp_path / "o", values_path]) == 4

    @pytest.mark.parametrize(
        "values",
        [[True, "0.5", 0.25, 0.75], [1, 0.5, 0.25, "0.75"], {"values": [0.5, False]}, [0.5, 10**400]],
        ids=["bool-and-string", "string", "object-form-bool", "int-beyond-float-range"],
    )
    def test_non_number_values_exit_2(self, tmp_path, capsys, values):
        config = write_workspace(tmp_path)
        values_path = tmp_path / "values.json"
        write_json(values_path, values)
        out = tmp_path / "o"
        assert run(["bootstrap", "--config", config, "--out", out, values_path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_values_object_form(self, tmp_path):
        config = write_workspace(tmp_path, bootstrap_b=1100)
        values_path = tmp_path / "values.json"
        write_json(values_path, {"values": [0.1, 0.4, 0.3, 0.8] * 10})
        assert run(["bootstrap", "--config", config, "--out", tmp_path / "o", values_path]) == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_statistics_exit_6(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        values_path = tmp_path / "values.json"
        write_json(values_path, [1e308, 1e308, 1.7e308, 1e308])
        out = tmp_path / "o"
        assert run(["bootstrap", "--config", config, "--out", out, values_path]) == 6
        assert capsys.readouterr().err.startswith("error: bootstrap summary is not finite: empirical_mean=inf")
        assert not out.exists()

    def test_reports_are_strict_json(self):
        from ragmeter.cli import _json_text

        assert _json_text({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                _json_text({"summary": {"boot_mean": bad}})

    @pytest.mark.parametrize("checkpoints, draws", [(None, 1200), ([100, 600, 2000], 2000)])
    def test_resample_means_drawn_once(self, tmp_path, monkeypatch, checkpoints, draws):
        config = write_workspace(tmp_path, bootstrap_b=1200)
        doc = json.loads(config.read_text())
        doc["bootstrap"]["checkpoints"] = checkpoints
        write_json(config, doc)
        values = [0.1, 0.4, 0.3, 0.8] * 10
        values_path = tmp_path / "values.json"
        write_json(values_path, values)
        calls = []

        def counting_state(words, real=stats.pcg64_state):
            calls.append(words)
            return real(words)

        monkeypatch.setattr(stats, "pcg64_state", counting_state)
        out = tmp_path / "out"
        assert run(["bootstrap", "--config", config, "--out", out, values_path]) == 0
        assert len(calls) == draws
        points = json.loads((out / "bootstrap.json").read_text())["convergence"]["points"]
        means = oracle_resample_means(values, draws, len(values), 7)
        for point in points:
            prefix = means[: point["B"]]
            centre = sum(prefix) / len(prefix)
            std = (sum((m - centre) ** 2 for m in prefix) / (len(prefix) - 1)) ** 0.5
            assert point["std_error"] == pytest.approx(std, rel=1e-12, abs=1e-15)
        assert [p["B"] for p in points] == (checkpoints or [150, 300, 600, 1200])


class TestMalformedScripts:
    @pytest.mark.parametrize(
        "scripts",
        [
            [1],
            {"scripts": [1]},
            {"scripts": [{"match": "x", "responses": "Question: abc"}]},
            {"scripts": [{"match": "x", "responses": []}]},
            {"scripts": [{"match": "x", "responses": [1]}]},
            {"scripts": [{"match": "x", "response": "Question: abc"}]},
            {"scripts": [{"match": None, "responses": ["Question: abc"]}]},
            {"scripts": [{"match": ["x", 1], "responses": ["Question: abc"]}]},
        ],
        ids=["file-list", "entry-not-object", "responses-string", "responses-empty",
             "responses-not-strings", "responses-missing", "match-null", "match-not-strings"],
    )
    def test_exits_2(self, tmp_path, capsys, scripts):
        config = write_workspace(tmp_path)
        if isinstance(scripts, dict):
            # behind the workspace's valid entries, which answer every prompt first
            valid = json.loads((tmp_path / "scripts.json").read_text())["scripts"]
            scripts = {"scripts": valid + scripts["scripts"]}
        write_json(tmp_path / "scripts.json", scripts)
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", tmp_path / "pos.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "first, second",
        [("x", ["x"]), (["x"], "x"), (["x", "y"], ["x", "y"])],
        ids=["string-then-list", "list-then-string", "two-needles"],
    )
    def test_duplicate_match_exits_2(self, tmp_path, capsys, first, second):
        config = write_workspace(tmp_path)
        valid = json.loads((tmp_path / "scripts.json").read_text())["scripts"]
        extra = [{"match": first, "responses": ["Question: abc"]},
                 {"match": ["other"], "responses": ["Question: def"]},
                 {"match": second, "responses": ["Question: ghi"]}]
        write_json(tmp_path / "scripts.json", {"scripts": valid + extra})
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"entries {len(valid)} and {len(valid) + 2} have the same match" in err
        assert not out.exists()

    def test_scripts_not_a_list_exits_2(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        write_json(tmp_path / "scripts.json", {"scripts": 5})
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", tmp_path / "pos.jsonl"]) == 2
        scripts = tmp_path / "scripts.json"
        assert capsys.readouterr().err == f"error: scripts must be a list of objects, got 5 (in scripts file {scripts})\n"

    def test_needles_too_deep_for_the_pattern_exit_2(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        valid = json.loads((tmp_path / "scripts.json").read_text())["scripts"]
        chain = [{"match": "a" * length, "responses": ["Question: abc"]} for length in range(1, 1001)]
        write_json(tmp_path / "scripts.json", {"scripts": valid + chain})
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 2
        assert "nest more than" in capsys.readouterr().err
        assert not out.exists()


class TestConfig:
    def test_empty_config_echoes_dataclass_defaults(self, tmp_path):
        from dataclasses import asdict

        from ragmeter.cli import load_config
        from ragmeter.topicality import DEFAULT_MIN_EFFECT

        config_path = tmp_path / "empty.json"
        write_json(config_path, {})
        config = load_config(config_path)
        assert config.generation == ragmeter.GenerationParams()
        assert config.similarity == ragmeter.SimilarityConfig()
        assert config.bootstrap == ragmeter.BootstrapConfig()
        assert config.checkpoints is None
        assert config.min_effect == DEFAULT_MIN_EFFECT
        assert config.raw["generation"] == asdict(ragmeter.GenerationParams())
        assert config.raw["metrics"] == asdict(ragmeter.SimilarityConfig())
        assert config.raw["bootstrap"] == {**asdict(ragmeter.BootstrapConfig()), "checkpoints": None}
        assert config.raw["topicality"] == {"min_effect": DEFAULT_MIN_EFFECT}

    @pytest.mark.parametrize("flag", ["contexts_included", "strict_parsing"])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_flag_exits_2(self, tmp_path, capsys, flag, value):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["flags"] = {flag: value}
        write_json(config, doc)
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", tmp_path / "pos.jsonl"]) == 2
        assert capsys.readouterr().err.startswith(f"error: flags.{flag} must be true or false")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("bootstrap", "seed", 2.9),
            ("bootstrap", "B", 50.5),
            ("bootstrap", "seed", True),
            ("bootstrap", "resample_size", "40"),
            (None, "seed", 2.9),
            (None, "seed", True),
            (None, "parallelism", "2"),
            (None, "parallelism", False),
            ("topicality", "min_effect", "0.1"),
            ("topicality", "min_effect", True),
            ("topicality", "min_effect", None),
            ("topicality", "min_effect", math.nan),
            ("generation", "temperature", math.nan),
            ("generation", "top_p", math.inf),
            ("metrics", "precision_match_threshold", -math.inf),
        ],
    )
    def test_mistyped_number_exits_2(self, tmp_path, capsys, section, key, value):
        config = write_workspace(tmp_path, bootstrap_b=1000)
        doc = json.loads(config.read_text())
        (doc.setdefault(section, {}) if section else doc)[key] = value
        write_json(config, doc)
        values_path = tmp_path / "values.json"
        write_json(values_path, [0.1, 0.4, 0.3, 0.8] * 10)
        out = tmp_path / "o"
        assert run(["bootstrap", "--config", config, "--out", out, values_path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_parallelism_below_one_exits_2(self, tmp_path, capsys, source):
        config = write_workspace(tmp_path)
        override = []
        if source == "config":
            doc = json.loads(config.read_text())
            doc["parallelism"] = -3
            write_json(config, doc)
        else:
            override = ["--parallelism", 0]
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, *override, tmp_path / "pos.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error: parallelism must be at least 1")
        assert not (out / "evaluate.manifest.json").exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("providers.stub.scorer.weights", "1234", "must be a list of numbers"),
            ("providers.stub.scorer.weights", [1.0, 1.0, True, 1.0], "weights[2] must be a number"),
            ("providers.stub.scorer.bias", "1", "must be a number"),
            ("providers.stub.embedder.dimension", 2.9, "must be an integer"),
            ("providers.stub.embedder.dimension", True, "must be an integer"),
            ("providers.stub.embedder.keyword_channels", {"cloud": 1.5}, "must be an object of integers or null"),
            ("providers.stub.fallback", 5, "must be a string"),
            ("metrics.n_generated_questions", 2.5, "must be an integer"),
            ("generation.max_tokens", 2.5, "must be an integer"),
            ("generation.seed", "3", "must be an integer or null"),
            ("record_format", "nope", "must be 'structured-lines' or 'delimited'"),
            ("providers.mode", "grpc", "must be 'stub' or 'http'"),
            ("providers.http.generator", {"url": 5}, "generator.url must be a string"),
            ("providers.http.embedder", {"url": "http://b.test/e", "timeout": "5"}, "timeout must be a number"),
            ("bootstrap.checkpoints", [100, 200.5], "must be a list of integers or null"),
            ("metric", {"n_generated_questions": 3}, "metric is not a recognized key"),
            ("providers.stub.embedder.dimensions", 64, "dimensions is not a recognized key"),
        ],
    )
    def test_mistyped_setting_exits_2(self, tmp_path, capsys, path, value, message):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
        write_json(config, doc)
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {'.'.join(parents)}")
        assert message in err
        assert not out.exists()

    def test_stub_mode_refuses_malformed_http_section(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["providers"]["http"] = {"generator": {"url": "http://b.test/g", "dialect": 5}}
        write_json(config, doc)
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", tmp_path / "pos.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error: providers.http.generator.dialect must be a string")

    def test_manifest_with_unknown_key_exits_2(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        first = tmp_path / "first"
        assert run(["evaluate", "--config", config, "--out", first, tmp_path / "pos.jsonl"]) == 0
        manifest = json.loads((first / "evaluate.manifest.json").read_text())
        manifest["config"]["flags"]["retired_flag"] = True
        write_json(first / "evaluate.manifest.json", manifest)
        out = tmp_path / "second"
        code = run(["evaluate", "--config", first / "evaluate.manifest.json", "--out", out, tmp_path / "pos.jsonl"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: flags.retired_flag is not a recognized key")
        assert not out.exists()

    def test_readme_configuration_block_resolves_to_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Configuration"):]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        documented, empty = tmp_path / "documented.json", tmp_path / "empty.json"
        documented.write_text(block, encoding="utf-8")
        write_json(empty, {})
        resolved = load_config(documented), load_config(empty)
        for field in fields(RunConfig):
            if field.name != "raw":
                assert getattr(resolved[0], field.name) == getattr(resolved[1], field.name), field.name
        built = [build_providers(config) for config in resolved]
        assert built[0].embedder.identifier == built[1].embedder.identifier
        assert built[0].scorer.weights == built[1].scorer.weights
        assert built[0].scorer.bias == built[1].scorer.bias

    def test_integral_min_effect_read_as_float(self, tmp_path):
        from ragmeter.cli import load_config

        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["topicality"] = {"min_effect": 1}
        write_json(config, doc)
        assert load_config(config).min_effect == 1.0

    @pytest.mark.parametrize(
        "providers",
        [
            {"stub": 5},
            {"stub": {"embedder": 5}},
            {"stub": {"scorer": [1.0, 1.0, 1.0, 1.0]}},
            {"mode": "http", "http": 5},
        ],
        ids=["stub", "stub-embedder", "stub-scorer", "http"],
    )
    def test_non_object_provider_section_exits_2(self, tmp_path, capsys, providers):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        if "stub" in providers and isinstance(providers["stub"], dict):
            doc["providers"]["stub"].update(providers["stub"])
        else:
            doc["providers"].update(providers)
        write_json(config, doc)
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", tmp_path / "pos.jsonl"]) == 2
        assert "must be an object" in capsys.readouterr().err

    def test_default_sections_are_not_shared_between_runs(self, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, {})
        load_config(config).raw["providers"]["stub"]["scripts"] = "edited.json"
        assert load_config(config).raw["providers"]["stub"] == {}

    def test_message_clips_the_value_and_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        write_json(config, list(range(5000)))
        values = tmp_path / "values.json"
        write_json(values, [0.5, 0.25])
        assert run(["bootstrap", "--config", config, "--out", tmp_path / "o", values]) == 2
        err = capsys.readouterr().err
        assert err == f"error: the top level must be an object, got [0, 1, 2, 3, 4, 5, ...] (in config {config})\n"


# A valid config that sets every key, so that every leaf can be mistyped.
FULL_CONFIG = {
    "providers": {
        "mode": "stub",
        "stub": {
            "scripts": "scripts.json",
            "fallback": "",
            "embedder": {"dimension": 64, "keyword_channels": {"cloud": 3}, "keyword_boost": 4.0},
            "scorer": {"weights": [1.0, 1.0, 1.0, 1.0], "bias": 0.0},
        },
        "http": {
            "generator": {"url": "http://b.test/g", "model": "m", "dialect": "messages",
                          "auth_env": "TOKEN", "response_path": "a.0.b", "timeout": 5.0},
            "embedder": {"url": "http://b.test/e"},
            "scorer": {"url": "http://b.test/s"},
        },
    },
    "generation": {"temperature": 0.0, "top_p": 0.5, "max_tokens": 64, "seed": 3},
    "metrics": {"precision_match_threshold": 0.8, "n_generated_questions": 3},
    "bootstrap": {"B": 50, "resample_size": 8, "seed": 1, "ci_level": 0.9, "checkpoints": [10, 50]},
    "topicality": {"min_effect": 0.1},
    "flags": {"contexts_included": False, "recall_source": "answer", "strict_parsing": True},
    "parallelism": 2,
    "seed": 4,
    "record_format": "delimited",
}

# Wrong-typed stand-ins for a leaf, by the type of its valid value.
WRONG_VALUES = {
    bool: ["true", 0, None],
    int: [True, 2.5, "2", [2]],
    float: [False, "0.5", math.nan, math.inf, {}],
    str: [5, True, ["x"]],
    dict: [[], 5, "x"],
    list: ["1234", {"0": 1.0}, 5],
}


def config_nodes(node, path=()):
    """(path, value) of every node under `node`, list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from config_nodes(child, path + (key,))


def mistyped_config(data) -> dict:
    doc = copy.deepcopy(FULL_CONFIG)
    nodes = list(config_nodes(doc))
    if data.draw(st.booleans(), label="add unknown key"):
        # keyword_channels maps any token to an axis, so it has no unknown keys
        objects = [()] + [p for p, v in nodes if isinstance(v, dict) and p[-1] != "keyword_channels"]
        path = data.draw(st.sampled_from(objects), label="object")
        target = doc
        for key in path:
            target = target[key]
        target["unknown_key"] = 1
    else:
        path, value = data.draw(st.sampled_from(nodes), label="leaf")
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(st.sampled_from(WRONG_VALUES[type(value)]), label="wrong value")
    return doc


class TestConfigProperty:
    def test_full_config_is_valid(self, tmp_path):
        write_json(tmp_path / "config.json", FULL_CONFIG)
        config = load_config(tmp_path / "config.json")
        assert config.raw["providers"]["http"] == FULL_CONFIG["providers"]["http"]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mistyped_or_unknown_key_exits_2_before_any_output(self, tmp_path, capsys, data):
        doc = mistyped_config(data)
        config = tmp_path / "config.json"
        write_json(config, doc)
        values = tmp_path / "values.json"
        write_json(values, [0.1, 0.4, 0.3, 0.8] * 2)
        out = tmp_path / f"out{next(self.runs)}"
        capsys.readouterr()
        assert run(["bootstrap", "--config", config, "--out", out, values]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    runs = itertools.count()


class TestTopicality:
    def test_separated_verdicts(self, tmp_path):
        config = write_workspace(tmp_path)
        out = tmp_path / "out"
        code = run([
            "topicality", "--config", config, "--out", out,
            tmp_path / "pos.jsonl", tmp_path / "rand.jsonl",
        ])
        assert code == 0
        doc = json.loads((out / "topicality.json").read_text())
        relevance = next(
            c for c in doc["comparisons"]
            if c["metric"] == "answer_relevance" and {c["set_a"], c["set_b"]} == {"pos", "rand"}
        )
        assert relevance["separated"] is True
        assert "±" in (out / "topicality.txt").read_text()

    def test_identical_files_not_separated(self, tmp_path):
        config = write_workspace(tmp_path)
        twin = tmp_path / "twin.jsonl"
        twin.write_text((tmp_path / "pos.jsonl").read_text(), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["topicality", "--config", config, "--out", out, tmp_path / "pos.jsonl", twin]) == 0
        doc = json.loads((out / "topicality.json").read_text())
        assert all(not c["separated"] for c in doc["comparisons"])

    def test_single_file_exits_2(self, tmp_path):
        config = write_workspace(tmp_path)
        assert run(["topicality", "--config", config, "--out", tmp_path / "o", tmp_path / "pos.jsonl"]) == 2

    def test_negative_min_effect_exits_2(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["topicality"] = {"min_effect": -0.05}
        write_json(config, doc)
        out = tmp_path / "o"
        records = [tmp_path / "pos.jsonl", tmp_path / "rand.jsonl"]
        assert run(["topicality", "--config", config, "--out", out, *records]) == 2
        assert capsys.readouterr().err.startswith("error: topicality.min_effect must be at least 0, got -0.05")
        assert not out.exists()


SYNTH_TEMPLATE = (
    "Generate a passage related to cloud sales and a corresponding question based on the passage."
)


def synth_scripts() -> dict:
    return {
        "Generate a passage related to cloud sales": [
            "Passage:\nCloud sales grew quickly this year.\n\nQuestion:\nHow quickly did cloud sales grow?",
            "Passage:\nMarketing teams adopted cloud analytics.\n\nQuestion:\nWho adopted cloud analytics?",
            "Passage:\nPipelines track cloud revenue.\n\nQuestion:\nWhat tracks cloud revenue?",
        ]
    }


class TestSynth:
    def test_generates_records(self, tmp_path):
        config = write_workspace(tmp_path, extra_scripts=synth_scripts())
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, {"topic_label": "cloud", "prompt_template": SYNTH_TEMPLATE, "count": 3})
        out = tmp_path / "out"
        assert run(["synth", "--config", config, "--out", out, spec_path]) == 0
        lines = (out / "synthetic.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["answer"] == ""
        assert first["contexts"] == ["Cloud sales grew quickly this year."]

    def test_parallelism_reaches_generation(self, tmp_path, monkeypatch):
        received = []

        def spy(*args, **kwargs):
            received.append(kwargs.get("parallelism"))
            return generate_synthetic(*args, **kwargs)

        monkeypatch.setattr("ragmeter.cli.generate_synthetic", spy)
        config = write_workspace(tmp_path, extra_scripts=synth_scripts())
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, {"topic_label": "cloud", "prompt_template": SYNTH_TEMPLATE, "count": 3})
        args = ["synth", "--config", config, "--out", tmp_path / "o", "--parallelism", "3", spec_path]
        assert run(args) == 0
        assert received == [3]

    def test_strict_unmatched_exits_3(self, tmp_path):
        config = write_workspace(tmp_path)  # no synth scripts
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, {"topic_label": "cloud", "prompt_template": SYNTH_TEMPLATE, "count": 1})
        assert run(["synth", "--config", config, "--out", tmp_path / "o", spec_path]) == 3

    @pytest.mark.parametrize(
        "field, value",
        [("prompt_template", 5), ("count", 2.7), ("count", "2"), ("count", True), ("topic_label", None),
         ("seed", 1)],
        ids=["template-number", "count-float", "count-string", "count-bool", "label-null", "unknown-key"],
    )
    def test_mistyped_spec_exits_2(self, tmp_path, capsys, field, value):
        config = write_workspace(tmp_path, extra_scripts=synth_scripts())
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, {"topic_label": "cloud", "prompt_template": SYNTH_TEMPLATE, "count": 3, field: value})
        out = tmp_path / "o"
        assert run(["synth", "--config", config, "--out", out, spec_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ")
        assert err.endswith(f"(in synthetic spec {spec_path})\n")
        assert not out.exists()

    def test_count_zero_exits_2(self, tmp_path):
        config = write_workspace(tmp_path, extra_scripts=synth_scripts())
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, {"topic_label": "cloud", "prompt_template": SYNTH_TEMPLATE, "count": 0})
        assert run(["synth", "--config", config, "--out", tmp_path / "o", spec_path]) == 2


def command_argv(tmp_path: Path, command: str) -> list:
    """Arguments after `--out` that run `command` on the workspace's files."""
    if command == "evaluate":
        return [tmp_path / "pos.jsonl"]
    if command == "aggregate":
        report_path = tmp_path / "report.json"
        write_metrics_report(report_path, [report_entry("low", LOW), report_entry("high", HIGH)])
        return [report_path]
    if command == "bootstrap":
        write_json(tmp_path / "values.json", [0.1, 0.4, 0.3, 0.8] * 10)
        return [tmp_path / "values.json"]
    if command == "topicality":
        return [tmp_path / "pos.jsonl", tmp_path / "rand.jsonl"]
    write_json(tmp_path / "spec.json", {"topic_label": "cloud", "prompt_template": SYNTH_TEMPLATE, "count": 3})
    return [tmp_path / "spec.json"]


@pytest.mark.parametrize("command", ["evaluate", "aggregate", "bootstrap", "topicality", "synth"])
def test_manifest_lists_every_output(tmp_path, command):
    config = write_workspace(tmp_path, extra_scripts=synth_scripts())
    out = tmp_path / "out"
    assert run([command, "--config", config, "--out", out, *command_argv(tmp_path, command)]) == 0
    manifest_name = f"{command}.manifest.json"
    written = sorted(p.name for p in out.iterdir())
    manifest = json.loads((out / manifest_name).read_text())
    assert manifest["command"] == command
    assert sorted(manifest["outputs"]) == [name for name in written if name != manifest_name]
    assert manifest_name in written
    assert not list(out.glob("*.tmp*"))


def test_auth_token_value_never_in_config_echo(tmp_path, monkeypatch):
    from ragmeter.cli import load_config

    monkeypatch.setenv("SCORER_TOKEN", "super-secret-value")
    config_path = tmp_path / "http.json"
    write_json(
        config_path,
        {
            "providers": {
                "mode": "http",
                "http": {
                    "generator": {"url": "http://b.test/g", "auth_env": "SCORER_TOKEN"},
                    "embedder": {"url": "http://b.test/e", "auth_env": "SCORER_TOKEN"},
                    "scorer": {"url": "http://b.test/s", "auth_env": "SCORER_TOKEN"},
                },
            }
        },
    )
    config = load_config(config_path)
    echoed = json.dumps(config.raw)
    assert "SCORER_TOKEN" in echoed
    assert "super-secret-value" not in echoed


def test_module_entry_point(tmp_path):
    config = write_workspace(tmp_path)
    out = tmp_path / "out"
    # the child imports the same package this process imported
    package_root = str(Path(ragmeter.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ragmeter.cli", "evaluate", "--config", str(config),
         "--out", str(out), str(tmp_path / "pos.jsonl")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.json").exists()
