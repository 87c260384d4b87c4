"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import engineered_query_set, scripts_to_json
from oracle import oracle_resample_means
import ragmeter
from ragmeter import stats
from ragmeter.cli import main
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
        ],
        ids=["report-list", "record-not-object", "metrics-not-object", "cell-not-object"],
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

    def test_values_object_form(self, tmp_path):
        config = write_workspace(tmp_path, bootstrap_b=1100)
        values_path = tmp_path / "values.json"
        write_json(values_path, {"values": [0.1, 0.4, 0.3, 0.8] * 10})
        assert run(["bootstrap", "--config", config, "--out", tmp_path / "o", values_path]) == 0

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

        def counting_rng(seed, s, real=stats.resample_rng):
            calls.append(s)
            return real(seed, s)

        monkeypatch.setattr(stats, "resample_rng", counting_rng)
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
    @pytest.mark.parametrize("scripts", [[1], {"scripts": [1]}], ids=["file-list", "entry-not-object"])
    def test_exits_2(self, tmp_path, capsys, scripts):
        config = write_workspace(tmp_path)
        write_json(tmp_path / "scripts.json", scripts)
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", tmp_path / "pos.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_count_zero_exits_2(self, tmp_path):
        config = write_workspace(tmp_path, extra_scripts=synth_scripts())
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, {"topic_label": "cloud", "prompt_template": SYNTH_TEMPLATE, "count": 0})
        assert run(["synth", "--config", config, "--out", tmp_path / "o", spec_path]) == 2


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
