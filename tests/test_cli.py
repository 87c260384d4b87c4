"""End-to-end tests for the command-line interface."""

import copy
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    FAULT_ERRORS,
    RECALL_MARK,
    FaultyTransport,
    backend_transport,
    engineered_query_set,
    refuse_large_arrays,
    run_python,
    scripts_for_record,
    scripts_to_json,
)
from oracle import oracle_resample_means
import ragmeter
from ragmeter import cli, providers, stats
from ragmeter.cli import RunConfig, build_providers, load_config, main
from ragmeter.aggregation import LinearPairScorer
from ragmeter.corpus import EvalRecord, RecordSet, generate_synthetic, save_record_set
from ragmeter.providers import HashEmbedder, ProviderBundle, ScriptedGenerator


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


def count_calls(monkeypatch, cls, method: str) -> list:
    """Record the arguments of every call of `cls.method`, which still runs."""
    calls = []
    original = getattr(cls, method)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counting)
    return calls


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

    def test_http_mode_without_a_generator_exits_2(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--providers", "http", "--out", out, tmp_path / "pos.jsonl"]) == 2
        assert capsys.readouterr().err == "error: providers.http.generator is required in http mode\n"
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run(["evaluate", "--config", bad, "--out", tmp_path / "o", "x.jsonl"]) == 2

    def test_bad_record_rows_exit_2(self, tmp_path):
        config = write_workspace(tmp_path)
        broken = tmp_path / "broken.jsonl"
        broken.write_text('{"id": "r1", "query": "q"}\n', encoding="utf-8")
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", broken]) == 2

    @pytest.mark.parametrize("record_id", ["null", "true", "1.5", '{"x": 1}'])
    def test_record_id_neither_string_nor_integer_exits_2(self, tmp_path, capsys, record_id):
        config = write_workspace(tmp_path)
        broken = tmp_path / "broken.jsonl"
        broken.write_text(f'{{"id": {record_id}, "query": "q", "answer": "a"}}\n', encoding="utf-8")
        assert run(["evaluate", "--config", config, "--out", tmp_path / "o", broken]) == 2
        message = f"line 1: record id must be a string or an integer, got {record_id}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", [0, -1])
    def test_non_positive_endpoint_timeout_exits_2(self, tmp_path, capsys, timeout):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["providers"] = {
            "mode": "http",
            "http": {
                "generator": {"url": "http://127.0.0.1:1/generate", "timeout": timeout},
                "embedder": {"url": "http://127.0.0.1:1/embed"},
            },
        }
        write_json(config, doc)
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: providers.http.generator: timeout must be in (0, {threading.TIMEOUT_MAX}], got {timeout}\n"
        assert not out.exists()

    def test_endpoint_timeout_beyond_a_socket_timeout_exits_2(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["providers"] = {
            "mode": "http",
            "http": {
                "generator": {"url": "http://127.0.0.1:1/generate", "timeout": 1e300},
                "embedder": {"url": "http://127.0.0.1:1/embed"},
            },
        }
        write_json(config, doc)
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: providers.http.generator: timeout must be in (0, {threading.TIMEOUT_MAX}], got 1e+300\n"
        assert not out.exists()

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

    def test_failed_metric_cell_names_its_error_and_aggregate_still_exits_5(self, tmp_path, monkeypatch):
        config = write_workspace(tmp_path)
        positive, scripts = engineered_query_set("pos", 3, "positive")
        unscripted = [key for key in scripts if key[0] == RECALL_MARK][1]  # the recall prompt of pos-001
        del scripts[unscripted]
        write_json(tmp_path / "scripts.json", scripts_to_json(scripts))
        save_record_set(positive, tmp_path / "three.jsonl")
        out = tmp_path / "out"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "three.jsonl"]) == 0
        records = json.loads((out / "metrics.json").read_text())["records"]
        failed = records[1]["metrics"]["retrieval_recall"]
        assert records[1]["id"] == "pos-001"
        assert set(failed) == {"value", "status", "error"}
        assert failed["value"] is None and failed["status"] == "failed"
        assert failed["error"].startswith("ScriptMissError: no script matches prompt starting ")
        cells = [cell for record in records for cell in record["metrics"].values()]
        assert sum("error" in cell for cell in cells) == 1
        calls = count_calls(monkeypatch, LinearPairScorer, "score")
        assert run(["aggregate", "--config", config, "--out", tmp_path / "agg", out / "metrics.json"]) == 5
        assert calls == []

    def test_every_record_failed_exits_2_naming_the_first_failure(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        lost, _ = engineered_query_set("lost", 2, "random")  # no scripts for these
        records = tmp_path / "lost.jsonl"
        save_record_set(lost, records)
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, records]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: every record in set 'lost' failed; first failure: record 'lost-000' faithfulness: "
            "ScriptMissError: no script matches prompt starting "
        )
        assert not out.exists()

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

    def test_missing_metric_in_a_later_record_exits_5_before_any_scorer_call(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, LinearPairScorer, "score")
        config = write_workspace(tmp_path)
        lacking = report_entry("b", HIGH)
        lacking["metrics"]["faithfulness"] = {"value": None, "status": "failed"}
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [report_entry("a", HIGH), lacking])
        assert run(["aggregate", "--config", config, "--out", tmp_path / "o", report_path]) == 5
        assert calls == []
        write_metrics_report(report_path, [report_entry("a", HIGH), report_entry("b", LOW)])
        assert run(["aggregate", "--config", config, "--out", tmp_path / "o", report_path]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [("answer", "", "record 'a' missing answer"),
         ("id", "", "missing record id"),
         ("query", " ", "record 'a' missing query"),
         ("answer", " \t", "record 'a' missing answer"),
         ("id", " ", "missing record id")],
        ids=["empty-answer", "empty-id", "blank-query", "blank-answer", "blank-id"],
    )
    def test_empty_record_field_exits_2(self, tmp_path, capsys, key, value, message):
        config = write_workspace(tmp_path)
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [{**report_entry("a", HIGH), key: value}])
        out = tmp_path / "o"
        assert run(["aggregate", "--config", config, "--out", out, report_path]) == 2
        assert capsys.readouterr().err == f"error: metrics report {report_path}: {message}\n"
        assert not out.exists()

    def test_duplicate_id_exits_2_before_any_scorer_call(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, LinearPairScorer, "score")
        config = write_workspace(tmp_path)
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [report_entry(record_id, HIGH) for record_id in "aba"])
        out = tmp_path / "o"
        assert run(["aggregate", "--config", config, "--out", out, report_path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: metrics report {report_path}: entries 0 and 2 have the same id 'a'\n"
        assert calls == []
        assert not out.exists()

    def test_duplicate_id_exits_2_before_a_missing_metric_in_an_earlier_entry(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        lacking = report_entry("a", HIGH)
        lacking["metrics"]["faithfulness"] = {"value": None, "status": "failed"}
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [lacking, report_entry("b", HIGH), report_entry("b", LOW)])
        assert run(["aggregate", "--config", config, "--out", tmp_path / "o", report_path]) == 2
        assert capsys.readouterr().err == f"error: metrics report {report_path}: entries 1 and 2 have the same id 'b'\n"

    def test_http_scorer_calls_overlap_and_change_no_output(self, tmp_path, monkeypatch):
        answer = backend_transport(ProviderBundle(None, None, LinearPairScorer()), set())
        lock = threading.Lock()
        barrier = threading.Barrier(2, timeout=5)
        state = {"calls": 0, "in_flight": 0, "peak": 0, "overlap": False}

        def transport(url, payload, headers, timeout):
            assert url == "http://scorer.test/score"
            with lock:
                first_two = state["calls"] < 2
                state["calls"] += 1
                state["in_flight"] += 1
                state["peak"] = max(state["peak"], state["in_flight"])
            try:
                if state["overlap"] and first_two:
                    barrier.wait()  # returns only once two scorer calls are in flight
                return answer(url, payload, headers, timeout)
            finally:
                with lock:
                    state["in_flight"] -= 1

        monkeypatch.setattr(providers, "_urllib_transport", transport)
        config = tmp_path / "http.json"
        write_json(config, {"providers": {"mode": "http", "http": {
            name: {"url": f"http://scorer.test/{route}"}
            for name, route in (("generator", "generate"), ("embedder", "embed"), ("scorer", "score"))
        }}})
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [
            report_entry(f"r{i}", {metric: ((i * 7 + k) % 5) / 4 for k, metric in enumerate(HIGH)})
            for i in range(8)
        ])
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert run(["aggregate", "--config", config, "--parallelism", 1, "--out", serial, report_path]) == 0
        assert (state["calls"], state["peak"]) == (8, 1)
        state.update(calls=0, peak=0, overlap=True)
        assert run(["aggregate", "--config", config, "--parallelism", 4, "--out", pooled, report_path]) == 0
        assert state["calls"] == 8 and state["peak"] >= 2
        for name in ("aggregate.json", "aggregate.txt"):
            assert (pooled / name).read_bytes() == (serial / name).read_bytes()

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

    def test_non_finite_logit_exits_3_naming_the_record(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["providers"]["stub"]["scorer"]["weights"] = [1e308] * 4
        write_json(config, doc)
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [report_entry("a", HIGH), report_entry("b", LOW)])
        out = tmp_path / "o"
        assert run(["aggregate", "--config", config, "--out", out, report_path]) == 3
        assert capsys.readouterr().err == "error: scorer gave record 'a' the non-finite logit inf\n"
        assert not out.exists()

    def test_no_scorer_exits_2(self, tmp_path, capsys):
        config = tmp_path / "http.json"
        write_json(config, {"providers": {"mode": "http", "http": {
            name: {"url": f"http://127.0.0.1:1/{name}"} for name in ("generator", "embedder")
        }}})
        report_path = tmp_path / "metrics.json"
        write_metrics_report(report_path, [report_entry("a", HIGH)])
        out = tmp_path / "o"
        assert run(["aggregate", "--config", config, "--out", out, report_path]) == 2
        assert capsys.readouterr().err == "error: aggregate requires a pair scorer in the provider config\n"
        assert not out.exists()

    @pytest.mark.parametrize("report", [{"records": []}, {"label": "handmade"}], ids=["no-records", "no-records-key"])
    def test_empty_report_exits_4(self, tmp_path, capsys, report):
        config = write_workspace(tmp_path)
        report_path = tmp_path / "metrics.json"
        write_json(report_path, report)
        out = tmp_path / "o"
        assert run(["aggregate", "--config", config, "--out", out, report_path]) == 4
        assert capsys.readouterr().err == f"error: metrics report {report_path} has no records\n"
        assert not out.exists()

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
            {"records": [{**report_entry("a", HIGH),
                          "metrics": {m: {"value": None, "status": "failed", "error": 5} for m in HIGH}}]},
        ],
        ids=["report-list", "record-not-object", "metrics-not-object", "cell-not-object",
             "value-list", "value-bool", "value-string", "value-beyond-float-range", "value-nan",
             "contexts-number", "query-number", "id-number", "ground-truth-number", "answer-empty",
             "unknown-key", "error-number"],
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

    @pytest.mark.parametrize("bootstrap", [{"B": 10**12}, {"B": 50, "checkpoints": [10, 10**12]}],
                             ids=["B", "checkpoint"])
    def test_unallocatable_means_exit_6_writing_nothing(self, tmp_path, capsys, monkeypatch, bootstrap):
        refuse_large_arrays(monkeypatch)
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["bootstrap"].update(bootstrap)
        write_json(config, doc)
        values_path = tmp_path / "values.json"
        write_json(values_path, [0.1, 0.2, 0.3])
        out = tmp_path / "o"
        assert run(["bootstrap", "--config", config, "--out", out, values_path]) == 6
        assert capsys.readouterr().err == "error: the means of 1000000000000 resamples of size 3 do not fit in memory\n"
        assert not out.exists()

    def test_empty_values_exits_4(self, tmp_path):
        config = write_workspace(tmp_path)
        values_path = tmp_path / "values.json"
        write_json(values_path, [])
        assert run(["bootstrap", "--config", config, "--out", tmp_path / "o", values_path]) == 4

    @pytest.mark.parametrize(
        "values, message",
        [
            (0.5, "the top level must be a list of numbers, got 0.5"),
            ("0.5", "the top level must be a list of numbers, got '0.5'"),
            ({"value": [0.5]}, "value is not a recognized key"),
            ({"values": 0.5}, "values must be a list of numbers, got 0.5"),
        ],
        ids=["number", "string", "object-without-values", "values-not-array"],
    )
    def test_values_neither_array_nor_object_with_values_exit_2(self, tmp_path, capsys, values, message):
        config = write_workspace(tmp_path)
        values_path = tmp_path / "values.json"
        write_json(values_path, values)
        out = tmp_path / "o"
        assert run(["bootstrap", "--config", config, "--out", out, values_path]) == 2
        assert capsys.readouterr().err == f"error: {message} (in values file {values_path})\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ['[true, "0.5", 0.25, 0.75]', '[1, 0.5, 0.25, "0.75"]', '{"values": [0.5, false]}', f"[0.5, {10**400}]",
         "[0.5, NaN]", "[0.5, 1e400]", '{"values": [0.5, 0.25], "extra": 1}'],
        ids=["bool-and-string", "string", "object-form-bool", "int-beyond-float-range",
             "nan", "float-beyond-float-range", "object-form-extra-key"],
    )
    def test_non_number_values_exit_2(self, tmp_path, capsys, text):
        config = write_workspace(tmp_path)
        values_path = tmp_path / "values.json"
        values_path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run(["bootstrap", "--config", config, "--out", out, values_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f" (in values file {values_path})\n")
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

    def test_overflow_error_is_the_only_complaint(self, tmp_path):
        # run as a program, where numpy's RuntimeWarnings would reach stderr
        config = write_workspace(tmp_path)
        values_path = tmp_path / "values.json"
        write_json(values_path, [1e308, 1e308, 1.7e308, 1e308])
        proc = run_python("-m", "ragmeter.cli", "bootstrap", "--config", str(config),
                          "--out", str(tmp_path / "o"), str(values_path))
        assert proc.returncode == 6
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: bootstrap summary is not finite")

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

        def counting_pcg64(words, real=stats._seeded_pcg64):
            calls.append(words)
            return real(words)

        monkeypatch.setattr(stats, "_seeded_pcg64", counting_pcg64)
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
        [("x", ["x"]), (["x"], "x"), (["x", "y"], ["x", "y"]), (["b", "a"], ["a", "b"]), ("x", ["x", "x"]),
         ("", [])],
        ids=["string-then-list", "list-then-string", "two-needles", "reordered", "repeated-needle",
             "empty-string-then-empty-list"],
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

    def test_long_prefix_chain_behind_the_valid_entries_changes_no_report(self, tmp_path):
        config = write_workspace(tmp_path)
        assert run(["evaluate", "--config", config, "--out", tmp_path / "plain", tmp_path / "pos.jsonl"]) == 0
        valid = json.loads((tmp_path / "scripts.json").read_text())["scripts"]
        chain = [{"match": "a" * length, "responses": ["Question: abc"]} for length in range(1, 1001)]
        write_json(tmp_path / "scripts.json", {"scripts": valid + chain})
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 0
        assert (out / "metrics.json").read_bytes() == (tmp_path / "plain" / "metrics.json").read_bytes()


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
        assert capsys.readouterr().err.startswith("error: parallelism must be >= 1")
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
        assert re.match(r"^error: providers\.http\.generator\.dialect must be 'prompt' or 'messages', got 5 "
                        r"\(in config .*\)\n$", capsys.readouterr().err)

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

    @pytest.mark.parametrize("stub", [{}, {"embedder": {}, "scorer": {}}], ids=["no-sections", "empty-sections"])
    def test_stub_defaults_are_the_class_defaults(self, tmp_path, stub):
        config = tmp_path / "config.json"
        write_json(config, {"providers": {"stub": stub}})
        providers = build_providers(load_config(config))
        embedder, scorer = HashEmbedder(), LinearPairScorer()
        assert providers.embedder.identifier == embedder.identifier == "stub:hash-256"
        text = "Cloud sales grew quickly this year."
        assert providers.embedder.embed(text).tolist() == embedder.embed(text).tolist()
        assert vars(providers.scorer) == vars(scorer) == {"weights": (1.0,) * 4, "bias": 0.0}

    def test_stub_mode_refuses_an_http_endpoint_without_url(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["providers"]["http"] = {"generator": {"model": "judge"}}
        write_json(config, doc)
        out = tmp_path / "o"
        assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 2
        assert capsys.readouterr().err == f"error: providers.http.generator.url is required (in config {config})\n"
        assert not out.exists()

    @pytest.mark.parametrize("what", ["config", "values"])
    def test_json_file_not_utf8_is_named(self, tmp_path, capsys, what):
        config = write_workspace(tmp_path)
        values = tmp_path / "values.json"
        write_json(values, [0.1, 0.2, 0.3])
        bad = {"config": config, "values": values}[what]
        bad.write_bytes(b"\xff" + bad.read_bytes())
        out = tmp_path / "o"
        assert run(["bootstrap", "--config", config, "--out", out, values]) == 2
        label = {"config": "config", "values": "values file"}[what]
        reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert capsys.readouterr().err == f"error: cannot read {label} {bad}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "topicality"])
    def test_record_file_not_utf8_is_named(self, tmp_path, capsys, command):
        config = write_workspace(tmp_path)
        bad = tmp_path / "rand.jsonl"
        bad.write_bytes(b"\xff" + bad.read_bytes())
        records = [bad] if command == "evaluate" else [tmp_path / "pos.jsonl", bad]
        out = tmp_path / "o"
        assert run([command, "--config", config, "--out", out, *records]) == 2
        err = capsys.readouterr().err
        assert err == f"error: record file {bad} invalid: not UTF-8 text: invalid start byte (byte 0xff)\n"
        assert not out.exists()

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
    change = data.draw(st.sampled_from(["add unknown key", "mistype a leaf", "delete a required key"]),
                       label="change")
    if change == "add unknown key":
        # keyword_channels maps any token to an axis, so it has no unknown keys
        objects = [()] + [p for p, v in nodes if isinstance(v, dict) and p[-1] != "keyword_channels"]
        path = data.draw(st.sampled_from(objects), label="object")
        target = doc
        for key in path:
            target = target[key]
        target["unknown_key"] = 1
    elif change == "mistype a leaf":
        path, value = data.draw(st.sampled_from(nodes), label="leaf")
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(st.sampled_from(WRONG_VALUES[type(value)]), label="wrong value")
    else:  # the endpoint urls are the only required config keys
        endpoint = data.draw(st.sampled_from(sorted(doc["providers"]["http"])), label="endpoint")
        del doc["providers"]["http"][endpoint]["url"]
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


# Each settings class the CLI builds, the type-table entry it checks first (as `load_config`,
# `build_providers` and `cmd_synth` do), and settings both accept.
SETTINGS_TABLES = [
    (ragmeter.GenerationParams, cli._CONFIG["generation"], {}),
    (ragmeter.SimilarityConfig, cli._CONFIG["metrics"], {}),
    (ragmeter.BootstrapConfig, {k: v for k, v in cli._CONFIG["bootstrap"].items() if k != "checkpoints"}, {}),
    (providers.EndpointConfig, cli._CONFIG["providers"]["http"][0]["generator"], {"url": "http://b.test/g"}),
    (ragmeter.SyntheticSpec, cli._params(ragmeter.SyntheticSpec),
     {"topic_label": "t", "prompt_template": "Write a passage and a question", "count": 2}),
    (HashEmbedder, cli._CONFIG["providers"]["stub"][0]["embedder"], {}),
    (LinearPairScorer, cli._CONFIG["providers"]["stub"][0]["scorer"], {}),
]

# any JSON scalar, as a JSON file yields it back; NaN and the infinities included
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([-1, 0, 1, 2**64, 10**400]) | st.floats()
    | st.text(max_size=8) | st.sampled_from(["prompt", "messages"])
).map(lambda value: json.loads(json.dumps(value)))


@pytest.mark.parametrize("cls, table, accepted", SETTINGS_TABLES, ids=[entry[0].__name__ for entry in SETTINGS_TABLES])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_library_and_cli_refuse_the_same_settings_in_the_same_words(cls, table, accepted, data):
    name = data.draw(st.sampled_from(list(cli._params(cls))), label="field")
    doc = {**accepted, name: data.draw(JSON_SCALARS, label="value")}
    try:
        cls(**doc)
        library = None
    except ValueError as exc:
        library = str(exc)
    try:
        cli._check(doc, table, "settings")
        cli._build(cls, "section", **doc)
        command_line = None
    except cli.ConfigError as exc:
        command_line = str(exc)
    if library is None:
        assert command_line is None
    else:
        assert command_line in (f"{library} (in settings)", f"section: {library}")


REQUIRED_KEYS = [
    ("scripts", "match"), ("scripts", "responses"),
    ("endpoint", "generator"), ("endpoint", "embedder"), ("endpoint", "scorer"),
    ("spec", "topic_label"), ("spec", "prompt_template"), ("spec", "count"),
    ("report", "id"), ("report", "query"), ("report", "answer"),
]


@pytest.mark.parametrize("table, key", REQUIRED_KEYS, ids=[f"{table}-{key}" for table, key in REQUIRED_KEYS])
def test_missing_required_key_exits_2_before_any_output(tmp_path, capsys, table, key):
    config = write_workspace(tmp_path, extra_scripts=synth_scripts())
    if table == "scripts":
        scripts = tmp_path / "scripts.json"
        doc = json.loads(scripts.read_text())
        entry = {"match": "x", "responses": ["Question: abc"]}
        del entry[key]
        doc["scripts"].append(entry)
        write_json(scripts, doc)
        command, argv = "evaluate", [tmp_path / "pos.jsonl"]
        path, source = f"scripts[{len(doc['scripts']) - 1}].{key}", f"scripts file {scripts.resolve()}"
    elif table == "endpoint":
        doc = json.loads(config.read_text())
        doc["providers"]["http"] = {name: {"url": f"http://b.test/{name}"} for name in ("generator", "embedder", "scorer")}
        del doc["providers"]["http"][key]["url"]
        write_json(config, doc)
        command, argv = "bootstrap", command_argv(tmp_path, "bootstrap")
        path, source = f"providers.http.{key}.url", f"config {config}"
    else:
        command = "synth" if table == "spec" else "aggregate"
        argv = command_argv(tmp_path, command)
        doc = json.loads(argv[0].read_text())
        del (doc if table == "spec" else doc["records"][1])[key]
        write_json(argv[0], doc)
        path = key if table == "spec" else f"records[1].{key}"
        source = f"{'synthetic spec' if table == 'spec' else 'metrics report'} {argv[0]}"
    out = tmp_path / "o"
    assert run([command, "--config", config, "--out", out, *argv]) == 2
    assert capsys.readouterr().err == f"error: {path} is required (in {source})\n"
    assert not out.exists()


class TestTopicality:
    def test_record_file_without_records_exits_4_before_any_provider_call(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, ScriptedGenerator, "complete")
        config = write_workspace(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["topicality", "--config", config, "--out", out, tmp_path / "pos.jsonl", empty]) == 4
        assert capsys.readouterr().err == f"error: record file {empty} contains no records\n"
        assert calls == []
        assert not out.exists()

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

    def test_one_resample_exits_2_before_any_provider_call(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, ScriptedGenerator, "complete")
        config = write_workspace(tmp_path, bootstrap_b=1)
        out = tmp_path / "o"
        records = [tmp_path / "pos.jsonl", tmp_path / "rand.jsonl"]
        assert run(["topicality", "--config", config, "--out", out, *records]) == 2
        assert capsys.readouterr().err == "error: B=1 leaves the B-1 variance denominator undefined; use B >= 2\n"
        assert calls == []
        assert not out.exists()

    def test_unallocatable_means_exit_2(self, tmp_path, capsys, monkeypatch):
        refuse_large_arrays(monkeypatch)
        config = write_workspace(tmp_path, bootstrap_b=10**12)
        out = tmp_path / "o"
        records = [tmp_path / "pos.jsonl", tmp_path / "rand.jsonl"]
        assert run(["topicality", "--config", config, "--out", out, *records]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: the means of 1000000000000 resamples of size \d+ do not fit in memory\n", err)
        assert not out.exists()

    def test_unallocatable_means_exit_2_before_any_provider_call(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, ScriptedGenerator, "complete")
        refuse_large_arrays(monkeypatch)
        records = [tmp_path / "pos.jsonl", tmp_path / "rand.jsonl"]
        config = write_workspace(tmp_path, bootstrap_b=10**12)
        assert run(["topicality", "--config", config, "--out", tmp_path / "o", *records]) == 2
        assert "do not fit in memory" in capsys.readouterr().err
        assert calls == []
        config = write_workspace(tmp_path, bootstrap_b=10**3)
        assert run(["topicality", "--config", config, "--out", tmp_path / "o", *records]) == 0
        assert calls

    def test_unallocatable_index_buffers_exit_2_before_any_provider_call(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, ScriptedGenerator, "complete")
        refuse_large_arrays(monkeypatch)
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["bootstrap"]["resample_size"] = 10**12
        write_json(config, doc)
        out = tmp_path / "o"
        records = [tmp_path / "pos.jsonl", tmp_path / "rand.jsonl"]
        assert run(["topicality", "--config", config, "--out", out, *records]) == 2
        err = capsys.readouterr().err
        assert err == "error: the means of 300 resamples of size 1000000000000 do not fit in memory\n"
        assert calls == []
        assert not out.exists()

    def test_negative_min_effect_exits_2(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        doc = json.loads(config.read_text())
        doc["topicality"] = {"min_effect": -0.05}
        write_json(config, doc)
        out = tmp_path / "o"
        records = [tmp_path / "pos.jsonl", tmp_path / "rand.jsonl"]
        assert run(["topicality", "--config", config, "--out", out, *records]) == 2
        assert capsys.readouterr().err.startswith("error: topicality: min_effect must be >= 0, got -0.05")
        assert not out.exists()

    def test_duplicate_labels_exit_2(self, tmp_path, capsys):
        config = write_workspace(tmp_path)
        records = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            records.append(tmp_path / folder / "set.jsonl")
            records[-1].write_text((tmp_path / "pos.jsonl").read_text(), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["topicality", "--config", config, "--out", out, *records]) == 2
        assert capsys.readouterr().err == "error: two query sets are labelled 'set'\n"
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


@pytest.mark.parametrize("token", [None, ""], ids=["unset", "empty"])
@pytest.mark.parametrize("endpoint", ["generator", "embedder", "scorer"])
def test_auth_env_without_a_token_exits_2_before_any_call(tmp_path, capsys, monkeypatch, endpoint, token):
    posts = []

    def transport(url, payload, headers, timeout):
        posts.append(url)
        return 200, b"{}"

    monkeypatch.setattr(providers, "_urllib_transport", transport)
    monkeypatch.setenv("GOOD_TOKEN", "good-secret-value")
    if token is None:
        monkeypatch.delenv("BAD_TOKEN", raising=False)
    else:
        monkeypatch.setenv("BAD_TOKEN", token)
    config = write_workspace(tmp_path)
    doc = json.loads(config.read_text())
    http = {name: {"url": f"http://b.test/{name}", "auth_env": "GOOD_TOKEN"}
            for name in ("generator", "embedder", "scorer")}
    http[endpoint]["auth_env"] = "BAD_TOKEN"
    doc["providers"] = {"mode": "http", "http": http}
    write_json(config, doc)
    out = tmp_path / "o"
    assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: providers.http.{endpoint}.auth_env: "
                   "environment variable 'BAD_TOKEN' is not set or is empty\n")
    assert posts == []
    assert not out.exists()
    # with the token set the same run reaches the transport, whose empty replies fail every record
    monkeypatch.setenv("BAD_TOKEN", "now-set")
    assert run(["evaluate", "--config", config, "--out", out, tmp_path / "pos.jsonl"]) == 2
    err = capsys.readouterr().err
    assert posts and "first failure: record 'pos-000'" in err
    assert "good-secret-value" not in err and "now-set" not in err


HTTP_PROVIDERS = {"mode": "http", "http": {
    name: {"url": f"http://backend.test/{route}"}
    for name, route in (("generator", "generate"), ("embedder", "embed"), ("scorer", "score"))
}}


def inject_faults(monkeypatch, schedule) -> FaultyTransport:
    """Route every HTTP adapter the CLI builds through a `FaultyTransport` over a linear stub scorer.

    The faults used here end a call at once, so no real back-off runs.
    """
    transport = FaultyTransport(backend_transport(ProviderBundle(None, None, LinearPairScorer()), set()), schedule)
    monkeypatch.setattr(providers, "_urllib_transport", transport)
    return transport


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("fault", ["404", "not-json"])
def test_scorer_fault_exits_3_naming_the_first_failed_record(tmp_path, capsys, monkeypatch, fault, parallelism):
    failing = {"Query 2?", "Query 4?"}
    transport = inject_faults(
        monkeypatch, lambda url, payload: (fault, math.inf) if json.loads(payload)["query"] in failing else (None, 0))
    config = tmp_path / "http.json"
    write_json(config, {"providers": HTTP_PROVIDERS})
    entries = [report_entry(f"r{i}", HIGH if i % 2 else LOW) for i in range(6)]
    for i, entry in enumerate(entries):
        entry["query"] = f"Query {i}?"
    report_path = tmp_path / "metrics.json"
    write_metrics_report(report_path, entries)
    out = tmp_path / "o"
    argv = ["aggregate", "--config", config, "--parallelism", parallelism, "--out", out, report_path]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: scorer failed on record 'r2': ")
    assert max(attempt for _, _, attempt in transport.calls) == 1
    assert not out.exists()
    failing.clear()  # the same run without faults ranks every record
    assert run(argv) == 0
    assert len(json.loads((out / "aggregate.json").read_text())["ranked"]) == 6


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("fault", ["404", "not-json"])
def test_every_record_failing_over_http_exits_2(tmp_path, capsys, monkeypatch, fault, parallelism):
    transport = inject_faults(monkeypatch, lambda url, payload: (fault, math.inf))
    config = write_workspace(tmp_path)
    doc = json.loads(config.read_text())
    doc["providers"] = HTTP_PROVIDERS
    write_json(config, doc)
    out = tmp_path / "o"
    assert run(["evaluate", "--config", config, "--parallelism", parallelism, "--out", out, tmp_path / "pos.jsonl"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: every record in set 'pos' failed; first failure: record 'pos-000' faithfulness: "
                          f"{FAULT_ERRORS[fault]}: ")
    assert {url for url, _, _ in transport.calls} == {"http://backend.test/generate"}
    assert max(attempt for _, _, attempt in transport.calls) == 1
    assert not out.exists()


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


# the query and generated question of record e00078 of the evaluate-embed
# benchmark at seed 2348: while the similarity dots were BLAS products, their
# relevance rounded one way under the Prescott and Haswell kernels and
# another under SkylakeX
KERNEL_QUERY = "What about bezoxo vixutu pamu cawo saqa xutihoja motafuce cepo kq02x?"
KERNEL_QUESTION = "What about bezoxo vixutu vavogaki qapuvuje kq02x?"

# each setting changes the BLAS kernel or the CPU features numpy dispatches to,
# with the CPU features the setting needs (as numpy names them)
KERNEL_SETTINGS = (
    ({"OPENBLAS_CORETYPE": "Prescott"}, ()),
    ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
    ({"OPENBLAS_CORETYPE": "SkylakeX"}, ("AVX512F",)),
    ({"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"}, ()),
)


def numpy_cpu_features() -> dict[str, bool]:
    """The CPU features numpy found on this host, by numpy's names."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def kernel_workspace(tmp_path: Path) -> list[Path]:
    """A stub config and two one-record sets whose relevance once depended on the BLAS kernel.

    Every input is text, so it is the same bytes under every setting. The
    first record is shaped like e00078: a query and its generated question
    that share five of their tokens, and a context sentence whose near-copy
    the precision judge returns.
    """
    sentences = ["Bagu zurodiga muqoxu nekuloqe cesigigo zebu rirahe vami kugi julironu qafave huni.",
                 "Hope hoza coke bagu solixuqi pihe bifaqo regohole lusonuho butuku bohopo rolehuta."]
    near_copy = sentences[0].replace("huni.", "toke.")
    records = [
        EvalRecord("e00078", KERNEL_QUERY, "Rirahe potiroti cemiwo kq02x bareqizo. Hakodava zaloto lalu.",
                   (" ".join(sentences),)),
        EvalRecord("far", "What about mezexu guro nekuloqe?", "Wipeno nujefoku tulive.", (sentences[1],)),
    ]
    scripts = {
        **scripts_for_record(records[0], faith=[True, False], recall=[True, True], precision=[near_copy],
                             questions=[KERNEL_QUESTION] * 3),
        **scripts_for_record(records[1], faith=[True], recall=[False], precision=None,
                             questions=["What about mezexu bagu?"] * 3),
    }
    write_json(tmp_path / "scripts.json", scripts_to_json(scripts))
    write_json(tmp_path / "config.json", {
        "providers": {"mode": "stub", "stub": {"scripts": "scripts.json", "embedder": {"dimension": 1024}}},
        "bootstrap": {"B": 200, "seed": 3},
        "seed": 3,
    })
    paths = []
    for record in records:
        paths.append(tmp_path / f"{record.id}.jsonl")
        save_record_set(RecordSet(label=record.id, records=(record,)), paths[-1])
    return paths


class TestHostIndependence:
    def test_reports_are_the_same_bytes_under_every_blas_kernel_and_cpu_feature_set(self, tmp_path):
        features = numpy_cpu_features()
        settings = [env for env, needs in KERNEL_SETTINGS if all(features.get(name) for name in needs)]
        if platform.machine() not in ("x86_64", "AMD64") or len(settings) < 2:
            pytest.skip("the BLAS kernels and CPU feature groups named here are those of x86-64")
        records = kernel_workspace(tmp_path)
        reports = []
        for i, env in enumerate(settings):
            out = tmp_path / f"out{i}"
            common = [str(tmp_path / "config.json"), "--out", str(out)]
            program = (
                "from ragmeter.cli import main\n"
                f"raise SystemExit(main(['evaluate', '--config', *{common!r}, {str(records[0])!r}])\n"
                f"                 or main(['topicality', '--config', *{common!r}, *{list(map(str, records))!r}]))\n"
            )
            proc = run_python("-c", program, env=env)
            assert proc.returncode == 0, (env, proc.stderr)
            reports.append({path.name: path.read_bytes() for path in sorted(out.iterdir())
                            if not path.name.endswith(".manifest.json")})
        assert set(reports[0]) == {"metrics.json", "metrics.txt", "topicality.json", "topicality.txt"}
        for env, report in zip(settings[1:], reports[1:]):
            assert report == reports[0], env
