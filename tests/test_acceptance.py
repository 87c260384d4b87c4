"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line naming the criterion; the whole suite runs
offline against stub providers.
"""

import json
import random
import string
import time
import warnings

import numpy as np
import pytest

from conftest import read_golden
from helpers import (
    bone_mass_record,
    bone_mass_vector,
    engineered_query_set,
    ok_vector,
    scripts_for_record,
    scripts_to_json,
)
from oracle import enumerate_size2_resample_means, oracle_resample_stats
from ragmeter.aggregation import AggregateScore, LinearPairScorer, aggregate, enhance_answer, expit, rank_records
from ragmeter.cli import main as cli_main
from ragmeter.corpus import EvalRecord, save_record_set
from ragmeter.judge import (
    parse_faithfulness_verdicts,
    parse_generated_question,
    parse_precision_extraction,
    parse_recall_classification,
)
from ragmeter.metrics import (
    GeneratedQuestions,
    SimilarityConfig,
    answer_relevance_score,
    evaluate_record,
    faithfulness_score,
    precision_score,
    recall_score,
)
from ragmeter.providers import HashEmbedder, ProviderBundle, ScriptedGenerator
from ragmeter.stats import (
    BootstrapConfig,
    BootstrapGuidanceWarning,
    bootstrap_summary,
    convergence_trace,
    resample_means,
    unbiasedness_check,
)
from ragmeter.topicality import run_topicality


def ok(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number} PASS: {message}")


def beta_fixture(n: int = 50) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence((2024, 0))).beta(2.0, 5.0, size=n)


def quiet_summary(values, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BootstrapGuidanceWarning)
        return bootstrap_summary(values, cfg)


def test_criterion_01_golden_prompt_parser_round_trips():
    started = time.perf_counter()
    faith = parse_faithfulness_verdicts(read_golden("emma_faithfulness_transcript.txt"), 5)
    assert faith.verdicts == (False, True, False, True, True)
    assert faithfulness_score(faith) == 0.6

    recall = parse_recall_classification(read_golden("newton_recall_transcript.txt"), 3)
    assert recall.supported == (True, True, False)
    assert recall_score(recall) == pytest.approx(2 / 3, abs=0)
    assert recall_score(recall) == 2 / 3

    atlantis = parse_precision_extraction(read_golden("atlantis_precision_transcript.txt"))
    assert atlantis.insufficient
    assert precision_score(atlantis, ["Some context."], HashEmbedder(64), SimilarityConfig()) == 0.0

    question = parse_generated_question(read_golden("pslv_question_transcript.txt"))
    assert question == (
        "When is the scheduled launch date and time for the PSLV-C56 mission, "
        "and where will it be launched from?"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(1, f"all worked-example round-trips exact in {elapsed:.2f}s")


WORDS = ["cloud", "sales", "court", "river", "engine", "stone", "market", "signal"]


def _random_sentence(rng: random.Random) -> str:
    return " ".join(rng.choices(WORDS, k=rng.randint(2, 6))).capitalize() + "."


def _random_junk(rng: random.Random) -> str:
    alphabet = string.ascii_letters + string.digits + " \n.,:"
    return "".join(rng.choices(alphabet, k=rng.randint(0, 60)))


def test_criterion_02_metric_bounds_under_fuzz():
    rng = random.Random(20240)
    embedder = HashEmbedder(64)
    cfg = SimilarityConfig()
    for _ in range(1000):
        n = rng.randint(1, 8)
        tokens = " ".join(rng.choice(["Yes", "yes", "YES", "No", "no"]) + rng.choice([".", ",", ""])
                          for _ in range(n))
        transcript = f"{_random_junk(rng)}\nFinal verdict for each statement in order: {tokens}"
        score = faithfulness_score(parse_faithfulness_verdicts(transcript, n))
        assert 0.0 <= score <= 1.0

    for _ in range(1000):
        n = rng.randint(1, 8)
        tags = [rng.choice(["[Supported by Context]", "[not supported by context]"]) for _ in range(n)]
        transcript = "\n".join(f"{i}. reasoning {_random_junk(rng)!r} So {t}" for i, t in enumerate(tags, 1))
        score = recall_score(parse_recall_classification(transcript, n))
        assert 0.0 <= score <= 1.0

    for _ in range(1000):
        contexts = [" ".join(_random_sentence(rng) for _ in range(rng.randint(1, 4)))]
        if rng.random() < 0.2:
            transcript = "Candidate Sentences:\nInsufficient Information"
        else:
            candidates = [_random_sentence(rng) for _ in range(rng.randint(1, 4))]
            transcript = "Candidate Sentences:\n" + "\n".join(f"- {c}" for c in candidates)
        extraction = parse_precision_extraction(transcript)
        score = precision_score(extraction, contexts, embedder, cfg)
        assert 0.0 <= score <= 1.0

    for _ in range(1000):
        questions = tuple(_random_sentence(rng)[:-1] + "?" for _ in range(rng.randint(1, 4)))
        parsed = tuple(
            parse_generated_question(f"{_random_junk(rng)}\nQuestion:\n{q}") for q in questions
        )
        score = answer_relevance_score(_random_sentence(rng), GeneratedQuestions(parsed), embedder)
        assert 0.0 <= score <= 1.0
    ok(2, "4000 fuzzed parser-accepted transcripts all scored within [0, 1]")


def test_criterion_03_bootstrap_correctness():
    values = beta_fixture()
    cfg = BootstrapConfig(B=1500, seed=123)
    summary = bootstrap_summary(values, cfg)
    mean, variance, (ci_low, ci_high) = oracle_resample_stats(values, cfg)
    assert abs(summary.boot_mean - mean) < 1e-12
    assert abs(summary.boot_variance - variance) < 1e-12
    assert abs(summary.ci_low - ci_low) < 1e-12
    assert abs(summary.ci_high - ci_high) < 1e-12

    enumerated = enumerate_size2_resample_means([0.0, 1.0])
    assert sum(enumerated) / len(enumerated) == 0.5
    sampled = quiet_summary([0.0, 1.0], BootstrapConfig(B=4096, resample_size=2, seed=6))
    assert abs(sampled.boot_mean - 0.5) < 0.03

    dyadic = np.random.default_rng(8).integers(0, 65, size=32) / 64.0
    base = quiet_summary(dyadic, BootstrapConfig(B=64, seed=21))
    scaled = quiet_summary(2.0 * dyadic + 0.75, BootstrapConfig(B=64, seed=21))
    assert scaled.boot_mean == 2.0 * base.boot_mean + 0.75
    assert scaled.boot_variance == 4.0 * base.boot_variance
    ok(3, "oracle agreement at 1e-12, exhaustive grand mean 0.5, exact scale equivariance")


def test_criterion_04_unbiasedness_on_beta_fixture():
    started = time.perf_counter()
    values = beta_fixture()
    report = unbiasedness_check(values, bootstrap_summary(values, BootstrapConfig(B=5000, seed=17)))
    elapsed = time.perf_counter() - started
    assert report.delta <= 0.01
    assert report.passed
    assert elapsed < 10.0
    ok(4, f"boot mean within {report.delta:.2e} of empirical mean in {elapsed:.2f}s")


def test_criterion_05_ci_coverage():
    started = time.perf_counter()
    trials = 500
    covered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BootstrapGuidanceWarning)
        for trial in range(trials):
            data = np.random.default_rng(np.random.SeedSequence((9000, trial))).random(50)
            summary = bootstrap_summary(data, BootstrapConfig(B=500, seed=trial, ci_level=0.95))
            covered += summary.ci_low <= 0.5 <= summary.ci_high
    coverage = covered / trials
    elapsed = time.perf_counter() - started
    assert 0.88 <= coverage <= 0.98
    assert elapsed < 60.0
    ok(5, f"95% CI covered the true mean in {coverage:.1%} of {trials} trials ({elapsed:.1f}s)")


def test_criterion_06_convergence_and_guidance_warnings():
    means = resample_means(beta_fixture(), BootstrapConfig(seed=40), 4000)
    trace = convergence_trace(means, [500, 1000, 2000, 4000])
    assert trace.final_relative_change < 0.05

    def guidance(n, B):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bootstrap_summary([0.5] * n, BootstrapConfig(B=B, seed=0))
        return [w for w in caught if issubclass(w.category, BootstrapGuidanceWarning)]

    assert len(guidance(29, 1000)) == 1
    assert len(guidance(30, 999)) == 1
    assert len(guidance(29, 999)) == 2
    assert guidance(30, 1000) == []
    ok(6, f"std-error trace converged ({trace.final_relative_change:.1%} final change); "
          "warnings fire exactly at n<30 and B<1000")


def test_criterion_07_aggregation():
    enhanced = enhance_answer(bone_mass_record(), bone_mass_vector(), contexts_included=True)
    assert enhanced.rendered == read_golden("bone_mass_enhanced.txt")

    rounded = ok_vector("bone-mass", 1.0, 0.9532, 0.2727, 0.0667)
    aggregated = aggregate(
        bone_mass_record(),
        enhance_answer(bone_mass_record(), rounded),
        LinearPairScorer((1.0, 1.0, 1.0, 1.0), bias=0.0),
    )
    assert aggregated.logit == pytest.approx(2.2926, abs=1e-9)

    assert expit(8.72) == pytest.approx(0.99984, abs=1e-5)

    rng = random.Random(99)
    for _ in range(100):
        ids = [f"r{i}" for i in range(rng.randint(2, 15))]
        logits = rng.sample(range(-2500, 2500), len(ids))
        scored = [(i, AggregateScore(l / 100.0, expit(l / 100.0))) for i, l in zip(ids, logits)]
        by_logit = [i for i, _ in rank_records(scored)]
        by_normalized = [i for i, _ in sorted(scored, key=lambda e: (-e[1].normalized, e[0]))]
        assert by_logit == by_normalized
    ok(7, "enhanced text byte-exact, linear logit 2.2926, expit(8.72)=0.99984, "
          "ranking invariant under expit on 100 random sets")


def _directional_records():
    pr = EvalRecord(
        id="pr-1",
        query="When is the cloud sales webinar scheduled to launch?",
        answer="The cloud sales webinar launches next Tuesday. Registration opens this week.",
        contexts=(
            "The cloud sales webinar launches next Tuesday.",
            "Registration for the cloud sales webinar opens this week.",
        ),
    )
    ir = EvalRecord(
        id="ir-1",
        query="What is the average rainfall in the Amazon basin?",
        answer="The documents describe basketball training drills. They do not mention rainfall totals.",
        contexts=(
            "Basketball training drills improve agility.",
            "Teams practice passing and shooting daily.",
        ),
    )
    scripts = {}
    scripts.update(
        scripts_for_record(
            pr, faith=[True, True], recall=[True, True],
            precision=[pr.contexts[0], pr.contexts[1]], questions=[pr.query] * 3,
        )
    )
    scripts.update(
        scripts_for_record(
            ir, faith=[True, True], recall=[False, False], precision=None,
            questions=["What sports drills do the documents describe?"] * 3,
        )
    )
    return pr, ir, ProviderBundle(ScriptedGenerator(scripts), HashEmbedder(512))


def test_criterion_08_directional_relevant_vs_irrelevant():
    pr, ir, providers = _directional_records()
    pr_vector = evaluate_record(pr, providers)
    ir_vector = evaluate_record(ir, providers)
    scorer = LinearPairScorer((1.0, 1.0, 1.0, 1.0), bias=0.0)
    pr_logit = aggregate(pr, enhance_answer(pr, pr_vector), scorer).logit
    ir_logit = aggregate(ir, enhance_answer(ir, ir_vector), scorer).logit
    assert pr_logit > ir_logit

    pr_scores, ir_scores = pr_vector.scores(), ir_vector.scores()
    for metric in ("answer_relevance", "retrieval_recall", "retrieval_precision"):
        assert pr_scores[metric] - ir_scores[metric] >= 0.3, metric
    assert pr_scores["faithfulness"] >= 0.8
    assert ir_scores["faithfulness"] >= 0.8
    ok(8, f"relevant-set logit {pr_logit:.3f} strictly above irrelevant-set {ir_logit:.3f}; "
          "faithfulness non-discriminative as expected")


def test_criterion_09_topicality_three_set_analogue():
    started = time.perf_counter()
    sets, scripts = [], {}
    for label, tier in (("positive", "positive"), ("adjacent", "adjacent"), ("random", "random")):
        record_set, set_scripts = engineered_query_set(label, 16, tier)
        sets.append(record_set)
        scripts.update(set_scripts)
    providers = ProviderBundle(ScriptedGenerator(scripts), HashEmbedder(1024))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BootstrapGuidanceWarning)
        report = run_topicality(sets, providers, boot_cfg=BootstrapConfig(B=400, seed=7))

    for metric in ("answer_relevance", "retrieval_recall", "retrieval_precision"):
        assert report.comparison("positive", "random", metric).separated, metric
        near = abs(report.comparison("positive", "adjacent", metric).delta)
        far = abs(report.comparison("positive", "random", metric).delta)
        assert near < far, metric

    table = report.render_table()
    assert "±" in table
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(9, f"positive/adjacent/random separation verdicts as expected in {elapsed:.1f}s")


SYNTH_SCRIPTS = {
    "Generate a passage related to cloud sales": [
        "Passage:\nCloud sales grew quickly this year.\n\nQuestion:\nHow quickly did cloud sales grow?",
        "Passage:\nMarketing teams adopted cloud analytics.\n\nQuestion:\nWho adopted cloud analytics?",
    ]
}


def _write_cli_workspace(base):
    positive, pos_scripts = engineered_query_set("pos", 8, "positive")
    random_set, rand_scripts = engineered_query_set("rand", 8, "random")
    (base / "scripts.json").write_text(
        json.dumps(scripts_to_json({**pos_scripts, **rand_scripts, **SYNTH_SCRIPTS}), indent=2),
        encoding="utf-8",
    )
    save_record_set(positive, base / "pos.jsonl")
    save_record_set(random_set, base / "rand.jsonl")
    (base / "values.json").write_text(json.dumps([0.1, 0.6, 0.4, 0.8, 0.5, 0.3] * 10), encoding="utf-8")
    (base / "synth_spec.json").write_text(
        json.dumps(
            {
                "topic_label": "cloud",
                "prompt_template": (
                    "Generate a passage related to cloud sales and a corresponding question "
                    "based on the passage."
                ),
                "count": 2,
            }
        ),
        encoding="utf-8",
    )
    config = {
        "providers": {
            "mode": "stub",
            "stub": {
                "scripts": "scripts.json",
                "embedder": {"dimension": 1024},
                "scorer": {"weights": [1.0, 1.0, 1.0, 1.0], "bias": 0.0},
            },
        },
        "bootstrap": {"B": 1200, "seed": 7},
        "parallelism": 2,
        "seed": 7,
    }
    (base / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return base / "config.json"


def test_criterion_10_end_to_end_determinism(tmp_path, monkeypatch):
    started = time.perf_counter()
    _write_cli_workspace(tmp_path)

    def run_pipeline(out_dir):
        # identical relative arguments from inside each output directory, so
        # every byte of every report and manifest must match across runs
        out_dir.mkdir()
        monkeypatch.chdir(out_dir)
        args = ["--config", "../config.json", "--seed", "7", "--out", "."]
        assert cli_main(["evaluate", *args, "../pos.jsonl"]) == 0
        assert cli_main(["aggregate", *args, "metrics.json"]) == 0
        assert cli_main(["bootstrap", *args, "../values.json"]) == 0
        assert cli_main(["topicality", *args, "../pos.jsonl", "../rand.jsonl"]) == 0
        assert cli_main(["synth", *args, "../synth_spec.json"]) == 0

    first, second = tmp_path / "run1", tmp_path / "run2"
    run_pipeline(first)
    run_pipeline(second)

    first_files = sorted(p.name for p in first.iterdir())
    assert first_files == sorted(p.name for p in second.iterdir())
    assert len(first_files) >= 13  # json + txt + manifest per command, records for synth
    for name in first_files:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(10, f"two seeded pipeline runs byte-identical across {len(first_files)} files ({elapsed:.1f}s)")
