"""ragmeter benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/`; the
bootstrap check uses the loop oracle in `tests/oracle.py`. Inputs are
generated from `--seed` and written under `.bench_work/`. A pass is one
execution of the workload's timed commands; passes repeat for `--seconds`.

`--trace 0` reports the end-to-end metrics with no instrumentation
installed. `--trace 1` alternates untraced and traced passes, reports the
per-layer metrics from the traced ones (per pass, median over passes) and
the tracing overhead, and writes every span to `.bench_work/<name>/spans.jsonl`.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
PARALLELISM = 2  # the 2-core reference machine's nproc, fixed so runs compare across hosts
METRIC_NAMES = ("faithfulness", "answer_relevance", "retrieval_recall", "retrieval_precision")
EXACT_METRICS = ("faithfulness", "retrieval_recall", "retrieval_precision")


class Checks:
    """Output checks: each attempted item either passes or counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def digest_files(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Workload:
    """Inputs from a seed, a timed pass, and checks against references.

    `items` is the unit of `items_per_s`; `records` is how many records one
    pass scores, the base of every per-record figure (0 when none are).
    """

    items: int
    records: int

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.inputs = inputs

    def start(self, rag) -> None:
        """Untimed preparation that needs ragmeter imported."""

    def extra_checks(self, rag, checks: Checks) -> None:
        """Checks that need runs of their own, outside the timed passes."""

    def fingerprint(self, out: Path) -> str:
        return digest_files(out)


class CliWorkload(Workload):
    """A workload driven through `ragmeter.cli.main`."""

    def write_config(self, extra: dict) -> None:
        stub = {"scripts": "scripts.json", "embedder": {"dimension": W.STUB_DIMENSION}}
        W.write_json(self.inputs / "config.json",
                     {"providers": {"mode": "stub", "stub": stub}, "seed": self.seed, **extra})
        W.write_json(self.inputs / "scripts.json", {"scripts": self.data.scripts})

    def cli(self, rag, out: Path, command: str, *args: str, parallelism: int | None = None) -> None:
        argv = [command, "--config", str(self.inputs / "config.json"), "--out", str(out)]
        if parallelism is not None:
            argv += ["--parallelism", str(parallelism)]
        code = rag.cli_main(argv + list(args))
        if code != 0:
            raise RuntimeError(f"ragmeter {command} exited with {code}")

    def pass_counts(self, out: Path) -> dict[str, float]:
        return {"cli.report_bytes": sum(p.stat().st_size for p in out.iterdir()),
                "providers.script_entries": len(self.data.scripts)}


def check_record_rows(rows: list[dict], specs: list[W.RecordSpec], checks: Checks,
                      expected: list[W.Expected] | None = None) -> None:
    """Per-record scores against the generator's references."""
    checks.expect(len(rows) == len(specs), "record count")
    for row, spec, e in zip(rows, specs, expected or [s.expected for s in specs]):
        for metric in METRIC_NAMES:
            cell = row[metric]
            value = cell["value"]
            if cell["status"] != "ok" or value is None:
                checks.expect(False, f"{spec.id} {metric} status {cell['status']}")
            elif metric == "answer_relevance":
                checks.expect(e.relevance_low <= value <= e.relevance_high,
                              f"{spec.id} relevance {value} outside [{e.relevance_low}, {e.relevance_high}]")
            else:
                checks.expect(close(value, getattr(e, metric)),
                              f"{spec.id} {metric} {value} != {getattr(e, metric)}")


class EvaluateEmbed(CliWorkload):
    """evaluate + aggregate, stub mode, parallelism 2, 5 x 6-sentence contexts.

    Embedding and precision matching do almost all the work; script lookup
    and stats do almost none.
    """

    name = "evaluate-embed"
    records = items = 96

    def prepare(self) -> None:
        self.data = W.evaluate_embed(self.seed, self.records)
        W.write_records(self.inputs / "records.jsonl", self.data.records)
        self.write_config({"parallelism": PARALLELISM})

    def run(self, rag, out: Path) -> float:
        started = time.perf_counter()
        self.cli(rag, out, "evaluate", str(self.inputs / "records.jsonl"))
        self.cli(rag, out, "aggregate", str(out / "metrics.json"))
        return time.perf_counter() - started

    def check(self, out: Path, checks: Checks) -> None:
        report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        specs = self.data.records
        check_record_rows([r["metrics"] for r in report["records"]], specs, checks)
        checks.expect(all(v == 0 for v in report["failure_counts"].values()), "failure counts")
        for metric in EXACT_METRICS:
            expected = math.fsum(getattr(s.expected, metric) for s in specs) / len(specs)
            checks.expect(close(report["means"][metric], expected), f"mean {metric}")
        # the linear stub scorer sums the four rendered scores, bias 0, unit weights
        by_id = {r["id"]: r["metrics"] for r in report["records"]}
        ranked = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))["ranked"]
        checks.expect(sorted(r["id"] for r in ranked) == sorted(by_id), "aggregate ids")
        for row in ranked:
            spec = next(s for s in specs if s.id == row["id"])
            e = spec.expected
            logit = 0.0 + by_id[row["id"]]["answer_relevance"]["value"] + e.retrieval_precision \
                + e.retrieval_recall + e.faithfulness
            checks.expect(close(row["logit"], logit), f"{row['id']} logit")
            checks.expect(close(row["normalized"], 1.0 / (1.0 + math.exp(-logit))), f"{row['id']} normalized")
        checks.expect(ranked == sorted(ranked, key=lambda r: (-r["logit"], r["id"])), "ranking order")

    def extra_checks(self, rag, checks: Checks) -> None:
        # README determinism contract: parallelism never changes the report bytes
        serial = self.inputs.parent / "serial"
        shutil.rmtree(serial, ignore_errors=True)
        self.cli(rag, serial, "evaluate", str(self.inputs / "records.jsonl"), parallelism=1)
        parallel = self.inputs.parent / "out" / "metrics.json"
        checks.expect((serial / "metrics.json").read_bytes() == parallel.read_bytes(),
                      "metrics.json differs between parallelism 1 and 2")


class TopicalityReplay(CliWorkload):
    """topicality over on-topic, adjacent and off-topic sets, parallelism 1.

    Four replayed script entries per record: the scripted generator's scan
    over them grows with the square of the record count.
    """

    name = "topicality-replay"
    per_set = 48
    records = items = 3 * per_set
    B = 1000

    def prepare(self) -> None:
        self.data = W.topicality_replay(self.seed, self.per_set)
        self.files = []
        for label, records in self.data.sets.items():
            path = self.inputs / f"{label}.jsonl"
            W.write_records(path, records)
            self.files.append(str(path))
        self.write_config({"bootstrap": {"B": self.B, "seed": self.seed}})

    def run(self, rag, out: Path) -> float:
        started = time.perf_counter()
        self.cli(rag, out, "topicality", *self.files)
        return time.perf_counter() - started

    def check(self, out: Path, checks: Checks) -> None:
        oracle = load_oracle()
        report = json.loads((out / "topicality.json").read_text(encoding="utf-8"))
        cfg = SimpleNamespace(B=self.B, resample_size=None, seed=self.seed, ci_level=0.95)
        grand: dict[tuple[str, str], float] = {}
        ci: dict[tuple[str, str], tuple[float, float]] = {}
        checks.expect([s["label"] for s in report["sets"]] == list(self.data.sets), "set labels")
        for entry in report["sets"]:
            specs = self.data.sets[entry["label"]]
            checks.expect(all(v == 0 for v in entry["failure_counts"].values()),
                          f"{entry['label']} failures {entry['failure_counts']}")
            for metric in EXACT_METRICS:
                values = [getattr(s.expected, metric) for s in specs]
                mean, variance, (low, high) = oracle.oracle_resample_stats(values, cfg)
                got = entry["summaries"][metric]
                where = f"{entry['label']} {metric}"
                checks.expect(close(got["empirical_mean"], math.fsum(values) / len(values)), where)
                checks.expect(close(got["boot_mean"], mean), f"{where} boot_mean")
                checks.expect(close(got["boot_variance"], variance), f"{where} boot_variance")
                checks.expect(close(got["ci_low"], low) and close(got["ci_high"], high), f"{where} ci")
                grand[entry["label"], metric] = mean
                ci[entry["label"], metric] = (low, high)
            low = math.fsum(s.expected.relevance_low for s in specs) / len(specs)
            high = math.fsum(s.expected.relevance_high for s in specs) / len(specs)
            got = entry["summaries"]["answer_relevance"]["empirical_mean"]
            checks.expect(low <= got <= high, f"{entry['label']} relevance mean {got}")
        comparisons = report["comparisons"]
        checks.expect(len(comparisons) == 3 * len(METRIC_NAMES), "comparison count")
        for comp in comparisons:
            a, b, metric = comp["set_a"], comp["set_b"], comp["metric"]
            if metric not in EXACT_METRICS:
                continue
            delta = grand[a, metric] - grand[b, metric]
            (la, ha), (lb, hb) = ci[a, metric], ci[b, metric]
            overlap = la <= hb and lb <= ha
            checks.expect(close(comp["delta"], delta), f"{a}/{b} {metric} delta")
            checks.expect(comp["ci_overlap"] == overlap, f"{a}/{b} {metric} overlap")
            checks.expect(comp["separated"] == (not overlap and abs(delta) >= report["min_effect"]),
                          f"{a}/{b} {metric} verdict")


class BootstrapLarge(CliWorkload):
    """bootstrap on n = 1000 beta values with B = 10000 and default checkpoints.

    Only stats works: the summary, the convergence trace and the
    unbiasedness check each draw the resample means.
    """

    name = "bootstrap-large"
    n = 1000
    B = items = 10000
    records = 0

    def prepare(self) -> None:
        self.data = W.bootstrap_large(self.seed, self.n)
        W.write_json(self.inputs / "values.json", self.data.values)
        W.write_json(self.inputs / "config.json", {"bootstrap": {"B": self.B, "seed": self.seed}})

    def run(self, rag, out: Path) -> float:
        started = time.perf_counter()
        self.cli(rag, out, "bootstrap", str(self.inputs / "values.json"))
        return time.perf_counter() - started

    def check(self, out: Path, checks: Checks) -> None:
        oracle = load_oracle()
        values = self.data.values
        n, B = len(values), self.B
        report = json.loads((out / "bootstrap.json").read_text(encoding="utf-8"))
        summary = report["summary"]
        # one oracle draw serves the summary, the trace and the unbiasedness check
        means = oracle.oracle_resample_means(values, B, n, self.seed)
        mean = sum(means) / B
        variance = sum((m - mean) ** 2 for m in means) / (B - 1)
        low, high = oracle._quantile(means, 0.025), oracle._quantile(means, 0.975)
        empirical = math.fsum(values) / n
        checks.expect((summary["n"], summary["B"], summary["resample_size"], summary["seed"])
                      == (n, B, n, self.seed), "summary parameters")
        checks.expect(close(summary["empirical_mean"], empirical), "empirical mean")
        checks.expect(close(summary["boot_mean"], mean), "boot mean")
        checks.expect(close(summary["boot_variance"], variance), "boot variance")
        checks.expect(close(summary["ci_low"], low) and close(summary["ci_high"], high), "ci")
        points = report["convergence"]["points"]
        checks.expect([p["B"] for p in points] == [B // 8, B // 4, B // 2, B], "checkpoints")
        for point in points:
            prefix = means[:point["B"]]
            centre = sum(prefix) / len(prefix)
            std = math.sqrt(sum((m - centre) ** 2 for m in prefix) / (len(prefix) - 1))
            checks.expect(close(point["std_error"], std), f"std_error at B={point['B']}")
        unbiased = report["unbiasedness"]
        sd = math.sqrt(sum((v - empirical) ** 2 for v in values) / (n - 1))
        checks.expect(close(unbiased["delta"], abs(mean - empirical)), "unbiasedness delta")
        checks.expect(close(unbiased["tolerance"], 3.0 * (sd / math.sqrt(n)) / math.sqrt(B)),
                      "unbiasedness tolerance")
        checks.expect(unbiased["passed"] == (unbiased["delta"] <= unbiased["tolerance"]),
                      "unbiasedness verdict")


class EvaluateHttp(Workload):
    """evaluate_set over the HTTP adapters and an in-process fake backend.

    Same record shape as evaluate-embed; waiting on round trips dominates.
    """

    name = "evaluate-http"
    records = items = 8

    def prepare(self) -> None:
        import fakehttp

        self.data = W.evaluate_embed(self.seed, self.records)
        self.backend = fakehttp.FakeBackend(self.seed, self.data.embed_texts, self.data.replies)

    def start(self, rag) -> None:
        from ragmeter.corpus import EvalRecord, RecordSet

        self.record_set = RecordSet("http", tuple(
            EvalRecord(s.id, s.query, s.answer, tuple(s.contexts), s.ground_truth)
            for s in self.data.records))

    def run(self, rag, out: Path) -> float:
        import fakehttp
        from ragmeter.metrics import SimilarityConfig
        from ragmeter.providers import EndpointConfig, HttpEmbedder, HttpGenerator, ProviderBundle, RetryPolicy

        self.backend.reset()
        retry = RetryPolicy(attempts=5, base_delay=0.001)
        providers = ProviderBundle(
            HttpGenerator(EndpointConfig(fakehttp.GENERATE_URL, model="judge"),
                          transport=self.backend, retry=retry, jitter_seed=self.seed),
            HttpEmbedder(EndpointConfig(fakehttp.EMBED_URL, model="embed"),
                         transport=self.backend, retry=retry, jitter_seed=self.seed),
        )
        if rag.tracer is not None:
            providers = rag.tracer.bundle(providers)
        started = time.perf_counter()
        # looked up at call time so a traced pass sees the wrapped function
        self.evaluation = rag.metrics.evaluate_set(
            self.record_set, providers, SimilarityConfig(), parallelism=PARALLELISM)
        return time.perf_counter() - started

    def rows(self) -> list[dict]:
        return [{m: {"value": v.result(m).value, "status": v.result(m).status} for m in METRIC_NAMES}
                for v in self.evaluation.vectors]

    def fingerprint(self, out: Path) -> str:
        return hashlib.sha256(json.dumps(self.rows(), sort_keys=True).encode()).hexdigest()

    def pass_counts(self, out: Path) -> dict[str, float]:
        b, n = self.backend, self.records
        return {
            "providers.http_posts_per_record": b.posts / n,
            "providers.http_embed_posts_per_record": b.embed_posts / n,
            "providers.http_generate_posts_per_record": b.generate_posts / n,
            "providers.http_retries_per_record": b.retries / n,
            "providers.http_wait_s": b.wait_s,
            "providers.http_bytes_sent_per_record": b.bytes_sent / n,
        }

    def check(self, out: Path, checks: Checks) -> None:
        import fakehttp

        vec = self.backend.vectors
        specs = self.data.records
        # with the backend's own vectors, precision and relevance are exact too
        expected = []
        for spec in specs:
            best = [max(fakehttp.cosine(vec[s], vec[c]) for c in spec.candidates)
                    for s in spec.sentences]
            cosines = [min(max(fakehttp.cosine(vec[spec.query], vec[q]), 0.0), 1.0)
                       for q in spec.questions]
            relevance = math.fsum(cosines) / len(cosines)
            expected.append(W.Expected(
                faithfulness=spec.expected.faithfulness,
                retrieval_recall=spec.expected.retrieval_recall,
                retrieval_precision=sum(b >= W.PRECISION_THRESHOLD for b in best) / len(best),
                relevance_low=relevance - 1e-12, relevance_high=relevance + 1e-12,
            ))
        check_record_rows(self.rows(), specs, checks, expected)
        # faithfulness, recall, precision and n question calls; then S*C + C + n + 1 embeds
        expected_posts = sum(3 + W.N_QUESTIONS + len(s.sentences) * len(s.candidates)
                             + len(s.candidates) + W.N_QUESTIONS + 1 for s in specs)
        checks.expect(self.backend.posts - self.backend.retries == expected_posts,
                      f"{self.backend.posts - self.backend.retries} successful posts, "
                      f"expected {expected_posts}")


WORKLOADS = {w.name: w for w in (EvaluateEmbed, TopicalityReplay, BootstrapLarge, EvaluateHttp)}

_oracle = None


def load_oracle():
    global _oracle
    if _oracle is None:
        spec = importlib.util.spec_from_file_location("ragmeter_bench_oracle", ORACLE)
        _oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_oracle)
    return _oracle


def import_in_child() -> None:
    """A fresh interpreter importing ragmeter: what every CLI run pays first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import ragmeter"], cwd=ROOT, env=env,
                   check=True, timeout=120)


def import_ragmeter() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import ragmeter
    import ragmeter.cli
    import ragmeter.metrics

    if Path(ragmeter.__file__).resolve().parent != (SRC / "ragmeter").resolve():
        raise RuntimeError(f"imported ragmeter from {ragmeter.__file__}, not from {SRC}")
    return SimpleNamespace(cli_main=ragmeter.cli.main, metrics=ragmeter.metrics, tracer=None)


def setup(workload) -> float:
    """Median of several set-ups: generate, write inputs, import in a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workload.inputs, ignore_errors=True)
        workload.inputs.mkdir(parents=True)
        started = time.perf_counter()
        workload.prepare()
        import_in_child()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_pass(workload, rag, out: Path, traced: bool) -> float:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if not traced:
        return workload.run(rag, out)
    tracer = rag.tracer
    tracer.reset()
    tracer.install()
    try:
        main = rag.cli_main
        rag.cli_main = tracer.wrap("cli.main", main)
        try:
            return workload.run(rag, out)
        finally:
            rag.cli_main = main
    finally:
        tracer.uninstall()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in (SRC / "ragmeter" / "__init__.py", ORACLE):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a ragmeter checkout",
                  file=sys.stderr)
            return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work / "inputs")
    setup_s = setup(workload)
    rag = import_ragmeter()
    workload.start(rag)
    if args.trace:
        import tracing

        rag.tracer = tracing.Tracer()

    checks = Checks()
    out = work / "out"
    run_pass(workload, rag, out, traced=False)
    workload.check(out, checks)
    reference = workload.fingerprint(out)
    workload.extra_checks(rag, checks)

    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    spans: list[tuple] = []
    origin = time.perf_counter()
    deadline = origin + args.seconds
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        wall = run_pass(workload, rag, out, traced)
        checks.expect(workload.fingerprint(out) == reference, "pass output differs from the first pass")
        if traced:
            traced_walls.append(wall)
            figures = tracing.pass_layers(rag.tracer, workload.records)
            figures.update(workload.pass_counts(out))
            layers.append(figures)
            spans += [s + (len(traced_walls),) for s in rag.tracer.spans]
        else:
            walls.append(wall)
        done = min(len(walls), len(traced_walls)) if args.trace else len(walls)
        if time.perf_counter() >= deadline and done >= MIN_PASSES:
            break

    if args.trace:
        per_layer = {name: statistics.median(f[name] for f in layers) for name in layers[0]}
        per_layer.update(tracing.record_latency(spans))
        per_layer["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        # a layer the workload never reaches reads 0
        metrics = {name: metric(per_layer.get(name, 0), unit) for name, unit in layer_units().items()}
        tracing.write_spans(work / "spans.jsonl", spans, origin)
    else:
        rate = statistics.median(workload.items / w for w in walls)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "items_per_s": metric(rate, "items/s"),
            "peak_rss_mb": metric(rss, "MiB"),
        }
        # the same figures under the names users know them by, for the log
        named = [f"records_per_s={rate:.6g} records/s" if workload.records
                 else f"resamples_per_s={rate:.6g} resamples/s"]
        if isinstance(workload, EvaluateHttp):
            named.append(f"provider_calls_per_record={workload.backend.posts / workload.records:.6g} calls/record")
        named += [f"peak_rss_mb={rss:.6g} MiB",
                  f"failed_share={checks.failed / checks.attempted:.6g} ratio "
                  f"({checks.failed}/{checks.attempted})",
                  f"passes={len(walls)}"]
        print(f"{workload.name}: " + "  ".join(named))
    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def layer_units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
