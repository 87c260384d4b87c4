"""Pinned checksums for versioned assets, the names the benchmark tracer
patches, the rule that no module takes a private name from another, the
rule that no module computes a dot product outside the stacked `@`
products, and self-tests for the stats oracle.

Any byte change to a shipped template or a golden file fails here first;
template edits are breaking changes and must be made deliberately.
"""

import ast
import hashlib
import importlib
from importlib import resources
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR
from oracle import enumerate_size2_resample_means, oracle_resample_stats
from ragmeter.stats import BootstrapConfig, bootstrap_summary

SHIPPED_ASSET_CHECKSUMS = {
    "enhancement.txt": "585eaca385150894415fc92077eba46708eda28cccfa2efe3ffd3d3425cb6193",
    "faithfulness_prompt.txt": "287d92a04265e5afa3ead69e1d50b85220e01064e3fe39733192585cb2aa2aee",
    "precision_prompt.txt": "39ba1730ee49bdb35a04ff11079a34b92c5e2a835ace33aebd3a754817bd896b",
    "question_gen_prompt.txt": "41d42194471ea5352d3b404b556f214aec1546f224b03e5383083a05593a0ba1",
    "recall_prompt.txt": "b407adf14b430776b3c939c0e859857d7bfed5a1c3846701ab328bdae6acfe9b",
}

GOLDEN_CHECKSUMS = {
    "atlantis_precision_transcript.txt": "716a2201fb4ffa3b5e5c1a9001dad3ee4dea85743008f3703ebc394dd427ae23",
    "bone_mass_enhanced.txt": "eec6aea6dabbec799c05f6749c9e0a43e3acd7f1b574ad4bd828aa8f086614af",
    "curie_recall_transcript.txt": "7786387feca66c8eaf5824d146c7ea014bbbcd84c9c990ce4a417e1b76ec2bea",
    "emma_faithfulness_prompt.txt": "20d6b125f7aab24bed921a8bdb2e2824c1a9410c8b536ca063cd6274d9e4b0c9",
    "emma_faithfulness_transcript.txt": "4bf616f5100f18558b232f0352d8e7137b718c7da41aedc58ef22ce4e9605c91",
    "newton_recall_prompt.txt": "6441f9bbf8095b8b20d915dafaffef47ff6848b272b8eee4fc018389f54207c6",
    "newton_recall_transcript.txt": "b65b04bc819d80a1246ec10e5ea279df386cc164b6973c37375ee69a6f86a4ec",
    "pslv_question_gen_prompt.txt": "f14fad3b70cae8e5d40f1e8918934c86702953f2512cb1953a6f00606c79ffcb",
    "pslv_question_transcript.txt": "170d82e095b1d2ba2320d2a681062c8a921b3c846bc68eb16a00d131cb45d6b0",
    "tides_precision_prompt.txt": "5083b5b9d915ef153acbda3bd308be016c33f90ca2450e11801ee11579cfe550",
    "tides_precision_transcript.txt": "08e1503b2a799590781b99b547d542d825e6ba2ad08495419f201c031454b230",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_shipped_assets_pinned():
    asset_dir = resources.files("ragmeter") / "assets"
    names = sorted(entry.name for entry in asset_dir.iterdir())
    assert names == sorted(SHIPPED_ASSET_CHECKSUMS)
    for name, expected in SHIPPED_ASSET_CHECKSUMS.items():
        assert sha256((asset_dir / name).read_bytes()) == expected, name


def test_golden_files_pinned():
    names = sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert names == sorted(GOLDEN_CHECKSUMS)
    for name, expected in GOLDEN_CHECKSUMS.items():
        assert sha256((GOLDEN_DIR / name).read_bytes()) == expected, name


TRACER = Path(__file__).parents[1] / "benchmarks" / "tracing.py"


def tracer_targets() -> list[tuple[str, str]]:
    """The (object path, attribute) pairs `TARGETS` in the benchmark tracer lists, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return [(path, attr) for path, attr, _span in ast.literal_eval(node.value)]
    raise AssertionError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("path, attr", [*tracer_targets(), ("ragmeter.cli", "build_providers")])
def test_every_name_the_tracer_patches_resolves(path, attr):
    try:
        owner = importlib.import_module(path)
    except ModuleNotFoundError:  # a class inside a module, resolved as the tracer does
        module, _, name = path.rpartition(".")
        owner = getattr(importlib.import_module(module), name)
    assert callable(getattr(owner, attr))


SRC = Path(__file__).parents[1] / "src" / "ragmeter"


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_names_taken(source: str, module: str) -> list[str]:
    """The `_`-prefixed names `source`, the code of `module`, takes from another ragmeter module.

    Both `from ragmeter.x import _y` (relative forms too) and `x._y`, where `x`
    is bound to a ragmeter module by an import, count; dunder names do not.
    """
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> the ragmeter module it may name
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            origin = ".".join(filter(None, ["ragmeter" if node.level else "", node.module or ""]))
            if origin.split(".")[0] != "ragmeter":
                continue
            for alias in node.names:
                if private(alias.name):
                    taken.append(f"{origin}.{alias.name}")
                elif origin == "ragmeter":  # `from ragmeter import stats`
                    bound[alias.asname or alias.name] = f"ragmeter.{alias.name}"
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names if a.name.startswith("ragmeter."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr) and ast.unparse(node.value) in bound:
            taken.append(f"{bound[ast.unparse(node.value)]}.{node.attr}")
    return [name for name in taken if name.rpartition(".")[0] != module]


def test_private_name_detector_sees_every_form():
    source = (
        "from ragmeter.stats import _a, b, __version__\n"
        "from .judge import _c\n"
        "from ragmeter import stats, corpus as c\n"
        "import ragmeter.metrics as m\n"
        "import ragmeter.providers\n"
        "stats._d(c._e, m._f, ragmeter.providers._g, stats.h, self._own)\n"
        "from ragmeter.topicality import _own_helper\n"
    )
    assert sorted(private_names_taken(source, "ragmeter.topicality")) == [
        "ragmeter.corpus._e", "ragmeter.judge._c", "ragmeter.metrics._f",
        "ragmeter.providers._g", "ragmeter.stats._a", "ragmeter.stats._d",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_takes_a_private_name_from_another(path):
    module = "ragmeter" if path.stem == "__init__" else f"ragmeter.{path.stem}"
    assert private_names_taken(path.read_text(encoding="utf-8"), module) == []


DOT_ROUTINES = {"dot", "inner", "vdot", "einsum"}


def dot_calls(source: str) -> list[str]:
    """The calls in `source` to a dot routine other than `@`: any `.dot`, `.inner`, `.vdot`, `.einsum` or `linalg.norm`, and those names imported from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if node.func.attr in DOT_ROUTINES or name.endswith("linalg.norm"):
                found.append(name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in DOT_ROUTINES | {"norm"}]
    return found


def test_dot_call_detector_sees_every_form():
    source = (
        "u.dot(v)\nnp.dot(u, v)\nnp.inner(u, v)\nnp.vdot(u, v)\nnp.einsum('i,i', u, v)\n"
        "np.linalg.norm(u)\nnumpy.linalg.norm(u)\nfrom numpy import dot\nfrom numpy.linalg import norm\n"
        "u @ v\nnp.sqrt(u)\n"
    )
    assert sorted(dot_calls(source)) == [
        "np.dot", "np.einsum", "np.inner", "np.linalg.norm", "np.vdot",
        "numpy.dot", "numpy.linalg.norm", "numpy.linalg.norm", "u.dot",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_calls_a_dot_routine_but_the_stacked_matmul(path):
    # every dot and squared norm is a 1 x d by d x 1 product of a stacked
    # `@`, which numpy runs as one `dot` per pair: one routine, so
    # similarities and norms round alike, and one place to change
    assert dot_calls(path.read_text(encoding="utf-8")) == []


class TestOracle:
    def test_constant_values(self):
        cfg = BootstrapConfig(B=200, seed=3)
        mean, variance, (ci_low, ci_high) = oracle_resample_stats([0.4] * 20, cfg)
        assert mean == pytest.approx(0.4, abs=1e-12)
        assert variance == pytest.approx(0.0, abs=1e-12)
        assert ci_low == pytest.approx(0.4, abs=1e-12)
        assert ci_high == pytest.approx(0.4, abs=1e-12)

    def test_exhaustive_enumeration_mean(self):
        means = enumerate_size2_resample_means([0.0, 1.0])
        assert sum(means) / len(means) == 0.5

    def test_seed_mismatch_detected_against_library(self):
        values = [0.1, 0.9, 0.4, 0.7, 0.2, 0.6] * 6
        summary = bootstrap_summary(values, BootstrapConfig(B=1500, seed=1))
        mean_same, _, _ = oracle_resample_stats(values, BootstrapConfig(B=1500, seed=1))
        mean_other, _, _ = oracle_resample_stats(values, BootstrapConfig(B=1500, seed=2))
        assert abs(summary.boot_mean - mean_same) < 1e-12
        assert abs(summary.boot_mean - mean_other) > 1e-6
