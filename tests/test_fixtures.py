"""Pinned checksums for versioned assets, the names the benchmark tracer
patches, the rule that no module takes a private name from another, the
rule that no module computes a dot product outside `providers.row_dots`,
the rule that no module imports a name it does not use, the
rule that every JSON input of the CLI is checked against its type table,
the rule that every settings class checks its field types and ranges
through the one type rule, the rule that only `aggregation` writes or reads the score
statements of an enhanced answer, and self-tests for the stats oracle.

Any byte change to a shipped template or a golden file fails here first;
template edits are breaking changes and must be made deliberately.
"""

import ast
import hashlib
import importlib
import re
from importlib import resources
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR
from oracle import enumerate_size2_resample_means, oracle_resample_stats
from ragmeter.aggregation import SCORE_STATEMENTS
from ragmeter.judge import load_template
from ragmeter.metrics import METRICS
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
    # every dot and squared norm comes from `providers.row_dots`, whose
    # stacked `@` numpy runs as one `dot` per pair: one routine, so
    # similarities and norms round alike, and one place to change
    assert dot_calls(path.read_text(encoding="utf-8")) == []


def matmul_sites(source: str) -> list[str]:
    """Where each `@`, `@=` and `matmul` call in `source` sits: the dotted names of its enclosing classes and functions.

    One entry per product, `<module>` for one outside every function; a
    decorator is not a product.
    """
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            product = isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult)
            if product or isinstance(child, ast.Call) and called_name(child) == "matmul":
                found.append(scope or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(source), "")
    return found


def test_matmul_site_detector_sees_every_form():
    source = (
        "x = a @ b\n"
        "@dataclass\nclass C:\n"
        "    def m(self, a):\n        a @= a\n        return np.matmul(a, a), matmul(a, a)\n"
        "def f(a, b, c):\n"
        "    def g():\n        return (a @ b) @ c\n"
        "    return lambda: a[..., None, :] @ b[..., :, None], a * b\n"
    )
    assert sorted(matmul_sites(source)) == ["<module>", "C.m", "C.m", "C.m", "f", "f.g", "f.g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_only_row_dots_multiplies_matrices(path):
    # every similarity dot and squared norm is a product of `providers.row_dots`,
    # so changing the routine that rounds them is an edit to one function
    expected = ["row_dots"] if path.stem == "providers" else []
    assert matmul_sites(path.read_text(encoding="utf-8")) == expected


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads.

    A name counts as read when it is loaded anywhere in the module, as the
    root of an attribute chain too, or listed in `__all__`; `__future__`
    imports do not count. `import a.b` binds and reads `a`.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unused_import_detector_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\nimport numpy as np\nimport urllib.request\nimport json\n"
        "from typing import Mapping, Sequence\nfrom dataclasses import field as f\n"
        "from ragmeter.stats import exported\n"
        "__all__ = ['exported']\n"
        "def g(x: Mapping) -> None:\n    import re\n    return sys.argv, json.dumps\n"
    )
    assert sorted(unused_imports(source)) == ["Sequence", "f", "np", "os", "re", "urllib"]


# the benchmark tracer wraps `bootstrap_summary` under `ragmeter.topicality`
# (see `tracer_targets`), so it stays imported there until the tracer stops
UNUSED_IMPORTS_ALLOWED = {"topicality": ["bootstrap_summary"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == UNUSED_IMPORTS_ALLOWED.get(path.stem, [])


def called_name(call: ast.Call) -> str | None:
    """The name a call calls: `f` for `f(...)` and for `m.f(...)`."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def unchecked_json_reads(source: str) -> list[str]:
    """The functions in `source` that call `_read_json` without a schema and never call `_check`.

    A schema is `_read_json`'s third positional argument or its `schema`
    keyword. A function that reads a document with no schema must check it
    against the one type table itself, as `load_config` does.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)]
            unchecked = any(called_name(call) == "_read_json" and len(call.args) < 3
                            and "schema" not in {k.arg for k in call.keywords} for call in calls)
            if unchecked and "_check" not in map(called_name, calls):
                found.append(node.name)
    return found


def test_unchecked_json_read_detector_sees_every_form():
    source = (
        "def by_hand(path):\n"
        "    doc = _read_json(path, 'values file')\n"
        "    if not isinstance(doc, list):\n        raise ConfigError(path)\n"
        "def attribute(path):\n    return cli._read_json(path, 'x')\n"
        "def positional(path):\n    return _read_json(path, 'x', SCHEMA)\n"
        "def keyword(path):\n    return _read_json(path, 'x', schema=SCHEMA)\n"
        "def checked(path):\n    doc = _read_json(path, 'x')\n    _check(doc, SCHEMA, 'x')\n"
        "def no_read(path):\n    return json.loads(path)\n"
    )
    assert unchecked_json_reads(source) == ["by_hand", "attribute"]


def test_every_json_input_of_the_cli_meets_the_type_table():
    assert unchecked_json_reads((SRC / "cli.py").read_text(encoding="utf-8")) == []



def field_checked_classes(source: str) -> set[str]:
    """The classes in `source` whose `__post_init__` starts with `check_fields(self)`, after any docstring."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "__post_init__":
                    body = method.body[1:] if ast.get_docstring(method) else method.body
                    if body and ast.unparse(body[0]) == "check_fields(self)":
                        found.add(node.name)
    return found


def integral_uses(source: str) -> list[str]:
    """The imports of `numbers.Integral` in `source`, and its uses through `numbers`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found += [ast.unparse(node) for a in node.names if a.name == "Integral"]
        elif isinstance(node, ast.Attribute) and node.attr == "Integral":
            found.append(ast.unparse(node))
    return found


def test_settings_detectors_see_every_form():
    source = (
        "class First:\n    def __post_init__(self):\n        check_fields(self)\n        check(self.x)\n"
        "class Documented:\n    def __post_init__(self):\n        \"Doc.\"\n        check_fields(self)\n"
        "class Late:\n    def __post_init__(self):\n        check(self.x)\n        check_fields(self)\n"
        "class Other:\n    def __post_init__(self):\n        check_fields(other)\n"
        "class Qualified:\n    def __post_init__(self):\n        schema.check_fields(self)\n"
        "class Empty:\n    def __post_init__(self):\n        \"Doc.\"\n"
        "class Plain:\n    def check(self):\n        check_fields(self)\n"
        "from numbers import Integral\nfrom numbers import Real, Integral as I\nfrom numbers import Real\n"
        "import numbers\nnumbers.Integral\nfrom typing import Integral\n"
    )
    assert field_checked_classes(source) == {"First", "Documented"}
    assert sorted(integral_uses(source)) == [
        "from numbers import Integral", "from numbers import Real, Integral as I", "numbers.Integral",
    ]


SETTINGS_CLASSES = {
    "corpus": {"SyntheticSpec"},
    "metrics": {"SimilarityConfig"},
    "providers": {"EndpointConfig", "GenerationParams", "RetryPolicy"},
    "stats": {"BootstrapConfig"},
}


@pytest.mark.parametrize("module", sorted(SETTINGS_CLASSES))
def test_every_settings_class_checks_its_field_types_first(module):
    # the type and the range of every setting are the one rule in `schema`,
    # which the CLI checks config files by; only other checks follow it
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert SETTINGS_CLASSES[module] <= field_checked_classes(source)


def post_init_orderings(source: str) -> list[tuple[str, str]]:
    """(class, comparison) for each `<`, `<=`, `>` or `>=` comparison in a `__post_init__` of `source`.

    A chained comparison counts once if any of its operators orders; nested
    functions and expressions inside the method count too.
    """
    orderings = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "__post_init__":
                    found += [(node.name, ast.unparse(compare)) for compare in ast.walk(method)
                              if isinstance(compare, ast.Compare) and any(isinstance(op, orderings) for op in compare.ops)]
    return found


def test_post_init_ordering_detector_sees_every_form():
    source = (
        "class Less:\n    def __post_init__(self):\n        if self.x < 1:\n            raise ValueError\n"
        "class Chained:\n    def __post_init__(self):\n        if not 0 < self.p <= 1:\n            raise ValueError\n"
        "class Greater:\n    def __post_init__(self):\n        assert self.t > 0 and self.u >= 0\n"
        "class Nested:\n    def __post_init__(self):\n        check = lambda v: v >= 0\n"
        "class Mixed:\n    def __post_init__(self):\n        ok = self.a == 1 < self.b\n"
        "class Equal:\n    def __post_init__(self):\n        if self.x == 0 or self.y in (1, 2) or self.z is None:\n"
        "            raise ValueError\n"
        "class Elsewhere:\n    def check(self):\n        return self.x < 1\n"
        "def __post_init__(self):\n    return self.x < 1\n"
    )
    assert post_init_orderings(source) == [
        ("Less", "self.x < 1"), ("Chained", "0 < self.p <= 1"), ("Greater", "self.t > 0"),
        ("Greater", "self.u >= 0"), ("Nested", "v >= 0"), ("Mixed", "self.a == 1 < self.b"),
    ]


@pytest.mark.parametrize("module", sorted(SETTINGS_CLASSES))
def test_no_settings_class_checks_a_range_by_hand(module):
    # a bound is declared in the field's hint as `Annotated[T, Range(...)]`, so
    # `schema` refuses it in the one wording of every range
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert [found for found in post_init_orderings(source) if found[0] in SETTINGS_CLASSES[module]] == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "schema"], ids=lambda path: path.stem)
def test_only_the_schema_module_tells_an_integer(path):
    assert integral_uses(path.read_text(encoding="utf-8")) == []


def pcg64_seedings(source: str) -> list[str]:
    """Where `source` seeds a PCG64 or sets a bit generator's state, by the top-level definition holding it.

    Each `PCG64(...)` call reads `<definition>: <callee>()`, and each
    assignment to a `.state` attribute, in any assigning statement or loop,
    `<definition>: <target> =`; code outside any definition is `<module>`.
    """
    found = []
    for scope in ast.parse(source).body:
        name = getattr(scope, "name", "<module>")
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and called_name(node) == "PCG64":
                found.append(f"{name}: {ast.unparse(node.func)}()")
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            targets = [item for root in targets for item in getattr(root, "elts", [root])]  # unpack `a, b =`
            found += [f"{name}: {ast.unparse(target)} =" for target in targets
                      if isinstance(target, ast.Attribute) and target.attr == "state"]
    return found


def test_pcg64_seeding_detector_sees_every_form():
    source = (
        "bg = np.random.PCG64(0)\n"
        "def load(bg, words):\n    bg.state = words\n    a, bg.state = 1, words\n"
        "def build(row):\n    return PCG64(row)\n"
        "class Holder:\n    def reset(self):\n        self.bit_generator.state: dict = {}\n"
        "def other(rng):\n    rng.state['x'] = 1\n    return rng.bit_generator.state, np.random.default_rng(0)\n"
        "for g.state in ():\n    pass\n"
    )
    assert pcg64_seedings(source) == [
        "<module>: np.random.PCG64()", "load: bg.state =", "load: bg.state =", "build: PCG64()",
        "Holder: self.bit_generator.state =", "<module>: g.state =",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_numpy_seeds_every_pcg64_through_one_constructor(path):
    # `SeedSequence((seed, s))` seeds resample s: numpy does it from the row
    # `seed_states` computes, in `stats._seeded_pcg64` alone, and no state is
    # written by hand into a bit generator
    expected = ["_seeded_pcg64: np.random.PCG64()"] if path.stem == "stats" else []
    assert pcg64_seedings(path.read_text(encoding="utf-8")) == expected


def statement_phrases(source: str) -> list[str]:
    """The score statement phrases the string literals of `source` hold, one per literal that holds it.

    A literal counts in any case and with any run of white space between
    words, f-string parts and adjacent literals joined by the parser too;
    comments do not count.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = " ".join(node.value.lower().split())
            found += [phrase for phrase in SCORE_STATEMENTS.values() if phrase in text]
    return found


def test_statement_phrase_detector_sees_every_form():
    source = (
        "a = 'the faithfulness score is:'\n"
        "b = ('the context recall '\n     'score is:')\n"
        "c = re.compile(r'The Answer  Relevancy score is:\\s*(\\d+)')\n"
        "d = f'the context precision score is: {x}'\n"
        "# the faithfulness score is: in a comment\n"
        "e = 'the context precision score', 'score is:'\n"
    )
    assert sorted(statement_phrases(source)) == sorted(SCORE_STATEMENTS.values())


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "aggregation"],
                         ids=lambda path: path.stem)
def test_only_the_aggregation_module_holds_a_score_statement(path):
    # the enhanced answer is written and read in one module, so its wording
    # and order change in one place
    assert statement_phrases(path.read_text(encoding="utf-8")) == []


def test_score_statements_follow_the_enhancement_template():
    template = load_template("enhancement.txt")
    slots = [slot for slot in re.findall(r"\{(\w+)\}", template) if slot in METRICS]
    assert slots == list(SCORE_STATEMENTS)
    for metric, phrase in SCORE_STATEMENTS.items():
        assert f"{phrase} {{{metric}}}" in template, metric


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
