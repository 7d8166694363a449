"""The package's public surface: every exported name, served lazily."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import beliefgraph
from beliefgraph import errors
from conftest import run_python

SUBMODULES = [
    importlib.import_module(f"beliefgraph.{info.name}")
    for info in pkgutil.iter_modules(beliefgraph.__path__)
]


def test_public_surface_is_pinned():
    """A name that joins or leaves the package root shows up as a diff here."""
    assert sorted(beliefgraph.__all__) == [
        "Assignment", "BeliefGraph", "BeliefOracle", "CalibrationConfig", "ConsistencyReport",
        "ConstructionError", "DatasetReport", "ExplanationSubgraph", "HARD", "HypothesisSet",
        "InputError", "MockOracle", "OracleDecodeError", "OracleTransportError",
        "ReasoningError", "ReasoningOutcome", "RemoteOracle", "RuleNode", "RuleType",
        "SCHEMA_VERSION", "SolveResult", "SolverLimitError", "StatementNode",
        "WeightedClauseSet", "ablate", "canonicalize", "consistency", "document_to_graph",
        "dumps", "encode", "evaluate_dataset", "extract_explanation", "generate_graph",
        "graph_to_document", "load_graph", "mc_accuracy", "reason", "resolve_interactive",
        "save_graph", "solve", "total_cost",
    ]


def test_module_list_is_pinned():
    """A module that joins or leaves the package shows up as a diff here."""
    assert sorted(info.name for info in pkgutil.iter_modules(beliefgraph.__path__)) == [
        "cli", "construction", "dot", "errors", "evaluation", "maxsat", "model",
        "oracle_client", "reasoner", "serialize", "synthetic",
    ]


@pytest.mark.parametrize("name", beliefgraph.__all__)
def test_export_is_the_submodule_object(name):
    exported = getattr(beliefgraph, name)
    defining = [m for m in SUBMODULES if getattr(m, name, None) is not None]
    assert defining, f"no submodule defines {name}"
    for module in defining:
        assert getattr(module, name) is exported, module.__name__


@pytest.mark.parametrize(
    "module, name",
    [
        ("serialize", "InputError"),
        ("maxsat", "SolverLimitError"),
        ("construction", "ConstructionError"),
        ("oracle_client", "OracleTransportError"),
        ("oracle_client", "OracleDecodeError"),
        ("reasoner", "ReasoningError"),
    ],
)
def test_error_classes_keep_their_old_homes(module, name):
    assert getattr(importlib.import_module(f"beliefgraph.{module}"), name) is getattr(errors, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from beliefgraph import *", namespace)
    assert set(beliefgraph.__all__) <= set(namespace)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        beliefgraph.no_such_name
    assert not hasattr(beliefgraph, "no_such_name")


def test_fresh_import_loads_no_submodule():
    out = run_python(
        "import json, sys, beliefgraph\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('beliefgraph.'))\n"
        "listed = set(beliefgraph.__all__) | {'__version__'} <= set(dir(beliefgraph))\n"
        "beliefgraph.reason\n"
        "stored = 'reason' in vars(beliefgraph)\n"
        "from beliefgraph import construction\n"
        "print(json.dumps([loaded, listed, stored, construction.__name__]))\n"
    )
    assert json.loads(out) == [[], True, True, "beliefgraph.construction"]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_names_the_benchmark_imports_resolve():
    """Every ``from beliefgraph... import name`` in perfbench/*.py names
    something that exists, so removing a name cannot break the benchmark
    unnoticed."""
    imported = [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.partition(".")[0] == "beliefgraph"
        for alias in node.names
    ]
    assert ("workloads.py", "beliefgraph", "reason") in imported
    missing = [
        f"{file}: from {module} import {name}"
        for file, module, name in imported
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert missing == []


def test_the_benchmark_runs_on_this_library():
    """A tiny traced ``acceptance`` run, in a fresh interpreter, reads every
    attribute perfbench uses (the compiled clauses, solver statistics,
    ``with_labels(...).without_rules(...)``) and checks every output."""
    out = run_python(
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import run\n"
        "from workloads import Sizes\n"
        "tiny = Sizes(acceptance_graphs=6, acceptance_prefix=4, cli_graphs=2, cli_prefix=2,\n"
        "             oracle_questions=3, oracle_vocabulary=20, cli_startups=1)\n"
        "result, _ = run.run('acceptance', 7, 0.3, True, tiny)\n"
        "print(json.dumps([result['correct'], result['failed'],\n"
        "                  result['metrics']['maxsat.clauses']['value']]))\n"
    )
    assert json.loads(out) == [True, 0, 218.0]


def test_reasoning_changes_no_package_state():
    """In a fresh interpreter, reasoning the acceptance graphs and a clique
    of seven options, which `solve` eliminates by its general step, leaves
    every module-level dict, list and set of the package as it was after
    import: no call writes state that a later call, or another thread,
    would read."""
    out = run_python(
        "import importlib, json, pkgutil, random, beliefgraph\n"
        "from beliefgraph import (BeliefGraph, RuleNode, RuleType, StatementNode,\n"
        "                         encode, reason, solve)\n"
        "from beliefgraph.synthetic import synthetic_graph\n"
        "modules = [importlib.import_module(f'beliefgraph.{info.name}')\n"
        "           for info in pkgutil.iter_modules(beliefgraph.__path__)] + [beliefgraph]\n"
        "def state():\n"
        "    return {f'{m.__name__}.{name}': repr(value) for m in modules\n"
        "            for name, value in vars(m).items()\n"
        "            if not name.startswith('__') and isinstance(value, (dict, list, set))}\n"
        "before = state()\n"
        "graphs = [synthetic_graph(s) for s in random.Random(1).sample(range(10**6), 20)]\n"
        "options = range(7)\n"
        "graphs.append(BeliefGraph(\n"
        "    {v: StatementNode(v, f'option {v}', True, 0.5) for v in options},\n"
        "    tuple(RuleNode(f'm{a}{b}', RuleType.MC_PAIRWISE, (), (a, b), 0.5)\n"
        "          for a in options for b in options if a < b),\n"
        "    tuple(options)))\n"
        "widths = [solve(encode(graph)).width for graph in graphs]\n"
        "for graph in graphs:\n"
        "    reason(graph)\n"
        "after = state()\n"
        "print(json.dumps([max(widths), len(before), sorted(k for k in before if before[k] != after[k])]))\n"
    )
    width, containers, changed = json.loads(out)
    assert width >= 4 and containers > 0
    assert changed == []


HOT_MODULES = ["maxsat", "model", "reasoner", "dot"]


def _repeated_parts(node: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension that run once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, (ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [node]
    return []


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_enum_member_read_in_a_loop(module):
    """Reading ``RuleType.<member>`` is a descriptor call (≈150 ns on CPython
    3.11), so the per-rule and per-variable loops test names bound outside
    them."""
    path = Path(beliefgraph.__file__).with_name(f"{module}.py")
    reads = sorted({
        f"{path.name}:{node.lineno}"
        for loop in ast.walk(ast.parse(path.read_text(), str(path)))
        for part in _repeated_parts(loop)
        for node in ast.walk(part)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "RuleType"
    })
    assert reads == []


def test_no_module_imports_another_modules_private_names():
    """A ``_``-prefixed name belongs to the module that defines it: no
    package module imports one from another."""
    package = Path(beliefgraph.__file__).parent
    private = sorted(
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "beliefgraph")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == []


def test_field_rules_are_spelt_only_in_errors():
    """The number, integer, UTF-8 string, true/false and list rules live in
    `beliefgraph.errors`: no other module spells "a number but not a bool",
    a surrogate range, "must be true or false" or "must be a list", which
    would make a second copy of a rule."""
    package = Path(beliefgraph.__file__).parent
    copy = re.compile(r"isinstance\([^()]*,\s*bool\)\s*(?:or\s+not|and)\s+isinstance\("
                      r"|\\u[dD][89a-fA-F]|0x[dD][89a-fA-F][0-9a-fA-F]{2}\b"
                      r"|must be true or false|must be a list")
    copies = sorted(
        f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}: {match[0]}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for text in [path.read_text()]
        for match in copy.finditer(text)
    )
    assert copies == []


def test_only_the_package_and_the_standard_library_are_imported():
    """Every module imports only the standard library and its own package,
    and the project declares no runtime dependency."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(beliefgraph.__file__).parent
    allowed = sys.stdlib_module_names | {"beliefgraph"}
    foreign = sorted(
        f"{path.name}:{node.lineno}: {name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
            else []
        )
        if name.partition(".")[0] not in allowed
    )
    assert foreign == []
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["dependencies"] == []


def test_only_the_entry_point_touches_the_process():
    """`cli.run` is the one caller of ``gc.freeze`` and of ``os.dup2``;
    nothing calls ``os._exit``, which would skip atexit handlers and the
    ``-X dev`` checks at exit."""
    package = Path(beliefgraph.__file__).parent
    calls = sorted(
        f"{path.name}:{getattr(top, 'name', '<module>')}: {name}"
        for path in sorted(package.glob("*.py"))
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "attr", getattr(node.func, "id", None)))
        in ("freeze", "dup2", "_exit")
    )
    assert calls == ["cli.py:run: dup2", "cli.py:run: freeze"]


def test_every_record_passes_through_its_constructor():
    """No package module calls ``object.__new__`` or ``object.__setattr__``,
    or reaches into an instance ``__dict__``: every node and graph is built
    by its constructor, so its ``__post_init__`` checks run."""
    package = Path(beliefgraph.__file__).parent
    bypasses = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and (
            isinstance(node.value, ast.Name) and node.value.id == "object"
            and node.attr in ("__new__", "__setattr__")
            or node.attr == "__dict__"
        )
    )
    assert bypasses == []


def test_pythonpath_chooses_the_package_under_test(tmp_path):
    """The tests import the package that ``PYTHONPATH`` names, and this
    checkout's when it names none (uninstalled, or installed in editable
    mode); no pytest option of this checkout puts a path ahead of it."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    options = tomllib.loads((root / "pyproject.toml").read_text())["tool"]["pytest"]
    assert "pythonpath" not in options["ini_options"]
    copy = tmp_path / "src" / "beliefgraph"
    shutil.copytree(root / "src" / "beliefgraph", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))

    def header(**pythonpath):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "--co", "-p", "no:cacheprovider",
             str(root / "tests" / "test_readme.py")],
            cwd=root, env={**env, **pythonpath}, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        return re.search(r"^beliefgraph: (.*)$", result.stdout, re.M)[1]

    assert header(PYTHONPATH=str(copy.parent)) == str(copy.resolve())
    assert header() == str(root / "src" / "beliefgraph")
