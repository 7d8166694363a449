"""The package's public surface: every exported name, served lazily."""

import ast
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import beliefgraph
from beliefgraph import errors
from conftest import run_python

SUBMODULES = [
    importlib.import_module(f"beliefgraph.{info.name}")
    for info in pkgutil.iter_modules(beliefgraph.__path__)
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


HOT_MODULES = ["maxsat", "model", "reasoner", "metrics", "dot"]


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


def test_only_the_entry_point_touches_the_process():
    """`cli.run` is the one caller of ``gc.freeze``; nothing calls ``os._exit``,
    which would skip atexit handlers and the ``-X dev`` checks at exit."""
    package = Path(beliefgraph.__file__).parent
    calls = sorted(
        f"{path.name}:{getattr(top, 'name', '<module>')}: {name}"
        for path in sorted(package.glob("*.py"))
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "attr", getattr(node.func, "id", None)))
        in ("freeze", "_exit")
    )
    assert calls == ["cli.py:run: freeze"]
