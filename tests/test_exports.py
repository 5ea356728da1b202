"""The public API keeps only names a program path calls: the package's own modules, the
acceptance criteria or the benchmark's workloads. Importing it, or running a command that
needs less, loads only what is used."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gqdkit

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [p for p in sorted((ROOT / "src" / "gqdkit").glob("*.py")) if p.name != "__init__.py"] + [
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "perfbench" / "workloads.py",
]


def loaded_names(path):
    # every name read as a Name or as an Attribute; an import binds a name and reads none
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller():
    loaded = set().union(*map(loaded_names, CALLERS))
    assert sorted(set(gqdkit.__all__) - loaded) == []


def module_literal(path, name):
    """The literal assigned to `name` at the top level of `path`, read without running the file."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_every_traced_and_pinned_name_is_a_gqdkit_function():
    # the benchmark's traced run wraps TRACED's functions and pins per-op calls of EXPECTED_CALLS's:
    # retiring or renaming one of them fails here, not only in a traced benchmark run
    traced = module_literal(ROOT / "perfbench" / "tracing.py", "TRACED")
    names = {f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns}
    for calls in module_literal(ROOT / "perfbench" / "worker.py", "EXPECTED_CALLS").values():
        names |= set(calls)
    assert len(names) >= 14
    for name in sorted(names):
        mod, fn = name.split(".")
        func = getattr(importlib.import_module(f"gqdkit.{mod}"), fn, None)
        assert callable(func) and func.__module__ == f"gqdkit.{mod}", name


def test_every_test_the_workflow_names_is_defined():
    # the CI workflow's comments name the tests a job exists to run: renaming or retiring one of
    # them fails here, not only when someone reads the workflow
    cited = set(re.findall(r"\btest_\w+", (ROOT / ".github" / "workflows" / "tier1.yml").read_text()))
    defined = {node.name for path in (ROOT / "tests").glob("test_*.py")
               for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.FunctionDef)}
    assert len(cited) >= 4
    assert sorted(cited - defined) == []


def test_a_star_import_binds_every_exported_name():
    namespace = {}
    exec("from gqdkit import *", namespace)
    assert sorted(set(gqdkit.__all__) - set(namespace)) == []


def run_python(code):
    """Run `code` in a fresh interpreter with src/ on the path, so its imports start from none."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_submodule_and_no_numpy():
    run_python(
        "import sys, gqdkit; assert set(gqdkit.__all__) <= set(dir(gqdkit)); "
        "assert 'numpy' not in sys.modules; "
        "assert [m for m in sys.modules if m.startswith('gqdkit.')] == []"
    )


@pytest.mark.parametrize(
    "argv, code",
    [(["layouts"], 0), (["layouts", "--name", "P11"], 0), (["layouts", "--frobnicate"], 2)],
    ids=["all", "one", "argparse-error"],
)
def test_layouts_runs_without_numpy(argv, code):
    run_python(f"import sys; from gqdkit.cli import main; assert main({argv!r}) == {code}; "
               "assert 'numpy' not in sys.modules")


def test_exact_loads_only_statekit_and_gqd_core():
    run_python(
        "import sys; from gqdkit.cli import main; "
        "assert main(['exact', '--family', 'werner', '--params', '0.5']) == 0; "
        "loaded = {m for m in sys.modules if m.startswith('gqdkit.')}; "
        "assert loaded == {'gqdkit.cli', 'gqdkit.errors', 'gqdkit.statekit', 'gqdkit.gqd_core'}, loaded"
    )
