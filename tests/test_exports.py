"""The public API keeps only names a program path calls: the package's own modules, the
acceptance criteria or the benchmark's workloads."""

import ast
from pathlib import Path

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


def test_a_star_import_binds_every_exported_name():
    namespace = {}
    exec("from gqdkit import *", namespace)
    assert sorted(set(gqdkit.__all__) - set(namespace)) == []
