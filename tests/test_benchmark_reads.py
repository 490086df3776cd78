"""perfbench/workloads.py reads smoea through module attributes
(`P.smoea_prune`, `E.knee_point`, ...) and a few members of its results.
perfbench changes only together with the benchmark, and a name deleted
from smoea breaks only a benchmark run: every name it reads must exist.
These tests only parse perfbench; they import nothing from it."""

import ast
import importlib
from pathlib import Path

import pytest

from smoea.evolution import Individual
from smoea.objectives import ObjectiveVector
from smoea.pipeline import PruneReport

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def module_reads() -> list[tuple[str, str]]:
    """(module, name) of every `<alias>.<name>` in perfbench/workloads.py
    whose alias is bound by `from smoea import <module> as <alias>`."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "smoea"
        for alias in node.names
    }
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


READS = module_reads()


def test_reads_all_six_modules():
    assert {module for module, _ in READS} == {
        "data", "evolution", "network", "objectives", "pipeline", "tensor"
    }


@pytest.mark.parametrize("module, name", READS, ids=[f"{m}.{n}" for m, n in READS])
def test_module_name_exists(module, name):
    assert hasattr(importlib.import_module(f"smoea.{module}"), name)


@pytest.mark.parametrize(
    "cls, member",
    [
        (Individual, "retained"),
        (ObjectiveVector, "as_tuple"),
        (PruneReport, "retained_rates"),
        (PruneReport, "to_dict"),
    ],
)
def test_result_member_exists(cls, member):
    assert hasattr(cls, member)
