"""The package names that the benchmark under bench/ reads must resolve, so
that deleting or renaming one fails this suite, not only the benchmark's own
runs. bench/ is read here, never imported as a whole: the tracer module needs
only the standard library, and the workloads and models are scanned as source.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import waylimit
import waylimit.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def _package_chains(path: Path) -> set:
    """Each outermost attribute chain read from the package object, which the
    benchmark names ``w`` (or ``self.w``): ``w.cli.main`` gives ("cli", "main")."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" and names[0] == "w":
            names = names[1:]
        elif not (isinstance(node, ast.Name) and node.id == "w"):
            continue
        if names:
            chains.add(tuple(names))
    return chains


def test_every_traced_name_resolves():
    for layer, attrs in _traced().items():
        module = importlib.import_module(f"waylimit.{layer}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(module, cls_name)), f"{layer}.{attr}"
            else:
                assert callable(getattr(module, attr, None)), f"{layer}.{attr}"


@pytest.mark.parametrize("name", ["workloads.py", "models.py"])
def test_every_package_name_the_benchmark_reads_resolves(name):
    chains = _package_chains(BENCH / name)
    assert chains
    for chain in sorted(chains):
        value = waylimit
        for attr in chain:
            assert hasattr(value, attr), f"{name}: w.{'.'.join(chain)}"
            value = getattr(value, attr)
