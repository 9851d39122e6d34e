"""Import layering of the package, read from the source with ast."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rmtldp"
LEAVES = ("matcore", "rng", "stats")  # the modules the others build on


def package_imports(path: Path) -> set[str]:
    """The dotted rmtldp names path imports anywhere in it, relative ones made
    absolute; a from-import gives its module and each module.name, which may
    be a submodule."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["rmtldp" if node.level else "", node.module]))
            names.update([module, *(f"{module}.{alias.name}" for alias in node.names)])
    return {name for name in names if name.split(".")[0] == "rmtldp"}


IMPORTS = {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("leaf", LEAVES)
def test_leaf_imports_nothing_from_the_package(leaf):
    assert IMPORTS[leaf] == set()


def test_no_module_imports_cli():
    assert {module for module, names in IMPORTS.items() for name in names if name.split(".")[1:2] == ["cli"]} == set()


def test_imports_are_found():
    assert {"rmtldp.rng", "rmtldp.rng.stream", "rmtldp.rates.require_finite"} <= IMPORTS["loggas"]
    assert "rmtldp.__version__" in IMPORTS["cli"]
    assert "rmtldp.stats.wilson_interval" in IMPORTS["randsrc"]  # imported inside a function
