"""The package namespace: every module's public names, each once; and its import layers."""

import ast
import sys
from pathlib import Path

import fracvar
from fracvar import fodesolve, fracops, jet, specfun, varcalc

# The package modules each library module imports: Lagrangians give
# equations, which the solvers take, and specfun needs no numpy.
LAYERS = {
    "specfun": set(),
    "fracops": {"specfun"},
    "jet": {"fracops", "specfun"},
    "fodesolve": {"fracops"},
    "varcalc": {"fracops", "jet", "specfun", "fodesolve"},
}


def imports(name):
    """(package modules, top-level outside modules) that fracvar.``name`` imports."""
    tree = ast.parse((Path(fracvar.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    inside, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            inside.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            outside.update(a.name.split(".")[0] for a in node.names)
    return inside, outside


def test_package_exports_every_module_name_once():
    modules = (specfun, fracops, jet, varcalc, fodesolve)
    for module in modules:
        for name in module.__all__:
            assert getattr(fracvar, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert len(fracvar.__all__) == len(set(fracvar.__all__))
    assert set(fracvar.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))


def test_library_modules_import_only_their_layers():
    assert {name: imports(name)[0] for name in LAYERS} == LAYERS
    assert imports("specfun")[1] <= sys.stdlib_module_names
