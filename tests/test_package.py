"""The package namespace: every module's public names, each once."""

import fracvar
from fracvar import fodesolve, fracops, jet, specfun, varcalc


def test_package_exports_every_module_name_once():
    modules = (specfun, fracops, jet, varcalc, fodesolve)
    for module in modules:
        for name in module.__all__:
            assert getattr(fracvar, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert len(fracvar.__all__) == len(set(fracvar.__all__))
    assert set(fracvar.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
