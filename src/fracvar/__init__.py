"""Fractional derivatives, jet lifts, variational residuals, and FDE solvers.

Everything operates on uniformly sampled paths with convolution-weight
discretizations, so derivative, lift, residual, and solver outputs compose
consistently. See the README for conventions (base-node handling, interior
norms, coefficient sets). The package exports every public name of
`specfun`, `fracops`, `jet`, `varcalc` and `fodesolve`, as listed in each
module's ``__all__``.
"""

__version__ = "0.1.0"

from .specfun import *  # noqa: F401,F403
from .fracops import *  # noqa: F401,F403
from .jet import *  # noqa: F401,F403
from .varcalc import *  # noqa: F401,F403
from .fodesolve import *  # noqa: F401,F403
from . import fodesolve, fracops, jet, specfun, varcalc

__all__ = ["__version__"] + [
    name for module in (specfun, fracops, jet, varcalc, fodesolve) for name in module.__all__
]
