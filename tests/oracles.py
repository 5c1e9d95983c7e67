"""Helpers that more than one test module shares: sampled grids and test functions."""

import numpy as np

from fracvar.fracops import SampledPath


def grid_path(fn, h, t0=0.0, t1=1.0):
    """``fn`` sampled on [t0, t1] at step h."""
    n = int(round((t1 - t0) / h)) + 1
    return SampledPath.from_function(fn, t0, t1, n)


def smooth_bump(center, width):
    """exp(-1 / (1 - u**2)) for |u| < 1, u = (t - center) / width, else 0: smooth, compact support."""
    def fn(t):
        u = (np.asarray(t) - center) / width
        out = np.zeros_like(u, dtype=np.float64)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    return fn
