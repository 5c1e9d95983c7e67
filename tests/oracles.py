"""Independent references that more than one test module shares: sampled grids,
test functions, the manufactured plate and the Mittag-Leffler series."""

import math

import mpmath
import numpy as np

from fracvar.fodesolve import MultiTermFDE
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


def plate_fde(t_end=1.0):
    """D^2 x + D^1.5 x + x = f with f manufactured so that x = t^3 solves it."""
    forcing = lambda t: 6.0 * t + 6.0 / math.gamma(2.5) * t**1.5 + t**3
    return MultiTermFDE(
        terms=((1.0, 2.0), (1.0, 1.5)), zero_order_coeff=1.0, forcing=forcing, t_end=t_end
    )


def mittag_leffler_reference(alpha, z):
    """E_alpha(z) = sum_k z**k / Gamma(alpha k + 1) for a float z or elementwise on an array.

    The series is summed in integers scaled by 2**F, F = 100 + 5 R for
    R = max |z|**(1 / alpha): the largest term grows like e^R, below 2**(1.5 R),
    so about 30 digits survive the cancellation on the negative axis. Each
    1 / Gamma(alpha k + 1) comes from mpmath, to 100 + 3 R bits, as an integer
    times a power of two. The sum stops once alpha k > 1.5 R + 10 and the
    largest |z|'s term is below 2**-(100 + 3 R).
    """
    z = np.asarray(z, dtype=np.float64)
    z_max = float(np.max(np.abs(z), initial=0.0))
    reach = z_max ** (1.0 / alpha)
    bits, frac = 100 + int(3 * reach), 100 + int(5 * reach)
    coefficients = []  # (mantissa, exponent) of 1 / Gamma(alpha k + 1)
    with mpmath.workprec(bits):
        while True:
            k = len(coefficients)
            c = mpmath.rgamma(mpmath.mpf(alpha) * k + 1)
            coefficients.append(c.man_exp)
            if alpha * k > 1.5 * reach + 10 and mpmath.mpf(z_max) ** k * c < mpmath.mpf(2) ** -bits:
                break
    ratios = map(float.as_integer_ratio, z.ravel().tolist())
    scaled = np.array([(m << frac) // q for m, q in ratios], dtype=object)
    total, power = 0, np.full(scaled.shape, 1 << frac, dtype=object)
    for man, e in coefficients:  # 1 / Gamma < 2, so e <= 0
        total = total + (power * man >> -e)
        power = power * scaled >> frac
    return np.array([v / (1 << frac) for v in total.tolist()]).reshape(z.shape)[()]
