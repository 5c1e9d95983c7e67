"""Independent references for the benchmark's correctness checks.

Nothing here imports fracvar. Closed forms use `math.gamma`; Mittag-Leffler
values are summed in `mpmath` at a precision chosen from the size of the
largest series term, so cancellation cannot hide in the reference.
"""

from __future__ import annotations

import math

import numpy as np


def rgamma(x: float) -> float:
    """1/Gamma(x), zero at the poles."""
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        return 0.0
    return 1.0 / math.gamma(x)


def _is_int(p: float) -> bool:
    return abs(p - round(p)) < 1e-12


class PowerSum:
    """A function sum_i c_i t**p_i, closed under the operators the checks need."""

    def __init__(self, terms):
        self.terms = [(float(c), float(p)) for c, p in terms if c != 0.0]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for c, p in self.terms:
            out = out + (c if p == 0.0 else c * t**p)
        return out

    def magnitude(self, t):
        """sum_i |c_i| t**p_i: the scale against which cancellation is judged."""
        return PowerSum([(abs(c), p) for c, p in self.terms])(t)

    def scale(self, s: float) -> "PowerSum":
        return PowerSum([(s * c, p) for c, p in self.terms])

    def __mul__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum([(c1 * c2, p1 + p2) for c1, p1 in self.terms for c2, p2 in other.terms])

    def caputo(self, mu: float) -> "PowerSum":
        """Caputo derivative: integer powers below ceil(mu) are annihilated."""
        m = math.ceil(mu - 1e-12)
        out = []
        for c, p in self.terms:
            if _is_int(p) and round(p) < m:
                continue
            out.append((c * math.gamma(p + 1.0) * rgamma(p + 1.0 - mu), p - mu))
        return PowerSum(out)

    def rl(self, mu: float) -> "PowerSum":
        """Riemann-Liouville derivative from zero (powers above -1)."""
        return PowerSum(
            [(c * math.gamma(p + 1.0) * rgamma(p + 1.0 - mu), p - mu) for c, p in self.terms]
        )

    def integral(self, t_end: float) -> float:
        return sum(c * t_end ** (p + 1.0) / (p + 1.0) for c, p in self.terms)


def gl_rl_fine(fn, t_end: float, mu: float, coarse: int, refine: int = 64) -> np.ndarray:
    """RL derivative of ``fn`` (with fn(0) = 0) at the nodes of a coarse grid.

    The derivative is taken by the first-order Grunwald-Letnikov sum on a
    grid ``refine`` times finer, written here from the weight recurrence,
    and then sampled at the coarse nodes.
    """
    n = (coarse - 1) * refine + 1
    h = t_end / (n - 1)
    t = h * np.arange(n)
    g = np.asarray(fn(t), dtype=np.float64)
    k = np.arange(1, n, dtype=np.float64)
    w = np.cumprod(np.concatenate(([1.0], 1.0 - (mu + 1.0) / k)))
    d = np.convolve(g, w)[:n] * h ** (-mu)
    return d[::refine]


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) = sum z**k / Gamma(1 + alpha k), summed in mpmath.

    For negative z the working precision is twice the digits of the
    largest term plus 30, which resolves the cancellation of the alternating
    series even where the sum is as small as the largest term is large.
    alpha enters as the exact binary value of the double, as the library
    receives it. mpmath is imported here, at the first check that needs it,
    so that its import is not counted in the benchmark's set-up time.
    """
    import mpmath

    az = abs(z)
    if az == 0.0:
        return 1.0
    digits = 30
    if z < 0.0:
        # log10 of the largest term, from Stirling: about |z|**(1/alpha) / ln 10.
        digits += 2 * int(az ** (1.0 / alpha) / math.log(10.0))
    with mpmath.workdps(digits):
        zz = mpmath.mpf(z)
        aa = mpmath.mpf(alpha)
        total = mpmath.mpf(0)
        k = 0
        tiny = mpmath.mpf(10) ** (-25)
        while True:
            term = zz**k * mpmath.rgamma(aa * k + 1)
            total += term
            if k > 2 and alpha * k > 1.5 * az ** (1.0 / alpha) and abs(term) < tiny * max(abs(total), tiny):
                break
            k += 1
        return float(total)
