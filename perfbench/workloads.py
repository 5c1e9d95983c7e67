"""The four benchmark workloads: deriv-long, variational, solve and cli.

Cases come in rounds. A round holds one case of every stratum of its
workload (grid size, jet order, Lagrangian, solver regime or CLI command) in
an order drawn from the seed, and the continuous parameters of each case are
drawn from the seed and the case index. A run does whole rounds, so every
run does the same mix of work and only the drawn values change with the
seed. The library sees only the generated inputs.

Every case is checked against a reference from `refs`, never against
fracvar itself. A check returns (label, normalized error, tolerance)
triples; a case passes when every error is finite and within tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from time import perf_counter

import numpy as np

from fracvar import FODE2, FracOrder, JetPoint, MultiTermFDE, SampledPath, Side, Variant

import refs
from refs import PowerSum, rgamma

# Seed-stream keys for inputs outside the numbered cases.
WARMUP_KEY, PROBE_KEY = 1_000_003, 1_000_033

RES_TOL = 5e-2  # stationarity residuals: first-order composition of two operators
GRID_TOL = 1e-2  # one first-order operator or solver on a fine grid


def _norm_err(values, ref, scale=None) -> float:
    values = np.asarray(values, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    denom = float(np.max(np.abs(ref))) if scale is None else float(np.max(scale))
    if values.shape != ref.shape or not np.all(np.isfinite(values)) or denom == 0.0:
        return math.inf
    return float(np.max(np.abs(values - ref))) / denom


def plate_forcing(t: float) -> float:
    """Forcing for which x = t**3 solves x'' + D^(3/2) x + x = f.

    Scalar form, for the library's per-node callbacks; `PLATE_FORCING` is
    the same function as a power sum, for the references."""
    return 6.0 * t + 6.0 / math.gamma(2.5) * t**1.5 + t**3


PLATE_FORCING = PowerSum([(6.0, 1.0), (6.0 / math.gamma(2.5), 1.5), (1.0, 3.0)])


def _degenerate_alpha() -> float:
    """The alpha where 1/Gamma(1+a) = 1/Gamma(1+2a) (power-law-mixed rejects it)."""
    lo, hi = 0.2, 0.4
    f = lambda a: 1.0 / math.gamma(1 + a) - 1.0 / math.gamma(1 + 2 * a)  # noqa: E731
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(lo) * f(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


PLM_DEGENERATE = _degenerate_alpha()
# Largest alpha per order-k family so the target equation is at most of
# order two (2 k alpha <= 2), the regime the catalog is built for.
ORDER_K_ALPHA_MAX = {1: 0.95, 2: 0.5, 3: 1.0 / 3.0}


def _shift(v):
    """v moved away from zero by 10% of |v| plus 0.1, so no value is left unchanged."""
    return v * 1.1 + np.copysign(0.1, v)


def perturb(out):
    """A deliberately wrong copy of a case output, for the self-check."""
    if isinstance(out, (np.ndarray, float)):
        return _shift(out)
    if isinstance(out, list):
        return [perturb(v) for v in out]
    if isinstance(out, dict):
        return {k: (v if k == "excluded" else perturb(v)) for k, v in out.items()}
    raise TypeError(f"cannot perturb {type(out).__name__}")


def _perturb_cell(cell: str) -> str:
    return re.sub(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?", lambda m: repr(float(_shift(float(m.group())))), cell)


def perturb_table(text: str) -> str:
    """The same CLI table with every number in its data cells changed."""
    if text.startswith("{"):
        payload = json.loads(text)
        payload["rows"] = [[float(_shift(c)) if isinstance(c, float) else _perturb_cell(c) for c in row]
                           for row in payload["rows"]]
        return json.dumps(payload) + "\n"
    header, *rows = text.rstrip("\n").split("\n")
    return "\n".join([header] + [",".join(_perturb_cell(c) for c in row.split(",")) for row in rows]) + "\n"


class Workload:
    name = ""
    # Seconds one round of cases takes at the seed commit on the reference
    # machine (2-vCPU Xeon, one BLAS thread). A run does the whole number of
    # rounds nearest to --seconds at that rate, so a seed and a --seconds
    # value fix the cases on every commit and every run does the same work.
    round_seconds: float

    def __init__(self, seed: int, toy: bool, workdir: str) -> None:
        self.seed = seed
        self.toy = toy
        self.workdir = workdir
        self.strata: tuple = ()

    @property
    def round_size(self) -> int:
        return len(self.strata)

    def cases_for(self, seconds: float) -> int:
        rounds = 1 if self.toy else max(1, round(seconds / self.round_seconds))
        return rounds * self.round_size

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def plan(self, i: int) -> dict:
        r, j = divmod(i, self.round_size)
        slot = int(self.rng(r, 7919).permutation(self.round_size)[j])
        stratum = self.strata[slot]
        case = self.draw(self.rng(i, 1), stratum, r, slot)
        case["index"] = i
        case["stratum"] = "/".join(str(v) for v in stratum) if isinstance(stratum, tuple) else stratum
        return case

    def draw(self, rng, stratum, r: int, slot: int) -> dict:
        raise NotImplementedError

    def setup(self, api) -> None:
        """Input generation and warm-up before the timed phase."""

    def prepare(self, case: dict):
        return None

    def run(self, case: dict, inputs, api):
        raise NotImplementedError

    def check(self, case: dict, inputs, out) -> list:
        raise NotImplementedError

    def work(self, case: dict) -> dict:
        """Grid size, per-array bytes and computed history MACs of a case."""
        raise NotImplementedError

    def perturb(self, out):
        return perturb(out)


# ---------------------------------------------------------------------------


class DerivLong(Workload):
    name = "deriv-long"
    round_seconds = 5.6

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        grids = (1025, 2049, 4097) if toy else (8193, 16385, 32769)
        self.strata = tuple((n, k) for n in grids for k in (2, 3, 4))

    def draw(self, rng, stratum, r, slot):
        n, k = stratum
        # Each grid size gets one order from each third of (0.05, 1.95) per
        # round, and every path has one steep term, so the hardest corner
        # (high order, high power, coarsest grid) is sampled in every round.
        third = self.rng(r, 104729, n).permutation(3)[slot % 3]
        mu = 0.05 + 1.9 * (third + rng.uniform()) / 3.0
        terms = [(rng.uniform(-1.0, 1.0), 0.0), (rng.uniform(0.5, 1.5), rng.uniform(4.0, 4.5))]
        for _ in range(int(rng.integers(0, 3))):
            terms.append((rng.uniform(0.5, 1.5), rng.uniform(2.0, 4.0)))
        alpha = rng.uniform(0.05, min(0.95, 1.95 / k))
        return {"n": n, "k": k, "mu": mu, "alpha": alpha, "terms": terms}

    def setup(self, api):
        for n, k in self.strata[:: len(self.strata) // 3]:
            case = self.draw(self.rng(WARMUP_KEY, n), (n, k), 0, 0)
            self.run(case, self.prepare(case), api)

    def prepare(self, case):
        ps, n = PowerSum(case["terms"]), case["n"]
        h = 1.0 / (n - 1)
        t = h * np.arange(n)
        return SampledPath(0.0, h, ps(t)), SampledPath(0.0, h, ps(1.0 - t))

    def run(self, case, inputs, api):
        left, right = inputs
        order = FracOrder(case["mu"])
        d_left = api.frac_deriv(left, order, Side.LEFT)
        d_right = api.frac_deriv(right, order, Side.RIGHT)
        traj = api.lift(left, case["alpha"], case["k"])
        return [d_left.values, d_right.values] + [row[0].values for row in traj.y]

    def check(self, case, inputs, out):
        ps, mu, alpha = PowerSum(case["terms"]), case["mu"], case["alpha"]
        t = inputs[0].times()
        lm, rm = t >= 0.1, t <= 0.9

        def err(values, order, s, scale=1.0):
            ref = ps.caputo(order)
            return _norm_err(values, scale * ref(s), np.abs(scale) * ref.magnitude(s))

        sign = (-1.0) ** math.ceil(mu)
        checks = [("left", err(out[0][lm], mu, t[lm]), GRID_TOL),
                  ("right", err(out[1][rm], mu, 1.0 - t[rm], sign), GRID_TOL)]
        for a in range(1, case["k"] + 1):
            checks.append((f"lift{a}", err(out[1 + a][lm], a * alpha, t[lm],
                                           1.0 / math.gamma(1.0 + a * alpha)), GRID_TOL))
        return checks

    def work(self, case):
        n = case["n"]
        return {"grid": n, "array_bytes": 8 * n, "history_macs": (2 + case["k"]) * n * (n + 1) // 2}


# ---------------------------------------------------------------------------

LAGRANGIANS = ("bagley-torvik", "order1-potential", "order2-potential",
               "order3-potential", "power-law-mixed")


def _cubic(c) -> PowerSum:
    return PowerSum([(cj, float(j)) for j, cj in enumerate(c)])


def _lagrangian_kwargs(case: dict) -> dict:
    p, name = case["params"], case["lagrangian"]
    if name == "bagley-torvik":
        return {"alpha": case["alpha"], "a": p["a"], "b": p["b"], "c": p["c"], "forcing": plate_forcing}
    if name == "power-law-mixed":
        return {"alpha": case["alpha"], "c": p["c"], "gamma_exp": p["gamma_exp"],
                "a1": p["a1"], "a2": p["a2"], "forcing": p["f0"]}
    q = p["q"]
    return {"alpha": case["alpha"], "a1": p["a1"], "a2": p["a2"],
            "potential": lambda t, x: 0.5 * q * x * x, "potential_x": lambda t, x: q * x}


def _damp(k: int, p: dict) -> tuple:
    return {1: (1.0,), 2: (p["a1"], 1.0), 3: (p["a1"], p["a2"], 1.0)}[k]


def _plm_consts(alpha: float, p: dict) -> tuple:
    cp = p["c"] * math.gamma(1 + p["gamma_exp"]) / math.gamma(1 + p["gamma_exp"] - alpha)
    beta = p["a2"] / (1.0 / math.gamma(1 + alpha) - 1.0 / math.gamma(1 + 2 * alpha))
    return cp, beta


def classical_terms(name: str, alpha: float, p: dict, x: PowerSum, t: np.ndarray) -> list:
    """Terms of the classical stationarity residual along x, in closed form.

    Level-a jets are Caputo derivatives of x over Gamma(1 + a alpha); the
    residual differentiates each momentum by the Riemann-Liouville operator
    of order a alpha, so every term is RL^(b2) Caputo^(b1) of a power sum.
    """
    comp = lambda b1, b2: x.caputo(b1).rl(b2)(t)  # noqa: E731
    if name == "bagley-torvik":
        return [p["c"] * x(t), -PLATE_FORCING(t), p["b"] * comp(3 * alpha, 3 * alpha),
                p["a"] * comp(4 * alpha, 4 * alpha)]
    if name == "power-law-mixed":
        cp, beta = _plm_consts(alpha, p)
        return [cp * p["f0"] * x(t) ** (p["gamma_exp"] - alpha),
                p["a1"] * comp(alpha, alpha),
                -beta / math.gamma(1 + 2 * alpha) * comp(2 * alpha, alpha),
                beta / math.gamma(1 + alpha) * comp(alpha, 2 * alpha)]
    k = int(name[5])
    return [p["q"] * x(t)] + [d * comp(a * alpha, a * alpha)
                              for a, d in enumerate(_damp(k, p), start=1)]


def action_terms(name: str, alpha: float, p: dict, x: PowerSum) -> list:
    """Integrals over [0, 1] of each term of L along x, in closed form."""
    y = lambda a: x.caputo(a * alpha)  # noqa: E731  (unscaled: D^(a alpha) x)
    if name == "bagley-torvik":
        c3, c4 = math.gamma(1 + 3 * alpha), math.gamma(1 + 4 * alpha)
        parts = [(x * x).scale(p["c"] / 2), (PLATE_FORCING * x).scale(-1.0),
                 (y(3) * y(3)).scale(-p["b"] / (2 * c3)), (y(4) * y(4)).scale(p["a"] / (2 * c4))]
        return [s.integral(1.0) for s in parts]
    if name == "power-law-mixed":
        cp, beta = _plm_consts(alpha, p)
        g1, g2 = math.gamma(1 + alpha), math.gamma(1 + 2 * alpha)
        e = 1.0 + p["gamma_exp"] - alpha
        nodes, weights = np.polynomial.legendre.leggauss(64)
        tq = 0.5 * (nodes + 1.0)
        power_term = 0.5 * float(np.sum(weights * x(tq) ** e)) * cp / e * p["f0"]
        parts = [(y(1) * y(1)).scale(-p["a1"] / (2 * g1)), (y(1) * y(2)).scale(beta / (g1 * g2))]
        return [power_term] + [s.integral(1.0) for s in parts]
    k = int(name[5])
    parts = [(x * x).scale(p["q"] / 2)]
    for a, d in enumerate(_damp(k, p), start=1):
        parts.append((y(a) * y(a)).scale((-1.0) ** a * d / (2 * math.gamma(1 + a * alpha))))
    return [s.integral(1.0) for s in parts]


def fractional_terms(name: str, alpha: float, p: dict, x: PowerSum, n: int) -> list:
    """Terms of the fractional-variant residual at the nodes of an n-point grid.

    Fractional partials of the catalog's polynomial Lagrangians follow from
    the power rule in closed form; the outer time derivative of each
    momentum is taken on a 64 times finer grid (`refs.gl_rl_fine`).
    """
    t = np.linspace(0.0, 1.0, n)
    g1, g2 = math.gamma(2 - alpha), math.gamma(3 - alpha)
    ys = {a: (lambda tt, a=a: np.maximum(x.caputo(a * alpha)(tt), 0.0) / math.gamma(1 + a * alpha))
          for a in range(1, 5)}
    xt = x(t)
    if name == "bagley-torvik":
        c3, c4 = math.gamma(1 + 3 * alpha), math.gamma(1 + 4 * alpha)
        px = p["c"] * xt ** (2 - alpha) / g2 - PLATE_FORCING(t) * xt ** (1 - alpha) / g1
        mom = {3: lambda tt: -p["b"] * c3 * ys[3](tt) ** (2 - alpha) / g2,
               4: lambda tt: p["a"] * c4 * ys[4](tt) ** (2 - alpha) / g2}
    elif name == "power-law-mixed":
        cp, beta = _plm_consts(alpha, p)
        gm = p["gamma_exp"]
        cpp = cp / (1.0 + gm - alpha)
        px = (cpp * p["f0"] * math.gamma(2 + gm - alpha) / math.gamma(2 + gm - 2 * alpha)
              * xt ** (1 + gm - 2 * alpha))
        c1 = math.gamma(1 + alpha)
        mom = {1: lambda tt: (-p["a1"] * c1 * ys[1](tt) ** (2 - alpha) / g2
                              + beta * ys[2](tt) * ys[1](tt) ** (1 - alpha) / g1),
               2: lambda tt: beta * ys[1](tt) * ys[2](tt) ** (1 - alpha) / g1}
    else:
        k = int(name[5])
        px = p["q"] * xt ** (2 - alpha) / g2
        mom = {a: (lambda tt, a=a, d=d: (-1.0) ** a * d * math.gamma(1 + a * alpha)
                   * ys[a](tt) ** (2 - alpha) / g2)
               for a, d in enumerate(_damp(k, p), start=1)}
    return [px] + [(-1.0) ** a * refs.gl_rl_fine(fn, 1.0, a * alpha, n) for a, fn in mom.items()]


class Variational(Workload):
    name = "variational"
    round_seconds = 8.9

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.grids = (257, 513) if toy else (1025, 2049)
        self.coarse = 33  # the jet check's tolerance is set for this grid
        # A case is one of three tasks: the classical check of a path (lift,
        # el_residual and action), the fractional-variant residual on the
        # coarse grid, or the explicit field of the order-1 potential at one
        # point. Every Lagrangian appears in the first two tasks. A case costs
        # about k N (k jet levels), so the two k = 2 Lagrangians get more
        # cases than the others where they form a block of equal cost:
        # - classical at grids[1]: order2 and power-law-mixed four times
        #   each, with twelve cheaper and twelve dearer cases per round
        #   around them, so the median lies in the middle of the block;
        # - fractional: the same two twice each, so the tail (ten cases
        #   beyond it, over two rounds) lies inside them.
        # A median or tail that fell between two costs moved by a quarter
        # from seed to seed.
        weight = {"order2-potential": 4, "power-law-mixed": 4}
        self.strata = tuple(("classical", lag, self.grids[0]) for lag in LAGRANGIANS for _ in (0, 1))
        self.strata += tuple(("classical", lag, self.grids[1]) for lag in LAGRANGIANS
                             for _ in range(weight.get(lag, 2)))
        self.strata += tuple(("fractional", lag, self.coarse) for lag in LAGRANGIANS
                             for _ in range(weight.get(lag, 2) // 2))
        self.strata += (("explicit", "order1-potential", 1),)

    def draw(self, rng, stratum, r, slot):
        task, lag, n = stratum
        # The larger classical grid and every fractional case take the hardest
        # inputs of each Lagrangian: alpha in the top quarter of its range and
        # a path whose curvature is large against its constant. The worst
        # error of a run then comes from these corner cases on every seed
        # instead of from whichever draw happened to land there.
        hard = task == "fractional" or n == self.grids[1]
        top = (lambda lo, hi: rng.uniform(lo + 0.75 * (hi - lo), hi)) if hard else rng.uniform
        if hard:
            c = [rng.uniform(1.0, 1.2), rng.uniform(0.5, 1.0), rng.uniform(0.6, 1.0), rng.uniform(0.8, 1.0)]
        else:
            c = [rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)]
        if lag == "bagley-torvik":
            alpha = top(0.2, 0.3)
            params = {"a": rng.uniform(0.5, 1.5), "b": rng.uniform(0.5, 1.5), "c": rng.uniform(0.5, 1.5)}
        elif lag == "power-law-mixed":
            c[1] = 0.0  # the mixed-order identity needs x'(0) = 0
            alpha = top(0.05, 0.95)
            while abs(alpha - PLM_DEGENERATE) < 0.03:
                alpha = top(0.05, 0.95)
            params = {"c": rng.uniform(0.5, 1.5), "gamma_exp": rng.uniform(0.5, 2.0),
                      "a1": rng.uniform(0.5, 1.5), "a2": rng.uniform(0.5, 1.5),
                      "f0": rng.uniform(0.5, 1.5)}
        else:
            alpha = top(0.05, ORDER_K_ALPHA_MAX[int(lag[5])])
            params = {"q": rng.uniform(0.3, 1.0), "a1": rng.uniform(0.0, 1.0), "a2": rng.uniform(0.0, 1.0)}
        case = {"task": task, "lagrangian": lag, "n": n, "alpha": alpha, "params": params, "c": c}
        if task == "explicit":
            case["point"] = (rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.5))
        return case

    def setup(self, api):
        for lag in LAGRANGIANS:
            case = self.draw(self.rng(WARMUP_KEY, len(lag)), ("classical", lag, self.grids[0]), 0, 0)
            self.run(case, self.prepare(case), api)
        case = self.draw(self.rng(WARMUP_KEY, 0), ("fractional", "order1-potential", self.coarse), 0, 0)
        self.run(case, self.prepare(case), api)

    def prepare(self, case):
        if case["task"] == "explicit":
            return None
        return SampledPath.from_function(_cubic(case["c"]), 0.0, 1.0, case["n"])

    def run(self, case, path, api):
        lag = api.make_lagrangian(case["lagrangian"], **_lagrangian_kwargs(case))
        if case["task"] == "explicit":
            t, xv, yv = case["point"]
            return {"explicit": api.el_explicit_rhs(lag, JetPoint.scalar(t, xv, [yv]))[0]}
        traj = api.lift(path, case["alpha"], lag.k)
        if case["task"] == "fractional":
            rep = api.el_residual(lag, traj, Variant.FRACTIONAL)
            return {"fractional": rep.residual[0].values, "excluded": rep.excluded,
                    "jets": [row[0].values for row in traj.y]}
        rep = api.el_residual(lag, traj)
        return {"residual": rep.residual[0].values, "excluded": rep.excluded,
                "action": api.action(lag, traj)}

    def check(self, case, path, out):
        name, alpha, p = case["lagrangian"], case["alpha"], case["params"]
        if case["task"] == "explicit":
            _, xv, _ = case["point"]
            ref = -p["q"] * xv ** (2 - alpha) / (math.gamma(3 - alpha) * math.gamma(1 + alpha))
            return [("explicit", abs(out["explicit"] - ref) / abs(ref), 1e-2)]
        x, n, ex = _cubic(case["c"]), case["n"], out["excluded"]
        t = path.times()
        if case["task"] == "fractional":
            terms = fractional_terms(name, alpha, p, x, n)
            sl = slice(max(ex, math.ceil(0.1 * (n - 1))), n - ex)
            checks = [("fractional", _norm_err(out["fractional"][sl], sum(terms)[sl],
                                               sum(np.abs(v) for v in terms)[sl]), FRAC_TOL)]
            m = t >= 0.1
            for a, y in enumerate(out["jets"], start=1):
                ref = x.caputo(a * alpha).scale(1.0 / math.gamma(1.0 + a * alpha))
                checks.append((f"jet{a}", _norm_err(y[m], ref(t[m]), ref.magnitude(t[m])), JET_TOL))
            return checks
        mask = t >= 0.1
        mask[:ex] = False
        mask[n - ex:] = False
        terms = classical_terms(name, alpha, p, x, t[mask])
        checks = [("residual", _norm_err(out["residual"][mask], sum(terms),
                                         sum(np.abs(v) for v in terms)), RES_TOL)]
        parts = action_terms(name, alpha, p, x)
        scale = max(sum(abs(v) for v in parts), 1e-300)
        checks.append(("action", abs(out["action"] - sum(parts)) / scale, GRID_TOL))
        return checks

    def work(self, case):
        n = case["n"]  # 1 for the explicit field, which takes a single jet point
        return {"grid": n, "array_bytes": 8 * n}


# Coarse-grid fractional residuals: two first-order operators at h = 1/32.
# Their own error reaches 0.05, so this check resolves only gross errors; a
# 10% change of the output can pass it. The jets of the same case are checked
# to JET_TOL: first-order GL at h = 1/32 errs by at most 0.029 over 300 drawn
# hard cases, and the self-check's perturbation moves them by at least 0.09.
FRAC_TOL = 0.25
JET_TOL = 0.06


# ---------------------------------------------------------------------------


def manufactured_cubic(terms, c0):
    """Forcing for which x = t**3 solves sum c D^mu x + c0 x = f, zero history."""
    parts = [(c * 6.0 * rgamma(4.0 - mu), 3.0 - mu) for c, mu in terms] + [(c0, 3.0)]

    def forcing(t: float) -> float:
        return sum(k * t**p for k, p in parts)

    return forcing


class Solve(Workload):
    name = "solve"
    round_seconds = 1.55

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        hs = (2.0**-10, 2.0**-11) if toy else (2.0**-12, 2.0**-13)
        ns = (1024, 2048) if toy else (4096, 8192)
        # Thirteen strata in three cost groups: four short solves (h = hs[0]
        # or N = ns[0]), six of about the same cost (two-term solves at
        # hs[1] and four FODE2 at ns[1]), and three three-term solves at
        # hs[1]. The median case lies in the middle of the six and the tail
        # inside the three, each several cases away from a group boundary.
        # With eleven strata the median sat on the low edge of one group and
        # moved with its spread (quartile spread 0.3 over seeds).
        self.strata = (tuple((kind, hs[0]) for kind in ("bt-classical", "bt-fractional", "business-cycle"))
                       + (("fode2", 1.0 / ns[0]),)
                       + (("bt-classical", hs[1]), ("bt-fractional", hs[1]))
                       + (("fode2", 1.0 / ns[1]),) * 4
                       + (("business-cycle", hs[1]),) * 3)

    def draw(self, rng, stratum, r, slot):
        kind, h = stratum
        if kind == "fode2":
            return {"kind": kind, "h": h, "alpha": rng.uniform(0.3, 1.0), "lam": rng.uniform(0.5, 4.0)}
        if kind == "bt-classical":
            orders = (2.0, 1.5)
        elif kind == "bt-fractional":
            a = rng.uniform(0.1, 0.375)
            orders = (8 * a, 6 * a)
        else:
            a = rng.uniform(0.1, 0.5)
            orders = (6 * a, 4 * a, 2 * a)
        coefs = [1.0] + [rng.uniform(0.2, 1.0) for _ in orders[1:]]
        return {"kind": kind, "h": h, "terms": list(zip(coefs, orders)), "c0": rng.uniform(0.2, 1.0)}

    def setup(self, api):
        for stratum in self.strata[1::2]:
            case = self.draw(self.rng(WARMUP_KEY, len(stratum[0])), stratum, 0, 0)
            self.run(case, None, api)

    def run(self, case, inputs, api):
        if case["kind"] == "fode2":
            lam = case["lam"]
            fode = FODE2(case["alpha"], lambda t, x, v: -lam * x, 1.0, 0.0, 1.0)
            return api.solve_fode2(fode, case["h"]).solution.values
        fde = MultiTermFDE(tuple(case["terms"]), case["c0"],
                           manufactured_cubic(case["terms"], case["c0"]), 1.0)
        return api.solve_multiterm(fde, case["h"]).solution.values

    def check(self, case, inputs, out):
        n = int(round(1.0 / case["h"])) + 1
        t = case["h"] * np.arange(n)
        if case["kind"] != "fode2":
            return [("t3", _norm_err(out, t**3), GRID_TOL)]
        idx = np.unique(np.linspace(math.ceil(0.1 * (n - 1)), n - 1, 16).astype(int))
        b, lam = 2.0 * case["alpha"], case["lam"]
        ref = np.array([refs.mittag_leffler(b, -lam * t[i] ** b) for i in idx])
        return [("mlf", _norm_err(out[idx], ref), GRID_TOL)]

    def work(self, case):
        n = int(round(1.0 / case["h"])) + 1
        histories = len(case["terms"]) if "terms" in case else 2  # FODE2 keeps x and v
        return {"grid": n, "array_bytes": 8 * n, "history_macs": histories * n * (n + 1) // 2}


# ---------------------------------------------------------------------------

CLI_KINDS = ("deriv-csv", "deriv-config-json", "deriv-right-const", "lift", "el-check",
             "el-check-file", "action", "solve-plate", "solve-linear-config", "mlf", "models")

MODELS_TABLE = {
    ("friction", "classical"): ("fode2", "1"),
    ("friction", "fractional"): ("fode2", "0.999"),
    ("phillips", "classical"): ("multiterm", "2;1"),
    ("phillips", "fractional"): ("fode2", "0.999"),
    ("business-cycle", "classical"): ("multiterm", "3;2;1"),
    ("business-cycle", "fractional"): ("multiterm", "3;2;1"),
    ("bagley-torvik", "classical"): ("multiterm", "2;1.5"),
    ("bagley-torvik", "fractional"): ("multiterm", "2;1.5"),
}

# Full documented domain of `fracvar mlf` (|z| <= 50) on the negative axis,
# probed once per run outside the timed cases; see `mlf_probe`.
MLF_PROBE_ALPHAS = (0.75, 1.0, 1.5, 2.0)


def parse_table(text: str) -> dict:
    """Columns of a CSV or JSON table written by the fracvar CLI."""
    if text.startswith("{"):
        payload = json.loads(text)
        cols, rows = payload["columns"], payload["rows"]
    else:
        lines = text.rstrip("\n").split("\n")
        cols, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    table = {}
    for j, name in enumerate(cols):
        cells = [row[j] for row in rows]
        try:
            table[name] = np.array([float(c) for c in cells])
        except ValueError:
            table[name] = cells
    return table


def _r(v: float) -> str:
    return repr(float(v))


class Cli(Workload):
    name = "cli"
    round_seconds = 2.4

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.strata = CLI_KINDS
        self.in_process = False
        big = 2049 if toy else 16385
        mid = 1025 if toy else 4097
        small = 257 if toy else 1025
        self.sizes = {"deriv-csv": big, "deriv-config-json": mid, "deriv-right-const": small,
                      "lift": mid, "el-check": small, "el-check-file": small, "action": small}
        self.h = 2.0**-11
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.files: list = []
        self.output_bytes = 0

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def setup(self, api):
        rng = self.rng(WARMUP_KEY, 0)
        n = self.sizes["el-check-file"]
        t = np.linspace(0.0, 1.0, n)
        for f in range(3):
            c = [rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)]
            rows = "".join(f"{_r(tj)},{_r(xj)}\n" for tj, xj in zip(t, _cubic(c)(t)))
            self.files.append((self._write(f"path{f}.csv", "t,x\n" + rows), c))
        for i in range(2):
            case = self.plan(i)
            self.run(case, self.prepare(case), api)

    def draw(self, rng, kind, r, slot):
        n = self.sizes.get(kind)
        fmt = str(rng.choice(["csv", "json"]))
        case = {"kind": kind, "n": n}
        if kind.startswith("deriv"):
            mu = rng.uniform(0.05, 1.95)
            case["mu"] = mu
            if kind == "deriv-right-const":
                case["cval"] = rng.uniform(-2.0, 2.0)
                argv = ["deriv", "--alpha", _r(mu), "--side", "right", "--fn", "const",
                        "--cval", _r(case["cval"]), "--grid", f"0:1:{n}"]
            else:
                case["g"] = rng.uniform(2.0, 4.5)
                cfg = {"alpha": mu, "fn": "pow", "gamma": case["g"], "grid": f"0:1:{n}"}
                if kind == "deriv-csv":
                    argv = ["deriv"] + [s for k, v in cfg.items() for s in (f"--{k}", str(v))]
                else:
                    case["config"] = dict(cfg, format="json")
                    argv = ["deriv", "--config", None]
        elif kind == "lift":
            k = int(rng.integers(1, 4))
            case.update(k=k, alpha=rng.uniform(0.05, min(0.95, 1.95 / k)), g=rng.uniform(2.0, 4.5))
            argv = ["lift", "--alpha", _r(case["alpha"]), "--k", str(k), "--fn", "pow",
                    "--gamma", _r(case["g"]), "--grid", f"0:1:{n}", "--format", fmt]
        elif kind in ("el-check", "el-check-file", "action"):
            k = int(rng.integers(1, 4)) if kind != "el-check-file" else 1
            lag = f"order{k}-potential"
            if kind == "action" and rng.uniform() < 0.4:
                lag = "bagley-torvik"
            if lag == "bagley-torvik":
                alpha = rng.uniform(0.2, 0.3)
                params = {"a": rng.uniform(0.5, 1.5), "b": rng.uniform(0.5, 1.5), "c": rng.uniform(0.5, 1.5)}
                flags = ["--a", _r(params["a"]), "--b", _r(params["b"]), "--c", _r(params["c"])]
            else:
                alpha = rng.uniform(0.05, ORDER_K_ALPHA_MAX[k])
                params = {"q": rng.uniform(0.3, 1.0), "a1": rng.uniform(0.0, 1.0), "a2": rng.uniform(0.0, 1.0)}
                flags = ["--a1", _r(params["a1"]), "--a2", _r(params["a2"]),
                         "--potential-quadratic", _r(params["q"])]
            case.update(lagrangian=lag, alpha=alpha, params=params)
            argv = [kind.replace("-file", ""), "--lagrangian", lag, "--alpha", _r(alpha)] + flags
            if kind == "el-check-file":
                case["file"] = int(rng.integers(0, 3))
                argv += ["--from-file", None]
            else:
                case["g"] = rng.uniform(2.0, 4.5)
                argv += ["--fn", "pow", "--gamma", _r(case["g"]), "--grid", f"0:1:{n}"]
            if kind == "el-check":
                argv += ["--format", "json"]
        elif kind == "solve-plate":
            variant = str(rng.choice(["classical", "fractional"]))
            # The catalog's forcing fixes this problem, so its error is the same
            # on every run; at 4 h it is the workload's largest, which keeps
            # accuracy_err from hopping between the randomly drawn checks.
            case["n"] = int(round(0.25 / self.h)) + 1
            argv = ["solve", "--model", "bagley-torvik", "--variant", variant, "--h", _r(4.0 * self.h),
                    "--format", fmt]
            if variant == "fractional":
                argv += ["--alpha", "0.25"]
        elif kind == "solve-linear-config":
            case.update(alpha=rng.uniform(0.3, 1.0), lam=rng.uniform(0.5, 4.0),
                        n=int(round(1.0 / self.h)) + 1)
            case["config"] = {"variant": "fractional", "alpha": case["alpha"], "a1": 0.0, "f": 0.0,
                              "b1": case["lam"], "x0": 1.0, "v0": 0.0, "t_end": 1.0, "h": self.h,
                              "format": "json"}
            argv = ["solve", "--model", "phillips", "--config", None]
        elif kind == "mlf":
            case.update(alpha=rng.uniform(0.6, 2.0), z=rng.uniform(0.0, 50.0))
            argv = ["mlf", "--alpha", _r(case["alpha"]), "--z", _r(case["z"]), "--format", fmt]
        else:
            argv = ["models", "list", "--format", fmt]
        case["argv"] = argv
        return case

    def prepare(self, case):
        argv = list(case["argv"])
        if None in argv:
            if "config" in case:
                path = self._write(f"config{case['index'] % 4}.json", json.dumps(case["config"]))
            else:
                path = self.files[case["file"]][0]
            argv[argv.index(None)] = path
        return argv

    def run(self, case, argv, api):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = api.cli_main(argv)
            text = buf.getvalue()
            self.output_bytes += len(text.encode("utf-8"))
            return rc, text
        proc = subprocess.run([sys.executable, "-m", "fracvar.cli", *argv], env=self.env,
                              cwd=self.root, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    def check(self, case, argv, out):
        rc, text = out
        if rc != 0:
            return [("exit", math.inf, 0.0)]
        return [(case["kind"], self.table_error(case, parse_table(text)), self.tolerance(case))]

    @staticmethod
    def tolerance(case) -> float:
        kind = case["kind"]
        if kind == "deriv-right-const":
            # exact for orders below one; above, the slope fit of the base
            # Taylor term leaves roundoff amplified by h**-mu
            return 1e-13 * (case["n"] - 1) ** case["mu"]
        if kind == "mlf":
            return 1e-8
        if kind == "models":
            return 0.0
        return RES_TOL if kind.startswith("el-check") else GRID_TOL

    def table_error(self, case, tab) -> float:
        kind = case["kind"]
        if kind == "models":
            got = {(nm, v): (kd, o) for nm, v, kd, o in
                   zip(tab["name"], tab["variant"], tab["kind"], tab["orders"])}
            return 0.0 if got == MODELS_TABLE else math.inf
        if kind == "mlf":
            ref = refs.mittag_leffler(case["alpha"], case["z"])
            return abs(float(tab["value"][0]) - ref) / abs(ref)
        x = (_cubic(self.files[case["file"]][1]) if kind == "el-check-file"
             else PowerSum([(1.0, case.get("g", 1.0))]))
        if kind == "action":
            parts = action_terms(case["lagrangian"], case["alpha"], case["params"], x)
            return abs(float(tab["action"][0]) - sum(parts)) / sum(abs(v) for v in parts)
        t = tab["t"]
        m = t >= 0.1
        if kind == "deriv-right-const":
            return float(np.max(np.abs(tab["value"]))) / abs(case["cval"])
        if kind.startswith("deriv"):
            return _norm_err(tab["value"][m], x.caputo(case["mu"])(t[m]))
        if kind == "lift":
            return max(_norm_err(tab[f"y{a}"][m], x.caputo(a * case["alpha"])(t[m])
                                 / math.gamma(1 + a * case["alpha"]))
                       for a in range(1, case["k"] + 1))
        if kind == "solve-plate":
            return _norm_err(tab["x"], t**3)
        if kind == "solve-linear-config":
            idx = np.unique(np.linspace(math.ceil(0.1 * (len(t) - 1)), len(t) - 1, 16).astype(int))
            b = 2.0 * case["alpha"]
            ref = np.array([refs.mittag_leffler(b, -case["lam"] * t[i] ** b) for i in idx])
            return _norm_err(tab["x"][idx], ref)
        name, alpha, p = case["lagrangian"], case["alpha"], case["params"]
        k = int(name[5])
        ex = math.ceil(k * alpha - 1e-12) + 1
        m[:ex] = False
        m[len(t) - ex:] = False
        terms = classical_terms(name, alpha, p, x, t[m])
        return _norm_err(tab["residual"][m], sum(terms), sum(np.abs(v) for v in terms))

    def perturb(self, out):
        rc, text = out
        return rc, perturb_table(text)

    def work(self, case):
        n = case["n"] or 1  # mlf and models have no grid
        return {"grid": n, "array_bytes": 8 * n}


def mlf_probe(api, seed: int) -> dict:
    """`fracvar mlf` over the negative half of its documented domain |z| <= 50.

    Run through ``cli.main`` in process, outside the timed cases; a non-zero
    exit, a non-finite value or a relative error above 1e-8 is a failure.
    """
    rng = np.random.default_rng([seed, PROBE_KEY])
    points = [(a, -rng.uniform(lo, lo + 25.0)) for a in MLF_PROBE_ALPHAS for lo in (0.0, 25.0)]
    failed = []
    for alpha, z in points:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = api.cli_main(["mlf", "--alpha", _r(alpha), "--z", _r(z)])
        if rc != 0:
            failed.append({"alpha": alpha, "z": z, "exit": rc})
            continue
        value, ref = float(parse_table(buf.getvalue())["value"][0]), refs.mittag_leffler(alpha, z)
        if not abs(value - ref) <= 1e-8 * abs(ref):
            failed.append({"alpha": alpha, "z": z, "value": value, "reference": ref})
    return {"points": len(points), "failed": len(failed), "failures": failed}


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of ``python -c "import fracvar.cli"``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import fracvar.cli"], env=env, cwd=root,
                       check=True, timeout=60)
        times.append(perf_counter() - t0)
    return float(np.median(times))


WORKLOADS = {cls.name: cls for cls in (DerivLong, Variational, Solve, Cli)}
