"""Command-line front end.

Subcommands: deriv, mlf, lift, action, el-check, solve, models. Every
command writes a table (CSV by default, JSON with --format json) to
standard output or to --out. Float cells use 17 significant digits and
lines end with a bare newline, so identical invocations produce
byte-identical artifacts.

Exit status: 0 on success, 2 on invalid arguments or inputs (a ValueError,
from the CLI or the library), 3 when a computation fails numerically
(series overflow, solver divergence, a non-finite value in the table). A
one-line diagnostic goes to the error stream in both failure cases.

Each parameter flag is one keyword of the chosen --fn function, Lagrangian
or model, built by varcalc._build; --potential-quadratic q is the order-k
potentials' potential_quadratic, U = q x**2 / 2. A flag the choice does not
take, or a non-finite value, is a usage error naming it, and so is --fn,
--grid or a function flag beside el-check's --from-file.

--config points at a flat JSON object whose keys are long flag names
(hyphens or underscores). A value comes from an explicit flag first, then
from the config file, then from the flag's built-in default. Each config
value must have its flag's type and lie among its choices.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .fracops import DEFAULT_NPTS, DEFAULT_T0, DEFAULT_T1, FracOrder, SampledPath, Side
from .fracops import _on_grid, frac_deriv
from .jet import lift
from .specfun import ConvergenceError, MLParams, mittag_leffler
from .varcalc import (
    Variant,
    _build,
    action as action_integral,
    el_residual,
    lagrangian_catalog,
    make_lagrangian,
    make_model,
    model_catalog,
)
from .fodesolve import DivergenceError, MultiTermFDE, solve_fode2, solve_multiterm


# Fewest nodes a grid or a sampled input may have.
_MIN_NODES = 9


def _render_csv(table: dict, row: str) -> str:
    return "\n".join([",".join(table), *map(row.format, *table.values())]) + "\n"


def _render_json(table: dict, meta) -> str:
    payload = {"meta": meta, "columns": list(table), "rows": list(zip(*table.values()))}
    return json.dumps(payload, sort_keys=True) + "\n"


def _emit(args, table, meta) -> None:
    """Write ``table``, column name -> 1-D float array or a sequence of strings, and ``meta``."""
    bad_rows = []
    for col in table.values():
        if isinstance(col, np.ndarray):
            finite = np.isfinite(col)
            if not finite.all():
                bad_rows.append(int(finite.argmin()))
    if bad_rows:
        raise FloatingPointError(f"{args.command} output is not finite at row {min(bad_rows)}")
    row = ",".join("{:.17g}" if isinstance(c, np.ndarray) else "{}" for c in table.values())
    table = {name: c.tolist() if isinstance(c, np.ndarray) else c for name, c in table.items()}
    meta = {
        "alpha": None,
        "h": None,
        "scheme": "grunwald-letnikov",
        "version": __version__,
        **meta,
    }
    text = _render_csv(table, row) if args.format == "csv" else _render_json(table, meta)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        t0_s, t1_s, n_s = text.split(":")
        t0, t1, n = float(t0_s), float(t1_s), int(n_s)
    except ValueError as exc:
        raise ValueError(f"grid must look like t0:T:n, got {text!r}") from exc
    if n < _MIN_NODES:
        raise ValueError(f"grid too short: need at least {_MIN_NODES} nodes, got {n}")
    return t0, t1, n


# The built-in functions of --fn, name -> factory of a callable of t.
_FUNCTIONS = {
    "pow": lambda gamma=1.0: lambda t: t**gamma,
    "const": lambda cval=1.0: lambda t: cval,
    "sin": lambda: np.sin,
    "exp": lambda: np.exp,
    "bump": lambda center=0.5, width=0.1: lambda t: np.exp(-(((t - center) / width) ** 2)),
}

_DEFAULT_GRID = f"{DEFAULT_T0:g}:{DEFAULT_T1:g}:{DEFAULT_NPTS}"


def _sample(args) -> SampledPath:
    """The input path: --from-file where given, else --fn (default pow) on --grid."""
    if getattr(args, "from_file", None):
        for name in ("fn", "grid", *args.fn_parameters):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')} cannot be combined with --from-file")
        return _path_from_csv(args.from_file)
    t0, t1, n = _parse_grid(_DEFAULT_GRID if args.grid is None else args.grid)
    fn = _build("function", _FUNCTIONS, args.fn or "pow", **_set_flags(args, args.fn_parameters))
    return SampledPath.from_function(fn, t0, t1, n)


def _path_from_csv(path: str) -> SampledPath:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise ValueError(f"{path} holds no data rows")
    header = [c.strip() for c in lines[0].split(",")]
    try:
        it, ix = header.index("t"), header.index("x")
    except ValueError:
        if len(header) < 2:
            raise ValueError(f"{path} needs columns t and x")
        if _is_number(header[0]) and _is_number(header[1]):
            raise ValueError(f"{path} has no header line: its first line is data, not column names")
        it, ix = 0, 1
    try:
        data = np.array(
            [[float(ln.split(",")[it]), float(ln.split(",")[ix])] for ln in lines[1:]]
        )
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path} has malformed rows: {exc}") from exc
    t, x = data[:, 0], data[:, 1]
    if len(t) < _MIN_NODES:
        raise ValueError(f"sampled input too short: need at least {_MIN_NODES} nodes")
    # The span step: every row must sit on the grid through the first and last rows.
    h = (t[-1] - t[0]) / (len(t) - 1)
    if not _on_grid(t, t[0], h, np.arange(len(t))):
        raise ValueError("sampled input must sit on a uniform time grid")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path} has a non-finite x in data row {np.argmin(np.isfinite(x)) + 1}")
    return SampledPath(float(t[0]), float(h), x)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _set_flags(args, names) -> dict:
    """Keywords of the flags ``names`` that are set; unset ones (None) are left out."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


# Subcommand bodies: each returns its table and the meta fields it sets.


def _cmd_deriv(args) -> tuple[dict, dict]:
    order = FracOrder(args.alpha)
    path = _sample(args)
    out = frac_deriv(path, order, Side(args.side))
    return {"t": out.times(), "value": out.values}, {"alpha": args.alpha, "h": path.h}


def _cmd_mlf(args) -> tuple[dict, dict]:
    params = MLParams(alpha=args.alpha, tol=args.tol, max_terms=args.max_terms)
    value = mittag_leffler(params, args.z)
    return {"value": np.array([value])}, {"alpha": args.alpha}


def _cmd_lift(args) -> tuple[dict, dict]:
    path = _sample(args)
    traj = lift((path,), args.alpha, args.k)
    jets = {f"y{a}": traj.jets[a, 0] for a in range(1, args.k + 1)}
    return {"t": path.times(), "x": path.values, **jets}, {"alpha": args.alpha, "h": path.h}


def _cmd_action(args) -> tuple[dict, dict]:
    lag = make_lagrangian(args.lagrangian, **_set_flags(args, args.parameters))
    path = _sample(args)
    traj = lift((path,), lag.alpha, lag.k)
    value = action_integral(lag, traj)
    return {"action": np.array([value])}, {"alpha": lag.alpha, "h": path.h, "k": lag.k}


def _cmd_el_check(args) -> tuple[dict, dict]:
    lag = make_lagrangian(args.lagrangian, **_set_flags(args, args.parameters))
    if args.coefficients == "literature-fractional" and args.variant == "classical":
        # The classical partial of y**alpha is unbounded at the momentum base
        # point, where the jet levels are zeroed.
        raise ValueError(
            "coefficients 'literature-fractional' raise the jets to the power alpha, whose "
            "classical partial is unbounded at zero jets; use --variant fractional"
        )
    path = _sample(args)
    traj = lift((path,), lag.alpha, lag.k)
    report = el_residual(lag, traj, Variant(args.variant))
    res = report.residual[0]
    meta = {"norm_inf": report.norm_inf, "excluded": report.excluded, "variant": args.variant}
    return {"t": res.times(), "residual": res.values}, {"alpha": lag.alpha, "h": path.h, **meta}


def _cmd_solve(args) -> tuple[dict, dict]:
    problem = make_model(args.model, args.variant, **_set_flags(args, args.parameters))
    h = args.h if args.h is not None else problem.t_end / 1024.0
    report = (solve_multiterm if isinstance(problem, MultiTermFDE) else solve_fode2)(problem, h)
    table = {"t": report.solution.times(), "x": report.solution.values}
    if report.aux is not None:
        table["v"] = report.aux.values
    # The alpha the problem was built with: a FODE2's own; --alpha or the
    # factory's default for fractional multi-term orders; none for classical ones.
    alpha = getattr(problem, "alpha", None)
    if isinstance(problem, MultiTermFDE) and args.variant == "fractional":
        default = inspect.signature(model_catalog()[args.model][1]).parameters["alpha"].default
        alpha = default if args.alpha is None else args.alpha
    meta = {"max_defect": report.max_defect, "model": args.model}
    return table, {"alpha": alpha, "h": h, **meta}


def _cmd_models(args) -> tuple[dict, dict]:
    rows = []
    for name, (description, factory) in model_catalog().items():
        for variant in (v.value for v in Variant):
            problem = factory(variant)
            if isinstance(problem, MultiTermFDE):
                kind, orders = "multiterm", ";".join(f"{mu:g}" for _, mu in problem.terms)
            else:
                kind, orders = "fode2", f"{problem.alpha:g}"
            rows.append((name, variant, kind, orders, description))
    return dict(zip(("name", "variant", "kind", "orders", "description"), zip(*rows))), {}


# Parser construction and config merging.


def _add_common(sp) -> None:
    sp.add_argument("--config", default=None, help="JSON file supplying flag values")
    sp.add_argument("--out", default=None, help="write the table to this file")
    sp.add_argument("--format", default="csv", choices=["csv", "json"])


def _add_parameter_flags(sp, catalog, *made, dest="parameters") -> None:
    """One float flag, None when unset, per float-default parameter of the ``catalog`` factories.

    A flag's help gives each default with the entries that take it. These
    and the flags ``made`` by hand are recorded as ``dest`` (see _set_flags).
    """
    defaults = {}  # name -> default -> entries
    for entry, factory in catalog.items():
        for p in inspect.signature(factory).parameters.values():
            if isinstance(p.default, float):
                defaults.setdefault(p.name, {}).setdefault(p.default, []).append(entry)
    for name, by_default in defaults.items():
        text = "; ".join(f"{d:g} ({', '.join(entries)})" for d, entries in by_default.items())
        sp.add_argument(f"--{name.replace('_', '-')}", type=float, default=None, dest=name,
                        help=f"default {text}")
    sp.set_defaults(**{dest: tuple(defaults) + made})


def _add_fn_flags(sp) -> None:
    sp.add_argument("--fn", default=None, choices=list(_FUNCTIONS), help="default pow")
    _add_parameter_flags(sp, _FUNCTIONS, dest="fn_parameters")
    sp.add_argument("--grid", default=None,
                    help=f"uniform grid t0:T:n (n >= {_MIN_NODES}, default {_DEFAULT_GRID})")


def _add_lagrangian_flags(sp) -> None:
    sp.add_argument("--lagrangian", default="order1-potential")
    sp.add_argument(
        "--coefficients", default=None,
        choices=["normalized", "literature", "literature-fractional"],
    )
    sp.add_argument("--forcing", type=float, default=None, help="constant f (default: the entry's)")
    _add_parameter_flags(sp, lagrangian_catalog(), "coefficients", "forcing")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="fractional derivatives, jet lifts, variational checks, model solving",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    variants = [v.value for v in Variant]

    sp = sub.add_parser("deriv", help="fractional derivative of a built-in function")
    sp.add_argument("--alpha", type=float, default=0.5, help="derivative order (may exceed 1)")
    sp.add_argument("--side", default="left", choices=[s.value for s in Side])
    _add_fn_flags(sp)
    _add_common(sp)
    sp.set_defaults(run=_cmd_deriv)

    sp = sub.add_parser("mlf", help="one-parameter Mittag-Leffler function E_alpha(z)")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--z", type=float, default=0.0)
    sp.add_argument("--tol", type=float, default=MLParams.tol)
    sp.add_argument("--max-terms", type=int, default=MLParams.max_terms, dest="max_terms")
    _add_common(sp)
    sp.set_defaults(run=_cmd_mlf)

    sp = sub.add_parser("lift", help="jet lift of a built-in function")
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--k", type=int, default=1)
    _add_fn_flags(sp)
    _add_common(sp)
    sp.set_defaults(run=_cmd_lift)

    sp = sub.add_parser("action", help="action integral of a catalog Lagrangian")
    _add_lagrangian_flags(sp)
    _add_fn_flags(sp)
    _add_common(sp)
    sp.set_defaults(run=_cmd_action)

    sp = sub.add_parser("el-check", help="stationarity residual along a path")
    _add_lagrangian_flags(sp)
    sp.add_argument("--variant", default="classical", choices=variants)
    sp.add_argument("--from-file", default=None, dest="from_file",
                    help="CSV with columns t,x instead of --fn")
    _add_fn_flags(sp)
    _add_common(sp)
    sp.set_defaults(run=_cmd_el_check)

    sp = sub.add_parser("solve", help="integrate a catalog model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--variant", default="fractional", choices=variants)
    sp.add_argument("--h", type=float, default=None, help="step size (default t_end/1024)")
    sp.add_argument("--forcing", type=float, default=None, help="constant f (default: the entry's)")
    _add_parameter_flags(sp, {n: factory for n, (_, factory) in model_catalog().items()}, "forcing")
    _add_common(sp)
    sp.set_defaults(run=_cmd_solve)

    sp = sub.add_parser("models", help="catalog listing")
    sp.add_argument("action", choices=["list"])
    _add_common(sp)
    sp.set_defaults(run=_cmd_models)

    return parser, sub.choices


def _config_value(key: str, value, action: argparse.Action):
    """A config value as the flag's type, or ValueError where the flag could not take it."""
    kind = action.type or str
    accepted = {float: (str, int, float), int: (str, int)}.get(kind, (str,))
    try:
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError
        converted = kind(value)
    except (ValueError, OverflowError):
        expected = {float: "a number", int: "an integer"}.get(kind, "a string")
        raise ValueError(f"config key {key!r} must be {expected}, got {json.dumps(value)}") from None
    if action.choices is not None and converted not in action.choices:
        known = ", ".join(map(str, action.choices))
        raise ValueError(f"config key {key!r} must be one of {known}, got {json.dumps(value)}")
    return converted


def _load_config(args, parser: argparse.ArgumentParser) -> dict:
    """Flag values from the --config file, keyed by flag destination."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object of flag values")
    actions = {a.dest: a for a in parser._actions}
    values = {}
    for key, value in cfg.items():
        norm = key.replace("-", "_")
        if norm in ("config", "help") or norm not in actions:
            raise ValueError(f"config key {key!r} is not a flag of {args.command}")
        # A null value leaves the flag unset.
        if value is not None:
            values[norm] = _config_value(key, value, actions[norm])
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config values become the subcommand's defaults, so explicit
            # flags still win when the command line is parsed again.
            sub = commands[args.command]
            sub.set_defaults(**_load_config(args, sub))
            args = parser.parse_args(argv)
        # Non-finite values reach _emit's check, which reports them, without numpy warnings.
        with np.errstate(all="ignore"):
            _emit(args, *args.run(args))
        return 0
    except (ConvergenceError, DivergenceError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
