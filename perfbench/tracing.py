"""Spans around the calls into each fracvar layer, recorded from outside.

The benchmark never edits the library. For a traced run it replaces the
public functions where a consumer module binds them (``fracvar.jet.frac_deriv``,
``fracvar.cli.lift``, ...) with wrappers that record a span, and it wraps
the callables handed to the library (Lagrangian evaluations and partials,
forcings, right-hand sides). Every span keeps its name, start, end, parent
span and case id in memory; `Tracer.write` dumps them when the run ends.

Self time is a span's duration minus the part its child spans cover.
Callbacks are too many to keep one record each (an ``el_explicit_rhs`` call
makes about 263k of them), so they are counted and timed in aggregate, but
their time is still subtracted from the self time of the span that made them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

import fracvar
import fracvar.cli

LAYERS = ("specfun", "fracops", "jet", "varcalc", "fodesolve", "cli")

# (module, attribute, span name): where a consumer module binds a public
# function of another layer.
BINDINGS = (
    ("fracvar.jet", "frac_deriv", "fracops.frac_deriv"),
    ("fracvar.varcalc", "frac_deriv", "fracops.frac_deriv"),
    ("fracvar.varcalc", "frac_deriv_from_base", "fracops.frac_deriv_from_base"),
    ("fracvar.fodesolve", "gl_weights", "fracops.gl_weights"),
    ("fracvar.fodesolve", "frac_deriv", "fracops.frac_deriv"),
    ("fracvar.cli", "frac_deriv", "fracops.frac_deriv"),
    ("fracvar.cli", "lift", "jet.lift"),
    ("fracvar.cli", "mittag_leffler", "specfun.mittag_leffler"),
    ("fracvar.cli", "action_integral", "varcalc.action"),
    ("fracvar.cli", "el_residual", "varcalc.el_residual"),
    ("fracvar.cli", "make_lagrangian", "varcalc.make_lagrangian"),
    ("fracvar.cli", "solve_multiterm", "fodesolve.solve_multiterm"),
    ("fracvar.cli", "solve_fode2", "fodesolve.solve_fode2"),
)

# Public entry points the benchmark itself calls, by span name.
API = {
    "frac_deriv": ("fracops.frac_deriv", fracvar.frac_deriv),
    "lift": ("jet.lift", fracvar.lift),
    "el_residual": ("varcalc.el_residual", fracvar.el_residual),
    "action": ("varcalc.action", fracvar.action),
    "el_explicit_rhs": ("varcalc.el_explicit_rhs", fracvar.el_explicit_rhs),
    "make_lagrangian": ("varcalc.make_lagrangian", fracvar.make_lagrangian),
    "solve_multiterm": ("fodesolve.solve_multiterm", fracvar.solve_multiterm),
    "solve_fode2": ("fodesolve.solve_fode2", fracvar.solve_fode2),
    "mittag_leffler": ("specfun.mittag_leffler", fracvar.mittag_leffler),
    "cli_main": ("cli.main", fracvar.cli.main),
}


def plain_api() -> SimpleNamespace:
    """The untraced entry points."""
    return SimpleNamespace(**{k: fn for k, (_, fn) in API.items()})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.case = None
        self._stack: list[list] = []
        self._next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, record: bool = True, before=None, after=None):
        layer = name.split(".", 1)[0]
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.busy[name] += dur
                self.self_s[name] += dur - frame[1]
                if record:
                    self.spans.append((sid, name, start, end, parent, self.case))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- hooks that count work at the layer boundary -------------------------

    def _count_history(self, name: str):
        def after(args, result) -> None:
            n = args[0].n_pts
            self.counts[name + ".nodes"] += n
            self.counts["fracops.history_macs"] += n * (n + 1) / 2

        return after

    def _count_nodes_checked(self, args, result) -> None:
        self.counts["varcalc.nodes_checked"] += args[1].n_pts

    def _count_point(self, args, result) -> None:
        self.counts["varcalc.nodes_checked"] += 1

    def _count_steps(self, name: str):
        def after(args, result) -> None:
            self.counts[name + ".steps"] += result.steps

        return after

    def _callback(self, layer: str, fn):
        return self.wrap(layer + ".callback", fn, record=False)

    def _instrument_lagrangian(self, args, lag) -> None:
        cb = lambda f: self._callback("varcalc", f)  # noqa: E731
        object.__setattr__(lag, "eval_fn", cb(lag.eval_fn))
        if lag.partial_x is not None:
            object.__setattr__(lag, "partial_x", tuple(cb(f) for f in lag.partial_x))
        if lag.partial_y is not None:
            object.__setattr__(
                lag, "partial_y", tuple(tuple(cb(f) for f in row) for row in lag.partial_y)
            )

    def _forcing_args(self, args):
        fde = args[0]
        return (dataclasses.replace(fde, forcing=self._callback("fodesolve", fde.forcing)),) + args[1:]

    def _rhs_args(self, args):
        fode = args[0]
        return (dataclasses.replace(fode, rhs=self._callback("fodesolve", fode.rhs)),) + args[1:]

    def _hooks(self, name: str) -> dict:
        return {
            "fracops.frac_deriv": {"after": self._count_history(name)},
            "fracops.frac_deriv_from_base": {"after": self._count_history(name)},
            "varcalc.el_residual": {"after": self._count_nodes_checked},
            "varcalc.action": {"after": self._count_nodes_checked},
            "varcalc.el_explicit_rhs": {"after": self._count_point},
            "varcalc.make_lagrangian": {"after": self._instrument_lagrangian},
            "fodesolve.solve_multiterm": {"before": self._forcing_args, "after": self._count_steps(name)},
            "fodesolve.solve_fode2": {"before": self._rhs_args, "after": self._count_steps(name)},
        }.get(name, {})

    def traced(self, name: str, fn):
        return self.wrap(name, fn, **self._hooks(name))

    @contextlib.contextmanager
    def installed(self):
        """Patch the library's bindings; yield the traced entry points."""
        saved = []
        try:
            for mod_name, attr, name in BINDINGS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.traced(name, getattr(mod, attr)))
            yield SimpleNamespace(**{k: self.traced(n, fn) for k, (n, fn) in API.items()})
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, extra: dict) -> dict:
        """Per-layer metrics as {name: (value, unit)}; ``extra`` adds measured ones."""
        b, s, c, n = self.busy, self.self_s, self.calls, self.counts
        solve_busy = b["fodesolve.solve_multiterm"] + b["fodesolve.solve_fode2"]
        steps = n["fodesolve.solve_multiterm.steps"] + n["fodesolve.solve_fode2.steps"]
        out = {
            "fracops.frac_deriv.calls": (c["fracops.frac_deriv"], "count"),
            "fracops.frac_deriv.busy_s": (b["fracops.frac_deriv"], "s"),
            "fracops.frac_deriv.nodes": (n["fracops.frac_deriv.nodes"], "count"),
            "fracops.frac_deriv_from_base.calls": (c["fracops.frac_deriv_from_base"], "count"),
            "fracops.frac_deriv_from_base.busy_s": (b["fracops.frac_deriv_from_base"], "s"),
            "fracops.frac_deriv_from_base.nodes": (n["fracops.frac_deriv_from_base.nodes"], "count"),
            "fracops.gl_weights.busy_s": (b["fracops.gl_weights"], "s"),
            "fracops.history_macs_computed": (n["fracops.history_macs"], "count"),
            "jet.lift.calls": (c["jet.lift"], "count"),
            "jet.lift.busy_s": (b["jet.lift"], "s"),
            "jet.lift.self_s": (s["jet.lift"], "s"),
            "varcalc.el_residual.busy_s": (b["varcalc.el_residual"], "s"),
            "varcalc.el_residual.self_s": (s["varcalc.el_residual"], "s"),
            "varcalc.action.busy_s": (b["varcalc.action"], "s"),
            "varcalc.action.self_s": (s["varcalc.action"], "s"),
            "varcalc.el_explicit_rhs.busy_s": (b["varcalc.el_explicit_rhs"], "s"),
            "varcalc.el_explicit_rhs.self_s": (s["varcalc.el_explicit_rhs"], "s"),
            "varcalc.make_lagrangian.busy_s": (b["varcalc.make_lagrangian"], "s"),
            "varcalc.callbacks": (c["varcalc.callback"], "count"),
            "varcalc.callback_s": (b["varcalc.callback"], "s"),
            "varcalc.callbacks_per_node": (
                c["varcalc.callback"] / n["varcalc.nodes_checked"] if n["varcalc.nodes_checked"] else 0.0,
                "1",
            ),
            "fodesolve.solve_multiterm.busy_s": (b["fodesolve.solve_multiterm"], "s"),
            "fodesolve.solve_multiterm.self_s": (s["fodesolve.solve_multiterm"], "s"),
            "fodesolve.solve_multiterm.steps": (n["fodesolve.solve_multiterm.steps"], "count"),
            "fodesolve.solve_fode2.busy_s": (b["fodesolve.solve_fode2"], "s"),
            "fodesolve.solve_fode2.self_s": (s["fodesolve.solve_fode2"], "s"),
            "fodesolve.solve_fode2.steps": (n["fodesolve.solve_fode2.steps"], "count"),
            "fodesolve.rhs_callbacks": (c["fodesolve.callback"], "count"),
            "fodesolve.callback_s": (b["fodesolve.callback"], "s"),
            "fodesolve.steps_per_s": (steps / solve_busy if solve_busy else 0.0, "1/s"),
            "specfun.mittag_leffler.calls": (c["specfun.mittag_leffler"], "count"),
            "specfun.mittag_leffler.busy_s": (b["specfun.mittag_leffler"], "s"),
            "cli.main.busy_s": (b["cli.main"], "s"),
            "cli.main.self_s": (s["cli.main"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        out.update(extra)
        return out
