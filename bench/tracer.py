"""Per-layer tracing of berklab from outside the package.

Each traced function is replaced in every berklab namespace that bound it:
``from .equilibrium import find_equilibria`` copies the function into
``learning``, ``analysis``, ``multigroup``, ``cli`` and the package root, so
patching only the defining module would silently miss those calls.  Spans
are aggregated in memory per function: calls, total time (outermost spans
only, so recursion is not double-counted), self time (span duration minus
the traced children inside it) and function-specific counts.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np


def _elements(args, kwargs, result):
    return {"elements": int(np.size(args[0]))}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


# name -> (defining module, attribute path, extra-count hook)
TARGETS = {
    "cli.main": ("berklab.cli", "main", None),
    "learning.monte_carlo_convergence": ("berklab.learning", "monte_carlo_convergence", None),
    "learning.simulate": ("berklab.learning", "simulate", None),
    "learning.limiting_ode": ("berklab.learning", "limiting_ode", None),
    "learning.transform": ("berklab.learning", "transform", None),
    "truncnorm.trunc_mean": ("berklab.truncnorm", "trunc_mean", _elements),
    "equilibrium.find_equilibria": ("berklab.equilibrium", "find_equilibria", None),
    "equilibrium.psi_tilde": ("berklab.equilibrium", "psi_tilde", None),
    "best_response.assessment": ("berklab.best_response", "BestResponseEngine.assessment", None),
    "best_response.assessment_multigroup": (
        "berklab.best_response", "BestResponseEngine.assessment_multigroup", None),
    "best_response.effort": ("berklab.best_response", "BestResponseEngine.effort", None),
    "rootfind.solve_decreasing": ("berklab.rootfind", "solve_decreasing", None),
    "rootfind.fd1": ("berklab.rootfind", "fd1", None),
    "multigroup.simulate_multigroup": ("berklab.multigroup", "simulate_multigroup", None),
    "multigroup.color_sighted_equilibrium": (
        "berklab.multigroup", "color_sighted_equilibrium", _iterations),
    "analysis.comparative_statics": ("berklab.analysis", "comparative_statics", None),
    "analysis.disparity_report": ("berklab.analysis", "disparity_report", None),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


def bindings(func, owner, attr):
    """Every (namespace, name) in berklab bound to ``func``."""
    found = [(owner, attr)]
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "berklab" or mod_name.startswith("berklab.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is func and (mod, name) not in found:
                found.append((mod, name))
    return found


class Stat:
    __slots__ = ("calls", "errors", "total_s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "errors": self.errors,
                "total_s": self.total_s, "self_s": self.self_s, **self.extra}


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.stats`` afterwards."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {name: Stat() for name in targets}
        self._children = []  # traced time inside each open span
        self._undo = []

    def _wrap(self, name, func, hook):
        clock = time.perf_counter
        children = self._children

        def traced(*args, **kwargs):
            stat = self.stats[name]
            stat.depth += 1
            children.append(0.0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dur = clock() - t0
                stat.calls += 1
                stat.self_s += dur - children.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += dur
                if children:
                    children[-1] += dur
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    stat.extra[key] = stat.extra.get(key, 0) + value
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    def __enter__(self):
        for name, (module_name, path, hook) in self.targets.items():
            owner, attr, func = _resolve(module_name, path)
            wrapper = self._wrap(name, func, hook)
            for ns, bound in bindings(func, owner, attr):
                self._undo.append((ns, bound, func))
                setattr(ns, bound, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            ns, bound, func = self._undo.pop()
            setattr(ns, bound, func)
        return False


def layer_metrics(stats: dict, run_periods: int) -> dict:
    """Per-layer metric values (without trace.overhead_frac) for one traced round."""
    s = stats
    assess = (s["best_response.assessment"], s["best_response.assessment_multigroup"])
    learning_s = sum(s[n]["total_s"] for n in ("learning.monte_carlo_convergence",
                                               "learning.simulate",
                                               "multigroup.simulate_multigroup"))
    return {
        "truncnorm.trunc_mean.calls": s["truncnorm.trunc_mean"]["calls"],
        "truncnorm.trunc_mean.elements": s["truncnorm.trunc_mean"].get("elements", 0),
        "truncnorm.trunc_mean.self_s": s["truncnorm.trunc_mean"]["self_s"],
        "learning.monte_carlo_convergence.self_s": s["learning.monte_carlo_convergence"]["self_s"],
        "learning.simulate.calls": s["learning.simulate"]["calls"],
        "learning.simulate.total_s": s["learning.simulate"]["total_s"],
        "learning.limiting_ode.calls": s["learning.limiting_ode"]["calls"],
        "learning.transform.calls": s["learning.transform"]["calls"],
        "learning.transform.total_s": s["learning.transform"]["total_s"],
        "learning.run_periods_per_s": run_periods / learning_s if learning_s > 0.0 else 0.0,
        "multigroup.simulate_multigroup.self_s": s["multigroup.simulate_multigroup"]["self_s"],
        "multigroup.color_sighted_equilibrium.total_s":
            s["multigroup.color_sighted_equilibrium"]["total_s"],
        "multigroup.color_sighted_equilibrium.iterations":
            s["multigroup.color_sighted_equilibrium"].get("iterations", 0),
        "equilibrium.find_equilibria.calls": s["equilibrium.find_equilibria"]["calls"],
        "equilibrium.find_equilibria.self_s": s["equilibrium.find_equilibria"]["self_s"],
        "equilibrium.psi_tilde.calls": s["equilibrium.psi_tilde"]["calls"],
        "analysis.comparative_statics.total_s": s["analysis.comparative_statics"]["total_s"],
        "analysis.disparity_report.total_s": s["analysis.disparity_report"]["total_s"],
        "best_response.assessment.calls": sum(a["calls"] for a in assess),
        "best_response.assessment.total_s": sum(a["total_s"] for a in assess),
        "best_response.effort.calls": s["best_response.effort"]["calls"],
        "rootfind.solve_decreasing.calls": s["rootfind.solve_decreasing"]["calls"],
        "rootfind.fd1.calls": s["rootfind.fd1"]["calls"],
        "cli.main.self_s": s["cli.main"]["self_s"],
    }
