"""Spans around the calls into each layer of the library, recorded from the
benchmark's side.

The library modules import each other's functions by name
(``from .hypergeometric import _terminating_sum``), so a function must be
replaced in every module namespace that holds it, not only where it is
defined.  ``Tracer.install`` finds those namespaces itself and raises when a
name it is asked to wrap no longer exists, so a refactor cannot make a layer
silently read as zero.

Spans are kept in memory (name, start, end, parent) until the pass ends;
``Tracer.summary`` then turns them into per-name call counts, self times and
the time outside any span.
"""

from __future__ import annotations

import importlib
import pkgutil
from array import array
from time import perf_counter

import numpy as np


class TraceTargetMissing(RuntimeError):
    """A function the tracer must wrap is gone from the library."""


def _size(value) -> int:
    return int(np.size(value))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _series_terms(args, kwargs) -> int:
    """Terms of a terminating-sum call: order times the broadcast size."""
    params = (list(_arg(args, kwargs, 0, "numerators"))
              + list(_arg(args, kwargs, 1, "denominators"))
              + [_arg(args, kwargs, 2, "argument")])
    size = np.prod(np.broadcast_shapes(*(np.shape(p) for p in params)), dtype=np.int64)
    return int(_arg(args, kwargs, 3, "order")) * int(size)


def _ball_grid_points(quad, indices, spec) -> int:
    """Points of the dense nested-radius grid: nodes per axis to the power r."""
    r = len(indices)
    spec = spec if spec is not None else quad.ball_default_spec(r)
    return spec.nodes_per_axis ** r


def layer_targets(quad) -> list[tuple[str, str, str, dict]]:
    """(span name, defining module, function name, counters) for every
    library function the traced run wraps.  A counter maps a quantity name
    to a function of the call's (args, kwargs); the counts are computed from
    the arguments, not measured inside the library."""
    return [
        ("special.log_gamma", "special", "log_gamma",
         {"points": lambda a, k: _size(_arg(a, k, 0, "z"))}),
        ("special.gamma", "special", "gamma", {}),
        ("hypergeometric.terminating_sum", "hypergeometric", "_terminating_sum",
         {"terms": _series_terms}),
        ("hypergeometric.pfq_diagnostics", "hypergeometric", "pfq_diagnostics", {}),
        ("classical.gegenbauer", "classical", "gegenbauer",
         {"points": lambda a, k: _size(_arg(a, k, 2, "x"))}),
        ("classical.continuous_hahn", "classical", "continuous_hahn", {}),
        ("ball.ball_basis_eval", "ball", "ball_basis_eval",
         {"points": lambda a, k: _size(_arg(a, k, 2, "x")) // len(_arg(a, k, 0, "n"))}),
        ("tanh_family.fourier_closed_form", "tanh_family", "fourier_closed_form", {}),
        ("tanh_family.theta_factor", "tanh_family", "theta_factor",
         {"points": lambda a, k: _size(_arg(a, k, 3, "xi"))}),
        ("tanh_family.fourier_via_recursion", "tanh_family", "fourier_via_recursion", {}),
        ("tanh_family.family_axis_factor", "tanh_family", "family_axis_factor",
         {"points": lambda a, k: _size(_arg(a, k, 2, "x"))}),
        ("dfamily.d_axis_factor", "dfamily", "d_axis_factor",
         {"points": lambda a, k: _size(_arg(a, k, 2, "x_j"))}),
        ("quadrature.ball_inner_product_numeric", "quadrature", "ball_inner_product_numeric",
         {"grid_points": lambda a, k: _ball_grid_points(quad, _arg(a, k, 0, "n"),
                                                        _arg(a, k, 3, "spec"))}),
        ("quadrature.ball_gram_matrix", "quadrature", "ball_gram_matrix",
         {"grid_points": lambda a, k: _ball_grid_points(quad, _arg(a, k, 0, "indices")[0],
                                                        _arg(a, k, 2, "spec"))}),
        ("quadrature.fourier_axis_integral", "quadrature", "_fourier_axis_integral", {}),
        ("quadrature.d_biorthogonality_integral", "quadrature", "d_biorthogonality_integral", {}),
        ("quadrature.hahn_orthogonality_integral", "quadrature", "hahn_orthogonality_integral", {}),
        ("verify.reports_to_json", "verify", "reports_to_json", {}),
        ("cli.main", "cli", "main", {}),
    ]


# lru_cache'd rule builders; their spans share one name and their
# cache_info() gives the rule-cache hits and misses
RULE_BUILDERS = ("_leggauss_cached", "_jacgauss_cached", "_composite_rule", "_tanh_rule")


def library_modules(package: str = "ballfourier") -> list:
    """The package and every submodule, imported."""
    root = importlib.import_module(package)
    modules = [root]
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        modules.append(importlib.import_module(info.name))
    return modules


class Tracer:
    """Records nested spans around wrapped library functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.counters: list[dict] = []
        self.counts: list[dict] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.rule_builders: list = []

    def _name_id(self, name: str, counters: dict) -> int:
        if name not in self.names:
            self.names.append(name)
            self.counters.append(counters)
            self.counts.append(dict.fromkeys(counters, 0))
        return self.names.index(name)

    def wrap(self, name: str, fn, counters: dict | None = None):
        """A function that runs ``fn`` inside a span called ``name``."""
        nid = self._name_id(name, counters or {})
        counting = list(self.counters[nid].items())
        totals = self.counts[nid]
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack = self._stack

        def traced(*args, **kwargs):
            for quantity, count in counting:
                totals[quantity] += count(args, kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _replace_everywhere(self, modules, module, attr: str, name: str, counters: dict):
        if not hasattr(module, attr):
            raise TraceTargetMissing(f"{module.__name__}.{attr} no longer exists; "
                                     f"update the span {name!r} in perfbench/tracer.py")
        original = getattr(module, attr)
        traced = self.wrap(name, original, counters)
        for namespace in modules:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._restore.append((namespace, key, value))
                    setattr(namespace, key, traced)
        return original

    def install(self, package: str = "ballfourier") -> None:
        """Wrap every layer function in every namespace that holds it."""
        modules = library_modules(package)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        quad = by_name["quadrature"]
        for name, module_name, attr, counters in layer_targets(quad):
            if module_name not in by_name:
                raise TraceTargetMissing(f"module {package}.{module_name} no longer exists")
            self._replace_everywhere(modules, by_name[module_name], attr, name, counters)
        for attr in RULE_BUILDERS:
            original = self._replace_everywhere(modules, quad, attr, "quadrature.rule_build", {})
            self.rule_builders.append(original)
        verify = by_name["verify"]
        if not hasattr(verify, "_SUITES"):
            raise TraceTargetMissing(f"{package}.verify._SUITES no longer exists")
        for suite, runner in list(verify._SUITES.items()):
            self._restore.append((verify._SUITES, suite, runner))
            verify._SUITES[suite] = self.wrap(f"verify.{suite}", runner)

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._restore):
            if isinstance(namespace, dict):
                namespace[key] = value
            else:
                setattr(namespace, key, value)
        self._restore.clear()

    def rule_cache(self) -> tuple[int, int]:
        """(hits, misses) summed over the rule builders' caches."""
        infos = [fn.cache_info() for fn in self.rule_builders]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def summary(self, wall_s: float) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and the
        argument counts; plus the seconds of ``wall_s`` outside any span."""
        count = len(self.span_start)
        if len(self._stack) != 1:
            raise RuntimeError("summary taken while a span is still open")
        starts = np.frombuffer(self.span_start, dtype=np.float64, count=count)
        ends = np.frombuffer(self.span_end, dtype=np.float64, count=count)
        names = np.frombuffer(self.span_name, dtype=np.int32, count=count)
        parents = np.frombuffer(self.span_parent, dtype=np.int32, count=count)
        duration = ends - starts
        covered = np.zeros(count)
        inner = parents >= 0
        np.add.at(covered, parents[inner], duration[inner])
        self_time = duration - covered
        spans = len(self.names)
        out = {}
        calls = np.bincount(names, minlength=spans)
        inclusive = np.bincount(names, weights=duration, minlength=spans)
        exclusive = np.bincount(names, weights=self_time, minlength=spans)
        for nid, name in enumerate(self.names):
            out[name] = {"calls": int(calls[nid]), "total_s": float(inclusive[nid]),
                         "self_s": float(exclusive[nid]), **self.counts[nid]}
        root_s = float(duration[~inner].sum())
        return {"spans": out, "span_count": count, "outside_s": wall_s - root_s}
