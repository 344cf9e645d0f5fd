"""Span tracer for the traced benchmark run.

`install(tracer)` wraps the public entry points of each rdl layer from
outside the package: every module attribute that holds one of them is
replaced, so calls made through `from x import y` names are traced too.
While `tracer.active` is set, each call records a span
[name, start, end, parent, work]; spans stay in memory and are reduced to
per-name totals when the run ends.  A span's self time is its duration minus
the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self._stack = []
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)

    def wrap(self, name, fn, work=None, after=None, around=None):
        """Trace `fn`.  `name` is a string or a function of the call's
        arguments; `work(*args)` gives the span's work count; `after(out,
        *args)` harvests counters from the return value; `around` is a
        context-manager factory entered inside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            rec = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   work(*args, **kwargs) if work else 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                if around is None:
                    out = fn(*args, **kwargs)
                else:
                    with around(tracer):
                        out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, out, *args, **kwargs)
            return out

        return traced

    def count(self, name, fn):
        """Count calls of `fn` (no span) under counters[name]."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def _peak_growth(key):
    """Record under maxima[key] how far the process's peak RSS rose above its
    RSS at span start.  A span that does not raise the process peak records
    nothing, so this is a lower bound; it costs nothing inside the span."""

    @contextlib.contextmanager
    def around(tracer):
        start = _rss_mb()
        peak_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            yield
        finally:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if peak > peak_before:
                tracer.maxima[key] = max(tracer.maxima[key], peak * 1024 / 1e6 - start)

    return around


def _replace(orig, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "rdl" or mod_name.startswith("rdl."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


def _patch_function(module, attr, wrapped_factory) -> None:
    orig = getattr(module, attr)
    _replace(orig, wrapped_factory(orig))


def _paths_steps(cfg) -> int:
    return cfg.n_paths * cfg.n_steps


def install(tr: Tracer) -> None:
    """Wrap the layer entry points named in the benchmark's README."""
    from rdl import busemann, estimators, gromov, heat_kernels, model_spaces, sde_sim

    def log_q_name(self, t, dist):
        sp = self.space
        h2 = isinstance(sp, model_spaces.HalfPlane) or (
            isinstance(sp, model_spaces.Hyperbolic) and sp.dim == 2)
        return "heat_kernels.log_q_h2" if h2 else "heat_kernels.log_q_other"

    heat_kernels.KernelEval.log_q = tr.wrap(log_q_name, heat_kernels.KernelEval.log_q,
                                            work=lambda self, t, dist: np.size(dist))
    model_spaces.ModelManifold.volume_growth = tr.wrap(
        "model_spaces.volume_growth", model_spaces.ModelManifold.volume_growth)
    for cls in (model_spaces.Euclidean, model_spaces.Hyperbolic, model_spaces.HalfPlane):
        cls.dist_to_many = tr.wrap("model_spaces.dist_to_many", cls.dist_to_many)

    def block_after(tracer, out, profile, cfg, *rest, **kw):
        tracer.maxima["sde_sim.radial_block.alloc_mb"] = max(
            tracer.maxima["sde_sim.radial_block.alloc_mb"], cfg.n_steps * cfg.n_paths * 8 / 1e6)

    _patch_function(sde_sim, "_simulate_radial_block", lambda f: tr.wrap(
        "sde_sim.radial_block", f, work=lambda profile, cfg, *a, **k: _paths_steps(cfg),
        after=block_after, around=_peak_growth("sde_sim.radial_block.peak_alloc_mb")))
    _patch_function(sde_sim, "simulate_radial", lambda f: tr.wrap(
        "sde_sim.radial_scalar", f, work=lambda profile, cfg, *a, **k: _paths_steps(cfg)))
    _patch_function(sde_sim, "simulate_halfplane", lambda f: tr.wrap(
        "sde_sim.halfplane", f, work=lambda cfg, *a, **k: _paths_steps(cfg)))

    def fp_work(profile, r0, dt, dr, t_max, r_max, n_snapshots=51):
        return int(round(r_max / dr)) * int(round(t_max / dt))

    _patch_function(heat_kernels, "radial_fokker_planck",
                    lambda f: tr.wrap("heat_kernels.fokker_planck", f, work=fp_work))
    for attr in ("zero_two_defect", "gaussian_bound_constant", "chapman_kolmogorov_residual"):
        _patch_function(heat_kernels, attr, lambda f: tr.wrap("heat_kernels.diagnostics", f))

    _patch_function(estimators, "inequality_report", lambda f: tr.wrap("estimators.report", f))

    def entropy_after(tracer, fit, *a, **k):
        gap = abs(fit.increment - fit.previous_increment)
        tracer.maxima["estimators.entropy_cauchy_gap"] = max(
            tracer.maxima["estimators.entropy_cauchy_gap"], gap)

    _patch_function(estimators, "entropy_rate",
                    lambda f: tr.wrap("estimators.entropy_rate", f, after=entropy_after))

    def counted_quad(quad):
        @functools.wraps(quad)
        def traced_quad(func, *args, **kwargs):
            if tr.active:
                tr.counters["estimators.quad_calls"] += 1
                func = tr.count("estimators.integrand_evals", func)
            return quad(func, *args, **kwargs)

        return traced_quad

    estimators.quad = counted_quad(estimators.quad)

    _patch_function(busemann, "furstenberg_check", lambda f: tr.wrap("busemann.furstenberg", f))
    _patch_function(busemann, "k_functional_and_equality",
                    lambda f: tr.wrap("busemann.k_functional", f))

    def feasible_after(tracer, res, a, b, *rest, **kw):
        tracer.counters["gromov.feasible.calls"] += 1
        tracer.counters["gromov.feasible.nodes"] += res.nodes
        node_mb = a.n * b.n * (a.n + b.n) * 8 / 1e6
        tracer.maxima["gromov.feasible.node_alloc_mb"] = max(
            tracer.maxima["gromov.feasible.node_alloc_mb"], node_mb)

    _patch_function(gromov, "feasible", lambda f: tr.wrap("gromov.feasible", f, after=feasible_after))

    def distance_wrap(f):
        inner = tr.wrap("gromov.distance", f)

        @functools.wraps(f)
        def traced_distance(*args, **kwargs):
            before = tr.counters["gromov.feasible.calls"]
            res = inner(*args, **kwargs)
            if tr.active:
                # the first feasibility call tests eps just below 1/2; the rest bisect
                calls = tr.counters["gromov.feasible.calls"] - before
                tr.counters["gromov.bisection_steps"] += max(calls - 1, 0)
            return res

        return traced_distance

    _patch_function(gromov, "gromov_distance", distance_wrap)
    _patch_function(gromov, "feasible_lp", lambda f: tr.wrap("gromov.lp_oracle", f))

    def net_after(tracer, net, *a, **k):
        tracer.counters["gromov.net.points"] += net.n

    _patch_function(gromov, "net_from_manifold", lambda f: tr.wrap("gromov.net", f, after=net_after))
    _patch_function(gromov, "chain_glue", lambda f: tr.wrap("gromov.chain_glue", f))

    def validate_after(tracer, out, self, *a, **k):
        tracer.maxima["gromov.validate.alloc_mb"] = max(
            tracer.maxima["gromov.validate.alloc_mb"], self.n ** 3 * 8 / 1e6)

    gromov.FinitePointedSpace.validate = tr.wrap(
        "gromov.validate", gromov.FinitePointedSpace.validate, after=validate_after)


def reduce_spans(spans) -> dict:
    """Per-name calls, total time (outermost spans of that name), self time
    and work."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
    for i, (name, start, end, parent, work) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[i]
        st["work"] += work
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["total_s"] += end - start
    return dict(stats)
