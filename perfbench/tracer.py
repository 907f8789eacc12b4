"""In-process tracer for the traced benchmark pass.

The tracer wraps the public functions of every rktlab module from the
outside: the program itself is not changed.  ``cli`` and the library
modules bind names with ``from ... import``, and ``cli.main`` looks its
runners up in ``_RUNNERS``, so a wrapper is patched into every module
namespace and every module-level dict that holds the original function.

A wrapped call records a span (name, start, end, parent index) and
accumulates calls, inclusive time and self time per function.  Self time
is the span's duration minus the time its child spans cover.  Hot scalar
helpers get no wrapper at all, and ``gauss_legendre_panel`` (hundreds of
thousands of calls per run) gets a counter-only wrapper that keeps time
and calls but stores no span; its time still counts as child time of the
enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("numerics", "measures", "hardy", "paley_wiener", "model_space", "_kernels", "cli")

# Scalar helpers called per node or per breakpoint: a wrapper would cost
# more than the work it measures and would distort the parents' self time.
UNWRAPPED = {"numerics.ensure_point", "numerics.wrap_angle", "numerics.circ_dist",
             "numerics.hermitian_part", "paley_wiener.kadets_point",
             "_kernels.pw_norm_factor", "_kernels.set_num_threads", "_kernels.warm_up"}
COUNTER_ONLY = {"numerics.gauss_legendre_panel"}

_now = time.perf_counter


class _Stats:
    __slots__ = ("calls", "incl", "self_", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_ = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stats = {}
        self.extra = {"numerics.quadrature_nodes": 0, "kernels.pw_rkt_grid.terms": 0,
                      "numerics.eigen_hermitian.max_dim": 0, "hardy.rules_under_rkt_functional": 0,
                      "cli.output_s": 0.0}
        self._stack = []  # [span index, child time]
        self._runner_end = None

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Patch a wrapper over each public function of each rktlab module."""
        wrappers = {}  # id of the original function -> its wrapper
        for short in MODULES:
            mod = sys.modules[f"rktlab.{short}"]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                wrappers[id(fn)] = self._wrap(name, fn)
        for mod in [m for n, m in sys.modules.items() if n.startswith("rktlab")]:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            val[key] = wrappers[id(item)]
                elif not attr.startswith("_") and id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, _Stats())
        stack = self._stack
        post = _POST_HOOKS.get(name)
        tracer = self

        if name in COUNTER_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = _now()
                out = fn(*args, **kwargs)
                dt = _now() - t0
                stats.calls += 1
                stats.incl += dt
                stats.self_ += dt
                if stack:
                    stack[-1][1] += dt
                return out

            return counted

        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append([name, 0.0, 0.0, parent])
            frame = [idx, 0.0]
            stack.append(frame)
            stats.active += 1
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                stats.active -= 1
                dt = t1 - t0
                spans[idx][1] = t0
                spans[idx][2] = t1
                stats.calls += 1
                if not stats.active:
                    stats.incl += dt
                stats.self_ += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if post is not None:
                post(tracer, args, out, t1)
            return out

        return traced

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls / self_s / incl_s per wrapped function plus the work counters.

        Module names drop their leading underscore (``_kernels`` ->
        ``kernels``), since metric names start with a letter.
        """
        out = dict(self.extra)
        for name, st in self.stats.items():
            name = name.lstrip("_")
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_
            out[f"{name}.incl_s"] = st.incl
        out["cli.runner.self_s"] = sum(st.self_ for n, st in self.stats.items() if n.startswith("cli.run_"))
        return out


# -- post hooks: work counters taken at the layer boundary ---------------


def _circle_quadrature(tracer, args, rule, t1):
    tracer.extra["numerics.quadrature_nodes"] += int(rule.nodes.size)
    if tracer.stats["hardy.rkt_functional"].active:
        tracer.extra["hardy.rules_under_rkt_functional"] += 1


def _eigen_hermitian(tracer, args, out, t1):
    key = "numerics.eigen_hermitian.max_dim"
    tracer.extra[key] = max(tracer.extra[key], len(args[0]))


def _pw_rkt_grid(tracer, args, out, t1):
    pts, res, ims = args[:3]
    tracer.extra["kernels.pw_rkt_grid.terms"] += len(pts) * len(res) * len(ims)


def _runner(tracer, args, out, t1):
    tracer._runner_end = t1


def _main(tracer, args, out, t1):
    if tracer._runner_end is not None:
        tracer.extra["cli.output_s"] += t1 - tracer._runner_end
        tracer._runner_end = None


_POST_HOOKS = {
    "numerics.circle_quadrature": _circle_quadrature,
    "numerics.eigen_hermitian": _eigen_hermitian,
    "_kernels.pw_rkt_grid": _pw_rkt_grid,
    "cli.main": _main,
    **{f"cli.run_{k}": _runner for k in ("windows", "rkt_hardy", "phi_h", "pw", "theorem2")},
}
