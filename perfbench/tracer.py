"""Layer spans and work counters for a traced ugmt run.

The tracer is installed from outside the package: it replaces the public
entry points of each ugmt module (module functions and public methods of the
classes defined there, plus the private hot spots named in ``_EXTRA``) with
wrappers, in every ugmt module namespace that bound the original object.

Accounting rules:

- A span covers one call into a layer.  A call into the same layer from
  inside that layer folds into the outer span, so ``<layer>.calls`` counts
  outermost calls only.
- ``<layer>.self_s`` is the span time minus the time of child-layer spans
  inside it; time outside every span (the suite bodies in ``cli``, the
  battery constructors, report writing) is ``other.self_s``.  The layer self times
  and ``other.self_s`` therefore sum to the traced wall by construction.
- Work counters (points, draws, rules, kernels, ...) count every call of the
  function they watch, nested or not.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("configuration", "geometry", "heat", "bv", "hausdorff", "cylinder",
          "productspace", "montecarlo")

# private functions and methods that are entry points in practice: the
# per-configuration draw, the kernel constructors, the per-sample semigroup and
# the variational objective's inner loop
_EXTRA = {
    "configuration": {"_draw"},
    "geometry": {"_neumann_kernel_dx", "_dirichlet_kernel"},
    "heat": {"_semigroup_at", "_draw_configurations"},
    "bv": {"_VariationalObjective", "_batch_div"},
}

_KERNEL_FNS = {"neumann_kernel": "neumann", "_neumann_kernel_dx": "dx",
               "_dirichlet_kernel": "dirichlet"}


def _rows(points, dim: int) -> int:
    size = getattr(points, "size", None)
    if size is None:
        size = len(points)
    return int(size) // max(dim, 1)


def _array_key(x) -> bytes:
    arr = np.ascontiguousarray(x, dtype=float)
    return hashlib.blake2b(arr.tobytes() + repr(arr.shape).encode(),
                           digest_size=12).digest()


class Tracer:
    """Spans and counters over the ugmt layers; see the module docstring."""

    def __init__(self):
        self.clock = time.perf_counter
        # frames are [layer, start, child span time]; the root frame has no layer
        self.stack = [[None, 0.0, 0.0]]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)
        self.gl_keys: set = set()
        self.kernel_keys: set = set()
        self.suite_wall: dict[str, float] = {}
        self.other_s = 0.0
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    def _span(self, layer: str, fn):
        stack, clock = self.stack, self.clock
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self_s[layer] += dur - frame[2]
                calls[layer] += 1
                stack[-1][2] += dur

        return wrapper

    def _timed(self, name: str, fn):
        """Outermost-call duration of one function, accumulated in ``name``."""
        clock, count = self.clock, self.count
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                count[name] += clock() - start

        return wrapper

    def suite(self, name: str, fn):
        """Run one suite call as the traced root; returns fn()'s result."""
        root = self.stack[0]
        root[2] = 0.0
        start = self.clock()
        try:
            return fn()
        finally:
            wall = self.clock() - start
            self.suite_wall[name] = self.suite_wall.get(name, 0.0) + wall
            self.other_s += wall - root[2]

    # -- counters ----------------------------------------------------------

    def _hook(self, owner: str, name: str, fn):
        """Wrap fn with the work counter for (module-or-class, name), if any."""
        count = self.count
        if (owner, name) == ("configuration", "_draw"):
            def hooked(window, rng):
                pts = fn(window, rng)
                count["configs_drawn"] += 1
                count["draw_points"] += pts.shape[0]
                return pts
        elif owner == "SmoothFunction" and name in ("value", "gradient", "laplacian"):
            def hooked(self_, points):
                count["geom_eval_calls"] += 1
                count["points_evaluated"] += _rows(points, self_.dim)
                return fn(self_, points)
        elif (owner, name) == ("geometry", "gauss_legendre"):
            keys = self.gl_keys

            def hooked(lo, hi, order):
                count["gl_calls"] += 1
                keys.add((float(lo), float(hi), int(order)))
                return fn(lo, hi, order)
            return self._timed("gl_s", functools.wraps(fn)(hooked))
        elif owner == "geometry" and name in _KERNEL_FNS:
            kind, keys = _KERNEL_FNS[name], self.kernel_keys

            def hooked(a, b, t, L, M=None):
                count["kernel_calls"] += 1
                keys.add((kind, float(t), float(L), M, _array_key(a), _array_key(b)))
                return fn(a, b, t, L, M) if M is not None else fn(a, b, t, L)
            return self._timed("kernel_s", functools.wraps(fn)(hooked))
        elif (owner, name) == ("LiftedHeatOperator", "tensor_apply"):
            def hooked(*args, **kwargs):
                count["tensor_applies"] += 1
                return fn(*args, **kwargs)
        elif owner == "_VariationalObjective" and name in ("value", "value_with_error"):
            def hooked(*args, **kwargs):
                count["objective_evals"] += 1
                return fn(*args, **kwargs)
            return self._timed("objective_s", functools.wraps(fn)(hooked))
        elif (owner, name) == ("hausdorff", "band_integral_mc"):
            def hooked(h, window, k, n_samples, *args, **kwargs):
                count["band_mc_runs"] += 1
                count["band_samples"] += int(n_samples)
                return fn(h, window, k, n_samples, *args, **kwargs)
        elif (owner, name) == ("hausdorff", "band_integral_quad"):
            def hooked(*args, **kwargs):
                count["quad_runs"] += 1
                return fn(*args, **kwargs)
        elif (owner, name) == ("hausdorff", "surface_functional_auto"):
            def hooked(*args, **kwargs):
                if kwargs.get("quad_order") is None:
                    return fn(*args, **kwargs)
                count["auto_quad_asked"] += 1
                before = count["band_mc_runs"]
                out = fn(*args, **kwargs)
                if count["band_mc_runs"] > before:
                    count["fallbacks"] += 1
                return out
        elif name == "diff" and owner not in LAYERS:
            def hooked(*args, **kwargs):
                count["diff_calls"] += 1
                return fn(*args, **kwargs)
        elif (owner, name) == ("montecarlo", "stratum_grid_points"):
            def hooked(*args, **kwargs):
                pts, w = fn(*args, **kwargs)
                count["grid_points"] += pts.shape[0]
                return pts, w
        else:
            return fn
        return functools.wraps(fn)(hooked)

    def _productspace_tuples(self, fn):
        """Count the tuples handed to outermost productspace calls."""
        count, stack = self.count, self.stack

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if stack[-1][0] != "productspace":
                for a in args:
                    if getattr(a, "ndim", 0) == 3:
                        count["tuples"] += a.shape[0]
                        break
            return fn(*args, **kwargs)

        return hooked

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points in all loaded ugmt modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ugmt" or n.startswith("ugmt."))]
        for layer in LAYERS:
            mod = sys.modules[f"ugmt.{layer}"]
            extra = _EXTRA.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and name not in extra:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj, extra)
                elif callable(obj):
                    new = self._wrap_fn(layer, layer, name, obj)
                    for m in modules:
                        if getattr(m, name, None) is obj:
                            self._saved.append((m, name, obj))
                            setattr(m, name, new)
        rng = sys.modules["ugmt.rng"]
        orig = rng.stream_rng
        count = self.count

        @functools.wraps(orig)
        def stream_rng(*args, **kwargs):
            count["streams"] += 1
            return orig(*args, **kwargs)

        for m in modules:
            if getattr(m, "stream_rng", None) is orig:
                self._saved.append((m, "stream_rng", orig))
                setattr(m, "stream_rng", stream_rng)

    def _wrap_fn(self, layer: str, owner: str, name: str, fn):
        inner = self._span(layer, fn)
        if layer == "productspace":
            inner = self._productspace_tuples(inner)
        return self._hook(owner, name, inner)

    def _wrap_class(self, layer: str, cls: type, extra: set) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in extra:
                continue
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap_fn(layer, cls.__name__, name, attr.__func__))
            elif isinstance(attr, (classmethod, property)) or not callable(attr):
                continue
            else:
                new = self._wrap_fn(layer, cls.__name__, name, attr)
            self._saved.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._saved):
            setattr(owner, name, obj)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, suites) -> dict[str, float]:
        """Per-layer metric values, keyed as in BENCHMARK.json's per_layer."""
        c = self.count
        out = {f"cli.{s}.wall_s": self.suite_wall.get(s, 0.0) for s in suites}
        for layer in LAYERS:
            out[f"{layer}.calls"] = float(self.calls[layer])
            out[f"{layer}.self_s"] = self.self_s[layer]

        def ratio(a, b):
            return a / b if b else 0.0

        out.update({
            "configuration.configs_drawn": c["configs_drawn"],
            "configuration.points_per_draw_call": ratio(c["draw_points"], c["configs_drawn"]),
            "geometry.points_evaluated": c["points_evaluated"],
            "geometry.points_per_call": ratio(c["points_evaluated"], c["geom_eval_calls"]),
            "geometry.gl_calls": c["gl_calls"],
            "geometry.gl_distinct": float(len(self.gl_keys)),
            "geometry.gl_self_s": c["gl_s"],
            "geometry.kernel_builds": c["kernel_calls"],
            "geometry.kernel_distinct": float(len(self.kernel_keys)),
            "geometry.kernel_self_s": c["kernel_s"],
            "heat.tensor_applies": c["tensor_applies"],
            "bv.objective_evals": c["objective_evals"],
            "bv.objective_s": c["objective_s"],
            "hausdorff.band_samples": c["band_samples"],
            "hausdorff.quad_runs": c["quad_runs"],
            "hausdorff.fallbacks": c["fallbacks"],
            "hausdorff.fallback_frac": ratio(c["fallbacks"], c["auto_quad_asked"]),
            "cylinder.diff_calls": c["diff_calls"],
            "productspace.tuples": c["tuples"],
            "productspace.tuples_per_call": ratio(c["tuples"], self.calls["productspace"]),
            "montecarlo.grid_points": c["grid_points"],
            "rng.streams": c["streams"],
            "other.self_s": self.other_s,
        })
        return {k: float(v) for k, v in out.items()}
