"""Outside-in tracer for gausskl and the per-layer metrics computed from it.

The package imports names across modules (``from .linalg import cholesky``),
so patching one module misses calls made from another.  The tracer therefore
wraps every public function of the five modules once and rebinds the wrapper
in every ``gausskl`` namespace that holds the original object.  It also wraps
the density-model methods, and counts at the library boundary:
``numpy.linalg.cholesky`` and the ``solve_triangular`` that ``linalg`` and
``estimators`` import from scipy.  Boundary calls are recorded only inside a
package call, so the benchmark's own reference code does not count.

Spans are kept in memory as (name, start, end, parent, op, size) and turned
into metrics at the end of the run.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular

MODULES = ("linalg", "divergence", "estimators", "harness", "cli")
METHODS = (("GaussianModel", "sample"), ("GaussianModel", "log_density_batch"),
           ("MixtureModel", "sample"), ("MixtureModel", "log_density_batch"))
NP_CHOLESKY = "numpy.linalg.cholesky"
SOLVE_TRIANGULAR = "linalg.solve_triangular"

# Every function the tracer wraps today; each gets an ``.errors`` metric.
# A name that later disappears from the package reports 0.
WRAPPED = (
    "linalg.validate_spd", "linalg.cholesky", "linalg.trace_ratio", "linalg.random_spd",
    "linalg.read_matrix_csv", "linalg.write_matrix_csv",
    "divergence.kl_scalar", "divergence.kl_diagonal", "divergence.kl_gaussian",
    "divergence.diagonal_lower_bound", "divergence.kl_gap_diagonal",
    "divergence.gaussian_entropy",
    "estimators.build_gaussian", "estimators.build_matched_mixture", "estimators.sample",
    "estimators.log_density", "estimators.mc_kl",
    "estimators.GaussianModel.sample", "estimators.GaussianModel.log_density_batch",
    "estimators.MixtureModel.sample", "estimators.MixtureModel.log_density_batch",
    "harness.derive_seed", "harness.random_diag_spectrum", "harness.check_prop1",
    "harness.check_prop2", "harness.check_prop3", "harness.check_c1",
    "cli.main", "cli.console_main",
    NP_CHOLESKY, SOLVE_TRIANGULAR,
)


def _kl_flops(args, kwargs, result):
    # Two Cholesky factorizations (m^3/3 each) and two triangular solves
    # with m right-hand sides (m^3 each).
    m = args[0].dim
    return 8.0 * m ** 3 / 3.0


def _draws(args, kwargs, result):
    return float(len(result))


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


SIZES = {
    "divergence.kl_gaussian": _kl_flops,
    "estimators.GaussianModel.sample": _draws,
    "estimators.MixtureModel.sample": _draws,
    "linalg.read_matrix_csv": _file_bytes,
    "linalg.write_matrix_csv": _file_bytes,
}


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.spans = []
        self.errors = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, boundary=False):
        size = SIZES.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if boundary and not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, 0.0)
            if size is not None:
                spans[index] = spans[index][:5] + (size(args, kwargs, result),)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        mods = {short: importlib.import_module(f"{package.__name__}.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        wrappers[id(solve_triangular)] = (
            solve_triangular, self._wrap(SOLVE_TRIANGULAR, solve_triangular, boundary=True))
        prefix = package.__name__ + "."
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == package.__name__ or n.startswith(prefix)]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(ns, attr, hit[1])
        for cls_name, meth in METHODS:
            cls = getattr(mods["estimators"], cls_name)
            self._set(cls, meth, self._wrap(f"estimators.{cls_name}.{meth}", cls.__dict__[meth]))
        self._set(np.linalg, "cholesky", self._wrap(NP_CHOLESKY, np.linalg.cholesky, boundary=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()


def summarize(spans):
    """Per span name: calls, total seconds, self seconds, summed size."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, size in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for i, (name, start, end, parent, op, size) in enumerate(spans):
        a = agg[name]
        a[0] += 1
        a[1] += end - start
        a[2] += end - start - child[i]
        a[3] += size
    return agg


def count_children(spans, child_name, parent_name) -> int:
    return sum(1 for name, _, _, parent, _, _ in spans
               if name == child_name and parent >= 0 and spans[parent][0] == parent_name)


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer metrics, normalized per unit of work (trial or operation).

    Returns {name: (value, unit)} for every per-layer metric the tracer
    produces.
    """
    spans = tracer.spans
    agg = summarize(spans)

    def calls(name):
        return agg[name][0] if name in agg else 0

    def self_ms(name):
        return 1e3 * agg[name][2] / units if name in agg else 0.0

    def rate(name, scale):
        a = agg.get(name)
        return a[3] / a[1] / scale if a and a[1] > 0 else 0.0

    out = {}
    for name in ("linalg.validate_spd", "linalg.cholesky", "divergence.kl_gaussian"):
        out[f"{name}.calls"] = (calls(name) / units, "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    out[f"{NP_CHOLESKY}.calls"] = (calls(NP_CHOLESKY) / units, "count")
    certs = calls("linalg.validate_spd")
    out["linalg.factorizations_per_certify"] = (calls(NP_CHOLESKY) / certs if certs else 0.0, "ratio")
    out[f"{SOLVE_TRIANGULAR}.calls"] = (calls(SOLVE_TRIANGULAR) / units, "count")
    out["harness.derive_seed.calls"] = (calls("harness.derive_seed") / units, "count")
    for name in ("linalg.random_spd", "harness.random_diag_spectrum", "harness.check_prop1",
                 "harness.check_prop2", "harness.check_prop3", "harness.check_c1",
                 "divergence.kl_gap_diagonal", "divergence.diagonal_lower_bound",
                 "divergence.kl_diagonal", "estimators.GaussianModel.sample",
                 "estimators.GaussianModel.log_density_batch", "estimators.MixtureModel.sample",
                 "estimators.MixtureModel.log_density_batch", "estimators.mc_kl",
                 "linalg.read_matrix_csv", "linalg.write_matrix_csv", "cli.main"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    out["divergence.kl_gaussian.gflops_computed"] = (rate("divergence.kl_gaussian", 1e9), "GFLOP/s")
    out["estimators.build.self_ms"] = (
        self_ms("estimators.build_gaussian") + self_ms("estimators.build_matched_mixture"), "ms")
    batches = calls("estimators.MixtureModel.log_density_batch")
    solves = count_children(spans, SOLVE_TRIANGULAR, "estimators.MixtureModel.log_density_batch")
    out["estimators.solves_per_mixture_batch"] = (solves / batches if batches else 0.0, "count")
    draws = sum(agg[n][3] for n in ("estimators.GaussianModel.sample",
                                     "estimators.MixtureModel.sample") if n in agg)
    draw_s = sum(agg[n][1] for n in ("estimators.GaussianModel.sample",
                                      "estimators.MixtureModel.sample") if n in agg)
    out["estimators.draws_per_s"] = (draws / draw_s if draw_s > 0 else 0.0, "1/s")
    out["linalg.read_matrix_csv.mb_per_s"] = (rate("linalg.read_matrix_csv", 1e6), "MB/s")
    out["linalg.write_matrix_csv.mb_per_s"] = (rate("linalg.write_matrix_csv", 1e6), "MB/s")
    for name in WRAPPED:
        out[f"{name}.errors"] = (float(tracer.errors.get(name, 0)), "count")
    return out
