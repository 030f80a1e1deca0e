"""Span tracing for the traced benchmark run.

The benchmark wraps each listed public qhb function at every module
binding (including `regions.solve`, a from-import of `barycenter.solve`)
and records one span per call while a request is in flight: its name,
parent span, request id, start, end and up to two counts.  Spans are
kept in flat arrays in memory and written out once, at the end of the
run.  A span's self time is its duration minus the durations of its
child spans; since the run is single-threaded, children nest strictly
inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# public functions wrapped per module; `verify.run_check` spans are named
# after the check they run
TARGETS = {
    "quaternions": ("qmul", "inner", "mat_mul"),
    "mobius": ("hua_new", "hua_apply", "hua_matrix", "sp_apply", "sp_defect"),
    "geometry": ("distance", "measure_density"),
    "barycenter": ("solve",),
    "regions": ("sample_region", "region_barycenter"),
    "verify": ("run_check",),
    "cli": ("main",),
}

# the checks registered in qhb.verify; each gets a `verify.<check>.s` metric
VERIFY_CHECKS = (
    "quaternion_norm_multiplicative", "quaternion_conj_antihomomorphism",
    "quaternion_associativity", "inner_hermitian_symmetry", "involution",
    "norm_relation", "sp_membership", "action_consistency", "au_inverse",
    "jacobian_fd", "measure_invariance", "intertwine_offdiag",
    "intertwine_pointwise", "poisson_distance", "triangle_inequality",
    "distance_isometry", "geodesic_endpoint", "coercivity", "convexity_fd",
    "convexity_positive", "gradient_residual", "solver_start_independence",
    "symmetric_four_point", "energy_monotone", "energy_convex_geodesic",
    "sampler_determinism", "mass_consistency",
)


class Tracer:
    """In-memory span store for one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.request = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.a = array("d")
        self.b = array("d")
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self.current_request = -1   # spans are recorded only while >= 0

    def open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError("traced call from a second thread; run with QHB_THREADS=1")
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.a.append(0.0)
        self.b.append(0.0)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if self.current_request < 0:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "t0": np.frombuffer(self.t0), "t1": np.frombuffer(self.t1),
            "a": np.frombuffer(self.a), "b": np.frombuffer(self.b),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


# ---------------------------------------------------------------------------
# wrapping


def _qmul_counts(args, out):
    # quaternion products, and bytes read and written computed from sizes
    return out.size // 4, 8.0 * (np.size(args[0]) + np.size(args[1]) + out.size)


def _points(out):
    return out.size // (out.shape[-1] * out.shape[-2])


COUNTS = {
    "quaternions.qmul": _qmul_counts,
    "mobius.hua_apply": lambda args, out: (_points(out), 0.0),
    "geometry.distance": lambda args, out: (np.size(out), 0.0),
    "regions.sample_region": lambda args, out: (out.count_accepted, out.count_requested),
    "barycenter.solve": lambda args, out: (out.iterations, 0.0 if out.converged else 1.0),
}


def _wrap(tracer: Tracer, name: str, fn):
    counts = COUNTS.get(name)
    named_by_check = name == "verify.run_check"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.current_request < 0:
            return fn(*args, **kwargs)
        idx = tracer.open(f"verify.{args[0].name}" if named_by_check else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counts is not None:
            tracer.a[idx], tracer.b[idx] = counts(args, out)
        return out

    return traced


def install(tracer: Tracer):
    """Wrap every TARGETS function at each binding in the loaded qhb
    modules; returns a function that restores the originals."""
    import qhb.cli  # noqa: F401  (loads every qhb module)

    modules = [m for key, m in sys.modules.items() if key == "qhb" or key.startswith("qhb.")]
    undo = []
    for mod_name, fns in TARGETS.items():
        home = sys.modules[f"qhb.{mod_name}"]
        for fn_name in fns:
            original = getattr(home, fn_name)
            wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

    def restore():
        for mod, attr, original in undo:
            setattr(mod, attr, original)

    return restore


# ---------------------------------------------------------------------------
# reduction


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def layer_metrics(spans: dict, requests: int) -> dict:
    """Per-layer metrics, per traced request unless the name says otherwise.

    `spans` is Tracer.arrays(); `requests` the number of traced requests."""
    names = list(spans["names"])
    nid = spans["name"]
    dur = spans["t1"] - spans["t0"]
    k = len(names)
    calls = np.bincount(nid, minlength=k) / requests
    self_ms = 1e3 * np.bincount(nid, weights=self_times(spans["parent"], dur), minlength=k) \
        / requests
    incl_s = np.bincount(nid, weights=dur, minlength=k) / requests
    a_sum = np.bincount(nid, weights=spans["a"], minlength=k) / requests
    b_sum = np.bincount(nid, weights=spans["b"], minlength=k) / requests

    def get(per_name, name):
        return float(per_name[names.index(name)]) if name in names else 0.0

    m = {}
    for mod_name, fns in TARGETS.items():
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            if name == "barycenter.solve":
                # iterations per solve call, and cost per iteration
                iters = spans["a"][nid == names.index(name)] if name in names else np.zeros(0)
                m[f"{name}.iters_mean"] = float(np.mean(iters)) if iters.size else 0.0
                m[f"{name}.iters_max"] = float(np.max(iters)) if iters.size else 0.0
                m[f"{name}.ms_per_iter"] = \
                    1e3 * get(incl_s, name) * requests / iters.sum() if iters.sum() else 0.0
                m[f"{name}.not_converged"] = get(b_sum, name)
                m["barycenter.WeightedPoints.self_ms"] = get(self_ms, "barycenter.WeightedPoints")
                continue
            if name == "verify.run_check":
                for check_name in VERIFY_CHECKS:
                    m[f"verify.{check_name}.s"] = get(incl_s, f"verify.{check_name}")
                continue
            m[f"{name}.calls"] = get(calls, name)
            m[f"{name}.self_ms"] = get(self_ms, name)
            if name == "quaternions.qmul":
                m[f"{name}.products"] = get(a_sum, name)
                m[f"{name}.bytes_computed"] = get(b_sum, name)
            elif name in ("mobius.hua_apply", "geometry.distance"):
                m[f"{name}.points"] = get(a_sum, name)
            elif name == "regions.sample_region":
                proposals = get(b_sum, name)
                m[f"{name}.accepted"] = get(a_sum, name)
                m[f"{name}.accept_ratio"] = get(a_sum, name) / proposals if proposals else 0.0
    return m


def request_self_sums(spans: dict, requests: int) -> np.ndarray:
    """Sum of all span self times within each request."""
    dur = spans["t1"] - spans["t0"]
    return np.bincount(spans["request"], weights=self_times(spans["parent"], dur),
                       minlength=requests)
