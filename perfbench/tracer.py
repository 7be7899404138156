"""Span tracer for one zonalpd process, installed from outside the package.

`Tracer.install` replaces the public functions of the zonalpd modules with
wrappers that record a span (name, start, end, parent, work) per call,
in every module namespace that imported the function by name, so a call
such as `transform.jacobi_eval_all(...)` is seen as well as
`jacobi.jacobi_eval_all(...)`.  Kernel closures (`eval_g`, `f_t`) are
wrapped through `dataclasses.replace` on every kernel that `parse_kernel`
and the `posdef` functions build.  Spans stay in memory until `save` writes
them, with the job index of the process, to one file per job.

`layer_metrics` turns saved spans into the per-layer numbers; self time is a
span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "posdef", "transform", "jacobi", "kernels", "spaces", "energy")

# (defining module, public function, span name, work counter)
# The work counter gets (args, result) and returns the unit count the
# layer metric sums: polynomial values, points, or point pairs.
FUNCTIONS = (
    ("jacobi", "jacobi_eval_all", "jacobi.eval_all", lambda a, out: len(out)),
    ("jacobi", "gauss_jacobi_rule_mp", "jacobi.rule_mp", None),
    ("jacobi", "gauss_jacobi_rule", "jacobi.rule", None),
    ("transform", "certify_coefficients", "transform.certify", None),
    ("transform", "coefficients_de", "transform.de", None),
    ("transform", "coefficients_gj", "transform.gj", None),
    ("posdef", "classify", "posdef.classify", None),
    ("posdef", "scan_riesz", "posdef.scan", None),
    ("posdef", "table1", "posdef.table1", None),
    ("posdef", "all_spaces_check", "posdef.all_spaces", None),
    ("spaces", "sample_uniform_points", "spaces.sample", lambda a, out: len(out)),
    ("spaces", "distance_t", "spaces.distance", lambda a, out: 1),
    ("spaces", "distance_t_arrays", "spaces.distance", lambda a, out: len(out)),
    ("spaces", "make_rng", "spaces.rng", None),
    ("energy", "energy_discrete", "energy.discrete", None),
    ("energy", "energy_perturbed", "energy.mc", None),
    ("cli", "main", "cli.main", None),
)

# Kernel factories whose results get traced closures: `parse_kernel` in every
# namespace, the Riesz and log factories only where `posdef` calls them
# (inside `kernels` they feed `parse_kernel`, which wraps already).
KERNEL_FACTORIES = (
    ("kernels", "parse_kernel", None),
    ("kernels", "riesz_geodesic", "posdef"),
    ("kernels", "riesz_chordal", "posdef"),
    ("kernels", "log_geodesic", "posdef"),
)


class Tracer:
    """Records nested call spans of one single-threaded process."""

    def __init__(self, job: int = 0):
        self.job = job
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index, work)
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                units = work(args, out) if (work is not None and out is not None) else 0
                spans[idx] = (nid, t0, t1, stack[-1], units)

        return traced

    def wrap_kernel(self, kernel):
        return dataclasses.replace(
            kernel,
            eval_g=self.wrap("kernels.eval_g", kernel.eval_g),
            f_t=self.wrap("kernels.f_t", kernel.f_t, lambda a, out: int(np.size(a[0]))),
        )

    def install(self) -> None:
        """Patch every zonalpd namespace that holds a traced function."""
        import importlib

        mods = {m: importlib.import_module(f"zonalpd.{m}") for m in MODULES}
        namespaces = [importlib.import_module("zonalpd")] + list(mods.values())
        replacements = {}  # id of original -> (wrapper, only namespace or None)
        for home, attr, name, work in FUNCTIONS:
            original = getattr(mods[home], attr)
            replacements[id(original)] = (self.wrap(name, original, work), None)
        for home, attr, only in KERNEL_FACTORIES:
            original = getattr(mods[home], attr)
            only_ns = mods[only] if only else None
            replacements[id(original)] = (self._kernel_factory(original), only_ns)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replacements.get(id(value)) if callable(value) else None
                if hit is not None and hit[1] in (None, ns):
                    setattr(ns, attr, hit[0])

    def _kernel_factory(self, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self.wrap_kernel(factory(*args, **kwargs))

        return build

    def save(self, path: str) -> None:
        """Write all spans; call once every traced call has returned."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(path, names=np.array(self.names), spans=arr, job=self.job)


# ---------------------------------------------------------------------------
# span analysis


def load_spans(path: str):
    """(names, rows, job) from a file written by `Tracer.save`."""
    with np.load(path) as z:
        return [str(n) for n in z["names"]], z["spans"], int(z["job"])


def layer_metrics(span_files) -> tuple[dict, list]:
    """Per-layer metrics summed over several traced jobs, plus per-job rows.

    Returns (metrics, per_job) where metrics maps metric name to value and
    per_job holds the same dict for each file on its own.
    """
    per_job = [_job_metrics(*load_spans(p)[:2]) for p in span_files]
    total: dict = defaultdict(float)
    for m in per_job:
        for k, v in m.items():
            if k != "jacobi.rule_mp.hit_ratio":
                total[k] += v
    calls = total["jacobi.rule_mp.calls"]
    total["jacobi.rule_mp.hit_ratio"] = (
        (calls - total["jacobi.rule_mp.misses"]) / calls if calls else 0.0
    )
    return dict(total), per_job


def _job_metrics(names, rows) -> dict:
    name = [names[int(i)] for i in rows[:, 0]] if len(rows) else []
    start, end = rows[:, 1], rows[:, 2]
    parent = rows[:, 3].astype(int)
    work = rows[:, 4]
    dur = end - start
    child_time = np.zeros(len(rows))
    np.add.at(child_time, parent[parent >= 0], dur[parent >= 0])
    self_t = dur - child_time

    def pname(i):
        p = parent[i]
        return name[p] if p >= 0 else None

    def ancestor(i, match):
        """Name of the closest ancestor of span i for which match(name) holds."""
        p = parent[i]
        while p >= 0:
            if match(name[p]):
                return name[p]
            p = parent[p]
        return None

    m: dict = Counter()
    for i, n in enumerate(name):
        outer = pname(i) != n  # not nested in a span of the same layer
        if n == "jacobi.eval_all":
            m["jacobi.eval_all.calls"] += 1
            m["jacobi.eval_all.values"] += work[i]
            m["jacobi.eval_all.s"] += dur[i]
        elif n == "jacobi.rule_mp":
            m["jacobi.rule_mp.calls"] += 1
            m["jacobi.rule_mp.s"] += dur[i]
        elif n == "jacobi.rule":
            if pname(i) == "jacobi.rule_mp":
                m["jacobi.rule_mp.misses"] += 1
        elif n == "transform.certify":
            m["transform.certify.calls"] += 1
            if ancestor(i, lambda a: a.startswith("posdef.")):
                m["posdef.certifications"] += 1
        elif n in ("transform.de", "transform.gj"):
            m[n + ".s"] += dur[i]
            m[n + ".self_s"] += self_t[i]
            if n == "transform.de" and pname(i) == "transform.certify":
                m["transform.certify.rungs"] += 1
        elif n == "kernels.eval_g" and outer:
            m["kernels.eval_g.calls"] += 1
            m["kernels.eval_g.s"] += dur[i]
            route = ancestor(i, lambda a: a in ("transform.de", "transform.gj"))
            if route is not None:
                m[route + ".nodes"] += 1
        elif n == "kernels.f_t" and outer:
            m["kernels.f_t.calls"] += 1
            m["kernels.f_t.elems"] += work[i]
            m["kernels.f_t.s"] += dur[i]
        elif n == "spaces.sample":
            m["spaces.sample.points"] += work[i]
            m["spaces.sample.s"] += dur[i]
        elif n == "spaces.distance" and outer:
            m["spaces.distance.calls"] += 1
            m["spaces.distance.pairs"] += work[i]
            m["spaces.distance.s"] += dur[i]
        elif n == "spaces.rng":
            if pname(i) == "energy.mc":
                m["energy.mc.batches"] += 1
        elif n == "energy.discrete":
            m["energy.discrete.self_s"] += self_t[i]
        elif n == "energy.mc":
            m["energy.mc.self_s"] += self_t[i]
        elif n.startswith("posdef."):
            m["posdef.self_s"] += self_t[i]
        elif n == "cli.main":
            m["cli.self_s"] += self_t[i]
    for key in LAYER_METRICS:
        m.setdefault(key, 0)
    calls = m["jacobi.rule_mp.calls"]
    m["jacobi.rule_mp.hit_ratio"] = (calls - m["jacobi.rule_mp.misses"]) / calls if calls else 0.0
    return {k: float(v) for k, v in m.items()}


# every per-layer metric this module derives, with its unit
LAYER_METRICS = {
    "jacobi.eval_all.calls": "count",
    "jacobi.eval_all.values": "count",
    "jacobi.eval_all.s": "s",
    "jacobi.rule_mp.calls": "count",
    "jacobi.rule_mp.misses": "count",
    "jacobi.rule_mp.hit_ratio": "ratio",
    "jacobi.rule_mp.s": "s",
    "transform.certify.calls": "count",
    "transform.certify.rungs": "count",
    "transform.de.s": "s",
    "transform.de.self_s": "s",
    "transform.de.nodes": "count",
    "transform.gj.s": "s",
    "transform.gj.self_s": "s",
    "transform.gj.nodes": "count",
    "posdef.certifications": "count",
    "posdef.self_s": "s",
    "kernels.eval_g.calls": "count",
    "kernels.eval_g.s": "s",
    "kernels.f_t.calls": "count",
    "kernels.f_t.elems": "count",
    "kernels.f_t.s": "s",
    "spaces.sample.points": "count",
    "spaces.sample.s": "s",
    "spaces.distance.calls": "count",
    "spaces.distance.pairs": "count",
    "spaces.distance.s": "s",
    "energy.discrete.self_s": "s",
    "energy.mc.batches": "count",
    "energy.mc.self_s": "s",
    "cli.self_s": "s",
}
