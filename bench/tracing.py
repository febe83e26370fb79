"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps each function in TARGETS.  Modules that bound a
name at import (``from .solver import max_violation``) look it up in their
own namespace, so every ``logdetml`` module attribute that *is* the original
function is replaced, not only the defining one.  Each call records a span
(name, start, end, parent, attributes); per-projection calls are too many
for spans and are aggregated into a count, a total time and the clipped and
skipped counts from the returned ``ProjectionInfo``.  Spans stay in memory
and are written out once, when the stage ends.

``summarize`` turns the spans of one traced repetition (one file per stage)
into the per-layer metrics.  A layer is a module of the package; a span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

# each module of the package is one layer
MODULES = ("cli", "solver", "learned_kernel", "lowrank", "modelfile", "clustering",
           "constraints", "linalg", "datasets", "evaluation")


def _fit(args, kwargs, r):
    return {"sweeps": r.sweeps_used, "converged": int(bool(r.converged)),
            "skipped": r.skipped}


def _pairs(args, kwargs, r):
    return {"pairs": int(r.size)}


def _one_pair(args, kwargs, r):
    return {"pairs": 1}


def _jitter(args, kwargs, r):
    return {"jitter": float(r[1])}


def _fit_low_rank(args, kwargs, r):
    cs = kwargs["cs"] if "cs" in kwargs else args[2]
    return {"dropped": len(cs) - int(r.inner.dual.lam.size), "k": r.basis.k}


# (module, function, span name, attributes from (args, kwargs, result))
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("solver", "fit_linear", "solver.fit", _fit),
    ("solver", "fit_kernel", "solver.fit", _fit),
    ("solver", "fit_linear_with_prior", "solver.fit", _fit),
    ("solver", "max_violation", "solver.max_violation", None),
    ("learned_kernel", "compute_M", "learned_kernel.finalize", _jitter),
    ("learned_kernel", "from_kernel_fit", "learned_kernel.finalize", None),
    ("lowrank", "reconstruct", "learned_kernel.finalize", None),
    ("learned_kernel", "learned_sq_distances", "learned_kernel.query", _pairs),
    ("learned_kernel", "learned_gram", "learned_kernel.query", _pairs),
    ("learned_kernel", "learned_distance", "learned_kernel.query", _one_pair),
    ("learned_kernel", "learned_inner_product", "learned_kernel.query", _one_pair),
    ("learned_kernel", "training_pair_distance", "learned_kernel.query", _one_pair),
    ("modelfile", "save_model", "modelfile.save", None),
    ("modelfile", "load_model", "modelfile.load", None),
    ("modelfile", "ModelFile.to_learned_kernel", "modelfile.rebuild", None),
    ("modelfile", "ModelFile.to_mahalanobis", "modelfile.rebuild", None),
    ("lowrank", "select_basis_kernel", "lowrank.basis", lambda a, k, r: {"k": r.k}),
    ("lowrank", "select_basis_feature", "lowrank.basis", lambda a, k, r: {"k": r.k}),
    ("lowrank", "reduce_problem", "lowrank.reduce", None),
    ("lowrank", "fit_low_rank", "lowrank.fit", _fit_low_rank),
    ("clustering", "kernel_kmeans", "clustering.kernel_kmeans", None),
    ("clustering", "kmeans", "clustering.kmeans", None),
    ("constraints", "generate_from_labels", "constraints.generate",
     lambda a, k, r: {"m": len(r)}),
    ("constraints", "generate_pairs_random", "constraints.generate",
     lambda a, k, r: {"m": len(r)}),
    ("constraints", "kernel_distance_pool", "constraints.pool", _pairs),
    ("constraints", "euclidean_distance_pool", "constraints.pool", _pairs),
    ("constraints", "compute_thresholds", "constraints.thresholds", None),
    ("linalg", "gram", "linalg.gram", None),
    ("linalg", "cross_gram", "linalg.gram", None),
    ("linalg", "is_psd", "linalg.factor", None),
    ("linalg", "inv_psd", "linalg.factor", _jitter),
    ("linalg", "inv_sqrt", "linalg.factor", None),
    ("linalg", "sqrt_psd", "linalg.factor", None),
    ("datasets", "load_points_csv", "datasets.load", None),
    ("datasets", "load_labels_file", "datasets.load", None),
    ("datasets", "load_kernel_csv", "datasets.load", None),
    ("evaluation", "two_fold_cv", "evaluation.cv", None),
    ("evaluation", "knn_classify", "evaluation.knn", None),
]
PROJECTIONS = ("project_constraint_kernel", "project_constraint_linear")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """In-memory span recorder for one stage process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.projections = {"count": 0, "total_s": 0.0, "clipped": 0, "skipped": 0}
        self._stack: list[int] = []

    def span(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
                   "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            flt = _minflt()
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                rec["attrs"]["minflt"] = _minflt() - flt
                self._stack.pop()
            if attrs is not None:
                rec["attrs"].update(attrs(args, kwargs, result))
            return result

        return wrapper

    def projection(self, fn):
        agg = self.projections

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            agg["total_s"] += time.perf_counter() - t0
            agg["count"] += 1
            agg["clipped"] += bool(result[2].clipped)
            agg["skipped"] += bool(result[2].skipped)
            return result

        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"logdetml.{m}") for m in MODULES}
        replaced = {}
        for mod, qual, name, attrs in TARGETS:
            owner = mods[mod]
            *cls, func = qual.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, func)
            wrapped = self.span(name, original, attrs)
            if cls:
                setattr(owner, func, wrapped)
            replaced[id(original)] = (original, wrapped)
        for func in PROJECTIONS:
            original = getattr(mods["solver"], func)
            replaced[id(original)] = (original, self.projection(original))
        for modname, module in list(sys.modules.items()):
            if modname != "logdetml" and not modname.startswith("logdetml."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def root(self, name, run):
        return self.span(f"stage.{name}", run)()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "projections": self.projections}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced repetition

# name -> (unit, better); every workload reports every one of these
PER_LAYER = {
    "solver.fit_s": ("s", "lower"),
    "solver.fits": ("count", "lower"),
    "solver.projections": ("count", "lower"),
    "solver.proj_us": ("us", "lower"),
    "solver.minflt": ("count", "lower"),
    "solver.sweeps": ("count", "lower"),
    "solver.converged": ("bool", "higher"),
    "solver.clipped": ("count", "lower"),
    "solver.skipped": ("count", "lower"),
    "solver.max_violation": ("sq_dist", "lower"),
    "learned_kernel.finalize_s": ("s", "lower"),
    "learned_kernel.query_s": ("s", "lower"),
    "learned_kernel.pairs": ("count", "higher"),
    "learned_kernel.oos_max_rel_err": ("ratio", "lower"),
    "modelfile.save_s": ("s", "lower"),
    "modelfile.load_s": ("s", "lower"),
    "modelfile.rebuild_s": ("s", "lower"),
    "lowrank.basis_s": ("s", "lower"),
    "lowrank.reduce_s": ("s", "lower"),
    "lowrank.k": ("count", "lower"),
    "lowrank.dropped": ("count", "lower"),
    "clustering.kernel_kmeans_s": ("s", "lower"),
    "constraints.pool_s": ("s", "lower"),
    "constraints.pool_pairs": ("count", "lower"),
    "constraints.generate_s": ("s", "lower"),
    "constraints.m": ("count", "higher"),
    "linalg.gram_s": ("s", "lower"),
    "linalg.factor_s": ("s", "lower"),
    "linalg.factor_calls": ("count", "lower"),
    "linalg.jitter_calls": ("count", "lower"),
    "datasets.load_s": ("s", "lower"),
    "evaluation.knn_s": ("s", "lower"),
    "evaluation.fold_fits": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in MODULES},
    "check.fail_frac": ("fraction", "lower"),
    "check.pairs": ("count", "higher"),
    "trace.train_overhead_s": ("s", "lower"),
    "trace.distance_overhead_s": ("s", "lower"),
    "trace.eval_overhead_s": ("s", "lower"),
}


def _has_ancestor(spans, idx, name):
    parent = spans[idx]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def summarize(traces: dict) -> dict:
    """Per-layer values from {stage: trace}; times and work counts are totals
    over the stages, model descriptors (sweeps, converged, m, k, dropped)
    describe the train stage's model."""
    total: dict[str, float] = {}
    first: dict[str, dict] = {}
    self_s = {layer: 0.0 for layer in MODULES}
    proj = {"count": 0, "total_s": 0.0, "clipped": 0, "skipped": 0}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for stage, trace in traces.items():
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for idx, s in enumerate(spans):
            dur = s["end"] - s["start"]
            layer = s["name"].split(".", 1)[0]
            if layer in self_s:
                self_s[layer] += dur - child[idx]
            if _has_ancestor(spans, idx, s["name"]):
                continue  # nested in a span of the same name: counted there
            add(s["name"] + ":s", dur)
            add(s["name"] + ":calls", 1)
            for key, value in s["attrs"].items():
                add(f"{s['name']}:{key}", value)
            if s["name"] == "solver.fit" and _has_ancestor(spans, idx, "evaluation.cv"):
                add("fold_fits", 1)
            if stage == "train" and s["name"] not in first:
                first[s["name"]] = s["attrs"]
        for key in proj:
            proj[key] += trace["projections"][key]

    def t(key):
        return total.get(key, 0.0)

    count = proj["count"]
    out = {
        "solver.fit_s": t("solver.fit:s"),
        "solver.fits": t("solver.fit:calls"),
        "solver.projections": count,
        "solver.proj_us": 1e6 * proj["total_s"] / count if count else 0.0,
        "solver.minflt": t("solver.fit:minflt"),
        "solver.sweeps": first.get("solver.fit", {}).get("sweeps", 0),
        "solver.converged": first.get("solver.fit", {}).get("converged", 0),
        "solver.clipped": proj["clipped"],
        "solver.skipped": proj["skipped"],
        "learned_kernel.finalize_s": t("learned_kernel.finalize:s"),
        "learned_kernel.query_s": t("learned_kernel.query:s"),
        "learned_kernel.pairs": t("learned_kernel.query:pairs"),
        "modelfile.save_s": t("modelfile.save:s"),
        "modelfile.load_s": t("modelfile.load:s"),
        "modelfile.rebuild_s": t("modelfile.rebuild:s"),
        "lowrank.basis_s": t("lowrank.basis:s"),
        "lowrank.reduce_s": t("lowrank.reduce:s"),
        "lowrank.k": first.get("lowrank.basis", {}).get("k", 0),
        "lowrank.dropped": first.get("lowrank.fit", {}).get("dropped", 0),
        "clustering.kernel_kmeans_s": t("clustering.kernel_kmeans:s"),
        "constraints.pool_s": t("constraints.pool:s"),
        "constraints.pool_pairs": t("constraints.pool:pairs"),
        "constraints.generate_s": t("constraints.generate:s"),
        "constraints.m": first.get("constraints.generate", {}).get("m", 0),
        "linalg.gram_s": t("linalg.gram:s"),
        "linalg.factor_s": t("linalg.factor:s"),
        "linalg.factor_calls": t("linalg.factor:calls"),
        "linalg.jitter_calls": sum(
            1 for tr in traces.values() for s in tr["spans"]
            if s["name"] == "linalg.factor" and s["attrs"].get("jitter", 0.0) > 0),
        "datasets.load_s": t("datasets.load:s"),
        "evaluation.knn_s": t("evaluation.knn:s"),
        "evaluation.fold_fits": t("fold_fits"),
    }
    out.update({f"{layer}.self_s": value for layer, value in self_s.items()})
    return out
