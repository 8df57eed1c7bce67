"""Per-layer tracing for the benchmark, done entirely from outside the package.

`Tracer.install()` substitutes a wrapper for each public name in `SPANS` and
`COUNTS`: for a module-level function, in every loaded ``torusshadow``
module namespace that holds it (so calls through ``from .x import f`` are
caught too); for a method, on its class.  Nothing under ``src/`` is edited.
`Tracer.uninstall()` puts every original back.

A span wrapper records (id, name, start, end, parent id, op id) into one flat
``array('d')``, kept in memory until the run ends.  A count wrapper only
counts calls; it is used for names called millions of times per request,
whose time then shows up in the self time of the caller.  A name that no
longer exists is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "torusshadow"
ROOT_SPANS = ("bench.setup", "bench.request")
_FIELDS = 6  # id, name index, start, end, parent id, op id


@dataclass(frozen=True)
class Target:
    """A public name to wrap: `where` is "<module>:<attr>" or
    "<module>:<Class>.<method>"; `metric` is the metric prefix."""

    metric: str
    where: str


def _limit_depth(result):
    return result[1]


SPANS = (
    Target("models.transfer_stable", "models:SkewModel.transfer_stable"),
    Target("models.transfer_unstable", "models:SkewModel.transfer_unstable"),
    Target("models.intersect", "models:SkewModel.intersect"),
    Target("models.apply", "models:SkewModel.apply"),
    Target("models.apply_inverse", "models:SkewModel.apply_inverse"),
    Target("geometry.wrap", "geometry:wrap"),
    Target("geometry.minimal_displacement", "geometry:minimal_displacement"),
    Target("geometry.torus_distance", "geometry:torus_distance"),
    Target("shadowing.forward_limit", "shadowing:forward_limit"),
    Target("shadowing.backward_limit", "shadowing:backward_limit"),
    Target("shadowing.quasi_shadow", "shadowing:quasi_shadow"),
    Target("shadowing.splice", "shadowing:splice"),
    Target("shadowing.verify", "shadowing:verify"),
    Target("shadowing.write_trace", "shadowing:write_trace"),
    Target("shadowing.read_trace", "shadowing:read_trace"),
    Target("orbits.generate_noisy", "orbits:generate_noisy"),
    Target("orbits.validate", "orbits:validate"),
    Target("orbits.from_map", "orbits:from_map"),
    Target("orbits.PerturbedMap.apply", "orbits:PerturbedMap.apply"),
    Target("orbits.PerturbedMap.apply_inverse", "orbits:PerturbedMap.apply_inverse"),
    Target("orbits.PerturbedMap.certified_bound", "orbits:PerturbedMap.certified_bound"),
    Target("orbits.write_orbit", "orbits:write_orbit"),
    Target("orbits.read_orbit", "orbits:read_orbit"),
    Target("stability.semiconjugacy", "stability:semiconjugacy"),
    Target("stability.check_identity", "stability:check_identity"),
    Target("stability.surjectivity_density", "stability:surjectivity_density"),
    Target("oracles.linear_model_shadow", "oracles:linear_model_shadow"),
    Target("oracles.cat_map_shadow", "oracles:cat_map_shadow"),
    Target("cli.cmd_orbit", "cli:cmd_orbit"),
    Target("cli.cmd_shadow", "cli:cmd_shadow"),
    Target("cli.cmd_verify", "cli:cmd_verify"),
)

# phi runs ~10^4 times per orbit; a span each would dominate the trace.
COUNTS = (
    Target("models.phi", "models:SkewModel.phi"),
)

# Counters derived from the span tree, with the unit of each.
DERIVED = (
    ("models.intersect.errors", "count"),
    ("shadowing.forward_limit.depth_mean", "count"),
    ("shadowing.backward_limit.depth_mean", "count"),
    ("shadowing.forward_limit.transfer_calls_per_call", "count"),
    ("shadowing.backward_limit.transfer_calls_per_call", "count"),
    ("orbits.PerturbedMap.apply_inverse.inner_inverse_per_call", "count"),
)

# Return-value observers: the Cauchy depth n a limit search settled on.
_OBSERVE = {
    "shadowing.forward_limit": _limit_depth,
    "shadowing.backward_limit": _limit_depth,
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, name -> unit."""
    units = {}
    for t in SPANS:
        units[f"{t.metric}.calls"] = "count"
        units[f"{t.metric}.self_s"] = "s"
        units[f"{t.metric}.total_s"] = "s"
    for t in COUNTS:
        units[f"{t.metric}.calls"] = "count"
    for root in ROOT_SPANS:
        units[f"{root}.self_s"] = "s"
    units.update(DERIVED)
    units["trace_overhead"] = "ratio"
    return units


def _resolve(where: str):
    """(owner, attr, original) for a target, or None if it no longer exists."""
    mod_name, _, path = where.partition(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Span recorder plus the name substitutions that feed it."""

    def __init__(self, spans=SPANS):
        self.targets = tuple(spans)
        self.count_targets = COUNTS
        self.names = [t.metric for t in self.targets] + list(ROOT_SPANS)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.records = array("d")
        self.errors = [0] * len(self.names)
        self.observed = {name: [] for name in _OBSERVE}
        self.counts = {t.metric: 0 for t in self.count_targets}
        self.unmeasured = []
        self._stack = []
        self._ids = itertools.count()
        self._op = [-1]
        self._restore = []

    # -- substitution -----------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            found = _resolve(target.where)
            if found is None:
                self.unmeasured.append(target.metric)
                continue
            self._substitute(found, self._span_wrapper(target.metric, found[2]))
        for target in self.count_targets:
            found = _resolve(target.where)
            if found is None:
                self.unmeasured.append(target.metric)
                continue
            self._substitute(found, self._count_wrapper(target.metric, found[2]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _substitute(self, found, wrapper) -> None:
        owner, attr, original = found
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)

    def _span_wrapper(self, metric: str, fn):
        k = self._index[metric]
        stack, ids, op = self._stack, self._ids, self._op
        extend, clock, errors = self.records.extend, time.perf_counter, self.errors
        observe = _OBSERVE.get(metric)
        sink = self.observed.get(metric)

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[k] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                extend((sid, k, t0, t1, parent, op[0]))
            if observe is not None:
                try:
                    sink.append(float(observe(result)))
                except (TypeError, IndexError, ValueError):
                    pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def root(self, name: str, op_id: int):
        """Root span for one benchmark operation (`bench.setup`/`bench.request`)."""
        self._op[0] = op_id
        k = self._index[name]
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.records.extend((sid, k, t0, t1, -1, op_id))

    # -- results ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.records) // _FIELDS

    def spans(self) -> np.ndarray:
        """(n, 6) array of (id, name index, start, end, parent id, op id)."""
        return np.frombuffer(self.records, dtype=float).reshape(-1, _FIELDS).copy()

    def save(self, path) -> None:
        np.savez(path, spans=self.spans(), names=np.array(self.names),
                 fields=np.array(["id", "name", "start", "end", "parent", "op"]))

    def summary(self) -> dict:
        """Per-layer metrics (without trace_overhead), name -> value."""
        sp = self.spans()
        n_names = len(self.names)
        ids = sp[:, 0].astype(np.int64)
        name = sp[:, 1].astype(np.int64)
        dur = sp[:, 3] - sp[:, 2]
        parent = sp[:, 4].astype(np.int64)
        size = int(ids.max()) + 1 if ids.size else 0
        # Self time: a span's duration minus the durations of its direct children.
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=size)
        self_dur = dur - child[ids]
        name_of = np.full(size, -1, dtype=np.int64)
        name_of[ids] = name
        parent_of = np.full(size, -1, dtype=np.int64)
        parent_of[ids] = parent

        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_total = np.bincount(name, weights=self_dur, minlength=n_names)

        out = {}
        for t in self.targets:
            k = self._index[t.metric]
            out[f"{t.metric}.calls"] = int(calls[k])
            out[f"{t.metric}.self_s"] = float(self_total[k])
            out[f"{t.metric}.total_s"] = float(total[k])
        for metric, value in self.counts.items():
            out[f"{metric}.calls"] = value
        for root in ROOT_SPANS:
            out[f"{root}.self_s"] = float(self_total[self._index[root]])

        def idx(metric):
            return self._index.get(metric, -1)

        def under(child_names, ancestor, direct=False):
            """Count spans named in `child_names` that run inside `ancestor`."""
            if idx(ancestor) < 0:
                return 0
            sel = np.isin(name, [idx(c) for c in child_names])
            anc = parent[sel]
            hit = np.zeros(anc.size, dtype=bool)
            while True:
                live = anc >= 0
                if not live.any():
                    break
                hit |= live & (name_of[np.where(live, anc, 0)] == idx(ancestor))
                if direct:
                    break
                anc = np.where(live, parent_of[np.where(live, anc, 0)], -1)
            return int(hit.sum())

        def per_call(count, metric):
            n = out.get(f"{metric}.calls", 0)
            return count / n if n else 0.0

        k = idx("models.intersect")
        out["models.intersect.errors"] = self.errors[k] if k >= 0 else 0
        transfers = ("models.transfer_stable", "models.transfer_unstable")
        for side in ("forward", "backward"):
            metric = f"shadowing.{side}_limit"
            depths = self.observed[metric]
            out[f"{metric}.depth_mean"] = float(np.mean(depths)) if depths else 0.0
            out[f"{metric}.transfer_calls_per_call"] = per_call(under(transfers, metric), metric)
        # PerturbedMap.apply_inverse calls g.apply once per fixed-point step.
        inverse = "orbits.PerturbedMap.apply_inverse"
        out[f"{inverse}.inner_inverse_per_call"] = per_call(
            under(("orbits.PerturbedMap.apply",), inverse, direct=True), inverse)
        return out
