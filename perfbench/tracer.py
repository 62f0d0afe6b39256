"""Spans around agflab's public functions, recorded from outside the library.

:func:`install` replaces each public function of the seven layer modules by
a wrapper that records a span, both as the module attribute and at every
``from .x import y`` binding in another agflab module.  ``iter_sequence``
returns a generator, so its wrapper times each ``next()`` on it instead.
Spans stay in memory as columns ({name, start, end, parent, op}) until
the run ends; a span's self time is its duration minus the durations of
its direct children, which nest inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

import numpy as np

import checks

LAYERS = ("exact", "complexfn", "holonomic", "connection", "agf", "certify", "cli")
ESTIMATE = "connection.estimate_connection_constant"
# f_eval/g_eval results kept for the oracle: every SAMPLE_STRIDE-th call,
# at most SAMPLE_CAP per function and precision.
SAMPLE_STRIDE = 97
SAMPLE_CAP = 128

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.self_s", "s/op", "lower"),
    ("cli.out_bytes", "B/op", "lower"),
    *[(f"holonomic.steps.{m}", "count/op", "lower") for m in ("exact", "mp", "double")],
    *[(f"holonomic.us_per_step.{m}", "us/step", "lower")
      for m in ("exact", "mp", "double")],
    ("holonomic.self_s", "s/op", "lower"),
    ("connection.estimates", "count/op", "lower"),
    ("connection.steps_per_estimate", "count", "lower"),
    ("connection.samples_per_step", "ratio", "higher"),
    ("connection.self_s", "s/op", "lower"),
    ("connection.err_est_honest_ratio", "ratio", "higher"),
    ("complexfn.calls.double", "count/op", "lower"),
    ("complexfn.calls.ext", "count/op", "lower"),
    ("complexfn.log_gamma.us_per_call.double", "us/call", "lower"),
    ("complexfn.log_gamma.us_per_call.ext", "us/call", "lower"),
    ("complexfn.hyp1f1.us_per_call", "us/call", "lower"),
    ("complexfn.incgamma.us_per_call", "us/call", "lower"),
    ("complexfn.self_s", "s/op", "lower"),
    ("agf.f_evals", "count/op", "lower"),
    ("agf.g_evals", "count/op", "lower"),
    *[(f"agf.{fn}.us_per_point.{m}", "us/point", "lower")
      for fn in ("f", "g") for m in ("double", "ext")],
    ("agf.self_s", "s/op", "lower"),
    ("agf.f.max_rel_err", "ratio", "lower"),
    ("agf.g.max_rel_err", "ratio", "lower"),
    ("certify.ode_checks", "count/op", "lower"),
    ("certify.ode.ms_per_check", "ms/check", "lower"),
    ("certify.quad_calls", "count/op", "lower"),
    ("certify.self_s", "s/op", "lower"),
    ("exact.duality_forms", "count/op", "lower"),
    ("exact.us_per_form", "us/form", "lower"),
    ("exact.self_s", "s/op", "lower"),
    ("mp.dps_leaks", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


def iteration_mode(rec, z=None, n_max=100, digits=None) -> str:
    """The accumulation mode ``iter_sequence`` documents for these arguments."""
    zval = z if z is not None else rec.param
    exact = (int, Fraction)
    if digits is not None and digits > 16:
        return "mp"
    if digits is None and (zval is None or isinstance(zval, exact)) and all(
            isinstance(v, exact) for v in rec.initial_values):
        return "exact"
    if digits is None and n_max > 10_000:
        return "mp"
    return "double"


class Tracer:
    """Columnar span store plus the counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.steps: Counter = Counter()   # (mode, caller span name) -> items
        self.samples: dict[str, list] = {}  # span name -> [(args, result)]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _opener(self):
        """(open, close) for spans, with the columns bound for speed."""
        name, parent, op, start, end = (
            self.name.append, self.parent.append, self.op.append,
            self.start.append, self.end)
        stack, push, pop = self.stack, self.stack.append, self.stack.pop

        def open_span(nid: int) -> int:
            idx = len(end)
            name(nid)
            parent(stack[-1])
            op(self.op_id)
            end.append(0.0)
            push(idx)
            start(perf_counter())
            return idx

        def close_span(idx: int):
            end[idx] = perf_counter()
            pop()

        return open_span, close_span

    def wrap(self, qualname: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_iter(qualname, fn)
        sig = inspect.signature(fn)
        cfg = sig.parameters.get("cfg")
        split = cfg is not None and hasattr(cfg.default, "is_extended")
        if split:
            pos = list(sig.parameters).index("cfg")
            ids = {m: self._id(f"{qualname}[{m}]") for m in ("double", "ext")}
        else:
            nid = self._id(qualname)
        keep_all = qualname == ESTIMATE
        sampled = qualname in ("agf.f_eval", "agf.g_eval")
        calls = Counter()
        open_span, close_span = self._opener()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if split:
                c = args[pos] if len(args) > pos else kwargs.get("cfg", cfg.default)
                name = ids["ext" if c.is_extended else "double"]
            else:
                name = nid
            idx = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if keep_all:
                self._keep(qualname, sig.bind(*args, **kwargs), result)
            elif sampled:
                calls[name] += 1
                if calls[name] % SAMPLE_STRIDE == 1:
                    self._keep(self.names[name], sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _keep(self, name, bound, result):
        kept = self.samples.setdefault(name, [])
        if len(kept) < SAMPLE_CAP or name == ESTIMATE:
            bound.apply_defaults()
            kept.append((dict(bound.arguments), result))

    def _wrap_iter(self, qualname: str, fn):
        sig = inspect.signature(fn)
        ids = {m: self._id(f"{qualname}.next[{m}]") for m in ("exact", "mp", "double")}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            mode = iteration_mode(**bound.arguments)
            caller = self.stack[-1]
            key = (mode, self.names[self.name[caller]] if caller >= 0 else "")
            return self._traced(fn(*args, **kwargs), ids[mode], key)

        return wrapper

    def _traced(self, gen, nid, key):
        open_span, close_span = self._opener()
        steps = 0
        try:
            while True:
                idx = open_span(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close_span(idx)
                steps += 1
                yield item
        finally:
            self.steps[key] += steps
            gen.close()

    def save(self, path):
        """Write the spans out, one array per column (numpy .npz)."""
        np.savez_compressed(path, **self.columns())

    def columns(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }


def install(tracer: Tracer):
    """Wrap every public layer function; returns a callable that undoes it."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"agflab.{layer}")
        public = getattr(mod, "__all__", None) or [
            n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "agflab" and not modname.startswith("agflab."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])

    def restore():
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return restore


def _estimate_honest(samples) -> float:
    """Share of estimates whose reported error is at least the actual error."""
    from agflab.connection import F_SHELL, G_SHELL

    honest = 0
    for args, est in samples:
        z = args["z"] if args["z"] is not None else args["rec"].param
        world = {F_SHELL: "e", G_SHELL: "pi"}.get(args["shell"], "gamma")
        actual = abs(checks.to_mp(est.value) - checks.limit_oracle(world, z))
        honest += est.error_estimate >= actual
    return honest / len(samples) if samples else 0.0


def _max_rel_err(samples, oracle) -> float:
    worst = 0.0
    for args, value in samples:
        exact = oracle(args["z"])
        worst = max(worst, float(abs(checks.to_mp(value) - exact) / abs(exact)))
    return worst


def layer_metrics(tracer: Tracer, scale) -> dict:
    """Per-layer metrics of the traced ops; rates with no calls read 0.

    ``scale[i]`` converts op i's wall time to the reference speed (see
    ``speed.py``); every span of the op is scaled by it.
    """
    col = tracer.columns()
    names, name, parent = list(col["names"]), col["name"], col["parent"]
    n_ops = len(scale)
    dur = (col["end"] - col["start"]) * np.asarray(scale, dtype=np.float64)[col["op"]]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    k = len(names)
    count = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_time, minlength=k)

    def ids(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def n_calls(pred):
        return float(count[ids(pred)].sum())

    def us_per_call(pred, per=1.0):
        sel = ids(pred)
        calls = count[sel].sum()
        return float(total[sel].sum() / calls * 1e6 / per) if calls else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(own[ids(lambda n: n.startswith(layer + "."))]
                                     .sum()) / n_ops
    for mode in ("exact", "mp", "double"):
        steps = sum(v for (md, _), v in tracer.steps.items() if md == mode)
        m[f"holonomic.steps.{mode}"] = steps / n_ops
        sel = ids(lambda n: n.endswith(f".next[{mode}]"))
        m[f"holonomic.us_per_step.{mode}"] = (
            float(total[sel].sum()) / steps * 1e6 if steps else 0.0)

    estimates = n_calls(lambda n: n == ESTIMATE)
    est_steps = sum(v for (_, caller), v in tracer.steps.items() if caller == ESTIMATE)
    est_ids = ids(lambda n: n == ESTIMATE)
    in_estimate = nested & np.isin(name[np.where(nested, parent, 0)], est_ids)
    samples = int(np.isin(name[in_estimate],
                          ids(lambda n: n.startswith("connection.shell_eval["))).sum())
    m["connection.estimates"] = estimates / n_ops
    m["connection.steps_per_estimate"] = est_steps / estimates if estimates else 0.0
    m["connection.samples_per_step"] = samples / est_steps if est_steps else 0.0
    m["connection.err_est_honest_ratio"] = _estimate_honest(
        tracer.samples.get(ESTIMATE, []))

    for mode in ("double", "ext"):
        m[f"complexfn.calls.{mode}"] = n_calls(
            lambda n: n.startswith("complexfn.") and n.endswith(f"[{mode}]")) / n_ops
        m[f"complexfn.log_gamma.us_per_call.{mode}"] = us_per_call(
            lambda n: n == f"complexfn.log_gamma[{mode}]")
    m["complexfn.hyp1f1.us_per_call"] = us_per_call(
        lambda n: n.startswith("complexfn.hyp1f1["))
    m["complexfn.incgamma.us_per_call"] = us_per_call(
        lambda n: n.startswith("complexfn.lower_incomplete_gamma["))

    oracles = {"f": checks.f_oracle, "g": lambda z: checks.g_oracle_scaled(z)[0]}
    for fn in ("f", "g"):
        m[f"agf.{fn}_evals"] = n_calls(lambda n: n.startswith(f"agf.{fn}_eval[")) / n_ops
        for mode in ("double", "ext"):
            m[f"agf.{fn}.us_per_point.{mode}"] = us_per_call(
                lambda n: n == f"agf.{fn}_eval[{mode}]")
        m[f"agf.{fn}.max_rel_err"] = max(
            (_max_rel_err(tracer.samples.get(f"agf.{fn}_eval[{mode}]", []),
                          oracles[fn]) for mode in ("double", "ext")))

    m["certify.ode_checks"] = n_calls(
        lambda n: n.startswith("certify.ode_series_check_")) / n_ops
    m["certify.ode.ms_per_check"] = us_per_call(
        lambda n: n.startswith("certify.ode_series_check_"), per=1e3)
    m["certify.quad_calls"] = n_calls(lambda n: n.startswith("certify.quad_")) / n_ops
    m["exact.duality_forms"] = n_calls(
        lambda n: n.startswith("exact.duality_form_")) / n_ops
    m["exact.us_per_form"] = us_per_call(lambda n: n.startswith("exact.duality_form_"))
    return m
