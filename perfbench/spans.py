"""Per-layer trace: spans wrapped around polarphi's layers from outside.

The hooks replace module attributes that polarphi looks up at call time
(for example `polarphi.sampler.u01_v` or `polarphi.revolution._NP_EVAL`)
with wrappers that record one span per call: which hook, its parent span,
start and end times, and a work count (points, uniforms).  Spans stay in
memory in flat arrays and are written out when the run ends.  A layer's
self time is its spans' time minus the time of their child spans.

A hook whose target no longer exists is skipped, and every metric that
needs it reports `missing` instead of a number, so a refactor that removes
a target cannot crash the trace or make a layer read zero.
"""

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np


def _size(args, out):
    return int(np.size(out))


def _rows(args, out):
    shape = np.shape(out)
    return int(shape[0]) if shape else 0


def _one(args, out):
    return 1


def _grid(args, out):
    return len(getattr(out, "grid", ()))


def _zero(args, out):
    return 0


# (span name, module, attribute, work count).  A dotted attribute names a
# class attribute; a tuple-valued attribute has each element wrapped.
HOOKS = [
    ("cli", "polarphi.cli", "main", _zero),
    ("rng", "polarphi.sampler", "u01_v", _size),
    ("rng", "polarphi.sampler", "sample_bases_v", _zero),
    ("sampler.draw", "polarphi.sampler", "_dispatch_sample", _rows),
    ("sampler.reject", "polarphi.sampler", "_sample_reject_indices", _rows),
    ("sampler.reduce", "polarphi.cli", "estimate_phi", _zero),
    ("bodies.membership", "polarphi.sampler", "membership_batch", _size),
    ("bodies.gauge", "polarphi.bodies", "gauge_batch", _size),
    ("bodies.polar", "polarphi.sampler", "polar_body", _zero),
    ("bodies.polar", "polarphi.bodies", "polar_body", _zero),
    ("revolution.eval", "polarphi.revolution", "RevolutionProfile.values", _size),
    ("revolution.eval", "polarphi.revolution", "_NP_EVAL", _size),
    ("revolution.quad", "polarphi.revolution", "profile_integrals", _zero),
    ("revolution.report", "polarphi.cli", "decomposition_report", _zero),
    ("specfun", "polarphi.exact", "log_gamma", _zero),
    ("specfun", "polarphi.exact", "log_beta", _zero),
    ("specfun", "polarphi.harness", "digamma", _zero),
    ("specfun", "polarphi.harness", "trigamma", _zero),
    ("specfun", "polarphi.harness", "tetragamma", _zero),
    ("specfun", "polarphi.harness", "pentagamma", _zero),
    ("exact", "polarphi.cli", "phi_pball", _zero),
    ("exact", "polarphi.cli", "phi_via_moments", _zero),
    ("exact", "polarphi.cli", "phi_combine", _zero),
    ("exact", "polarphi.cli", "inequality_report", _zero),
    ("exact", "polarphi.cli", "dual_exponent", _zero),
    ("exact", "polarphi.harness", "phi_pball", _zero),
    ("exact", "polarphi.harness", "f_factor", _zero),
    ("exact", "polarphi.revolution", "phi_pball", _zero),
    ("harness.report", "polarphi.cli", "scan_p_argmax", _grid),
    ("harness.report", "polarphi.cli", "monotonicity_report", _zero),
    ("harness.report", "polarphi.cli", "finite_difference_report", _zero),
    ("harness.point", "polarphi.harness", "f1_eval", _one),
    ("harness.point", "polarphi.harness", "F_eval", _one),
    ("harness.point", "polarphi.harness", "G_eval", _one),
    ("harness.point", "polarphi.harness", "H_eval", _one),
    ("harness.point", "polarphi.harness", "xsq_trigamma_convexity", _one),
]

# Span names whose self time belongs to another layer.
LAYER_OF = {"sampler.reject": "sampler.draw", "harness.report": "harness", "harness.point": "harness"}

NAMES = sorted({h[0] for h in HOOKS})
LAYERS = sorted({LAYER_OF.get(n, n) for n in NAMES})
_NAME_ID = {n: i for i, n in enumerate(NAMES)}
_HOOK_NAME = np.array([_NAME_ID[h[0]] for h in HOOKS], dtype=np.intp)
_NAME_LAYER = np.array([LAYERS.index(LAYER_OF.get(n, n)) for n in NAMES], dtype=np.intp)
_NP_EVAL_HOOK = next(i for i, h in enumerate(HOOKS) if h[2] == "_NP_EVAL")


class Recorder:
    """Flat in-memory span arrays; one recorder per traced pass."""

    def __init__(self):
        self.hook = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]

    def wrap(self, hook_id, fn, count):
        hook, parent, start, end, work, stack = (
            self.hook, self.parent, self.start, self.end, self.work, self._stack)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(start)
            hook.append(hook_id)
            parent.append(stack[-1])
            end.append(0.0)
            work.append(0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            work[i] = count(args, out)
            return out

        return span

    def reset_stack(self):
        """Forget open spans, e.g. after an operation was stopped mid-call."""
        del self._stack[1:]

    def arrays(self):
        # an operation stopped mid-append can leave one array a span longer
        n = min(len(self.hook), len(self.parent), len(self.start), len(self.end), len(self.work))
        return {
            "hook": np.frombuffer(self.hook, dtype=np.intc)[:n].astype(np.intp),
            "parent": np.frombuffer(self.parent, dtype=np.intc)[:n].astype(np.intp),
            "start": np.frombuffer(self.start, dtype=np.float64)[:n],
            "end": np.frombuffer(self.end, dtype=np.float64)[:n],
            "work": np.frombuffer(self.work, dtype=np.int64)[:n],
        }


def _resolve(module, attr):
    """(owner object, attribute name) for a hook target, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, last, None)
    if callable(target) or (isinstance(target, tuple) and target and all(map(callable, target))):
        return owner, last
    return None


def find_hooks():
    """Indices of the HOOKS whose targets exist in the imported package."""
    return [i for i, (_, module, attr, _) in enumerate(HOOKS) if _resolve(module, attr)]


@contextlib.contextmanager
def installed(recorder, hook_ids):
    """Every hook in `hook_ids` records into `recorder` until the block exits."""
    saved = []
    try:
        for i in hook_ids:
            _, module, attr, count = HOOKS[i]
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            if isinstance(original, tuple):
                wrapped = tuple(recorder.wrap(i, f, count) for f in original)
            else:
                wrapped = recorder.wrap(i, original, count)
            saved.append((owner, name, original))
            setattr(owner, name, wrapped)
        yield recorder
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# Per-layer metrics: name -> (unit, requirements).  Each requirement is a
# group of span names or hook attributes, and is met when at least one hook
# of the group is installed.  The order is the order of the report.
METRICS = {
    "rng.s": ("s", [("rng",)]),
    "rng.calls": ("count", [("rng",)]),
    "rng.uniforms": ("count", [("rng",)]),
    "rng.uniforms_per_s": ("1/s", [("rng",)]),
    "sampler.draw.s": ("s", [("sampler.draw",)]),
    "sampler.draw.points": ("count", [("sampler.draw",)]),
    "sampler.reduce.s": ("s", [("sampler.reduce",)]),
    "sampler.accept_ratio": ("ratio", [("sampler.reject",), ("bodies.membership",)]),
    "bodies.gauge.s": ("s", [("bodies.gauge",)]),
    "bodies.gauge.points": ("count", [("bodies.gauge",)]),
    "bodies.membership.s": ("s", [("bodies.membership",)]),
    "bodies.membership.points": ("count", [("bodies.membership",)]),
    "bodies.polar.s": ("s", [("bodies.polar",)]),
    "revolution.eval.s": ("s", [("revolution.eval",)]),
    "revolution.eval.points": ("count", [("revolution.eval",)]),
    "revolution.quad.s": ("s", [("revolution.quad",)]),
    "revolution.quad.calls": ("count", [("revolution.quad",)]),
    "revolution.quad.intervals": ("count", [("revolution.quad",), ("_NP_EVAL",)]),
    "revolution.report.s": ("s", [("revolution.report",)]),
    "specfun.s": ("s", [("specfun",)]),
    "specfun.calls": ("count", [("specfun",)]),
    "exact.s": ("s", [("exact",)]),
    "exact.calls": ("count", [("exact",)]),
    "harness.s": ("s", [("harness.report", "harness.point")]),
    "harness.points": ("count", [("harness.report", "harness.point")]),
    "cli.s": ("s", [("cli",)]),
    "trace.overhead_frac": ("ratio", []),
}


def missing_metrics(hook_ids):
    """Metric name -> reason, for metrics with a requirement no hook meets."""
    have = {HOOKS[i][0] for i in hook_ids} | {HOOKS[i][2] for i in hook_ids}
    out = {}
    for metric, (_, needs) in METRICS.items():
        lost = [group for group in needs if not have.intersection(group)]
        if lost:
            gone = [f"{m}.{a}" for n, m, a, _ in HOOKS if any(n in g or a in g for g in lost)]
            out[metric] = "hook target gone: " + ", ".join(gone)
    return out


def layer_metrics(spans):
    """Per-layer values of one traced pass (overhead_frac is added by the caller)."""
    hook, parent = spans["hook"], spans["parent"]
    dur = spans["end"] - spans["start"]
    name = _HOOK_NAME[hook]
    has_parent = parent >= 0
    child = np.zeros(dur.shape)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = np.bincount(_NAME_LAYER[name], weights=dur - child, minlength=len(LAYERS))
    parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], -1)
    outer = parent_name != name  # not nested in a span of the same name
    work = np.bincount(name[outer], weights=spans["work"][outer], minlength=len(NAMES))
    calls = np.bincount(name[outer], minlength=len(NAMES))

    def s(layer):
        return float(self_time[LAYERS.index(layer)])

    def w(n):
        return int(work[_NAME_ID[n]])

    def c(n):
        return int(calls[_NAME_ID[n]])

    quad = _NAME_ID["revolution.quad"]
    intervals = int(np.count_nonzero(
        (hook == _NP_EVAL_HOOK) & has_parent & (parent_name == quad)))
    candidates = w("bodies.membership")
    rng_s = s("rng")
    return {
        "rng.s": rng_s,
        "rng.calls": c("rng"),
        "rng.uniforms": w("rng"),
        # by convention 0 where the layer did not run, as for the ratio below
        "rng.uniforms_per_s": w("rng") / rng_s if rng_s > 0 else 0.0,
        "sampler.draw.s": s("sampler.draw"),
        "sampler.draw.points": w("sampler.draw"),
        "sampler.reduce.s": s("sampler.reduce"),
        "sampler.accept_ratio": w("sampler.reject") / candidates if candidates else 0.0,
        "bodies.gauge.s": s("bodies.gauge"),
        "bodies.gauge.points": w("bodies.gauge"),
        "bodies.membership.s": s("bodies.membership"),
        "bodies.membership.points": candidates,
        "bodies.polar.s": s("bodies.polar"),
        "revolution.eval.s": s("revolution.eval"),
        "revolution.eval.points": w("revolution.eval"),
        "revolution.quad.s": s("revolution.quad"),
        "revolution.quad.calls": c("revolution.quad"),
        "revolution.quad.intervals": intervals,
        "revolution.report.s": s("revolution.report"),
        "specfun.s": s("specfun"),
        "specfun.calls": c("specfun"),
        "exact.s": s("exact"),
        "exact.calls": c("exact"),
        "harness.s": s("harness"),
        "harness.points": w("harness.report") + w("harness.point"),
        "cli.s": s("cli"),
    }


def save(path, recorders):
    """Write every traced pass's spans to one .npz file."""
    parts = [r.arrays() for r in recorders]
    out = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    out["pass"] = np.concatenate([np.full(len(p["hook"]), i) for i, p in enumerate(parts)])
    out["hook_names"] = np.array([f"{n} {m}.{a}" for n, m, a, _ in HOOKS])
    np.savez(path, **out)
