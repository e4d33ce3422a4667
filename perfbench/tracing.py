"""Per-layer tracing from outside the program.

Spans wrap public orbitlab functions and methods.  A wrapped module-level
function is rebound in every orbitlab module that imported it, so calls
between modules are traced too.  Each span records its name, start, end,
parent span and instance id; spans stay in memory until the run ends.  A
span's self time is its duration minus the time its direct children cover.

Kernel counters (valuation, psi, cyclotomic and quadratic products) run in
a separate counting pass, so that their wrapper cost does not land in the
span self times.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _u1_level(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["k"]


# (metric prefix, module, attribute path, extra counters)
# An extra counter is (name, kind, fn(args, kwargs, result)) with kind
# "sum" or "max".
SPAN_TARGETS = [
    ("steps.translate", "steps", "StepFunction.translate", ()),
    ("steps.restrict_zero", "steps", "StepFunction.restrict_zero", ()),
    ("steps.affine_pullback", "steps", "StepFunction.affine_pullback", (
        ("terms_out", "sum", lambda a, k, r: len(r.terms)),)),
    ("steps.fourier", "steps", "StepFunction.fourier", ()),
    ("steps.canonicalize", "steps", "StepFunction.canonicalize", (
        ("terms_in", "sum", lambda a, k, r: len(a[0].terms)),
        ("terms_out", "sum", lambda a, k, r: len(r.terms)))),
    ("steps.eval", "steps", "StepFunction.eval", ()),
    ("steps.partial_integrate", "steps", "StepFunction.partial_integrate",
     ()),
    ("zeta.mult_zeta", "zeta", "mult_zeta", (
        ("terms_in", "sum", lambda a, k, r: len(a[1].terms)),)),
    ("zeta.value_at_one", "zeta", "ZetaElement.value_at_one", ()),
    ("etale.u1_cosets", "etale", "u1_cosets", (
        ("reps_out", "sum", lambda a, k, r: len(r)),
        ("level_max", "max", lambda a, k, r: _u1_level(a, k)))),
    ("integrals.torus_orbit_integral", "integrals", "torus_orbit_integral",
     ()),
    ("integrals.deep_element", "integrals", "deep_element", ()),
    ("integrals.germ_extract", "integrals", "germ_extract", (
        ("radius_max", "max", lambda a, k, r: r.radius),)),
    ("integrals.c_empty_closed_form", "integrals", "c_empty_closed_form",
     ()),
    ("integrals.gl_orbit_integral", "integrals", "gl_orbit_integral", ()),
    ("integrals.nilpotent_orbit_integral_gl", "integrals",
     "nilpotent_orbit_integral_gl", ()),
    ("integrals.unitary_orbit_integral", "integrals",
     "unitary_orbit_integral", ()),
    ("integrals.chi_average_compact", "integrals", "chi_average_compact", (
        ("terms_out", "sum", lambda a, k, r: len(r.terms)),)),
    ("integrals.parabolic_descent", "integrals", "parabolic_descent", ()),
    ("integrals.weil_index", "integrals", "weil_index", ()),
    ("harness.construct_jr_transfer_n1", "harness",
     "construct_jr_transfer_n1", (
         ("terms_out", "sum", lambda a, k, r: len(r[0].terms) +
          len(r[1].terms)),)),
    ("spaces.mat_mul", "spaces", "mat_mul", ()),
    ("cohomology.delta_family", "cohomology", "delta_family", ()),
    ("cohomology.inv", "cohomology", "inv", ()),
    ("cohomology.subset_pairing", "cohomology", "subset_pairing", ()),
    ("weilsign.index_ratio", "weilsign", "index_ratio", ()),
]

# (metric prefix, module, attribute path)
COUNT_TARGETS = [
    ("scalar.valuation", "scalar", "valuation"),
    ("scalar.psi", "scalar", "LocalField.psi"),
    ("cyclo.mul", "cyclo", "Cyc.__mul__"),
    ("quadext.mul", "quadext", "Q2.__mul__"),
]


class Patcher:
    """Replaces one orbitlab function or method everywhere it is bound,
    and puts the originals back on restore()."""

    def __init__(self):
        self._undo = []

    def replace(self, module: str, path: str, make_wrapper):
        mod = sys.modules[f"orbitlab.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            wrapper = make_wrapper(original)
            # aliases such as __rmul__ = __mul__ share the function object
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, name, wrapper)
            return
        original = getattr(mod, path)
        wrapper = make_wrapper(original)
        for name, m in list(sys.modules.items()):
            if name == "orbitlab" or name.startswith("orbitlab."):
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SpanTracer:
    """Records a span around every call of the SPAN_TARGETS."""

    def __init__(self):
        self.names = []      # span -> name
        self.starts = []
        self.ends = []
        self.parents = []    # index of the parent span, -1 at top level
        self.instances = []  # instance id current when the span opened
        self.covered = []    # time covered by direct children
        self.extras = {}     # "prefix.counter" -> value
        self.instance = None
        self._stack = []
        self._patcher = Patcher()

    def install(self):
        for prefix, module, path, extras in SPAN_TARGETS:
            for name, kind, _ in extras:
                self.extras[f"{prefix}.{name}"] = 0
            self._patcher.replace(module, path, functools.partial(
                self._wrap, prefix, extras))

    def restore(self):
        self._patcher.restore()

    def _wrap(self, prefix, extras, fn):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.names)
            parent = stack[-1] if stack else -1
            tracer.names.append(prefix)
            tracer.parents.append(parent)
            tracer.instances.append(tracer.instance)
            tracer.covered.append(0.0)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
                if parent >= 0:
                    tracer.covered[parent] += end - start
            for name, kind, get in extras:
                key = f"{prefix}.{name}"
                value = get(args, kwargs, result)
                if kind == "sum":
                    tracer.extras[key] += value
                else:
                    tracer.extras[key] = max(tracer.extras[key], value)
            return result

        return traced

    def summary(self) -> dict:
        """calls and self_s per target, the extra counters, and the total
        time inside top-level spans."""
        out = {}
        for prefix, _, _, _ in SPAN_TARGETS:
            out[f"{prefix}.calls"] = 0
            out[f"{prefix}.self_s"] = 0.0
        top = 0.0
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - self.covered[i]
            if self.parents[i] < 0:
                top += dur
        out.update(self.extras)
        return out, top

    def write(self, path):
        """One line per span: name, start, end, parent, instance."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(f"{name},{self.starts[i]:.9f},{self.ends[i]:.9f},"
                         f"{self.parents[i]},{self.instances[i]}\n")


class CallCounter:
    """Counts calls of the COUNT_TARGETS."""

    def __init__(self):
        self.counts = {prefix: 0 for prefix, _, _ in COUNT_TARGETS}
        self._patcher = Patcher()

    def install(self):
        for prefix, module, path in COUNT_TARGETS:
            self._patcher.replace(module, path,
                                  functools.partial(self._wrap, prefix))

    def restore(self):
        self._patcher.restore()

    def _wrap(self, prefix, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        return {f"{prefix}.calls": n for prefix, n in self.counts.items()}
