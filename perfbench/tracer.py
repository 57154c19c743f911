"""Per-layer spans around kirbycalc's public functions, from outside the package.

install() replaces every public function of each layer module, and a
few hot methods, by a timing wrapper.  The wrapper is bound under every
name that held the original in any loaded kirbycalc module, so callers
that imported the function by name, and function-local imports that
run later, reach it too.  uninstall() puts every original back.

A span is (id, name, start, end, parent id, operation id).  Spans are
kept in memory and written out by the caller when the run ends.  Self
time is a span's duration minus the time covered by its child spans.
Generator functions get one span per next() call.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("intmat", "forms", "handlebody", "legendrian", "cobordism", "genus", "textio", "cli")
METHODS = (("intmat", "IntMatrix", "mul"), ("forms", "ModuleHom", "is_isomorphism"),
           ("cobordism", "SubmodulePresentation", "membership"))
# reduces one coefficient vector per table lookup; a span per call would
# cost more than the work it measures
UNTRACED = frozenset({"forms.canonical_key"})
# SNF callers that read only the diagonal; every other caller, the
# benchmark's own direct calls included, consumes U and V
DIAGONAL_ONLY_CALLERS = frozenset({"intmat.cokernel"})
PARSERS = frozenset({"textio.parse_handlebody", "textio.parse_module", "textio.parse_table"})

# the functions whose calls and self time are reported as per-layer metrics
REPORTED = (
    "intmat.smith_normal_form", "intmat.cokernel", "intmat.kernel_basis",
    "intmat.determinant", "intmat.signature", "intmat.solve_integer", "intmat.IntMatrix.mul",
    "forms.iter_isometries", "forms.isometry_exists", "forms.algebraically_equivalent",
    "forms.ModuleHom.is_isomorphism", "forms.check_g_preservation",
    "handlebody.homology", "handlebody.hihc_certificate", "legendrian.steinify",
    "cobordism.submodule", "cobordism.attach", "genus.sum_model",
    "textio.parse_handlebody", "textio.render_handlebody", "textio.parse_module", "cli.main",
)
COUNTERS = (
    "intmat.smith_normal_form.transform_bits_max", "intmat.smith_normal_form.transforms_used",
    "forms.iter_isometries.leaves", "forms.iter_isometries.yielded",
    "forms.algebraically_equivalent.undecided", "textio.bytes_parsed",
)


class Tracer:
    def __init__(self, keep_spans=True):
        self.keep_spans = keep_spans
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.op_id = -1
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- span bookkeeping --------------------------------------------------

    def _push(self, name, count=True):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, parent[0] if parent else -1,
                 parent[1] if parent else None, 0.0, 0.0]
        self._next_id += 1
        if count:
            self.calls[name] += 1
        self._stack.append(frame)
        frame[5] = perf_counter()
        return frame

    def _pop(self, frame):
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[5]
        self.self_s[frame[1]] += duration - frame[4]
        if self._stack:
            self._stack[-1][4] += duration
        if self.keep_spans:
            self.spans.append((frame[0], frame[1], frame[5], end, frame[2], self.op_id))

    def _discount(self, seconds):
        """Keep the tracer's own bookkeeping out of the enclosing self time."""
        if self._stack:
            self._stack[-1][4] += seconds

    # -- counters taken at layer boundaries -----------------------------------

    def _after(self, name, frame, args, result):
        if name == "intmat.smith_normal_form":
            bits = max((x.bit_length() for m in (result.u, result.v)
                        for row in m.entries for x in row), default=0)
            c = self.counters
            c["intmat.smith_normal_form.transform_bits_max"] = max(
                c["intmat.smith_normal_form.transform_bits_max"], bits)
            if frame[3] not in DIAGONAL_ONLY_CALLERS:
                c["intmat.smith_normal_form.transforms_used"] += 1
        elif name == "forms.module_hom":
            if frame[3] == "forms.iter_isometries":
                self.counters["forms.iter_isometries.leaves"] += 1
        elif name == "forms.algebraically_equivalent":
            self.counters["forms.algebraically_equivalent.undecided"] += len(result.undecided)
        elif name in PARSERS:
            self.counters["textio.bytes_parsed"] += len(args[0].encode())

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                tracer.calls[name] += 1
                return _TracedIterator(tracer, name, fn(*args, **kwargs))
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            t = perf_counter()
            tracer._after(name, frame, args, result)
            tracer._discount(perf_counter() - t)
            return result
        return wrapper

    def targets(self):
        """(qualified name, owner, attribute, original) for every traced callable."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"kirbycalc.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    out.append((name, mod, attr, obj))
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"kirbycalc.{layer}"], cls_name)
            out.append((f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]))
        return out

    def install(self):
        import kirbycalc.cli  # noqa: F401  (loads every layer module)

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kirbycalc" or n.startswith("kirbycalc.")]
        for name, owner, attr, original in self.targets():
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def exact_counts(self):
        """Every count that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({k: self.counters[k] for k in COUNTERS})
        return out

    def layer_self_s(self):
        totals = defaultdict(float)
        for name, s in self.self_s.items():
            totals[name.split(".", 1)[0]] += s
        return {layer: totals[layer] for layer in LAYERS}


class _TracedIterator:
    """Times each next() of a generator as one span of the generator's name."""

    def __init__(self, tracer, name, gen):
        self._tracer, self._name, self._gen = tracer, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer._push(self._name, count=False)
        try:
            value = next(self._gen)
        finally:
            self._tracer._pop(frame)
        self._tracer.counters[f"{self._name}.yielded"] += 1
        return value
