"""Per-layer tracing of basiskit from outside the package.

The tracer replaces functions of ``basiskit`` modules with timing
wrappers for the length of a traced run and puts the originals back
afterwards.  Nothing inside ``src/`` knows it is being traced.

Two kinds of wrapper share one call stack:

- a *span* records ``(name, start, end, parent, job, raised)``; it wraps the
  calls that happen a few times per job (command entry, descriptor
  loading, check functions, report rendering);
- a *counted* wrapper only adds its time and call count to its layer; it
  wraps per-case helpers (matrix kernels, transformation comparison)
  whose spans would outnumber the work they describe.

Both subtract their duration from the caller's self time, so a layer's
self time is its wrappers' durations minus the time of wrapped calls made
inside them.  A wrapper called directly from itself (recursion) is folded
into the outer call.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# Layer of each traced module.  ``scalars`` is folded into ``matrices``:
# ``Backend.eq`` and the ``Fraction`` operations are too fine-grained to
# wrap.  ``sampling`` and ``errors`` are not wrapped; their time lands in
# the caller's self time.
LAYERS = {
    "basiskit.cli": "cli",
    "basiskit.descriptors": "descriptors",
    "basiskit.groups": "groups",
    "basiskit.representations": "representations",
    "basiskit.bases": "bases",
    "basiskit.objects": "objects",
    "basiskit.reports": "reports",
    "basiskit.selftest": "selftest",
}

# Thin dispatchers called once per case of a sweep; wrapping them would
# cost more than they do, so their time stays in the caller's self time.
UNWRAPPED = {"groups.compose", "groups.inverse", "representations.apply"}

# Public module functions called once per case of a sweep: counted, no span.
PER_CASE = {"representations.compose_transformations", "representations.transformations_equal"}

# Methods wrapped explicitly: (module, class, method, layer).
METHODS = [
    ("basiskit.groups", "MatrixGroup", "membership", "groups"),
    ("basiskit.groups", "MatrixGroup", "close_over", "groups"),
    ("basiskit.reports", "RunReport", "add", "reports"),
    ("basiskit.reports", "RunReport", "add_verdict", "reports"),
    ("basiskit.reports", "RunReport", "as_dict", "reports"),
    ("basiskit.reports", "RunReport", "to_json", "reports"),
    ("basiskit.reports", "RunReport", "to_text", "reports"),
    ("basiskit.reports", "CheckLine", "as_dict", "reports"),
]

# Matrix kernels, counted under ``matrices.exact`` or ``matrices.float`` by
# the backend of the matrix they are called on.
MATRIX_METHODS = (
    "det", "inverse", "mul", "kron", "block_diag", "transpose", "matvec",
    "vecmat", "eq", "max_diff", "add", "sub", "scale", "is_identity",
)

LAYER_NAMES = (
    "cli", "descriptors", "groups", "representations", "bases", "objects",
    "matrices", "reports", "selftest",
)


class Tracer:
    """Install with :meth:`install`, run jobs with :attr:`job` set, then
    :meth:`restore`.  Totals are in :attr:`self_s`, :attr:`calls`,
    :attr:`raised`, :attr:`inclusive_s` and :attr:`counts`."""

    def __init__(self):
        self.job = None
        self.spans = []
        self.self_s = defaultdict(float)  # layer -> seconds of self time
        self.calls = defaultdict(int)  # layer or "layer.function" -> calls
        self.raised = defaultdict(int)  # layer -> calls that raised
        self.inclusive_s = defaultdict(float)  # "layer.function" -> seconds
        self.counts = defaultdict(int)  # named work counters
        self._stack = []  # frames: [wrapper, child seconds, span id or None]
        self._span_ids = []
        self._patches = []
        self._origin = time.perf_counter()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, layer, span, on_exit=None):
        """``layer`` is a string or a function of the call's arguments."""
        stack, span_ids, clock = self._stack, self._span_ids, time.perf_counter
        self_s, calls, raised, spans = self.self_s, self.calls, self.raised, self.spans

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is wrapper:
                return fn(*args, **kwargs)
            frame = [wrapper, 0.0, None]
            if span:
                frame[2] = len(spans)
                spans.append(None)
                span_ids.append(frame[2])
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                key = layer if isinstance(layer, str) else layer(args)
                self_s[key] += duration - frame[1]
                calls[key] += 1
                calls[name] += 1
                if failed:
                    raised[key] += 1
                if span:
                    span_ids.pop()
                    spans[frame[2]] = (
                        name, start - self._origin, end - self._origin,
                        span_ids[-1] if span_ids else None, self.job, failed,
                    )
            if on_exit is not None:
                on_exit(args, result, duration)
            return result

        wrapper.bench_original = fn
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _inclusive(self, key):
        def on_exit(args, result, duration):
            self.inclusive_s[key] += duration
        return on_exit

    def install(self):
        """Wrap every public function of the traced modules, the listed
        methods and the matrix kernels, in every module that refers to them."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "basiskit" or name.startswith("basiskit.")]
        replacements = {}
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != modname:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                on_exit = None
                if name == "groups.validate_cayley_table":
                    on_exit = self._inclusive("groups.cayley")
                replacements[fn] = self._wrap(fn, name, layer, name not in PER_CASE, on_exit)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(module, attr, replacements[value])

        for modname, cls_name, attr, layer in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            name = f"{layer}.{cls_name}.{attr}"
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, layer, True,
                                              self._method_exit(name)))

        groups = sys.modules["basiskit.groups"]
        eq_to = groups.GroupElement.__dict__["eq_to"]
        counts = self.counts

        def counted_eq_to(element, other):
            counts["groups.eq_calls"] += 1
            return eq_to(element, other)

        counted_eq_to.bench_original = eq_to
        self._patch(groups.GroupElement, "eq_to", counted_eq_to)

        matrix = sys.modules["basiskit.matrices"].Matrix
        by_backend = lambda args: "matrices.exact" if args[0].backend.is_exact else "matrices.float"
        for attr in MATRIX_METHODS:
            self._patch(matrix, attr, self._wrap(
                matrix.__dict__[attr], f"matrices.{attr}", by_backend, False))

    def _method_exit(self, name):
        """What a wrapped method adds besides its time: inclusive time of
        the group predicates, closure sizes and report bytes."""
        if name == "groups.MatrixGroup.membership":
            return self._inclusive(name)
        if name == "groups.MatrixGroup.close_over":
            inclusive = self._inclusive(name)

            def on_exit(args, result, duration):
                inclusive(args, result, duration)
                self.counts["groups.closure_elements"] += len(args[0].store)
            return on_exit
        if name in ("reports.RunReport.to_json", "reports.RunReport.to_text"):
            def on_exit(args, result, duration):
                self.counts["reports.bytes"] += len(result.encode("utf-8"))
            return on_exit
        return None

    def restore(self):
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer metrics, per job, in the units ``BENCHMARK.json`` names."""
        ms = lambda seconds: 1000.0 * seconds / jobs
        per = lambda count: count / jobs
        out = {}
        for layer in LAYER_NAMES:
            if layer == "matrices":
                out["matrices.exact_ms"] = ms(self.self_s["matrices.exact"])
                out["matrices.float_ms"] = ms(self.self_s["matrices.float"])
                raised = self.raised["matrices.exact"] + self.raised["matrices.float"]
            else:
                out[f"{layer}.self_ms"] = ms(self.self_s[layer])
                raised = self.raised[layer]
            out[f"{layer}.raised"] = per(raised)
        out.update({
            "descriptors.calls": per(self.calls["descriptors"]),
            "representations.calls": per(self.calls["representations"]),
            "bases.calls": per(self.calls["bases"]),
            "objects.transform_calls": per(self.calls["objects.transform_object"]),
            "reports.bytes": per(self.counts["reports.bytes"]),
            "groups.cayley_ms": ms(self.inclusive_s["groups.cayley"]),
            "groups.closure_ms": ms(self.inclusive_s["groups.MatrixGroup.close_over"]),
            "groups.closure_elements": per(self.counts["groups.closure_elements"]),
            "groups.eq_calls": per(self.counts["groups.eq_calls"]),
            "groups.membership_ms": ms(self.inclusive_s["groups.MatrixGroup.membership"]),
            "groups.membership_calls": per(self.calls["groups.MatrixGroup.membership"]),
            "matrices.det_calls": per(self.calls["matrices.det"]),
            "matrices.inverse_calls": per(self.calls["matrices.inverse"]),
            "matrices.mul_calls": per(self.calls["matrices.mul"]),
        })
        return out

    def deterministic_counts(self) -> dict:
        """Totals that depend only on the inputs, not on timing."""
        keys = ("descriptors", "representations", "bases", "objects.transform_object",
                "groups.MatrixGroup.membership", "matrices.det", "matrices.inverse",
                "matrices.mul")
        out = {f"{k}.calls": self.calls[k] for k in keys}
        out["groups.closure_elements"] = self.counts["groups.closure_elements"]
        out["groups.eq_calls"] = self.counts["groups.eq_calls"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, job, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "raised": raised}) + "\n")
