"""Span tracing by wrapping envnorm's public functions in place.

A :class:`Tracer` replaces each named function with a wrapper in every
envnorm module that binds it, so calls between modules are caught, and wraps
``LieAlgebra.bracket`` and the ``Scalar`` arithmetic operators on their
classes.  Spans are aggregated in memory per name -- calls, self time (span
minus the time of the spans it encloses) and term counts -- and read once,
when the traced round has ended.  :meth:`Tracer.remove` puts the originals
back.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, function, span name, count terms in, count terms out)
FUNCTIONS = (
    ("envnorm.cli", "parse_spec", "cli.parse_spec", False, False),
    ("envnorm.cli", "parse_expr", "cli.parse_expr", False, False),
    ("envnorm.liealg", "validate_algebra", "liealg.validate", False, False),
    ("envnorm.liealg", "validate_split", "liealg.validate", False, False),
    ("envnorm.normalform", "act", "normalform.act", False, True),
    ("envnorm.normalform", "section_s", "normalform.section", False, True),
    ("envnorm.envelope", "straighten", "envelope.straighten", False, False),
    ("envnorm.envelope", "oracle_normal_order", "envelope.oracle", False, False),
    ("envnorm.envelope", "env_eq", "envelope.env_eq", False, False),
    ("envnorm.envelope", "state_canon", "envelope.state_canon", True, True),
    ("envnorm.envelope", "state_eq", "envelope.state_eq", False, False),
)
SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__neg__")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list = []  # child time accumulated by each open span
        self.spans: dict = {}  # name -> [calls, self seconds, terms in, terms out]
        self.scalar_ops = 0
        self._undo: list = []

    def _record(self, name):
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0, 0]
        return rec

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        rec = self._record(name)
        stack, clock = self.stack, self.clock
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            yield
        finally:
            elapsed = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            rec[0] += 1
            rec[1] += elapsed - frame[0]

    def wrap(self, fn, name, terms_in=False, terms_out=False):
        rec = self._record(name)
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec[0] += 1
                rec[1] += elapsed - frame[0]
            if terms_in:
                rec[2] += len(args[0].terms)
            if terms_out:
                rec[3] += len(result.terms)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function wherever an envnorm module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "envnorm" or n.startswith("envnorm.")]
        for mod_name, fn_name, span, t_in, t_out in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(original, span, t_in, t_out)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._replace(mod, fn_name, wrapper)
        liealg = sys.modules["envnorm.liealg"]
        self._replace(liealg.LieAlgebra, "bracket",
                      self.wrap(liealg.LieAlgebra.bracket, "liealg.bracket"))
        scalar = sys.modules["envnorm.ring"].Scalar
        for op in SCALAR_OPS:
            self._replace(scalar, op, self._counted(getattr(scalar, op)))

    def _counted(self, fn):
        tracer = self

        def counted(*args):
            tracer.scalar_ops += 1
            return fn(*args)

        return counted

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# per-layer metric -> (span name, field); field is "calls", "self", "in" or "out"
METRICS = {
    "cli.parse_spec_s": ("cli.parse_spec", "self"),
    "cli.parse_expr_s": ("cli.parse_expr", "self"),
    "cli.render_s": ("cli.render", "self"),
    "liealg.validate_s": ("liealg.validate", "self"),
    "liealg.bracket_calls": ("liealg.bracket", "calls"),
    "liealg.bracket_self_s": ("liealg.bracket", "self"),
    "normalform.act_calls": ("normalform.act", "calls"),
    "normalform.act_self_s": ("normalform.act", "self"),
    "normalform.act_terms_out": ("normalform.act", "out"),
    "normalform.section_self_s": ("normalform.section", "self"),
    "normalform.section_terms_out": ("normalform.section", "out"),
    "envelope.straighten_calls": ("envelope.straighten", "calls"),
    "envelope.straighten_self_s": ("envelope.straighten", "self"),
    "envelope.oracle_self_s": ("envelope.oracle", "self"),
    "envelope.env_eq_self_s": ("envelope.env_eq", "self"),
    "envelope.state_canon_calls": ("envelope.state_canon", "calls"),
    "envelope.state_canon_self_s": ("envelope.state_canon", "self"),
    "envelope.state_canon_terms_in": ("envelope.state_canon", "in"),
    "envelope.state_canon_terms_out": ("envelope.state_canon", "out"),
    "envelope.state_eq_self_s": ("envelope.state_eq", "self"),
}
# envnorm.checks.PROPERTY_NAMES, listed here so that naming the metrics needs
# no import of the program (the tests check that the two agree)
SUITE_PROPERTIES = ("validate", "oracle", "inverse", "lie_action", "filtration",
                    "right_linearity", "mu_compat", "well_defined")
for _prop in SUITE_PROPERTIES:
    METRICS[f"checks.{_prop}_s"] = (f"checks.{_prop}", "self")

_CORE = [m for m in METRICS if m.split(".")[0] in ("liealg", "normalform", "envelope")]
_CORE.insert(3, "ring.scalar_ops")
# the layers each workload enters, so that no reported time is 0 by construction
WORKLOAD_LAYERS = {
    "suite": _CORE + [f"checks.{p}_s" for p in SUITE_PROPERTIES],
    "degree_sweep": [m for m in _CORE if m != "liealg.validate_s"],
    "request_stream": ["cli.parse_spec_s", "cli.parse_expr_s", "cli.render_s"] + _CORE,
}


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def layer_values(tracer: Tracer, workload: str) -> dict:
    """The per-layer metrics of ``workload`` from a finished traced round."""
    out = {}
    for metric in WORKLOAD_LAYERS[workload]:
        if metric == "ring.scalar_ops":
            out[metric] = tracer.scalar_ops
            continue
        span, field = METRICS[metric]
        rec = tracer.spans.get(span, [0, 0.0, 0, 0])
        out[metric] = rec[{"calls": 0, "self": 1, "in": 2, "out": 3}[field]]
    return out
