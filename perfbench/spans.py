"""Span tracing installed from outside the program.

``installed`` wraps the public functions and methods listed in TARGETS,
rebinding each one in every weierforge module namespace that bound it (so a
name imported with ``from .wronski import wronskian`` is wrapped in the
importing module too), and restores every original on exit.  Each call
records a span ``[name, start, end, parent, item]`` in memory; ``parent`` is
the index of the enclosing span, ``item`` the benchmark item being run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path) for every wrapped function or method.
TARGETS = (
    ("exact.fraction_free_rank_det", "exact", "fraction_free_rank_det"),
    ("exact.hasse_list", "exact", "RationalFunction.hasse_list"),
    ("exact.rational_roots", "exact", "Polynomial.rational_roots"),
    ("exact.scalar_echelon", "exact", "scalar_echelon"),
    ("exact.scalar_nullspace", "exact", "scalar_nullspace"),
    ("exact.coprime_refinement", "exact", "coprime_refinement"),
    ("wronski.order_sequence", "wronski", "order_sequence"),
    ("wronski.wronskian", "wronski", "wronskian"),
    ("wronski.weight_divisor", "wronski", "weight_divisor"),
    ("curve.dualizing_basis", "curve", "dualizing_basis"),
    ("curve.singular_weight", "curve", "singular_weight"),
    ("curve.weight_report", "curve", "weight_report"),
    ("curve.monomial_curve_weights", "curve", "monomial_curve_weights"),
    ("valsg2.ring_from_generators", "valsg2", "ring_from_generators"),
    ("valsg2.validate_ring", "valsg2", "validate_ring"),
    ("valsg2.value_semigroup", "valsg2", "value_semigroup"),
    ("valsg2.symmetry_check", "valsg2", "symmetry_check"),
    ("valsg2.adapted_basis", "valsg2", "adapted_basis"),
    ("valsg2.v_systems_weights", "valsg2", "v_systems_weights"),
    ("valsg2.two_branch_weight_formula", "valsg2", "two_branch_weight_formula"),
    ("padic.monomial_order_sequence", "padic", "monomial_order_sequence"),
    ("cli.main", "cli", "main"),
)

PACKAGE = "weierforge"


def _coeff_bits(c):
    value = getattr(c, "value", None)  # an FpElement carries its residue
    if value is not None:
        return value.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def wronskian_sizes(det):
    """Degree and largest coefficient bit size of a returned determinant."""
    coeffs = det.num.coeffs + det.den.coeffs
    return {"max_degree": max(det.num.degree, det.den.degree),
            "max_coeff_bits": max(_coeff_bits(c) for c in coeffs)}


SIZES = {"wronski.wronskian": wronskian_sizes}


class Tracer:
    """In-memory span recorder with per-name size maxima."""

    def __init__(self):
        self.spans = []
        self.maxima = {}
        self.item = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if sizes is not None:
                for key, value in sizes(result).items():
                    metric = "%s.%s" % (name, key)
                    self.maxima[metric] = max(self.maxima.get(metric, 0), value)
            return result

        return wrapper


def _program_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every TARGETS entry for the duration of the block."""
    modules = _program_modules()
    saved = []
    try:
        for name, module, path in TARGETS:
            owner = sys.modules["%s.%s" % (PACKAGE, module)]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original)
            if classes:
                bindings = [(owner, attr)]
            else:
                bindings = [(m, key) for m in modules
                            for key, value in vars(m).items() if value is original]
            for namespace, key in bindings:
                saved.append((namespace, key, original))
                setattr(namespace, key, wrapper)
        yield tracer
    finally:
        for namespace, key, original in reversed(saved):
            setattr(namespace, key, original)


def self_times(spans):
    """Self time of each span: its duration minus the union of the parts of
    that interval covered by its direct children."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_name, start, end, _parent, _item) in enumerate(spans):
        covered = 0.0
        reach = start
        for cstart, cend in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            cstart, cend = max(cstart, reach), min(cend, end)
            if cend > cstart:
                covered += cend - cstart
                reach = cend
        out.append((end - start) - covered)
    return out


def _has_namesake_ancestor(spans, span):
    parent = span[3]
    while parent is not None:
        if spans[parent][0] == span[0]:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(spans):
    """Per span name: calls, summed self time and inclusive time (counting
    a recursive call once); per (parent name, child name): direct calls."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    child_calls = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
        if not _has_namesake_ancestor(spans, span):
            total_s[span[0]] += span[2] - span[1]
        if span[3] is not None:
            child_calls[(spans[span[3]][0], span[0])] += 1
    return calls, self_s, total_s, child_calls


def top_level_seconds(spans):
    """Wall time covered by spans that have no parent span."""
    return sum(span[2] - span[1] for span in spans if span[3] is None)
