"""The three benchmark workloads: seeded inputs, item runners and checks.

Nothing here imports weierforge at module level.  Item runners receive the
loaded program as a namespace of its modules (see ``run.load_program``), so
that the set-up timing can import the package afresh and the traced run can
rebind the module attributes that the runners call through.

Inputs of ``rings`` and ``charp`` are drawn from the seed over a fixed list
of shapes: the seed picks coefficients, orientations, locations and primes,
the shape list fixes how much work one pass does.  Drawing the shapes
themselves at random would let the pass time follow the draw rather than
the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple


class CheckFailed(Exception):
    """An item's output disagreed with its independent check."""


class Item(NamedTuple):
    key: str
    data: object


def _expect(condition, label):
    if not condition:
        raise CheckFailed(label)


def _cli_json(wf, argv):
    """Run the CLI in process; check its exit code; return its JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wf.cli.main(argv)
    _expect(code == 0, "exit code %d for %s" % (code, " ".join(argv)))
    return json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# gallery: the built-in scenarios, which assert their published values
# ---------------------------------------------------------------------------

def gallery_inputs(wf, seed, workdir):
    """Every scenario of ``gallery.SCENARIOS``; the seed is ignored."""
    return [Item(name, name) for name in sorted(wf.gallery.SCENARIOS)]


def run_gallery(wf, item):
    return _cli_json(wf, ["reproduce", item.data, "--format", "json"])


# ---------------------------------------------------------------------------
# rings: seeded two-branch plane-curve germs through the two-branch path
# ---------------------------------------------------------------------------

RING_WINDOW = 14
RING_MAX_DELTA = 5

REPORT, SKIP, REJECT = "report", "skip", "reject"

# ring_from_generators raises ValueError with one of these when the
# conductor does not lie inside the window; any other ValueError fails the
# item.
REJECTIONS = ("no conductor found inside the window", "window too small for the conductor")


class RingShape(NamedTuple):
    """One germ per pass: (ord x, ord y) on each branch, the intersection
    multiplicity I of the two branches, and the expected outcome."""
    branch1: tuple
    branch2: tuple
    I: object
    outcome: str


def branch_delta(orders):
    """delta of a branch with coprime orders (a, b): the genus (a-1)(b-1)/2
    of the semigroup <a, b>."""
    a, b = orders
    return (a - 1) * (b - 1) // 2


# Orders are coprime, so each branch has one Puiseux pair and semigroup
# <a, b>, and I follows from the leading terms: m1*m2 (m = min(a, b)) for
# branches with distinct tangents, min(b1*a2, b2*a1) for two branches
# tangent to the x-axis whose exponents b/a differ.  Two branches of the
# same shape with a = 1 get distinct leading coefficients of y as a series
# in x (see _germ), so their I is the one listed too.  delta is
# I + delta1 + delta2: the first ten close with delta <= 4 and get a weight
# report, the next three close with delta 6..9 and are skipped, and the
# last three have a conductor exponent >= 14 = RING_WINDOW, so
# ring_from_generators rejects them.  That is 6 rejections or skips in 16,
# near the share of the random draw of tests/conftest.py (11 rejections in
# 23 at its seed).  Two tangent branches of orders (1, 4) are left out:
# their delta (4 or 5) depends on the coefficients, and the genus-5 weight
# report costs twice the genus-4 one, so the pass time would follow the draw.
RING_SHAPES = (
    RingShape((1, 1), (1, 1), 1, REPORT),
    RingShape((1, 1), (1, 3), 1, REPORT),
    RingShape((1, 1), (2, 3), 2, REPORT),
    RingShape((1, 1), (2, 5), 2, REPORT),
    RingShape((1, 2), (1, 2), 2, REPORT),
    RingShape((1, 2), (2, 3), 3, REPORT),
    RingShape((1, 3), (1, 4), 3, REPORT),
    RingShape((1, 3), (2, 3), 3, REPORT),
    RingShape((1, 2), (1, 4), 2, REPORT),
    RingShape((1, 4), (2, 3), 3, REPORT),
    RingShape((1, 1), (3, 4), 3, SKIP),
    RingShape((1, 2), (3, 4), 4, SKIP),
    RingShape((2, 3), (2, 5), 6, SKIP),
    RingShape((2, 3), (3, 4), 8, REJECT),
    RingShape((2, 5), (3, 4), 8, REJECT),
    RingShape((3, 4), (3, 4), None, REJECT),
)


def _branch_series(rng, order, length=10):
    """Coefficients of one branch coordinate, drawn as tests/conftest.py
    draws them: a nonzero leading term at ``order``, small integers after."""
    coeffs = [0] * order + [rng.choice([1, 1, 2, -1])]
    while len(coeffs) < length:
        coeffs.append(rng.choice([0, 0, 1, -1, 2]))
    return coeffs[:length]


def _leading_slope(x, y, orders):
    """Leading coefficient of y as a series in x on a branch of orders (1, b)."""
    a, b = orders
    return Fraction(y[b], x[a] ** b)


def _germ(rng, b1, b2):
    """Branch coordinates ((x1, x2), (y1, y2)); two branches of the same
    shape (1, b) are redrawn until y/x^b starts differently on each."""
    while True:
        x = (_branch_series(rng, b1[0]), _branch_series(rng, b2[0]))
        y = (_branch_series(rng, b1[1]), _branch_series(rng, b2[1]))
        if b1 != b2 or b1[0] != 1 or \
                _leading_slope(x[0], y[0], b1) != _leading_slope(x[1], y[1], b2):
            return x, y


def rings_inputs(wf, seed, workdir):
    """One germ per entry of RING_SHAPES, in seeded order and orientation;
    the item data is (x, y, shape) with the branches in the germ's order."""
    rng = random.Random(seed)
    items = []
    for shape in RING_SHAPES:
        if rng.random() < 0.5:
            shape = shape._replace(branch1=shape.branch2, branch2=shape.branch1)
        x, y = _germ(rng, shape.branch1, shape.branch2)
        items.append(Item("%d,%d|%d,%d" % (shape.branch1 + shape.branch2), (x, y, shape)))
    rng.shuffle(items)
    return items


def run_rings(wf, item):
    QQ = wf.exact.QQ
    valsg2 = wf.valsg2
    x, y, shape = item.data
    try:
        ring = valsg2.ring_from_generators(QQ, [x, y], window=RING_WINDOW)
    except ValueError as exc:
        if type(exc) is not ValueError or not str(exc).startswith(REJECTIONS):
            raise
        _expect(shape.outcome == REJECT, "expected %s, rejected: %s" % (shape.outcome, exc))
        return {"rejected": str(exc)}
    _expect(shape.outcome != REJECT, "expected a rejection, closed with delta %d" % ring.delta)
    delta = shape.I + branch_delta(shape.branch1) + branch_delta(shape.branch2)
    _expect(ring.delta == delta, "delta %d != I+delta1+delta2 = %d" % (ring.delta, delta))
    _expect((shape.outcome == SKIP) == (delta > RING_MAX_DELTA), "outcome of %r" % (shape,))
    if shape.outcome == SKIP:
        return {"skipped_delta": ring.delta}
    S2 = valsg2.value_semigroup(ring)
    symmetric, witness = valsg2.symmetry_check(S2)
    _expect(symmetric, "value semigroup of a plane germ not symmetric: %r" % (witness,))
    _expect((S2.I, S2.delta1, S2.delta2)
            == (shape.I, branch_delta(shape.branch1), branch_delta(shape.branch2)),
            "(I, delta1, delta2) = %r, expected from the branch orders" % (
                (S2.I, S2.delta1, S2.delta2),))
    _expect(S2.conductor == (S2.I + 2 * S2.delta1, S2.I + 2 * S2.delta2),
            "conductor %r != (I+2d1, I+2d2)" % (S2.conductor,))
    _expect(S2.delta == S2.I + S2.delta1 + S2.delta2, "delta != I+d1+d2")
    X = wf.curve.RationalCurve(
        QQ, [wf.curve.TwoBranchSingularity(ring, (Fraction(0), Fraction(1)))])
    report = wf.curve.weight_report(X)
    w1, w2 = valsg2.v_systems_weights(X)
    formula = valsg2.two_branch_weight_formula(S2, X.genus, w1, w2)
    _expect(formula == report.singular_weights[0],
            "formula %d != pipeline weight %d" % (formula, report.singular_weights[0]))
    return {"semigroup": S2.to_json(), "report": report.to_json(),
            "v_system_weights": [w1, w2]}


# ---------------------------------------------------------------------------
# charp: seeded curve files over GF(p), p from 2 to about 2*10^5
# ---------------------------------------------------------------------------

CUSP = "cusp"  # k + k(t^3 + a t^5) + k t^4, conductor 6, delta 3

# (lowest prime, singularities) per curve; the prime is the first one at or
# above a seeded draw from [low, 1.02*low] (exactly ``low`` below 100), and
# each singularity is either CUSP or the generators of a symmetric
# semigroup.  Genus stays <= 6.  The large primes make
# Polynomial.rational_roots, which scans every residue, the largest cost;
# the small ones give non-classical order sequences.  The four genus-3
# curves near p = 10^5 cost about the same and sit in the middle of the
# item times, so the median item does not jump between unlike curves.
CHARP_SHAPES = (
    (2, ([3, 4],)),
    (3, (CUSP,)),
    (3, ([3, 4], [2, 3])),
    (5, ([3, 5],)),
    (7, ([3, 5], [2, 3])),
    (11, (CUSP, [2, 5])),
    (1009, ([3, 4], [2, 5])),
    (10007, ([3, 4], CUSP)),
    (30011, (CUSP,)),
    (100003, ([3, 4],)),
    (100003, ([3, 4],)),
    (100003, ([3, 4],)),
    (100003, ([3, 4],)),
    (100003, ([2, 3], [2, 3])),
    (199999, ([2, 3],)),
    (199999, (CUSP,)),
)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_from(n):
    while not _is_prime(n):
        n += 1
    return n


def charp_curve(rng, low, singularities):
    """JSON curve description for one entry of CHARP_SHAPES."""
    p = _prime_from(low if low < 100 else rng.randint(low, low + low // 50))
    locations = rng.sample(range(p), len(singularities))
    entries = []
    for spec, loc in zip(singularities, locations):
        if spec == CUSP:
            a = rng.randrange(1, p)
            entries.append({"kind": "unibranch", "location": str(loc), "conductor": 6,
                            "basis": [["1"], ["0", "0", "0", "1", "0", str(a)],
                                      ["0", "0", "0", "0", "1"]]})
        else:
            entries.append({"kind": "monomial", "location": str(loc),
                            "generators": list(spec)})
    return {"characteristic": p, "singularities": entries}


def charp_inputs(wf, seed, workdir):
    """Write one curve file per entry of CHARP_SHAPES under ``workdir``."""
    rng = random.Random(seed)
    folder = Path(workdir) / ("charp-%d" % seed)
    folder.mkdir(parents=True, exist_ok=True)
    items = []
    for index, (low, singularities) in enumerate(CHARP_SHAPES):
        data = charp_curve(rng, low, singularities)
        path = folder / ("curve-%02d.json" % index)
        path.write_text(json.dumps(data, sort_keys=True))
        items.append(Item("p=%d:%s" % (data["characteristic"], path.name), (str(path), data)))
    return items


def run_charp(wf, item):
    path, data = item.data
    out = _cli_json(wf, ["curve", path, "--format", "json"])
    g, N, p = out["genus"], out["N"], data["characteristic"]
    _expect(out["total"] == (2 * g - 2) * (g + N),
            "total %d != (2g-2)(g+N) = %d" % (out["total"], (2 * g - 2) * (g + N)))
    sings = data["singularities"]
    if len(sings) == 1 and sings[0]["kind"] == "monomial":
        S = wf.numsg.NumericalSemigroup.from_generators(sings[0]["generators"])
        w_p, w_inf, orders = wf.curve.monomial_curve_weights(S, p)
        _expect(out["orders"] == list(orders), "orders differ from the monomial morphism")
        _expect(out["weights"][0]["weight"] == w_p,
                "singular weight %d != closed form %d" % (out["weights"][0]["weight"], w_p))
        at_inf = sum(e["multiplicity"] for e in out["smooth"] if e["factor"] == "inf")
        _expect(at_inf == w_inf, "weight at infinity %d != closed form %d" % (at_inf, w_inf))
    return out


class Workload(NamedTuple):
    inputs: object
    run: object


WORKLOADS = {
    "gallery": Workload(gallery_inputs, run_gallery),
    "rings": Workload(rings_inputs, run_rings),
    "charp": Workload(charp_inputs, run_charp),
}
