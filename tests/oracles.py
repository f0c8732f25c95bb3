"""Helpers that several test modules share and no command runs.

They are kept out of src/twodist, which holds only what a command, a demo
or the benchmark calls (tests/test_reachability.py checks that).
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from twodist.coherent import GRAM_CLASS_OF_RELATION, CoherentConfig, GramTable, _integer_vector
from twodist.designs import IncidenceDesign
from twodist.errors import InternalConsistencyError
from twodist.exactnum import QuadExt, _sf_product
from twodist.polynomials import Poly


def complement_design(d: IncidenceDesign) -> IncidenceDesign:
    """Replace every block by its complement in the point set."""
    full = set(range(d.m))
    blocks = tuple(tuple(sorted(full - set(b))) for b in d.blocks)
    return IncidenceDesign(d.m, blocks)


def derived_design(d: IncidenceDesign, point: int) -> IncidenceDesign:
    """The blocks through `point`, less that point; the points above it move down one."""
    return IncidenceDesign(d.m - 1, tuple(tuple(x - (x > point) for x in b if x != point)
                                          for b in d.blocks if point in b))


def residual_design(d: IncidenceDesign, point: int) -> IncidenceDesign:
    """The blocks that miss `point`; the points above it move down one."""
    return IncidenceDesign(d.m - 1, tuple(tuple(x - (x > point) for x in b)
                                          for b in d.blocks if point not in b))


def poly_eval(p, values):
    """A `Poly` at a point, term by term, with exact scalars (int, Fraction, ...).

    `values` maps each of p's variables to its value; at an integer point
    the result is an int.
    """
    point = [values[v] for v in p.vars]
    total = 0
    for expo, coeff in p.terms.items():
        term = coeff
        for base, e in zip(point, expo):
            if e:
                term = term * base**e
        total = total + term
    return total


def poly_mul(a, b):
    """a * b by the schoolbook convolution: every pair of terms, no fast path.

    The result goes through the checking `Poly` constructor.
    """
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return Poly(a.vars, terms)


def compose_cleared_by_terms(p, subs):
    """`compose_cleared` term by term, with `poly_mul` and nothing shared.

    Each term c * prod(v^e) of p becomes c * prod(num_v^e * den_v^(deg_v - e)),
    every power formed by repeated `poly_mul` from the constant 1.
    """
    out_vars = next(iter(subs.values()))[0].vars
    one = Poly(out_vars, {(0,) * len(out_vars): 1})

    def power(q, n):
        out = one
        for _ in range(n):
            out = poly_mul(out, q)
        return out

    total = {}
    for expo, coeff in p.terms.items():
        term = Poly(out_vars, {(0,) * len(out_vars): coeff})
        for v, e in zip(p.vars, expo):
            d = p.degree(v)
            if d:
                num, den = subs[v]
                term = poly_mul(term, poly_mul(power(num, e), power(den, d - e)))
        for e, c in term.terms.items():
            total[e] = total.get(e, 0) + c
    return Poly(out_vars, total)


# ----- the dense projector check -------------------------------------------------
#
# `projector_and_gram` proves E^2 = E, E^T = E and trace(E) = m - 1 in the
# adjacency algebra.  This oracle checks them again on the dense N x N matrix,
# entry by entry, and also that each entry is its Gram class value.


class IntegerForm(NamedTuple):
    """The matrix sum_r sqrt(r) * parts[r] / denominator, parts[r] integer."""

    denominator: int
    parts: dict  # radicand -> square integer ndarray, int64 or object dtype


def integer_form(vector: tuple, index: np.ndarray) -> IntegerForm:
    """Integer form of the matrix whose entry (a, b) is values[index[a, b]].

    `vector` is `_integer_vector(values)`.  The parts are int64 only when
    size * max|N|^2 * (sum of the gcds g in sqrt(r) sqrt(s) = g sqrt(d)) and
    D * max|N| are both below 2^63, so no product in `integer_square` or
    `dense_checks` can overflow; otherwise they hold Python integers.
    """
    denominator, tables = vector
    biggest = max((abs(n) for t in tables.values() for n in t), default=0)
    g_sum = sum(_sf_product(r, s)[0] for r in tables for s in tables)
    fits = (index.shape[0] * biggest ** 2 * g_sum < 2 ** 63
            and denominator * biggest < 2 ** 63)
    dtype = np.int64 if fits else object
    return IntegerForm(
        denominator, {r: np.array(t, dtype=dtype)[index] for r, t in tables.items()})


def projector_form(result, coeffs=None) -> IntegerForm:
    """The integer form of a `ProjectorResult`'s E, or of the E with coefficients `coeffs`."""
    coeffs = result.coefficients if coeffs is None else coeffs
    return integer_form(_integer_vector(coeffs), result.cc.labels - 1)


def integer_square(form: IntegerForm) -> dict:
    """Numerators of the square over denominator^2, keyed by radicand."""
    out: dict = {}
    for r, a in form.parts.items():
        for s, b in form.parts.items():
            g, d = _sf_product(r, s)
            term = g * (a @ b)
            out[d] = out[d] + term if d in out else term
    return out


def _require_equal(lhs: np.ndarray, rhs: np.ndarray, what: str) -> None:
    if not np.array_equal(lhs, rhs):
        a, b = (int(i) for i in np.argwhere(lhs != rhs)[0])
        raise InternalConsistencyError(f"{what} at entry ({a},{b})")


def dense_checks(cc: CoherentConfig, form: IntegerForm, gram: GramTable) -> None:
    """E = E^T, class agreement, E^2 = E and trace(E) = m - 1, entry by entry."""
    ridx = cc.labels - 1
    zero = np.zeros(ridx.shape, dtype=np.int64)
    for r, part in form.parts.items():
        _require_equal(part, part.T, f"E is not symmetric in its sqrt({r}) part")
    # every entry equals the Gram value of its relation's class
    classes = [dict(gram[GRAM_CLASS_OF_RELATION[k]].terms) for k in range(1, 10)]
    for r in form.parts.keys() | {r for terms in classes for r in terms}:
        scaled = [terms.get(r, 0) * form.denominator for terms in classes]
        if any(Fraction(v).denominator != 1 for v in scaled):
            raise InternalConsistencyError(
                f"a Gram class needs a denominator beyond {form.denominator}")
        expected = np.array([int(v) for v in scaled], dtype=object)[ridx]
        _require_equal(form.parts.get(r, zero), expected,
                       f"E is off its class value in the sqrt({r}) part")
    square = integer_square(form)
    for d in square.keys() | form.parts.keys():
        _require_equal(square.get(d, zero), form.denominator * form.parts.get(d, zero),
                       f"E^2 != E in the sqrt({d}) part")
    trace = QuadExt({r: Fraction(int(np.trace(part)), form.denominator)
                     for r, part in form.parts.items()})
    if trace != QuadExt(cc.m - 1):
        raise InternalConsistencyError(f"dense trace {trace} differs from m - 1")
