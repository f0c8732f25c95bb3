"""Helpers that several test modules share and no command runs.

They are kept out of src/twodist, which holds only what a command, a demo
or the benchmark calls (tests/test_reachability.py checks that).
"""

from twodist.designs import IncidenceDesign
from twodist.polynomials import Poly


def complement_design(d: IncidenceDesign) -> IncidenceDesign:
    """Replace every block by its complement in the point set."""
    full = set(range(d.m))
    blocks = tuple(tuple(sorted(full - set(b))) for b in d.blocks)
    return IncidenceDesign(d.m, blocks)


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
