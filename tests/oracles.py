"""Helpers that several test modules share and no command runs.

They are kept out of src/twodist, which holds only what a command, a demo
or the benchmark calls (tests/test_reachability.py checks that).
"""

from twodist.designs import IncidenceDesign


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
