"""Exact polynomial arithmetic over the integers.

:class:`Poly` is the one polynomial type: Python ``int`` coefficients keyed
by exponent vectors over a fixed, ordered variable tuple.  Its constructor
rejects any other coefficient, so integrality is a property of the type.
Canonical form (no zero coefficients) makes equality structural, so "this
residue is the zero polynomial" is a direct comparison.  Rational
substitutions enter only through :func:`compose_cleared`, which takes each
substitution as a (numerator, denominator) pair and clears the denominators.

Work along one line (a row, a fiber, a strip) runs on dense coefficient
lists, lowest degree first: :func:`dense_coeffs` reads them off a
univariate Poly, :func:`dense_divmod` is the exact division and
:func:`dense_gcd` the primitive-remainder GCD of such lists.  A bivariate
polynomial sum_k x^k rows[k](z) can also be held as a table of such lists;
``_table_row`` reads its row z = z0 off it as a dense list in x, and
``_table_fiber`` its fiber x = x0 as a dense list in z, by Horner's rule.
:func:`root_free` proves that such a list has no real root on a closed
integer interval (Descartes' rule after a Moebius map, built from
:func:`taylor_shift` and :func:`sign_variations`), in integers only.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest
from math import gcd
from operator import ne
from typing import Mapping, Sequence


class Poly:
    """Multivariate polynomial over named variables with integer coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], int] = ()):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], int] = {}
        for expo, coeff in dict(terms).items():
            if not isinstance(coeff, int):
                raise TypeError(f"Poly coefficients are int, got {coeff!r} ({type(coeff).__name__})")
            if coeff == 0:
                continue
            if len(expo) != len(self.vars):
                raise ValueError(f"exponent {expo} does not match variables {self.vars}")
            clean[tuple(expo)] = coeff
        self.terms = clean

    # ----- constructors -------------------------------------------------

    @staticmethod
    def constant(variables: Sequence[str], value: int) -> "Poly":
        zero = (0,) * len(tuple(variables))
        return Poly(variables, {zero: value})

    @staticmethod
    def variable(name: str, variables: Sequence[str]) -> "Poly":
        variables = tuple(variables)
        expo = tuple(1 if v == name else 0 for v in variables)
        if sum(expo) != 1:
            raise ValueError(f"{name!r} is not among {variables}")
        return Poly(variables, {expo: 1})

    @staticmethod
    def gens(variables: Sequence[str]) -> tuple["Poly", ...]:
        variables = tuple(variables)
        return tuple(Poly.variable(v, variables) for v in variables)

    # ----- ring operations ----------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, int):
            return Poly.constant(self.vars, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # ----- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, name: str) -> int:
        idx = self.vars.index(name)
        return max((e[idx] for e in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for expo, coeff in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, expo) if e
            )
            bits.append(f"{coeff}{'*' + mono if mono else ''}")
        return "Poly(" + " + ".join(bits) + ")"


def compose_cleared(p: Poly, subs: Mapping[str, tuple[Poly, Poly]]) -> Poly:
    """Substitute rational expressions var -> num/den into p, then clear.

    Returns ``p(subs) * prod(den_v ** deg_v(p))``, a genuine polynomial in the
    substitution variables.  Every substituted polynomial must share one
    output variable tuple; unsubstituted variables must not occur, and at
    least one substitution must be given, since it names the output variables.
    """
    if not subs:
        raise ValueError("compose_cleared needs at least one substitution")
    out_vars = next(iter(subs.values()))[0].vars
    if any(num.vars != out_vars or den.vars != out_vars for num, den in subs.values()):
        raise ValueError("all substitution polynomials must share variables")
    degs = {v: p.degree(v) for v in p.vars}
    for v in p.vars:
        if v not in subs and degs[v] > 0:
            raise ValueError(f"no substitution given for {v!r}")
    # factors[v][e] = num_v^e * den_v^(deg_v - e), each formed once
    factors: dict[str, list[Poly]] = {}
    for v, d in degs.items():
        if d == 0:
            continue
        num, den = subs[v]
        num_pows, den_pows = [Poly.constant(out_vars, 1)], [Poly.constant(out_vars, 1)]
        for _ in range(d):
            num_pows.append(num_pows[-1] * num)
            den_pows.append(den_pows[-1] * den)
        factors[v] = [num_pows[e] * den_pows[d - e] for e in range(d + 1)]
    total: dict[tuple[int, ...], int] = {}
    for expo, coeff in p.terms.items():
        term = Poly.constant(out_vars, coeff)
        for v, e in zip(p.vars, expo):
            if v in factors:
                term = term * factors[v][e]
        for e, c in term.terms.items():
            total[e] = total.get(e, 0) + c
    return Poly(out_vars, total)


# ----- dense univariate lists -------------------------------------------


def dense_coeffs(p: Poly) -> list[int]:
    """Coefficients of a univariate Poly, lowest degree first; [] for zero."""
    if len(p.vars) != 1:
        raise ValueError(f"not univariate: variables {p.vars}")
    out = [0] * (p.degree(p.vars[0]) + 1) if p.terms else []
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _horner(coeffs: Sequence, x):
    """The dense list coeffs at x, by Horner's rule, in whatever ring x and coeffs lie."""
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _table_row(rows: Sequence[Sequence[int]], z0: int) -> list[int]:
    """The row z = z0 of the table sum_k x^k rows[k](z), a dense list in x."""
    return [_horner(row, z0) for row in rows]


def _table_fiber(rows: Sequence[Sequence[int]], x0: int) -> list[int]:
    """The fiber x = x0 of the table sum_k x^k rows[k](z), a dense list in z."""
    out: list[int] = []
    for row in reversed(rows):
        out = [x0 * a + c for a, c in zip_longest(out, row, fillvalue=0)]
    return out


def _trim(a: Sequence[int]) -> list[int]:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def dense_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer quotient and remainder of a by b.

    Every quotient coefficient must be an integer: this holds when b's leading
    coefficient is +-1 and when b divides a with a primitive b (Gauss's lemma).
    Otherwise ArithmeticError is raised.
    """
    b = _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _trim(a)
    q = [0] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        factor, left = divmod(rem[-1], b[-1])
        if left:
            raise ArithmeticError(f"{rem[-1]} is not divisible by the leading coefficient {b[-1]}")
        shift = len(rem) - len(b)
        q[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = _trim(rem)
    return q, rem


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    c = reduce(gcd, a, 0)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def dense_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive GCD of two integer polynomials, positive leading coefficient.

    Euclid on pseudo-remainders, each made primitive, so every coefficient
    stays an integer: lead(b)^(deg a - deg b + 1) * a divides by b exactly.
    gcd(0, 0) is the zero polynomial [].
    """
    a, b = _trim(a), _trim(b)
    while b:
        b = _primitive(b)
        scale = b[-1] ** max(0, len(a) - len(b) + 1)
        a, b = b, dense_divmod([scale * c for c in a], b)[1]
    return _primitive(a) if a else []


# ----- root exclusion -----------------------------------------------------


def taylor_shift(c: Sequence[int], a: int) -> list[int]:
    """Coefficients of c(x + a), lowest degree first (synthetic division)."""
    out = list(c)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def sign_variations(c: Sequence[int]) -> int:
    """Sign changes along the coefficient list, zeros skipped."""
    signs = [x > 0 for x in c if x]
    return sum(map(ne, signs, signs[1:]))


def root_free(c: Sequence[int], a: int, b: int) -> bool:
    """True only if c has no real root in the closed interval [a, b].

    Descartes' rule on the Moebius image (1 + t)^d c((a + b t) / (1 + t)),
    whose positive roots are the roots of c in (a, b): no sign variation
    means none.  The image's constant and leading coefficients are c(a) and
    c(b), which must be nonzero.  A True answer is a proof; False only means
    the test could not exclude a root (Descartes over-counts complex pairs
    near the interval).  The zero list is never root-free.
    """
    c = _trim(c)
    shifted = taylor_shift(c, a)
    scale = b - a
    scaled = [x * scale**k for k, x in enumerate(shifted)]
    image = taylor_shift(scaled[::-1], 1)      # reversed image; same variations
    return bool(image) and image[0] != 0 and image[-1] != 0 and sign_variations(image) == 0
