"""Exact polynomial arithmetic over the integers.

:class:`Poly` is the one polynomial type: Python ``int`` coefficients keyed
by exponent vectors over a fixed, ordered variable tuple.  Its constructor
rejects any other coefficient, and any exponent that is not a nonnegative
``int``, so integrality is a property of the type.  The ring operations
combine valid terms into valid terms, so they build their results with
the unchecked ``Poly._trusted``.  Canonical form (no zero coefficients)
makes equality structural, so "this residue is the zero polynomial" is a
direct comparison.  Rational
substitutions enter only through :func:`compose_cleared`, which takes each
substitution as a (numerator, denominator) pair and clears the denominators.

Work along one line (a row, a fiber, a strip) runs on dense coefficient
lists, lowest degree first: :func:`dense_coeffs` reads them off a
univariate Poly, :func:`dense_divmod` is the exact division and
:func:`dense_gcd` the primitive-remainder GCD of such lists.  A bivariate
polynomial sum_k x^k rows[k](z) can also be held as a table of such lists;
``_table_fiber`` reads its fiber x = x0 off it as a dense list in z, by
Horner's rule, and :func:`taylor_shift` gives the list of c(x + a).
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest
from math import gcd
from operator import add
from typing import Mapping, Sequence


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Poly:
    """Multivariate polynomial over named variables with integer coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], int] = ()):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], int] = {}
        for expo, coeff in dict(terms).items():
            if not _is_int(coeff):
                raise TypeError(f"Poly coefficients are int, got {coeff!r} ({type(coeff).__name__})")
            expo = tuple(expo)
            if len(expo) != len(self.vars):
                raise ValueError(f"exponent {expo} does not match variables {self.vars}")
            if not all(map(_is_int, expo)):
                raise TypeError(f"Poly exponents are int, got {expo!r}")
            if min(expo, default=0) < 0:
                raise ValueError(f"negative exponent in {expo}")
            if coeff:
                clean[expo] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict) -> "Poly":
        """The Poly of terms built by ring operations from valid Polys.

        Drops zero coefficients and checks nothing else: ints combined by
        +, - and * stay ints, and sums of valid exponent tuples stay valid.
        """
        out = cls.__new__(cls)
        out.vars = variables
        out.terms = {e: c for e, c in terms.items() if c}
        return out

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
        get = terms.get
        for e, c in other.terms.items():
            terms[e] = get(e, 0) + c
        return Poly._trusted(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # a constant or a monomial: shift and scale the other factor
            ((e1, c1),) = a.items()
            return Poly._trusted(self.vars, {tuple(map(add, e1, e2)): c1 * c2
                                             for e2, c2 in b.items()})
        terms: dict[tuple[int, ...], int] = {}
        get = terms.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                terms[e] = get(e, 0) + c1 * c2
        return Poly._trusted(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Poly.constant(self.vars, 1) if out is None else out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({(0,) * len(self.vars): other} if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and not any(next(iter(self.terms))):
            return hash(next(iter(self.terms.values())))
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

    Each factor num_v^e * den_v^(deg_v - e) is formed once, with no product
    by the constant 1, and so is the product of the factors over each prefix
    of a term's exponent vector, which the terms of p sharing that prefix
    reuse.  Each coefficient of p is folded into the sum, not multiplied in.
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
    zero = (0,) * len(out_vars)
    one = Poly._trusted(out_vars, {zero: 1})

    def times(a: Poly, b: Poly) -> Poly:
        return b if a is one else a if b is one else a * b

    def powers(q: Poly, d: int) -> list[Poly]:
        if q.terms == {zero: 1}:
            return [one] * (d + 1)
        out = [one, q]
        while len(out) <= d:
            out.append(out[-1] * q)
        return out

    # factors[i][e] = num^e * den^(d - e) for the i-th variable of p, degree d > 0
    factors: dict[int, list[Poly]] = {}
    for i, (v, d) in enumerate(degs.items()):
        if d:
            num_pows, den_pows = powers(subs[v][0], d), powers(subs[v][1], d)
            factors[i] = [times(num_pows[e], den_pows[d - e]) for e in range(d + 1)]
    # the largest factors first, so that the costliest products sit in the
    # shortest prefixes, which the most terms share
    order = sorted(factors.items(), key=lambda item: -max(len(f.terms) for f in item[1]))
    prefix_products: dict[tuple[int, ...], Poly] = {}
    total: dict[tuple[int, ...], int] = {}
    get = total.get
    for expo, coeff in p.terms.items():
        key: tuple[int, ...] = ()
        product = one
        for i, row in order:
            key += (expo[i],)
            shared = prefix_products.get(key)
            if shared is None:
                shared = prefix_products[key] = times(product, row[expo[i]])
            product = shared
        for e, c in product.terms.items():
            total[e] = get(e, 0) + coeff * c
    return Poly._trusted(out_vars, total)


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


def taylor_shift(c: Sequence[int], a: int) -> list[int]:
    """Coefficients of c(x + a), lowest degree first (synthetic division)."""
    out = list(c)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def format_terms(*terms: tuple[int, str]) -> str:
    """A sum of (coefficient, monomial) terms as text, zero terms and unit coefficients dropped."""
    text = ""
    for coeff, mono in terms:
        if not coeff:
            continue
        body = mono if abs(coeff) == 1 and mono else f"{abs(coeff)}{mono}"
        if text:
            text += f" {'-' if coeff < 0 else '+'} {body}"
        else:
            text = f"-{body}" if coeff < 0 else body
    return text or "0"
