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
substitution as a (numerator, denominator) pair and clears the denominators:
it evaluates the cleared polynomial at powers of two spaced by bounds on its
degrees and coefficients, and reads the coefficients off the integer's digits.

Work along one line (a fiber, the g1 strip, a quadratic in z) runs on
dense coefficient lists, lowest degree first: :func:`dense_coeffs` reads
them off a univariate Poly, and ``_primitive`` divides one by its content.
A bivariate polynomial sum_k x^k rows[k](z) can also be held as a table of
such lists; ``_table_fiber`` reads its fiber x = x0 off it as a dense list
in z, by Horner's rule, and :func:`taylor_shift` gives the list of c(x + a).
No line is reduced by a GCD: g1's one form, in x and t = z(z + 1)/2, and
the g2 table are in lowest terms, and the 30 steps of the region proofs
(`twodist.regions`) expand them as they are.
"""

from __future__ import annotations

from functools import reduce
from itertools import product, zip_longest
from math import gcd, prod
from operator import add, getitem, mul
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
        if type(other) is int:  # a bool takes the checked path below, which refuses it
            return Poly._trusted(self.vars, {(0,) * len(self.vars): other})
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

    The result is one exact integer (Kronecker substitution).  A term
    c * prod(v^e) of p clears to c * prod(num_v^e * den_v^(d_v - e)), of
    degree at most sum(e * deg_w(num_v) + (d_v - e) * deg_w(den_v)) in each
    output variable w and with coefficients at most
    |c| * prod(|num_v|^e * |den_v|^(d_v - e)), |q| the sum of q's |coefficients|.
    With D_w the largest such degree and H the sum of such bounds, w becomes
    2^(B * stride_w), B = H.bit_length() + 1, with strides from the D_w + 1:
    no two monomials of the result share a base-2^B digit, and |c| <= H <
    2^(B - 1) makes its balanced digits exactly its coefficients.  The factors
    num_v^e * den_v^(d_v - e), and the products over each exponent prefix that
    the terms sharing it reuse, are integer products.
    """
    if not subs:
        raise ValueError("compose_cleared needs at least one substitution")
    first = next(iter(subs.values()))
    out_vars = first[0].vars
    if any(num.vars != out_vars or den.vars != out_vars for num, den in subs.values()):
        raise ValueError("all substitution polynomials must share variables")
    degs = dict(zip(p.vars, map(max, zip((0,) * len(p.vars), *p.terms))))
    for v in p.vars:
        if v not in subs and degs[v] > 0:
            raise ValueError(f"no substitution given for {v!r}")
    # a term's degree in w is base[w] + sum(e_v * deltas[w][v]), base[w] the
    # sum of d_v * deg_w(den_v); heights[v][e] bounds num_v^e * den_v^(d_v - e).
    # A variable of degree 0 has e = 0 in every term, so any pair serves it.
    zero = (0,) * len(out_vars)
    base, deltas, heights = zero, [[] for _ in out_vars], []
    for v, d in degs.items():
        (dn, hn), (dd, hd) = (([*map(max, zip(zero, *q.terms))], sum(map(abs, q.terms.values())))
                              for q in subs.get(v, first))
        base = [b + d * y for b, y in zip(base, dd)]
        for column, x, y in zip(deltas, dn, dd):
            column.append(x - y)
        heights.append([hn**e * hd ** (d - e) for e in range(d + 1)])
    bounds = [b + max((sum(map(mul, e, column)) for e in p.terms), default=0)
              for b, column in zip(base, deltas)]
    height = sum(abs(c) * prod(map(getitem, heights, e)) for e, c in p.terms.items())
    bits = height.bit_length() + 1
    # w_k = 2^(bits * strides[k]): the last output variable runs fastest
    strides = [prod(b + 1 for b in bounds[k + 1:]) for k in range(len(bounds))]

    def pack(q: Poly) -> int:
        return sum(c << bits * sum(map(mul, e, strides)) for e, c in q.terms.items())

    factors = {}
    for i, (v, d) in enumerate(degs.items()):
        if d:
            num, den = map(pack, subs[v])
            factors[i] = [num**e * den ** (d - e) for e in range(d + 1)]
    prefix_products: dict[tuple[int, ...], int] = {}
    total = 0
    for expo, coeff in p.terms.items():
        key, value = (), 1
        for i, row in factors.items():
            key += (expo[i],)
            shared = prefix_products.get(key)
            if shared is None:
                shared = prefix_products[key] = value * row[expo[i]]
            value = shared
        total += coeff * value
    terms = {}
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    for expo in product(*(range(bound + 1) for bound in bounds)):
        if not total:
            break
        terms[expo] = c = ((total + half) & mask) - half
        total = (total - c) >> bits
    return Poly._trusted(out_vars, terms)


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


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    c = reduce(gcd, a, 0)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


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
