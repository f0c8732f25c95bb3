"""Exact scalars: arbitrary-precision rationals and quadratic-extension numbers.

Rationals are ``fractions.Fraction`` (canonical by construction).  On top of
them, :class:`QuadExt` models elements of a real multi-quadratic field
Q(sqrt(d1), sqrt(d2)): finite sums ``c * sqrt(d)`` with square-free integer
radicands generated by at most two base radicands.  All operations are exact;
sign determination never falls back to a tolerance.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DesignError

ScalarLike = Union[int, Fraction, "QuadExt"]

# parse_scalar refuses radicands from here up: squarefree_decompose factors by
# trial division, which takes about 0.1 s on the prime 999999999989
RADICAND_LIMIT = 10**12


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s*d`` with ``d`` square-free; returns ``(s, d)``.

    Requires ``n >= 0``.  Trial division; fine at the integer sizes this
    library meets (parameter tables, radii, region scans).
    """
    if n < 0:
        raise ValueError("squarefree_decompose needs n >= 0")
    if n == 0:
        return 0, 1
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def _sf_product(a: int, b: int) -> tuple[int, int]:
    # sqrt(a)*sqrt(b) = g*sqrt(d) for square-free a, b
    g = math.gcd(a, b)
    return g, (a // g) * (b // g)


def _radicand_closure(radicands: Iterable[int]) -> set[int]:
    group = {1}
    for r in radicands:
        if r == 1:
            continue
        new = {_sf_product(r, g)[1] for g in group}
        group |= new
        # rank <= 2 means the group {1, u, v, uv} has at most 4 elements
        if len(group) > 4:
            raise DesignError(
                "value leaves every extension generated by two radicands: "
                f"radicands {sorted(group - {1})}"
            )
    return group


class QuadExt:
    """An element of Q(sqrt(d1), sqrt(d2)), stored as a canonical term map.

    ``terms`` maps a square-free radicand (1 for the rational part) to a
    nonzero Fraction coefficient.  Canonical form makes equality structural,
    so a value is zero exactly when it has no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, value: Union[int, Fraction, Mapping[int, Fraction], "QuadExt"] = 0):
        if isinstance(value, QuadExt):
            self._terms = value._terms
            return
        if isinstance(value, (int, Fraction)):
            c = value if isinstance(value, Fraction) else Fraction(value)
            self._terms = ((1, c),) if c else ()
            return
        terms: dict[int, Fraction] = {}
        for rad, coeff in value.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if rad < 1:
                raise ValueError(f"radicand must be >= 1, got {rad}")
            s, d = squarefree_decompose(rad)
            terms[d] = terms.get(d, Fraction(0)) + coeff * s
        self._terms = QuadExt._trusted(terms)._terms

    @classmethod
    def _trusted(cls, terms: dict) -> "QuadExt":
        """Canonical value of terms whose radicands are already square-free.

        Drops zero coefficients, checks the rank and sorts by radicand.
        """
        terms = {r: c for r, c in terms.items() if c}
        if len(terms) - (1 in terms) > 2:  # radicands u, v give at most {1, u, v, uv}
            _radicand_closure(terms)
        out = cls.__new__(cls)
        out._terms = tuple(sorted(terms.items()))
        return out

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    # ----- predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(r == 1 for r, _ in self._terms)

    def rational_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_rational():
            return self._terms[0][1]
        raise ValueError(f"{self} is irrational")

    def radicands(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self._terms if r != 1)

    # ----- arithmetic -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for r, c in other._terms:
            terms[r] = terms[r] + c if r in terms else c
        return QuadExt._trusted(terms)

    __radd__ = __add__

    def __neg__(self):
        out = QuadExt.__new__(QuadExt)
        out._terms = tuple((r, -c) for r, c in self._terms)
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a rational keeps the radicands
            return QuadExt._trusted({r: c * other for r, c in self._terms})
        if not isinstance(other, QuadExt):
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for r1, c1 in self._terms:
            for r2, c2 in other._terms:
                g, d = (1, r1 * r2) if r1 == 1 or r2 == 1 else _sf_product(r1, r2)
                c = c1 * c2 if g == 1 else c1 * c2 * g
                terms[d] = terms[d] + c if d in terms else c
        return QuadExt._trusted(terms)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if not self._terms:
            raise ZeroDivisionError("QuadExt division by zero")
        if self.is_rational():
            return QuadExt(1 / self._terms[0][1])
        # with self = u + v*sqrt(d) (`_conjugate_split`, which quadext_sign
        # shares), 1/self = (u - v*sqrt(d)) / (u^2 - v^2 d).  The denominator
        # is nonzero because conjugation sqrt(d) -> -sqrt(d) is a field
        # automorphism, and it lives one radicand down, so the recursion
        # bottoms out at a rational.
        u, v, d = _conjugate_split(self)
        return (u - v * QuadExt._trusted({d: Fraction(1)})) * (u * u - v * v * d).inverse()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # ----- comparisons ------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a rational value equals its Fraction, so it hashes as that Fraction
        if self.is_rational():
            return hash(self.rational_value())
        return hash(self._terms)

    def sign(self) -> int:
        return quadext_sign(self)

    def __repr__(self):
        return f"QuadExt({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    def __bool__(self):
        return bool(self._terms)


# ----- exact square roots ---------------------------------------------


def sqrt_adjoin(r) -> QuadExt:
    """Exact square root of a nonnegative int or Fraction, as a QuadExt.

    ``sqrt(p/q) = sqrt(p*q)/q``; the integer radicand is reduced to its
    square-free part, so perfect squares come back rational.  Anything else,
    a float included, raises TypeError.
    """
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"not a rational value: {r!r}")
    r = Fraction(r)
    if r < 0:
        raise ValueError(f"square root of negative rational {r}")
    if r == 0:
        return QuadExt(0)
    n = r.numerator * r.denominator
    s, d = squarefree_decompose(n)
    return QuadExt._trusted({d: Fraction(s, r.denominator)})  # d is square-free already


# ----- exact sign determination ---------------------------------------


def _conjugate_split(a: QuadExt) -> tuple[QuadExt, QuadExt, int]:
    """Write an irrational ``a`` as ``u + v*sqrt(d)``; returns ``(u, v, d)``.

    ``d`` is the smallest radicand other than 1 in the field that a's
    radicands generate, and ``u`` and ``v`` lie in the subfield Q(sqrt(h))
    of the other radicand ``h`` (Q itself when there is none), so they carry
    one radicand fewer than ``a``.  ``v`` is nonzero: a term of ``a`` outside
    Q(sqrt(h)) is what put ``d`` in the field.
    """
    group = sorted(_radicand_closure(a.radicands()) - {1})
    d = group[0]
    h = group[1] if len(group) > 1 else None
    u_terms: dict[int, Fraction] = {}
    v_terms: dict[int, Fraction] = {}
    for r, c in a.terms:
        if r == 1 or r == h:
            u_terms[r] = c
        else:  # sqrt(r) = g*sqrt(rd)*sqrt(d)/d
            g, rd = _sf_product(r, d)
            v_terms[rd] = c * g / d
    return QuadExt._trusted(u_terms), QuadExt._trusted(v_terms), d


def quadext_sign(a: ScalarLike) -> int:
    """Exact sign in {-1, 0, +1}.

    Zero is structural: the sqrt(r) over distinct square-free r are linearly
    independent over Q, so a canonical value is zero exactly when it has no
    terms, and one term has its coefficient's sign.  Anything longer is split
    as u + v*sqrt(d) (`_conjugate_split`, the split `QuadExt.inverse` uses).
    When u is 0 or has v's sign, that is the sign.  Otherwise the conjugate
    u - v*sqrt(d) has sign(u), and a (u - v*sqrt(d)) = u^2 - v^2 d, so the
    sign is sign(u) * sign(u^2 - v^2 d).  u, v and u^2 - v^2 d carry one
    radicand fewer, so the recursion is at most two levels deep and ends at
    rationals: no precision loop, no tolerance.
    """
    a = QuadExt(a)
    terms = a.terms
    if not terms:
        return 0
    if len(terms) == 1:
        return 1 if terms[0][1] > 0 else -1
    u, v, d = _conjugate_split(a)
    su, sv = quadext_sign(u), quadext_sign(v)
    if su == 0 or su == sv:
        return sv
    return su * quadext_sign(u * u - v * v * d)


# ----- textual grammar -------------------------------------------------
#
# rationals render as "p/q" (or "p"); QuadExt values as a signed sum of
# "c*sqrt(d)" terms in ascending radicand order, e.g. "4/9", "-1/18*sqrt(7)",
# "2/3 + 1/3*sqrt(14)".  parse_scalar accepts the same grammar.

_TOKEN = (
    r"\s*(?:(?P<sign>[+-])|(?P<coeff>\d+(?:/\d+)?)(?:\s*\*\s*sqrt\(\s*(?P<rad>\d+)\s*\))?"
    r"|(?P<lone>sqrt\(\s*(?P<lrad>\d+)\s*\)))"
)


def format_scalar(value: ScalarLike) -> str:
    """The value in the scalar grammar; DesignError past the int/str digit limit."""
    try:
        if isinstance(value, (int, Fraction)):
            return str(Fraction(value))
        value = QuadExt(value)
        if not value.terms:
            return "0"
        parts: list[str] = []
        for r, c in value.terms:
            mag = str(abs(c)) if r == 1 else f"{abs(c)}*sqrt({r})"
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
        return " ".join(parts)
    except ValueError as exc:
        raise DesignError(str(exc)) from None


def parse_scalar(text: str) -> QuadExt:
    """Parse the textual scalar grammar back into a QuadExt.

    Text outside the grammar, a zero denominator or radicand, a radicand of
    RADICAND_LIMIT or more, or an integer over Python's int/str digit limit
    raises DesignError."""
    terms: dict[int, Fraction] = {}
    pos = 0
    sign = 1
    expect_term = True
    text = text.strip()
    if not text:
        raise DesignError("empty scalar")
    token = re.compile(_TOKEN)  # compiled on first use, then from re's cache
    while pos < len(text):
        m = token.match(text, pos)
        if not m or m.end() == pos:
            raise DesignError(f"bad scalar syntax at {text[pos:]!r}")
        pos = m.end()
        if m.group("sign"):
            if m.group("sign") == "-":
                sign = -sign
            expect_term = True
            continue
        if not expect_term:
            raise DesignError(f"missing operator before {text[m.start():]!r}")
        try:
            coeff = Fraction(m.group("coeff") or 1)
            rad = int(m.group("rad") or m.group("lrad") or 1)
        except ZeroDivisionError:
            raise DesignError(f"zero denominator in {m.group(0).strip()!r}") from None
        except ValueError as exc:
            raise DesignError(str(exc)) from None
        if rad >= RADICAND_LIMIT:
            raise DesignError(f"radicand must be below 10^12, got {rad}")
        terms[rad] = terms.get(rad, Fraction(0)) + sign * coeff
        sign = 1
        expect_term = False
    if expect_term:
        raise DesignError(f"dangling operator in {text!r}")
    if terms.get(0):
        raise DesignError("radicand must be >= 1, got 0")
    return QuadExt(terms)
