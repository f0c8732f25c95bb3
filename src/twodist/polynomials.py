"""Exact multivariate and univariate polynomial arithmetic.

Polynomials carry Fraction coefficients keyed by exponent vectors over a
fixed, ordered variable tuple; canonical form (no zero coefficients) makes
equality structural, so "this residue is the zero polynomial" is a direct
comparison.  The univariate layer is what evaluation along one line needs:
:class:`UniPoly` with Euclidean division, and :class:`RatFunc`, which is
only a reduced-fraction evaluator: its constructor cancels the GCD of
numerator and denominator, so a removable singularity evaluates to its
value and only a genuine pole raises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

Coeff = Union[int, Fraction]


class Poly:
    """Multivariate polynomial over named variables with exact coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Coeff] = ()):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in dict(terms).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(expo) != len(self.vars):
                raise ValueError(f"exponent {expo} does not match variables {self.vars}")
            clean[tuple(expo)] = coeff
        self.terms = clean

    # ----- constructors -------------------------------------------------

    @staticmethod
    def constant(variables: Sequence[str], value: Coeff) -> "Poly":
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
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.vars, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Poly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
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
        if isinstance(other, (int, Fraction)):
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

    def eval(self, values: Mapping[str, object]):
        """Evaluate with exact scalars (int, Fraction, QuadExt, ...)."""
        point = [values[v] for v in self.vars]
        total = None
        for expo, coeff in self.terms.items():
            term = coeff
            for base, e in zip(point, expo):
                if e:
                    term = term * base**e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def subst_univariate(self, name: str, value: Coeff) -> "Poly":
        """Fix one variable to an exact constant; result drops that variable."""
        idx = self.vars.index(name)
        rest = self.vars[:idx] + self.vars[idx + 1 :]
        value = Fraction(value)
        terms: dict[tuple[int, ...], Fraction] = {}
        powers: dict[int, Fraction] = {0: Fraction(1)}
        for expo, coeff in self.terms.items():
            e = expo[idx]
            if e not in powers:
                powers[e] = value**e
            new = expo[:idx] + expo[idx + 1 :]
            terms[new] = terms.get(new, Fraction(0)) + coeff * powers[e]
        return Poly(rest, terms)

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
    output variable tuple; unsubstituted variables must not occur.
    """
    out_vars = None
    for num, den in subs.values():
        if out_vars is None:
            out_vars = num.vars
        if num.vars != out_vars or den.vars != out_vars:
            raise ValueError("all substitution polynomials must share variables")
    assert out_vars is not None
    degs = {v: p.degree(v) for v in p.vars}
    for v in p.vars:
        if v not in subs and degs[v] > 0:
            raise ValueError(f"no substitution given for {v!r}")
    result = Poly(out_vars)
    for expo, coeff in p.terms.items():
        term = Poly.constant(out_vars, coeff)
        for v, e in zip(p.vars, expo):
            if degs[v] == 0:
                continue
            num, den = subs[v]
            term = term * num**e * den ** (degs[v] - e)
        result = result + term
    return result


# ----- univariate layer -------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Fraction, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Coeff]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def from_poly(p: Poly) -> "UniPoly":
        if len(p.vars) != 1:
            raise ValueError(f"not univariate: variables {p.vars}")
        if not p.terms:
            return UniPoly(())
        deg = max(e[0] for e in p.terms)
        cs = [Fraction(0)] * (deg + 1)
        for (e,), c in p.terms.items():
            cs[e] = c
        return UniPoly(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def scale(self, c: Coeff) -> "UniPoly":
        c = Fraction(c)
        return UniPoly([a * c for a in self.coeffs])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(rem) >= dn and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < dn:
                break
            factor = rem[-1] / dlead
            shift = len(rem) - dn
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return UniPoly(q), UniPoly(rem)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            _, r = a.divmod(b)
            a, b = b, r
        if a.is_zero():
            return a
        return a.scale(1 / a.coeffs[-1])  # monic

    def eval(self, x):
        total = Fraction(0) if not self.coeffs else self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            total = total * x + c
        return total

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


class RatFunc:
    """Univariate fraction num / den, reduced by Euclidean GCD, for exact evaluation."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = UniPoly(()), UniPoly((1,))
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lead = den.coeffs[-1]
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num = num
        self.den = den

    def eval(self, x) -> Fraction:
        """Exact value at x; raises on a genuine (non-removable) pole."""
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"pole of rational function at {x}")
        return self.num.eval(x) / d

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"
