"""The derivation of g1 and g2 on the (x, z) surface: a test-side oracle.

`src/` holds g1 in one form, `regions.g1_in_t`, its N and D in x and
t = z(z + 1)/2, and g2 as a coefficient table pair in lowest terms
(`dioph._G2_TABLE`).  This module derives both again from the paper's
formulas.  `designs.block_graph_formulas` gives each block-graph parameter
as a numerator/denominator pair over any ring; the pairs are evaluated over
`PolyFrac`, a fraction of `Poly`s whose numerator and denominator stay
factored, and divided once each (`prop_params`).  The parameters and the
two auxiliary functions are then expanded once into an unreduced pair
N(x, z) / D(x, z) (`surface`).  The tests prove the shipped forms against
these pairs (`table_holds`, with `table_poly` turning a table back into a
`Poly`): the g2 table as it is, and g1's t-form through its reading at
t = z(z + 1)/2 as a table pair (`t_form_tables`).  `derived_pair` gives the
pairs as tables, and `param_value` reads any parameter off them,
removable singularities included, through `fiber_values`, which reduces a
fiber by its GCD where D vanishes; `strip_equation` solves g1 = 1 on the
strip of a table pair the same way.  Neither path is needed in `src/`,
whose forms are in lowest terms.  `y2_curve_table` derives the shipped
table of the y2 curve, `dioph._Y2_CURVE`, with `compose_cleared`.

After a change to a formula,

    PYTHONPATH=src python3 tests/surface_oracle.py

prints g1 and g2 in lowest terms as table pairs (sympy, test-only): the
new `dioph._G2_TABLE`, and the table that `t_form_tables` must give, from
which the t-form is read off with t = z(z + 1)/2.
"""

from __future__ import annotations

import pprint
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from twodist import dioph
from twodist.designs import block_graph_formulas
from twodist.dioph import (MSQ_XZ, ONE_XZ, P3, S_XZ, XZ, Y1_XZ, Y2NUM_XZ, _XZ_SUBS, _X, _Z,
                           Quadratic, format_quadratic, solve_quadratic)
from twodist.errors import DesignError, InternalConsistencyError
from twodist.polynomials import Poly, _horner, _table_fiber, compose_cleared, dense_coeffs
from twodist.regions import g1_in_t

from oracles import dense_divmod, dense_gcd, trim


def prop_params(S, m, x, y) -> dict:
    """Block-graph parameters plus S, m and y, over any exact field.

    Each parameter is its `block_graph_formulas` pair divided once.
    """
    return {**{name: n / d for name, (n, d) in block_graph_formulas(S, m, x, y).items()},
            "S": S, "m": m, "y": y}


def g1_expr(par, x, z):
    return (3 + x + 19 * z + 16 * z * z + 3 * par["k"] + 3 * par["Lambda"]
            - par["m"] - 4 * par["n"] - 18 * par["P"] + 21 * z * par["r"])


def g2_expr(par, x, y, z):
    return (-72 * par["Lambda"] + 13 * par["m"] + 13 * par["n"] + 99 * par["T"]
            - 45 * x + 32 * y - 14 * z - 13 * par["m"] * z + 39 * par["n"] * z
            - 13 * par["T"] * z + 13 * x * z - 33 * z * z + 13 * z * z * z)


class PolyFrac:
    """Bivariate fraction whose numerator and denominator both stay factored.

    Each side is a product of `Poly` factors, held as {factor: exponent}.  A
    product or a quotient only merges factors, so a numerator/denominator
    pair keeps the factors it was built from when it is divided; a sum
    expands each numerator over the common denominator, the larger exponent
    of each factor, so no GCD is computed.  `surface` expands both sides
    once.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[dict] = None):
        self.num = {num: 1}
        self.den = dict(den or {})

    @classmethod
    def _factored(cls, num: dict, den: dict) -> "PolyFrac":
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    def _coerce(self, other) -> "PolyFrac":
        if isinstance(other, PolyFrac):
            return other
        if isinstance(other, int):
            return PolyFrac(Poly.constant(XZ, other))
        if isinstance(other, Poly):
            return PolyFrac(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        common: dict = dict(self.den)
        for f, e in other.den.items():
            common[f] = max(common.get(f, 0), e)
        num = (_cofactor(self.num, {}) * _cofactor(common, self.den)
               + _cofactor(other.num, {}) * _cofactor(common, other.den))
        return PolyFrac(num, common)

    __radd__ = __add__

    def __neg__(self):
        return PolyFrac(-_cofactor(self.num, {}), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PolyFrac._factored(_merge(self.num, other.num), _merge(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if any(f.is_zero() for f in other.num):
            raise ZeroDivisionError("PolyFrac division by zero")
        return PolyFrac._factored(_merge(self.num, other.den), _merge(self.den, other.num))


def _merge(a: dict, b: dict) -> dict:
    """The product of two factored products: exponents add."""
    out = dict(a)
    for f, e in b.items():
        out[f] = out.get(f, 0) + e
    return out


def _cofactor(common: dict, mine: dict) -> Poly:
    """The expanded product of the factors `common` holds beyond `mine`."""
    out = ONE_XZ
    for f, e in common.items():
        missing = e - mine.get(f, 0)
        if missing:
            out = out * f**missing
    return out


AUX_BRANCH = {"g1": "y1", "g2": "y2"}   # each auxiliary function lives on one y branch


@lru_cache(maxsize=None)
def branch_fracs(branch: str) -> dict[str, PolyFrac]:
    """Every `prop_params` entry of one y branch, plus its auxiliary function."""
    S = PolyFrac(S_XZ)
    m = PolyFrac(MSQ_XZ, {_X: 1})
    x = PolyFrac(_X)
    z = PolyFrac(_Z)
    if branch == "y1":
        par = prop_params(S, m, x, PolyFrac(Y1_XZ))
        par["g1"] = g1_expr(par, x, z)
    elif branch == "y2":
        y = PolyFrac(Y2NUM_XZ, {MSQ_XZ: 1})
        par = prop_params(S, m, x, y)
        par["g2"] = g2_expr(par, x, y, z)
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return par


@lru_cache(maxsize=None)
def surface(name: str, branch: str) -> tuple[Poly, Poly]:
    """One function on the surface as N(x, z) / D(x, z), unreduced.

    D is the expanded product of the formula's denominator factors, and only
    the common power of z is cancelled from N and D.
    """
    f = branch_fracs(branch)[name]
    num, den = _cofactor(f.num, {}), _cofactor(f.den, {})
    k = min(ez for _, ez in (*num.terms, *den.terms))

    def shifted(p: Poly) -> Poly:
        return Poly(XZ, {(ex, ez - k): c for (ex, ez), c in p.terms.items()})

    return shifted(num), shifted(den)


@lru_cache(maxsize=None)
def surface_tables(name: str, branch: str) -> tuple[tuple, tuple]:
    """`surface` as a pair of tables: row k lists the x^k coefficients, in z."""
    return tuple(_rows(p.terms.items()) for p in surface(name, branch))


def derived_pair(which: str) -> tuple[tuple, tuple]:
    """The unreduced N / D of g1 or g2 as tables."""
    return surface_tables(which, AUX_BRANCH[which])


def fiber_values(pair: Sequence[Sequence[Sequence[int]]], x: int,
                 zs: Iterable[int]) -> Iterator[Fraction]:
    """N(x, z) / D(x, z) at each z of zs, off the fiber x of a table pair, read once.

    Where D vanishes the fiber is reduced once by its GCD, so a removable
    singularity gets its value and a genuine pole raises ZeroDivisionError.
    """
    num, den = (_table_fiber(rows, x) for rows in pair)
    lowest = None
    for z in zs:
        n, d = _horner(num, z), _horner(den, z)
        if d == 0:
            lowest = lowest or reduced(num, den)
            n, d = (_horner(c, z) for c in lowest)
            if d == 0:
                raise ZeroDivisionError(f"pole at (x, z) = ({x}, {z})")
        yield Fraction(n, d)


def reduced(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """num / den along one line, both divided by their `dense_gcd`."""
    common = dense_gcd(num, den)
    return dense_divmod(num, common)[0], dense_divmod(den, common)[0]


def param_value(name: str, x: int, z: int, branch: str = "y1") -> Fraction:
    """Exact value of a block-graph parameter along the parametrized surface.

    Removable singularities are resolved by GCD reduction along the fixed-x
    fiber; a genuine pole raises ZeroDivisionError.
    """
    if x == 0:
        raise DesignError("the parametrization needs x != 0")
    return next(fiber_values(surface_tables(name, branch), x, (z,)))


def strip_equation(pair: Sequence[Sequence[Sequence[int]]]) -> Quadratic:
    """Solve g1 = 1 along the strip x = z(z+1)/2 - 1 of a g1 table pair.

    N / D restricted to the strip is reduced once; the difference num - den
    of the result must be a nonzero multiple of z^2 + z - 10, and neither
    root z = (-1 +- sqrt(41)) / 2 may be a pole of the reduced g1.  It reads
    only the table pair, never the t-form, so on the derived pair it is an
    independent check of `dioph.solve_strip_equation`.
    """
    quadratic = (1, 1, -10)
    z = Poly.variable("z", ("z",))
    top = max(map(len, pair)) - 1
    # 2^top N and 2^top D at 2x = z(z + 1) - 2: Horner's rule in x on the
    # rows, row k scaled by 2^(top - k)
    num, den = reduced(*(
        dense_coeffs(_horner([2 ** (top - k) * _horner(row, z) for k, row in enumerate(rows)],
                             z * (z + 1) - 2))
        for rows in pair))
    q = trim(a - b for a, b in zip_longest(num, den, fillvalue=0))
    if dense_divmod(q, quadratic[::-1])[1] or len(q) != 3:
        raise InternalConsistencyError(
            f"strip residue {q} is not a nonzero multiple of {format_quadratic(quadratic)}")
    strip = solve_quadratic("strip g1 = 1", *quadratic, note="from Region 2 of the g1 certificate")
    for r in strip.roots:
        if _horner(den, r).is_zero():
            raise InternalConsistencyError(f"strip root {r} is a pole of the reduced g1")
    return strip


# ----- the shipped forms -----------------------------------------------------


@lru_cache(maxsize=None)
def t_form_tables(form=g1_in_t) -> tuple[tuple, tuple]:
    """A t-form N / D in (x, t) at t = z(z + 1)/2, as a table pair in lowest integer terms.

    Each side is cleared by `compose_cleared` with t = z(z + 1) / 2 and
    scaled to the larger power of 2; both are then divided by their common
    content, with the sign that makes D's top coefficient positive.  For
    `regions.g1_in_t` this is g1 in lowest terms, the table `lowest_terms`
    gives.
    """
    sides = form(*Poly.gens(("x", "t")))
    subs = {"x": (_X, ONE_XZ), "t": (_Z * (_Z + 1), 2 * ONE_XZ)}
    top = max(p.degree("t") for p in sides)
    num, den = (compose_cleared(p, subs) * 2 ** (top - p.degree("t")) for p in sides)
    content = reduce(gcd, (*num.terms.values(), *den.terms.values()))
    if _rows(den.terms.items())[-1][-1] < 0:
        content = -content
    return tuple(_rows((e, c // content) for e, c in p.terms.items()) for p in (num, den))


def shipped_pair(which: str) -> tuple[tuple, tuple]:
    """What `src/` holds of g1 or g2 as a table pair: g1's t-form read at t = z(z + 1)/2, the g2 table."""
    return t_form_tables() if which == "g1" else dioph._G2_TABLE


def table_poly(rows: Sequence[Sequence[int]]) -> Poly:
    """The Poly sum_k x^k rows[k](z) of a table."""
    return Poly(XZ, {(k, j): c for k, row in enumerate(rows) for j, c in enumerate(row)})


def table_holds(which: str, num_rows: Sequence[Sequence[int]],
                den_rows: Sequence[Sequence[int]]) -> bool:
    """True when num / den equals the derived N / D: num D == N den as Polys."""
    num, den = table_poly(num_rows), table_poly(den_rows)
    N, D = surface(which, AUX_BRANCH[which])
    return num * D == N * den


def _rows(terms) -> tuple[tuple[int, ...], ...]:
    """Terms ((ex, ez), c) in (x, z) as table rows: row k is the x^k coefficient in z."""
    terms = [(e, int(c)) for e, c in terms]
    width = 1 + max((ez for (_, ez), _ in terms), default=0)
    rows = [[0] * width for _ in range(1 + max((ex for (ex, _), _ in terms), default=0))]
    for (ex, ez), c in terms:
        rows[ex][ez] = c
    for row in rows:
        while row and row[-1] == 0:
            row.pop()
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def y2_curve_table() -> tuple[tuple[int, ...], ...]:
    """p3 on the y2 branch, cleared by `compose_cleared`, as table rows."""
    return _rows(compose_cleared(P3, {**_XZ_SUBS, "y": (Y2NUM_XZ, MSQ_XZ)}).terms.items())


@lru_cache(maxsize=None)
def lowest_terms(which: str) -> tuple[tuple, tuple]:
    """The derived N / D of g1 or g2 divided by their GCD, as table rows.

    The sign is fixed so that the top x-row of the denominator ends in a
    positive coefficient.
    """
    import sympy

    x, z = sympy.symbols("x z")
    num, den = (sympy.Poly.from_dict(p.terms, x, z) for p in surface(which, AUX_BRANCH[which]))
    common = sympy.gcd(num, den)
    num, den = num.exquo(common), den.exquo(common)
    if _rows(den.terms())[-1][-1] < 0:
        num, den = -num, -den
    return _rows(num.terms()), _rows(den.terms())


def table_literal(which: str) -> str:
    """g1 or g2 in lowest terms as a table pair, as Python source."""
    return f'{which}: {pprint.pformat(lowest_terms(which), width=96)}'


if __name__ == "__main__":
    for name in AUX_BRANCH:
        print(table_literal(name))
