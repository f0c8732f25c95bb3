"""The derivation of g1 and g2 on the (x, z) surface: a test-side oracle.

`dioph` ships g1 and g2 as coefficient tables in lowest terms
(`dioph._LOWEST_TERMS`).  This module derives them again from the paper's
formulas: the block-graph parameters of `designs.block_graph_formulas` and
the two auxiliary functions are evaluated over `PolyFrac`, a fraction of
`Poly`s whose denominator stays factored, and each is expanded once into an
unreduced pair N(x, z) / D(x, z) (`surface`).  The tests prove the shipped
tables against these pairs (`table_holds`, with `table_poly` turning a table
back into a `Poly`).  `derived_pair` and `param_value` hand the pairs to
`dioph` as tables, in the form `dioph._surface` gives, and `param_value`
reads any parameter off them, removable singularities included, through
`dioph._fiber_values`.  `y2_curve_table` derives the shipped table of the
y2 curve, `dioph._Y2_CURVE`, with `compose_cleared`.

Regenerate the tables after a change to a formula with

    PYTHONPATH=src python3 tests/surface_oracle.py

which prints the `_LOWEST_TERMS` entries (sympy, test-only).
"""

from __future__ import annotations

import pprint
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from twodist.designs import block_graph_formulas
from twodist.dioph import (MSQ_XZ, ONE_XZ, P3, S_XZ, XZ, Y1_XZ, Y2NUM_XZ, _XZ_SUBS, _X, _Z,
                           _fiber_values)
from twodist.errors import DesignError
from twodist.polynomials import Poly, compose_cleared


def prop_params(S, m, x, y) -> dict:
    """Block-graph parameters plus S, m and y, over any exact field."""
    return {**block_graph_formulas(S, m, x, y), "S": S, "m": m, "y": y}


def g1_expr(par, x, z):
    return (3 + x + 19 * z + 16 * z * z + 3 * par["k"] + 3 * par["Lambda"]
            - par["m"] - 4 * par["n"] - 18 * par["P"] + 21 * z * par["r"])


def g2_expr(par, x, y, z):
    return (-72 * par["Lambda"] + 13 * par["m"] + 13 * par["n"] + 99 * par["T"]
            - 45 * x + 32 * y - 14 * z - 13 * par["m"] * z + 39 * par["n"] * z
            - 13 * par["T"] * z + 13 * x * z - 33 * z * z + 13 * z * z * z)


class PolyFrac:
    """Bivariate fraction with a factored, never-expanded denominator.

    Evaluating a parameter formula over PolyFrac keeps the denominator
    factors apart, so no GCD is computed, and `surface` expands them once
    into a single denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[dict] = None):
        self.num = num
        self.den = dict(den or {})

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
        num = self.num * _den_product(common, self.den) + other.num * _den_product(common, other.den)
        return PolyFrac(num, common)

    __radd__ = __add__

    def __neg__(self):
        return PolyFrac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = dict(self.den)
        for f, e in other.den.items():
            den[f] = den.get(f, 0) + e
        return PolyFrac(self.num * other.num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("PolyFrac division by zero")
        num = self.num
        for f, e in other.den.items():
            num = num * f**e
        den = dict(self.den)
        den[other.num] = den.get(other.num, 0) + 1
        return PolyFrac(num, den)


def _den_product(common: dict, mine: dict) -> Poly:
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
    num, den = f.num, _den_product(f.den, {})
    k = min(ez for _, ez in (*num.terms, *den.terms))

    def shifted(p: Poly) -> Poly:
        return Poly(XZ, {(ex, ez - k): c for (ex, ez), c in p.terms.items()})

    return shifted(num), shifted(den)


@lru_cache(maxsize=None)
def surface_tables(name: str, branch: str) -> tuple[tuple, tuple]:
    """`surface` as a pair of tables: row k lists the x^k coefficients, in z."""
    return tuple(_rows(p.terms.items()) for p in surface(name, branch))


def derived_pair(which: str) -> tuple[tuple, tuple]:
    """The unreduced N / D of g1 or g2 as tables; a drop-in for `dioph._surface`."""
    return surface_tables(which, AUX_BRANCH[which])


def param_value(name: str, x: int, z: int, branch: str = "y1") -> Fraction:
    """Exact value of a block-graph parameter along the parametrized surface.

    Removable singularities are resolved by GCD reduction along the fixed-x
    fiber; a genuine pole raises ZeroDivisionError.
    """
    if x == 0:
        raise DesignError("the parametrization needs x != 0")
    return next(_fiber_values(surface_tables(name, branch), x, (z,)))


# ----- the shipped tables ---------------------------------------------------


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
    """The regenerated `_LOWEST_TERMS` entry of g1 or g2, as Python source."""
    return f'"{which}": {pprint.pformat(lowest_terms(which), width=96)},'


if __name__ == "__main__":
    for name in AUX_BRANCH:
        print(table_literal(name))
