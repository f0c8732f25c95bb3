"""Exact Diophantine engine for the two-distance feasibility system.

The three quartic conditions p1, p2, p3 in (S, m, x, y) are carried as exact
polynomials.  A two-variable parametrization (x, z) rewrites every design
parameter, and each auxiliary integer-valued function g1, g2, as one integer
fraction N(x, z) / D(x, z); lattice rows, fixed-x fibers and the strip are
all evaluated by substitution into that pair.  g1 and g2 are certified to
stay inside open unit-length (or short) intervals on large lattice boxes,
which is the desk-scale stand-in for the unbounded real certificates.  A brute-force solver, the parametrized solution families, the
quadratic S-range exclusions, and the final classification over the family
curve complete the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterator, Optional, Sequence

from .designs import DesignError, derive_parameters, integrality_gate
from .exactnum import QuadExt, format_scalar, sqrt_adjoin, squarefree_decompose
from .polynomials import Poly, RatFunc, UniPoly, compose_cleared


class IdentityFailureError(AssertionError):
    """A residue that must be the zero polynomial is not.

    This signals an implementation bug, never a property of the inputs.
    """


# ----- the polynomial system --------------------------------------------

P_VARS = ("S", "m", "x", "y")

P1 = Poly(P_VARS, {
    (4, 0, 0, 0): 1, (2, 1, 1, 0): -2, (0, 2, 2, 0): 1, (3, 0, 0, 0): -2,
    (2, 0, 1, 0): 2, (1, 1, 1, 0): -2, (0, 1, 2, 0): 2, (2, 0, 0, 0): 1,
    (1, 0, 1, 0): -2, (0, 0, 2, 0): 1,
})

P2 = Poly(P_VARS, {
    (4, 0, 0, 0): 1, (2, 1, 1, 0): 2, (2, 1, 0, 1): -4, (0, 2, 2, 0): 1,
    (0, 2, 1, 1): -4, (0, 2, 0, 2): 4, (3, 0, 0, 0): -2, (2, 0, 1, 0): 2,
    (2, 1, 0, 0): 8, (1, 1, 1, 0): -6, (0, 1, 2, 0): -2, (1, 1, 0, 1): -4,
    (0, 1, 1, 1): 4, (1, 2, 0, 0): -4, (0, 2, 1, 0): 4, (2, 0, 0, 0): 1,
    (1, 0, 1, 0): -2, (0, 0, 2, 0): 1,
})

P3 = Poly(P_VARS, {
    (2, 0, 2, 0): 1, (1, 1, 2, 0): -1, (2, 0, 1, 1): -2, (1, 1, 1, 1): 2,
    (2, 0, 0, 2): 1, (1, 1, 0, 2): -1, (2, 1, 0, 0): 1, (2, 0, 1, 0): 2,
    (1, 1, 1, 0): -2, (1, 0, 2, 0): -2, (0, 1, 2, 0): 1, (2, 0, 0, 1): -2,
    (1, 0, 1, 1): 2, (2, 0, 0, 0): 1, (1, 0, 1, 0): -2, (0, 0, 2, 0): 1,
})

POLYNOMIALS = {"p1": P1, "p2": P2, "p3": P3}


def eval_p(which: str, S: int, m: int, x: int, y: int) -> int:
    """Exact integer evaluation of p1, p2 or p3."""
    if which == "p1":
        return _p1_int(S, m, x)
    if which == "p2":
        return _p2_int(S, m, x, y)
    if which == "p3":
        return _p3_int(S, m, x, y)
    raise ValueError(f"unknown polynomial {which!r}")


def _p1_int(S: int, m: int, x: int) -> int:
    # p1 = (S^2 - x m)^2 - 2 (S - x)(S^2 + x m) + (S - x)^2; p1 has no y term
    t = S * S - x * m
    u = S - x
    return t * t - 2 * u * (S * S + x * m) + u * u


def _p2_int(S: int, m: int, x: int, y: int) -> int:
    S2 = S * S
    m2 = m * m
    return (
        S2 * S2 + 2 * S2 * x * m - 4 * S2 * y * m + x * x * m2 - 4 * x * y * m2
        + 4 * y * y * m2 - 2 * S2 * S + 2 * S2 * x + 8 * S2 * m - 6 * S * x * m
        - 2 * x * x * m - 4 * S * y * m + 4 * x * y * m - 4 * S * m2 + 4 * x * m2
        + S2 - 2 * S * x + x * x
    )


def _p3_int(S: int, m: int, x: int, y: int) -> int:
    S2 = S * S
    return (
        S2 * x * x - S * m * x * x - 2 * S2 * x * y + 2 * S * m * x * y
        + S2 * y * y - S * m * y * y + S2 * m + 2 * S2 * x - 2 * S * m * x
        - 2 * S * x * x + m * x * x - 2 * S2 * y + 2 * S * x * y + S2
        - 2 * S * x + x * x
    )


# ----- the (x, z) parametrization ---------------------------------------

XZ = ("x", "z")
_X, _Z = Poly.gens(XZ)
ONE_XZ = Poly.constant(XZ, 1)

S_XZ = _X + _Z * _Z                                  # S = x + z^2
MROOT_XZ = _X + _Z * _Z + _Z                         # x + z^2 + z
MSQ_XZ = MROOT_XZ * MROOT_XZ                         # m = MSQ / x
Y1_XZ = _X - _Z                                      # first branch for y
Y2NUM_XZ = Poly(XZ, {                                # second branch: Y2NUM / MSQ
    (3, 0): 1, (2, 2): 2, (2, 1): 1, (1, 4): 1, (1, 3): 2, (1, 2): 3,
    (0, 5): 1, (0, 4): 2, (0, 3): 1,
})


def z_of(S: int, m: int, x: int) -> Fraction:
    """The strip coordinate z = (x (m + 1) - S (S + 1)) / (2 S)."""
    if S == 0:
        raise DesignError("z_of needs S != 0")
    return Fraction(x * (m + 1) - S * (S + 1), 2 * S)


@dataclass(frozen=True)
class ZPoint:
    """Values of (S, m, y1, y2) on the parametrized surface at integer (x, z)."""

    x: int
    z: int
    S: int
    m: Fraction
    y1: int
    y2: Fraction


def z_parametrization(x: int, z: int) -> ZPoint:
    """Evaluate S = x + z^2, m = (x + z^2 + z)^2 / x and both y branches."""
    if x == 0:
        raise DesignError("the parametrization needs x != 0")
    S = x + z * z
    root = x + z * z + z
    m = Fraction(root * root, x)
    y1 = x - z
    y2num = (
        x**3 + 2 * x**2 * z**2 + x**2 * z + x * z**4 + 2 * x * z**3
        + 3 * x * z**2 + z**5 + 2 * z**4 + z**3
    )
    if root == 0:
        raise DesignError(f"degenerate parametrization at (x, z) = ({x}, {z})")
    y2 = Fraction(y2num, root * root)
    return ZPoint(x, z, S, m, y1, y2)


def family_points(family: str, z: int) -> tuple[int, int, int, int]:
    """A point (S, m, x, y) on one of the three solution curves."""
    if family == "i":
        return (z * (3 * z + 1) // 2, 9 * z * (z + 1) // 2,
                z * (z + 1) // 2, z * (z - 1) // 2)
    if family == "ii":
        return (z, z, z, z)
    if family == "iii":
        return (z + 1, z, z, z + 1)
    raise ValueError(f"unknown family {family!r}")


_FAM_Z = ("z",)
_FAMILY_I_SUBS = {
    "S": (Poly(_FAM_Z, {(2,): Fraction(3, 2), (1,): Fraction(1, 2)}), Poly.constant(_FAM_Z, 1)),
    "m": (Poly(_FAM_Z, {(2,): Fraction(9, 2), (1,): Fraction(9, 2)}), Poly.constant(_FAM_Z, 1)),
    "x": (Poly(_FAM_Z, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)}), Poly.constant(_FAM_Z, 1)),
    "y": (Poly(_FAM_Z, {(2,): Fraction(1, 2), (1,): Fraction(-1, 2)}), Poly.constant(_FAM_Z, 1)),
}


# ----- identity verification --------------------------------------------

_S, _M, _XV, _YV = Poly.gens(P_VARS)
LAMBDA_NUM = _S * (_S - 1) * (_S - _XV) * (_S - _YV)
LAMBDA_DEN = (
    _S**4 - 2 * _S**3
    - ((_XV + _YV - 1) * (_M - 1) - 1) * _S**2
    + _XV * _YV * _M * (_M - 1)
)


@dataclass(frozen=True)
class IdentityReport:
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.names)


def verify_identities() -> IdentityReport:
    """Check the parametrization and family identities as zero polynomials.

    Any nonzero residue raises IdentityFailureError: these are algebraic
    identities, so a failure can only mean a transcription bug.
    """
    checks: list[tuple[str, Poly]] = []
    base = {"S": (S_XZ, ONE_XZ), "m": (MSQ_XZ, _X), "x": (_X, ONE_XZ)}
    checks.append(("p1 on the y1 branch", compose_cleared(P1, {**base, "y": (Y1_XZ, ONE_XZ)})))
    checks.append(("p2 on the y1 branch", compose_cleared(P2, {**base, "y": (Y1_XZ, ONE_XZ)})))
    checks.append(("p2 on the y2 branch", compose_cleared(P2, {**base, "y": (Y2NUM_XZ, MSQ_XZ)})))
    for name, poly in (("p1", P1), ("p2", P2), ("p3", P3)):
        checks.append((f"{name} on family (i)", compose_cleared(poly, _FAMILY_I_SUBS)))
    lam_num_i = compose_cleared(LAMBDA_NUM, _FAMILY_I_SUBS)
    lam_den_i = compose_cleared(LAMBDA_DEN, _FAMILY_I_SUBS)
    s_i = _FAMILY_I_SUBS["S"][0]
    block_count = 2 * lam_num_i - s_i * (s_i - 1) * lam_den_i
    checks.append(("block count n = C(m,2) on family (i)", block_count))
    for name, residue in checks:
        if not residue.is_zero():
            raise IdentityFailureError(f"nonzero residue for {name}: {residue!r}")
    return IdentityReport(tuple(name for name, _ in checks))


# ----- parameter calculus over any exact field -----------------------------


def _prop_params(S, m, x, y) -> dict:
    """Block-graph parameters as expressions over any exact field elements."""
    S2 = S * S
    lam_den = S2 * S2 - 2 * S2 * S - ((x + y - 1) * (m - 1) - 1) * S2 + x * y * m * (m - 1)
    lam = S * (S - 1) * (S - x) * (S - y) / lam_den
    t = (m - 1) * lam / (S - 1)
    excess = S * (S - 1) - y * (m - 1)
    big_n = x * (m - S) * excess * lam / (S * (x - y) * (S - x) * (S - 1))
    big_p = excess * lam / ((x - y) * (S - 1))
    r = ((m - S) * lam / (S - 1) - (S - y)) / (x - y)
    k = (m - S) * excess * lam / ((x - y) * (S - x) * (S - 1))
    n = m * t / S
    s = (y - S) / (x - y)
    return {"Lambda": lam, "T": t, "N": big_n, "P": big_p, "r": r, "k": k,
            "n": n, "s": s, "S": S, "m": m, "y": y}


def _g1_expr(par, x, z):
    return (3 + x + 19 * z + 16 * z * z + 3 * par["k"] + 3 * par["Lambda"]
            - par["m"] - 4 * par["n"] - 18 * par["P"] + 21 * z * par["r"])


def _g2_expr(par, x, y, z):
    return (-72 * par["Lambda"] + 13 * par["m"] + 13 * par["n"] + 99 * par["T"]
            - 45 * x + 32 * y - 14 * z - 13 * par["m"] * z + 39 * par["n"] * z
            - 13 * par["T"] * z + 13 * x * z - 33 * z * z + 13 * z * z * z)


# ----- one form per function on the (x, z) surface -------------------------


class PolyFrac:
    """Bivariate fraction with a factored, never-expanded denominator.

    The builder of the surface forms: evaluating a parameter formula over
    PolyFrac keeps the denominator factors apart, so no GCD is computed, and
    `_surface` expands them once into a single denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[dict] = None):
        self.num = num
        self.den = dict(den or {})

    @staticmethod
    def const(c) -> "PolyFrac":
        return PolyFrac(Poly.constant(XZ, c))

    def _coerce(self, other) -> "PolyFrac":
        if isinstance(other, PolyFrac):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyFrac.const(other)
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

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self


def _den_product(common: dict, mine: dict) -> Poly:
    out = ONE_XZ
    for f, e in common.items():
        missing = e - mine.get(f, 0)
        if missing:
            out = out * f**missing
    return out


_AUX_BRANCH = {"g1": "y1", "g2": "y2"}   # each auxiliary function lives on one y branch


@lru_cache(maxsize=None)
def _branch_fracs(branch: str) -> dict[str, PolyFrac]:
    """Every `_prop_params` entry of one y branch, plus its auxiliary function."""
    S = PolyFrac(S_XZ)
    m = PolyFrac(MSQ_XZ, {_X: 1})
    x = PolyFrac(_X)
    z = PolyFrac(_Z)
    if branch == "y1":
        par = _prop_params(S, m, x, PolyFrac(Y1_XZ))
        par["g1"] = _g1_expr(par, x, z)
    elif branch == "y2":
        y = PolyFrac(Y2NUM_XZ, {MSQ_XZ: 1})
        par = _prop_params(S, m, x, y)
        par["g2"] = _g2_expr(par, x, y, z)
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return par


@lru_cache(maxsize=None)
def _surface(name: str, branch: str) -> tuple[Poly, Poly]:
    """One function on the surface as N(x, z) / D(x, z), with integer coefficients.

    D is the expanded product of the formula's denominator factors and the
    common power of z is cancelled from N and D.  Rows z = z0, fibers x = x0
    and the strip all come from substitution into this one pair.
    """
    f = _branch_fracs(branch)[name]
    num, den = f.num, _den_product(f.den, {})
    k = min(ez for _, ez in (*num.terms, *den.terms))
    scale = lcm(*(c.denominator for p in (num, den) for c in p.terms.values()))

    def shifted(p: Poly) -> Poly:
        return Poly(XZ, {(ex, ez - k): c * scale for (ex, ez), c in p.terms.items()})

    return shifted(num), shifted(den)


def _value_at(surface: tuple[Poly, Poly], x: int, z: int) -> Fraction:
    """N(x, z) / D(x, z); where D vanishes, the value of the reduced x-fiber.

    The fiber N(x, .) / D(x, .) is reduced by one univariate GCD, so a
    removable singularity gets its value and a genuine pole raises
    ZeroDivisionError.
    """
    num, den = surface
    point = {"x": x, "z": z}
    d = den.eval(point)
    if d:
        return num.eval(point) / d
    fiber = RatFunc(UniPoly.from_poly(num.subst_univariate("x", x)),
                    UniPoly.from_poly(den.subst_univariate("x", x)))
    return fiber.eval(Fraction(z))


def param_value(name: str, x: int, z: int, branch: str = "y1") -> Fraction:
    """Exact value of a block-graph parameter along the parametrized surface.

    Removable singularities are resolved by GCD reduction along the fixed-x
    fiber; a genuine pole raises ZeroDivisionError.
    """
    if x == 0:
        raise DesignError("the parametrization needs x != 0")
    return _value_at(_surface(name, branch), x, z)


def aux_g(which: str, x: int, z: int) -> Fraction:
    """Exact value of the auxiliary function g1 (y1 branch) or g2 (y2 branch).

    x must be a positive integer; removable singularities are evaluated after
    reduction along the fixed-x fiber.
    """
    if x < 1:
        raise DesignError("aux_g needs x >= 1")
    if which not in _AUX_BRANCH:
        raise ValueError(f"unknown auxiliary polynomial {which!r}")
    return _value_at(_surface(which, _AUX_BRANCH[which]), x, z)


# ----- lattice scan ------------------------------------------------------------


def _row_coeffs(p: Poly, z0: int) -> list[int]:
    """Coefficients of the integer polynomial p(x, z0), lowest degree first."""
    coeffs = UniPoly.from_poly(p.subst_univariate("z", z0)).coeffs
    if any(c.denominator != 1 for c in coeffs):
        raise IdentityFailureError(f"row z = {z0} has non-integer coefficients")
    return [c.numerator for c in coeffs]


def _horner(coeffs: Sequence[int], x: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _fd_stream(coeffs: Sequence[int], start: int, count: int) -> Iterator[int]:
    """Values of an integer polynomial on start, start+1, ... via differences."""
    if count <= 0:
        return
    if not coeffs:
        for _ in range(count):
            yield 0
        return
    d = len(coeffs) - 1
    if count <= d + 1:
        for i in range(count):
            yield _horner(coeffs, start + i)
        return
    table = [_horner(coeffs, start + i) for i in range(d + 1)]
    deltas = []
    level = table
    for _ in range(d + 1):
        deltas.append(level[0])
        level = [level[i + 1] - level[i] for i in range(len(level) - 1)]
    for _ in range(count):
        yield deltas[0]
        for j in range(d):
            deltas[j] += deltas[j + 1]


@dataclass(frozen=True)
class RegionViolation:
    region: str
    x: int
    z: int
    value: str


@dataclass
class RegionScanReport:
    which: str
    zmin: int
    zmax: int
    xmax: int
    points_checked: dict[str, int] = field(default_factory=dict)
    violations: list[RegionViolation] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class _RowEvaluator:
    """Exact values of g = N / D along the row z = z0, by finite differences."""

    def __init__(self, which: str, z0: int):
        self.which = which
        self.z0 = z0
        num, den = _surface(which, _AUX_BRANCH[which])
        self.num = _row_coeffs(num, z0)
        self.den = _row_coeffs(den, z0)

    def check_range(self, lo: int, hi: int, x_start: int, x_stop: int,
                    region: str, report: RegionScanReport) -> None:
        """Assert lo < g(x, z0) < hi for x in [x_start, x_stop]."""
        count = x_stop - x_start + 1
        if count <= 0:
            return
        report.points_checked[region] = report.points_checked.get(region, 0) + count
        values = zip(_fd_stream(self.num, x_start, count), _fd_stream(self.den, x_start, count))
        for x0, (nv, dv) in enumerate(values, x_start):
            if dv == 0:
                self._check_point_fallback(x0, lo, hi, region, report)
                continue
            if dv > 0:
                ok = lo * dv < nv < hi * dv
            else:
                ok = hi * dv < nv < lo * dv
            if not ok:
                report.violations.append(RegionViolation(
                    region, x0, self.z0, format_scalar(Fraction(nv, dv))))

    def _check_point_fallback(self, x0: int, lo: int, hi: int,
                              region: str, report: RegionScanReport) -> None:
        try:
            value = aux_g(self.which, x0, self.z0)
        except ZeroDivisionError:
            report.violations.append(RegionViolation(region, x0, self.z0, "pole"))
            return
        if not (lo < value < hi):
            report.violations.append(RegionViolation(
                region, x0, self.z0, format_scalar(value)))


def _strip_offset(z: int) -> int:
    return z * (z + 1) // 2


def region_scan(which: str, zmin: int = -100, zmax: int = 100,
                xmax: int = 10_000) -> RegionScanReport:
    """Certify the auxiliary-function interval bounds on a lattice box.

    For g1 (y1 branch): g in (0,1) off the half-integer strip, (0,2) on the
    strip x = z(z+1)/2 - 1, plus the exact strip-equation roots
    z = (-1 +- sqrt(41)) / 2.  For g2 (y2 branch): g in (31,33) for
    x in {1,2} and |z| large, g in (-1,38) for x >= 3, plus the small-box
    enumeration of integral g2 values.  Bounded lattice boxes stand in for
    unbounded-region certificates; violations are reported, never raised.
    A box that holds no lattice point to check raises DesignError.
    """
    if which not in ("g1", "g2"):
        raise ValueError(f"unknown auxiliary polynomial {which!r}")
    if zmin > zmax:
        raise DesignError(f"empty z range [{zmin}, {zmax}]")
    if xmax < 1:
        raise DesignError(f"region_scan needs xmax >= 1, got {xmax}")
    report = RegionScanReport(which, zmin, zmax, xmax)
    if which == "g1":
        for z0 in range(zmin, zmax + 1):
            t = _strip_offset(z0)
            row = None
            if z0 <= -2 or z0 >= 1:
                lo_x = max(1, t + 1)
                if lo_x <= xmax:
                    row = _RowEvaluator("g1", z0)
                    row.check_range(0, 1, lo_x, xmax, "region1", report)
            strip_x = t - 1
            if 1 <= strip_x <= xmax:
                row = row or _RowEvaluator("g1", z0)
                row.check_range(0, 2, strip_x, strip_x, "region2", report)
            hi_x = min(xmax, t - 2)
            if hi_x >= 1:
                row = row or _RowEvaluator("g1", z0)
                row.check_range(0, 1, 1, hi_x, "region3", report)
    else:
        for z0 in range(zmin, zmax + 1):
            if z0 <= -15 or z0 >= 10:
                for x0 in (1, 2):
                    value = aux_g("g2", x0, z0)
                    report.points_checked["large_z"] = report.points_checked.get("large_z", 0) + 1
                    if not (31 < value < 33):
                        report.violations.append(RegionViolation(
                            "large_z", x0, z0, format_scalar(value)))
            if xmax >= 3:
                row = _RowEvaluator("g2", z0)
                row.check_range(-1, 38, 3, xmax, "x_ge_3", report)
    if not report.points_checked:
        raise DesignError(
            f"the box z in [{zmin}, {zmax}], x <= {xmax} holds no lattice point "
            f"on which {which} is checked")
    if which == "g1":
        report.notes["strip_equation"] = solve_strip_equation()
    else:
        report.notes["integer_values"] = g2_integer_values()
    return report


def g2_integer_values(zmin: int = -14, zmax: int = 9) -> dict[tuple[int, int], int]:
    """Integral values of g2 for x in {1, 2} on the finite strip of z."""
    out: dict[tuple[int, int], int] = {}
    for x0 in (1, 2):
        for z0 in range(zmin, zmax + 1):
            value = aux_g("g2", x0, z0)
            if value.denominator == 1:
                out[(x0, z0)] = int(value)
    return out


@dataclass(frozen=True)
class StripEquationResult:
    """Exact solution data for g1 = 1 on the strip x = z(z+1)/2 - 1."""

    quadratic: tuple[int, int, int]      # z^2 + z - 10
    discriminant: int                    # 41
    roots: tuple[QuadExt, QuadExt]
    integer_roots: tuple[int, ...]
    residue_degree: int


def solve_strip_equation() -> StripEquationResult:
    """Solve g1 = 1 exactly along x = z(z+1)/2 - 1.

    g1 = N / D restricted to the strip is reduced once; the difference
    num - den of the result must vanish at z = (-1 +- sqrt(41)) / 2 and at
    no integer.
    """
    one = Poly.constant(_FAM_Z, 1)
    subs = {"x": (Poly(_FAM_Z, {(2,): Fraction(1, 2), (1,): Fraction(1, 2), (0,): -1}), one),
            "z": (Poly.variable("z", _FAM_Z), one)}
    g = RatFunc(*(UniPoly.from_poly(compose_cleared(p, subs)) for p in _surface("g1", "y1")))
    q = g.num - g.den
    target = UniPoly([-10, 1, 1])
    quotient, remainder = q.divmod(target)
    if not remainder.is_zero():
        raise IdentityFailureError(
            f"strip residue not divisible by z^2 + z - 10: remainder {remainder!r}")
    disc = 41
    sqrt_disc = sqrt_adjoin(disc)
    roots = (
        (QuadExt(Fraction(-1)) + sqrt_disc) * Fraction(1, 2),
        (QuadExt(Fraction(-1)) - sqrt_disc) * Fraction(1, 2),
    )
    for r in roots:
        if not q.eval(r).is_zero() or g.den.eval(r).is_zero():
            raise IdentityFailureError(f"strip root {r} fails exact verification")
    integer_roots = tuple(sorted(_integer_roots(q)))
    return StripEquationResult((1, 1, -10), disc, roots, integer_roots, q.degree)


def _scaled_int_coeffs(p: UniPoly) -> list[int]:
    scale = lcm(*(c.denominator for c in p.coeffs))
    return [int(c * scale) for c in p.coeffs]


def _integer_roots(p: UniPoly) -> list[int]:
    coeffs = _scaled_int_coeffs(p)
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]  # factor out z; z = 0 handled below
    if not coeffs:
        return []
    candidates = {0} if len(coeffs) != len(p.coeffs) else set()
    c0 = abs(coeffs[0])
    d = 1
    while d * d <= c0:
        if c0 % d == 0:
            candidates.update({d, -d, c0 // d, -(c0 // d)})
        d += 1
    return [c for c in sorted(candidates) if p.eval(c) == 0]


# ----- solution certificates, brute force, classification -----------------


@dataclass(frozen=True)
class GateResult:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class SolutionCertificate:
    candidate: tuple[int, int, int, int, int]  # (S, m, x, y, z)
    gates: tuple[GateResult, ...]
    verdict: str                               # "accepted" or "rejected: <gate>"

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    @property
    def smxy(self) -> tuple[int, int, int, int]:
        return self.candidate[:4]

    def as_dict(self) -> dict:
        return {
            "candidate": {k: v for k, v in zip("Smxyz", self.candidate)},
            "gates": [{"name": g.name, "passed": g.passed, "witness": g.witness}
                      for g in self.gates],
            "verdict": self.verdict,
        }


def _finish_certificate(S: int, m: int, x: int, y: int,
                        gates: list[GateResult]) -> SolutionCertificate:
    z = z_of(S, m, x)
    z_int = int(z) if z.denominator == 1 else 0
    failing = next((g for g in gates if not g.passed), None)
    verdict = "accepted" if failing is None else f"rejected: {failing.name}: {failing.witness}"
    return SolutionCertificate((S, m, x, y, z_int), tuple(gates), verdict)


def _integrality_gates(S: int, m: int, x: int, y: int) -> list[GateResult]:
    gates: list[GateResult] = []
    ordering_ok = 0 <= y < x < S < m
    gates.append(GateResult(
        "ordering", ordering_ok,
        f"0 <= {y} < {x} < {S} < {m}" if ordering_ok else
        f"(S,m,x,y)=({S},{m},{x},{y}) violates 0 <= y < x < S < m"))
    if not ordering_ok:
        return gates
    try:
        params = derive_parameters(m, S, x, y)
    except DesignError as exc:
        gates.append(GateResult("integrality", False, str(exc)))
        return gates
    gate = integrality_gate(params)
    witness = "all parameters integral" if gate.passed else gate.violations[0]
    gates.append(GateResult("integrality", gate.passed, witness))
    return gates


def _family_i_gate(S: int, m: int, x: int, y: int) -> GateResult:
    z = z_of(S, m, x)
    if z.denominator != 1:
        return GateResult("family-i", False, f"z = {z} is not an integer")
    point = family_points("i", int(z))
    if point != (S, m, x, y):
        return GateResult(
            "family-i", False,
            f"(S,m,x,y)=({S},{m},{x},{y}) is off family (i) at z={z}")
    return GateResult("family-i", True, f"on family (i) with z = {z}")


def brute_solver(smax: int, mmax: int, enforce_gate: bool = True) -> list[SolutionCertificate]:
    """Enumerate all integer solutions of p1 = p2 = p3 = 0 in the box.

    The box is 0 <= y < x < S <= smax, S < m <= mmax.  With the gate on, the
    integrality of every derived parameter is required and each survivor is
    cross-checked to lie on family (i) with integral z.  Output is ordered
    lexicographically in (S, m, x, y).
    """
    if smax < 2 or mmax < 2:
        raise DesignError("brute_solver needs bounds >= 2")
    out: list[SolutionCertificate] = []
    for S in range(2, smax + 1):
        for m in range(S + 1, mmax + 1):
            for x in range(1, S):
                if _p1_int(S, m, x):
                    continue
                for y in range(x):
                    if _p2_int(S, m, x, y) or _p3_int(S, m, x, y):
                        continue
                    gates = [GateResult("p-system", True, "p1 = p2 = p3 = 0")]
                    gates += _integrality_gates(S, m, x, y)
                    if enforce_gate:
                        if all(g.passed for g in gates):
                            gates.append(_family_i_gate(S, m, x, y))
                        out.append(_finish_certificate(S, m, x, y, gates))
                    else:
                        out.append(_finish_certificate(S, m, x, y, gates[:2]))
    return out


TIGHT_DESIGN = (23, 7, 1)  # the unique tight 4-design parameters, used as a filter


@dataclass
class ClassifyReport:
    zmax: int
    certificates: list[SolutionCertificate]
    family_notes: tuple[str, ...]

    @property
    def accepted(self) -> list[SolutionCertificate]:
        return [c for c in self.certificates if c.accepted]


def classify(zmax: int) -> ClassifyReport:
    """Walk family (i) for z = 1..zmax and apply the acceptance gates.

    Order of gates: ordering feasibility, parameter integrality, then (for
    4 <= S <= m - 4, where the block count equals C(m,2)) the tight-design
    filter, which admits only the 4-(23,7,1) parameters.  z = 1 is accepted
    through the S = 2 quadratic branch and is expected to be the only
    acceptance: the two-distance embedding on 45 points.
    """
    if zmax < 1:
        raise DesignError("classify needs zmax >= 1")
    certificates: list[SolutionCertificate] = []
    for z in range(1, zmax + 1):
        S, m, x, y = family_points("i", z)
        gates = _integrality_gates(S, m, x, y)
        if all(g.passed for g in gates):
            if S < 4:
                gates.append(GateResult(
                    "small-S branch", True,
                    f"S = {S} <= 3: z = {z} is the integer root of 3z^2 + z - {2 * S}"))
            else:
                if not (4 <= S <= m - 4):
                    raise IdentityFailureError(
                        f"family (i) point at z={z} leaves the tight-filter range")
                n = m * (m - 1) // 2
                ok = (m, S) == TIGHT_DESIGN[:2]
                witness = (
                    f"n = C({m},2) = {n} forces the tight 4-{TIGHT_DESIGN} design; "
                    + (f"matched" if ok else f"(S, m) = ({S}, {m}) != (7, 23)")
                )
                gates.append(GateResult("tight-design", ok, witness))
        certificates.append(_finish_certificate(S, m, x, y, gates))
    notes = (
        "family (ii) S = m = x = y gives S = alpha, violating alpha < S",
        "family (iii) m = S - 1 violates S < m",
    )
    return ClassifyReport(zmax, certificates, notes)


# ----- quadratic exclusions ----------------------------------------------


@dataclass(frozen=True)
class QuadraticExclusion:
    label: str
    quadratic: tuple[int, int, int]          # a z^2 + b z + c = 0
    discriminant: int
    squarefree_part: int
    roots: tuple[QuadExt, QuadExt]
    integer_roots: tuple[int, ...]
    note: str = ""


@dataclass(frozen=True)
class ExclusionReport:
    entries: tuple[QuadraticExclusion, ...]
    nonsquare_discriminants: tuple[int, ...]

    @property
    def integer_roots(self) -> tuple[tuple[str, int], ...]:
        return tuple((e.label, r) for e in self.entries for r in e.integer_roots)


def _solve_quadratic(a: int, b: int, c: int) -> tuple[QuadExt, QuadExt]:
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("complex roots")
    sq = sqrt_adjoin(disc)
    inv = Fraction(1, 2 * a)
    return ((QuadExt(-b) + sq) * inv, (QuadExt(-b) - sq) * inv)


def quadratic_exclusions() -> ExclusionReport:
    """Reproduce the S-range checks of the classification as exact quadratics.

    On family (i), fixing S or m - S to a small value forces a quadratic in
    z; every branch except S = 2 has an irrational root pair (non-square
    discriminant), and S = 2 gives exactly z in {1, -4/3}.  The strip
    discriminant 41 joins the non-square list.
    """
    cases = [
        ("S = 2", (3, 1, -4), ""),
        ("S = 3", (3, 1, -6), ""),
        ("S = 7 (tight range)", (3, 1, -14),
         "integer root z = 2 is excluded by the tight-design filter (m = 27 != 23)"),
        ("S = m - 3", (3, 4, -3), ""),
        ("S = m - 2", (3, 4, -2), ""),
        ("S = m - 1", (3, 4, -1), ""),
    ]
    entries = []
    for label, (a, b, c), note in cases:
        roots = _solve_quadratic(a, b, c)
        for r in roots:
            residue = QuadExt(a) * r * r + QuadExt(b) * r + QuadExt(c)
            if not residue.is_zero():
                raise IdentityFailureError(f"root of {label} fails substitution")
        disc = b * b - 4 * a * c
        _, sf = squarefree_decompose(disc)
        int_roots = tuple(
            int(r.rational_value()) for r in roots
            if r.is_rational() and r.rational_value().denominator == 1
        )
        entries.append(QuadraticExclusion(label, (a, b, c), disc, sf, roots, int_roots, note))
    strip = QuadraticExclusion(
        "strip g1 = 1", (1, 1, -10), 41, 41,
        _solve_quadratic(1, 1, -10), (), "from Region 2 of the g1 certificate")
    entries.append(strip)
    nonsquare = tuple(sorted({e.squarefree_part for e in entries if e.squarefree_part != 1}))
    for d in nonsquare:
        if isqrt(d) ** 2 == d:
            raise IdentityFailureError(f"discriminant {d} is a perfect square")
    return ExclusionReport(tuple(entries), nonsquare)


# ----- bounded search on the y2 branch ------------------------------------


@lru_cache(maxsize=None)
def _p3_on_y2_cleared() -> Poly:
    return compose_cleared(P3, {
        "S": (S_XZ, ONE_XZ), "m": (MSQ_XZ, _X), "x": (_X, ONE_XZ),
        "y": (Y2NUM_XZ, MSQ_XZ),
    })


def y2_curve_search(xmin: int = 3, xmax: int = 10_000,
                    zmin: int = -100, zmax: int = 100) -> list[tuple[int, int]]:
    """Integer lattice points on the y2-branch curve p3 = 0 inside the box.

    The line z = 0 (where S = m, outside the feasible ordering) belongs to
    the curve; any hit off that line would contradict the classification.
    """
    cleared = _p3_on_y2_cleared()
    hits: list[tuple[int, int]] = []
    count = xmax - xmin + 1
    for z0 in range(zmin, zmax + 1):
        coeffs = _row_coeffs(cleared, z0)
        if not coeffs:
            hits.extend((x0, z0) for x0 in range(xmin, xmax + 1))
            continue
        for i, value in enumerate(_fd_stream(coeffs, xmin, count)):
            if value == 0:
                hits.append((xmin + i, z0))
    return hits
