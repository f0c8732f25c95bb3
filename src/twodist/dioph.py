"""Exact Diophantine engine for the two-distance feasibility system.

The three quartic conditions p1, p2, p3 in (S, m, x, y) are carried as exact
polynomials.  A two-variable parametrization (x, z) rewrites the design
parameters, and each auxiliary integer-valued function has one form: g1 is
`regions.g1_in_t`, its N and D as polynomials in x and t = z(z + 1)/2, and
g2 one integer fraction N(x, z) / D(x, z) in lowest terms, a pair of
coefficient tables whose fixed-x fiber is read off by Horner's rule.  The
fixed sign checks of `twodist.regions` prove that g1 and g2 stay inside
open unit-length (or short) intervals for every integer z: g2 for all real
x >= 3 and on the fibers x = 1, 2 outside a finite window of z, g1 for real
x in [1, t - 2] and x >= t + 1, and on the strip x = t - 1 between them,
where g1 = 1 is read off the t-form; and that the y2-branch curve p3 = 0
has no point with real x >= 1 off the line z = 0.  Of the values of g1 and
g2 at single points, a command needs only g2's integral ones on that window
(`g2_integer_values`); reading either at any point is the test oracle
`aux_g` in tests/surface_oracle.py.  An exact-root solver, family (i), the
quadratic S-range exclusions, and the final classification over the family
curve complete the pipeline.

The quartics, the parametrization and family (i) are each written once, as
a function of plain ring operations: the integer and Fraction paths call it
directly, and the module-level `Poly` constants are the same function
evaluated on the polynomial generators.  g1 and g2 are derived from the
parameter formulas (`designs.block_graph_formulas`, one
numerator/denominator pair per parameter over any ring) outside this
module, by the test-side oracle tests/surface_oracle.py, which also proves
that the t-form of g1 and the g2 table are what the formulas give.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, NamedTuple

from .designs import derive_parameters, integrality_violations, lambda_parts, require_ordering
from .errors import DesignError, InternalConsistencyError
from .exactnum import QuadExt, sqrt_adjoin, squarefree_decompose
from .polynomials import (Poly, _horner, _primitive, _table_fiber, compose_cleared,
                          dense_coeffs, format_terms)
from .regions import G2_SMALL_Z, Step, g1_in_t, g1_proof, g2_proof, y2_curve_proof


# ----- the polynomial system --------------------------------------------

P_VARS = ("S", "m", "x", "y")

_S, _M, _XV, _YV = Poly.gens(P_VARS)


def _p1(S, m, x, y):
    # p1 = (S^2 - x m)^2 - 2 (S - x)(S^2 + x m) + (S - x)^2; p1 has no y term
    t = S * S - x * m
    u = S - x
    return t * t - 2 * u * (S * S + x * m) + u * u


def _p2(S, m, x, y):
    S2 = S * S
    m2 = m * m
    return (
        S2 * S2 + 2 * S2 * x * m - 4 * S2 * y * m + x * x * m2 - 4 * x * y * m2
        + 4 * y * y * m2 - 2 * S2 * S + 2 * S2 * x + 8 * S2 * m - 6 * S * x * m
        - 2 * x * x * m - 4 * S * y * m + 4 * x * y * m - 4 * S * m2 + 4 * x * m2
        + S2 - 2 * S * x + x * x
    )


def _p3(S, m, x, y):
    S2 = S * S
    return (
        S2 * x * x - S * m * x * x - 2 * S2 * x * y + 2 * S * m * x * y
        + S2 * y * y - S * m * y * y + S2 * m + 2 * S2 * x - 2 * S * m * x
        - 2 * S * x * x + m * x * x - 2 * S2 * y + 2 * S * x * y + S2
        - 2 * S * x + x * x
    )


_P_FUNCS = {"p1": _p1, "p2": _p2, "p3": _p3}
P1, P2, P3 = (f(_S, _M, _XV, _YV) for f in _P_FUNCS.values())
_P1_NORM = (_XV * _M - _S * _S - (_S - _XV)) ** 2 - 4 * _S * _S * (_S - _XV)


def eval_p(which: str, S: int, m: int, x: int, y: int) -> int:
    """Exact integer evaluation of p1, p2 or p3."""
    if which not in _P_FUNCS:
        raise ValueError(f"unknown polynomial {which!r}")
    return _P_FUNCS[which](S, m, x, y)


def p_residuals(S: int, m: int, alpha: int, beta: int) -> tuple:
    """(p1, p2, p3) at (S, m, alpha, beta); the gamma > 2 branch is feasible only when all vanish."""
    require_ordering(m, S, alpha, beta)
    return tuple(eval_p(w, S, m, alpha, beta) for w in ("p1", "p2", "p3"))


# ----- the (x, z) parametrization ---------------------------------------

XZ = ("x", "z")
_X, _Z = Poly.gens(XZ)
ONE_XZ = Poly.constant(XZ, 1)


def _xz_coords(x, z):
    """S, the root of m = root^2 / x, y1, and the numerator of y2 = y2num / root^2."""
    S = x + z * z
    root = x + z * z + z
    y2num = (
        x**3 + 2 * x**2 * z**2 + x**2 * z + x * z**4 + 2 * x * z**3
        + 3 * x * z**2 + z**5 + 2 * z**4 + z**3
    )
    return S, root, x - z, y2num


S_XZ, MROOT_XZ, Y1_XZ, Y2NUM_XZ = _xz_coords(_X, _Z)
MSQ_XZ = MROOT_XZ * MROOT_XZ                         # m = MSQ / x, y2 = Y2NUM / MSQ
_XZ_SUBS = {"S": (S_XZ, ONE_XZ), "m": (MSQ_XZ, _X), "x": (_X, ONE_XZ)}


def z_of(S: int, m: int, x: int) -> Fraction:
    """The strip coordinate z = (x (m + 1) - S (S + 1)) / (2 S)."""
    if S == 0:
        raise DesignError("z_of needs S != 0")
    return Fraction(x * (m + 1) - S * (S + 1), 2 * S)


def family_points(z: int) -> tuple[int, int, int, int]:
    """The point (S, m, x, y) of solution family (i) at z."""
    return tuple(c // 2 for c in _family_i_doubled(z))


def _family_i_doubled(z):
    """Twice (S, m, x, y) on family (i); each entry is even at integer z."""
    return z * (3 * z + 1), 9 * z * (z + 1), z * (z + 1), z * (z - 1)


_FAM_Z = ("z",)
_FAM_Z_VAR = Poly.variable("z", _FAM_Z)
_TWO_Z = Poly.constant(_FAM_Z, 2)
_FAMILY_I_DOUBLED = _family_i_doubled(_FAM_Z_VAR)
_FAMILY_I_SUBS = {name: (double, _TWO_Z) for name, double in zip(P_VARS, _FAMILY_I_DOUBLED)}
_STRIP_T = Poly.variable("t", ("t",))     # t = z(z + 1)/2 on the g1 strip x = t - 1


# ----- identity verification --------------------------------------------

LAMBDA_NUM, LAMBDA_DEN = lambda_parts(_S, _M, _XV, _YV)
# n = C(m, 2) with n = S (S - 1) / Lambda and Lambda = LAMBDA_NUM / LAMBDA_DEN
BLOCK_COUNT = 2 * LAMBDA_NUM - _S * (_S - 1) * LAMBDA_DEN


def verify_identities() -> list[Step]:
    """Check the parametrization and family identities as zero polynomials.

    Returns one `Step` per identity, in the order checked.  Any nonzero
    residue raises InternalConsistencyError: these are algebraic identities,
    so a failure can only mean a transcription bug.
    """
    y1, y2 = {**_XZ_SUBS, "y": (Y1_XZ, ONE_XZ)}, {**_XZ_SUBS, "y": (Y2NUM_XZ, MSQ_XZ)}
    on_family = (("p1", P1), ("p2", P2), ("p3", P3), ("block count n = C(m,2)", BLOCK_COUNT))
    checks = [("p1 on the y1 branch", P1, y1), ("p2 on the y1 branch", P2, y1),
              ("p2 on the y2 branch", P2, y2),
              *((f"{name} on family (i)", poly, _FAMILY_I_SUBS) for name, poly in on_family)]
    steps = []
    for name, poly, subs in checks:
        residue = compose_cleared(poly, subs)
        if not residue.is_zero():
            raise InternalConsistencyError(f"nonzero residue for {name}: {residue!r}")
        steps.append(Step(name, "cleared substitution", f"identically in {', '.join(residue.vars)}",
                          True, "zero polynomial"))
    return steps


# ----- g2 on the (x, z) surface, in lowest terms ---------------------------

# g2 as one pair of integer tables (numerator, denominator): row k holds the
# coefficients of x^k, as a polynomial in z, lowest power first.  The
# denominator is primitive, with a positive coefficient on its top power of
# x.  tests/surface_oracle.py derives the pair from the parameter formulas
# and proves it; regenerate the table there, never edit it by hand.
#
#   g2 = 4z P(x, z) / ((x + z^2 + z)^2 Q(x, z)), P and Q of degree 6 and 5 in x;
#        the derived N and D also share x^3 (x + z^2)(x + z^2 - 1)
#
# The cancelled factors vanish at no integer point with x >= 1 but (1, 0),
# where the derived D vanishes and this table gives g2 = 0.  This D vanishes
# at none: the proof gives D > 0 for x >= 3 and on x in {1, 2} outside
# G2_SMALL_Z, and tests/test_region_proof.py checks the points inside it.
_G2_TABLE = (
    (
        (0, 0, 0, 0, 0, 0, 0, 0, 96, 576, 1440, 1920, 1440, 576, 96),
        (0, 0, 0, 0, 0, 0, -44, 532, 3256, 6824, 6916, 3460, 688),
        (0, 0, 0, 0, 0, -224, 1552, 7972, 12204, 7820, 1812),
        (0, 0, 0, 0, -304, 3132, 9656, 8380, 2288),
        (0, 0, 0, 64, 3164, 4180, 1432),
        (0, 0, 236, 656, 384),
        (0, -80, 20),
    ),
    (
        (0, 0, 0, 0, 0, 0, 0, 1, 9, 33, 65, 75, 51, 19, 3),
        (0, 0, 0, 0, 0, -1, 5, 64, 206, 319, 265, 114, 20),
        (0, 0, 0, 0, -6, 19, 209, 508, 552, 285, 57),
        (0, 0, 0, -12, 60, 360, 578, 380, 90),
        (0, 0, -8, 97, 307, 285, 85),
        (0, 1, 69, 114, 48),
        (2, 19, 15),
        (2,),
    ),
)

# p3 on the y2 branch, cleared of its denominators, as a table of the same form
# (tests/test_dioph.py proves it against sympy and `compose_cleared`)
_Y2_CURVE = (
    (),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, -4, -12, -8, 8, 12, 4),
    (0, 0, 0, 0, 0, 0, 0, -4, -24, -20, 32, 48, 16),
    (0, 0, 0, 0, 0, 0, -12, -16, 48, 72, 24),
    (0, 0, 0, 0, 0, -4, 32, 48, 16),
    (0, 0, 0, 0, 8, 12, 4),
)


# ----- region certificates -------------------------------------------------------


class RegionScanReport:
    __slots__ = ("points_checked", "steps")

    def __init__(self):
        self.points_checked: dict[str, int] = {}    # the box's points per proved region
        self.steps: list[Step] = []                  # the proof of `twodist.regions`, in order

    @property
    def violations(self) -> list[Step]:
        return [s for s in self.steps if not s.passed]

    @property
    def ok(self) -> bool:
        return not self.violations


def region_scan(which: str, zmin: int = -100, zmax: int = 100,
                xmax: int = 10_000) -> RegionScanReport:
    """Prove the interval bounds of g1 or g2 for every integer z, and count a box's points.

    g1, where t = z(z+1)/2 >= 1: in (0, 1) for real x >= t + 1 (region1) and
    real x in [1, t - 2] (region3), in (0, 2) on the strip x = t - 1
    (region2); `regions.g1_proof` names the gap.  g2: in (-1, 38) for real
    x >= 3 (x_ge_3), in (31, 33) for x in {1, 2} and z outside G2_SMALL_Z
    (large_z).  `steps` lists the proof of `twodist.regions`; a failed step
    is a violation, reported and never raised.  The box only sets the
    lattice points counted per region; one with none raises DesignError.
    """
    if which not in ("g1", "g2"):
        raise ValueError(f"unknown auxiliary polynomial {which!r}")
    if zmin > zmax:
        raise DesignError(f"empty z range [{zmin}, {zmax}]")
    if xmax < 1:
        raise DesignError(f"region_scan needs xmax >= 1, got {xmax}")
    report = RegionScanReport()
    counts = report.points_checked
    for z0 in range(zmin, zmax + 1):
        t = z0 * (z0 + 1) // 2
        if which == "g1":       # x ranges; g1 = 0 at x = t and on the rows with t = 0
            ranges = {"region1": (t + 1, xmax if t else 0),
                      "region2": (max(1, t - 1), min(xmax, t - 1)), "region3": (1, min(xmax, t - 2))}
        else:
            outside = not G2_SMALL_Z[0] <= z0 <= G2_SMALL_Z[1]
            ranges = {"large_z": (1, min(2, xmax) if outside else 0), "x_ge_3": (3, xmax)}
        for region, (x_start, x_stop) in ranges.items():
            if x_stop >= x_start:
                counts[region] = counts.get(region, 0) + x_stop - x_start + 1
    if not counts:
        raise DesignError(
            f"the box z in [{zmin}, {zmax}], x <= {xmax} holds no lattice point "
            f"on which {which} is checked")
    report.steps = list(g1_proof() if which == "g1" else g2_proof(*_G2_TABLE))
    return report


def g2_integer_values() -> dict[tuple[int, int], int]:
    """Integral values of g2 for x in {1, 2} and z in G2_SMALL_Z.

    Each fiber x of `_G2_TABLE` is read off once, and g2 = N / D at each z;
    D vanishes at no point of the window (tests/test_region_proof.py).
    """
    out = {}
    for x0 in (1, 2):
        num, den = (_table_fiber(rows, x0) for rows in _G2_TABLE)
        for z0 in range(G2_SMALL_Z[0], G2_SMALL_Z[1] + 1):
            g = Fraction(_horner(num, z0), _horner(den, z0))
            if g.denominator == 1:
                out[(x0, z0)] = int(g)
    return out


def solve_strip_equation() -> Quadratic:
    """Solve g1 = 1 exactly along the strip x = t - 1, t = z(z+1)/2.

    `g1_in_t` there gives N - D = -2t(t - 5) and D = -2t(7t - 3): t = 0 is a
    common zero, so g1 = 1 only at t = 5, where D != 0, and z(z + 1)/2 = 5 is
    z^2 + z - 10 = 0.  Any other form must give N - D = t(b + a t), D(0) = 0
    and an integer t0 = -b/a with D(t0) != 0.
    """
    num, den = g1_in_t(_STRIP_T - 1, _STRIP_T)
    diff, den = dense_coeffs(num - den), dense_coeffs(den)
    if len(diff) != 3 or diff[0] or diff[1] % diff[2] or den[:1] != [0]:
        raise InternalConsistencyError(f"on the strip, N - D = {diff} and D = {den} in t: "
                                       "not one crossing of 1 off t = 0")
    t0 = -diff[1] // diff[2]
    if not _horner(den, t0):
        raise InternalConsistencyError(f"the strip crossing t = {t0} is a pole of g1")
    return solve_quadratic("strip g1 = 1", 1, 1, -2 * t0)


def _integer_roots(a: int, b: int, c: int) -> list[int]:
    """The distinct integer roots of a t^2 + b t + c with a != 0, ascending.

    A root needs a square discriminant and 2a dividing -b +- its root.
    """
    disc = b * b - 4 * a * c
    r = isqrt(max(disc, 0))
    if r * r != disc:
        return []
    return sorted({q for q, rem in (divmod(-b - r, 2 * a), divmod(-b + r, 2 * a)) if not rem})


def _integer_roots_between(f, lo: int, hi: int) -> list[int]:
    """The integer roots of a quadratic f in [lo, hi], ascending.

    f = a t^2 + b t + c is read off f(0) and f(+-1) and goes to `_integer_roots`, which
    needs a != 0; its one caller, `brute_solver`'s p2 in y, leads with 4 m^2, m >= 3.
    """
    c, f1, fm1 = f(0), f(1), f(-1)
    a, b = (f1 + fm1) // 2 - c, (f1 - fm1) // 2
    roots = _integer_roots(a, b, c)
    return [t for t in roots if lo <= t <= hi]


def _p1_m_roots(S: int, mmax: int) -> Iterator[tuple[int, int, int]]:
    """The (x, m, z), 1 <= x < S < m <= mmax, on p1 = 0: x = S - t^2, m = (S + z)^2 / x, z = +-t."""
    for t in range(1, isqrt(S - 1) + 1):
        x = S - t * t
        for z in (-t, t):
            m, r = divmod((S + z) ** 2, x)
            if not r and S < m <= mmax:
                yield x, m, z


# ----- solution certificates, brute force, classification -----------------


class SolutionCertificate(NamedTuple):
    candidate: tuple[int, int, int, int, int]  # (S, m, x, y, z)
    gates: tuple[Step, ...]
    verdict: str                               # "accepted" or "rejected: <gate>: <witness>"

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    @property
    def smxy(self) -> tuple[int, int, int, int]:
        return self.candidate[:4]


def _finish_certificate(S: int, m: int, x: int, y: int, z: int,
                        gates: list[Step]) -> SolutionCertificate:
    # z is the walk's: +-t of p1's chart in brute_solver, classify's own z; it must be `z_of`
    if 2 * S * z != x * (m + 1) - S * (S + 1):
        raise InternalConsistencyError(
            f"(S,m,x,y)=({S},{m},{x},{y}) has no z = {z}: 2 S z != x (m + 1) - S (S + 1)")
    failing = next((g for g in gates if not g.passed), None)
    verdict = "accepted" if failing is None else f"rejected: {failing.claim}: {failing.witness}"
    return SolutionCertificate((S, m, x, y, z), tuple(gates), verdict)


def _integrality_gates(S: int, m: int, x: int, y: int) -> list[Step]:
    # brute_solver and classify keep the ordering; there a p-system point has S - x = t^2,
    # m x = (S + t)^2, y = x - t, t >= 1, and Lambda's denominator -t^2 ((w - 2x)(w + x)^2
    # - x(w + 2x)) / x, w = t(t + 1), is never 0: the bracket is < 0 for w <= 2x, else > 0
    if not 0 <= y < x < S < m:
        raise InternalConsistencyError(f"(S,m,x,y)=({S},{m},{x},{y}) violates 0 <= y < x < S < m")
    try:
        params = derive_parameters(m, S, x, y)
    except DesignError as exc:
        raise InternalConsistencyError(f"(S,m,x,y)=({S},{m},{x},{y}): {exc}") from None
    violation = next(integrality_violations(params), None)
    return [Step("ordering", "exact evaluation", (S, m, x, y), True, f"0 <= {y} < {x} < {S} < {m}"),
            Step("integrality", "parameter formulas", (S, m, x, y), violation is None,
                 violation or "all parameters integral")]


def _p_system_certificate(S: int, m: int, x: int, y: int, z: int) -> SolutionCertificate:
    """The certificate of a point with p1 = p2 = p3 = 0 and strip coordinate z.

    Gates: p-system, ordering, integrality, then family (i) at z if those passed.
    The caller has checked p1 = p2 = p3 = 0 exactly: `brute_solver` on its walk,
    and the two oracles in tests/ on their own enumerations.
    """
    gates = [Step("p-system", "exact evaluation", (S, m, x, y), True, "p1 = p2 = p3 = 0"),
             *_integrality_gates(S, m, x, y)]
    if all(g.passed for g in gates):
        on = family_points(z) == (S, m, x, y)
        gates.append(Step("family-i", "the family (i) point at z", (S, m, x, y), on,
                          f"on family (i) with z = {z}" if on
                          else f"(S,m,x,y)=({S},{m},{x},{y}) is off family (i) at z={z}"))
    return _finish_certificate(S, m, x, y, z, gates)


def brute_solver(smax: int, mmax: int) -> list[SolutionCertificate]:
    """All integer solutions of p1 = p2 = p3 = 0 in the box, found as exact roots.

    The box is 0 <= y < x < S <= smax, S < m <= mmax.  It is complete: p1 is the
    norm (x m - S^2 - u)^2 - 4 S^2 u in u = S - x >= 1, so p1 = 0 makes u a square
    t^2 and x m = (S + z)^2 with z = +-t (`_p1_m_roots`), and p2 is quadratic in y with
    leading coefficient 4 m^2, so each (S, m, x) gives its y as one quadratic's integer
    roots.  The work is O(smax^(3/2)) pairs (S, t), not O(smax^2 mmax) values of a scan.
    Every survivor is rechecked on p1, p2 and p3 exactly and gated by
    `_p_system_certificate`: every derived parameter must be integral and the survivor
    on family (i) at its z.  Output is lexicographic in (S, m, x, y); a box with no
    pair 2 <= S < m raises DesignError.
    """
    if smax < 2 or mmax < 2:
        raise DesignError("brute_solver needs bounds >= 2")
    if mmax < 3:
        raise DesignError(f"the box S <= {smax}, m <= {mmax} holds no pair 2 <= S < m")
    if P1 != _P1_NORM or P2.degree("y") > 2:
        raise InternalConsistencyError("p1 is not its norm form or p2 has degree > 2 in y")
    points = sorted(
        (S, m, x, y, z) for S in range(2, smax + 1) for x, m, z in _p1_m_roots(S, mmax)
        for y in _integer_roots_between(lambda t: _p2(S, m, x, t), 0, x - 1)
        if not (_p1(S, m, x, y) or _p2(S, m, x, y) or _p3(S, m, x, y)))
    return [_p_system_certificate(*point) for point in points]


TIGHT_DESIGN = (23, 7, 1)  # the unique tight 4-design parameters, used as a filter
FAMILY_NOTES = (
    "family (ii) S = m = x = y gives S = alpha, violating alpha < S",
    "family (iii) m = S - 1 violates S < m",
)


def classify(zmax: int) -> list[SolutionCertificate]:
    """Walk family (i) for z = 1..zmax and apply the acceptance gates.

    Order of gates: ordering feasibility, parameter integrality, then (for
    4 <= S <= m - 4, where the block count equals C(m,2)) the tight-design
    filter, which admits only the 4-(23,7,1) parameters.  z = 1 is accepted
    through the S = 2 quadratic branch and is expected to be the only
    acceptance: the two-distance embedding on 45 points.  Returns one
    certificate per z; `FAMILY_NOTES` says why families (ii) and (iii) give none.
    """
    if zmax < 1:
        raise DesignError("classify needs zmax >= 1")
    certificates: list[SolutionCertificate] = []
    for z in range(1, zmax + 1):
        S, m, x, y = family_points(z)
        gates = _integrality_gates(S, m, x, y)
        if all(g.passed for g in gates):
            if S < 4:
                root_of = format_quadratic(_family_i_quadratic("S", S))
                gates.append(Step("small-S branch", "integer root of the S-quadratic", (S, m, x, y),
                                  True, f"S = {S} <= 3: z = {z} is the integer root of {root_of}"))
            else:
                if not (4 <= S <= m - 4):
                    raise InternalConsistencyError(
                        f"family (i) point at z={z} leaves the tight-filter range")
                n = m * (m - 1) // 2
                ok = (m, S) == TIGHT_DESIGN[:2]
                witness = (f"n = C({m},2) = {n} forces the tight 4-{TIGHT_DESIGN} design; "
                           + ("matched" if ok else f"(S, m) = ({S}, {m}) != (7, 23)"))
                gates.append(Step("tight-design", "cited: the uniqueness of 4-(23,7,1)",
                                  (S, m, x, y), ok, witness))
        certificates.append(_finish_certificate(S, m, x, y, z, gates))
    return certificates


# ----- quadratics in z ----------------------------------------------------


class Quadratic(NamedTuple):
    """a z^2 + b z + c = 0 with its exact roots, each checked by substitution."""

    label: str
    quadratic: tuple[int, int, int]          # (a, b, c)
    discriminant: int                        # b^2 - 4ac
    squarefree_part: int
    roots: tuple[QuadExt, QuadExt]           # (-b + sqrt(disc)) / 2a, then (-b - sqrt(disc)) / 2a
    integer_roots: tuple[int, ...]           # distinct, ascending


def solve_quadratic(label: str, a: int, b: int, c: int) -> Quadratic:
    """Solve a z^2 + b z + c = 0 exactly; a != 0 and the roots must be real.

    A root that fails substitution raises InternalConsistencyError.
    """
    disc = b * b - 4 * a * c
    sq, inv = sqrt_adjoin(disc), Fraction(1, 2 * a)
    roots = ((QuadExt(-b) + sq) * inv, (QuadExt(-b) - sq) * inv)
    for r in roots:
        if not _horner((c, b, a), r).is_zero():
            raise InternalConsistencyError(f"root {r} of {label} fails substitution")
    return Quadratic(label, (a, b, c), disc, squarefree_decompose(disc)[1], roots,
                     tuple(_integer_roots(a, b, c)))


class ExclusionReport(NamedTuple):
    entries: tuple[Quadratic, ...]
    nonsquare_discriminants: tuple[int, ...]


def format_quadratic(q: tuple[int, int, int]) -> str:
    """a z^2 + b z + c as text, unit coefficients dropped: "3z^2 + z - 4"."""
    return format_terms(*zip(q, ("z^2", "z", "")))


def _family_i_quadratic(side: str, value: int) -> tuple[int, ...]:
    """(a, b, c): the primitive quadratic in z setting S or m - S to value on family (i)."""
    S2, m2 = _FAMILY_I_DOUBLED[:2]
    doubled = (S2 if side == "S" else m2 - S2) - 2 * value
    return tuple(_primitive(dense_coeffs(doubled))[::-1])


def quadratic_exclusions() -> ExclusionReport:
    """Reproduce the S-range checks of the classification as exact quadratics.

    On family (i), fixing S or m - S to a small value c forces a quadratic in
    z, the primitive part of 2S - 2c or 2(m - S) - 2c on `_family_i_doubled`;
    every branch except S = 2 has an irrational root pair (non-square
    discriminant), and S = 2 gives exactly z in {1, -4/3}.  The strip
    quadratic of `solve_strip_equation` joins the list.
    """
    entries = (
        solve_quadratic("S = 2", *_family_i_quadratic("S", 2)),
        solve_quadratic("S = 3", *_family_i_quadratic("S", 3)),
        # its integer root z = 2 is excluded by the tight-design filter (m = 27 != 23)
        solve_quadratic("S = 7 (tight range)", *_family_i_quadratic("S", 7)),
        *(solve_quadratic(f"S = m - {c}", *_family_i_quadratic("m - S", c)) for c in (3, 2, 1)),
        solve_strip_equation(),
    )
    nonsquare = tuple(sorted({e.squarefree_part for e in entries if e.squarefree_part != 1}))
    for d in nonsquare:
        if isqrt(d) ** 2 == d:
            raise InternalConsistencyError(f"discriminant {d} is a perfect square")
    return ExclusionReport(entries, nonsquare)


# ----- lattice points of the y2 branch ------------------------------------


def y2_curve_search(xmin: int = 3, xmax: int = 10_000,
                    zmin: int = -100, zmax: int = 100) -> list[tuple[int, int]]:
    """Integer lattice points on the y2-branch curve p3 = 0 inside the box, which needs xmin >= 1.

    By `y2_curve_proof` the curve holds the line z = 0 (where S = m, outside
    the feasible ordering) and no other point with real x >= 1.  A failed
    step raises InternalConsistencyError, a box empty or below x = 1 DesignError.
    """
    if xmin > xmax or zmin > zmax or xmin < 1:
        raise DesignError(f"search box x in [{xmin}, {xmax}], z in [{zmin}, {zmax}] "
                          "is empty or reaches below x = 1")
    for step in y2_curve_proof(_Y2_CURVE):
        if not step.passed:
            raise InternalConsistencyError(f"{step.claim}: {step.witness}")
    return [(x0, 0) for x0 in range(xmin, xmax + 1)] if zmin <= 0 <= zmax else []
