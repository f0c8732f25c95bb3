"""Embedding geometry of quasi-symmetric designs.

The explicit 45-point two-distance configuration, the closed-form radius and
distance spectrum of the simplex-frame embedding, conversion of projector
Gram classes to distance spectra at a free second radius, the two-distance
classifier with its case letters, and the exact polynomial residuals that a
two-distance embedding must satisfy.

Two frames appear throughout: the "projector frame" (Gram entries of E,
where points of V are at mutual distance 1) and the "simplex frame" (V
rescaled by sqrt(2), so d(V,V) = sqrt(2)).  Conversions are explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .coherent import GramTable, InternalConsistencyError
from .designs import DesignError
from .dioph import eval_p
from .exactnum import QuadExt, quadext_sqrt, sqrt_adjoin


class DegeneracyError(ValueError):
    """The candidate second distance collapses onto sqrt(2)."""


def f_ratio(t) -> Fraction:
    """The ubiquitous ratio f(t) = (t - 1)/t, defined for t != 0."""
    t = Fraction(t)
    if t == 0:
        raise DesignError("f(0) is undefined")
    return (t - 1) / t


# ----- the 45-point configuration ----------------------------------------


@dataclass(frozen=True)
class PointConfiguration:
    """Exact rational coordinates: a simplex part and a block part."""

    simplex_points: tuple            # 9 points, one per design point
    block_points: tuple              # 36 points, one per block (2-subset)
    blocks: tuple                    # the 2-subsets, aligned with block_points

    @property
    def all_points(self) -> tuple:
        return self.simplex_points + self.block_points


def lisonek_coordinates() -> PointConfiguration:
    """The 45-point maximum two-distance set in the hyperplane sum = 2 of R^9.

    Simplex part: -e_i + (1/3) * sum(e_k); block part: e_i + e_j for i < j.
    Pairwise distances are exactly sqrt(2) and 2; the points lie on
    origin-centered spheres of radius 2/sqrt(3) and sqrt(2).
    """
    third = Fraction(1, 3)
    simplex = tuple(
        tuple(third - 1 if k == i else third for k in range(9)) for i in range(9)
    )
    blocks = tuple(combinations(range(9), 2))
    block_pts = tuple(
        tuple(1 if k in pair else 0 for k in range(9)) for pair in blocks
    )
    return PointConfiguration(simplex, block_pts, blocks)


def squared_distance(p: Sequence, q: Sequence) -> Fraction:
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q))


def origin_norm_sq(p: Sequence) -> Fraction:
    return sum(Fraction(a) ** 2 for a in p)


def centroid(points: Sequence) -> tuple:
    count = len(points)
    dim = len(points[0])
    return tuple(
        sum(Fraction(p[i]) for p in points) / count for i in range(dim)
    )


def configuration_distance_classes(config: PointConfiguration) -> dict:
    """Squared distances per pair class, each asserted to be a single value.

    Distances are taken between integer coordinates, scaled by the common
    denominator of all coordinates, and divided by its square once per class.
    """
    scale = math.lcm(*(Fraction(c).denominator for p in config.all_points for c in p))

    def scaled(points) -> list:
        return [[int(Fraction(c) * scale) for c in p] for p in points]

    def dist_sq(p, q) -> int:
        return sum((a - b) * (a - b) for a, b in zip(p, q))

    out: dict[str, set] = {
        "V_V": set(), "B_B_alpha": set(), "B_B_beta": set(),
        "V_B_in": set(), "V_B_out": set(),
    }
    simplex = scaled(config.simplex_points)
    pts = scaled(config.block_points)
    blocks = [set(b) for b in config.blocks]
    for i, j in combinations(range(len(simplex)), 2):
        out["V_V"].add(dist_sq(simplex[i], simplex[j]))
    for i, j in combinations(range(len(pts)), 2):
        key = "B_B_alpha" if len(blocks[i] & blocks[j]) == 1 else "B_B_beta"
        out[key].add(dist_sq(pts[i], pts[j]))
    for v in range(len(simplex)):
        for b in range(len(pts)):
            key = "V_B_in" if v in blocks[b] else "V_B_out"
            out[key].add(dist_sq(simplex[v], pts[b]))
    classes = {}
    for key, values in out.items():
        if len(values) != 1:
            raise InternalConsistencyError(f"pair class {key} is not a single distance")
        classes[key] = QuadExt(Fraction(values.pop(), scale * scale))
    return classes


# ----- distance spectra ----------------------------------------------------


CLASS_KEYS = ("V_V", "B_B_alpha", "B_B_beta", "V_B_in", "V_B_out")


@dataclass(frozen=True)
class DistanceSpectrum:
    """Exact squared distances of an embedding, by index and by pair class.

    d_sq holds (d1^2, ..., d5^2) with d2 < d3 the block-block distances and
    d4 < d5 the point-block distances.  Distances themselves are exposed when
    they exist in a quadratic extension (they always do on the two-distance
    locus); squared values are the primary, always-exact representation.
    """

    r1: QuadExt
    r2: QuadExt
    d_sq: tuple
    classes: dict
    branch: Optional[str] = None      # "gt2" or "lt2" for theoretical spectra
    iota: Optional[int] = None        # 1: V on the smaller sphere, far = in-block

    def distinct_squared(self) -> tuple:
        seen: list[QuadExt] = []
        for v in self.d_sq:
            if all(v != w for w in seen):
                seen.append(v)
        return tuple(seen)

    def distance(self, index: int) -> Optional[QuadExt]:
        """d_index as an exact QuadExt, or None when it has degree > 4."""
        return quadext_sqrt(self.d_sq[index - 1])

    def as_strings(self) -> dict:
        data = {f"d{i}^2": str(v) for i, v in enumerate(self.d_sq, start=1)}
        data.update({"R1": str(self.r1), "R2": str(self.r2)})
        data.update({f"class {k}": str(v) for k, v in self.classes.items()})
        return data


def theoretical_spectrum(S: int, m: int, alpha: int, beta: int,
                         branch: str = "gt2") -> DistanceSpectrum:
    """Closed-form spectrum of the embedding at the branch's canonical radius.

    R2 is the positive root that pins the free point-block distance at
    sqrt(2): R2 = sqrt(2 - f(m-S)) +- sqrt(f(m) - f(m-S)) for the branch
    gamma > 2 (+) or gamma < 2 (-).  All values are exact; radicals never
    nest because products of paired square roots are expanded first.
    """
    if not (0 <= beta < alpha < S < m):
        raise DesignError(
            f"need 0 <= beta < alpha < S < m, got ({S}, {m}, {alpha}, {beta})")
    if branch not in ("gt2", "lt2"):
        raise ValueError(f"branch must be 'gt2' or 'lt2', got {branch!r}")
    fm = f_ratio(m)
    a_val = 2 - f_ratio(m - S)
    b_val = fm - f_ratio(m - S)
    c_val = fm - f_ratio(S)
    sq_a, sq_b = sqrt_adjoin(a_val), sqrt_adjoin(b_val)
    sq_ab = sqrt_adjoin(a_val * b_val)
    sq_ac = sqrt_adjoin(a_val * c_val)
    sq_bc = sqrt_adjoin(b_val * c_val)
    r1 = sqrt_adjoin(fm)
    c_alpha = Fraction(2 * (S - alpha) * m, (m - S) * S)
    c_beta = Fraction(2 * (S - beta) * m, (m - S) * S)
    if branch == "gt2":
        r2 = sq_a + sq_b
        r2_sq = QuadExt(a_val + b_val) + 2 * sq_ab
        matched = QuadExt(a_val - b_val + fm)           # R2^2 - 2 R2 sqrt(B) + f(m)
        crossed = QuadExt(a_val + b_val + fm) + 2 * (sq_ab + sq_ac + sq_bc)
        d4_sq, d5_sq = matched, crossed
        in_sq, out_sq = d5_sq, d4_sq
        iota = 1
    else:
        r2 = sq_a - sq_b
        r2_sq = QuadExt(a_val + b_val) - 2 * sq_ab
        matched = QuadExt(a_val - b_val + fm)           # R2^2 + 2 R2 sqrt(B) + f(m)
        crossed = QuadExt(a_val + b_val + fm) - 2 * (sq_ab + sq_ac - sq_bc)
        d4_sq, d5_sq = crossed, matched
        in_sq, out_sq = d4_sq, d5_sq
        iota = 3
    if matched != QuadExt(2):
        raise InternalConsistencyError("the branch radius must pin d^2 = 2")
    d2_sq = r2_sq * c_alpha
    d3_sq = r2_sq * c_beta
    classes = {
        "V_V": QuadExt(2), "B_B_alpha": d2_sq, "B_B_beta": d3_sq,
        "V_B_in": in_sq, "V_B_out": out_sq,
    }
    return DistanceSpectrum(r1, r2, (QuadExt(2), d2_sq, d3_sq, d4_sq, d5_sq),
                            classes, branch, iota)


def native_gram_distances(gram: GramTable) -> dict:
    """Projector-frame squared distances straight off the Gram classes."""
    e = gram.classes
    vv = 2 * (e["V_diag"] - e["V_off"])
    return {
        "V_V": vv,
        "B_B_alpha": 2 * (e["B_diag"] - e["B_alpha"]),
        "B_B_beta": 2 * (e["B_diag"] - e["B_beta"]),
        "V_B_in": e["V_diag"] + e["B_diag"] - 2 * e["VB_in"],
        "V_B_out": e["V_diag"] + e["B_diag"] - 2 * e["VB_out"],
    }


def native_block_radius(gram: GramTable) -> QuadExt:
    return sqrt_adjoin(gram.classes["B_diag"].rational_value())


def spectrum_from_gram(gram: GramTable, r2: QuadExt,
                       orientation: int = 1) -> DistanceSpectrum:
    """Simplex-frame spectrum of the projector embedding at a free radius R2.

    V is scaled by sqrt(2) so d(V,V) = sqrt(2) exactly; block points keep
    their directions and are rescaled from the native radius sqrt(E_bb) to
    R2.  orientation = -1 places the block points antipodally (same spheres,
    point-block cross terms flipped), which is the geometry of the gamma < 2
    branch.  For every R2 the point-block and block-block distances take at
    most two values each, one per Gram class.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    r2 = QuadExt(r2)
    if r2.sign() <= 0:
        raise DesignError("the block-sphere radius R2 must be positive")
    e = gram.classes
    e_vv = e["V_diag"].rational_value()
    e_bb = e["B_diag"].rational_value()
    if e_bb <= 0:
        raise InternalConsistencyError("block diagonal Gram entry must be positive")
    native_vv = 2 * (e["V_diag"] - e["V_off"])
    if native_vv != QuadExt(1):
        raise InternalConsistencyError("projector-frame simplex edge must be 1")
    r2_sq = r2 * r2
    d2_sq = r2_sq * (2 - 2 * e["B_alpha"].rational_value() / e_bb)
    d3_sq = r2_sq * (2 - 2 * e["B_beta"].rational_value() / e_bb)
    scale = sqrt_adjoin(Fraction(2) / e_bb)
    in_sq = 2 * e_vv + r2_sq - 2 * orientation * (r2 * e["VB_in"] * scale)
    out_sq = 2 * e_vv + r2_sq - 2 * orientation * (r2 * e["VB_out"] * scale)
    if (in_sq - out_sq).sign() >= 0:
        d4_sq, d5_sq, iota = out_sq, in_sq, 1
    else:
        d4_sq, d5_sq, iota = in_sq, out_sq, 3
    classes = {
        "V_V": QuadExt(2), "B_B_alpha": d2_sq, "B_B_beta": d3_sq,
        "V_B_in": in_sq, "V_B_out": out_sq,
    }
    r1 = sqrt_adjoin(2 * e_vv)
    return DistanceSpectrum(r1, r2, (QuadExt(2), d2_sq, d3_sq, d4_sq, d5_sq),
                            classes, None, iota)


# ----- two-distance classification ----------------------------------------


CASE_TABLE = {("gt2", 1): "A", ("gt2", 2): "B", ("gt2", 3): "C", ("gt2", 4): "D",
              ("lt2", 1): "E", ("lt2", 2): "F", ("lt2", 3): "G", ("lt2", 4): "H"}
COMPLEMENT_TWIN = {1: 2, 2: 1, 3: 4, 4: 3}


@dataclass(frozen=True)
class CaseLabel:
    iota: int
    branch: str
    letter: str
    complement_letter: str


@dataclass(frozen=True)
class TwoDistanceResult:
    is_two_distance: bool
    gamma_sq: Optional[QuadExt]
    case: Optional[CaseLabel]

    def gamma(self) -> Optional[QuadExt]:
        return None if self.gamma_sq is None else quadext_sqrt(self.gamma_sq)


def two_distance_classify(spec: DistanceSpectrum) -> TwoDistanceResult:
    """Decide whether a spectrum is {sqrt(2), sqrt(gamma)} and label its case.

    gamma = 2 is a degeneracy (the two distances collapse) and raises.  The
    feasible letters are (A) for gamma > 2 and (G) for gamma < 2; the same
    point set seen from the complement design realizes (B), resp. (H).  The
    sphere-order inequalities that exclude the remaining letters are checked
    exactly.
    """
    values = spec.distinct_squared()
    two = QuadExt(2)
    if len(values) == 1 and values[0] == two:
        raise DegeneracyError("gamma = 2: the two distances coincide")
    if len(values) != 2 or all(v != two for v in values):
        return TwoDistanceResult(False, None, None)
    gamma_sq = values[0] if values[1] == two else values[1]
    branch = "gt2" if (gamma_sq - 2).sign() > 0 else "lt2"
    # compare the (positive) radii through their squares, which always stay
    # inside one quadratic extension even when the radii themselves do not
    radius_gap = (spec.r2 * spec.r2 - spec.r1 * spec.r1).sign()
    if branch == "gt2":
        if radius_gap <= 0:
            raise InternalConsistencyError(
                "gamma > 2 embedding with R2 <= R1 would realize the impossible case (D)")
        iota = 1
    else:
        if radius_gap >= 0:
            raise InternalConsistencyError(
                "gamma < 2 embedding with R2 >= R1 would realize the impossible case (F)")
        iota = 3
    label = CaseLabel(iota, branch, CASE_TABLE[(branch, iota)],
                      CASE_TABLE[(branch, COMPLEMENT_TWIN[iota])])
    return TwoDistanceResult(True, gamma_sq, label)


# ----- polynomial residuals -------------------------------------------------


@dataclass(frozen=True)
class PResiduals:
    """Values of (p1, p2, p3) on both branch substitutions.

    The gamma > 2 branch evaluates at (S, m, alpha, beta); the gamma < 2
    branch swaps the intersection numbers.  A branch is feasible only when
    its triple vanishes.
    """

    gt2: tuple
    lt2: tuple

    @property
    def feasible_branches(self) -> tuple:
        out = []
        if self.gt2 == (0, 0, 0):
            out.append("gt2")
        if self.lt2 == (0, 0, 0):
            out.append("lt2")
        return tuple(out)


def p_residuals(S: int, m: int, alpha: int, beta: int) -> PResiduals:
    if not (0 <= beta < alpha < S < m):
        raise DesignError(
            f"need 0 <= beta < alpha < S < m, got ({S}, {m}, {alpha}, {beta})")
    gt2 = tuple(eval_p(w, S, m, alpha, beta) for w in ("p1", "p2", "p3"))
    lt2 = tuple(eval_p(w, S, m, beta, alpha) for w in ("p1", "p2", "p3"))
    return PResiduals(gt2, lt2)


def geometric_residuals(S: int, m: int, alpha: int, beta: int) -> tuple:
    """The three two-distance conditions computed geometrically (gamma > 2).

    Imposes d2^2 = 2 to fix R2, then returns (d4^2 - 2, d5^2 - d3^2,
    2 (S - beta) - d3^2 (S - alpha)) as exact values; all three vanish
    exactly when the closed-form embedding is a two-distance set.
    """
    fm = f_ratio(m)
    b_val = fm - f_ratio(m - S)
    c_val = fm - f_ratio(S)
    r2_sq = Fraction((m - S) * S, (S - alpha) * m)
    r2 = sqrt_adjoin(r2_sq)
    d4_sq = QuadExt(r2_sq + fm) - 2 * (r2 * sqrt_adjoin(b_val))
    d5_sq = QuadExt(r2_sq + fm) + 2 * (r2 * sqrt_adjoin(c_val))
    d3_sq = QuadExt(r2_sq * Fraction(2 * (S - beta) * m, (m - S) * S))
    res1 = d4_sq - 2
    res2 = d5_sq - d3_sq
    res3 = QuadExt(2 * (S - beta)) - d3_sq * (S - alpha)
    return (res1, res2, res3)


# ----- side conditions -------------------------------------------------------


@dataclass(frozen=True)
class RemarkChecks:
    """Exact comparison that keeps a block point off the outer centroid."""

    S: int
    m: int
    d2_out_sq: Fraction        # f(m - S), block point to the outer centroid
    d3_out_sq: Fraction        # (m - S + 1)/(m - S), vertex to the outer centroid
    gap: Fraction              # d3^2 - d2^2 = 2/(m - S)

    @property
    def ok(self) -> bool:
        return self.d3_out_sq > 1 and self.gap > 0


def remark_checks(S: int, m: int) -> RemarkChecks:
    if not (1 <= S < m):
        raise DesignError(f"need 1 <= S < m, got S={S}, m={m}")
    d2 = f_ratio(m - S)
    d3 = Fraction(m - S + 1, m - S)
    gap = d3 - d2
    checks = RemarkChecks(S, m, d2, d3, gap)
    if not checks.ok or gap != Fraction(2, m - S):
        raise InternalConsistencyError("outer-centroid comparison failed")
    return checks
