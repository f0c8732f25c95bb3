"""Embedding geometry of quasi-symmetric designs.

The explicit 45-point two-distance configuration, the closed-form radius and
distance spectrum of the simplex-frame embedding, conversion of projector
Gram classes to distance spectra at a free second radius, and the
two-distance classifier with its case letters.

Two frames appear throughout: the "projector frame" (Gram entries of E,
where points of V are at mutual distance 1) and the "simplex frame" (V
rescaled by sqrt(2), so d(V,V) = sqrt(2)).  Conversions are explicit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

from .designs import require_ordering
from .errors import DegeneracyError, DesignError, InternalConsistencyError
from .exactnum import QuadExt, sqrt_adjoin


def f_ratio(t) -> Fraction:
    """The ubiquitous ratio f(t) = (t - 1)/t, defined for t != 0."""
    t = Fraction(t)
    if t == 0:
        raise DesignError("f(0) is undefined")
    return (t - 1) / t


# ----- the 45-point configuration ----------------------------------------


class PointConfiguration(namedtuple("PointConfiguration", "simplex_points block_points blocks")):
    """Exact rational coordinates: a simplex part and a block part.

    `simplex_points` holds 9 points, one per design point; `block_points`
    36, one per block, and `blocks` the 2-subsets, aligned with them.
    """

    __slots__ = ()

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
    """|p|^2 for int or Fraction coordinates, summed over integers."""
    (q,), scale = _integer_points([p])
    return Fraction(sum(map(mul, q, q)), scale * scale)


def centroid(points: Sequence) -> tuple:
    count = len(points)
    dim = len(points[0])
    return tuple(
        sum(Fraction(p[i]) for p in points) / count for i in range(dim)
    )


def _integer_points(points: Sequence) -> tuple:
    """Int or Fraction points times the lcm of their coordinates' denominators, and that lcm."""
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return [[c.numerator * (scale // c.denominator) for c in p] for p in points], scale


def configuration_distance_classes(config: PointConfiguration) -> dict:
    """Squared distances per pair class, each asserted to be a single value.

    Distances are taken between integer coordinates, scaled by the common
    denominator of all coordinates, as |p|^2 + |q|^2 - 2 p.q, and divided
    by the scale's square once per class.
    """
    points, scale = _integer_points(config.all_points)
    normed = [(p, sum(map(mul, p, p))) for p in points]

    def dist_sq(a, b) -> int:
        (p, p_sq), (q, q_sq) = a, b
        return p_sq + q_sq - 2 * sum(map(mul, p, q))

    nv = len(config.simplex_points)
    simplex, blocks = normed[:nv], list(zip(normed[nv:], map(set, config.blocks)))
    out: dict[str, set] = {
        "V_V": {dist_sq(p, q) for p, q in combinations(simplex, 2)},
        "B_B_alpha": set(), "B_B_beta": set(), "V_B_in": set(), "V_B_out": set(),
    }
    for (p, a), (q, b) in combinations(blocks, 2):
        out["B_B_alpha" if len(a & b) == 1 else "B_B_beta"].add(dist_sq(p, q))
    for v, p in enumerate(simplex):
        for q, b in blocks:
            out["V_B_in" if v in b else "V_B_out"].add(dist_sq(p, q))
    for key, values in out.items():
        if len(values) != 1:
            raise InternalConsistencyError(f"pair class {key} is not a single distance")
    return {key: QuadExt(Fraction(value, scale * scale)) for key, (value,) in out.items()}


# ----- distance spectra ----------------------------------------------------


class DistanceSpectrum(namedtuple("DistanceSpectrum", "r1 r2 d_sq classes")):
    """Exact squared distances of an embedding, by index and by pair class.

    d_sq holds (d1^2, ..., d5^2) with d2 < d3 the block-block distances and
    d4 < d5 the point-block distances.  Only squared values are held: they
    are always exact, and comparing them decides everything the
    classification asks of the distances.
    """

    __slots__ = ()

    def distinct_squared(self) -> tuple:
        seen: list[QuadExt] = []
        for v in self.d_sq:
            if all(v != w for w in seen):
                seen.append(v)
        return tuple(seen)

    def as_strings(self) -> dict:
        data = {f"d{i}^2": str(v) for i, v in enumerate(self.d_sq, start=1)}
        data.update({"R1": str(self.r1), "R2": str(self.r2)})
        data.update({f"class {k}": str(v) for k, v in self.classes.items()})
        return data


# the sign of each branch's second root and of its block orientation
BRANCH_SIGN = {"gt2": 1, "lt2": -1}


def theoretical_spectrum(S: int, m: int, alpha: int, beta: int,
                         branch: str = "gt2") -> DistanceSpectrum:
    """Closed-form spectrum of the embedding at the branch's canonical radius.

    R2 is the positive root that pins the free point-block distance at
    sqrt(2): R2 = sqrt(2 - f(m-S)) +- sqrt(f(m) - f(m-S)) for the branch
    gamma > 2 (+) or gamma < 2 (-).  All values are exact; radicals never
    nest because products of paired square roots are expanded first.
    """
    require_ordering(m, S, alpha, beta)
    if branch not in BRANCH_SIGN:
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
    e = BRANCH_SIGN[branch]
    r2 = sq_a + e * sq_b
    r2_sq = QuadExt(a_val + b_val) + 2 * e * sq_ab
    matched = QuadExt(a_val - b_val + fm)           # R2^2 - 2e R2 sqrt(B) + f(m)
    crossed = QuadExt(a_val + b_val + fm) + 2 * e * (sq_ab + sq_ac) + 2 * sq_bc
    if matched != QuadExt(2):
        raise InternalConsistencyError("the branch radius must pin d^2 = 2")
    d4_sq, d5_sq = (matched, crossed) if e == 1 else (crossed, matched)
    d2_sq = r2_sq * c_alpha
    d3_sq = r2_sq * c_beta
    classes = {
        "V_V": QuadExt(2), "B_B_alpha": d2_sq, "B_B_beta": d3_sq,
        "V_B_in": crossed, "V_B_out": matched,
    }
    return DistanceSpectrum(r1, r2, (QuadExt(2), d2_sq, d3_sq, d4_sq, d5_sq), classes)


def native_gram_distances(e: dict) -> dict:
    """Projector-frame squared distances straight off the Gram classes."""
    return {
        "V_V": 2 * (e["V_diag"] - e["V_off"]),
        "B_B_alpha": 2 * (e["B_diag"] - e["B_alpha"]),
        "B_B_beta": 2 * (e["B_diag"] - e["B_beta"]),
        "V_B_in": e["V_diag"] + e["B_diag"] - 2 * e["VB_in"],
        "V_B_out": e["V_diag"] + e["B_diag"] - 2 * e["VB_out"],
    }


def native_block_radius(gram: dict) -> QuadExt:
    return sqrt_adjoin(gram["B_diag"].rational_value())


def spectrum_from_gram(e: dict, r2: QuadExt, branch: str = "gt2") -> DistanceSpectrum:
    """Simplex-frame spectrum of the projector embedding at a free radius R2.

    V is scaled by sqrt(2) so d(V,V) = sqrt(2) exactly; block points keep
    their directions and are rescaled from the native radius sqrt(E_bb) to
    R2.  The gamma < 2 branch ("lt2") places the block points antipodally
    (same spheres, point-block cross terms flipped).  For every R2 the
    point-block and block-block distances take at most two values each, one
    per Gram class.
    """
    orientation = BRANCH_SIGN[branch]
    r2 = QuadExt(r2)
    if r2.sign() <= 0:
        raise DesignError("the block-sphere radius R2 must be positive")
    e_vv = e["V_diag"].rational_value()
    e_bb = e["B_diag"].rational_value()
    if e_bb <= 0:
        raise InternalConsistencyError("block diagonal Gram entry must be positive")
    native = native_gram_distances(e)
    if native["V_V"] != QuadExt(1):
        raise InternalConsistencyError("projector-frame simplex edge must be 1")
    r2_sq = r2 * r2
    d2_sq = r2_sq * (native["B_B_alpha"].rational_value() / e_bb)
    d3_sq = r2_sq * (native["B_B_beta"].rational_value() / e_bb)
    scale = sqrt_adjoin(Fraction(2) / e_bb)
    in_sq = 2 * e_vv + r2_sq - 2 * orientation * (r2 * e["VB_in"] * scale)
    out_sq = 2 * e_vv + r2_sq - 2 * orientation * (r2 * e["VB_out"] * scale)
    d4_sq, d5_sq = (out_sq, in_sq) if (in_sq - out_sq).sign() >= 0 else (in_sq, out_sq)
    classes = {
        "V_V": QuadExt(2), "B_B_alpha": d2_sq, "B_B_beta": d3_sq,
        "V_B_in": in_sq, "V_B_out": out_sq,
    }
    r1 = sqrt_adjoin(2 * e_vv)
    return DistanceSpectrum(r1, r2, (QuadExt(2), d2_sq, d3_sq, d4_sq, d5_sq), classes)


# ----- two-distance classification ----------------------------------------


# the feasible case letter of each branch and that of the same point set seen
# from the complement design: gamma > 2 puts V on the smaller sphere with the
# in-block distance the far one, gamma < 2 the reverse
CASE_LETTERS = {"gt2": ("A", "B"), "lt2": ("G", "H")}


class TwoDistanceResult(namedtuple("TwoDistanceResult", "gamma_sq letter complement_letter")):
    """gamma^2 and the case letters of a two-distance spectrum; all None when it is not one."""

    __slots__ = ()

    @property
    def is_two_distance(self) -> bool:
        return self.letter is not None


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
        return TwoDistanceResult(None, None, None)
    gamma_sq = values[0] if values[1] == two else values[1]
    branch = "gt2" if (gamma_sq - 2).sign() > 0 else "lt2"
    # compare the (positive) radii through their squares, which always stay
    # inside one quadratic extension even when the radii themselves do not
    radius_gap = (spec.r2 * spec.r2 - spec.r1 * spec.r1).sign()
    if branch == "gt2" and radius_gap <= 0:
        raise InternalConsistencyError(
            "gamma > 2 embedding with R2 <= R1 would realize the impossible case (D)")
    if branch == "lt2" and radius_gap >= 0:
        raise InternalConsistencyError(
            "gamma < 2 embedding with R2 >= R1 would realize the impossible case (F)")
    return TwoDistanceResult(gamma_sq, *CASE_LETTERS[branch])
