"""Coherent configurations of a quasi-symmetric design.

The configuration on the ordered set V + B (points first, then blocks):
each ordered pair lies in one of nine relations R_i, read off the
design's incidence packed once each way (`relation_row`).  Its
intersection numbers p_ij^k are constant because a quasi-symmetric
2-design gives a coherent configuration of type (2,2;3): D. G. Higman's
theorem on coherent configurations, with the block graph strongly regular
by Goethals and Seidel (1970).  That theorem's premises are checked where
the input is read, and a design that breaks one is refused with
DesignError: equal block sizes by `IncidenceDesign`; every point in a
block, exactly two intersection values, the block count equal to the
derived n and every point pair in the same number of blocks by
`from_design`.  So a `CoherentConfig` exists only for a quasi-symmetric
2-design, and `verify_axioms` only counts each p_ij^k at one pair of R_k.
The exhaustive check of every pair is the test oracle `fiber_block_axioms`
in tests/oracles.py.  Then the matrix-unit basis of the second irreducible
block of the adjacency algebra, and the symmetric idempotent projector E
whose entries form the exact Gram table of the Euclidean embedding.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import designs
from .designs import DesignParameters, IncidenceDesign
from .errors import DesignError, InternalConsistencyError
from .exactnum import QuadExt, _radicand_closure, _sf_product, format_scalar, sqrt_adjoin


# R_{i+1}^T = R_{TRANSPOSE[i]+1}: R6/R8 and R7/R9 swap, the rest are symmetric
TRANSPOSE = (0, 1, 2, 3, 4, 7, 8, 5, 6)

GRAM_CLASS_OF_RELATION = {
    1: "V_diag", 2: "B_diag", 3: "V_off", 4: "B_alpha", 5: "B_beta",
    6: "VB_in", 7: "VB_out", 8: "VB_in", 9: "VB_out",
}


class CoherentConfig(namedtuple("CoherentConfig", "design params points blocks")):
    """A quasi-symmetric 2-design, its parameters and its incidence packed each way."""

    __slots__ = ()

    @property
    def m(self) -> int:
        return self.design.m

    @property
    def n_blocks(self) -> int:
        return self.design.block_count

    @property
    def size(self) -> int:
        return self.m + self.n_blocks


def from_design(d: IncidenceDesign) -> CoherentConfig:
    """The configuration of d; raises DesignError unless d is a quasi-symmetric 2-design."""
    designs.require_every_point(d)  # before anything of size m is built
    through = designs.blocks_through_points(d)
    points = designs.pack(through, d.block_count, d.block_size)
    values = designs.intersection_numbers(d, points)
    if len(values) != 2:
        raise DesignError(f"design is not quasi-symmetric: intersection values {values}")
    beta, alpha = values
    params = designs.derive_parameters(d.m, d.block_size, alpha, beta)
    if d.block_count != params.n:  # checked first because it costs nothing
        raise DesignError(f"axioms fail: {d.block_count} blocks, but (m, S, alpha, beta) = "
                          f"{params[:4]} give n = {format_scalar(params.n)}")
    blocks = designs.pack(d.blocks, d.m, max(map(len, through)))
    if len(designs.pair_counts(through, blocks)) != 1:
        raise DesignError(f"axioms fail: not a 2-design: {designs.pair_witness(points)}")
    return CoherentConfig(d, params, points, blocks)


# from a 0/1 incidence field to the 0-based label: R6 or R7, R8 or R9
IN_BLOCK, HAS_POINT = bytes((6, 5)) + bytes(254), bytes((8, 7)) + bytes(254)


def relation_row(cc: CoherentConfig, u: int) -> list:
    """i - 1 for the relation R_i of each pair (u, w), w over V + B in order.

    Points: R1 on the diagonal, R3 off it.  Blocks: R2 on the diagonal, R4
    when two blocks meet in alpha points, R5 otherwise.  A point and a block:
    R6 when the point lies in the block, R7 when not; R8 and R9 transposed.
    Read off the packed rows: u's own row gives its incidences, and a
    block's point rows sum to its intersections.
    """
    m, n = cc.m, cc.n_blocks
    points, width, by_point = cc.points.rows, cc.points.width, cc.blocks.width
    if u < m:
        row = [2] * m
        row[u] = 0
        row += points[u].to_bytes(n * width, "little")[::width].translate(IN_BLOCK)
        return row
    own = cc.blocks.rows[u - m].to_bytes(m * by_point, "little")
    row = list(own[::by_point].translate(HAS_POINT))
    # off the diagonal a field holds alpha or beta: a byte where they differ tells which
    alpha, beta = cc.params.alpha, cc.params.beta
    t = ((alpha ^ beta).bit_length() - 1) // 8
    label = bytearray(b"\4" * 256)
    label[alpha >> 8 * t & 255] = 3
    meets = sum(map(points.__getitem__, cc.design.blocks[u - m])).to_bytes(n * width, "little")
    row += meets[t::width].translate(label)
    row[u] = 1  # |a & a| = S, never alpha
    return row


# ----- the intersection numbers --------------------------------------------


def verify_axioms(cc: CoherentConfig) -> tuple:
    """The p table of cc: p[i-1][j-1][k-1] = p_ij^k, as nested tuples.

    `from_design` has checked the premises of the configuration theorem
    (module docstring), so each p_ij^k is constant on R_k and is counted,
    as |{w : (u,w) in R_i, (w,v) in R_j}| over w in V + B, at one pair
    (u, v) of R_k, every pair taken from block 0's row: two points, block 0
    itself, its first neighbours at alpha and at beta, and a point in it
    and one outside it.
    """
    m = cc.m
    first = relation_row(cc, m)
    inside, outside = first.index(7), first.index(8)
    # (u, v) in R_k for k = 1..9
    reps = ((0, 0), (m, m), (0, 1), (m, first.index(3, m)), (m, first.index(4, m)),
            (inside, m), (outside, m), (m, inside), (m, outside))
    rows = {m: first}
    for vertex in {v for pair in reps for v in pair} - rows.keys():
        rows[vertex] = relation_row(cc, vertex)
    p = [[[0] * 9 for _ in range(9)] for _ in range(9)]
    for k, (u, v) in enumerate(reps):
        for i, j in zip(rows[u], rows[v]):  # (u, w) in R_i; (w, v) is (v, w) transposed
            p[i][TRANSPOSE[j]][k] += 1
    return tuple(tuple(map(tuple, plane)) for plane in p)


# ----- the idempotent basis and the projector ------------------------------


def idempotent_basis(p: DesignParameters) -> dict[tuple[int, int], tuple]:
    """Exact coefficients of eps_11, eps_12, eps_21, eps_22 over A1..A9, keyed (i, j) in that order.

    alpha1 = sqrt(S T), alpha2 = (k - N)/P * alpha1, beta1 = -beta2 =
    sqrt(T - Lambda); raises when P = 0, n (r - s) = 0 or the 2x2
    determinant alpha1 beta2 - alpha2 beta1 vanishes.
    """
    if p.P == 0:
        raise DesignError("P = 0 leaves alpha2 undefined")
    st = Fraction(p.S) * p.T
    tl = p.T - p.Lambda
    if st < 0 or tl < 0:
        raise DesignError(
            f"negative radicand: S*T = {st}, T - Lambda = {tl}")
    alpha1 = sqrt_adjoin(st)
    ratio = (p.k - p.N) / p.P
    alpha2 = ratio * alpha1
    beta1 = sqrt_adjoin(tl)
    beta2 = -beta1
    disc = alpha1 * beta2 - alpha2 * beta1
    nrs = p.n * (p.r - p.s)
    if disc.is_zero() or nrs == 0:
        raise DesignError(
            f"degenerate representation: disc = {disc}, n(r - s) = {nrs}")
    zero = QuadExt(0)
    m = p.m
    eps11 = [zero] * 9
    eps11[0] = QuadExt(Fraction(m - 1, m))
    eps11[2] = QuadExt(Fraction(-1, m))
    unit = alpha1 / disc  # the one inversion: alpha2 / disc = ratio * unit
    eps12 = [zero] * 9
    eps12[5], eps12[6] = ratio * unit, -unit
    eps21 = [zero] * 9
    eps21[7], eps21[8] = eps12[5], eps12[6]
    eps22 = [zero] * 9
    eps22[1] = QuadExt(-((p.n - p.k - 1) * p.s + p.k * p.s + p.k) / nrs)
    eps22[3] = QuadExt((p.n - p.k + p.s) / nrs)
    eps22[4] = QuadExt((p.s - p.k) / nrs)
    return {(1, 1): tuple(eps11), (1, 2): tuple(eps12), (2, 1): tuple(eps21), (2, 2): tuple(eps22)}


def structure_constants(p_table: tuple) -> tuple:
    """The nonzero p_ij^k as (i, j, ((k, p_ij^k), ...)), 0-based, in (i, j) order."""
    return tuple((i, j, ks) for i, plane in enumerate(p_table) for j, column in enumerate(plane)
                 if (ks := tuple((k, c) for k, c in enumerate(column) if c)))


def algebra_product(constants: tuple, u: dict, v: dict) -> dict:
    """Product of two adjacency-algebra elements on integer numerators.

    u and v are the numerators {r: N_r} of `_integer_vector`; returns the
    product's numerators over D_u D_v, by (sum_i u_i A_i)(sum_j v_j A_j) =
    sum_k (sum_ij u_i v_j p_ij^k) A_k and sqrt(r) sqrt(s) = g sqrt(d).
    """
    out: dict = {}
    for r, a in u.items():
        for s, b in v.items():
            g, d = _sf_product(r, s)
            acc = out.setdefault(d, [0] * 9)
            for i, j, ks in constants:
                x = a[i] * b[j]
                if x:
                    for k, c in ks:
                        acc[k] += g * c * x
    return out


def _require_product(constants: tuple, u: tuple, v: tuple, expect: tuple, what: str) -> None:
    """u v == expect in the algebra, each given as (D, numerators) by `_integer_vector`."""
    (du, nu), (dv, nv), (de, ne) = u, v, expect
    prod = algebra_product(constants, nu, nv)
    zero = [0] * 9
    for d in sorted(prod.keys() | ne.keys()):
        got, want = prod.get(d, zero), ne.get(d, zero)
        for k in range(9):
            if got[k] * de != want[k] * du * dv:
                raise InternalConsistencyError(f"{what} in the sqrt({d}) part at R{k + 1}")


def verify_epsilon_identities(constants: tuple, idem: dict) -> None:
    """Check eps_ij eps_kl = delta_jk eps_il exactly in the algebra; idem is `idempotent_basis`'s."""
    forms = {key: _integer_vector(vec) for key, vec in idem.items()}
    for (i, j), u in forms.items():
        for (k, l), v in forms.items():
            expect = forms[(i, l)] if j == k else (1, {})
            _require_product(constants, u, v, expect,
                             f"eps_{i}{j} eps_{k}{l} != delta * eps_{i}{l}")


class ProjectorResult(namedtuple("ProjectorResult", "cc coefficients gram")):
    """The projector E of a coherent configuration, verified exactly.

    `coefficients` is E over A1..A9; `gram` maps each of the seven Gram
    classes of the embedding to its exact value.
    """

    __slots__ = ()

    # no dense form of E is built; perfbench's coherent.dense_mults hook still
    # reads this attribute until the benchmark revision of ROADMAP item 6
    matrix = None


def projector_and_gram(cc: CoherentConfig) -> ProjectorResult:
    """Assemble E = (eps11 + eps12 + eps21 + eps22)/2 and verify it exactly.

    Checks E = E^T, E^2 = E, trace(E) = m - 1 and that E annihilates both
    fiber indicator vectors, at every size, in the adjacency algebra on the
    p_ij^k table of `verify_axioms`.  Every coefficient is written exactly as
    sum_r sqrt(r) N_r / D: D is the lcm of the coefficient denominators and
    N_r holds integers, one list per radicand r in {1, d1, d2, d1 d2}; the
    eps identities and E^2 = E run on these numerators through the nonzero
    p_ij^k.  The Gram classes are read off the same coefficients.
    """
    idem = idempotent_basis(cc.params)
    constants = structure_constants(verify_axioms(cc))
    verify_epsilon_identities(constants, idem)
    half = Fraction(1, 2)
    coeffs = tuple((a + b + c + d) * half for a, b, c, d in zip(*idem.values()))
    # symmetry and trace at the coefficient level
    if coeffs[5] != coeffs[7] or coeffs[6] != coeffs[8]:
        raise InternalConsistencyError("E is not symmetric")
    trace = coeffs[0] * cc.m + coeffs[1] * cc.n_blocks
    if trace != QuadExt(cc.m - 1):
        raise InternalConsistencyError(f"trace(E) = {trace} != m - 1")
    # idempotency in the algebra (valid for any size)
    form = _integer_vector(coeffs)
    _require_product(constants, form, form, form, "E^2 != E in the adjacency algebra")
    # fiber annihilation: row sums against both indicator vectors
    p = cc.params
    v_sums = (
        coeffs[0] + (cc.m - 1) * coeffs[2],          # row in V, columns in V
        p.S * coeffs[7] + (cc.m - p.S) * coeffs[8],  # row in B, columns in V
    )
    b_sums = (
        p.T * coeffs[5] + (p.n - p.T) * coeffs[6],             # row in V, columns in B
        coeffs[1] + p.k * coeffs[3] + (p.n - p.k - 1) * coeffs[4],  # row in B
    )
    for value in (*v_sums, *b_sums):
        if not QuadExt(value).is_zero():
            raise InternalConsistencyError("E does not annihilate a fiber indicator")
    gram = {
        name: coeffs[rel - 1] for rel, name in GRAM_CLASS_OF_RELATION.items()
        if rel not in (8, 9)
    }
    return ProjectorResult(cc, coeffs, gram)


def _integer_vector(values) -> tuple:
    """(D, {r: N_r}) with values[i] = sum_r sqrt(r) N_r[i] / D, D the lcm of the denominators."""
    radicands = sorted({r for v in values for r, _ in v.terms})
    _radicand_closure(radicands)  # at most two independent radicands
    denominator = math.lcm(*(c.denominator for v in values for _, c in v.terms))
    tables = {r: [0] * len(values) for r in radicands}
    for i, v in enumerate(values):
        for r, c in v.terms:
            tables[r][i] = c.numerator * (denominator // c.denominator)
    return denominator, tables
