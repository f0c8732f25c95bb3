"""Coherent configurations of a quasi-symmetric design.

The nine relations on the ordered set V + B (points first, then blocks), the
exhaustive axiom check with the full intersection-number table, the
matrix-unit basis of the second irreducible block of the adjacency algebra,
and the symmetric idempotent projector E whose entries form the exact Gram
table of the Euclidean embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .designs import (
    DesignParameters,
    IncidenceDesign,
    derive_parameters,
    incidence_matrix,
    intersection_numbers,
)
from .exactnum import QuadExt, _radicand_closure, _sf_product, sqrt_adjoin


class StructureError(ValueError):
    """The input lacks the structure this construction needs."""


class DegenerateRepresentationError(ValueError):
    """A representation coefficient hits a vanishing denominator."""


class InternalConsistencyError(AssertionError):
    """An exact identity that must hold failed; indicates a bug upstream."""


RELATION_NAMES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9")
TRANSPOSE_PAIRS = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 8, 7: 9, 8: 6, 9: 7}

GRAM_CLASS_OF_RELATION = {
    1: "V_diag", 2: "B_diag", 3: "V_off", 4: "B_alpha", 5: "B_beta",
    6: "VB_in", 7: "VB_out", 8: "VB_in", 9: "VB_out",
}


@dataclass(frozen=True)
class CoherentConfig:
    """Nine 0/1 relation matrices over V + B plus the derived parameters."""

    design: IncidenceDesign
    params: DesignParameters
    alpha: int
    beta: int
    relations: tuple  # nine int8 arrays, index i <-> R_{i+1}

    @property
    def m(self) -> int:
        return self.design.m

    @property
    def n_blocks(self) -> int:
        return self.design.block_count

    @property
    def size(self) -> int:
        return self.m + self.n_blocks

    def relation_index_matrix(self) -> np.ndarray:
        """N x N matrix whose entries are the relation numbers 1..9."""
        out = np.zeros((self.size, self.size), dtype=np.int8)
        for i, mat in enumerate(self.relations):
            out += (i + 1) * mat
        return out


def from_design(d: IncidenceDesign) -> CoherentConfig:
    """Build the nine relations; R4 holds the larger intersection number."""
    profile = intersection_numbers(d)
    if not profile.quasi_symmetric:
        raise StructureError(
            f"design is not quasi-symmetric: intersection values {profile.values}")
    alpha, beta = profile.alpha, profile.beta
    assert alpha is not None and beta is not None
    params = derive_parameters(d.m, d.block_size, alpha, beta)
    m, n = d.m, d.block_count
    big = m + n
    inc = incidence_matrix(d)
    inter = inc.T.astype(np.int32) @ inc.astype(np.int32)
    offdiag = ~np.eye(n, dtype=bool)
    mats = []
    for i in range(9):
        mats.append(np.zeros((big, big), dtype=np.int8))
    mats[0][:m, :m] = np.eye(m, dtype=np.int8)
    mats[1][m:, m:] = np.eye(n, dtype=np.int8)
    mats[2][:m, :m] = 1 - np.eye(m, dtype=np.int8)
    mats[3][m:, m:] = ((inter == alpha) & offdiag).astype(np.int8)
    mats[4][m:, m:] = ((inter == beta) & offdiag).astype(np.int8)
    mats[5][:m, m:] = inc
    mats[6][:m, m:] = 1 - inc
    mats[7][m:, :m] = inc.T
    mats[8][m:, :m] = (1 - inc).T
    return CoherentConfig(d, params, alpha, beta, tuple(mats))


# ----- axiom verification -------------------------------------------------


@dataclass
class AxiomReport:
    ok: bool
    p: Optional[np.ndarray]        # p[i-1, j-1, k-1] = p_{ij}^k
    violation: Optional[str] = None

    def p_constant(self, i: int, j: int, k: int) -> int:
        """Intersection number p_{ij}^k with 1-based relation labels."""
        assert self.p is not None
        return int(self.p[i - 1, j - 1, k - 1])


def verify_axioms(cc: CoherentConfig) -> AxiomReport:
    """Exhaustively check the coherent-configuration axioms.

    (1) the relations are 0/1 matrices that partition all ordered pairs,
    (2) each relation's transpose is again a relation, (3) R1 + R2 is the
    diagonal, (4) |{w : (u,w) in R_i, (w,v) in R_j}| is constant over
    (u,v) in R_k.  Returns the full table of constants, or the first
    violation found in (i, j, k) order.

    (4) runs on fiber blocks.  The diagonals of R1 and R2 give the fibers
    X_1 and X_2; every nonempty relation must lie in one block X_a x X_b
    (else "R{i} meets more than one fiber pair"), since p_{Δa,R}^R = [u in
    X_a] must be constant on R.  A_i A_j is then zero unless R_i's column
    fiber is R_j's row fiber, and otherwise lives in one block (a, c); only
    the R_k in that block are tested.  R1 and R2 are the identity on their
    fiber, so a product with one of them is the other block, no matmul.
    Fiber indices are sorted, so a block's row-major order is the global one
    and a violation names the same pair as a full-matrix check would.
    """
    rels = cc.relations
    total = np.zeros(rels[0].shape, dtype=np.int8)
    for r in rels:
        total += r
    if not all(((r == 0) | (r == 1)).all() for r in rels) or not (total == 1).all():
        return AxiomReport(False, None, "relations do not partition the pair set")
    for i, expect in TRANSPOSE_PAIRS.items():
        if not (rels[i - 1].T == rels[expect - 1]).all():
            return AxiomReport(False, None, f"transpose of R{i} is not R{expect}")
    diag = rels[0] + rels[1]
    if not (np.diag(np.diag(diag)) == diag).all() or not (np.diag(diag) == 1).all():
        return AxiomReport(False, None, "R1 + R2 is not the diagonal")
    fibers = [np.flatnonzero(np.diag(rels[0])), np.flatnonzero(np.diag(rels[1]))]
    fiber_of = np.diag(rels[1]).astype(np.intp)  # fiber index: 0 on X_1, 1 on X_2
    pairs: list = []   # (a, b) per relation, None when empty
    blocks: list = []  # int32 block on X_a x X_b
    for i, r in enumerate(rels):
        row_fibers = set(fiber_of[r.any(axis=1)].tolist())
        col_fibers = set(fiber_of[r.any(axis=0)].tolist())
        if not row_fibers:
            pairs.append(None)
            blocks.append(None)
            continue
        if len(row_fibers) > 1 or len(col_fibers) > 1:
            return AxiomReport(False, None, f"R{i+1} meets more than one fiber pair")
        (a,), (b,) = row_fibers, col_fibers
        pairs.append((a, b))
        blocks.append(r[np.ix_(fibers[a], fibers[b])].astype(np.int32))
    supports = [None if blk is None else blk.astype(bool) for blk in blocks]
    p = np.zeros((9, 9, 9), dtype=np.int32)
    for i in range(9):
        for j in range(9):
            if pairs[i] is None or pairs[j] is None or pairs[i][1] != pairs[j][0]:
                continue  # A_i A_j = 0, so every p_ij^k is 0
            block = (pairs[i][0], pairs[j][1])
            if i < 2:
                prod = blocks[j]
            elif j < 2:
                prod = blocks[i]
            else:
                prod = blocks[i] @ blocks[j]
            for k in range(9):
                if pairs[k] != block:
                    continue
                values = prod[supports[k]]
                first = values[0]
                if not (values == first).all():
                    r, c = np.argwhere((prod != first) & supports[k])[0]
                    bad = (int(fibers[block[0]][r]), int(fibers[block[1]][c]))
                    return AxiomReport(
                        False, None,
                        f"p_{i+1}{j+1}^{k+1} not constant: pair {bad} gives "
                        f"{int(prod[r, c])}, expected {int(first)}")
                p[i, j, k] = first
    return AxiomReport(True, p)


# ----- the idempotent basis and the projector ------------------------------


@dataclass(frozen=True)
class IdempotentCoefficients:
    """Coefficient vectors (over A1..A9) of the second-block matrix units."""

    alpha1: QuadExt
    alpha2: QuadExt
    beta1: QuadExt
    beta2: QuadExt
    eps11: tuple
    eps12: tuple
    eps21: tuple
    eps22: tuple

    def all_vectors(self) -> tuple:
        return (self.eps11, self.eps12, self.eps21, self.eps22)


def idempotent_basis(p: DesignParameters) -> IdempotentCoefficients:
    """Exact coefficients of eps_11, eps_12, eps_21, eps_22 over A1..A9.

    alpha1 = sqrt(S T), alpha2 = (k - N)/P * alpha1, beta1 = -beta2 =
    sqrt(T - Lambda); raises when P = 0, n (r - s) = 0 or the 2x2
    determinant alpha1 beta2 - alpha2 beta1 vanishes.
    """
    if p.P == 0:
        raise DegenerateRepresentationError("P = 0 leaves alpha2 undefined")
    st = Fraction(p.S) * p.T
    tl = p.T - p.Lambda
    if st < 0 or tl < 0:
        raise DegenerateRepresentationError(
            f"negative radicand: S*T = {st}, T - Lambda = {tl}")
    alpha1 = sqrt_adjoin(st)
    alpha2 = (p.k - p.N) / p.P * alpha1
    beta1 = sqrt_adjoin(tl)
    beta2 = -beta1
    disc = alpha1 * beta2 - alpha2 * beta1
    nrs = p.n * (p.r - p.s)
    if disc.is_zero() or nrs == 0:
        raise DegenerateRepresentationError(
            f"degenerate representation: disc = {disc}, n(r - s) = {nrs}")
    zero = QuadExt(0)
    m = p.m
    eps11 = [zero] * 9
    eps11[0] = QuadExt(Fraction(m - 1, m))
    eps11[2] = QuadExt(Fraction(-1, m))
    eps12 = [zero] * 9
    eps12[5] = alpha2 / disc
    eps12[6] = -alpha1 / disc
    eps21 = [zero] * 9
    eps21[7] = alpha2 / disc
    eps21[8] = -alpha1 / disc
    eps22 = [zero] * 9
    eps22[1] = QuadExt(-((p.n - p.k - 1) * p.s + p.k * p.s + p.k) / nrs)
    eps22[3] = QuadExt((p.n - p.k + p.s) / nrs)
    eps22[4] = QuadExt((p.s - p.k) / nrs)
    return IdempotentCoefficients(
        alpha1, alpha2, beta1, beta2,
        tuple(eps11), tuple(eps12), tuple(eps21), tuple(eps22))


def algebra_product(p_table: np.ndarray, u, v) -> tuple:
    """Product of two adjacency-algebra elements given by coefficient vectors.

    (sum_i u_i A_i)(sum_j v_j A_j) = sum_k (sum_{ij} u_i v_j p_ij^k) A_k.
    """
    out = [QuadExt(0)] * 9
    for i in range(9):
        if u[i].is_zero():
            continue
        for j in range(9):
            if v[j].is_zero():
                continue
            uv = u[i] * v[j]
            for k in range(9):
                c = int(p_table[i, j, k])
                if c:
                    out[k] = out[k] + uv * c
    return tuple(out)


def verify_epsilon_identities(p_table: np.ndarray, idem: IdempotentCoefficients) -> None:
    """Check eps_ij eps_kl = delta_jk eps_il exactly in the algebra."""
    eps = {
        (1, 1): idem.eps11, (1, 2): idem.eps12,
        (2, 1): idem.eps21, (2, 2): idem.eps22,
    }
    for (i, j), u in eps.items():
        for (k, l), v in eps.items():
            prod = algebra_product(p_table, u, v)
            expect = eps[(i, l)] if j == k else (QuadExt(0),) * 9
            if tuple(prod) != tuple(expect):
                raise InternalConsistencyError(
                    f"eps_{i}{j} eps_{k}{l} != delta * eps_{i}{l}")


@dataclass(frozen=True)
class GramTable:
    """The seven exact Gram classes of the projector embedding."""

    params: DesignParameters
    classes: dict  # class name -> QuadExt

    def __getitem__(self, key: str) -> QuadExt:
        return self.classes[key]

    def as_strings(self) -> dict:
        return {k: str(v) for k, v in self.classes.items()}


@dataclass
class ProjectorResult:
    cc: CoherentConfig
    idem: IdempotentCoefficients
    coefficients: tuple        # E as a coefficient vector over A1..A9
    gram: GramTable
    matrix: Optional[list]     # dense QuadExt rows when assembled
    axioms: AxiomReport        # the verified axiom check the projector rests on


# Lisonek's configuration and its complement (9 + 36 = 45 vertices each) get the
# dense check; the 276-vertex Witt configuration relies on the p_ij^k table.
FULL_MATRIX_LIMIT = 128


def projector_and_gram(cc: CoherentConfig) -> ProjectorResult:
    """Assemble E = (eps11 + eps12 + eps21 + eps22)/2 and verify it exactly.

    Checks E = E^T, E^2 = E, trace(E) = m - 1, that E annihilates both fiber
    indicator vectors, and that every entry agrees with its pair-class value.
    The multiplication check runs through the verified intersection-number
    table at every size, and also densely for configurations of at most
    FULL_MATRIX_LIMIT vertices.  The dense check writes E exactly as
    sum_r sqrt(r) N_r / D: D is the lcm of the coefficient denominators and
    N_r is one integer matrix per radicand r in {1, d1, d2, d1 d2}.  E^2 = E
    then takes one integer matmul per radicand pair.  The matrices are int64
    only when size * max|N|^2 * (sum of the gcds g in sqrt(r) sqrt(s) =
    g sqrt(d)) and D * max|N| are both below 2^63, so no product can
    overflow; otherwise they hold Python integers.
    """
    report = verify_axioms(cc)
    if not report.ok:
        raise StructureError(f"axioms fail: {report.violation}")
    idem = idempotent_basis(cc.params)
    verify_epsilon_identities(report.p, idem)
    half = Fraction(1, 2)
    coeffs = tuple(
        (a + b + c + d) * half
        for a, b, c, d in zip(idem.eps11, idem.eps12, idem.eps21, idem.eps22)
    )
    # symmetry and trace at the coefficient level
    if coeffs[5] != coeffs[7] or coeffs[6] != coeffs[8]:
        raise InternalConsistencyError("E is not symmetric")
    trace = coeffs[0] * cc.m + coeffs[1] * cc.n_blocks
    if trace != QuadExt(cc.m - 1):
        raise InternalConsistencyError(f"trace(E) = {trace} != m - 1")
    # idempotency in the algebra (valid for any size; the p table is verified)
    square = algebra_product(report.p, coeffs, coeffs)
    if tuple(square) != tuple(coeffs):
        raise InternalConsistencyError("E^2 != E in the adjacency algebra")
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
    gram = GramTable(cc.params, {
        name: coeffs[rel - 1] for rel, name in GRAM_CLASS_OF_RELATION.items()
        if rel not in (8, 9)
    })
    matrix = None
    if cc.size <= FULL_MATRIX_LIMIT:
        matrix = assemble_matrix(cc, coeffs)
        _dense_checks(cc, _integer_form(coeffs, cc.relation_index_matrix() - 1), gram)
    return ProjectorResult(cc, idem, coeffs, gram, matrix, report)


def assemble_matrix(cc: CoherentConfig, coeffs) -> list:
    ridx = cc.relation_index_matrix()
    return [[coeffs[ridx[a, b] - 1] for b in range(cc.size)] for a in range(cc.size)]


# ----- the dense check on the integer form -----------------------------------


@dataclass(frozen=True)
class _IntegerForm:
    """The matrix sum_r sqrt(r) * parts[r] / denominator, parts[r] integer."""

    denominator: int
    parts: dict  # radicand -> square integer ndarray, int64 or object dtype


def _integer_form(values, index: np.ndarray) -> _IntegerForm:
    """Integer form of the matrix whose entry (a, b) is values[index[a, b]].

    The parts are int64 under the overflow bound stated in
    projector_and_gram and object (Python integers) otherwise.
    """
    radicands = sorted({r for v in values for r, _ in v.terms})
    _radicand_closure(radicands)  # at most two independent radicands
    denominator = math.lcm(*(c.denominator for v in values for _, c in v.terms))
    tables = {r: [0] * len(values) for r in radicands}
    for i, v in enumerate(values):
        for r, c in v.terms:
            tables[r][i] = c.numerator * (denominator // c.denominator)
    biggest = max((abs(n) for t in tables.values() for n in t), default=0)
    g_sum = sum(_sf_product(r, s)[0] for r in radicands for s in radicands)
    fits = (index.shape[0] * biggest ** 2 * g_sum < 2 ** 63
            and denominator * biggest < 2 ** 63)
    dtype = np.int64 if fits else object
    return _IntegerForm(
        denominator, {r: np.array(t, dtype=dtype)[index] for r, t in tables.items()})


def _integer_square(form: _IntegerForm) -> dict:
    """Numerators of the square over denominator^2, keyed by radicand."""
    out: dict = {}
    for r, a in form.parts.items():
        for s, b in form.parts.items():
            g, d = _sf_product(r, s)
            term = g * (a @ b)
            out[d] = out[d] + term if d in out else term
    return out


def _require_equal(lhs: np.ndarray, rhs: np.ndarray, what: str) -> None:
    if not np.array_equal(lhs, rhs):
        a, b = (int(i) for i in np.argwhere(lhs != rhs)[0])
        raise InternalConsistencyError(f"{what} at entry ({a},{b})")


def _dense_checks(cc: CoherentConfig, form: _IntegerForm, gram: GramTable) -> None:
    """E = E^T, class agreement, E^2 = E and trace(E) = m - 1, entry by entry."""
    ridx = cc.relation_index_matrix() - 1
    zero = np.zeros(ridx.shape, dtype=np.int64)
    for r, part in form.parts.items():
        _require_equal(part, part.T, f"E is not symmetric in its sqrt({r}) part")
    # every entry equals the Gram value of its relation's class
    classes = [dict(gram[GRAM_CLASS_OF_RELATION[k]].terms) for k in range(1, 10)]
    for r in form.parts.keys() | {r for terms in classes for r in terms}:
        scaled = [terms.get(r, 0) * form.denominator for terms in classes]
        if any(Fraction(v).denominator != 1 for v in scaled):
            raise InternalConsistencyError(
                f"a Gram class needs a denominator beyond {form.denominator}")
        expected = np.array([int(v) for v in scaled], dtype=object)[ridx]
        _require_equal(form.parts.get(r, zero), expected,
                       f"E is off its class value in the sqrt({r}) part")
    square = _integer_square(form)
    for d in square.keys() | form.parts.keys():
        _require_equal(square.get(d, zero), form.denominator * form.parts.get(d, zero),
                       f"E^2 != E in the sqrt({d}) part")
    trace = QuadExt({r: Fraction(int(np.trace(part)), form.denominator)
                     for r, part in form.parts.items()})
    if trace != QuadExt(cc.m - 1):
        raise InternalConsistencyError(f"dense trace {trace} differs from m - 1")
