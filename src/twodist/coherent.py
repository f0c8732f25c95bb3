"""Coherent configurations of a quasi-symmetric design.

The configuration as one label matrix over the ordered set V + B (points
first, then blocks): each ordered pair carries the i of the one relation R_i
of the nine that holds it.  Then the exhaustive axiom check with the full
intersection-number table, the matrix-unit basis of the second irreducible
block of the adjacency algebra, and the symmetric idempotent projector E
whose entries form the exact Gram table of the Euclidean embedding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .designs import (
    DesignParameters, IncidenceDesign, count_product, incidence_matrix, parameters_from_design)
from .errors import DesignError, InternalConsistencyError
from .exactnum import QuadExt, _radicand_closure, _sf_product, sqrt_adjoin


TRANSPOSE_PAIRS = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 8, 7: 9, 8: 6, 9: 7}

GRAM_CLASS_OF_RELATION = {
    1: "V_diag", 2: "B_diag", 3: "V_off", 4: "B_alpha", 5: "B_beta",
    6: "VB_in", 7: "VB_out", 8: "VB_in", 9: "VB_out",
}


class CoherentConfig(NamedTuple):
    """A design's parameters and the relation label of every pair of V + B.

    labels[u, v] is the i of the relation R_i that holds (u, v), as int8.
    """

    design: IncidenceDesign
    params: DesignParameters
    labels: np.ndarray

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
    """Label the pairs of V + B; R4 holds the larger intersection number."""
    inc = incidence_matrix(d)
    inter = count_product(inc.T, inc)
    params = parameters_from_design(d, inter)
    m = d.m
    labels = np.empty((m + d.block_count,) * 2, dtype=np.int8)
    labels[:m, :m] = 3
    labels[m:, m:] = 5
    labels[m:, m:][inter == params.alpha] = 4
    labels[:m, m:] = 7 - inc
    labels[m:, :m] = 9 - inc.T
    np.fill_diagonal(labels[:m, :m], 1)
    np.fill_diagonal(labels[m:, m:], 2)
    return CoherentConfig(d, params, labels)


# ----- axiom verification -------------------------------------------------


class AxiomReport:
    __slots__ = ("ok", "p", "violation")

    def __init__(self, ok: bool, p: Optional[np.ndarray], violation: Optional[str] = None):
        self.ok, self.p, self.violation = ok, p, violation  # p[i-1, j-1, k-1] = p_{ij}^k

    def p_constant(self, i: int, j: int, k: int) -> int:
        """Intersection number p_{ij}^k with 1-based relation labels."""
        if self.p is None:
            raise ValueError(f"no p table: the axiom check failed ({self.violation})")
        return int(self.p[i - 1, j - 1, k - 1])


def verify_axioms(cc: CoherentConfig) -> AxiomReport:
    """Exhaustively check the coherent-configuration axioms.

    (1) every label lies in 1..9, so the relations R_i = (labels == i)
    partition all ordered pairs, (2) each relation's transpose is again a
    relation, (3) R1 + R2 is the diagonal, (4) |{w : (u,w) in R_i, (w,v) in
    R_j}| is constant over (u,v) in R_k.  Returns the full table of
    constants, or the first violation found in (i, j, k) order.

    (4) runs on fiber blocks.  The diagonals of R1 and R2 give the fibers
    X_1 and X_2; every nonempty relation must lie in one block X_a x X_b
    (else "R{i} meets more than one fiber pair"), since p_{Δa,R}^R = [u in
    X_a] must be constant on R.  A_i A_j is then zero unless R_i's column
    fiber is R_j's row fiber, and otherwise lives in one block (a, c); only
    the R_k in that block are tested.  R1 and R2 are the identity on their
    fiber, so a product with one of them is the other block, no matmul;
    every other product is a `count_product`.  The R_k of a block partition
    it, so with c_k the product's value at R_k's first pair, the product is
    compared at once with sum_k c_k A_k, and only a mismatch is searched
    for its first pair, R_k by R_k.  Fiber indices are sorted, so a block's
    row-major order is the global one and a violation names the same pair
    as a full-matrix check would.
    """
    labels = cc.labels
    if not ((labels >= 1) & (labels <= 9)).all():
        return AxiomReport(False, None, "relations do not partition the pair set")
    rels = [(labels == i).astype(np.int8) for i in range(1, 10)]
    for i, expect in TRANSPOSE_PAIRS.items():
        if not (rels[i - 1].T == rels[expect - 1]).all():
            return AxiomReport(False, None, f"transpose of R{i} is not R{expect}")
    diag = rels[0] + rels[1]
    if not (np.diag(np.diag(diag)) == diag).all() or not (np.diag(diag) == 1).all():
        return AxiomReport(False, None, "R1 + R2 is not the diagonal")
    fibers = [np.flatnonzero(np.diag(rels[0])), np.flatnonzero(np.diag(rels[1]))]
    fiber_of = np.diag(rels[1]).astype(np.intp)  # fiber index: 0 on X_1, 1 on X_2
    pairs: list = []   # (a, b) per relation, None when empty
    blocks: list = []  # int8 block on X_a x X_b
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
        blocks.append(r[np.ix_(fibers[a], fibers[b])])
    # flat index of each relation's first pair in its block
    firsts = [None if blk is None else int(np.argmax(blk)) for blk in blocks]
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
                prod = count_product(blocks[i], blocks[j])
            ks = [k for k in range(9) if pairs[k] == block]
            values = [prod.flat[firsts[k]] for k in ks]
            bad = prod != sum(v * blocks[k] for k, v in zip(ks, values))
            if bad.any():
                for k, first in zip(ks, values):
                    hit = np.argwhere(bad & (blocks[k] != 0))
                    if len(hit):
                        r, c = hit[0]
                        pair = (int(fibers[block[0]][r]), int(fibers[block[1]][c]))
                        return AxiomReport(
                            False, None,
                            f"p_{i+1}{j+1}^{k+1} not constant: pair {pair} gives "
                            f"{int(prod[r, c])}, expected {int(first)}")
            p[i, j, ks] = values
    return AxiomReport(True, p)


# ----- the idempotent basis and the projector ------------------------------


class IdempotentCoefficients(NamedTuple):
    """Coefficient vectors (over A1..A9) of the second-block matrix units."""

    alpha1: QuadExt
    alpha2: QuadExt
    beta1: QuadExt
    beta2: QuadExt
    eps11: tuple
    eps12: tuple
    eps21: tuple
    eps22: tuple


def idempotent_basis(p: DesignParameters) -> IdempotentCoefficients:
    """Exact coefficients of eps_11, eps_12, eps_21, eps_22 over A1..A9.

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
    alpha2 = (p.k - p.N) / p.P * alpha1
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


def structure_constants(p_table: np.ndarray) -> tuple:
    """The nonzero p_ij^k as (i, j, ((k, p_ij^k), ...)), 0-based, in (i, j) order."""
    table = p_table.tolist()
    groups: dict = {}
    for i, j, k in np.argwhere(p_table).tolist():
        groups.setdefault((i, j), []).append((k, table[i][j][k]))
    return tuple((i, j, tuple(ks)) for (i, j), ks in groups.items())


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


def verify_epsilon_identities(constants: tuple, idem: IdempotentCoefficients) -> None:
    """Check eps_ij eps_kl = delta_jk eps_il exactly in the algebra."""
    eps = {
        (1, 1): idem.eps11, (1, 2): idem.eps12,
        (2, 1): idem.eps21, (2, 2): idem.eps22,
    }
    forms = {key: _integer_vector(vec) for key, vec in eps.items()}
    for (i, j), u in forms.items():
        for (k, l), v in forms.items():
            expect = forms[(i, l)] if j == k else (1, {})
            _require_product(constants, u, v, expect,
                             f"eps_{i}{j} eps_{k}{l} != delta * eps_{i}{l}")


class GramTable:
    """The seven exact Gram classes of the projector embedding."""

    __slots__ = ("classes",)

    def __init__(self, classes: dict):
        self.classes = classes  # class name -> QuadExt

    def __getitem__(self, key: str) -> QuadExt:
        return self.classes[key]

    def as_strings(self) -> dict:
        return {k: str(v) for k, v in self.classes.items()}


class ProjectorResult:
    """The projector E of a coherent configuration, verified exactly.

    `coefficients` is E over A1..A9; `matrix` its densely verified integer
    form, None above FULL_MATRIX_LIMIT; `axioms` the axiom check E rests on.
    """

    __slots__ = ("cc", "idem", "coefficients", "gram", "matrix", "axioms")

    def __init__(self, cc: CoherentConfig, idem: IdempotentCoefficients, coefficients: tuple,
                 gram: GramTable, matrix: Optional[_IntegerForm], axioms: AxiomReport):
        self.cc, self.idem, self.coefficients = cc, idem, coefficients
        self.gram, self.matrix, self.axioms = gram, matrix, axioms


# Lisonek's configuration and its complement (9 + 36 = 45 vertices each) get the
# dense check; the 276-vertex Witt configuration relies on the p_ij^k table,
# since the integer dense check there takes 0.09-0.13 s (medians of 9 runs,
# 2 vCPUs), about eight times the 0.012-0.016 s of the rest of
# projector_and_gram on Witt, axiom check included.
FULL_MATRIX_LIMIT = 128


def projector_and_gram(cc: CoherentConfig) -> ProjectorResult:
    """Assemble E = (eps11 + eps12 + eps21 + eps22)/2 and verify it exactly.

    Checks E = E^T, E^2 = E, trace(E) = m - 1, that E annihilates both fiber
    indicator vectors, and that every entry agrees with its pair-class value.
    Every value is written exactly as sum_r sqrt(r) N_r / D: D is the lcm of
    the coefficient denominators and N_r holds integers, one array per
    radicand r in {1, d1, d2, d1 d2}.  The eps identities and E^2 = E run on
    these numerators through the nonzero p_ij^k at every size, and E^2 = E
    also densely for configurations of at most FULL_MATRIX_LIMIT vertices,
    one integer matmul per radicand pair.  The dense matrices are int64
    only when size * max|N|^2 * (sum of the gcds g in sqrt(r) sqrt(s) =
    g sqrt(d)) and D * max|N| are both below 2^63, so no product can
    overflow; otherwise they hold Python integers.  The verified form is the
    result's `matrix`, None when the dense check did not run.
    """
    report = verify_axioms(cc)
    if not report.ok:
        raise DesignError(f"axioms fail: {report.violation}")
    idem = idempotent_basis(cc.params)
    constants = structure_constants(report.p)
    verify_epsilon_identities(constants, idem)
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
    gram = GramTable({
        name: coeffs[rel - 1] for rel, name in GRAM_CLASS_OF_RELATION.items()
        if rel not in (8, 9)
    })
    matrix = None
    if cc.size <= FULL_MATRIX_LIMIT:
        matrix = _integer_form(form, cc.labels - 1)
        _dense_checks(cc, matrix, gram)
    return ProjectorResult(cc, idem, coeffs, gram, matrix, report)


# ----- the dense check on the integer form -----------------------------------


class _IntegerForm(NamedTuple):
    """The matrix sum_r sqrt(r) * parts[r] / denominator, parts[r] integer."""

    denominator: int
    parts: dict  # radicand -> square integer ndarray, int64 or object dtype


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


def _integer_form(vector: tuple, index: np.ndarray) -> _IntegerForm:
    """Integer form of the matrix whose entry (a, b) is values[index[a, b]].

    `vector` is `_integer_vector(values)`.  The parts are int64 under the
    overflow bound stated in projector_and_gram and object (Python
    integers) otherwise.
    """
    denominator, tables = vector
    biggest = max((abs(n) for t in tables.values() for n in t), default=0)
    g_sum = sum(_sf_product(r, s)[0] for r in tables for s in tables)
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
    ridx = cc.labels - 1
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
