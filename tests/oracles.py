"""Helpers that several test modules share and no command runs.

They are kept out of src/twodist, which holds only what a command, a demo
or the benchmark calls (tests/test_reachability.py checks that).
"""

from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np

from twodist.coherent import GRAM_CLASS_OF_RELATION, CoherentConfig, _integer_vector
from twodist.designs import (
    IncidenceDesign, blocks_through_points, intersection_numbers, lambda_parts, pack, pair_counts,
    pair_witness)
from twodist.dioph import _integer_roots_between, _p1, _p2, _p3, _p_system_certificate, z_of
from twodist.errors import DegenerateParametersError, DesignError, InternalConsistencyError
from twodist.exactnum import QuadExt, _sf_product
from twodist.polynomials import Poly, _primitive


def complement_design(d: IncidenceDesign) -> IncidenceDesign:
    """Replace every block by its complement in the point set."""
    full = set(range(d.m))
    blocks = tuple(tuple(sorted(full - set(b))) for b in d.blocks)
    return IncidenceDesign(d.m, blocks)


def derived_design(d: IncidenceDesign, point: int) -> IncidenceDesign:
    """The blocks through `point`, less that point; the points above it move down one."""
    return IncidenceDesign(d.m - 1, tuple(tuple(x - (x > point) for x in b if x != point)
                                          for b in d.blocks if point in b))


def residual_design(d: IncidenceDesign, point: int) -> IncidenceDesign:
    """The blocks that miss `point`; the points above it move down one."""
    return IncidenceDesign(d.m - 1, tuple(tuple(x - (x > point) for x in b)
                                          for b in d.blocks if point not in b))


def block_masks(d: IncidenceDesign) -> list[int]:
    """Each block as a bitmask: bit p is set when point p lies in the block."""
    return [sum(1 << p for p in block) for block in d.blocks]


def intersection_numbers_by_pairs(d: IncidenceDesign) -> tuple[int, ...]:
    """The distinct |b & b'| over all distinct block pairs, one popcount per pair.

    The pairwise scan `designs.intersection_numbers` replaced: O(b^2)
    popcounts of two blocks' masks, with the refusals of
    `coherent.from_design` in its order: a point in no block first, then a
    single block.
    """
    covered = set(chain.from_iterable(d.blocks))
    if len(covered) < d.m:
        missing = next(p for p in range(d.m) if p not in covered)
        raise DesignError(f"point {missing} lies in no block")
    if d.block_count < 2:
        raise DesignError("need at least two blocks to intersect")
    masks = block_masks(d)
    return tuple(sorted({(a & b).bit_count() for i, a in enumerate(masks) for b in masks[:i]}))


class TDesignResult(NamedTuple):
    is_t_design: bool
    Lambda: Optional[int]
    witness: Optional[str] = None


def verify_t_design_by_walk(d: IncidenceDesign, t: int) -> TDesignResult:
    """Whether every t-subset of the points lies in the same number of blocks.

    One dict update per t-subset of a block, then every t-subset of the
    points visited in lexicographic order: the first whose count differs
    from the first subset's is the witness.  The package checks t = 2 only
    (`designs.pair_counts`); this walk is the reference for it and the
    check of every other t.
    """
    if not (1 <= t <= d.block_size):
        raise DesignError(f"t must be in [1, {d.block_size}], got {t}")
    counts: dict[tuple[int, ...], int] = {}
    for b in d.blocks:
        for sub in combinations(b, t):
            counts[sub] = counts.get(sub, 0) + 1
    subsets = combinations(range(d.m), t)
    first = next(subsets, None)
    if first is None:
        raise InternalConsistencyError(f"no {t}-subset of {d.m} points to count")
    want = counts.get(first, 0)
    for sub in subsets:
        c = counts.get(sub, 0)
        if c != want:
            return TDesignResult(
                False, None, f"{first} lies in {want} blocks but {sub} lies in {c}")
    return TDesignResult(True, want)


def block_intersections(d: IncidenceDesign) -> tuple[int, ...]:
    """`designs.intersection_numbers` on the point rows `coherent.from_design` packs.

    Every point must lie in a block: from_design checks that first.
    """
    return intersection_numbers(d, pack(blocks_through_points(d), d.block_count, d.block_size))


def pair_pass(d: IncidenceDesign) -> TDesignResult:
    """The 2-design check of `coherent.from_design`, as the walk reports it.

    `designs.pair_counts` on the block rows from_design packs, and on a
    failure `designs.pair_witness` on its point rows.
    """
    through = blocks_through_points(d)
    counts = pair_counts(through, pack(d.blocks, d.m, max(map(len, through))))
    if len(counts) == 1:
        return TDesignResult(True, counts[0])
    return TDesignResult(False, None, pair_witness(pack(through, d.block_count, d.block_size)))


def p_system_by_quadratics(smax: int, mmax: int) -> list:
    """`dioph.brute_solver` as the walk it replaced: one quadratic in m per (S, x).

    p1 has no y term and is quadratic in m with leading coefficient x^2, so
    each of the O(smax^2) pairs (S, x) gives its m as the integer roots of one
    quadratic; y, the exact recheck, the certificate and the order are brute_solver's.
    z comes from `dioph.z_of`, not from the chart brute_solver walks.
    """
    points = sorted(
        (S, m, x, y) for S in range(2, smax + 1) for x in range(1, S)
        for m in _integer_roots_between(lambda t: _p1(S, t, x, 0), S + 1, mmax)
        for y in _integer_roots_between(lambda t: _p2(S, m, x, t), 0, x - 1)
        if not (_p1(S, m, x, y) or _p2(S, m, x, y) or _p3(S, m, x, y)))
    out = []
    for S, m, x, y in points:
        z = z_of(S, m, x)
        assert z.denominator == 1, (S, m, x, y, z)
        out.append(_p_system_certificate(S, m, x, y, int(z)))
    return out


def poly_eval(p, values):
    """A `Poly` at a point, term by term, with exact scalars (int, Fraction, ...).

    `values` maps each of p's variables to its value; at an integer point
    the result is an int.
    """
    point = [values[v] for v in p.vars]
    total = 0
    for expo, coeff in p.terms.items():
        term = coeff
        for base, e in zip(point, expo):
            if e:
                term = term * base**e
        total = total + term
    return total


def poly_mul(a, b):
    """a * b by the schoolbook convolution: every pair of terms, no fast path.

    The result goes through the checking `Poly` constructor.
    """
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return Poly(a.vars, terms)


def compose_cleared_by_terms(p, subs):
    """`compose_cleared` term by term, with `poly_mul` and nothing shared.

    Each term c * prod(v^e) of p becomes c * prod(num_v^e * den_v^(deg_v - e)),
    every power formed by repeated `poly_mul` from the constant 1.
    """
    out_vars = next(iter(subs.values()))[0].vars
    one = Poly(out_vars, {(0,) * len(out_vars): 1})

    def power(q, n):
        out = one
        for _ in range(n):
            out = poly_mul(out, q)
        return out

    total = {}
    for expo, coeff in p.terms.items():
        term = Poly(out_vars, {(0,) * len(out_vars): coeff})
        for v, e in zip(p.vars, expo):
            d = p.degree(v)
            if d:
                num, den = subs[v]
                term = poly_mul(term, poly_mul(power(num, e), power(den, d - e)))
        for e, c in term.terms.items():
            total[e] = total.get(e, 0) + c
    return Poly(out_vars, total)


# ----- exact division and GCD on dense lists ----------------------------------------
# lowest degree first, as `polynomials.dense_coeffs` gives them; no command
# divides polynomials, but the oracles reduce a fiber or the strip by its GCD


def trim(a: Sequence[int]) -> list[int]:
    """a without its trailing zeros."""
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def dense_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer quotient and remainder of a by b.

    Every quotient coefficient must be an integer: this holds when b's leading
    coefficient is +-1 and when b divides a with a primitive b (Gauss's lemma).
    Otherwise ArithmeticError is raised.
    """
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = trim(a)
    q = [0] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        factor, left = divmod(rem[-1], b[-1])
        if left:
            raise ArithmeticError(f"{rem[-1]} is not divisible by the leading coefficient {b[-1]}")
        shift = len(rem) - len(b)
        q[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = trim(rem)
    return q, rem


def dense_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive GCD of two integer polynomials, positive leading coefficient.

    Euclid on pseudo-remainders, each made primitive, so every coefficient
    stays an integer: lead(b)^(deg a - deg b + 1) * a divides by b exactly.
    gcd(0, 0) is the zero polynomial [].
    """
    a, b = trim(a), trim(b)
    while b:
        b = _primitive(b)
        scale = b[-1] ** max(0, len(a) - len(b) + 1)
        a, b = b, dense_divmod([scale * c for c in a], b)[1]
    return _primitive(a) if a else []


# ----- the sequential parameter calculus -----------------------------------------


def sequential_parameters(m: int, S: int, alpha: int, beta: int) -> dict:
    """(Lambda, T, N, P, r, k, n, s) by Fraction arithmetic, one operation at a time.

    Lambda is divided out first and every other value is formed from it, each
    operation a reduced Fraction, with none of the numerator/denominator
    pairs of `designs.block_graph_formulas`.  A vanishing Lambda denominator
    raises DegenerateParametersError, as `derive_parameters` does.
    """
    S, m, alpha, beta = map(Fraction, (S, m, alpha, beta))
    num, den = lambda_parts(S, m, alpha, beta)
    if den == 0:
        raise DegenerateParametersError(
            f"degenerate parameters (m={m}, S={S}, alpha={alpha}, beta={beta})")
    lam = num / den
    t = (m - 1) * lam / (S - 1)
    excess = S * (S - 1) - beta * (m - 1)
    big_n = alpha * (m - S) * excess * lam / (S * (alpha - beta) * (S - alpha) * (S - 1))
    big_p = excess * lam / ((alpha - beta) * (S - 1))
    r = ((m - S) * lam / (S - 1) - (S - beta)) / (alpha - beta)
    k = (m - S) * excess * lam / ((alpha - beta) * (S - alpha) * (S - 1))
    n = m * t / S
    s = (beta - S) / (alpha - beta)
    return {"Lambda": lam, "T": t, "N": big_n, "P": big_p, "r": r, "k": k, "n": n, "s": s}


# ----- the exhaustive axiom check ------------------------------------------------
#
# `coherent.from_design` checks that the design is a quasi-symmetric 2-design and
# `verify_axioms` reads each p_ij^k off one pair of R_k; constancy is the
# classical theorem.
# This oracle builds the label matrix of every pair from a dense incidence
# matrix and checks the axioms on all of them, with the full p table.

TRANSPOSE_PAIRS = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 8, 7: 9, 8: 6, 9: 7}
SWAP = np.array([0, *TRANSPOSE_PAIRS.values()], dtype=np.int8)  # SWAP[i] = TRANSPOSE_PAIRS[i]


class AxiomVerdict(NamedTuple):
    """An exhaustive axiom check's verdict: the full p table, or the first violation."""

    ok: bool
    p: Optional[tuple]  # p[i-1][j-1][k-1] = p_ij^k, None on a violation
    violation: Optional[str] = None


def incidence_matrix(d: IncidenceDesign) -> np.ndarray:
    """The m x n 0/1 matrix (int8) with entry (p, j) = 1 when point p lies in block j."""
    inc = np.zeros((d.m, d.block_count), dtype=np.int8)
    points = np.fromiter(chain.from_iterable(d.blocks), dtype=np.intp,
                         count=d.block_count * d.block_size)
    inc[points, np.arange(d.block_count).repeat(d.block_size)] = 1
    return inc


def count_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact integer product a @ b of two integer matrices, as int32.

    numpy multiplies integer matrices in a plain loop but float32 ones in
    BLAS, so the product is taken in float32.  It is exact: every partial
    sum is an integer of absolute value at most inner * max|a| * max|b|,
    and float32 holds every integer up to 2^24 exactly, whatever the
    summation order, blocking, FMA or thread count.  That bound is checked
    before anything is converted; a DesignError is raised when it reaches
    2^24.  Only the int32 result leaves this function.
    """
    if a.dtype.kind not in "biu" or b.dtype.kind not in "biu":
        raise TypeError(f"count_product needs integer matrices, got {a.dtype} and {b.dtype}")
    if a.size and b.size:
        bound = a.shape[1] * max(int(a.max()), -int(a.min())) * max(int(b.max()), -int(b.min()))
        if bound >= 2 ** 24:
            raise DesignError(
                f"a {a.shape} x {b.shape} count product may reach {bound}, "
                f"past float32's exact integers (2^24)")
    return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.int32)


def label_matrix(cc: CoherentConfig) -> np.ndarray:
    """labels[u, v] = i (int8) for the relation R_i holding (u, v); R4 is the larger intersection."""
    inc = incidence_matrix(cc.design)
    inter = count_product(inc.T, inc)
    m = cc.m
    labels = np.empty((cc.size,) * 2, dtype=np.int8)
    labels[:m, :m] = 3
    labels[m:, m:] = 5
    labels[m:, m:][inter == cc.params.alpha] = 4
    labels[:m, m:] = 7 - inc
    labels[m:, :m] = 9 - inc.T
    np.fill_diagonal(labels[:m, :m], 1)
    np.fill_diagonal(labels[m:, m:], 2)
    return labels


def as_table(p: np.ndarray) -> tuple:
    """A 9 x 9 x 9 array as the nested tuples `coherent.verify_axioms` returns."""
    return tuple(tuple(map(tuple, plane)) for plane in p.tolist())


def fiber_block_axioms(cc: CoherentConfig, labels=None) -> AxiomVerdict:
    """Exhaustively check the coherent-configuration axioms on a label matrix.

    `labels` defaults to `label_matrix(cc)`.  (1) every label lies in 1..9,
    so the relations R_i = (labels == i) partition all ordered pairs, (2)
    each relation's transpose is again a relation, (3) R1 + R2 is the
    diagonal of V + B, (4) |{w : (u,w) in R_i, (w,v) in R_j}| is constant
    over (u,v) in R_k.  Returns the full table of constants, or the first
    violation found in (i, j, k) order.

    (2) is one lookup, SWAP[labels] against labels^T; (3) asks for diagonal
    labels in {1, 2} and no other label 1 or 2.  The diagonal then gives the
    fibers X_1 (label 1) and X_2 (label 2); one permutation puts the labels
    in fiber order, each fiber ascending, unless they already are (as
    `label_matrix` builds them), and the four label blocks L_ab on X_a x X_b
    are slices.  A bincount of each block says which relations meet it; a
    relation in more than one block fails with "R{i} meets more than one
    fiber pair", since p_{Δa,R}^R = [u in X_a] must be constant on R.

    (4) then runs block by block.  A_i A_j is zero unless R_i's column fiber
    is R_j's row fiber, and otherwise lives in one block (a, c).  R1 and R2
    are the identity on their fiber, so A_1 A_j = A_j and A_i A_2 = A_i:
    p_ij^k is a Kronecker delta there, with no product and no comparison.
    For any other R_i on X_a x X_b and each target fiber c, the relations
    R_j in block (b, c) partition it, so the sum of their A_j is the
    all-ones J and sum_j A_i A_j = A_i J = rowsum(A_i) 1^T, an exact integer
    identity.  Every non-identity product of the block but the last is a
    `count_product`; the last is rowsum(A_i) 1^T less the others, less A_i
    itself when R_b's identity lies in the block.  Each product, multiplied
    or derived, is compared entry by entry with its expected values, the
    value at each R_k's first pair looked up through L_ac.  A_i's products
    are all formed before any is checked, and checked in j order; the first
    violation is the least k, then the first pair in row-major order, which
    fiber order keeps equal to the caller's order, and the pair is named in
    the caller's numbering.
    """
    if labels is None:
        labels = label_matrix(cc)
    if labels.min() < 1 or labels.max() > 9:
        return AxiomVerdict(False, None, "relations do not partition the pair set")
    bad = SWAP.take(labels) != labels.T
    if bad.any():
        # R_i fails iff a mismatched entry carries i or SWAP[i]; bad is symmetric
        seen = labels[bad]
        i = int(min(seen.min(), SWAP.take(seen).min()))
        return AxiomVerdict(False, None, f"transpose of R{i} is not R{SWAP[i]}")
    diag = np.diagonal(labels)
    size = cc.size  # a label matrix of any other size fails (3)
    if np.count_nonzero(diag <= 2) != size or np.count_nonzero(labels <= 2) != size:
        return AxiomVerdict(False, None, "R1 + R2 is not the diagonal")
    m = int(np.count_nonzero(diag == 1))
    order = None
    if not (diag[:m] == 1).all():
        order = np.argsort(diag, kind="stable")
        labels = labels[np.ix_(order, order)]
    cuts, offsets = (slice(0, m), slice(m, size)), (0, m)
    blocks = {(a, b): labels[cuts[a], cuts[b]] for a in (0, 1) for b in (0, 1)}
    met = {ab: np.bincount(block.ravel(), minlength=10)[1:] for ab, block in blocks.items()}
    pairs: list = []  # (a, b) per relation, None when empty
    for i in range(9):
        hit = [ab for ab, counts in met.items() if counts[i]]
        if len(hit) > 1:
            return AxiomVerdict(False, None, f"R{i+1} meets more than one fiber pair")
        pairs.append(hit[0] if hit else None)
    members = {ab: [k for k in range(9) if pairs[k] == ab] for ab in blocks}
    rels = [None, None] + [None if pairs[i] is None else blocks[pairs[i]] == i + 1
                           for i in range(2, 9)]
    # flat index of each relation's first pair in its block; (0, 0) for R1 and R2
    firsts = np.array([0, 0] + [0 if r is None else int(np.argmax(r)) for r in rels[2:]])
    p = np.zeros((9, 9, 9), dtype=np.int32)
    for j, pair in enumerate(pairs):
        if pair is not None:  # R_a is the identity on X_a: A_a A_j = A_j A_b = A_j
            a, b = pair
            p[a, j, j] = p[j, b, j] = 1
    for i in range(2, 9):
        if pairs[i] is None:
            continue
        a, b = pairs[i]
        prods = {}
        for c in (0, 1):
            js = [j for j in members[b, c] if j >= 2]
            if not js:
                continue  # the block holds R_b's identity alone
            for j in js[:-1]:
                prods[j] = count_product(rels[i], rels[j])
            last = np.empty((rels[i].shape[0], blocks[b, c].shape[1]), dtype=np.int32)
            last[:] = rels[i].sum(axis=1, dtype=np.int32)[:, None]
            for j in js[:-1]:
                last -= prods[j]
            if c == b:
                last -= rels[i]
            prods[js[-1]] = last
        for j in sorted(prods):
            prod, c = prods[j], pairs[j][1]
            ks = members[a, c]
            values = prod.ravel()[firsts[ks]]
            table = np.zeros(10, dtype=np.int32)
            table[np.add(ks, 1)] = values
            label_block = blocks[a, c]
            bad = prod != table.take(label_block)
            if bad.any():
                k = int(label_block[bad].min())
                r, col = np.argwhere(bad & (label_block == k))[0]
                pair = (offsets[a] + int(r), offsets[c] + int(col))
                if order is not None:
                    pair = (int(order[pair[0]]), int(order[pair[1]]))
                return AxiomVerdict(
                    False, None,
                    f"p_{i+1}{j+1}^{k} not constant: pair {pair} gives "
                    f"{int(prod[r, col])}, expected {int(table[k])}")
            p[i, j, ks] = values
    return AxiomVerdict(True, as_table(p))


# ----- the dense projector check -------------------------------------------------
#
# `projector_and_gram` proves E^2 = E, E^T = E and trace(E) = m - 1 in the
# adjacency algebra.  This oracle checks them again on the dense N x N matrix,
# entry by entry, and also that each entry is its Gram class value.


class IntegerForm(NamedTuple):
    """The matrix sum_r sqrt(r) * parts[r] / denominator, parts[r] integer."""

    denominator: int
    parts: dict  # radicand -> square integer ndarray, int64 or object dtype


def integer_form(vector: tuple, index: np.ndarray) -> IntegerForm:
    """Integer form of the matrix whose entry (a, b) is values[index[a, b]].

    `vector` is `_integer_vector(values)`.  The parts are int64 only when
    size * max|N|^2 * (sum of the gcds g in sqrt(r) sqrt(s) = g sqrt(d)) and
    D * max|N| are both below 2^63, so no product in `integer_square` or
    `dense_checks` can overflow; otherwise they hold Python integers.
    """
    denominator, tables = vector
    biggest = max((abs(n) for t in tables.values() for n in t), default=0)
    g_sum = sum(_sf_product(r, s)[0] for r in tables for s in tables)
    fits = (index.shape[0] * biggest ** 2 * g_sum < 2 ** 63
            and denominator * biggest < 2 ** 63)
    dtype = np.int64 if fits else object
    return IntegerForm(
        denominator, {r: np.array(t, dtype=dtype)[index] for r, t in tables.items()})


def projector_form(result, coeffs=None) -> IntegerForm:
    """The integer form of a `ProjectorResult`'s E, or of the E with coefficients `coeffs`."""
    coeffs = result.coefficients if coeffs is None else coeffs
    return integer_form(_integer_vector(coeffs), label_matrix(result.cc) - 1)


def integer_square(form: IntegerForm) -> dict:
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


def dense_checks(cc: CoherentConfig, form: IntegerForm, gram: dict) -> None:
    """E = E^T, class agreement, E^2 = E and trace(E) = m - 1, entry by entry."""
    ridx = label_matrix(cc) - 1
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
    square = integer_square(form)
    for d in square.keys() | form.parts.keys():
        _require_equal(square.get(d, zero), form.denominator * form.parts.get(d, zero),
                       f"E^2 != E in the sqrt({d}) part")
    trace = QuadExt({r: Fraction(int(np.trace(part)), form.denominator)
                     for r, part in form.parts.items()})
    if trace != QuadExt(cc.m - 1):
        raise InternalConsistencyError(f"dense trace {trace} differs from m - 1")
