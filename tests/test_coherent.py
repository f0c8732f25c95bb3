import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from twodist.coherent import (
    DegenerateRepresentationError,
    StructureError,
    algebra_product,
    from_design,
    idempotent_basis,
    verify_axioms,
    verify_epsilon_identities,
)
from twodist.designs import IncidenceDesign, derive_parameters
from twodist.exactnum import QuadExt, parse_scalar

GOLDEN_GRAM = {
    "V_diag": "4/9",
    "V_off": "-1/18",
    "VB_in": "-1/18*sqrt(7)",
    "VB_out": "1/63*sqrt(7)",
    "B_diag": "1/9",
    "B_alpha": "5/126",
    "B_beta": "-2/63",
}


def test_relation_sizes(lisonek_cc):
    sizes = [int(m.sum()) for m in lisonek_cc.relations]
    # |R3| = m(m-1), |R4| = n k, |R6| = n S
    assert sizes == [9, 36, 72, 504, 756, 72, 252, 72, 252]


def test_relations_partition(lisonek_cc):
    total = sum(m.astype(int) for m in lisonek_cc.relations)
    assert (total == 1).all()


def test_complement_r4_uses_larger_intersection(lisonek):
    from twodist.designs import complement_design

    cc = from_design(complement_design(lisonek))
    assert cc.alpha == 6 and cc.beta == 5
    inter = np.array([
        [len(set(a) & set(b)) for b in cc.design.blocks] for a in cc.design.blocks
    ])
    r4 = cc.relations[3][9:, 9:].astype(bool)
    assert (inter[r4] == 6).all()


def test_not_quasi_symmetric_rejected():
    with pytest.raises(StructureError):
        from_design(IncidenceDesign(4, ((0, 1), (2, 3))))


def test_axioms_and_intersection_constants(lisonek_cc):
    report = verify_axioms(lisonek_cc)
    assert report.ok
    assert report.p_constant(3, 3, 3) == 7          # common points of a point pair
    assert report.p_constant(4, 4, 4) == 7          # block-graph lambda
    assert report.p_constant(4, 4, 2) == 14         # block-graph degree k
    assert report.p_constant(6, 8, 1) == 8          # blocks through a point: T
    assert report.p_constant(6, 8, 3) == 1          # Lambda


def test_axiom_table_consistency(lisonek_cc):
    # A_i A_j = sum_k p_ij^k A_k reassembles exactly
    report = verify_axioms(lisonek_cc)
    mats = [m.astype(np.int64) for m in lisonek_cc.relations]
    for i in (0, 2, 3, 5, 8):
        for j in (1, 3, 4, 6, 7):
            expect = sum(int(report.p[i, j, k]) * mats[k] for k in range(9))
            assert (mats[i] @ mats[j] == expect).all()


def test_idempotent_coefficients(lisonek_cc):
    idem = idempotent_basis(lisonek_cc.params)
    assert idem.alpha1 == QuadExt(4)
    assert idem.alpha2 == QuadExt(14)
    assert idem.beta1 == parse_scalar("sqrt(7)")
    assert idem.beta2 == -parse_scalar("sqrt(7)")
    assert idem.eps11[0] == QuadExt(Fraction(8, 9))
    assert idem.eps11[2] == QuadExt(Fraction(-1, 9))
    # A2 coefficient of eps22 is twice the B-diagonal Gram entry 1/9
    assert idem.eps22[1] == QuadExt(Fraction(2, 9))
    assert idem.eps22[3] == QuadExt(Fraction(5, 63))
    assert idem.eps22[4] == QuadExt(Fraction(-4, 63))


def test_epsilon_matrix_unit_identities(lisonek_cc, lisonek_projector):
    report = verify_axioms(lisonek_cc)
    verify_epsilon_identities(report.p, lisonek_projector.idem)


def test_algebra_product_matches_matrices(lisonek_cc, lisonek_projector):
    report = verify_axioms(lisonek_cc)
    coeffs = lisonek_projector.coefficients
    square = algebra_product(report.p, coeffs, coeffs)
    assert tuple(square) == tuple(coeffs)


def test_gram_table_golden(lisonek_projector):
    gram = lisonek_projector.gram
    for key, value in GOLDEN_GRAM.items():
        assert gram[key] == parse_scalar(value), key


def test_projector_trace_and_symmetry(lisonek_projector):
    e = lisonek_projector.matrix
    assert e is not None
    trace = QuadExt(0)
    for i in range(len(e)):
        trace = trace + e[i][i]
    assert trace == QuadExt(8)
    assert e[0][9] == e[9][0]


def test_projector_annihilates_fiber_indicators(lisonek_projector):
    e = lisonek_projector.matrix
    m = 9
    for row in e:
        v_sum = QuadExt(0)
        for value in row[:m]:
            v_sum = v_sum + value
        b_sum = QuadExt(0)
        for value in row[m:]:
            b_sum = b_sum + value
        assert v_sum.is_zero() and b_sum.is_zero()


def test_complement_projector(complement_projector):
    gram = complement_projector.gram
    # same block graph, mirrored point-block classes
    assert gram["B_diag"] == QuadExt(Fraction(1, 9))
    assert gram["B_alpha"] == QuadExt(Fraction(5, 126))
    assert gram["VB_in"] == parse_scalar("-1/63*sqrt(7)")
    assert gram["VB_out"] == parse_scalar("1/18*sqrt(7)")


def test_witt_configuration_algebra(witt_design):
    # 276-point configuration: checked through the verified constant table
    from twodist.coherent import projector_and_gram

    cc = from_design(witt_design)
    assert cc.params.Lambda == 21 and cc.params.n == 253
    result = projector_and_gram(cc)
    assert result.matrix is None
    assert result.gram["V_diag"] == QuadExt(Fraction(22, 46))


def test_row_sum_identity_behind_fiber_annihilation():
    # (k - N) S / P = m - S makes the point-fiber row sums over V vanish
    for args in ((9, 2, 1, 0), (27, 7, 3, 1), (90, 26, 10, 6), (23, 7, 3, 1),
                 (9, 7, 6, 5)):
        p = derive_parameters(*args)
        assert (p.k - p.N) * p.S / p.P == p.m - p.S, args


def test_degenerate_representation_guard():
    # a parameter set with P = 0 must be refused, not divided by
    p = derive_parameters(9, 2, 1, 0)
    broken = type(p)(p.m, p.S, p.alpha, p.beta, p.Lambda, p.T, p.N,
                     Fraction(0), p.n, p.k, p.r, p.s)
    with pytest.raises(DegenerateRepresentationError):
        idempotent_basis(broken)


def test_axiom_violation_reports_plain_integers(lisonek_cc):
    # move one symmetric block pair from R4 to R5: the R4 degree breaks
    rel = [mat.copy() for mat in lisonek_cc.relations]
    m = lisonek_cc.m
    u, v = (int(i) + m for i in np.argwhere(rel[3][m:, m:])[0])
    for a, b in ((u, v), (v, u)):
        rel[3][a, b], rel[4][a, b] = 0, 1
    report = verify_axioms(dataclasses.replace(lisonek_cc, relations=tuple(rel)))
    assert not report.ok
    assert report.violation == "p_44^2 not constant: pair (11, 11) gives 14, expected 13"
