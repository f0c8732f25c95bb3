from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodist import coherent
from twodist.coherent import (
    _integer_vector,
    _require_product,
    algebra_product,
    from_design,
    idempotent_basis,
    relation_row,
    structure_constants,
    verify_axioms,
    verify_epsilon_identities,
)
from twodist.designs import IncidenceDesign, derive_parameters
from twodist.errors import DesignError, InternalConsistencyError
from twodist.exactnum import QuadExt, parse_scalar

from oracles import (
    complement_design, dense_checks, fiber_block_axioms, label_matrix, projector_form)

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
    sizes = [0] * 9
    for u in range(lisonek_cc.size):
        for i in relation_row(lisonek_cc, u):
            sizes[i] += 1
    # |R3| = m(m-1), |R4| = n k, |R6| = n S
    assert sizes == [9, 36, 72, 504, 756, 72, 252, 72, 252]


def test_relations_partition(lisonek_cc):
    # the exhaustive oracle: a label outside 1..9 leaves its pair in no relation
    for bad in (0, 10, -1):
        labels = label_matrix(lisonek_cc)
        labels[3, 20] = bad
        report = fiber_block_axioms(lisonek_cc, labels)
        assert not report.ok and report.p is None
        assert report.violation == "relations do not partition the pair set"


def test_complement_r4_uses_larger_intersection(lisonek):
    cc = from_design(complement_design(lisonek))
    assert cc.params.alpha == 6 and cc.params.beta == 5
    for u, a in enumerate(cc.design.blocks):
        row = relation_row(cc, 9 + u)[9:]
        for v, b in enumerate(cc.design.blocks):
            if u != v:
                assert (row[v] == 3) == (len(set(a) & set(b)) == 6)


def test_not_quasi_symmetric_rejected():
    with pytest.raises(DesignError, match="design is not quasi-symmetric"):
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
    labels = label_matrix(lisonek_cc)
    mats = [(labels == k).astype(np.int64) for k in range(1, 10)]
    for i in (0, 2, 3, 5, 8):
        for j in (1, 3, 4, 6, 7):
            expect = sum(report.p[i][j][k] * mats[k] for k in range(9))
            assert (mats[i] @ mats[j] == expect).all()


def test_idempotent_coefficients(lisonek_cc):
    idem = idempotent_basis(lisonek_cc.params)
    # alpha1 = 4, alpha2 = 14, beta1 = -beta2 = sqrt(7): the 2x2 determinant is
    # -18 sqrt(7), and eps12 = eps21^T holds alpha2 / det and -alpha1 / det
    assert idem[1, 2][5] == idem[2, 1][7] == parse_scalar("-1/9*sqrt(7)")
    assert idem[1, 2][6] == idem[2, 1][8] == parse_scalar("2/63*sqrt(7)")
    assert idem[1, 1][0] == QuadExt(Fraction(8, 9))
    assert idem[1, 1][2] == QuadExt(Fraction(-1, 9))
    # A2 coefficient of eps22 is twice the B-diagonal Gram entry 1/9
    assert idem[2, 2][1] == QuadExt(Fraction(2, 9))
    assert idem[2, 2][3] == QuadExt(Fraction(5, 63))
    assert idem[2, 2][4] == QuadExt(Fraction(-4, 63))


def quadext_algebra_product(p_table: tuple, u, v) -> tuple:
    """Product of two adjacency-algebra elements given by QuadExt coefficient vectors.

    (sum_i u_i A_i)(sum_j v_j A_j) = sum_k (sum_{ij} u_i v_j p_ij^k) A_k.
    The algebra checks ran on this loop before the integer product; it stays
    here as the independent oracle for ``algebra_product``.
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
                c = p_table[i][j][k]
                if c:
                    out[k] = out[k] + uv * c
    return tuple(out)


def integer_product(constants: tuple, u, v) -> tuple:
    """algebra_product on the integer forms of u and v, read back as QuadExt values."""
    (du, nu), (dv, nv) = _integer_vector(u), _integer_vector(v)
    prod = algebra_product(constants, nu, nv)
    return tuple(QuadExt({d: Fraction(n[k], du * dv) for d, n in prod.items()})
                 for k in range(9))


def test_epsilon_matrix_unit_identities(lisonek_cc):
    report = verify_axioms(lisonek_cc)
    verify_epsilon_identities(structure_constants(report.p), idempotent_basis(lisonek_cc.params))


def test_algebra_product_matches_matrices(lisonek_cc, lisonek_projector):
    report = verify_axioms(lisonek_cc)
    coeffs = lisonek_projector.coefficients
    square = quadext_algebra_product(report.p, coeffs, coeffs)
    assert tuple(square) == tuple(coeffs)
    assert integer_product(structure_constants(report.p), coeffs, coeffs) == square


def test_structure_constants_are_the_nonzero_table(lisonek_cc):
    p = verify_axioms(lisonek_cc).p
    rebuilt = [[[0] * 9 for _ in range(9)] for _ in range(9)]
    for i, j, ks in structure_constants(p):
        assert ks and all(c for _, c in ks)
        for k, c in ks:
            rebuilt[i][j][k] = c
    assert tuple(tuple(map(tuple, plane)) for plane in rebuilt) == p


@pytest.fixture(scope="session")
def p_tables(lisonek_cc, lisonek, witt_design):
    configs = (lisonek_cc, from_design(complement_design(lisonek)), from_design(witt_design))
    return [verify_axioms(cc).p for cc in configs]


# Q(sqrt(d1), sqrt(d2)) as its basis {1, d1, d2, d1 d2 / gcd^2}; the gcds make
# sqrt(r) sqrt(s) = g sqrt(d) with g > 1 (sqrt(6) sqrt(10) = 2 sqrt(15))
ALGEBRA_FIELDS = ((1, 7), (1, 2, 3, 6), (1, 6, 10, 15), (1, 5, 14, 70))
coefficients = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))


@st.composite
def algebra_vectors(draw, radicands) -> tuple:
    entry = st.dictionaries(st.sampled_from(radicands), coefficients, max_size=len(radicands))
    return tuple(QuadExt(draw(entry)) if draw(st.booleans()) else QuadExt(0)
                 for _ in range(9))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_algebra_product_matches_quadext_oracle(p_tables, data):
    radicands = data.draw(st.sampled_from(ALGEBRA_FIELDS))
    u = data.draw(algebra_vectors(radicands))
    v = data.draw(algebra_vectors(radicands))
    for table in p_tables:
        expected = quadext_algebra_product(table, u, v)
        assert integer_product(structure_constants(table), u, v) == expected


def test_epsilon_failure_names_product_relation_and_radicand(lisonek_cc):
    # eps_22's B_alpha (A4) coefficient off by 1/63: eps_11 eps_22 = 0 still
    # holds (the point and block fibers do not meet), eps_12 eps_22 is first
    idem = idempotent_basis(lisonek_cc.params)
    eps22 = list(idem[2, 2])
    eps22[3] = eps22[3] + Fraction(1, 63)
    broken = {**idem, (2, 2): tuple(eps22)}
    constants = structure_constants(verify_axioms(lisonek_cc).p)
    with pytest.raises(InternalConsistencyError) as err:
        verify_epsilon_identities(constants, broken)
    assert str(err.value) == "eps_12 eps_22 != delta * eps_12 in the sqrt(7) part at R6"


@pytest.mark.parametrize("pair", [(a, b) for a in ("11", "12", "21", "22")
                                  for b in ("11", "12", "21", "22")])
def test_every_epsilon_product_is_checked(lisonek_cc, monkeypatch, pair):
    # a product that comes back one off in its rational R1 part must fail, and
    # must be the one named
    idem = idempotent_basis(lisonek_cc.params)
    forms = {f"{i}{j}": _integer_vector(vec)[1] for (i, j), vec in idem.items()}
    exact = coherent.algebra_product

    def off_by_one(constants, u, v):
        prod = exact(constants, u, v)
        if (u, v) == (forms[pair[0]], forms[pair[1]]):
            prod.setdefault(1, [0] * 9)[0] += 1
        return prod

    monkeypatch.setattr(coherent, "algebra_product", off_by_one)
    constants = structure_constants(verify_axioms(lisonek_cc).p)
    with pytest.raises(InternalConsistencyError) as err:
        verify_epsilon_identities(constants, idem)
    assert str(err.value).startswith(f"eps_{pair[0]} eps_{pair[1]} != ")
    assert str(err.value).endswith(" in the sqrt(1) part at R1")


def test_projector_square_failure_names_relation_and_radicand(lisonek_cc, lisonek_projector):
    constants = structure_constants(verify_axioms(lisonek_cc).p)
    coeffs = list(lisonek_projector.coefficients)
    form = _integer_vector(coeffs)
    _require_product(constants, form, form, form, "E^2 != E")
    coeffs[6] = coeffs[6] + QuadExt({7: Fraction(1, 126)})
    form = _integer_vector(coeffs)
    with pytest.raises(InternalConsistencyError) as err:
        _require_product(constants, form, form, form, "E^2 != E")
    assert str(err.value) == "E^2 != E in the sqrt(1) part at R1"


def test_gram_table_golden(lisonek_projector):
    gram = lisonek_projector.gram
    for key, value in GOLDEN_GRAM.items():
        assert gram[key] == parse_scalar(value), key


def test_projector_trace_and_symmetry(lisonek_cc, lisonek_projector, relation_rows):
    e = relation_rows(lisonek_cc, lisonek_projector.coefficients)
    trace = QuadExt(0)
    for i in range(len(e)):
        trace = trace + e[i][i]
    assert trace == QuadExt(8)
    assert e[0][9] == e[9][0]


def test_projector_annihilates_fiber_indicators(lisonek_cc, lisonek_projector, relation_rows):
    e = relation_rows(lisonek_cc, lisonek_projector.coefficients)
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


def test_witt_configuration_algebra(witt_projector):
    # 276-point configuration: checked through the verified constant table
    params = witt_projector.cc.params
    assert params.Lambda == 21 and params.n == 253
    assert witt_projector.gram["V_diag"] == QuadExt(Fraction(22, 46))


def test_dense_oracle_on_lisonek_complement_and_witt(
        lisonek_projector, complement_projector, witt_projector, relation_rows):
    for result in (lisonek_projector, complement_projector, witt_projector):
        dense_checks(result.cc, projector_form(result), result.gram)
    # every entry of sum_r sqrt(r) N_r / D is the coefficient of its relation
    # (in plain Python, which would take 1.5 s on Witt's 276^2 entries)
    for result in (lisonek_projector, complement_projector):
        form = projector_form(result)
        rows = relation_rows(result.cc, result.coefficients)
        for a in range(result.cc.size):
            for b in range(result.cc.size):
                entry = QuadExt({r: Fraction(int(part[a, b]), form.denominator)
                                 for r, part in form.parts.items()})
                assert entry == rows[a][b], (a, b)


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
    with pytest.raises(DesignError, match="P = 0 leaves alpha2 undefined"):
        idempotent_basis(broken)


def test_axiom_violation_reports_plain_integers(lisonek_cc):
    # the exhaustive oracle: move one symmetric block pair from R4 to R5, and
    # the R4 degree breaks
    labels = label_matrix(lisonek_cc)
    m = lisonek_cc.m
    u, v = (int(i) + m for i in np.argwhere(labels[m:, m:] == 4)[0])
    labels[u, v] = labels[v, u] = 5
    report = fiber_block_axioms(lisonek_cc, labels)
    assert not report.ok
    assert report.violation == "p_44^2 not constant: pair (11, 11) gives 14, expected 13"
