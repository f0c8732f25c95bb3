"""The fiber-block axiom check against the full-matrix triple loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodist.coherent import (
    TRANSPOSE_PAIRS,
    AxiomReport,
    CoherentConfig,
    from_design,
    verify_axioms,
)
from twodist.designs import IncidenceDesign, complement_design, derive_parameters, incidence_matrix


def dense_axioms_oracle(cc) -> AxiomReport:
    """Axiom (4) by all 81 full (m+n) x (m+n) products, each masked 9 times.

    The independent oracle for verify_axioms: it knows nothing of fibers, so
    its p table and its first violation in (i, j, k) order are the reference.
    """
    mats = [m.astype(np.int32) for m in cc.relations]
    if not (sum(mats) == 1).all():
        return AxiomReport(False, None, "relations do not partition the pair set")
    for i, expect in TRANSPOSE_PAIRS.items():
        if not (cc.relations[i - 1].T == cc.relations[expect - 1]).all():
            return AxiomReport(False, None, f"transpose of R{i} is not R{expect}")
    diag = cc.relations[0] + cc.relations[1]
    if not (np.diag(np.diag(diag)) == diag).all() or not (np.diag(diag) == 1).all():
        return AxiomReport(False, None, "R1 + R2 is not the diagonal")
    supports = [m.astype(bool) for m in cc.relations]
    p = np.zeros((9, 9, 9), dtype=np.int32)
    for i in range(9):
        for j in range(9):
            prod = mats[i] @ mats[j]
            for k in range(9):
                values = prod[supports[k]]
                if values.size == 0:
                    continue
                first = values[0]
                if not (values == first).all():
                    bad = tuple(int(v) for v in np.argwhere((prod != first) & supports[k])[0])
                    return AxiomReport(
                        False, None,
                        f"p_{i+1}{j+1}^{k+1} not constant: pair {bad} gives "
                        f"{int(prod[bad])}, expected {int(first)}")
                p[i, j, k] = first
    return AxiomReport(True, p)


def assert_same_report(cc):
    got, expected = verify_axioms(cc), dense_axioms_oracle(cc)
    assert (got.ok, got.violation) == (expected.ok, expected.violation)
    if expected.p is None:
        assert got.p is None
    else:
        assert got.p.dtype == expected.p.dtype
        assert np.array_equal(got.p, expected.p)
    return got


def with_relations(cc, rel):
    return dataclasses.replace(cc, relations=tuple(rel))


@pytest.fixture(scope="module")
def witt_cc(witt_design):
    return from_design(witt_design)


def test_matches_oracle_on_lisonek_complement_and_witt(lisonek_cc, lisonek, witt_cc):
    for cc in (lisonek_cc, from_design(complement_design(lisonek)), witt_cc):
        assert assert_same_report(cc).ok


def test_witt_constants_from_parameters(witt_cc):
    report = verify_axioms(witt_cc)
    params = witt_cc.params
    assert report.p_constant(4, 4, 2) == params.k        # block-graph degree
    assert report.p_constant(6, 8, 1) == params.T        # blocks through a point
    assert report.p_constant(6, 8, 3) == params.Lambda   # blocks through two points


# ----- corruptions of Lisonek's configuration ------------------------------

# Lisonek: 9 points, 36 blocks; every corruption keeps the partition, the
# transposes and the diagonal intact, so only axiom (4) can fail.
M, N = 9, 36


def swap_block_pair(rel, u, v):
    """Move one symmetric block pair from R4 to R5 or back."""
    a, b = M + u, M + v
    src, dst = (3, 4) if rel[3][a, b] else (4, 3)
    for x, y in ((a, b), (b, a)):
        rel[src][x, y], rel[dst][x, y] = 0, 1


def flip_incidence(rel, point, block):
    """Toggle (point, block) between R6 and R7, its transpose between R8 and R9."""
    col = M + block
    src, dst = (5, 6) if rel[5][point, col] else (6, 5)
    rel[src][point, col], rel[dst][point, col] = 0, 1
    rel[src + 2][col, point], rel[dst + 2][col, point] = 0, 1


def merge_r5_into_r4(rel):
    rel[3] = rel[3] + rel[4]
    rel[4] = np.zeros_like(rel[4])


block_pairs = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
    lambda t: t[0] != t[1])
corruptions = st.one_of(
    block_pairs.map(lambda t: (swap_block_pair, t)),
    st.tuples(st.integers(0, M - 1), st.integers(0, N - 1)).map(
        lambda t: (flip_incidence, t)),
    st.just((merge_r5_into_r4, ())),
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(corruptions, min_size=1, max_size=3))
def test_corruptions_match_oracle(lisonek_cc, steps):
    rel = [mat.copy() for mat in lisonek_cc.relations]
    for corrupt, args in steps:
        corrupt(rel, *args)
    assert_same_report(with_relations(lisonek_cc, rel))


# ----- the two edge cases ---------------------------------------------------


def test_relation_meeting_two_fiber_pairs(lisonek_cc):
    # fold R6 and R8 into R3: partition, transposes and diagonal still hold
    rel = [mat.copy() for mat in lisonek_cc.relations]
    rel[2] = rel[2] + rel[5] + rel[7]
    rel[5] = np.zeros_like(rel[5])
    rel[7] = np.zeros_like(rel[7])
    report = verify_axioms(with_relations(lisonek_cc, rel))
    assert not report.ok and report.p is None
    assert report.violation == "R3 meets more than one fiber pair"


def fano_configuration():
    """The Fano plane's configuration: any two lines meet in one point, so R5 is empty."""
    design = IncidenceDesign(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                                 (2, 3, 6), (2, 4, 5)))
    inc = incidence_matrix(design)
    eye, ones, zero = np.eye(7, dtype=np.int8), np.ones((7, 7), np.int8), np.zeros((7, 7), np.int8)
    pieces = [
        (eye, zero, zero, zero), (zero, zero, zero, eye), (ones - eye, zero, zero, zero),
        (zero, zero, zero, ones - eye), (zero, zero, zero, zero),
        (zero, inc, zero, zero), (zero, 1 - inc, zero, zero),
        (zero, zero, inc.T, zero), (zero, zero, (1 - inc).T, zero),
    ]
    rel = tuple(np.block([[vv, vb], [bv, bb]]) for vv, vb, bv, bb in pieces)
    return CoherentConfig(design, derive_parameters(7, 3, 1, 0), 1, 0, rel)


def test_empty_relation_is_skipped():
    report = assert_same_report(fano_configuration())
    assert report.ok
    assert not report.p[4].any() and not report.p[:, 4].any() and not report.p[:, :, 4].any()
    assert report.p_constant(4, 4, 2) == 6      # every other line
    assert report.p_constant(6, 8, 1) == 3      # lines through a point
    assert report.p_constant(6, 8, 3) == 1      # lines through two points
    assert report.p_constant(8, 6, 4) == 1      # points on two lines
