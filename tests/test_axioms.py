"""The fiber-block axiom check against the full-matrix triple loop, and the
embedding pipeline on the same designs."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodist.coherent import (
    TRANSPOSE_PAIRS,
    AxiomReport,
    CoherentConfig,
    from_design,
    projector_and_gram,
    verify_axioms,
)
from twodist.designs import (
    IncidenceDesign,
    derive_parameters,
    incidence_matrix,
    lisonek_design,
    load_design,
)
from twodist.geometry import (
    p_residuals,
    spectrum_from_gram,
    theoretical_spectrum,
    two_distance_classify,
)

from oracles import complement_design

DATA_DIR = Path(__file__).parent / "data"


def dense_axioms_oracle(cc) -> AxiomReport:
    """Axiom (4) by all 81 full (m+n) x (m+n) products, each masked 9 times.

    The independent oracle for verify_axioms: it knows nothing of fibers, so
    its p table and its first violation in (i, j, k) order are the reference.
    """
    if not np.isin(cc.labels, range(1, 10)).all():
        return AxiomReport(False, None, "relations do not partition the pair set")
    supports = [cc.labels == k for k in range(1, 10)]
    mats = [m.astype(np.int32) for m in supports]
    for i, expect in TRANSPOSE_PAIRS.items():
        if not (supports[i - 1].T == supports[expect - 1]).all():
            return AxiomReport(False, None, f"transpose of R{i} is not R{expect}")
    diag = mats[0] + mats[1]
    if not (np.diag(np.diag(diag)) == diag).all() or not (np.diag(diag) == 1).all():
        return AxiomReport(False, None, "R1 + R2 is not the diagonal")
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


# ----- the labels against a set-based derivation ---------------------------


def pairs_design(m):
    """2-(m,2,1): every 2-subset of m points is a block."""
    return IncidenceDesign(m, tuple(combinations(range(m), 2)))


def affine_plane_3():
    """AG(2,3) as STS(9): point 3x + y, the lines y = ax + b and x = c over Z_3."""
    lines = [{3 * x + (a * x + b) % 3 for x in range(3)} for a in range(3) for b in range(3)]
    lines += [{3 * c + y for y in range(3)} for c in range(3)]
    return IncidenceDesign(9, tuple(tuple(sorted(line)) for line in lines))


SMALL_DESIGNS = {
    **{f"pairs-{m}": (lambda m=m: pairs_design(m)) for m in range(4, 9)},
    "AG(2,3)": affine_plane_3,
}
DESIGNS = {
    "lisonek": lisonek_design,
    "lisonek-complement": lambda: complement_design(lisonek_design()),
    "witt": lambda: load_design(DATA_DIR / "witt_4_23_7_1.json"),
    **SMALL_DESIGNS,
}


def set_labels(design) -> list:
    """Each pair's relation label, read off the blocks as plain Python sets.

    1/3 point-point, 2/4/5 block-block by |b & b'| (4 for the larger value),
    6/7 point in / not in block, 8/9 their transposes.
    """
    m, blocks = design.m, [set(b) for b in design.blocks]
    alpha = max(len(a & b) for i, a in enumerate(blocks) for b in blocks[:i])

    def label(u, v):
        if u < m and v < m:
            return 1 if u == v else 3
        if u >= m and v >= m:
            if u == v:
                return 2
            return 4 if len(blocks[u - m] & blocks[v - m]) == alpha else 5
        if u < m:
            return 6 if u in blocks[v - m] else 7
        return 8 if v in blocks[u - m] else 9

    size = m + len(blocks)
    return [[label(u, v) for v in range(size)] for u in range(size)]


@pytest.mark.parametrize("name", DESIGNS)
def test_labels_match_set_derivation(name):
    design = DESIGNS[name]()
    assert from_design(design).labels.tolist() == set_labels(design)


@pytest.mark.parametrize("name", SMALL_DESIGNS)
def test_matches_oracle_on_small_designs(name):
    # the oracle runs on the other three in test_matches_oracle_on_lisonek_complement_and_witt
    assert assert_same_report(from_design(SMALL_DESIGNS[name]())).ok


# ----- the embedding pipeline -----------------------------------------------


@pytest.fixture(scope="module")
def projectors(witt_cc):
    return {name: projector_and_gram(witt_cc if name == "witt" else from_design(make()))
            for name, make in DESIGNS.items()}


@pytest.mark.parametrize("branch", ["gt2", "lt2"])
@pytest.mark.parametrize("name", DESIGNS)
def test_two_distance_exactly_where_the_residuals_vanish(name, branch, projectors):
    """embed's pipeline: two-distance iff (p1, p2, p3) = 0 on the branch iff Lisonek, gamma > 2."""
    result = projectors[name]
    p = result.cc.params
    r2 = theoretical_spectrum(p.S, p.m, p.alpha, p.beta, branch).r2
    spec = spectrum_from_gram(result.gram, r2, 1 if branch == "gt2" else -1)
    two_distance = two_distance_classify(spec).is_two_distance
    residuals = getattr(p_residuals(p.S, p.m, p.alpha, p.beta), branch)
    assert two_distance == (residuals == (0, 0, 0)) == ((p.S, p.m, branch) == (2, 9, "gt2"))


# ----- corruptions of Lisonek's configuration ------------------------------

# Lisonek: 9 points, 36 blocks; every corruption keeps the partition, the
# transposes and the diagonal intact, so only axiom (4) can fail.
M, N = 9, 36


def swap_block_pair(labels, u, v):
    """Move one symmetric block pair from R4 to R5 or back."""
    a, b = M + u, M + v
    labels[a, b] = labels[b, a] = 9 - labels[a, b]


def flip_incidence(labels, point, block):
    """Toggle (point, block) between R6 and R7, its transpose between R8 and R9."""
    col = M + block
    labels[point, col] = 13 - labels[point, col]
    labels[col, point] = 17 - labels[col, point]


def merge_r5_into_r4(labels):
    labels[labels == 5] = 4


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
    labels = lisonek_cc.labels.copy()
    for corrupt, args in steps:
        corrupt(labels, *args)
    assert_same_report(lisonek_cc._replace(labels=labels))


# ----- the two edge cases ---------------------------------------------------


def test_relation_meeting_two_fiber_pairs(lisonek_cc):
    # fold R6 and R8 into R3: partition, transposes and diagonal still hold
    labels = lisonek_cc.labels.copy()
    labels[(labels == 6) | (labels == 8)] = 3
    report = verify_axioms(lisonek_cc._replace(labels=labels))
    assert not report.ok and report.p is None
    assert report.violation == "R3 meets more than one fiber pair"
    with pytest.raises(ValueError, match="the axiom check failed"):
        report.p_constant(1, 1, 1)


def fano_configuration():
    """The Fano plane's configuration: any two lines meet in one point, so R5 is empty."""
    design = IncidenceDesign(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                                 (2, 3, 6), (2, 4, 5)))
    inc = incidence_matrix(design)
    eye = np.eye(7, dtype=np.int8)
    # points: R1 on the diagonal, R3 off it; lines: R2 and R4; incidence R6/R7, R8/R9
    labels = np.block([[3 - 2 * eye, 7 - inc], [9 - inc.T, 4 - 2 * eye]])
    return CoherentConfig(design, derive_parameters(7, 3, 1, 0), labels)


def test_empty_relation_is_skipped():
    report = assert_same_report(fano_configuration())
    assert report.ok
    assert not report.p[4].any() and not report.p[:, 4].any() and not report.p[:, :, 4].any()
    assert report.p_constant(4, 4, 2) == 6      # every other line
    assert report.p_constant(6, 8, 1) == 3      # lines through a point
    assert report.p_constant(6, 8, 3) == 1      # lines through two points
    assert report.p_constant(8, 6, 4) == 1      # points on two lines
