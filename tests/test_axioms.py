"""The p table of `coherent.verify_axioms` against two exhaustive oracles,
the designs `coherent.from_design` must reject, every design it accepts
against the oracle, and the embedding pipeline on the zoo.

The oracles check every pair: `oracles.fiber_block_axioms` on the label
matrix, block by block, and `dense_axioms_oracle` here, by all 81 full
products.  The label-corruption tests give them matrices that no design
produces, so they test the oracles against each other."""

import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from twodist import coherent
from twodist.cli import dispatch
from twodist.coherent import (
    CoherentConfig,
    from_design,
    projector_and_gram,
    relation_row,
    verify_axioms,
)
from twodist.designs import (
    IncidenceDesign, blocks_through_points, derive_parameters, lisonek_design, load_design, pack)
from twodist.dioph import eval_p, p_residuals
from twodist.errors import DesignError
from twodist.geometry import (
    spectrum_from_gram,
    theoretical_spectrum,
    two_distance_classify,
)

from oracles import (
    TRANSPOSE_PAIRS,
    AxiomVerdict,
    as_table,
    block_intersections,
    complement_design,
    derived_design,
    fiber_block_axioms,
    incidence_matrix,
    label_matrix,
    residual_design,
)

DATA_DIR = Path(__file__).parent / "data"


def dense_axioms_oracle(cc, labels=None) -> AxiomVerdict:
    """Axiom (4) by all 81 full (m+n) x (m+n) products, each masked 9 times.

    The independent oracle for fiber_block_axioms: it knows nothing of
    fibers, so its p table and its first violation in (i, j, k) order are
    the reference.  `labels` defaults to `label_matrix(cc)`.
    """
    labels = label_matrix(cc) if labels is None else labels
    if not np.isin(labels, range(1, 10)).all():
        return AxiomVerdict(False, None, "relations do not partition the pair set")
    supports = [labels == k for k in range(1, 10)]
    mats = [m.astype(np.int32) for m in supports]
    for i, expect in TRANSPOSE_PAIRS.items():
        if not (supports[i - 1].T == supports[expect - 1]).all():
            return AxiomVerdict(False, None, f"transpose of R{i} is not R{expect}")
    diag = mats[0] + mats[1]
    if not (np.diag(np.diag(diag)) == diag).all() or not (np.diag(diag) == 1).all():
        return AxiomVerdict(False, None, "R1 + R2 is not the diagonal")
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
                    return AxiomVerdict(
                        False, None,
                        f"p_{i+1}{j+1}^{k+1} not constant: pair {bad} gives "
                        f"{int(prod[bad])}, expected {int(first)}")
                p[i, j, k] = first
    return AxiomVerdict(True, as_table(p))


def assert_same_report(cc, labels=None, expected=None):
    """The two exhaustive oracles agree: verdict, violation and p table."""
    got = fiber_block_axioms(cc, labels)
    expected = expected or dense_axioms_oracle(cc, labels)
    assert (got.ok, got.violation, got.p) == (expected.ok, expected.violation, expected.p)
    return got


@pytest.fixture(scope="module")
def witt_cc(witt_design):
    return from_design(witt_design)


@pytest.fixture(scope="module")
def witt_oracle(witt_cc):
    return dense_axioms_oracle(witt_cc)


@pytest.fixture(scope="module")
def complement_cc(lisonek):
    return from_design(complement_design(lisonek))


def test_matches_oracle_on_lisonek_complement_and_witt(lisonek_cc, complement_cc, witt_cc,
                                                       witt_oracle):
    for cc in (lisonek_cc, complement_cc):
        assert verify_axioms(cc) == assert_same_report(cc).p
    assert verify_axioms(witt_cc) == assert_same_report(witt_cc, None, witt_oracle).p


def test_witt_axiom_check_work_count(witt_cc, witt_oracle, monkeypatch):
    # the premise check builds the rows of block 0 and of the six vertices its
    # representative pairs name, at most; the oracle makes one count_product
    # per non-identity relation and target fiber block, less the product each
    # block derives from row sums
    rows, calls = [], []
    row, product = coherent.relation_row, oracles.count_product
    labels = label_matrix(witt_cc)
    monkeypatch.setattr(coherent, "relation_row", lambda cc, u: rows.append(u) or row(cc, u))
    monkeypatch.setattr(oracles, "count_product", lambda a, b: calls.append(1) or product(a, b))
    p = verify_axioms(witt_cc)
    assert len(rows) == len(set(rows)) <= 7
    assert fiber_block_axioms(witt_cc, labels).p == p == witt_oracle.p
    assert len(calls) <= 11


def test_witt_constants_from_parameters(witt_cc):
    p = verify_axioms(witt_cc)  # p[i-1][j-1][k-1] = p_ij^k
    params = witt_cc.params
    assert p[3][3][1] == params.k        # p_44^2, block-graph degree
    assert p[5][7][0] == params.T        # p_68^1, blocks through a point
    assert p[5][7][2] == params.Lambda   # p_68^3, blocks through two points


# ----- the labels against a set-based derivation ---------------------------


def pairs_design(m):
    """2-(m,2,1): every 2-subset of m points is a block."""
    return IncidenceDesign(m, tuple(combinations(range(m), 2)))


def affine_plane_3():
    """AG(2,3) as STS(9): point 3x + y, the lines y = ax + b and x = c over Z_3."""
    lines = [{3 * x + (a * x + b) % 3 for x in range(3)} for a in range(3) for b in range(3)]
    lines += [{3 * c + y for y in range(3)} for c in range(3)]
    return IncidenceDesign(9, tuple(tuple(sorted(line)) for line in lines))


def projective_space_lines():
    """The 35 lines of PG(3,2) as STS(15).

    Point v - 1 for each nonzero v in F_2^4; the line through u and v is {u, v, u + v}.
    """
    lines = {tuple(sorted((u - 1, v - 1, (u ^ v) - 1)))
             for u, v in combinations(range(1, 16), 2)}
    return IncidenceDesign(15, tuple(sorted(lines)))


def witt():
    return load_design(DATA_DIR / "witt_4_23_7_1.json")


# 2-(6,3,2), quasi-symmetric with intersection numbers 2 and 1 (beta > 0)
SIX_POINT_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5), (1, 2, 5), (1, 3, 4),
                     (1, 4, 5), (2, 3, 4), (2, 3, 5))

SMALL_DESIGNS = {
    **{f"pairs-{m}": (lambda m=m: pairs_design(m)) for m in range(4, 9)},
    "AG(2,3)": affine_plane_3,
    "PG(3,2)": projective_space_lines,
    "2-(6,3,2)": lambda: IncidenceDesign(6, SIX_POINT_TRIPLES),
}
DESIGNS = {
    "lisonek": lisonek_design,
    "lisonek-complement": lambda: complement_design(lisonek_design()),
    "witt": witt,
    "witt-complement": lambda: complement_design(witt()),
    "witt-derived": lambda: derived_design(witt(), 0),     # 3-(22,6,1)
    "witt-residual": lambda: residual_design(witt(), 0),   # 3-(22,7,4)
    **SMALL_DESIGNS,
    # up to 30 + 435 = 465 vertices
    **{f"pairs-{m}": (lambda m=m: pairs_design(m)) for m in range(9, 31)},
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
    cc = from_design(design)
    expected = set_labels(design)
    assert [[i + 1 for i in relation_row(cc, u)] for u in range(cc.size)] == expected
    assert label_matrix(cc).tolist() == expected


def halves(m):
    """Blocks [0, m/2), [m/2, m) and [0, m/4) + [m/2, 3m/4): they meet in 0 or m/4 points."""
    a, b, c = m // 4, m // 2, 3 * m // 4
    return IncidenceDesign(m, (tuple(range(b)), tuple(range(b, m)),
                               tuple(range(a)) + tuple(range(b, c))))


# S = 256 and 512 take two-byte fields; at m = 1024 alpha = 256 has beta's low byte
@pytest.mark.parametrize("m", [512, 1024])
def test_labels_match_set_derivation_with_wide_fields(m):
    # three blocks are no 2-design, so from_design refuses them; relation_row
    # reads only the rows it packs and (alpha, beta), built here as it builds them
    d = halves(m)
    through = blocks_through_points(d)
    cc = CoherentConfig(d, derive_parameters(m, m // 2, m // 4, 0),
                        pack(through, d.block_count, d.block_size),
                        pack(d.blocks, m, max(map(len, through))))
    assert cc.points.width == 2 and block_intersections(d) == (0, m // 4)
    assert [[i + 1 for i in relation_row(cc, u)] for u in range(cc.size)] == set_labels(d)


def set_intersection_values(design) -> tuple:
    blocks = [set(b) for b in design.blocks]
    return tuple(sorted({len(a & b) for a, b in combinations(blocks, 2)}))


# two equal blocks: S = 2 is an off-diagonal value beside the diagonal's copies of it
REPEATED_BLOCK = IncidenceDesign(4, ((0, 1), (0, 1), (2, 3)))


@pytest.mark.parametrize("name", [*DESIGNS, "repeated-block"])
def test_intersection_values_match_set_derivation(name):
    design = REPEATED_BLOCK if name == "repeated-block" else DESIGNS[name]()
    assert block_intersections(design) == set_intersection_values(design)


@pytest.mark.parametrize("name", SMALL_DESIGNS)
def test_matches_oracle_on_small_designs(name):
    # the full-matrix oracle runs on Lisonek, its complement and Witt in
    # test_matches_oracle_on_lisonek_complement_and_witt; on the other designs
    # derived from Witt it would take 0.1-1.7 s each
    cc = from_design(SMALL_DESIGNS[name]())
    assert verify_axioms(cc) == assert_same_report(cc).p


@pytest.mark.parametrize("name", DESIGNS)
def test_premise_check_matches_exhaustive_oracle_on_the_zoo(name):
    cc = from_design(DESIGNS[name]())
    oracle = fiber_block_axioms(cc)
    assert oracle.ok and verify_axioms(cc) == oracle.p


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
    spec = spectrum_from_gram(result.gram, r2, branch)
    two_distance = two_distance_classify(spec).is_two_distance
    # the gamma < 2 branch swaps the intersection numbers
    residuals = (p_residuals(p.S, p.m, p.alpha, p.beta) if branch == "gt2" else
                 tuple(eval_p(w, p.S, p.m, p.beta, p.alpha) for w in ("p1", "p2", "p3")))
    assert two_distance == (residuals == (0, 0, 0)) == ((p.S, p.m, branch) == (2, 9, "gt2"))


# ----- designs the premise check must reject ----------------------------------


def embed_error(tmp_path, design: IncidenceDesign, capsys) -> str:
    """embed on the design's JSON file: exit 2, no report, and the one error line."""
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"m": design.m, "blocks": design.blocks}))
    assert dispatch(["embed", str(path)]) == (2, None)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    return captured.err[len("error: "):].rstrip("\n")


def test_witt_minus_one_block_is_rejected(tmp_path, capsys):
    # still {1, 3} and no longer a 2-design; the block count, checked first, names it
    d = witt()
    assert block_intersections(IncidenceDesign(23, d.blocks[:-1])) == (1, 3)
    assert embed_error(tmp_path, IncidenceDesign(23, d.blocks[:-1]), capsys) == (
        "axioms fail: 252 blocks, but (m, S, alpha, beta) = (23, 7, 3, 1) give n = 253")


def test_repeated_block_is_rejected(tmp_path, capsys):
    # the copy meets its block in S = 7 points, a third intersection value
    d = witt()
    assert embed_error(tmp_path, IncidenceDesign(23, d.blocks + d.blocks[:1]), capsys) == (
        "design is not quasi-symmetric: intersection values (1, 3, 7)")


def test_pair_covered_once_too_often_is_rejected(tmp_path, capsys):
    # 2-(6,3,2) with {2, 3, 4} swapped for its complement {0, 1, 5}: every other
    # block meets both in 1 or 2 points, so the intersection values and the
    # block count stand, while (0, 1) now lies in 3 blocks
    blocks = tuple(sorted(set(SIX_POINT_TRIPLES) - {(2, 3, 4)} | {(0, 1, 5)}))
    swapped = IncidenceDesign(6, blocks)
    assert block_intersections(swapped) == (1, 2)
    assert embed_error(tmp_path, swapped, capsys) == (
        "axioms fail: not a 2-design: (0, 1) lies in 3 blocks but (0, 2) lies in 2")


def test_block_count_off_the_derived_n_is_rejected(tmp_path, capsys):
    # AG(2,3) less point 8 and its 4 lines: 8 blocks, {0, 1}, and a derived n
    # that is not even an integer
    residual = residual_design(affine_plane_3(), 8)
    assert embed_error(tmp_path, residual, capsys) == (
        "axioms fail: 8 blocks, but (m, S, alpha, beta) = (8, 3, 1, 0) give n = 28/3")


def test_point_in_no_block_is_rejected(tmp_path, capsys):
    assert embed_error(tmp_path, IncidenceDesign(24, witt().blocks), capsys) == (
        "point 23 lies in no block")


@st.composite
def distinct_block_designs(draw):
    """2 to 14 distinct equal-size blocks on 3 to 9 points."""
    m = draw(st.integers(3, 9))
    subsets = list(combinations(range(m), draw(st.integers(2, m - 1))))
    blocks = draw(st.lists(st.sampled_from(subsets), min_size=2, max_size=14, unique=True))
    return IncidenceDesign(m, tuple(sorted(blocks)))


# two quasi-symmetric designs with the derived block count n = 7 that are not
# 2-designs: without the pair-count check their p_44^2 is not constant
@example(design=IncidenceDesign(7, ((0, 1, 2, 4), (0, 1, 2, 6), (0, 2, 3, 6), (1, 2, 3, 5),
                                    (1, 2, 4, 6), (1, 2, 5, 6), (2, 3, 4, 6))))
@example(design=IncidenceDesign(7, ((0, 1, 4, 5), (0, 1, 5, 6), (0, 2, 4, 6), (0, 3, 4, 6),
                                    (0, 3, 5, 6), (1, 3, 4, 6), (2, 4, 5, 6))))
@settings(max_examples=300, deadline=None)
@given(design=distinct_block_designs())
def test_every_accepted_design_satisfies_the_axioms(design):
    # soundness of from_design's premise checks: the theorem's conclusion holds
    # on every pair of whatever they let through, by the exhaustive oracle
    try:
        cc = from_design(design)
    except DesignError:
        return
    oracle = fiber_block_axioms(cc)
    assert oracle.ok, oracle.violation
    assert verify_axioms(cc) == oracle.p


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
    labels = label_matrix(lisonek_cc)
    for corrupt, args in steps:
        corrupt(labels, *args)
    assert_same_report(lisonek_cc, labels)


@settings(max_examples=40, deadline=None)
@given(complement=st.booleans(), order=st.permutations(range(M + N)),
       steps=st.lists(corruptions, max_size=3))
def test_shuffled_vertex_orders_match_oracle(lisonek_cc, complement_cc, complement, order,
                                             steps):
    # points and blocks interleaved: the check must put them in fiber order
    # itself and still name a violating pair in the shuffled numbering
    cc = complement_cc if complement else lisonek_cc
    labels = label_matrix(cc)
    for corrupt, args in steps:
        corrupt(labels, *args)
    order = np.array(order)
    assert_same_report(cc, labels[np.ix_(order, order)])


def set_entry(labels, u, v, label):
    labels[u, v] = label


def set_symmetric(labels, u, v, label):
    """Set (u, v) and its transpose consistently: the transposes still hold."""
    labels[u, v] = label
    labels[v, u] = TRANSPOSE_PAIRS[label]


vertices = st.integers(0, M + N - 1)
label_edits = st.tuples(
    st.sampled_from([set_entry, set_symmetric]), vertices, vertices, st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(label_edits, min_size=1, max_size=3))
# point 0 lies in block 0 (vertex 9): its pair labels turn (9, 8), which R6 fails first
@example(edits=[(set_entry, 0, 9, 9)])
# two diagonal 3s and an off-diagonal pair of 1s leave 45 labels in {1, 2}
@example(edits=[(set_symmetric, 0, 0, 3), (set_symmetric, 1, 1, 3), (set_symmetric, 0, 1, 1)])
def test_transpose_and_diagonal_violations_match_oracle(lisonek_cc, edits):
    # the transpose and diagonal checks read the labels without the relations'
    # masks; the failing relation they name must be the oracle's
    labels = label_matrix(lisonek_cc)
    for edit, *args in edits:
        edit(labels, *args)
    expected = dense_axioms_oracle(lisonek_cc, labels)
    assume(expected.violation is not None
           and expected.violation.startswith(("transpose of", "R1 + R2")))
    assert_same_report(lisonek_cc, labels, expected)


# ----- the two edge cases ---------------------------------------------------


def test_relation_meeting_two_fiber_pairs(lisonek_cc):
    # fold R6 and R8 into R3: partition, transposes and diagonal still hold
    labels = label_matrix(lisonek_cc)
    labels[(labels == 6) | (labels == 8)] = 3
    report = fiber_block_axioms(lisonek_cc, labels)
    assert not report.ok and report.p is None
    assert report.violation == "R3 meets more than one fiber pair"


def test_label_matrix_of_another_size_fails_the_diagonal(lisonek_cc):
    # the pairs are those of V + B, 45 of them on the diagonal
    report = fiber_block_axioms(lisonek_cc, label_matrix(lisonek_cc)[:-1, :-1])
    assert report.violation == "R1 + R2 is not the diagonal"


def test_relation_meeting_exactly_two_fiber_pairs(lisonek_cc):
    # fold R5 into R3: a symmetric R3 on both X_1 x X_1 and X_2 x X_2
    labels = label_matrix(lisonek_cc)
    labels[labels == 5] = 3
    report = fiber_block_axioms(lisonek_cc, labels)
    assert report.violation == "R3 meets more than one fiber pair"


def fano_configuration():
    """The Fano plane's configuration and labels: any two lines meet in one point, so R5 is empty."""
    design = IncidenceDesign(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                                 (2, 3, 6), (2, 4, 5)))
    inc = incidence_matrix(design)
    eye = np.eye(7, dtype=np.int8)
    # points: R1 on the diagonal, R3 off it; lines: R2 and R4; incidence R6/R7, R8/R9
    labels = np.block([[3 - 2 * eye, 7 - inc], [9 - inc.T, 4 - 2 * eye]])
    return CoherentConfig(design, derive_parameters(7, 3, 1, 0), None, None), labels


def test_fiber_of_one_vertex():
    # the star: 4 points all in one block, so block (B, B) holds R2 alone and
    # R4, R5, R7, R9 are empty; no product into that block is formed or derived
    eye = np.eye(4, dtype=np.int8)
    labels = np.full((5, 5), 6, dtype=np.int8)
    labels[:4, :4] = 3 - 2 * eye
    labels[4] = (8, 8, 8, 8, 2)
    star = IncidenceDesign(4, ((0, 1, 2, 3),))
    report = assert_same_report(CoherentConfig(star, None, None, None), labels)
    assert report.ok
    assert report.p[5][7][0] == 1 and report.p[7][5][1] == 4   # p_68^1 and p_86^2


def test_empty_relation_is_skipped():
    report = assert_same_report(*fano_configuration())
    assert report.ok
    p = np.array(report.p)
    assert not p[4].any() and not p[:, 4].any() and not p[:, :, 4].any()
    assert p[3][3][1] == 6      # p_44^2, every other line
    assert p[5][7][0] == 3      # p_68^1, lines through a point
    assert p[5][7][2] == 1      # p_68^3, lines through two points
    assert p[7][5][3] == 1      # p_86^4, points on two lines
