"""The premise passes of `embed` against their pairwise and walking oracles.

`coherent.from_design` packs a design's incidence once each way
(`designs.pack`).  `designs.intersection_numbers` sums the point rows of
each block to read the block intersections, and `designs.pair_counts`, the
same pass on the transpose, sums the block rows through each point to
count the blocks through each point pair.  `tests/oracles.py` keeps the
pairwise popcount scan and the dict-and-walk count of t-subsets.  The
passes must agree with them on the classical families of
`design_families`, on relabeled copies of the data designs and on random
designs, errors included; at t other than 2 the walk must agree with the
pair counts through the counting identities of t-designs.
"""

import json
import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodist.cli import dispatch
from twodist.coherent import from_design, verify_axioms
from twodist.designs import (
    IncidenceDesign, blocks_through_points, lisonek_design, load_design, pack, pair_counts)
from twodist.errors import DesignError

from conftest import DATA_DIR
from design_families import FAMILIES, SMALL, ag2_hyperplanes, build
from oracles import (
    block_intersections, complement_design, intersection_numbers_by_pairs, pair_pass,
    verify_t_design_by_walk)


def outcome(fn, *args):
    """fn(*args), or the type and message of the DesignError it raises."""
    try:
        return fn(*args)
    except DesignError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", FAMILIES)
def test_families_match_the_pairwise_oracle(name):
    design = build(name)
    alpha, beta = FAMILIES[name][2]
    assert block_intersections(design) == intersection_numbers_by_pairs(design) == (beta, alpha)
    params = from_design(design).params
    assert (params.alpha, params.beta) == (alpha, beta)
    assert params.n == design.block_count


DATA_DESIGNS = {
    "lisonek": lisonek_design,
    "lisonek-complement": lambda: complement_design(lisonek_design()),
    "witt": lambda: load_design(DATA_DIR / "witt_4_23_7_1.json"),
}


def relabeled(name, seed) -> IncidenceDesign:
    design = DATA_DESIGNS[name]()
    order = list(range(design.m))
    random.Random(seed).shuffle(order)
    return IncidenceDesign(design.m, tuple(sorted(tuple(sorted(order[p] for p in b))
                                                  for b in design.blocks)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", DATA_DESIGNS)
def test_relabeled_designs_match_the_pairwise_oracle(name, seed):
    design = relabeled(name, seed)
    assert block_intersections(design) == intersection_numbers_by_pairs(design)
    assert block_intersections(design) == block_intersections(DATA_DESIGNS[name]())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", DATA_DESIGNS)
def test_relabeled_designs_count_pairs_as_the_walk(name, seed):
    design = relabeled(name, seed)
    assert pair_pass(design) == verify_t_design_by_walk(design, 2)
    assert pair_pass(design) == pair_pass(DATA_DESIGNS[name]())


def compressed(blocks) -> IncidenceDesign:
    """The blocks renumbered onto the points they cover, so every point lies in a block."""
    covered = sorted({p for b in blocks for p in b})
    index = {p: i for i, p in enumerate(covered)}
    return IncidenceDesign(len(covered), tuple(tuple(index[p] for p in b) for b in blocks))


@st.composite
def random_designs(draw, max_points=30, min_size=1, max_size=None):
    """Equal-size blocks on up to max_points points, some of them repeated."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(max(min_size, 1), max_points))
    size = draw(st.integers(min_size, min(n, max_size or n)))
    blocks = [tuple(sorted(rng.sample(range(n), size)))
              for _ in range(draw(st.integers(2, 12)))]
    blocks += rng.sample(blocks, draw(st.integers(0, 2)))   # equal blocks meet in S points
    rng.shuffle(blocks)
    return compressed(blocks)


# two one-byte values, then a design whose values spread over many
@example(IncidenceDesign(4, ((0, 1), (2, 3))))
@example(IncidenceDesign(4, ((0, 1), (0, 1), (2, 3))))
@example(compressed([tuple(range(i, i + 6)) for i in range(7)]))
@settings(max_examples=150, deadline=None)
@given(design=random_designs())
def test_random_designs_match_the_pairwise_oracle(design):
    assert block_intersections(design) == intersection_numbers_by_pairs(design)


# S >= 256: fields two bytes wide; 256 has a zero low byte, and 300 comes from an equal block
@example(IncidenceDesign(644, (tuple(range(300)), tuple(range(44, 344)),
                               tuple(range(344, 644)), tuple(range(300)))))
@settings(max_examples=25, deadline=None)
@given(design=random_designs(max_points=700, min_size=256, max_size=400))
def test_wide_fields_match_the_pairwise_oracle(design):
    assert design.block_size >= 256
    assert block_intersections(design) == intersection_numbers_by_pairs(design)


def test_wide_fields_read_values_with_a_zero_low_byte():
    design = IncidenceDesign(644, (tuple(range(300)), tuple(range(44, 344)),
                                   tuple(range(344, 644)), tuple(range(300))))
    assert block_intersections(design) == (0, 256, 300)


@pytest.mark.parametrize("design", [
    IncidenceDesign(4, ((0, 1),)),
    IncidenceDesign(2, ((0, 1),)),
    IncidenceDesign(5, ((0, 1), (3, 4))),
], ids=["one block", "one block on every point", "point 2 in no block"])
def test_refusals_match_the_pairwise_oracle(design):
    # from_design checks that every point lies in a block before it counts blocks
    expected = outcome(intersection_numbers_by_pairs, design)
    assert expected[0] is DesignError
    assert outcome(from_design, design) == expected


# ----- the pair counts against the dict-and-walk count ------------------------


T_DESIGNS = {
    **DATA_DESIGNS,
    **{name: (lambda name=name: build(name)) for name in SMALL},
    "PG(4,2) planes": lambda: build("PG(4,2) planes"),
    # a 2-design that is no 3-design: the walk names a 3-subset
    "2-(6,3,2)": lambda: IncidenceDesign(6, ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5),
                                             (0, 4, 5), (1, 2, 5), (1, 3, 4), (1, 4, 5),
                                             (2, 3, 4), (2, 3, 5))),
    # every point in a block, but the pair (0, 3) in none
    "missing pair": lambda: IncidenceDesign(4, ((0, 1), (1, 2), (2, 3))),
    # point 3 in no block: every t-subset through it has count 0
    "missing point": lambda: IncidenceDesign(4, ((0, 1, 2), (0, 1, 2))),
}


def assert_pairs_match_the_walk(design, t):
    """The pair counts are the walk at t = 2, and agree with it at every other t.

    A t-design is an s-design for each s <= t, with lambda_s C(S-s, t-s) =
    lambda_t C(m-s, t-s).  So a walk that passes at t >= 3 fixes Lambda,
    and pair counts that pass fix the walk at t = 1: r (S - 1) = Lambda (m - 1).
    """
    pairs, walk = pair_pass(design), outcome(verify_t_design_by_walk, design, t)
    m, S = design.m, design.block_size
    if t == 2:
        assert pairs == walk
    elif t == 1 and pairs.is_t_design:
        assert walk.is_t_design and walk.Lambda * (S - 1) == pairs.Lambda * (m - 1)
    elif t > 2 and walk[0] is True:
        assert pairs.is_t_design
        assert pairs.Lambda * comb(S - 2, t - 2) == walk.Lambda * comb(m - 2, t - 2)


@pytest.mark.parametrize("t", range(1, 5))
@pytest.mark.parametrize("name", T_DESIGNS)
def test_t_design_matches_the_walk(name, t):
    assert_pairs_match_the_walk(T_DESIGNS[name](), t)


def test_t_design_walk_names_the_first_differing_subset():
    assert pair_pass(T_DESIGNS["missing pair"]()) == (
        False, None, "(0, 1) lies in 1 blocks but (0, 2) lies in 0")
    assert pair_pass(T_DESIGNS["missing point"]()) == (
        False, None, "(0, 1) lies in 2 blocks but (0, 3) lies in 0")
    assert verify_t_design_by_walk(T_DESIGNS["missing point"](), 1) == (
        False, None, "(0,) lies in 2 blocks but (3,) lies in 0")
    assert verify_t_design_by_walk(T_DESIGNS["2-(6,3,2)"](), 3) == (
        False, None, "(0, 1, 2) lies in 1 blocks but (0, 1, 4) lies in 0")


# 300 copies of one block put 300 blocks through a pair: block rows two bytes wide
@example(design=IncidenceDesign(3, ((0, 1, 2),) * 300), t=2)
@example(design=IncidenceDesign(4, ((0, 1, 2),) * 300 + ((0, 1, 3),)), t=2)
@settings(max_examples=150, deadline=None)
@given(design=random_designs(max_points=9, min_size=2), t=st.integers(1, 4))
def test_random_t_designs_match_the_walk(design, t):
    assert_pairs_match_the_walk(design, t)


def test_wide_fields_both_ways_in_from_design():
    # AG(9,2) hyperplanes: 256 points in a block and 511 blocks through a point
    # take two-byte fields each way; a point's own field sums to 511
    cc = from_design(ag2_hyperplanes(9))  # so every point pair lies in the same number of blocks
    assert (cc.points.width, cc.blocks.width) == (2, 2)
    assert cc.params.Lambda == 255 and (cc.params.alpha, cc.params.beta) == (128, 0)
    assert verify_axioms(cc)[5][7][2] == 255   # p_68^3: the blocks through two points


def test_wide_block_rows_beside_narrow_point_rows():
    # blocks {0, i} for i = 1..300 and {1, 2}: quasi-symmetric with S = 2, but
    # point 0's own field sums to 300, so the blocks' rows need two bytes
    design = IncidenceDesign(301, tuple((0, i) for i in range(1, 301)) + ((1, 2),))
    through = blocks_through_points(design)
    points = pack(through, design.block_count, design.block_size)
    blocks = pack(design.blocks, design.m, max(map(len, through)))
    assert (points.width, blocks.width) == (1, 2)
    assert pair_counts(through, blocks) == (0, 1)
    assert pair_pass(design) == verify_t_design_by_walk(design, 2)
    # from_design refuses it on the block count, before it packs the blocks' rows
    with pytest.raises(DesignError, match=r"^axioms fail: 301 blocks, but .* give n = 45150$"):
        from_design(design)


def test_wide_pair_counts():
    assert pair_pass(IncidenceDesign(3, ((0, 1, 2),) * 300)) == (True, 300, None)
    assert pair_pass(IncidenceDesign(4, ((0, 1, 2),) * 300 + ((0, 1, 3),))) == (
        False, None, "(0, 1) lies in 301 blocks but (0, 2) lies in 300")


# ----- embed on the family members -------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_embed_accepts_small_family_members(name, tmp_path, capsys):
    design = build(name)
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"m": design.m, "blocks": design.blocks}))
    code, _ = dispatch(["embed", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "  two-distance  False\n" in out
