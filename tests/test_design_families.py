"""The premise passes of `embed` against their pairwise and walking oracles.

`designs.intersection_numbers` reads the block intersections off packed
point rows, and `designs.verify_t_design` counts each t-subset as a
popcount of point rows; `tests/oracles.py` keeps the pairwise popcount
scan and the dict-and-walk count they replaced.  Both must agree with them
on the classical families of `design_families`, on relabeled copies of the
data designs and on random designs, errors included.
"""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodist.cli import dispatch
from twodist.designs import (
    IncidenceDesign, intersection_numbers, lisonek_design, load_design, parameters_from_design,
    verify_t_design)
from twodist.errors import DesignError

from conftest import DATA_DIR
from design_families import FAMILIES, SMALL, build
from oracles import complement_design, intersection_numbers_by_pairs, verify_t_design_by_walk


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
    assert intersection_numbers(design) == intersection_numbers_by_pairs(design) == (beta, alpha)
    params = parameters_from_design(design)
    assert (params.alpha, params.beta) == (alpha, beta)
    assert params.n == design.block_count


DATA_DESIGNS = {
    "lisonek": lisonek_design,
    "lisonek-complement": lambda: complement_design(lisonek_design()),
    "witt": lambda: load_design(DATA_DIR / "witt_4_23_7_1.json"),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", DATA_DESIGNS)
def test_relabeled_designs_match_the_pairwise_oracle(name, seed):
    design = DATA_DESIGNS[name]()
    order = list(range(design.m))
    random.Random(seed).shuffle(order)
    relabeled = IncidenceDesign(design.m, tuple(sorted(tuple(sorted(order[p] for p in b))
                                                       for b in design.blocks)))
    assert intersection_numbers(relabeled) == intersection_numbers_by_pairs(relabeled)
    assert intersection_numbers(relabeled) == intersection_numbers(design)


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
    assert intersection_numbers(design) == intersection_numbers_by_pairs(design)


# S >= 256: fields two bytes wide; 256 has a zero low byte, and 300 comes from an equal block
@example(IncidenceDesign(644, (tuple(range(300)), tuple(range(44, 344)),
                               tuple(range(344, 644)), tuple(range(300)))))
@settings(max_examples=25, deadline=None)
@given(design=random_designs(max_points=700, min_size=256, max_size=400))
def test_wide_fields_match_the_pairwise_oracle(design):
    assert design.block_size >= 256
    assert intersection_numbers(design) == intersection_numbers_by_pairs(design)


def test_wide_fields_read_values_with_a_zero_low_byte():
    design = IncidenceDesign(644, (tuple(range(300)), tuple(range(44, 344)),
                                   tuple(range(344, 644)), tuple(range(300))))
    assert intersection_numbers(design) == (0, 256, 300)


@pytest.mark.parametrize("design", [
    IncidenceDesign(4, ((0, 1),)),
    IncidenceDesign(5, ((0, 1), (3, 4))),
], ids=["one block", "point 2 in no block"])
def test_refusals_match_the_pairwise_oracle(design):
    expected = outcome(intersection_numbers_by_pairs, design)
    assert expected[0] is DesignError
    assert outcome(intersection_numbers, design) == expected


# ----- verify_t_design against the dict-and-walk count ------------------------


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


@pytest.mark.parametrize("t", range(1, 5))
@pytest.mark.parametrize("name", T_DESIGNS)
def test_t_design_matches_the_walk(name, t):
    design = T_DESIGNS[name]()
    assert outcome(verify_t_design, design, t) == outcome(verify_t_design_by_walk, design, t)


def test_t_design_walk_names_the_first_differing_subset():
    assert verify_t_design(T_DESIGNS["missing pair"](), 2) == (
        False, None, "(0, 1) lies in 1 blocks but (0, 2) lies in 0")
    assert verify_t_design(T_DESIGNS["missing point"](), 1) == (
        False, None, "(0,) lies in 2 blocks but (3,) lies in 0")
    assert verify_t_design(T_DESIGNS["2-(6,3,2)"](), 3) == (
        False, None, "(0, 1, 2) lies in 1 blocks but (0, 1, 4) lies in 0")


@settings(max_examples=150, deadline=None)
@given(design=random_designs(max_points=9), t=st.integers(1, 4))
def test_random_t_designs_match_the_walk(design, t):
    assert outcome(verify_t_design, design, t) == outcome(verify_t_design_by_walk, design, t)


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
