import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twodist.designs import (
    IncidenceDesign,
    block_masks,
    derive_parameters,
    design_from_json,
    integrality_violations,
    intersection_numbers,
    load_design,
    parameters_from_design,
    verify_t_design,
)
from twodist import designs
from twodist.errors import DegenerateParametersError, DesignError, InternalConsistencyError

from oracles import complement_design, count_product, incidence_matrix


@pytest.mark.parametrize("args,expected", [
    ((9, 2, 1, 0), (1, 8, 7, 2, 5, 14, 36, -2)),
    ((27, 7, 3, 1), (21, 91, 60, 28, 32, 140, 351, -3)),
    ((90, 26, 10, 6), (325, 1157, 580, 377, 203, 1508, 4005, -5)),
])
def test_derive_parameters(args, expected):
    p = derive_parameters(*args)
    assert (p.Lambda, p.T, p.N, p.P, p.r, p.k, p.n, p.s) == expected


def test_derive_parameters_non_integral():
    p = derive_parameters(54, 15, 6, 3)
    assert p.Lambda == 105
    assert p.T == Fraction(795, 2)


def test_derive_parameters_rejects_bad_ordering():
    with pytest.raises(DesignError):
        derive_parameters(9, 2, 0, 1)
    with pytest.raises(DesignError):
        derive_parameters(2, 9, 1, 0)


def test_derive_parameters_degenerate():
    # (m, S, alpha, beta) = (5, 3, 2, 0) zeroes the Lambda denominator
    with pytest.raises(DegenerateParametersError):
        derive_parameters(5, 3, 2, 0)


def test_derive_parameters_work_count(monkeypatch):
    # one reduced Fraction per derived value, formed from int pairs: every
    # field is one of the Fractions built here, so a value left to Fraction
    # arithmetic (one gcd per operation) fails this test
    built = []
    monkeypatch.setattr(designs, "Fraction",
                        lambda *args: built.append(Fraction(*args)) or built[-1])
    for args in ((9, 2, 1, 0), (45, 9, 3, 1), (54, 15, 6, 3)):
        built.clear()
        p = derive_parameters(*args)
        assert len(built) <= 8
        assert all(any(getattr(p, name) is f for f in built)
                   for name in ("Lambda", "T", "N", "P", "r", "k", "n", "s"))


def test_block_graph_parameters():
    p = derive_parameters(9, 2, 1, 0)
    assert p.lambda_graph == 7 and p.mu_graph == 4
    # lambda and mu are integer combinations of k, r, s: integral whenever
    # the gate passes
    for args in ((27, 7, 3, 1), (90, 26, 10, 6), (23, 7, 3, 1)):
        q = derive_parameters(*args)
        assert next(integrality_violations(q), None) is None
        assert q.mu_graph.denominator == 1 and q.lambda_graph.denominator == 1


@pytest.mark.parametrize("args,expect_pass,needle", [
    ((9, 2, 1, 0), True, None),
    ((54, 15, 6, 3), False, "T = 795/2"),
    ((90, 26, 10, 6), True, None),
])
def test_integrality_gate(args, expect_pass, needle):
    violations = list(integrality_violations(derive_parameters(*args)))
    assert (not violations) is expect_pass
    if needle:
        assert any(needle in v for v in violations)


def test_lisonek_design_shape(lisonek):
    assert lisonek.m == 9
    assert lisonek.block_count == 36
    assert lisonek.block_size == 2


def test_verify_t_design(lisonek):
    res = verify_t_design(lisonek, 2)
    assert res.is_t_design and res.Lambda == 1
    comp = verify_t_design(complement_design(lisonek), 2)
    assert comp.is_t_design and comp.Lambda == 21
    with pytest.raises(DesignError):
        verify_t_design(lisonek, 3)


def test_verify_t_design_negative():
    d = IncidenceDesign(5, ((0, 1), (2, 3), (0, 2)))
    res = verify_t_design(d, 2)
    assert not res.is_t_design
    assert res.Lambda is None
    assert res.witness


def test_verify_t_design_without_a_t_subset_is_an_internal_error():
    # a checked design has t <= block size <= m; this stand-in skips the check
    unchecked = SimpleNamespace(m=1, blocks=((0, 1),), block_size=2)
    with pytest.raises(InternalConsistencyError, match="no 2-subset of 1 points"):
        verify_t_design(unchecked, 2)


def test_intersection_numbers(lisonek):
    assert intersection_numbers(lisonek) == (0, 1)
    assert intersection_numbers(complement_design(lisonek)) == (5, 6)
    assert intersection_numbers(IncidenceDesign(4, ((0, 1), (2, 3)))) == (0,)


def test_complement_involution(lisonek):
    comp = complement_design(lisonek)
    assert comp.block_size == 7
    assert complement_design(comp) == lisonek
    # |comp(b) & comp(b')| = m - 2S + |b & b'| on every pair
    m, s = lisonek.m, lisonek.block_size
    for i in range(0, 36, 7):
        for j in range(i + 1, 36, 5):
            raw = len(set(lisonek.blocks[i]) & set(lisonek.blocks[j]))
            comp_raw = len(set(comp.blocks[i]) & set(comp.blocks[j]))
            assert comp_raw == m - 2 * s + raw


def test_double_counting(lisonek, witt_design):
    for design in (lisonek, complement_design(lisonek), witt_design):
        p = parameters_from_design(design)
        m, S = design.m, design.block_size
        assert p.n * S * (S - 1) == p.Lambda * m * (m - 1)
        assert p.T * (S - 1) == p.Lambda * (m - 1)
        assert p.n == design.block_count and p.T.denominator == 1


def test_parameters_from_a_given_intersection_matrix(lisonek, witt_design):
    # the popcounts of the block masks are the off-diagonal entries of inc^T inc
    for design in (lisonek, complement_design(lisonek), witt_design):
        masks = block_masks(design)
        inc = incidence_matrix(design).astype(int)
        inter = inc.T @ inc
        assert [[(a & b).bit_count() for b in masks] for a in masks] == inter.tolist()
        assert parameters_from_design(design, masks) == parameters_from_design(design)
    with pytest.raises(DesignError, match="not quasi-symmetric"):
        parameters_from_design(IncidenceDesign(4, ((0, 1), (2, 3))))


def test_block_masks_name_a_point_in_no_block():
    # 10^10 points: the check must come before any mask of up to 10^10 bits
    with pytest.raises(DesignError, match="^point 3 lies in no block$"):
        block_masks(IncidenceDesign(10**10, ((0, 1), (1, 2), (0, 2))))
    with pytest.raises(DesignError, match="^point 2 lies in no block$"):
        block_masks(IncidenceDesign(5, ((0, 1), (3, 4))))
    with pytest.raises(DesignError, match="^point 0 lies in no block$"):
        intersection_numbers(IncidenceDesign(10**10, ((1, 2), (2, 3), (3, 10**10 - 1))))


@st.composite
def factor_pairs(draw):
    """Two integer matrices a (rows x inner) and b (inner x cols), inner may be 0."""
    rows, inner, cols = (draw(st.integers(0, 12)) for _ in range(3))
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64]))
    entries = draw(st.sampled_from([st.integers(0, 1), st.integers(-100, 100)]))
    return (draw(hnp.arrays(dtype, (rows, inner), elements=entries)),
            draw(hnp.arrays(dtype, (inner, cols), elements=entries)))


@settings(max_examples=200, deadline=None)
@given(pair=factor_pairs())
def test_count_product_matches_int64(pair):
    a, b = pair
    got = count_product(a, b)
    assert got.dtype == np.int32
    assert np.array_equal(got, a.astype(np.int64) @ b.astype(np.int64))


def test_count_product_at_the_float32_bound():
    # inner * max|a| * max|b| = 2 * 2^12 * 2^11 reaches 2^24 and is refused
    a = np.full((3, 2), 2 ** 12, dtype=np.int32)
    with pytest.raises(DesignError, match="2\\^24"):
        count_product(a, np.full((2, 4), 2 ** 11, dtype=np.int32))
    with pytest.raises(DesignError):
        count_product(a, np.full((2, 4), -2 ** 11, dtype=np.int32))
    b = np.full((2, 4), 2 ** 11 - 1, dtype=np.int32)
    b[1, 2] = -(2 ** 11 - 1)
    got = count_product(a, b)
    assert got.dtype == np.int32
    assert np.array_equal(got, a.astype(np.int64) @ b.astype(np.int64))
    assert got[0, 0] == 2 ** 24 - 2 ** 13


def test_count_product_refuses_floats():
    with pytest.raises(TypeError):
        count_product(np.ones((2, 2)), np.ones((2, 2), dtype=np.int8))


def test_witt_design(witt_design):
    assert witt_design.m == 23
    assert witt_design.block_count == 253
    assert witt_design.block_size == 7
    res = verify_t_design(witt_design, 4)
    assert res.is_t_design and res.Lambda == 1
    assert intersection_numbers(witt_design) == (1, 3)


def test_design_json_round_trip(tmp_path, lisonek):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"m": lisonek.m, "blocks": lisonek.blocks}) + "\n")
    assert load_design(path) == lisonek


@pytest.mark.parametrize("data,fragment", [
    ({"m": 4}, "blocks"),
    ({"m": "4", "blocks": []}, "integer"),
    ({"m": 4, "blocks": [[0, 1], [1, 0]]}, "ascending"),
    ({"m": 4, "blocks": [[0, 1], [0, 1, 2]]}, "size"),
    ({"m": 4, "blocks": [[0, 9]]}, "outside"),
    ({"m": 4, "blocks": [["a", 1]]}, "integers"),
])
def test_design_json_rejections(data, fragment):
    with pytest.raises(DesignError) as err:
        design_from_json(data)
    assert fragment in str(err.value)


def test_load_design_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DesignError) as err:
        load_design(path)
    assert "line" in str(err.value)
