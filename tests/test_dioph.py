import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from twodist.designs import DesignError, derive_parameters
from twodist.dioph import (
    P1,
    P2,
    P3,
    _g1_expr,
    _g2_expr,
    _prop_params,
    aux_g,
    brute_solver,
    classify,
    eval_p,
    family_points,
    g2_integer_values,
    param_value,
    quadratic_exclusions,
    region_scan,
    solve_strip_equation,
    verify_identities,
    y2_curve_search,
    z_of,
    z_parametrization,
)
from twodist.exactnum import QuadExt, parse_scalar


def test_eval_p_examples():
    assert eval_p("p1", 2, 9, 1, 0) == 0
    assert eval_p("p2", 2, 9, 1, 0) == 0
    assert eval_p("p3", 2, 9, 1, 0) == 0
    assert eval_p("p1", 2, 9, 0, 1) == 4      # swapped branch is infeasible


def test_eval_p_x_zero_properties():
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(-30, 30)
        y = rng.randint(-30, 30)
        assert eval_p("p1", 1, m, 0, y) == 0
        assert eval_p("p2", 1, m, 0, y) == 4 * (m * y + m - 2) * m * (y - 1)
    # p3(1, 2/(y+1), 0, y) = (y - 1)(y - 3): check by clearing denominators
    for y in (0, 2, 4, 5):
        m = Fraction(2, y + 1)
        value = P3.eval({"S": 1, "m": m, "x": 0, "y": y})
        assert value == (y - 1) * (y - 3)


def test_fast_evaluators_match_polynomials():
    rng = random.Random(11)
    for _ in range(300):
        point = {v: rng.randint(-9, 9) for v in ("S", "m", "x", "y")}
        args = (point["S"], point["m"], point["x"], point["y"])
        assert P1.eval(point) == eval_p("p1", *args)
        assert P2.eval(point) == eval_p("p2", *args)
        assert P3.eval(point) == eval_p("p3", *args)


def test_z_parametrization():
    assert z_of(2, 9, 1) == 1
    point = z_parametrization(3, 2)
    assert (point.S, point.m, point.y1) == (7, 27, 1)
    assert z_parametrization(1, 0).y2 == 1
    with pytest.raises(DesignError):
        z_parametrization(0, 3)


def test_parametrization_solves_system():
    rng = random.Random(2)
    for _ in range(100):
        x = rng.randint(1, 12)
        z = rng.randint(-6, 6)
        if x + z * z + z == 0:
            continue
        point = z_parametrization(x, z)
        vals = {"S": point.S, "m": point.m, "x": x}
        assert P1.eval({**vals, "y": 0}) == 0
        for y in (point.y1, point.y2):
            assert P2.eval({**vals, "y": y}) == 0
    # p3 vanishing is the extra condition; it holds on family (i) only
    S, m, x, y = family_points("i", 3)
    assert P3.eval({"S": S, "m": m, "x": x, "y": y}) == 0


def test_verify_identities():
    report = verify_identities()
    assert len(report) == 7
    assert "p2 on the y2 branch" in report.names
    assert "block count n = C(m,2) on family (i)" in report.names


def test_family_points():
    assert family_points("i", 1) == (2, 9, 1, 0)
    assert family_points("i", 2) == (7, 27, 3, 1)
    assert family_points("i", 4) == (26, 90, 10, 6)
    assert family_points("ii", 5) == (5, 5, 5, 5)
    assert family_points("iii", 4) == (5, 4, 4, 5)


def test_aux_g_paper_values():
    assert aux_g("g2", 1, -1) == 136
    assert aux_g("g2", 1, 0) == 0
    assert aux_g("g2", 2, 0) == 0
    assert param_value("Lambda", 1, -1, "y2") == -1
    value = aux_g("g1", 10, 1)
    assert value == Fraction(360, 703)
    assert 0 < value < 1
    with pytest.raises(DesignError):
        aux_g("g1", 0, 1)


def test_param_value_matches_design_calculus():
    # the reduced fiber functions agree with the direct parameter formulas
    for x, z in ((1, 1), (3, 2), (6, 3), (10, 4)):
        S, m, xx, y = family_points("i", z)
        p = derive_parameters(m, S, xx, y)
        for name in ("Lambda", "T", "N", "P", "r", "k", "n", "s"):
            assert param_value(name, x, z, "y1") == getattr(p, name), (name, x, z)


def test_g2_integer_enumeration():
    assert g2_integer_values() == {(1, -1): 136, (1, 0): 0, (2, 0): 0}


def test_region_scan_small_boxes():
    g1 = region_scan("g1", zmin=-12, zmax=12, xmax=150)
    assert g1.ok
    assert g1.points_checked["region1"] > 0
    assert g1.points_checked["region3"] > 0
    g2 = region_scan("g2", zmin=-20, zmax=12, xmax=150)
    assert g2.ok
    assert g2.points_checked["x_ge_3"] > 0


@pytest.mark.parametrize("which, zmin, zmax, xmax", [
    ("g1", 5, -5, 100),      # inverted z range
    ("g2", -20, 20, 0),      # no x in the box
    ("g1", -1, 0, 100),      # g1 is checked on no point of the rows z = -1, 0
])
def test_region_scan_rejects_vacuous_boxes(which, zmin, zmax, xmax):
    with pytest.raises(DesignError):
        region_scan(which, zmin, zmax, xmax)


def test_g2_row_z_zero_evaluates_to_zero():
    report = region_scan("g2", 0, 0, 60)
    assert report.ok
    assert report.points_checked == {"x_ge_3": 58}
    assert all(aux_g("g2", x, 0) == 0 for x in range(3, 61))


PARAM_NAMES = ("Lambda", "T", "N", "P", "r", "k", "n", "s", "S", "m", "y")


def surface_oracle(x: int, z: int, branch: str) -> tuple[dict, Fraction]:
    """The parameters and the branch's auxiliary function, by Fraction arithmetic at one point."""
    point = z_parametrization(x, z)
    xf, zf = Fraction(x), Fraction(z)
    y = Fraction(point.y1) if branch == "y1" else point.y2
    par = _prop_params(Fraction(point.S), point.m, xf, y)
    g = _g1_expr(par, xf, zf) if branch == "y1" else _g2_expr(par, xf, y, zf)
    return par, g


@settings(max_examples=300, deadline=None)
@given(x=st.integers(1, 10**4), z=st.integers(-10**3, 10**3),
       branch=st.sampled_from(["y1", "y2"]))
def test_surface_matches_pointwise_oracle(x, z, branch):
    try:
        par, g = surface_oracle(x, z, branch)
    except ZeroDivisionError:
        reject()
    assert aux_g("g1" if branch == "y1" else "g2", x, z) == g
    for name in PARAM_NAMES:
        assert param_value(name, x, z, branch) == par[name], name


def test_strip_equation():
    strip = solve_strip_equation()
    assert strip.quadratic == (1, 1, -10)
    assert strip.discriminant == 41
    assert strip.residue_degree == 2
    assert strip.integer_roots == ()
    expected = {parse_scalar("-1/2 + 1/2*sqrt(41)"), parse_scalar("-1/2 - 1/2*sqrt(41)")}
    assert set(strip.roots) == expected


def test_brute_solver_small_box():
    certs = brute_solver(8, 50)
    accepted = [c.smxy for c in certs if c.accepted]
    assert accepted == [(2, 9, 1, 0), (7, 27, 3, 1)]
    for cert in certs:
        if cert.accepted:
            S, m, x, _, _ = cert.candidate
            z = z_of(S, m, x)
            assert z.denominator == 1
            assert family_points("i", int(z)) == cert.smxy


def test_brute_solver_gate_off_is_exploratory():
    certs = brute_solver(8, 50, enforce_gate=False)
    accepted = {c.smxy for c in certs if c.accepted}
    assert {(2, 9, 1, 0), (7, 27, 3, 1)} <= accepted
    assert (3, 8, 2, 1) in accepted   # p-solution killed only by the gate


def test_brute_solver_bounds_validation():
    with pytest.raises(DesignError):
        brute_solver(1, 50)


def test_classify_unique_acceptance_for_every_bound():
    for zmax in range(1, 13):
        report = classify(zmax)
        assert [c.candidate[4] for c in report.accepted] == [1], zmax


def test_classify():
    report = classify(6)
    assert [c.candidate[4] for c in report.accepted] == [1]
    verdicts = {c.candidate[4]: c.verdict for c in report.certificates}
    assert "tight-design" in verdicts[2] and "27" in verdicts[2]
    assert "integrality" in verdicts[3] and "795/2" in verdicts[3]
    assert "tight-design" in verdicts[4]
    assert len(report.family_notes) == 2
    with pytest.raises(DesignError):
        classify(0)


def test_quadratic_exclusions():
    report = quadratic_exclusions()
    assert report.nonsquare_discriminants == (7, 10, 13, 41, 73)
    by_label = {e.label: e for e in report.entries}
    s2 = by_label["S = 2"]
    assert set(s2.roots) == {QuadExt(1), QuadExt(Fraction(-4, 3))}
    assert s2.integer_roots == (1,)
    s3 = by_label["S = 3"]
    assert s3.discriminant == 73 and s3.integer_roots == ()
    assert by_label["S = m - 1"].squarefree_part == 7
    assert by_label["S = m - 2"].squarefree_part == 10
    assert by_label["S = m - 3"].squarefree_part == 13
    tight = by_label["S = 7 (tight range)"]
    assert tight.integer_roots == (2,) and "23" in tight.note
    # the only integer root outside the tight range is z = 1
    outside = [r for e in report.entries for r in e.integer_roots
               if not e.label.startswith("S = 7")]
    assert outside == [1]


def test_finite_difference_stream_matches_direct_evaluation():
    from twodist.dioph import _fd_stream, _horner

    rng = random.Random(31337)
    for _ in range(200):
        deg = rng.randint(0, 9)
        coeffs = [rng.randint(-50, 50) for _ in range(deg + 1)]
        start = rng.randint(-40, 40)
        count = rng.randint(0, 30)
        got = list(_fd_stream(coeffs, start, count))
        assert got == [_horner(coeffs, start + i) for i in range(count)]
    assert list(_fd_stream([], 5, 3)) == [0, 0, 0]


def test_y2_curve_search_small_box():
    hits = y2_curve_search(3, 400, -25, 25)
    assert hits, "the z = 0 line itself lies on the curve"
    assert all(z == 0 for _, z in hits)


def test_y2_curve_search_full_box():
    # the stated search box: 3 <= x <= 10^4, |z| <= 100
    hits = y2_curve_search(3, 10_000, -100, 100)
    assert all(z == 0 for _, z in hits)
    assert len(hits) == 10_000 - 3 + 1


def test_y2_paper_intersection_points():
    from twodist.dioph import _p3_on_y2_cleared

    cleared = _p3_on_y2_cleared()
    assert cleared.eval({"x": 0, "z": 1}) == 0
    assert cleared.eval({"x": -9, "z": 3}) == 0
    assert all(x <= 0 for x in (0, -9))
