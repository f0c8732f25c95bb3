import random
import re
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from twodist import dioph
from twodist.designs import derive_parameters, lambda_parts
from twodist.dioph import (
    P1,
    P2,
    P3,
    _integer_roots_between,
    _p1,
    _xz_coords,
    brute_solver,
    classify,
    eval_p,
    family_points,
    g2_integer_values,
    quadratic_exclusions,
    region_scan,
    solve_quadratic,
    solve_strip_equation,
    verify_identities,
    y2_curve_search,
    z_of,
)
from twodist.errors import DegenerateParametersError, DesignError, InternalConsistencyError
from twodist.exactnum import QuadExt, parse_scalar
from twodist.polynomials import Poly
from twodist.regions import g1_in_t

from conftest import REGIONS_BOX
from lattice_oracle import (LatticeReport, PointViolation, RowEvaluator, curve_search,
                            lattice_scan, table_row, xz_rows)
from oracles import p_system_by_quadratics, poly_eval
from surface_oracle import (aux_g, g1_expr, g2_expr, param_value, prop_params, shipped_pair,
                            surface, table_poly, y2_curve_table)


class ZPoint(NamedTuple):
    """Values of (S, m, y1, y2) on the parametrized surface at integer (x, z)."""

    x: int
    z: int
    S: int
    m: Fraction
    y1: int
    y2: Fraction


def z_parametrization(x: int, z: int) -> ZPoint:
    """Evaluate S = x + z^2, m = (x + z^2 + z)^2 / x and both y branches."""
    if x == 0:
        raise DesignError("the parametrization needs x != 0")
    S, root, y1, y2num = _xz_coords(x, z)
    m = Fraction(root * root, x)
    if root == 0:
        raise DesignError(f"degenerate parametrization at (x, z) = ({x}, {z})")
    y2 = Fraction(y2num, root * root)
    return ZPoint(x, z, S, m, y1, y2)


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
        value = poly_eval(P3, {"S": 1, "m": m, "x": 0, "y": y})
        assert value == (y - 1) * (y - 3)


def test_fast_evaluators_match_polynomials():
    rng = random.Random(11)
    for _ in range(300):
        point = {v: rng.randint(-9, 9) for v in ("S", "m", "x", "y")}
        args = (point["S"], point["m"], point["x"], point["y"])
        assert poly_eval(P1, point) == eval_p("p1", *args)
        assert poly_eval(P2, point) == eval_p("p2", *args)
        assert poly_eval(P3, point) == eval_p("p3", *args)


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
        assert poly_eval(P1, {**vals, "y": 0}) == 0
        for y in (point.y1, point.y2):
            assert poly_eval(P2, {**vals, "y": y}) == 0
    # p3 vanishing is the extra condition; it holds on family (i) only
    S, m, x, y = family_points(3)
    assert poly_eval(P3, {"S": S, "m": m, "x": x, "y": y}) == 0


def test_verify_identities():
    steps = verify_identities()
    names = [s.claim for s in steps]
    assert len(names) == 7
    assert "p2 on the y2 branch" in names
    assert "block count n = C(m,2) on family (i)" in names
    assert all(s.passed and s.witness == "zero polynomial" for s in steps)
    assert [s.covers for s in steps] == ["identically in x, z"] * 3 + ["identically in z"] * 4


# verify_identities clears each of its seven identities with one
# compose_cleared call, whose products are integer products at a packed
# point, so no Poly product is formed.  Counted, not timed, so host load
# cannot move them; a change that moves work back into Poly raises the first.
def test_verify_identities_work_count(monkeypatch):
    counts = {"muls": 0, "composes": 0}
    mul, compose = Poly.__mul__, dioph.compose_cleared

    def counting_mul(a, b):
        counts["muls"] += 1
        return mul(a, b)

    def counting_compose(p, subs):
        counts["composes"] += 1
        return compose(p, subs)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(dioph, "compose_cleared", counting_compose)
    verify_identities()
    assert counts == {"muls": 0, "composes": 7}


# the first identity each constant enters, in the order verify_identities checks them
@pytest.mark.parametrize("name, identity", [
    ("P1", "p1 on the y1 branch"),
    ("P2", "p2 on the y1 branch"),
    ("P3", "p3 on family (i)"),
    ("BLOCK_COUNT", "block count n = C(m,2) on family (i)"),
])
def test_verify_identities_names_a_perturbed_identity(monkeypatch, name, identity):
    """One coefficient of a quartic or of the block count off by one fails its identity.

    The failed step names the identity and shows its nonzero residue; every
    step is still reported.
    """
    poly = getattr(dioph, name)
    for expo, coeff in poly.terms.items():
        monkeypatch.setattr(dioph, name, Poly(poly.vars, {**poly.terms, expo: coeff + 1}))
        steps = verify_identities()
        failed = next(s for s in steps if not s.passed)
        assert len(steps) == 7 and failed.claim == identity
        assert re.fullmatch(r"Poly\(-?\d.*\)", failed.witness) and failed.witness != "Poly(0)"


def test_family_points():
    assert family_points(1) == (2, 9, 1, 0)
    assert family_points(2) == (7, 27, 3, 1)
    assert family_points(4) == (26, 90, 10, 6)


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
        S, m, xx, y = family_points(z)
        p = derive_parameters(m, S, xx, y)
        for name in ("Lambda", "T", "N", "P", "r", "k", "n", "s"):
            assert param_value(name, x, z, "y1") == getattr(p, name), (name, x, z)


def test_g2_integer_enumeration():
    assert g2_integer_values() == {(1, -1): 136, (1, 0): 0, (2, 0): 0}


def test_g1_pole_between_the_strip_and_its_zero():
    """The g1 denominator changes sign on (t - 1, t), t = z(z+1)/2.

    region_scan skips x = t, where g1 = 0, and the rows z = -1, 0; between
    region 2 at x = t - 1 and that skipped point g1 has a real pole.  The
    t-form's table reading at t = z(z+1)/2 gives the same signs.
    """
    den = table_poly(shipped_pair("g1")[1])
    for z in [z for z in range(-50, 51) if z not in (-1, 0)]:
        t = z * (z + 1) // 2
        assert g1_in_t(t - 1, t)[1] == poly_eval(den, {"x": t - 1, "z": z}) == -14 * t * t + 6 * t < 0
        assert g1_in_t(t, t)[1] == poly_eval(den, {"x": t, "z": z}) == 4 * t * t > 0


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


@pytest.mark.parametrize("xmax, count", [(1, 17), (2, 34)])
def test_g2_large_z_points_stay_inside_the_box(xmax, count):
    report = region_scan("g2", -20, 20, xmax)
    assert report.ok
    assert report.points_checked == {"large_z": count}


@pytest.mark.parametrize("box", [(3, 2, -5, 5), (3, 100, 5, -5), (0, 100, -5, 5)])
def test_y2_curve_search_rejects_empty_boxes(box):
    """An inverted box, and one reaching x = 0, below the proof's x >= 1."""
    with pytest.raises(DesignError):
        y2_curve_search(*box)


def test_pole_path():
    # the derived, unreduced D(x, z) = 0 at each point: one genuine pole and
    # two removable singularities
    for name, x, z, branch in (("y", -2, 1, "y2"), ("N", 1, 0, "y1"), ("g1", 1, 0, "y1")):
        assert poly_eval(surface(name, branch)[1], {"x": x, "z": z}) == 0
    with pytest.raises(ZeroDivisionError):
        param_value("y", -2, 1, "y2")
    assert param_value("N", 1, 0, "y1") == -1
    # g1's t-form is in lowest terms: its denominator does not vanish there
    assert g1_in_t(1, 0)[1] == 4
    assert aux_g("g1", 1, 0) == 0


def _reader_table(name):
    from twodist.dioph import _Y2_CURVE

    if name == "y2 curve":
        return _Y2_CURVE
    which, side = name.split()
    return shipped_pair(which)[side == "D"]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["g1 N", "g1 D", "g2 N", "g2 D", "y2 curve"]),
       x=st.integers(-10**4, 10**4),
       z=st.one_of(st.sampled_from([-1, 0]), st.integers(-10**3, 10**3)))
@example(name="g1 N", x=5, z=-1)                # a zero row of g1
@example(name="g1 N", x=5, z=0)
@example(name="g2 N", x=0, z=3)
def test_table_readers_match_poly_eval(name, x, z):
    """Row z and fiber x read off a table agree with `poly_eval` of the same table."""
    from twodist.polynomials import _horner, _table_fiber

    rows = _reader_table(name)
    want = poly_eval(table_poly(rows), {"x": x, "z": z})
    assert _horner(table_row(rows, z), x) == want
    assert _horner(_table_fiber(rows, x), z) == want


def test_y2_curve_table_is_the_cleared_curve():
    from twodist.dioph import _Y2_CURVE

    assert y2_curve_table() == _Y2_CURVE


def test_y2_curve_table_matches_sympy():
    """p3 at m = r^2 / x, y = y2num / r^2, times x^deg_m r^(2 deg_y), then r = x + z^2 + z."""
    import sympy

    from twodist.dioph import _p3
    from twodist.dioph import _Y2_CURVE

    S, m, xs, y, x, z, r = sympy.symbols("S m xs y x z r")
    p3 = sympy.expand(_p3(S, m, xs, y))
    s_xz, root, _, y2num = _xz_coords(x, z)
    on_y2 = p3.subs({S: s_xz, m: r**2 / x, xs: x, y: y2num / r**2})
    cleared = sympy.expand(on_y2 * x ** sympy.degree(p3, m) * r ** (2 * sympy.degree(p3, y)))
    want = sympy.Poly(cleared.subs(r, root), x, z).as_dict()
    rows = _Y2_CURVE
    assert {(k, j): c for k, row in enumerate(rows) for j, c in enumerate(row) if c} == want


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
    par = prop_params(Fraction(point.S), point.m, xf, y)
    g = g1_expr(par, xf, zf) if branch == "y1" else g2_expr(par, xf, y, zf)
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
    assert strip.integer_roots == ()
    expected = {parse_scalar("-1/2 + 1/2*sqrt(41)"), parse_scalar("-1/2 - 1/2*sqrt(41)")}
    assert set(strip.roots) == expected


@pytest.mark.parametrize("bump", [
    lambda x, t: (1, 0),          # N - D gains a constant term: t = 0 is no longer a root
    lambda x, t: (x * x, x * x),  # N - D unchanged, but D no longer vanishes at t = 0
    lambda x, t: (t, 0),          # N - D = -t(2t - 11): the crossing t = 11/2 is not an integer
], ids=["constant", "D(0) != 0", "half-integer"])
def test_strip_equation_reads_the_t_form(bump, monkeypatch):
    """A t-form whose strip is not one crossing of 1 at an integer t off t = 0 raises."""
    from twodist import dioph

    def form(x, t):
        return tuple(a + b for a, b in zip(g1_in_t(x, t), bump(x, t)))

    monkeypatch.setattr(dioph, "g1_in_t", form)
    with pytest.raises(InternalConsistencyError):
        solve_strip_equation()


def test_brute_solver_small_box():
    certs = brute_solver(8, 50)
    accepted = [c.smxy for c in certs if c.accepted]
    assert accepted == [(2, 9, 1, 0), (7, 27, 3, 1)]
    # a p-system point that only the integrality gate rejects
    verdicts = {c.smxy: c.verdict for c in certs}
    assert verdicts[3, 8, 2, 1] == "rejected: integrality: Lambda = 6/11 is not a positive integer"
    for cert in certs:
        if cert.accepted:
            S, m, x, _, _ = cert.candidate
            z = z_of(S, m, x)
            assert z.denominator == 1
            assert family_points(int(z)) == cert.smxy


def test_brute_solver_bounds_validation():
    with pytest.raises(DesignError):
        brute_solver(1, 50)
    # 2 <= S < m <= 2 is empty: an empty list would read as "no solutions"
    for smax in (2, 30):
        with pytest.raises(DesignError, match=f"S <= {smax}, m <= 2"):
            brute_solver(smax, 2)
    assert brute_solver(2, 3) == []


def enumerate_p_system(smax, mmax):
    """Oracle: `brute_solver` as a scan of every (S, m, x, y) in the box."""
    out = []
    for S in range(2, smax + 1):
        for m in range(S + 1, mmax + 1):
            for x in range(1, S):
                if eval_p("p1", S, m, x, 0):
                    continue
                for y in range(x):
                    if eval_p("p2", S, m, x, y) or eval_p("p3", S, m, x, y):
                        continue
                    z = z_of(S, m, x)      # not the chart brute_solver walks
                    assert z.denominator == 1, (S, m, x, y, z)
                    out.append(dioph._p_system_certificate(S, m, x, y, int(z)))
    return out


@pytest.mark.parametrize("box", [(8, 50), (12, 150), (30, 400)])
def test_brute_solver_matches_enumeration(box):
    assert brute_solver(*box) == enumerate_p_system(*box)


@settings(max_examples=25, deadline=None)
@given(smax=st.integers(2, 20), mmax=st.integers(3, 300))
def test_brute_solver_matches_enumeration_on_random_boxes(smax, mmax):
    assert brute_solver(smax, mmax) == enumerate_p_system(smax, mmax)


def test_brute_solver_matches_the_quadratic_walk():
    assert brute_solver(100, 100_000) == p_system_by_quadratics(100, 100_000)


@settings(max_examples=25, deadline=None)
@given(smax=st.integers(2, 60), mmax=st.integers(3, 20_000))
def test_brute_solver_matches_the_quadratic_walk_on_random_boxes(smax, mmax):
    assert brute_solver(smax, mmax) == p_system_by_quadratics(smax, mmax)


def test_p_system_degrees():
    # brute_solver reads p2 in y, and the oracle p_system_by_quadratics p1 in m,
    # as quadratics; a third degree would make the three-value interpolation miss roots
    assert P1.degree("m") == 2 and P1.degree("y") == 0
    assert P2.degree("y") == 2


def test_p1_m_roots_match_a_scan():
    # every zero of p1 in the box, on both signs of z = +-t: (S, x) = (5, 1) has m = 9 and 49
    assert list(dioph._p1_m_roots(5, 400)) == [(4, 9, 1), (1, 9, -2), (1, 49, 2)]
    for S in range(2, 25):
        assert sorted(dioph._p1_m_roots(S, 600)) == [
            (x, m, z_of(S, m, x)) for x in range(1, S) for m in range(S + 1, 601)
            if not _p1(S, m, x, 0)]


def test_p1_is_a_norm_form():
    # brute_solver's premise, built here from the generators: with u = S - x and
    # w = x m, p1 = (w - S^2 - u)^2 - 4 S^2 u
    S, m, x, _ = Poly.gens(P1.vars)
    u, w = S - x, x * m
    assert P1 == (w - S * S - u) ** 2 - 4 * S * S * u == dioph._P1_NORM


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_brute_solver_refuses_a_cubic(name, monkeypatch):
    from twodist import dioph

    var = "m" if name == "P1" else "y"
    monkeypatch.setattr(dioph, name, getattr(dioph, name) * Poly.variable(var, P1.vars))
    with pytest.raises(InternalConsistencyError, match="norm form or p2 has degree > 2 in y"):
        brute_solver(8, 50)


@pytest.mark.parametrize("bump", [lambda S, x: 1, lambda S, x: S * x], ids=["1", "S*x"])
def test_brute_solver_refuses_p1_off_its_norm_form(bump, monkeypatch):
    # p1 + 1 and p1 + S x are still quadratic in m, but no longer the norm _p1_m_roots solves
    from twodist import dioph

    S, _, x, _ = Poly.gens(P1.vars)
    monkeypatch.setattr(dioph, "P1", dioph.P1 + bump(S, x))
    with pytest.raises(InternalConsistencyError, match="p1 is not its norm form"):
        brute_solver(8, 50)


def _roots_by_scan(a, b, c, lo, hi):
    return [t for t in range(lo, hi + 1) if a * t * t + b * t + c == 0]


def _roots_between(a, b, c, lo, hi):
    return list(_integer_roots_between(lambda t: a * t * t + b * t + c, lo, hi))


def test_integer_roots_keep_both_roots():
    assert _roots_between(1, -7, 10, -20, 20) == [2, 5]
    assert _roots_between(-3, 9, 84, -20, 20) == [-4, 7]
    assert _roots_between(2, -1, -1, -20, 20) == [1]          # the other root is -1/2
    # p1 at (S, x) = (5, 1): m = (5 +- 2)^2, both above S
    assert list(_integer_roots_between(lambda m: _p1(5, m, 1, 0), 6, 400)) == [9, 49]


def test_integer_roots_need_a_square_discriminant():
    # isqrt(8) = 2 would give t = +-1 and isqrt(-4) read as 0 would give t = 0
    assert _roots_between(1, 0, -2, -20, 20) == []
    assert _roots_between(1, 0, 1, -20, 20) == []
    assert _roots_between(1, 0, -4, -20, 20) == [-2, 2]


def test_integer_roots_of_a_degenerate_quadratic():
    # a = 0 breaks the premise that its caller in brute_solver meets: it raises,
    # and never passes for a root
    for b, c in ((3, -12), (0, 5), (0, 0)):
        with pytest.raises(ZeroDivisionError):
            _roots_between(0, b, c, -20, 20)
    assert _roots_between(1, -7, 10, 3, 4) == []              # roots outside the range


@settings(max_examples=300, deadline=None)
@given(k=st.integers(-4, 4).filter(bool), r1=st.integers(-30, 30), r2=st.integers(-30, 30),
       noise=st.integers(-3, 3), lo=st.integers(-40, 40), width=st.integers(0, 80))
def test_integer_roots_match_a_scan(k, r1, r2, noise, lo, width):
    # k (t - r1)(t - r2), moved off its roots by noise
    a, b, c = k, -k * (r1 + r2), k * r1 * r2 + noise
    assert _roots_between(a, b, c, lo, lo + width) == _roots_by_scan(a, b, c, lo, lo + width)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-30, 30).filter(bool), b=st.integers(-60, 60), c=st.integers(-400, 400))
@example(a=1, b=-4, c=4)                                   # a double integer root
@example(a=-3, b=9, c=84)                                  # a < 0 with two integer roots
def test_solve_quadratic_integer_roots(a, b, c):
    if b * b - 4 * a * c < 0:
        reject()
    q = solve_quadratic("random", a, b, c)
    # the roots tested for rationality, the route the single solver replaced
    members = sorted({int(r.rational_value()) for r in q.roots
                      if r.is_rational() and r.rational_value().denominator == 1})
    # an integer root t has |t| <= |b| + |c|, so this range holds all of them
    bound = abs(b) + abs(c)
    assert list(q.integer_roots) == members == _roots_by_scan(a, b, c, -bound, bound)


def test_solve_quadratic_checks_every_root(monkeypatch):
    from twodist import dioph

    assert solve_quadratic("S = 2", 3, 1, -4).roots == (QuadExt(1), QuadExt(Fraction(-4, 3)))
    monkeypatch.setattr(dioph, "sqrt_adjoin", lambda r: parse_scalar("sqrt(2)"))
    with pytest.raises(InternalConsistencyError, match="root .* of S = 2 fails substitution"):
        solve_quadratic("S = 2", 3, 1, -4)
    with pytest.raises(InternalConsistencyError):
        solve_strip_equation()


def test_brute_solver_rechecks_every_survivor(monkeypatch):
    # root finders that return their whole ranges of (x, m) and of y turn brute_solver
    # into a scan; the exact check of p1, p2 and p3 must still keep only solutions
    from twodist import dioph

    # z is the floor of z_of off p1 = 0, where the recheck drops the point
    monkeypatch.setattr(dioph, "_p1_m_roots", lambda S, mmax: [
        (x, m, (x * (m + 1) - S * (S + 1)) // (2 * S))
        for x in range(1, S) for m in range(S + 1, mmax + 1)])
    monkeypatch.setattr(dioph, "_integer_roots_between", lambda f, lo, hi: range(lo, hi + 1))
    assert brute_solver(8, 50) == enumerate_p_system(8, 50)
    # no integer point of the box has p1 = p2 = 0 and p3 != 0, so p3's recheck shows only here
    monkeypatch.setattr(dioph, "_p3", lambda S, m, x, y: 1)
    assert brute_solver(8, 50) == []


# how each gate of solve and classify is decided; tight-design rests on a cited theorem
GATE_METHODS = {
    "p-system": "exact evaluation", "ordering": "exact evaluation",
    "integrality": "parameter formulas", "family-i": "the family (i) point at z",
    "small-S branch": "integer root of the S-quadratic",
    "tight-design": "cited: the uniqueness of 4-(23,7,1)",
}


def test_brute_solver_large_box():
    certs = brute_solver(100, 100_000)
    for cert in certs:
        assert [eval_p(w, *cert.smxy) for w in ("p1", "p2", "p3")] == [0, 0, 0]
        S, m, x, _, z = cert.candidate      # the chart link: S - x = z^2, m x = (S + z)^2
        assert S - x == z * z and m * x == (S + z) ** 2
        assert type(z) is int and z == z_of(S, m, x)    # the walk's z is the strip coordinate
        assert all(g.covers == cert.smxy and g.method == GATE_METHODS[g.claim] for g in cert.gates)
    accepted = [c for c in certs if c.accepted]
    assert [c.candidate[4] for c in accepted] == [1, 2, 4, 5, 6, 8]
    assert [c.smxy for c in accepted] == [family_points(z) for z in (1, 2, 4, 5, 6, 8)]
    on_family = {c.candidate[4]: c for c in classify(8)}
    for cert in accepted:
        family_cert = on_family[cert.candidate[4]]
        assert family_cert.smxy == cert.smxy
        assert [g.passed for g in family_cert.gates if g.claim == "integrality"] == [True]


def test_classify_certificates_carry_the_strip_coordinate():
    certs = classify(12)
    for cert in certs:
        S, m, x, _, z = cert.candidate
        assert type(z) is int and z == z_of(S, m, x)
        assert all(g.covers == cert.smxy and g.method == GATE_METHODS[g.claim] for g in cert.gates)
    assert {g.claim for c in certs for g in c.gates} == {
        "ordering", "integrality", "small-S branch", "tight-design"}


def _classify_one_z_off(monkeypatch):
    # classify's loop z = 1 gets the family point of z = 2
    points = dioph.family_points
    monkeypatch.setattr(dioph, "family_points", lambda z: points(z + 1))
    classify(1)


def _brute_solver_at_half(monkeypatch):
    # p1's chart yields z = 1/2 beside each (x, m)
    roots = dioph._p1_m_roots
    monkeypatch.setattr(dioph, "_p1_m_roots", lambda S, mmax: [
        (x, m, Fraction(1, 2)) for x, m, _ in roots(S, mmax)])
    brute_solver(3, 9)


@pytest.mark.parametrize("run, z", [(_classify_one_z_off, "1"), (_brute_solver_at_half, "1/2")],
                         ids=["classify", "brute_solver"])
def test_certificate_refuses_a_non_integral_z(run, z, monkeypatch):
    # a certificate takes the walk's z (classify's loop, p1's chart z = +-t) and checks
    # it against 2 S z = x (m + 1) - S (S + 1): a z off it is a bug, never a verdict
    with pytest.raises(InternalConsistencyError,
                       match=rf"has no z = {z}: 2 S z != x \(m \+ 1\) - S \(S \+ 1\)"):
        run(monkeypatch)


def test_integrality_gates_raise_where_no_walk_can_go(monkeypatch):
    # both walks keep 0 <= y < x < S < m and a nonzero Lambda denominator, so
    # a point that breaks either is a bug, not a rejection
    from twodist import dioph

    monkeypatch.setattr(dioph, "family_points", lambda z: (2, 9, 1, 1))
    with pytest.raises(InternalConsistencyError, match=r"violates 0 <= y < x < S < m"):
        classify(1)
    monkeypatch.undo()

    def degenerate(m, S, alpha, beta):
        raise DegenerateParametersError("degenerate parameters")

    monkeypatch.setattr(dioph, "derive_parameters", degenerate)
    for run in (lambda: classify(1), lambda: brute_solver(3, 9)):
        with pytest.raises(InternalConsistencyError, match=r"degenerate parameters"):
            run()


def test_lambda_denominator_is_nonzero_on_the_p_system():
    # the parametrization and closed form that _integrality_gates' comment rests on:
    # for w <= 2x both parts of the bracket are <= 0 and the second < 0; for w > 2x
    # the first is >= (w + x)^2 > x(w + 2x)
    certs = brute_solver(60, 20_000)
    assert len(certs) > 40
    for cert in certs:
        S, m, x, y = cert.smxy
        t = x - y
        w = t * (t + 1)
        bracket = (w - 2 * x) * (w + x) ** 2 - x * (w + 2 * x)
        assert t >= 1 and S - x == t * t and m * x == (S + t) ** 2
        assert lambda_parts(S, m, x, y)[1] * x == -t * t * bracket != 0


def test_classify_unique_acceptance_for_every_bound():
    for zmax in range(1, 13):
        assert [c.candidate[4] for c in classify(zmax) if c.accepted] == [1], zmax


def test_classify():
    certs = classify(6)
    assert [c.candidate[4] for c in certs if c.accepted] == [1]
    verdicts = {c.candidate[4]: c.verdict for c in certs}
    assert "tight-design" in verdicts[2] and "27" in verdicts[2]
    assert "integrality" in verdicts[3] and "795/2" in verdicts[3]
    assert "tight-design" in verdicts[4]
    assert len(dioph.FAMILY_NOTES) == 2
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
    assert tight.integer_roots == (2,)
    # the only integer root outside the tight range is z = 1
    outside = [r for e in report.entries for r in e.integer_roots
               if not e.label.startswith("S = 7")]
    assert outside == [1]


def test_quadratic_exclusions_come_from_family_i():
    """Each S-range quadratic is its labelled residual on family (i), up to a constant."""
    import re

    for entry in quadratic_exclusions().entries:
        if entry.label.startswith("strip"):
            assert entry.quadratic == solve_strip_equation().quadratic
            continue
        side, c = re.fullmatch(r"S = (m - )?(\d+)( \(tight range\))?", entry.label).group(1, 2)
        a, b, q0 = entry.quadratic
        pairs = []
        for z in (0, 1, 2):
            S, m, _, _ = family_points(z)
            residual = (m - S if side else S) - int(c)
            pairs.append((a * z * z + b * z + q0, residual))
        # proportional at three points, so equal as quadratics up to the factor
        assert all(q1 * r2 == q2 * r1 for q1, r1 in pairs for q2, r2 in pairs), entry.label
        assert any(r for _, r in pairs) and all(q * r >= 0 for q, r in pairs), entry.label


def test_format_quadratic():
    from twodist.dioph import format_quadratic

    assert format_quadratic((1, 1, -10)) == "z^2 + z - 10"
    assert format_quadratic((3, 1, -4)) == "3z^2 + z - 4"
    assert format_quadratic((-1, 0, 5)) == "-z^2 + 5"
    assert format_quadratic((0, -2, 0)) == "-2z"
    assert format_quadratic((0, 0, 0)) == "0"


def enumerate_check_range(row, lo, hi, x_start, x_stop, region, report):
    """Oracle: `check_range` without root exclusion.

    A and B are evaluated by Horner's rule at every point of [x_start, x_stop];
    the points with A B <= 0 are counted in `points_enumerated`.
    """
    from twodist.exactnum import format_scalar
    from twodist.polynomials import _horner

    if lo > hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    count = x_stop - x_start + 1
    if count <= 0:
        return
    report.points_checked[region] = report.points_checked.get(region, 0) + count
    failing = 0
    for x0 in range(x_start, x_stop + 1):
        n, d = _horner(row.num, x0), _horner(row.den, x0)
        if (n - lo * d) * (hi * d - n) > 0:
            continue
        failing += 1
        if d == 0:
            row.check_point_fallback(x0, lo, hi, region, report)
            continue
        report.violations.append(PointViolation(region, x0, row.z0, format_scalar(Fraction(n, d))))
    report.points_enumerated[region] = report.points_enumerated.get(region, 0) + failing


def enumerate_curve_search(curve, xmin, xmax, zmin, zmax):
    """Oracle: `curve_search` with every point of the box evaluated by `poly_eval`."""
    return [(x0, z0) for z0 in range(zmin, zmax + 1) for x0 in range(xmin, xmax + 1)
            if poly_eval(curve, {"x": x0, "z": z0}) == 0]


def _check_range_oracle(which, z0, lo, hi, x_start, x_stop, region):
    """The per-point check of lo < g(x, z0) < hi on aux_g and Fractions."""
    from twodist.exactnum import format_scalar

    violations = []
    for x0 in range(x_start, x_stop + 1):
        try:
            value = aux_g(which, x0, z0)
        except ZeroDivisionError:
            violations.append(PointViolation(region, x0, z0, "pole"))
            continue
        if not lo < value < hi:
            violations.append(PointViolation(region, x0, z0, format_scalar(value)))
    count = x_stop - x_start + 1
    return ({region: count} if count > 0 else {}), violations


@pytest.mark.parametrize("which", ["g1", "g2"])
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (1, 2), (-1, 38), (31, 33), (-5, 3)])
def test_row_check_range_matches_pointwise_oracle(which, lo, hi):
    """Every row z in [-12, 12] from x = 1, so (1, 0), a zero of the derived D, is included."""
    for z0 in range(-12, 13):
        row = RowEvaluator(which, z0)
        for x_start, x_stop in ((1, 40), (1, 1), (2, 3), (7, 29), (5, 4)):
            report = LatticeReport()
            row.check_range(lo, hi, x_start, x_stop, "r", report)
            points, violations = _check_range_oracle(which, z0, lo, hi, x_start, x_stop, "r")
            assert report.points_checked == points, (z0, x_start, x_stop)
            assert report.violations == violations, (z0, x_start, x_stop)


def test_row_check_range_rejects_an_inverted_interval():
    report = LatticeReport()
    with pytest.raises(ValueError):
        RowEvaluator("g1", 3).check_range(1, 0, 1, 10, "r", report)
    assert not report.points_checked


def test_y2_curve_search_finds_every_off_line_zero():
    """The lattice oracle on a stand-in curve with known zeros off z = 0, against a brute-force scan."""
    x, z = Poly.gens(("x", "z"))
    curve = (x - 5) * (z - 2) * (x - z * z - 3) * (x + z + 40)
    box = (-45, 60, -9, 8)
    expected = [(x0, z0) for z0 in range(box[2], box[3] + 1)
                for x0 in range(box[0], box[1] + 1)
                if poly_eval(curve, {"x": x0, "z": z0}) == 0]
    assert any(z0 not in (0, 2) and x0 not in (5, -z0 - 40) for x0, z0 in expected)
    assert curve_search(xz_rows(curve), *box) == expected


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
    from twodist.dioph import _Y2_CURVE

    cleared = table_poly(_Y2_CURVE)
    assert poly_eval(cleared, {"x": 0, "z": 1}) == 0
    assert poly_eval(cleared, {"x": -9, "z": 3}) == 0
    assert all(x <= 0 for x in (0, -9))


@st.composite
def tight_row_cases(draw):
    """A g1 or g2 row, an x-interval of up to ~5,000 points and bounds near g's values.

    lo and hi sit at or next to the floor of g at a point of the interval,
    so most cases have violations, and many have stretches where A B < 0
    with neither A nor B vanishing.
    """
    which = draw(st.sampled_from(["g1", "g2"]))
    z0 = draw(st.integers(-200, 200))
    x_start = draw(st.integers(1, 6000))
    x_stop = x_start + draw(st.integers(-1, 5000))
    probe = draw(st.integers(x_start, max(x_start, x_stop)))
    try:
        anchor = aux_g(which, probe, z0)
    except ZeroDivisionError:
        anchor = Fraction(0)
    lo = anchor.numerator // anchor.denominator - draw(st.integers(0, 1))
    hi = lo + draw(st.integers(0, 2))
    return which, z0, lo, hi, x_start, x_stop


@settings(max_examples=150, deadline=None)
@given(case=tight_row_cases())
@example(case=("g2", 0, -1, 38, 1, 400))      # (1, 0) zeroes the derived D; g2 = 0 on the row
@example(case=("g2", 0, 0, 1, 1, 3000))       # every point of the row fails
@example(case=("g1", 0, -1, 1, 1, 200))       # (1, 0) zeroes the derived D; g1 = 0 on the row
@example(case=("g1", 0, 0, 0, 1, 1))
def test_row_check_range_matches_enumeration_oracle(case):
    which, z0, lo, hi, x_start, x_stop = case
    row = RowEvaluator(which, z0)
    got, want = LatticeReport(), LatticeReport()
    row.check_range(lo, hi, x_start, x_stop, "r", got)
    enumerate_check_range(row, lo, hi, x_start, x_stop, "r", want)
    assert got.points_checked == want.points_checked
    assert got.violations == want.violations
    assert got.points_enumerated == want.points_enumerated
    for region, count in got.points_checked.items():
        assert got.points_proved[region] + got.points_enumerated[region] == count


@pytest.mark.parametrize("z0, lo, hi", [
    (37, -1, 32),     # g2 rises through hi = 32 near x = 100 and falls back
    (5, 1, 38),       # g2 falls through lo = 1 near x = 500
])
def test_a_crossing_row_is_partly_proved_and_partly_enumerated(z0, lo, hi):
    """g2 starts inside (lo, hi) and later leaves it, with the other bound never reached.

    The interval's left end passes A(a) B(a) > 0 and one of A, B is
    root-free on the whole row, so only the root test of the other one
    keeps the violations from being proved away.
    """
    row = RowEvaluator("g2", z0)
    assert lo < aux_g("g2", 3, z0) < hi
    report = LatticeReport()
    row.check_range(lo, hi, 3, 5000, "r", report)
    want = LatticeReport()
    enumerate_check_range(row, lo, hi, 3, 5000, "r", want)
    assert report.violations == want.violations and report.violations
    assert report.points_proved["r"] > 0
    # no point of these rows has D = 0, so the points left over are the violations
    assert report.points_enumerated["r"] == len(report.violations)


def test_default_boxes_need_no_enumeration():
    """The lattice oracle closes every row of `regions`' default boxes by root exclusion alone.

    It finds no violation and checks the same points, per region, as the
    proof of `region_scan` counts.
    """
    for which in ("g1", "g2"):
        proved, oracle = region_scan(which, **REGIONS_BOX), lattice_scan(which, **REGIONS_BOX)
        assert proved.ok and not oracle.violations
        assert oracle.points_checked == proved.points_checked
        assert oracle.points_proved == oracle.points_checked
        assert set(oracle.points_enumerated.values()) == {0}


@st.composite
def stand_in_curves(draw):
    """A curve in (x, z) with double roots, roots at both box ends and zero rows.

    Factors in x alone put roots (some doubled) at xmin, xmax or inside the
    box; (x - c)^2 + 1 has no real root yet defeats one Descartes test over
    a wide interval; x - z^2 - c and z - z1 move roots from row to row or
    zero a whole row.
    """
    x, z = Poly.gens(("x", "z"))
    xmin = draw(st.integers(-60, 60))
    xmax = xmin + draw(st.integers(0, 900))
    zmin = draw(st.integers(-6, 6))
    zmax = zmin + draw(st.integers(0, 5))
    curve = Poly.constant(("x", "z"), draw(st.sampled_from([1, -2, 3])))
    x_root = st.one_of(st.sampled_from([xmin, xmax]), st.integers(xmin - 5, xmax + 5))
    for r in draw(st.lists(x_root, max_size=3)):
        curve = curve * (x - r) ** draw(st.integers(1, 2))
    for c in draw(st.lists(st.integers(xmin, xmax), max_size=1)):
        curve = curve * ((x - c) ** 2 + 1)
    for c in draw(st.lists(st.integers(xmin - 40, xmax), max_size=1)):
        curve = curve * (x - z * z - c)
    for z1 in draw(st.lists(st.integers(zmin, zmax), max_size=1)):
        curve = curve * (z - z1)
    return curve, (xmin, xmax, zmin, zmax)


@settings(max_examples=100, deadline=None)
@given(case=stand_in_curves())
def test_y2_curve_search_matches_enumeration_oracle(case):
    curve, box = case
    assert curve_search(xz_rows(curve), *box) == enumerate_curve_search(curve, *box)
