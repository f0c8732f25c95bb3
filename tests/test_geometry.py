from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodist.dioph import eval_p, p_residuals
from twodist.errors import DegeneracyError, DesignError, InternalConsistencyError
from twodist.exactnum import QuadExt, parse_scalar, sqrt_adjoin
from twodist.geometry import (
    PointConfiguration,
    centroid,
    configuration_distance_classes,
    f_ratio,
    lisonek_coordinates,
    native_block_radius,
    native_gram_distances,
    origin_norm_sq,
    spectrum_from_gram,
    squared_distance,
    theoretical_spectrum,
    two_distance_classify,
)

R2_LISONEK = parse_scalar("1/3*sqrt(14)")


def _valid_grid(count):
    out = []
    for m in range(5, 60):
        for S in range(3, m):
            for alpha in range(1, S):
                for beta in range(alpha):
                    out.append((S, m, alpha, beta))
                    if len(out) == count:
                        return out
    return out


def test_f_ratio():
    assert f_ratio(7) == Fraction(6, 7)
    assert f_ratio(9) == Fraction(8, 9)
    with pytest.raises(DesignError):
        f_ratio(0)


def test_lisonek_coordinates_basics():
    config = lisonek_coordinates()
    assert len(config.all_points) == 45          # = C(10, 2), the upper bound
    assert config.simplex_points[0] == (Fraction(-2, 3),) + (Fraction(1, 3),) * 8
    assert all(sum(p) == 2 for p in config.all_points)


def test_lisonek_distance_classes():
    classes = configuration_distance_classes(lisonek_coordinates())
    assert classes["V_V"] == QuadExt(2)
    assert classes["B_B_alpha"] == QuadExt(2)
    assert classes["B_B_beta"] == QuadExt(4)
    assert classes["V_B_in"] == QuadExt(4)
    assert classes["V_B_out"] == QuadExt(2)


def distance_classes_by_definition(config) -> dict:
    """The pair classes' sets of squared_distance values, straight from Fractions."""
    blocks = [set(b) for b in config.blocks]
    simplex, pts = config.simplex_points, config.block_points
    out = {"V_V": {squared_distance(p, q) for p, q in combinations(simplex, 2)},
           "B_B_alpha": set(), "B_B_beta": set(), "V_B_in": set(), "V_B_out": set()}
    for i, j in combinations(range(len(pts)), 2):
        key = "B_B_alpha" if len(blocks[i] & blocks[j]) == 1 else "B_B_beta"
        out[key].add(squared_distance(pts[i], pts[j]))
    for v, p in enumerate(simplex):
        for b, q in enumerate(pts):
            out["V_B_in" if v in blocks[b] else "V_B_out"].add(squared_distance(p, q))
    return out


def assert_matches_definition(config) -> None:
    expected = distance_classes_by_definition(config)
    if all(len(values) == 1 for values in expected.values()):
        classes = configuration_distance_classes(config)
        assert classes == {k: QuadExt(v) for k, (v,) in expected.items()}
    else:
        with pytest.raises(InternalConsistencyError, match="is not a single distance"):
            configuration_distance_classes(config)
    for p in config.all_points:
        assert origin_norm_sq(p) == sum(Fraction(a) ** 2 for a in p)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def moved_lisonek(draw):
    """Lisonek's points under a rational scaling, translation and coordinate order."""
    config = lisonek_coordinates()
    scale = draw(rationals.filter(bool))
    shift = draw(st.lists(rationals, min_size=9, max_size=9))
    order = draw(st.permutations(range(9)))

    def move(points):
        return tuple(tuple(scale * p[k] + shift[k] for k in order) for p in points)

    return PointConfiguration(move(config.simplex_points), move(config.block_points),
                              config.blocks)


@st.composite
def rational_configurations(draw):
    """A few int or Fraction points in R^3 with blocks drawn among pairs of them."""
    nv = draw(st.integers(2, 4))
    point = st.lists(st.one_of(st.integers(-9, 9), rationals), min_size=3, max_size=3).map(tuple)
    pairs = list(combinations(range(nv), 2))
    blocks = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4)))
    return PointConfiguration(tuple(draw(point) for _ in range(nv)),
                              tuple(draw(point) for _ in blocks), blocks)


@settings(max_examples=40, deadline=None)
@given(config=st.one_of(moved_lisonek(), rational_configurations()))
@example(config=lisonek_coordinates())
def test_integer_geometry_matches_fractions(config):
    assert_matches_definition(config)


def test_lisonek_radii():
    config = lisonek_coordinates()
    assert {origin_norm_sq(p) for p in config.simplex_points} == {Fraction(4, 3)}
    assert {origin_norm_sq(p) for p in config.block_points} == {Fraction(2)}
    c = centroid(config.all_points)
    assert c == (Fraction(2, 9),) * 9
    assert centroid(config.simplex_points) == c
    assert {squared_distance(p, c) for p in config.simplex_points} == {Fraction(8, 9)}
    assert {squared_distance(p, c) for p in config.block_points} == {Fraction(14, 9)}


def test_theoretical_spectrum_lisonek():
    spec = theoretical_spectrum(2, 9, 1, 0, "gt2")
    assert spec.r1 == parse_scalar("2/3*sqrt(2)")
    assert spec.r2 == R2_LISONEK
    assert [str(v) for v in spec.d_sq] == ["2", "2", "4", "2", "4"]
    assert spec.d_sq[1] == 2 and spec.d_sq[2] == 4
    # gamma > 2: V on the smaller sphere, so the in-block distance is the far one
    assert spec.d_sq[3] == spec.classes["V_B_out"] and spec.d_sq[4] == spec.classes["V_B_in"]


def test_theoretical_spectrum_errors():
    with pytest.raises(DesignError, match=r"alpha < S < m, got \(m=9, S=9, alpha=1, beta=0\)"):
        theoretical_spectrum(9, 9, 1, 0, "gt2")
    with pytest.raises(ValueError):
        theoretical_spectrum(2, 9, 1, 0, "between")


def test_native_gram_distances(lisonek_projector):
    native = native_gram_distances(lisonek_projector.gram)
    assert native["V_V"] == QuadExt(1)
    assert native["B_B_alpha"] == QuadExt(Fraction(1, 7))
    assert native["B_B_beta"] == QuadExt(Fraction(2, 7))
    assert native["V_B_in"] == parse_scalar("5/9 + 1/9*sqrt(7)")
    assert native["V_B_out"] == parse_scalar("5/9 - 2/63*sqrt(7)")
    assert native_block_radius(lisonek_projector.gram) == QuadExt(Fraction(1, 3))


def test_oracle_equivalence(lisonek_projector):
    """Three independent routes to the same exact spectrum."""
    theoretical = theoretical_spectrum(2, 9, 1, 0, "gt2")
    from_gram = spectrum_from_gram(lisonek_projector.gram, R2_LISONEK)
    coords = configuration_distance_classes(lisonek_coordinates())
    assert theoretical.classes == from_gram.classes == coords
    assert theoretical.d_sq == from_gram.d_sq
    assert theoretical.r1 == from_gram.r1
    assert theoretical.r2 == from_gram.r2


def test_both_branches_realized_from_gram(lisonek_projector, witt_design):
    """Both closed-form branches agree with the Gram route on real designs.

    The gamma > 2 branch uses the direct orientation, the gamma < 2 branch
    the antipodal one.  This exercises designs well away from the
    two-distance locus, where all spectrum values are irrational.
    """
    from twodist.coherent import from_design, projector_and_gram

    cases = [(lisonek_projector.gram, (2, 9, 1, 0))]
    witt_result = projector_and_gram(from_design(witt_design))
    cases.append((witt_result.gram, (7, 23, 3, 1)))
    for gram, (S, m, alpha, beta) in cases:
        for branch in ("gt2", "lt2"):
            spec = theoretical_spectrum(S, m, alpha, beta, branch)
            mirrored = spectrum_from_gram(gram, spec.r2, branch)
            assert mirrored.classes == spec.classes, (S, m, branch)
            assert mirrored.d_sq == spec.d_sq, (S, m, branch)


def test_native_radius_has_at_most_five_distances(lisonek_projector):
    spec = spectrum_from_gram(
        lisonek_projector.gram, native_block_radius(lisonek_projector.gram))
    assert len(spec.distinct_squared()) <= 5


def test_rescaling_preserves_embedding_conditions(lisonek_projector):
    gram = lisonek_projector.gram
    samples = [QuadExt(Fraction(k, 7)) for k in range(1, 15)]
    samples += [sqrt_adjoin(Fraction(2)), sqrt_adjoin(Fraction(1, 2)),
                R2_LISONEK, QuadExt(Fraction(5, 2)) * sqrt_adjoin(7),
                QuadExt(3), QuadExt(Fraction(22, 9))]
    assert len(samples) == 20
    for r2 in samples:
        spec = spectrum_from_gram(gram, r2)
        assert spec.classes["V_V"] == QuadExt(2)
        bb = {spec.classes["B_B_alpha"], spec.classes["B_B_beta"]}
        vb = {spec.classes["V_B_in"], spec.classes["V_B_out"]}
        assert len(bb) <= 2 and len(vb) <= 2


def test_spectrum_from_gram_rejects_nonpositive_radius(lisonek_projector):
    with pytest.raises(DesignError):
        spectrum_from_gram(lisonek_projector.gram, QuadExt(0))
    with pytest.raises(DesignError):
        spectrum_from_gram(lisonek_projector.gram, QuadExt(-1))


def test_two_distance_classify_lisonek():
    result = two_distance_classify(theoretical_spectrum(2, 9, 1, 0, "gt2"))
    assert result.is_two_distance
    assert result.gamma_sq == 4
    assert result.letter == "A"
    assert result.complement_letter == "B"


def test_two_distance_classify_rejects_many_values(lisonek_projector):
    spec = spectrum_from_gram(lisonek_projector.gram, QuadExt(1))
    result = two_distance_classify(spec)
    assert not result.is_two_distance
    assert result == (None, None, None)


def test_two_distance_classify_degenerate(lisonek_projector):
    spec = theoretical_spectrum(2, 9, 1, 0, "gt2")
    collapsed = type(spec)(spec.r1, spec.r2, (QuadExt(2),) * 5,
                           dict.fromkeys(spec.classes, QuadExt(2)))
    with pytest.raises(DegeneracyError):
        two_distance_classify(collapsed)


def test_p_residuals():
    assert p_residuals(2, 9, 1, 0) == (0, 0, 0)
    assert p_residuals(7, 27, 3, 1) == (0, 0, 0)
    # the gamma < 2 branch swaps the intersection numbers
    lt2 = tuple(eval_p(w, 2, 9, 0, 1) for w in ("p1", "p2", "p3"))
    assert lt2[0] == 4 and lt2 != (0, 0, 0)
    with pytest.raises(DesignError, match=r"alpha < S < m, got \(m=9, S=3, alpha=1, beta=2\)"):
        p_residuals(3, 9, 1, 2)


def geometric_residuals(S: int, m: int, alpha: int, beta: int) -> tuple:
    """The three two-distance conditions computed geometrically (gamma > 2).

    Imposes d2^2 = 2 to fix R2, then returns (d4^2 - 2, d5^2 - d3^2,
    2 (S - beta) - d3^2 (S - alpha)) as exact values; all three vanish
    exactly when the closed-form embedding is a two-distance set.  An
    oracle for `p_residuals` by a route through the geometry.
    """
    fm = f_ratio(m)
    b_val = fm - f_ratio(m - S)
    c_val = fm - f_ratio(S)
    r2_sq = Fraction((m - S) * S, (S - alpha) * m)
    r2 = sqrt_adjoin(r2_sq)
    d4_sq = QuadExt(r2_sq + fm) - 2 * (r2 * sqrt_adjoin(b_val))
    d5_sq = QuadExt(r2_sq + fm) + 2 * (r2 * sqrt_adjoin(c_val))
    d3_sq = QuadExt(r2_sq * Fraction(2 * (S - beta) * m, (m - S) * S))
    res1 = d4_sq - 2
    res2 = d5_sq - d3_sq
    res3 = QuadExt(2 * (S - beta)) - d3_sq * (S - alpha)
    return (res1, res2, res3)


def test_geometric_route_agrees_with_polynomials():
    grid = [(2, 9, 1, 0), (7, 27, 3, 1), (3, 10, 2, 1), (4, 12, 2, 1),
            (5, 12, 3, 2), (6, 20, 4, 2)]
    for S, m, alpha, beta in grid:
        poly_zero = p_residuals(S, m, alpha, beta) == (0, 0, 0)
        geo = geometric_residuals(S, m, alpha, beta)
        geo_zero = all(g.is_zero() for g in geo)
        assert poly_zero == geo_zero, (S, m, alpha, beta)


def test_branch_root_exceeds_simplex_radius_on_grid():
    # the gamma > 2 root is always the larger sphere: excludes case (D);
    # radii are positive, so the squares (always in one extension) decide
    for S, m, alpha, beta in _valid_grid(100):
        spec = theoretical_spectrum(S, m, alpha, beta, "gt2")
        assert (spec.r2 * spec.r2 - spec.r1 * spec.r1).sign() > 0, (S, m)
        low = theoretical_spectrum(S, m, alpha, beta, "lt2")
        assert (low.r2 * low.r2 - low.r1 * low.r1).sign() < 0, (S, m)


def test_distance_ordering_on_grid():
    for S, m, alpha, beta in _valid_grid(100):
        for branch in ("gt2", "lt2"):
            spec = theoretical_spectrum(S, m, alpha, beta, branch)
            assert (spec.d_sq[2] - spec.d_sq[1]).sign() > 0, (S, m, branch)
            assert (spec.d_sq[4] - spec.d_sq[3]).sign() > 0, (S, m, branch)
