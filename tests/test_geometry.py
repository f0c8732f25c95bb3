from fractions import Fraction

import pytest

from twodist.designs import DesignError
from twodist.exactnum import QuadExt, parse_scalar, sqrt_adjoin
from twodist.geometry import (
    DegeneracyError,
    centroid,
    configuration_distance_classes,
    f_ratio,
    geometric_residuals,
    lisonek_coordinates,
    native_block_radius,
    native_gram_distances,
    origin_norm_sq,
    p_residuals,
    remark_checks,
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
    assert spec.distance(2) == parse_scalar("sqrt(2)")
    assert spec.distance(3) == QuadExt(2)
    assert spec.iota == 1


def test_theoretical_spectrum_errors():
    with pytest.raises(DesignError):
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
        for branch, orientation in (("gt2", 1), ("lt2", -1)):
            spec = theoretical_spectrum(S, m, alpha, beta, branch)
            mirrored = spectrum_from_gram(gram, spec.r2, orientation=orientation)
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
    assert result.gamma_sq == QuadExt(4)
    assert result.gamma() == QuadExt(2)
    assert result.case.letter == "A"
    assert result.case.iota == 1
    assert result.case.complement_letter == "B"


def test_two_distance_classify_rejects_many_values(lisonek_projector):
    spec = spectrum_from_gram(lisonek_projector.gram, QuadExt(1))
    result = two_distance_classify(spec)
    assert not result.is_two_distance
    assert result.gamma_sq is None and result.case is None


def test_two_distance_classify_degenerate(lisonek_projector):
    spec = theoretical_spectrum(2, 9, 1, 0, "gt2")
    collapsed = type(spec)(spec.r1, spec.r2, (QuadExt(2),) * 5,
                           dict.fromkeys(spec.classes, QuadExt(2)), "gt2", 1)
    with pytest.raises(DegeneracyError):
        two_distance_classify(collapsed)


def test_p_residuals():
    assert p_residuals(2, 9, 1, 0).gt2 == (0, 0, 0)
    assert p_residuals(7, 27, 3, 1).gt2 == (0, 0, 0)
    lt2 = p_residuals(2, 9, 1, 0).lt2
    assert lt2[0] == 4 and lt2 != (0, 0, 0)
    assert p_residuals(2, 9, 1, 0).feasible_branches == ("gt2",)


def test_geometric_route_agrees_with_polynomials():
    grid = [(2, 9, 1, 0), (7, 27, 3, 1), (3, 10, 2, 1), (4, 12, 2, 1),
            (5, 12, 3, 2), (6, 20, 4, 2)]
    for S, m, alpha, beta in grid:
        poly_zero = p_residuals(S, m, alpha, beta).gt2 == (0, 0, 0)
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


def test_remark_checks():
    rc = remark_checks(2, 9)
    assert rc.d3_out_sq == Fraction(8, 7)
    assert rc.ok
    edge = remark_checks(8, 9)
    assert edge.d2_out_sq == 0 and edge.d3_out_sq == 2
    assert remark_checks(5, 17).gap == Fraction(2, 12)
    with pytest.raises(DesignError):
        remark_checks(9, 9)
