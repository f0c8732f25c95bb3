"""The shipped forms of g1 and g2 against their derivation in surface_oracle."""

from functools import reduce
from math import gcd

import pytest

from twodist.dioph import g2_integer_values, region_scan, solve_strip_equation
from twodist.errors import DesignError
from twodist.polynomials import _horner, _table_fiber
from twodist.regions import G2_SMALL_Z

from lattice_oracle import LatticeReport, RowEvaluator, lattice_scan
from surface_oracle import (aux_g, derived_pair, fiber_values, lowest_terms, shipped_pair,
                            strip_equation, table_holds, table_literal, table_poly)

WHICH = ["g1", "g2"]


def check_table(which, num_rows, den_rows):
    assert table_holds(which, num_rows, den_rows), (
        f"the {which} table is not the derived N / D; regenerate it:\n{table_literal(which)}")


@pytest.mark.parametrize("which", WHICH)
def test_tables_are_the_derived_pair(which):
    """g1's t-form at t = z(z + 1)/2 and the g2 table, each cross-multiplied with the derived pair."""
    check_table(which, *shipped_pair(which))


@pytest.mark.parametrize("which", WHICH)
def test_tables_are_in_lowest_terms(which):
    import sympy

    x, z = sympy.symbols("x z")
    num, den = (sympy.Poly.from_dict(table_poly(rows).terms, x, z)
                for rows in shipped_pair(which))
    assert sympy.gcd(num, den).total_degree() == 0          # coprime over Q[x, z]
    assert reduce(gcd, table_poly(shipped_pair(which)[1]).terms.values()) == 1
    assert shipped_pair(which)[1][-1][-1] > 0
    assert lowest_terms(which) == shipped_pair(which)


@pytest.mark.parametrize("which", WHICH)
def test_a_perturbed_table_fails_the_identity(which):
    num, den = shipped_pair(which)
    for side, rows in enumerate((num, den)):
        for k, row in enumerate(rows):
            for j in range(len(row)):
                bumped = [list(r) for r in rows]
                bumped[k][j] += 1
                pair = [num, den]
                pair[side] = bumped
                with pytest.raises(AssertionError, match="regenerate it"):
                    check_table(which, *pair)
    with pytest.raises(AssertionError, match="regenerate it"):
        check_table(which, num, [[-c for c in row] for row in den])


def test_aux_g1_matches_the_derived_pair():
    """`aux_g("g1")`, read off the t-form, against the oracle's reduced reading of the derived pair.

    Every x <= 60 and the points x = t - 2 .. t + 1 around the strip, on
    z in [-30, 30]: the rows z in {-1, 0}, where t = 0, and (1, 0), where the
    derived D vanishes, among them.
    """
    zs = range(-30, 31)
    points = {(x, z) for x in range(1, 61) for z in zs}
    points |= {(x, z) for z in zs for t in [z * (z + 1) // 2] for x in range(t - 2, t + 2) if x >= 1}
    pair = derived_pair("g1")
    for x, z in sorted(points):
        assert aux_g("g1", x, z) == next(fiber_values(pair, x, (z,))), (x, z)
    assert aux_g("g1", 1, 0) == 0 and _horner(_table_fiber(pair[1], 1), 0) == 0


def oracle_integer_values(zmin, zmax):
    """`g2_integer_values` read off the derived g2 pair by the oracle's reduced fibers."""
    zs = range(zmin, zmax + 1)
    return {(x0, z0): int(g) for x0 in (1, 2)
            for z0, g in zip(zs, fiber_values(derived_pair("g2"), x0, zs)) if g.denominator == 1}


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("zmin, zmax", [(-2, 1), (-15, -14), (9, 10)])
@pytest.mark.parametrize("xmax", [1, 2, 3, 150])
def test_region_scan_matches_the_derived_pair(which, zmin, zmax, xmax):
    """`region_scan` against the lattice oracle on the derived pair.

    The oracle checks the same box point by point: it raises where
    region_scan does, and otherwise counts the same points and finds no
    violation.
    """
    try:
        report = region_scan(which, zmin, zmax, xmax)
    except DesignError:
        with pytest.raises(DesignError):
            lattice_scan(which, zmin, zmax, xmax, derived_pair(which))
        return
    oracle = lattice_scan(which, zmin, zmax, xmax, derived_pair(which))
    assert report.ok and not oracle.violations
    assert oracle.points_checked == report.points_checked


@pytest.mark.parametrize("window", [G2_SMALL_Z, (-60, 60)])
def test_g2_integer_values_match_the_derived_pair(window):
    """The derived D vanishes at (1, 0), so the oracle reduces the fiber there; the shipped table needs no reduction.

    The table is read by `aux_g` on G2_SMALL_Z and on a wider window;
    test_g2_integer_values_are_the_derived_pairs holds `g2_integer_values`
    itself against the pair on G2_SMALL_Z.
    """
    assert _horner(_table_fiber(derived_pair("g2")[1], 1), 0) == 0
    shipped = {(x, z): int(v) for x in (1, 2) for z in range(window[0], window[1] + 1)
               if (v := aux_g("g2", x, z)).denominator == 1}
    assert shipped == oracle_integer_values(*window)
    assert shipped[(1, 0)] == 0


def test_g2_integer_values_are_the_derived_pairs():
    """What `regions --which g2` prints, against the oracle's reading of the derived pair."""
    assert g2_integer_values() == oracle_integer_values(*G2_SMALL_Z)


def test_strip_equation_matches_the_derived_pair():
    """The strip read off the t-form, against the table reading of the derived pair, reduced by its GCD."""
    assert strip_equation(derived_pair("g1")) == solve_strip_equation()


def _row_violations(pair, z0):
    violations = []
    for lo, hi in ((0, 0), (0, 1), (31, 33)):
        report = LatticeReport()
        RowEvaluator(None, z0, pair).check_range(lo, hi, 1, 40, "r", report)
        violations.append(report.violations)
    return violations


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("z0", [-15, -14, -2, -1, 0, 1, 9, 10])
def test_row_violations_match_the_derived_pair(which, z0):
    """Bounds that g breaks, from x = 1, on the shipped pair and on the derived one.

    On the row z = 0 the derived D vanishes at x = 1, so that point takes
    `check_point_fallback` there and a plain N / D on the shipped pair.
    """
    shipped = _row_violations(shipped_pair(which), z0)
    assert any(shipped)
    assert _row_violations(derived_pair(which), z0) == shipped
