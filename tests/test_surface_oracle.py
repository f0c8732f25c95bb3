"""The shipped g1 and g2 tables against their derivation in surface_oracle."""

from functools import reduce
from math import gcd

import pytest

from twodist import dioph
from twodist.dioph import RegionScanReport, _RowEvaluator, region_scan, solve_strip_equation
from twodist.errors import DesignError

from surface_oracle import derived_pair, lowest_terms, table_holds, table_literal, table_poly

WHICH = ["g1", "g2"]


def check_table(which, num_rows, den_rows):
    assert table_holds(which, num_rows, den_rows), (
        f"the {which} table is not the derived N / D; regenerate it:\n{table_literal(which)}")


@pytest.mark.parametrize("which", WHICH)
def test_tables_are_the_derived_pair(which):
    check_table(which, *dioph._LOWEST_TERMS[which])


@pytest.mark.parametrize("which", WHICH)
def test_tables_are_in_lowest_terms(which):
    import sympy

    x, z = sympy.symbols("x z")
    num, den = (sympy.Poly.from_dict(table_poly(rows).terms, x, z)
                for rows in dioph._surface(which))
    assert sympy.gcd(num, den).total_degree() == 0          # coprime over Q[x, z]
    assert reduce(gcd, table_poly(dioph._surface(which)[1]).terms.values()) == 1
    assert dioph._LOWEST_TERMS[which][1][-1][-1] > 0
    assert lowest_terms(which) == dioph._LOWEST_TERMS[which]


@pytest.mark.parametrize("which", WHICH)
def test_a_perturbed_table_fails_the_identity(which):
    num, den = dioph._LOWEST_TERMS[which]
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


def _scan(which, zmin, zmax, xmax):
    try:
        report = region_scan(which, zmin, zmax, xmax)
    except DesignError as exc:
        return str(exc)
    return (report.points_checked, report.points_proved, report.points_enumerated,
            report.violations, report.notes)


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("zmin, zmax", [(-2, 1), (-15, -14), (9, 10)])
@pytest.mark.parametrize("xmax", [1, 2, 3, 150])
def test_region_scan_matches_the_derived_pair(which, zmin, zmax, xmax, monkeypatch):
    shipped = _scan(which, zmin, zmax, xmax)
    monkeypatch.setattr(dioph, "_surface", derived_pair)
    assert _scan(which, zmin, zmax, xmax) == shipped


def test_strip_equation_matches_the_derived_pair(monkeypatch):
    shipped = solve_strip_equation()
    monkeypatch.setattr(dioph, "_surface", derived_pair)
    assert solve_strip_equation() == shipped


def _row_violations(which, z0):
    violations = []
    for lo, hi in ((0, 0), (0, 1), (31, 33)):
        report = RegionScanReport(which, z0, z0, 40)
        _RowEvaluator(which, z0).check_range(lo, hi, 1, 40, "r", report)
        violations.append(report.violations)
    return violations


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("z0", [-15, -14, -2, -1, 0, 1, 9, 10])
def test_row_violations_match_the_derived_pair(which, z0, monkeypatch):
    """Bounds that g breaks, from x = 1.

    On the row z = 0 the derived D vanishes at x = 1, so that point takes
    `_check_point_fallback` there and a plain N / D on the shipped pair.
    """
    shipped = _row_violations(which, z0)
    assert any(shipped)
    monkeypatch.setattr(dioph, "_surface", derived_pair)
    assert _row_violations(which, z0) == shipped
