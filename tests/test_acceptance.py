"""Acceptance suite: one test per criterion, all checks exact.

Every numeric comparison is exact (rationals and quadratic-extension values);
runtime budgets are asserted where the criterion states one.  Each test
prints a single pass line so the suite reads as a checklist under -v -s.
"""

import math
import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

from twodist import coherent, designs, dioph, geometry
from twodist.cli import dispatch
from twodist.exactnum import QuadExt, parse_scalar, quadext_sign, sqrt_adjoin


def _passed(number: int, detail: str, t0: float, budget: float = None) -> None:
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {number}: PASS — {detail} ({elapsed:.2f}s)")


def test_criterion_1_lisonek_golden(capsys):
    t0 = time.monotonic()
    code, report = dispatch(["verify", "lisonek"])
    assert code == 0 and report.status == "ok"
    config = geometry.lisonek_coordinates()
    assert len(config.all_points) == 45
    classes = geometry.configuration_distance_classes(config)
    assert {str(v) for v in classes.values()} == {"2", "4"}   # distances sqrt(2), 2
    assert {geometry.origin_norm_sq(p) for p in config.simplex_points} == {Fraction(4, 3)}
    assert {geometry.origin_norm_sq(p) for p in config.block_points} == {Fraction(2)}
    with capsys.disabled():
        _passed(1, "45 points, distances {sqrt(2), 2}, radii 2/sqrt(3) and sqrt(2)",
                t0, budget=5.0)


def test_criterion_2_gram_table(lisonek_cc, capsys):
    t0 = time.monotonic()
    result = coherent.projector_and_gram(lisonek_cc)
    golden = {
        "V_diag": "4/9", "V_off": "-1/18", "VB_in": "-1/18*sqrt(7)",
        "VB_out": "1/63*sqrt(7)", "B_diag": "1/9", "B_alpha": "5/126",
        "B_beta": "-2/63",
    }
    for key, value in golden.items():
        assert result.gram[key] == parse_scalar(value), key
    # projector_and_gram verifies E^2 = E, E^T = E and trace(E) = 8 densely;
    # recheck the trace here on the assembled matrix
    trace = QuadExt(0)
    for i in range(45):
        trace = trace + result.matrix[i][i]
    assert trace == QuadExt(8)
    with capsys.disabled():
        _passed(2, "seven Gram values exact, E^2 = E, E^T = E, trace 8", t0, budget=5.0)


def test_criterion_3_parameter_calculus(capsys):
    t0 = time.monotonic()
    p = designs.derive_parameters(9, 2, 1, 0)
    assert (p.Lambda, p.T, p.N, p.P, p.r, p.k, p.n, p.s) == (1, 8, 7, 2, 5, 14, 36, -2)
    with capsys.disabled():
        _passed(3, "(Lambda,T,N,P,r,k,n,s) = (1,8,7,2,5,14,36,-2)", t0)


def test_criterion_4_spectrum_equivalence(lisonek_projector, capsys):
    t0 = time.monotonic()
    spec = geometry.theoretical_spectrum(2, 9, 1, 0, "gt2")
    assert spec.r2 == parse_scalar("1/3*sqrt(14)")
    assert spec.distance(2) == parse_scalar("sqrt(2)")
    assert spec.distance(3) == QuadExt(2)
    assert spec.distance(4) == parse_scalar("sqrt(2)")
    assert spec.distance(5) == QuadExt(2)
    mirrored = geometry.spectrum_from_gram(lisonek_projector.gram, spec.r2)
    assert mirrored.classes == spec.classes and mirrored.d_sq == spec.d_sq
    with capsys.disabled():
        _passed(4, "R2 = sqrt(14)/3, (d2..d5) = (sqrt(2), 2, sqrt(2), 2), "
                   "gram route identical", t0)


def test_criterion_5_polynomial_identities(capsys):
    t0 = time.monotonic()
    report = dioph.verify_identities()
    assert len(report) == 7
    with capsys.disabled():
        _passed(5, "all seven residues are the zero polynomial", t0, budget=10.0)


def test_criterion_6_brute_force_classification(capsys):
    t0 = time.monotonic()
    certs = dioph.brute_solver(30, 400)
    accepted = [c for c in certs if c.accepted]
    assert [c.smxy for c in accepted] == [(2, 9, 1, 0), (7, 27, 3, 1), (26, 90, 10, 6)]
    assert [c.candidate[4] for c in accepted] == [1, 2, 4]
    report = dioph.classify(10)
    assert [c.candidate[4] for c in report.accepted] == [1]
    verdicts = {c.candidate[4]: c.verdict for c in report.certificates}
    assert "tight-design" in verdicts[2] and "tight-design" in verdicts[4]
    for z in (3, 5, 6, 7, 8, 9, 10):
        assert "integrality" in verdicts[z] or "tight-design" in verdicts[z]
    with capsys.disabled():
        _passed(6, "box solutions {(2,9,1,0), (7,27,3,1), (26,90,10,6)}, "
                   "classify accepts only z = 1", t0, budget=120.0)


def test_criterion_7_region_certification(capsys):
    t0 = time.monotonic()
    g1 = dioph.region_scan("g1")
    assert g1.ok, g1.violations[:5]
    strip = g1.notes["strip_equation"]
    assert set(strip.roots) == {
        parse_scalar("-1/2 + 1/2*sqrt(41)"), parse_scalar("-1/2 - 1/2*sqrt(41)")}
    assert strip.integer_roots == ()
    g2 = dioph.region_scan("g2")
    assert g2.ok, g2.violations[:5]
    assert g2.notes["integer_values"] == {(1, -1): 136, (1, 0): 0, (2, 0): 0}
    assert dioph.aux_g("g2", 1, -1) == 136
    assert dioph.aux_g("g2", 1, 0) == 0 and dioph.aux_g("g2", 2, 0) == 0
    assert dioph.param_value("Lambda", 1, -1, "y2") == -1
    with capsys.disabled():
        _passed(7, f"zero violations on default boxes "
                   f"({sum(g1.points_checked.values())} + "
                   f"{sum(g2.points_checked.values())} lattice points), "
                   "strip roots (-1 +- sqrt(41))/2", t0, budget=300.0)


def test_criterion_8_quadratic_exclusions(capsys):
    t0 = time.monotonic()
    report = dioph.quadratic_exclusions()
    assert report.nonsquare_discriminants == (7, 10, 13, 41, 73)
    for d in report.nonsquare_discriminants:
        assert math.isqrt(d) ** 2 != d
    s2 = next(e for e in report.entries if e.label == "S = 2")
    assert set(s2.roots) == {QuadExt(1), QuadExt(Fraction(-4, 3))}
    with capsys.disabled():
        _passed(8, "discriminants {7,10,13,41,73} non-square; "
                   "S = 2 roots exactly {1, -4/3}", t0)


def _random_quadext(rng, d1, d2):
    d12 = d1 * d2 // math.gcd(d1, d2) ** 2
    terms = {}
    for r in (1, d1, d2, d12):
        if rng.random() < 0.75:
            terms[r] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return QuadExt(terms)


def test_criterion_9_property_suites(lisonek_cc, lisonek_projector, capsys):
    t0 = time.monotonic()
    rng = random.Random(424242)
    pairs = [(2, 7), (3, 5), (2, 3), (5, 14), (7, 13)]
    # field axioms on random samples
    for _ in range(300):
        d1, d2 = rng.choice(pairs)
        a, b, c = (_random_quadext(rng, d1, d2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == QuadExt(1)
    # sign oracle: 10^4 nonzero samples against 60-digit decimal evaluation
    getcontext().prec = 60
    checked = 0
    while checked < 10_000:
        d1, d2 = rng.choice(pairs)
        v = _random_quadext(rng, d1, d2)
        if v.is_zero():
            continue
        approx = sum(
            Decimal(c.numerator) / Decimal(c.denominator) * Decimal(r).sqrt()
            for r, c in v.terms)
        assert quadext_sign(v) == (1 if approx > 0 else -1)
        checked += 1
    # matrix-unit identities for the idempotent basis
    table = coherent.verify_axioms(lisonek_cc).p
    coherent.verify_epsilon_identities(table, lisonek_projector.idem)
    # E annihilates both fiber indicators
    for row in lisonek_projector.matrix:
        v_sum, b_sum = QuadExt(0), QuadExt(0)
        for value in row[:9]:
            v_sum = v_sum + value
        for value in row[9:]:
            b_sum = b_sum + value
        assert v_sum.is_zero() and b_sum.is_zero()
    # strict distance ordering on a 100-point valid parameter grid
    grid = []
    for m in range(5, 60):
        for S in range(3, m):
            for alpha in range(1, S):
                for beta in range(alpha):
                    grid.append((S, m, alpha, beta))
    grid = grid[:100]
    assert len(grid) == 100
    for S, m, alpha, beta in grid:
        for branch in ("gt2", "lt2"):
            spec = geometry.theoretical_spectrum(S, m, alpha, beta, branch)
            assert (spec.d_sq[2] - spec.d_sq[1]).sign() > 0
            assert (spec.d_sq[4] - spec.d_sq[3]).sign() > 0
    # rescaling invariance for 20 sampled radii
    samples = [QuadExt(Fraction(k, 7)) for k in range(1, 15)]
    samples += [sqrt_adjoin(Fraction(2)), sqrt_adjoin(Fraction(1, 2)),
                parse_scalar("1/3*sqrt(14)"), QuadExt(Fraction(5, 2)) * sqrt_adjoin(7),
                QuadExt(3), QuadExt(Fraction(22, 9))]
    assert len(samples) == 20
    for r2 in samples:
        spec = geometry.spectrum_from_gram(lisonek_projector.gram, r2)
        assert spec.classes["V_V"] == QuadExt(2)
        assert len({spec.classes["B_B_alpha"], spec.classes["B_B_beta"]}) <= 2
        assert len({spec.classes["V_B_in"], spec.classes["V_B_out"]}) <= 2
    with capsys.disabled():
        _passed(9, "field axioms, 10^4-sample sign oracle, matrix-unit identities, "
                   "fiber annihilation, distance ordering on 100-point grid, "
                   "20-radius rescaling invariance", t0)
