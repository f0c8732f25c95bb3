"""The fixed region proofs of `dioph`: what each covers, what must break them, and their counts."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodist import dioph, regions
from twodist.dioph import g2_integer_values, region_scan, solve_strip_equation, y2_curve_search
from twodist.errors import InternalConsistencyError
from twodist.polynomials import Poly, _horner, _table_fiber, compose_cleared
from twodist.regions import G2_SMALL_Z, Step, _substituted, g1_in_t, y2_curve_proof

from lattice_oracle import lattice_scan
from surface_oracle import aux_g, derived_pair, fiber_values, table_holds, t_form_tables, table_poly

# each region of g2 and the y2 curve: the integer x and z its pieces must cover
NEEDED = {
    "large_z": ({1, 2}, lambda z: not G2_SMALL_Z[0] <= z <= G2_SMALL_Z[1]),
    "x_ge_3": (set(range(3, 400)), lambda z: True),
    "off z = 0": (set(range(1, 400)), lambda z: z != 0),
}


def region_of(step):
    """The region a region proof's step names first in its claim."""
    return step.claim.split(": ")[0]


def holds(piece, v):
    c, s = piece
    return v == c if s == 0 else s * (v - c) >= 0


def uncovered(region, x_pieces, z_pieces):
    """The needed x and z, on a window far wider than any offset, that no piece covers."""
    x_set, z_set = NEEDED[region]
    return ([x for x in sorted(x_set) if not any(holds(p, x) for p in x_pieces)]
            + [z for z in range(-400, 400) if z_set(z) and not any(holds(p, z) for p in z_pieces)])


def test_each_proof_lists_its_steps_and_passes():
    g1, g2 = region_scan("g1", -3, 3, 10), region_scan("g2", -3, 3, 10)
    y2 = list(y2_curve_proof(dioph._Y2_CURVE))
    assert g1.ok and g2.ok
    assert all(s.passed and s.witness == "" for s in g1.steps + g2.steps + y2)
    assert [region_of(s) for s in g1.steps] == ["region1"] * 4 + ["region2"] * 2 + ["region3"] * 2
    assert len(g2.steps) == 2 * (2 * 2 + 5) and len(y2) == 3 + 1
    assert {s.method for s in g1.steps + g2.steps} == {"Polya"}
    assert [s.method for s in y2] == ["Polya"] * 3 + ["zero row"]
    assert Step("x_ge_3: N + D, x = 3 + u, z = -3 - w", "Polya", "real x >= 3, real z <= -3",
                True, "") in g2.steps
    assert Step("region2: N - 2D, x = 1 + w, t = 2 + w", "Polya", "x = t - 1, real t >= 2",
                True, "") in g1.steps
    assert y2[-1] == Step("z = 0: p3 on y2, x = 1 + u, z = 0", "zero row", "real x >= 1, z = 0",
                          True, "")


def test_pieces_cover_every_needed_integer():
    for region, lo, hi, x_pieces, z_pieces in regions._G2_PROOF:
        assert not uncovered(region, x_pieces, z_pieces)
        assert (lo, hi) == ((31, 33) if region == "large_z" else (-1, 38))
    assert not uncovered("off z = 0", *regions._Y2_PROOF)
    assert not any(holds(p, 0) for p in regions._Y2_PROOF[1])   # z = 0 is the zero row


def g2_proof_with(region, **change):
    """`regions._G2_PROOF` with some fields of one region replaced."""
    fields = ("region", "lo", "hi", "x_pieces", "z_pieces")
    return tuple(tuple({**dict(zip(fields, row)), **change}.values()) if row[0] == region else row
                 for row in regions._G2_PROOF)


MUTATIONS = {
    # a shift off by one: x = 4 + u leaves x = 3, z = 2 + w leaves z = 1
    "x shift": (dict(x_pieces=((4, 1),)), "x_ge_3"),
    "z shift": (dict(z_pieces=((2, 1), (-3, -1), (-2, 0), (-1, 0), (0, 0))), "x_ge_3"),
    # a cut-off moved inward: N + D has a negative coefficient after z = 0 + w
    "cut-off": (dict(z_pieces=((0, 1), (-3, -1), (-2, 0), (-1, 0), (0, 0))), "x_ge_3"),
    "window": (dict(z_pieces=((9, 1), (-15, -1))), "large_z"),
    # a flipped sign: z = -3 + w instead of -3 - w
    "sign": (dict(z_pieces=((1, 1), (-3, 1), (-2, 0), (-1, 0), (0, 0))), "x_ge_3"),
    "dropped row": (dict(z_pieces=((1, 1), (-3, -1), (-2, 0), (0, 0))), "x_ge_3"),
    "dropped fiber": (dict(x_pieces=((1, 0),)), "large_z"),
    "bound": (dict(hi=37), "x_ge_3"),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_a_mutated_g2_proof_fails(name, monkeypatch):
    """Through a named violation of region_scan, or a needed integer the pieces miss."""
    change, region = MUTATIONS[name]
    proof = g2_proof_with(region, **change)
    monkeypatch.setattr(regions, "_G2_PROOF", proof)
    report = region_scan("g2", -5, 5, 10)
    gaps = {row[0]: uncovered(row[0], *row[3:]) for row in proof}
    assert {region_of(v) for v in report.violations} | {r for r, gap in gaps.items() if gap} == {region}
    assert all(v.claim.split(": ", 1)[1] and v.witness and not v.passed for v in report.violations)


def test_a_named_violation_gives_the_step_and_the_coefficient(monkeypatch):
    cut_off = MUTATIONS["cut-off"][0]
    monkeypatch.setattr(regions, "_G2_PROOF", g2_proof_with("x_ge_3", **cut_off))
    assert region_scan("g2", -5, 5, 10).violations == [
        Step("x_ge_3: N + D, x = 3 + u, z = w", "Polya", "real x >= 3, real z >= 0", False,
             "coefficient -44226 of u^0 w^1")]


@pytest.mark.parametrize("row, field, value", [
    (3, 3, 1),              # region3 with the sign of D flipped
    (0, 4, (1, 1, 2)),      # region1 from x = 2t - 1, reaching x = t at t = 1
    (2, 4, (0, 0, 1)),      # the strip moved to x = t - 2, reaching x = 0
    (3, 5, (2, 1, 1)),      # region3 up to x = t - 1, the strip, where g1 > 1
])
def test_a_mutated_g1_piece_reports_a_named_violation(row, field, value, monkeypatch):
    proof = [list(p) for p in regions._G1_PROOF]
    proof[row][field] = value
    monkeypatch.setattr(regions, "_G1_PROOF", tuple(map(tuple, proof)))
    report = region_scan("g1", -5, 5, 10)
    assert {region_of(v) for v in report.violations} == {proof[row][0]}


def bumped_t_form(side, k, j):
    """`g1_in_t` with x^k t^j added to N (side 0) or to D (side 1)."""
    def form(x, t):
        pair = list(g1_in_t(x, t))
        pair[side] = pair[side] + x**k * t**j
        return tuple(pair)
    return form


def g1_outcome(form, monkeypatch):
    """How `form` fares as g1, read everywhere `src/` and the oracle read g1.

    Whether it is g1 by the identity with the derived pair; the regions of
    the steps of `regions.g1_proof` it fails; whether
    `dioph.solve_strip_equation` still finds z^2 + z - 10 on it; and the
    first point (x, z) of a small box where `aux_g`, reading `form`, leaves
    the derived g1 or divides by 0.
    """
    holds = table_holds("g1", *t_form_tables(form))
    monkeypatch.setattr(regions, "g1_in_t", form)
    monkeypatch.setattr(dioph, "g1_in_t", form)
    failed = sorted({region_of(step) for step in regions.g1_proof() if not step.passed})
    try:
        strip = solve_strip_equation().quadratic == (1, 1, -10)
    except InternalConsistencyError:
        strip = False
    for x in range(1, 9):
        for z, want in zip(range(-4, 5), fiber_values(derived_pair("g1"), x, range(-4, 5))):
            try:
                if aux_g("g1", x, z) != want:
                    return holds, failed, strip, (x, z)
            except ZeroDivisionError:
                return holds, failed, strip, (x, z)
    return holds, failed, strip, None


@pytest.mark.parametrize("side, k, j", [(0, 1, 2), (0, 2, 1), (1, 0, 6), (1, 3, 0), (1, 2, 1)])
def test_a_perturbed_g1_table_fails_the_t_form(side, k, j, monkeypatch):
    """g1's one form is its t-form: a term x^k t^j added to one side breaks its identity
    with the derived pair, fails steps of the g1 proof and the strip equation, and
    `aux_g` then leaves the derived g1 inside a small box.
    """
    holds, failed, strip, point = g1_outcome(bumped_t_form(side, k, j), monkeypatch)
    assert not holds and failed and not strip and point is not None


def test_a_perturbed_g1_table_of_higher_degree_fails_the_t_form(monkeypatch):
    """A term of degree 3 in x and 7 in t, above every term of the t-form."""
    holds, failed, strip, point = g1_outcome(bumped_t_form(0, 3, 7), monkeypatch)
    assert not holds and failed and not strip and point is not None


def test_the_unperturbed_t_form_holds(monkeypatch):
    assert g1_outcome(g1_in_t, monkeypatch) == (True, [], True, None)


@pytest.mark.parametrize("proof, table, failed", [
    # the row z = -1 turned into z >= -1
    ((((1, 1),), ((1, 1), (-2, -1), (-1, 1))), None, "off z = 0: p3 on y2, x = 1 + u, z = -1 + w: "),
    # x from 0, where the curve vanishes
    ((((0, 1),), ((1, 1), (-2, -1), (-1, 0))), None, "off z = 0: p3 on y2, x = u, z = 1 + w: "),
    # the row z = 0 nonzero
    (None, dioph._Y2_CURVE[:-1] + ((1, 0, 0, 0, 8, 12, 4),),
     "z = 0: p3 on y2, x = 1 + u, z = 0: nonzero coefficients"),
], ids=["proof0-None", "proof1-None", "None-table2"])
def test_a_mutated_y2_proof_raises(proof, table, failed, monkeypatch):
    if proof:
        monkeypatch.setattr(regions, "_Y2_PROOF", proof)
    if table:
        monkeypatch.setattr(dioph, "_Y2_CURVE", table)
    with pytest.raises(InternalConsistencyError) as err:
        y2_curve_search(3, 40, -5, 5)
    assert str(err.value).startswith(failed)


def test_a_y2_proof_with_a_dropped_row_leaves_it_uncovered():
    assert uncovered("off z = 0", ((1, 1),), ((1, 1), (-2, -1))) == [-1]


FAR_Z = (10**3, -10**3, 10**6, -10**6)


@pytest.mark.parametrize("z", FAR_Z)
def test_g2_bounds_at_far_rows(z):
    for x in (1, 2):
        assert 31 < aux_g("g2", x, z) < 33
    for x in (3, 4, 10**3, 10**6, 10**9):
        assert -1 < aux_g("g2", x, z) < 38


@pytest.mark.parametrize("z", FAR_Z)
def test_g1_bounds_at_far_rows(z):
    t = z * (z + 1) // 2
    for x in {1, 2, 10**3, 10**9, t - 2, t + 1, 2 * t, 2 * t + 1, 10**9 * t}:
        if 1 <= x <= t - 2 or x >= t + 1:
            assert 0 < aux_g("g1", x, z) < 1, x
    assert 0 < aux_g("g1", t - 1, z) < 2 and aux_g("g1", t, z) == 0


def expected_counts(which, zmin, zmax, xmax):
    """The points `region_scan` counts, per region, in terms of t = z(z + 1)/2."""
    out = {}
    for z in range(zmin, zmax + 1):
        t = z * (z + 1) // 2
        if which == "g1":
            ranges = {"region1": xmax - t if t >= 1 else 0,          # x in [t + 1, xmax]
                      "region2": int(2 <= t <= xmax + 1),           # x = t - 1
                      "region3": min(xmax, t - 2)}                  # x in [1, t - 2]
        else:
            outside = not G2_SMALL_Z[0] <= z <= G2_SMALL_Z[1]
            ranges = {"large_z": min(2, xmax) if outside else 0, "x_ge_3": xmax - 2}
        for region, n in ranges.items():
            if n > 0:
                out[region] = out.get(region, 0) + n
    return out


@settings(max_examples=200, deadline=None)
@given(which=st.sampled_from(["g1", "g2"]), zmin=st.integers(-80, 80),
       width=st.integers(0, 60), xmax=st.one_of(st.integers(1, 3), st.integers(1, 5000)))
@example(which="g2", zmin=-20, width=40, xmax=1)
@example(which="g2", zmin=-20, width=40, xmax=2)
@example(which="g1", zmin=-1, width=1, xmax=100)
def test_points_checked_match_the_count_formula(which, zmin, width, xmax):
    want = expected_counts(which, zmin, zmin + width, xmax)
    if not want:
        with pytest.raises(Exception, match="holds no lattice point"):
            region_scan(which, zmin, zmin + width, xmax)
        return
    assert region_scan(which, zmin, zmin + width, xmax).points_checked == want


@settings(max_examples=25, deadline=None)
@given(which=st.sampled_from(["g1", "g2"]), zmin=st.integers(-30, 30),
       width=st.integers(0, 6), xmax=st.integers(1, 300))
@example(which="g2", zmin=-20, width=40, xmax=1)
def test_the_lattice_oracle_agrees_with_the_proof_on_random_boxes(which, zmin, width, xmax):
    if not expected_counts(which, zmin, zmin + width, xmax):
        return
    oracle = lattice_scan(which, zmin, zmin + width, xmax)
    assert not oracle.violations
    assert oracle.points_checked == region_scan(which, zmin, zmin + width, xmax).points_checked
    assert oracle.points_checked == expected_counts(which, zmin, zmin + width, xmax)


def test_g2_denominator_has_no_zero_on_the_small_window():
    """The premise of a plain N / D in `dioph.g2_integer_values`: D != 0 at x in {1, 2} on G2_SMALL_Z.

    The proof gives D > 0 at every other integer point with x >= 1.
    """
    for x in (1, 2):
        fiber = _table_fiber(dioph._G2_TABLE[1], x)
        assert all(_horner(fiber, z) for z in range(G2_SMALL_Z[0], G2_SMALL_Z[1] + 1)), x


def test_g2_integer_values_match_aux_g():
    want = {(x, z): int(v) for x in (1, 2) for z in range(G2_SMALL_Z[0], G2_SMALL_Z[1] + 1)
            if (v := aux_g("g2", x, z)).denominator == 1}
    assert g2_integer_values() == want
    assert want[(1, 0)] == 0


piece = st.tuples(st.integers(-12, 12), st.sampled_from([-1, 0, 1]))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-50, 50), max_size=6), min_size=1, max_size=5),
       x_piece=piece, z_piece=piece)
def test_substitution_matches_compose_cleared(rows, x_piece, z_piece):
    """The dense substitution of the proofs against `compose_cleared` on Polys."""
    u, w = Poly.gens(("u", "w"))
    one = Poly.constant(("u", "w"), 1)
    subs = {"x": (x_piece[0] + x_piece[1] * u, one), "z": (z_piece[0] + z_piece[1] * w, one)}
    want = compose_cleared(table_poly(rows), subs)
    assert _substituted(rows, x_piece, z_piece) == want.terms
