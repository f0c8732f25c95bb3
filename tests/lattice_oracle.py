"""The lattice oracle: the region bounds and the y2 curve checked row by row.

`dioph.region_scan` and `dioph.y2_curve_search` prove their claims for every
integer z from a fixed list of sign checks.  This module keeps the row
kernel they replaced, as an independent check on lattice boxes: each row
z = z0 is read off a table pair as a dense list in x (by default g1's
derived pair, since `src/` holds g1 only in its t-form, and the shipped g2
table), and its x-range is bisected until every bound polynomial is
`root_free` on each piece, a bound proved on a piece being carried to its
halves; the points left over are evaluated one by one.  `lattice_scan` runs it on the regions of
`region_scan`, counting the box's points the same way, and `curve_search`
lists the lattice zeros of any table in a box.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from operator import ne
from typing import Iterator, NamedTuple, Sequence

from twodist import dioph
from twodist.dioph import G2_SMALL_Z
from twodist.errors import DesignError
from twodist.exactnum import format_scalar
from twodist.polynomials import _horner, taylor_shift

from oracles import trim
from surface_oracle import derived_pair, fiber_values


def sign_variations(c: Sequence[int]) -> int:
    """Sign changes along the coefficient list, zeros skipped."""
    signs = [x > 0 for x in c if x]
    return sum(map(ne, signs, signs[1:]))


def root_free(c: Sequence[int], a: int, b: int) -> bool:
    """True only if c has no real root in the closed interval [a, b].

    Descartes' rule on the Moebius image (1 + t)^d c((a + b t) / (1 + t)),
    whose positive roots are the roots of c in (a, b): no sign variation
    means none.  The image's constant and leading coefficients are c(a) and
    c(b), which must be nonzero.  A True answer is a proof; False only means
    the test could not exclude a root (Descartes over-counts complex pairs
    near the interval).  The zero list is never root-free.
    """
    c = trim(c)
    shifted = taylor_shift(c, a)
    scale = b - a
    scaled = [x * scale**k for k, x in enumerate(shifted)]
    image = taylor_shift(scaled[::-1], 1)      # reversed image; same variations
    return bool(image) and image[0] != 0 and image[-1] != 0 and sign_variations(image) == 0


def table_row(rows: Sequence[Sequence[int]], z0: int) -> list[int]:
    """The row z = z0 of the table sum_k x^k rows[k](z), a dense list in x."""
    return [_horner(row, z0) for row in rows]


def root_free_pieces(polys: Sequence[Sequence[int]], start: int,
                     stop: int) -> Iterator[tuple[int, int, bool]]:
    """Cover [start, stop] by pieces (a, b, closed), in ascending order.

    On a closed piece every list of `polys` is `root_free`, so each keeps
    one sign there.  A piece that is not closed is a single point where one
    of them vanishes, or the whole range when one is the zero polynomial.
    Any other interval is split into [a, mid] and [mid + 1, b], and only
    the polynomials not yet proved root-free on it are tested on its halves.
    """
    if not all(map(any, polys)):
        yield start, stop, False
        return
    stack = [(start, stop, polys)]
    while stack:
        a, b, still_open = stack.pop()
        still_open = [p for p in still_open if not root_free(p, a, b)]
        if not still_open or a == b:
            yield a, b, not still_open
            continue
        mid = (a + b) // 2
        stack += ((mid + 1, b, still_open), (a, mid, still_open))


class PointViolation(NamedTuple):
    region: str
    x: int
    z: int
    value: str


class LatticeReport:
    """Per region: the points checked, and how: proved by root exclusion or enumerated."""

    def __init__(self):
        self.points_checked: dict[str, int] = {}
        self.violations: list[PointViolation] = []
        # the points left over with A B <= 0 and checked one by one (a
        # violation or a point where D = 0), and the others; per region, the
        # two sum to points_checked
        self.points_proved: dict[str, int] = {}
        self.points_enumerated: dict[str, int] = {}


def row_pair(which: str) -> tuple:
    """The table pair the oracle reads by default: g1's derived pair, or the shipped g2 table."""
    return derived_pair("g1") if which == "g1" else dioph._G2_TABLE


class RowEvaluator:
    """Exact values of g = N / D along the row z = z0 of a table pair, `row_pair(which)` by default."""

    def __init__(self, which: str, z0: int, pair=None):
        self.z0 = z0
        self.pair = pair or row_pair(which)
        self.num, self.den = (table_row(rows, z0) for rows in self.pair)

    def check_range(self, lo: int, hi: int, x_start: int, x_stop: int,
                    region: str, report: LatticeReport) -> None:
        """Assert lo < g(x, z0) < hi for x in [x_start, x_stop].

        With A = N - lo D and B = hi D - N, A B > 0 holds exactly when D != 0
        and lo < N / D < hi.  `root_free_pieces` splits the range into
        pieces on which A and B are both root-free; one sign test A(a) B(a)
        at a piece's left end then decides all its points: all proved, or
        all left over.  The points left over are exactly those with
        A B <= 0: the violations, and the points with D = 0, which get the
        reduced-fiber value.
        """
        if lo > hi:
            raise ValueError(f"empty interval ({lo}, {hi})")
        count = x_stop - x_start + 1
        if count <= 0:
            return
        report.points_checked[region] = report.points_checked.get(region, 0) + count
        pairs = list(zip_longest(self.num, self.den, fillvalue=0))
        above_lo = [n - lo * d for n, d in pairs]
        below_hi = [hi * d - n for n, d in pairs]
        enumerated = 0
        for a, b, closed in root_free_pieces((above_lo, below_hi), x_start, x_stop):
            if closed and _horner(above_lo, a) * _horner(below_hi, a) > 0:
                continue
            enumerated += b - a + 1
            for x0 in range(a, b + 1):
                dv = _horner(self.den, x0)
                if dv == 0:
                    self.check_point_fallback(x0, lo, hi, region, report)
                    continue
                report.violations.append(PointViolation(
                    region, x0, self.z0, format_scalar(Fraction(_horner(self.num, x0), dv))))
        report.points_enumerated[region] = report.points_enumerated.get(region, 0) + enumerated
        report.points_proved[region] = report.points_proved.get(region, 0) + count - enumerated

    def check_point_fallback(self, x0: int, lo: int, hi: int,
                             region: str, report: LatticeReport) -> None:
        try:
            value = next(fiber_values(self.pair, x0, (self.z0,)))
        except ZeroDivisionError:
            report.violations.append(PointViolation(region, x0, self.z0, "pole"))
            return
        if not (lo < value < hi):
            report.violations.append(PointViolation(region, x0, self.z0, format_scalar(value)))


def lattice_scan(which: str, zmin: int = -100, zmax: int = 100,
                 xmax: int = 10_000, pair=None) -> LatticeReport:
    """The bounds of `dioph.region_scan` checked on every lattice point of its box, row by row.

    g1 is checked on no point of the rows z in {-1, 0}, where it vanishes
    identically, nor at x = t on any other row, where g1 = 0.  The rows are
    read off `pair`, `row_pair(which)` by default.  A box that holds no
    lattice point to check raises DesignError.
    """
    if zmin > zmax or xmax < 1:
        raise DesignError(f"empty box z in [{zmin}, {zmax}], x <= {xmax}")
    report = LatticeReport()
    for z0 in range(zmin, zmax + 1):
        row = RowEvaluator(which, z0, pair)
        if which == "g1":
            strip = z0 * (z0 + 1) // 2 - 1
            if z0 <= -2 or z0 >= 1:
                row.check_range(0, 1, max(1, strip + 2), xmax, "region1", report)
            if 1 <= strip <= xmax:
                row.check_range(0, 2, strip, strip, "region2", report)
            row.check_range(0, 1, 1, min(xmax, strip - 1), "region3", report)
        else:
            if not G2_SMALL_Z[0] <= z0 <= G2_SMALL_Z[1]:
                row.check_range(31, 33, 1, min(2, xmax), "large_z", report)
            row.check_range(-1, 38, 3, xmax, "x_ge_3", report)
    if not report.points_checked:
        raise DesignError(f"the box z in [{zmin}, {zmax}], x <= {xmax} holds no point for {which}")
    return report


def curve_search(rows: Sequence[Sequence[int]], xmin: int, xmax: int,
                 zmin: int, zmax: int) -> list[tuple[int, int]]:
    """The lattice zeros (x, z) of a table in the box, z-major and ascending.

    `root_free_pieces` drops the x-intervals of a row on which `root_free`
    excludes a root, and the points it leaves are exactly the row's zeros; a
    row that vanishes identically is listed whole.
    """
    if xmin > xmax or zmin > zmax:
        raise DesignError(f"empty search box x in [{xmin}, {xmax}], z in [{zmin}, {zmax}]")
    hits: list[tuple[int, int]] = []
    for z0 in range(zmin, zmax + 1):
        pieces = root_free_pieces((table_row(rows, z0),), xmin, xmax)
        hits.extend((x0, z0) for a, b, closed in pieces if not closed for x0 in range(a, b + 1))
    return hits


def xz_rows(p) -> list[list[int]]:
    """The table of a Poly in (x, z): row k lists its x^k coefficients, in z."""
    return [[p.terms.get((k, j), 0) for j in range(p.degree("z") + 1)]
            for k in range(p.degree("x") + 1)]
