"""Region proofs: g1 and g2 bounded for every integer z, and the y2 curve off z = 0.

Each proof is a fixed list of steps.  A step puts affine forms in real
u, w >= 0 into a polynomial and reads its coefficients: all >= 0 with a
positive constant prove it positive there (Polya's test on the quadrant).
lo < N / D < hi holds where s (N - lo D) and s (hi D - N) are both positive
for s = +-1, since their sum s (hi - lo) D is then positive too.  A proof
yields (step, witness): the step is (region, polynomial, substitution,
method, set covered) and the witness "" or its first offending coefficient.
g1 is proved in its one form, `g1_in_t`, in x and t = z(z + 1)/2 (8 steps);
g2 (18 steps) and the y2 curve (4 steps) on the integer tables of `dioph`:
30 steps in all.  The pieces are constants; tests/test_region_proof.py
checks that they cover every integer z each region needs.
"""

from __future__ import annotations

from itertools import product, zip_longest
from typing import Iterator, Sequence

from .polynomials import Poly, _horner, _table_fiber, format_terms, taylor_shift


def g1_in_t(x, t):
    """N and D of g1 at t = z(z + 1)/2, in any ring: g1's one form.

    tests/surface_oracle.py proves that N / D at t = z(z + 1)/2 is the g1
    the parameter formulas give.
    """
    return 16 * t * x * (x - t), 2 * (x**3 + (3 * t + 1) * x**2 + t * x - 4 * t**3)


# region, lo, hi, the sign of D, x and t as (constant, u, w coefficients), the
# part of the (x, t) plane covered; region1 is cut at x = 2t, where the square in
# D - N = 2(x - t)(x - 2t)^2 + 2x(x + t) vanishes and no one shift expands D - N positively
_G1_PROOF = (
    ("region1", 0, 1, 1, (2, 1, 2), (1, 0, 1), "real x >= 2t, t >= 1"),
    ("region1", 0, 1, 1, (2, 2, 1), (1, 1, 1), "real t + 1 <= x <= 2t, t >= 1"),
    ("region2", 0, 2, -1, (1, 0, 1), (2, 0, 1), "x = t - 1, real t >= 2"),
    ("region3", 0, 1, -1, (1, 1, 0), (3, 1, 1), "real x >= 1, t >= x + 2"),
)
# region, lo, hi, then the pieces of x and of z, each (c, s) for c + s [0, oo)
# or the point c when s = 0; large_z leaves out exactly dioph.G2_SMALL_Z
_G2_PROOF = (
    ("large_z", 31, 33, ((1, 0), (2, 0)), ((10, 1), (-15, -1))),
    ("x_ge_3", -1, 38, ((3, 1),), ((1, 1), (-3, -1), (-2, 0), (-1, 0), (0, 0))),
)
# the pieces of the y2 curve off the line z = 0, for x >= 1
_Y2_PROOF = (((1, 1),), ((1, 1), (-2, -1), (-1, 0)))


def _polya_witness(terms: dict[tuple[int, int], int]) -> str:
    """"" if all coefficients of u^k w^j, keyed (k, j), are >= 0 and the constant > 0; or a culprit."""
    bad = [f"coefficient {c} of u^{k} w^{j}" for (k, j), c in sorted(terms.items()) if c < 0]
    return bad[0] if bad else "" if (0, 0) in terms else "constant term 0"


def _shifted(c: Sequence[int], a: int, s: int) -> list[int]:
    """c(a + s v) as a dense list in v for s = +-1, and [c(a)] for s = 0."""
    if not s:
        return [_horner(c, a)]
    out = taylor_shift(c, a)
    return out if s > 0 else [-v if k % 2 else v for k, v in enumerate(out)]


def _substituted(rows: Sequence[Sequence[int]], x_piece: tuple[int, int],
                 z_piece: tuple[int, int]) -> dict[tuple[int, int], int]:
    """The nonzero coefficients of u^k w^j, keyed (k, j), of a table at x(u), z(w)."""
    if x_piece[1]:
        rows = [_shifted(row, *z_piece) for row in rows]
        cols = [_shifted(col, *x_piece) for col in zip_longest(*rows, fillvalue=0)]
    else:   # a fiber: read it off first, then substitute in z alone
        cols = [[c] for c in _shifted(_table_fiber(rows, x_piece[0]), *z_piece)]
    return {(k, j): c for j, col in enumerate(cols) for k, c in enumerate(col) if c}


def _table_proof(region: str, polys, x_pieces, z_pieces) -> Iterator[tuple]:
    """A Polya step for each (label, table) of polys on each x piece by z piece."""
    for (label, rows), xp, zp in product(polys, x_pieces, z_pieces):
        both = (("x", "u", xp), ("z", "w", zp))
        sub = ", ".join(f"{v} = {format_terms((c, ''), (s, d))}" for v, d, (c, s) in both)
        covers = ", ".join(f"{'real ' if s else ''}{v} {('=', '>=', '<=')[s]} {c}"
                           for v, _, (c, s) in both)
        yield (region, label, sub, "Polya", covers), _polya_witness(_substituted(rows, xp, zp))


def g1_proof() -> Iterator[tuple]:
    """`g1_in_t` keeps its bounds, for t >= 1, that is z not in {-1, 0}.

    The pieces cover real x >= t + 1, real x in [1, t - 2] and the strip
    x = t - 1.  The real interval (t - 2, t) is a gap: it holds both the
    crossing g1 = 1 and the pole of g1 (D(t - 1) < 0 < D(t)).  Of
    (t - 2, t + 1) only the integer points are claimed: the strip, and
    x = t, where g1 = 0.
    """
    u, w = Poly.gens(("u", "w"))
    for region, lo, hi, sign, x, t, covers in _G1_PROOF:
        num_t, den_t = g1_in_t(*(c + cu * u + cw * w for c, cu, cw in (x, t)))
        sub = ", ".join(f"{v} = {format_terms((c, ''), (cu, 'u'), (cw, 'w'))}"
                        for v, (c, cu, cw) in (("x", x), ("t", t)))
        for a, b in ((sign, -sign * lo), (-sign, sign * hi)):
            yield ((region, format_terms((a, "N"), (b, "D")), sub, "Polya", covers),
                   _polya_witness((a * num_t + b * den_t).terms))


def g2_proof(num, den) -> Iterator[tuple]:
    """The g2 table pair num / den keeps its bounds on each piece of `_G2_PROOF`."""
    pairs = list(zip_longest(num, den, fillvalue=()))
    for region, lo, hi, x_pieces, z_pieces in _G2_PROOF:
        polys = [(format_terms((a, "N"), (b, "D")),
                  [[a * n + b * d for n, d in zip_longest(*pair, fillvalue=0)] for pair in pairs])
                 for a, b in ((1, -lo), (-1, hi))]
        yield from _table_proof(region, polys, x_pieces, z_pieces)


def y2_curve_proof(table) -> Iterator[tuple]:
    """The cleared y2 curve table is positive off z = 0 for real x >= 1, and zero on z = 0."""
    yield from _table_proof("off z = 0", [("p3 on y2", table)], *_Y2_PROOF)
    row = _substituted(table, (1, 1), (0, 0))
    yield (("z = 0", "p3 on y2", "x = 1 + u, z = 0", "zero row", "real x >= 1, z = 0"),
           f"nonzero coefficients {row}" if row else "")
