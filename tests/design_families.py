"""Classical quasi-symmetric 2-designs, generated with no download.

The families of Shrikhande and Sane, *Quasi-symmetric designs* (1991):

- lines of PG(n, 2), S(2, 3, 2^(n+1) - 1), with (alpha, beta) = (1, 0);
- lines of AG(n, 3), S(2, 3, 3^n), with (1, 0);
- planes of PG(4, 2), a 2-(31, 7, 7) design, with (3, 1);
- hyperplanes of AG(n, 2), a 3-(2^n, 2^(n-1), 2^(n-2) - 1) design, with
  (2^(n-2), 0);
- the complete designs 2-(v, 2, 1), with (1, 0); Lisonek's is v = 9.

Each generator returns an `IncidenceDesign` with its blocks in ascending
order.  `FAMILIES` names the members the tests run; `SMALL` the ones small
enough for `embed` in a test.  The module needs no numpy, so it also runs
as a script that writes one member as design JSON:

    python tests/design_families.py pg-lines 6 > pg62.json
"""

import json
import sys
from itertools import combinations, product

from twodist.designs import IncidenceDesign


def _design(m, blocks) -> IncidenceDesign:
    return IncidenceDesign(m, tuple(sorted(tuple(sorted(b)) for b in blocks)))


def _span(vectors) -> frozenset:
    """The nonzero vectors of the F_2-span of `vectors` (ints as bit vectors)."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return frozenset(span - {0})


def pg_lines(n: int) -> IncidenceDesign:
    """Lines of PG(n, 2): point v - 1 for each nonzero v in F_2^(n+1); lines {u, v, u + v}."""
    m = 2 ** (n + 1) - 1
    lines = {frozenset((u, v, u ^ v)) for u, v in combinations(range(1, m + 1), 2)}
    return _design(m, ({p - 1 for p in line} for line in lines))


def ag3_lines(n: int) -> IncidenceDesign:
    """Lines of AG(n, 3): point x in F_3^n as its base-3 digits; lines {x, x + d, x + 2d}."""
    points = list(product(range(3), repeat=n))
    index = {x: i for i, x in enumerate(points)}
    lines = {frozenset(index[tuple((a + k * b) % 3 for a, b in zip(x, d))] for k in range(3))
             for x in points for d in points if any(d)}
    return _design(3 ** n, lines)


def pg4_planes() -> IncidenceDesign:
    """Planes of PG(4, 2): the 3-dimensional subspaces of F_2^5, each as its 7 nonzero vectors."""
    planes = {_span(triple) for triple in combinations(range(1, 32), 3)}
    return _design(31, ({p - 1 for p in plane} for plane in planes if len(plane) == 7))


def ag2_hyperplanes(n: int) -> IncidenceDesign:
    """Hyperplanes of AG(n, 2): {x in F_2^n : a.x = c} for a != 0 and c in {0, 1}."""
    points = range(2 ** n)
    return _design(2 ** n, ({x for x in points if (a & x).bit_count() % 2 == c}
                            for a in range(1, 2 ** n) for c in (0, 1)))


def complete_design(v: int) -> IncidenceDesign:
    """2-(v, 2, 1): every 2-subset of v points is a block."""
    return IncidenceDesign(v, tuple(combinations(range(v), 2)))


GENERATORS = {
    "pg-lines": pg_lines,
    "ag3-lines": ag3_lines,
    "pg4-planes": pg4_planes,
    "ag2-hyperplanes": ag2_hyperplanes,
    "complete": complete_design,
}

# name -> (generator, arguments, (alpha, beta))
FAMILIES = {
    "PG(3,2) lines": (pg_lines, (3,), (1, 0)),
    "PG(4,2) lines": (pg_lines, (4,), (1, 0)),
    "PG(5,2) lines": (pg_lines, (5,), (1, 0)),
    "AG(2,3) lines": (ag3_lines, (2,), (1, 0)),
    "AG(3,3) lines": (ag3_lines, (3,), (1, 0)),
    "PG(4,2) planes": (pg4_planes, (), (3, 1)),
    "AG(3,2) hyperplanes": (ag2_hyperplanes, (3,), (2, 0)),
    "AG(4,2) hyperplanes": (ag2_hyperplanes, (4,), (4, 0)),
    "AG(6,2) hyperplanes": (ag2_hyperplanes, (6,), (16, 0)),
    "2-(5,2,1)": (complete_design, (5,), (1, 0)),
    "2-(8,2,1)": (complete_design, (8,), (1, 0)),
    "2-(12,2,1)": (complete_design, (12,), (1, 0)),
}

# small enough to embed in a test; none of them is two-distance
SMALL = ("PG(3,2) lines", "AG(2,3) lines", "AG(3,2) hyperplanes", "2-(5,2,1)", "2-(8,2,1)")


def build(name: str) -> IncidenceDesign:
    generator, args, _ = FAMILIES[name]
    return generator(*args)


if __name__ == "__main__":
    design = GENERATORS[sys.argv[1]](*map(int, sys.argv[2:]))
    json.dump({"m": design.m, "blocks": design.blocks}, sys.stdout)
    print()
