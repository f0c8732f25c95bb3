"""Quasi-symmetric design combinatorics.

Incidence structures, one packing of an incidence as rows of byte fields
(`pack`), and one pass that sums packed rows to read off the distinct
intersections of lines with a `bytes.translate` per line: of the blocks
on the points' rows, of the points' sets of blocks (the point-pair counts)
on the blocks' rows.  And the exact parameter calculus that expresses the
block-graph quantities (Lambda, T, N, P, n, k, r, s) in terms of
(m, S, alpha, beta).  The calculus is written once over any ring,
as one (numerator, denominator) pair per value: `derive_parameters`
evaluates the pairs on ints and forms one Fraction per value, `dioph`
evaluates Lambda's pair on polynomials, and the tests divide every pair
over polynomial fractions.
Integrality of the derived values is checked by a separate gate so callers
can see exactly which condition fails.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, combinations, repeat
from operator import lt
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import DegenerateParametersError, DesignError
from .exactnum import format_scalar


# ----- parameter calculus ----------------------------------------------


class DesignParameters(NamedTuple):
    """Design parameters (m, S, alpha, beta) and the derived block-graph data.

    Derived fields are exact rationals; nothing here enforces integrality.
    """

    m: int
    S: int
    alpha: int
    beta: int
    Lambda: Fraction
    T: Fraction
    N: Fraction
    P: Fraction
    n: Fraction
    k: Fraction
    r: Fraction
    s: Fraction

    @property
    def mu_graph(self) -> Fraction:
        return self.k + self.r * self.s

    @property
    def lambda_graph(self) -> Fraction:
        return self.mu_graph + self.r + self.s

    def as_dict(self) -> dict[str, str]:
        return {name: format_scalar(value) for name, value in zip(self._fields, self)}


def lambda_parts(S, m, alpha, beta):
    """Lambda = num / den as the pair (num, den), over any ring."""
    S2 = S * S
    num = S * (S - 1) * (S - alpha) * (S - beta)
    den = (S2 * S2 - 2 * S2 * S - ((alpha + beta - 1) * (m - 1) - 1) * S2
           + alpha * beta * m * (m - 1))
    return num, den


def block_graph_formulas(S, m, alpha, beta) -> dict:
    """Lambda, T, N, P, r, k, n, s as (numerator, denominator) pairs over any ring.

    Each pair is built from Lambda's num and den, the excess
    S(S - 1) - beta(m - 1), alpha - beta and T's denominator (S - 1) den
    (Shrikhande and Sane, 1991), so a caller divides once per value.
    """
    num, den = lambda_parts(S, m, alpha, beta)
    excess = S * (S - 1) - beta * (m - 1)
    gap = alpha - beta
    t_den = (S - 1) * den
    p_den = gap * t_den
    k_num = (m - S) * excess * num
    k_den = (S - alpha) * p_den
    return {
        "Lambda": (num, den),
        "T": ((m - 1) * num, t_den),
        "N": (alpha * k_num, S * k_den),
        "P": (excess * num, p_den),
        "r": ((m - S) * num - (S - beta) * t_den, p_den),
        "k": (k_num, k_den),
        "n": (m * (m - 1) * num, S * t_den),
        "s": (beta - S, gap),
    }


def require_ordering(m: int, S: int, alpha: int, beta: int) -> None:
    """Raise DesignError unless 0 <= beta < alpha < S < m."""
    if not (0 <= beta < alpha < S < m):
        raise DesignError(f"parameters must satisfy 0 <= beta < alpha < S < m, got "
                          f"(m={m}, S={S}, alpha={alpha}, beta={beta})")


def derive_parameters(m: int, S: int, alpha: int, beta: int) -> DesignParameters:
    """Derive (Lambda, T, N, P, n, k, r, s) exactly from (m, S, alpha, beta).

    The pairs of `block_graph_formulas` are evaluated on ints, and each value
    is one Fraction, reduced once.  Requires the feasibility ordering
    (`require_ordering`); raises DegenerateParametersError when the Lambda
    denominator vanishes (the ordering keeps every other denominator
    nonzero).
    """
    require_ordering(m, S, alpha, beta)
    pairs = block_graph_formulas(S, m, alpha, beta)
    if pairs["Lambda"][1] == 0:
        raise DegenerateParametersError(
            f"degenerate parameters (m={m}, S={S}, alpha={alpha}, beta={beta})"
        )
    return DesignParameters(m, S, alpha, beta,
                            **{name: Fraction(n, d) for name, (n, d) in pairs.items()})


def integrality_violations(p: DesignParameters) -> Iterator[str]:
    """Each violated integrality condition on a derived parameter set, as text, in order.

    Lambda must be a positive integer; T, N, P, k, n nonnegative integers;
    r and s integers.  A violation is formatted only when the caller asks
    for the next one.  The ordering 0 <= beta < alpha < S < m is not
    checked: `derive_parameters` refuses a set that breaks it.
    """
    if p.Lambda.denominator != 1 or p.Lambda < 1:
        yield f"Lambda = {format_scalar(p.Lambda)} is not a positive integer"
    for name in ("T", "N", "P", "k", "n"):
        value: Fraction = getattr(p, name)
        if value.denominator != 1 or value < 0:
            yield f"{name} = {format_scalar(value)} is not a nonnegative integer"
    for name in ("r", "s"):
        value = getattr(p, name)
        if value.denominator != 1:
            yield f"{name} = {format_scalar(value)} is not an integer"


# ----- incidence structures --------------------------------------------


class IncidenceDesign:
    """Points 0..m-1 and equally sized blocks given as ascending point tuples.

    Checked at construction and immutable after it; equal when m and the
    blocks are.
    """

    __slots__ = ("m", "blocks")

    def __init__(self, m: int, blocks: tuple[tuple[int, ...], ...]):
        if m < 1:
            raise DesignError(f"point count must be positive, got {m}")
        if not blocks:
            raise DesignError("design needs at least one block")
        size = len(blocks[0])
        for i, b in enumerate(blocks):
            if len(b) != size:
                raise DesignError(f"block {i} has size {len(b)}, expected {size}")
            if b and (min(b) < 0 or max(b) >= m):
                raise DesignError(f"block {i} has an entry outside [0, {m})")
            if not all(map(lt, b, b[1:])):
                raise DesignError(f"block {i} is not strictly ascending: {b}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"IncidenceDesign is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not IncidenceDesign:
            return NotImplemented
        return (self.m, self.blocks) == (other.m, other.blocks)

    def __hash__(self) -> int:
        return hash((self.m, self.blocks))

    def __repr__(self) -> str:
        return f"IncidenceDesign(m={self.m!r}, blocks={self.blocks!r})"

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def require_every_point(d: IncidenceDesign) -> None:
    """Raise DesignError naming the first point that lies in no block."""
    covered = set(chain.from_iterable(d.blocks))
    if len(covered) < d.m:
        missing = next(p for p in range(d.m) if p not in covered)
        raise DesignError(f"point {missing} lies in no block")


def blocks_through_points(d: IncidenceDesign) -> list[list[int]]:
    """The blocks through each point, in m lists: run `require_every_point` first."""
    through: list[list[int]] = [[] for _ in range(d.m)]
    for j, block in enumerate(d.blocks):
        for p in block:
            through[p].append(j)
    return through


class Packed(NamedTuple):
    """Rows of `width`-byte fields: field k of row i is 1 when line i holds k, else 0."""

    rows: list[int]
    width: int


def pack(lines, count: int, largest: int) -> Packed:
    """Each line, a set of indices below count, as a row of count fields.

    The one packing of a design, of its blocks and of the blocks through each
    point.  Fields are as many bytes wide as `largest`, the most rows one sum
    adds, needs.
    """
    width = (largest.bit_length() + 7) // 8
    rows = []
    for line in lines:
        plane = bytearray(count * width)
        for k in line:
            plane[k * width] = 1
        rows.append(int.from_bytes(plane, "little"))
    return Packed(rows, width)


def _field_values(lines, packed: Packed) -> tuple[int, ...]:
    """The distinct |line_i & line_j| over i < j, ascending.

    Row k of `packed` has field i set when line i holds k, so line i's rows
    sum to |line_i & line_j| in field j.  `translate` deletes the values
    already seen, so Python reads a line's fields only when a new value is
    left, or on every line when fields are wider than a byte.
    """
    rows, width = packed
    size = len(lines) * width
    values: set[int] = set()
    known = b""
    for i, line in enumerate(lines, 1):
        later = sum(map(rows.__getitem__, line)) >> 8 * width * i
        fresh = later.to_bytes(size - width * i, "little").translate(None, known)
        if fresh:
            values.update(int.from_bytes(fresh[k:k + width], "little")
                          for k in range(0, len(fresh), width))
            known = bytes(values) if width == 1 else b""
    return tuple(sorted(values))


def intersection_numbers(d: IncidenceDesign, points: Packed) -> tuple[int, ...]:
    """The distinct |b & b'| over distinct block pairs, off the points' rows over the blocks.

    S is a value when two blocks are equal.  The design is quasi-symmetric
    when exactly two values occur: alpha the larger, beta the smaller.
    """
    if d.block_count < 2:
        raise DesignError("need at least two blocks to intersect")
    return _field_values(d.blocks, points)


def pair_counts(through: list[list[int]], blocks: Packed) -> tuple[int, ...]:
    """The distinct numbers of blocks through a point pair: Lambda alone in a 2-design."""
    return _field_values(through, blocks)


def pair_witness(points: Packed) -> str:
    """The first point pair, in lexicographic order, not in as many blocks as (0, 1), as text."""
    rows = points.rows
    want = (rows[0] & rows[1]).bit_count()
    return next(f"(0, 1) lies in {want} blocks but {(p, q)} lies in {c}"
                for p, q in combinations(range(len(rows)), 2)
                if (c := (rows[p] & rows[q]).bit_count()) != want)


# ----- canonical designs -----------------------------------------------


def lisonek_design() -> IncidenceDesign:
    """The 2-(9,2,1) design: all 2-subsets of 9 points (36 blocks)."""
    return IncidenceDesign(9, tuple(combinations(range(9), 2)))


def design_from_json(data, source: str = "<data>") -> IncidenceDesign:
    """Validate the design JSON schema {"m": int, "blocks": [[int, ...], ...]}."""
    if not isinstance(data, dict):
        raise DesignError(f"{source}: top level must be an object")
    if "m" not in data or "blocks" not in data:
        raise DesignError(f"{source}: missing required field 'm' or 'blocks'")
    m = data["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise DesignError(f"{source}: field 'm' must be an integer")
    blocks = data["blocks"]
    if not isinstance(blocks, list):
        raise DesignError(f"{source}: field 'blocks' must be a list")
    for i, b in enumerate(blocks):
        if not (isinstance(b, list) and all(map(isinstance, b, repeat(int)))
                and not any(map(isinstance, b, repeat(bool)))):
            raise DesignError(f"{source}: blocks[{i}] must be a list of integers")
    try:
        return IncidenceDesign(m, tuple(map(tuple, blocks)))
    except DesignError as exc:
        raise DesignError(f"{source}: {exc}") from exc


def load_design(path) -> IncidenceDesign:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DesignError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that do not decode, an integer over the digit limit
        raise DesignError(f"{path}: {exc}") from exc
    return design_from_json(data, source=str(path))
