"""Quasi-symmetric design combinatorics.

Incidence structures, t-design verification, blocks as integer bitmasks,
the intersection numbers read off packed point rows (a big-integer sum
and a `bytes.translate` per block), and the exact parameter calculus that
expresses the block-graph quantities (Lambda, T, N, P, n, k, r, s) in
terms of (m, S, alpha, beta).  The calculus is written once over any ring,
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
from functools import reduce
from itertools import chain, combinations, repeat
from operator import and_, lt
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from .errors import DegenerateParametersError, DesignError, InternalConsistencyError
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
        return {
            "m": str(self.m),
            "S": str(self.S),
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "Lambda": format_scalar(self.Lambda),
            "T": format_scalar(self.T),
            "N": format_scalar(self.N),
            "P": format_scalar(self.P),
            "n": format_scalar(self.n),
            "k": format_scalar(self.k),
            "r": format_scalar(self.r),
            "s": format_scalar(self.s),
        }


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


class TDesignResult(NamedTuple):
    is_t_design: bool
    Lambda: Optional[int]
    witness: Optional[str] = None


def verify_t_design(d: IncidenceDesign, t: int) -> TDesignResult:
    """Exhaustively count how many blocks contain each t-subset of points.

    Returns the common count when it exists; otherwise reports the first
    t-subset, in lexicographic order, whose count differs from the count of
    the first one.  Point p's row is a bitmask over the blocks (bit j set
    when p lies in block j), so a t-subset's count is the popcount of the
    AND of its t rows: one walk over the t-subsets of the points, each
    counted over every block at once.  A point in no block has no row and
    counts as the empty mask.
    """
    if not (1 <= t <= d.block_size):
        raise DesignError(f"t must be in [1, {d.block_size}], got {t}")
    rows: dict[int, int] = {}
    for j, block in enumerate(d.blocks):
        bit = 1 << j
        for p in block:
            rows[p] = rows.get(p, 0) | bit
    subsets = combinations(range(d.m), t)
    first = next(subsets, None)
    if first is None:  # t <= block size <= m leaves at least one t-subset
        raise InternalConsistencyError(f"no {t}-subset of {d.m} points to count")
    row, empty = rows.get, repeat(0)
    want = reduce(and_, map(row, first, empty)).bit_count()
    for sub in subsets:
        c = reduce(and_, map(row, sub, empty)).bit_count()
        if c != want:
            return TDesignResult(
                False, None, f"{first} lies in {want} blocks but {sub} lies in {c}")
    return TDesignResult(True, want)


def _require_every_point(d: IncidenceDesign) -> None:
    """Raise DesignError naming the first point that lies in no block."""
    covered = set(chain.from_iterable(d.blocks))
    if len(covered) < d.m:
        missing = next(p for p in range(d.m) if p not in covered)
        raise DesignError(f"point {missing} lies in no block")


def block_masks(d: IncidenceDesign) -> tuple[int, ...]:
    """Each block as a bitmask: bit p is set when point p lies in the block.

    A point in no block raises DesignError before any mask is built; past
    that check m is at most the number of incidences the design holds, so
    no mask is longer than that many bits.
    """
    _require_every_point(d)
    return tuple(sum(1 << p for p in block) for block in d.blocks)


def intersection_numbers(d: IncidenceDesign) -> tuple[int, ...]:
    """The distinct |b & b'| over all distinct block pairs, ascending.

    Read off packed point rows: point p's row is an int whose field j is 1
    when p lies in block j, so the sum of block i's S rows holds |b_i & b_j|
    in field j, and its fields above field i are block i's intersections
    with the blocks after it.  A field holds at most S, so no carry crosses
    one: fields are one byte wide for S <= 255 and as wide as S needs
    above that.  `bytes.translate` deletes the values already seen, so
    Python reads a block's fields only when a new value is left, at most
    S + 1 times; wider fields are read on every block, since a byte of
    theirs is not a value.  S is a value when two blocks are equal.  The
    design is quasi-symmetric when exactly two values occur; then alpha is
    the larger and beta the smaller.

    A point in no block raises DesignError before the m rows of b fields
    are allocated; past that check m is at most the number of incidences.
    """
    if d.block_count < 2:
        raise DesignError("need at least two blocks to intersect")
    _require_every_point(d)
    width = (d.block_size.bit_length() + 7) // 8
    size = d.block_count * width
    planes = [bytearray(size) for _ in range(d.m)]
    for j, block in enumerate(d.blocks):
        for p in block:
            planes[p][j * width] = 1
    rows = [int.from_bytes(plane, "little") for plane in planes]
    values: set[int] = set()
    known = b""
    for i, block in enumerate(d.blocks, 1):
        later = sum(map(rows.__getitem__, block)) >> 8 * width * i
        fresh = later.to_bytes(size - width * i, "little").translate(None, known)
        if fresh:
            values.update(int.from_bytes(fresh[k:k + width], "little")
                          for k in range(0, len(fresh), width))
            known = bytes(values) if width == 1 else b""
    return tuple(sorted(values))


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


def parameters_from_design(d: IncidenceDesign) -> DesignParameters:
    """Read (m, S, alpha, beta) off an actual design and derive the rest.

    A design that is not quasi-symmetric raises DesignError.
    """
    values = intersection_numbers(d)
    if len(values) != 2:
        raise DesignError(
            f"design is not quasi-symmetric: intersection values {values}"
        )
    beta, alpha = values
    return derive_parameters(d.m, d.block_size, alpha, beta)
