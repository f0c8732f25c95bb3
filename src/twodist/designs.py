"""Quasi-symmetric design combinatorics.

Incidence structures, t-design verification, blocks as integer bitmasks and
their intersection numbers as popcounts, and the exact parameter calculus
that expresses the block-graph quantities (Lambda, T, N, P, n, k, r, s) in
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
from itertools import combinations
from pathlib import Path
from typing import NamedTuple, Optional

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


class GateReport(NamedTuple):
    """Outcome of the integrality gate, with one entry per violated condition."""

    params: DesignParameters
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def integrality_gate(p: DesignParameters) -> GateReport:
    """Check the integrality conditions on a derived parameter set.

    Lambda must be a positive integer; T, N, P, k, n nonnegative integers;
    r and s integers; and the ordering 0 <= beta < alpha < S < m must hold.
    Failures are reported, never raised.
    """
    violations: list[str] = []
    if not (0 <= p.beta < p.alpha < p.S < p.m):
        violations.append(
            f"ordering 0 <= beta < alpha < S < m violated by "
            f"(m={p.m}, S={p.S}, alpha={p.alpha}, beta={p.beta})"
        )
    if p.Lambda.denominator != 1 or p.Lambda < 1:
        violations.append(f"Lambda = {format_scalar(p.Lambda)} is not a positive integer")
    for name in ("T", "N", "P", "k", "n"):
        value: Fraction = getattr(p, name)
        if value.denominator != 1 or value < 0:
            violations.append(f"{name} = {format_scalar(value)} is not a nonnegative integer")
    for name in ("r", "s"):
        value = getattr(p, name)
        if value.denominator != 1:
            violations.append(f"{name} = {format_scalar(value)} is not an integer")
    return GateReport(p, tuple(violations))


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
            if any(not (0 <= v < m) for v in b):
                raise DesignError(f"block {i} has an entry outside [0, {m})")
            if any(b[j] >= b[j + 1] for j in range(len(b) - 1)):
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
    t-subset whose count differs.
    """
    if not (1 <= t <= d.block_size):
        raise DesignError(f"t must be in [1, {d.block_size}], got {t}")
    counts: dict[tuple[int, ...], int] = {}
    for b in d.blocks:
        for sub in combinations(b, t):
            counts[sub] = counts.get(sub, 0) + 1
    subsets = combinations(range(d.m), t)
    first = next(subsets, None)
    if first is None:  # t <= block size <= m leaves at least one t-subset
        raise InternalConsistencyError(f"no {t}-subset of {d.m} points to count")
    want = counts.get(first, 0)
    for sub in subsets:
        c = counts.get(sub, 0)
        if c != want:
            return TDesignResult(
                False, None, f"{first} lies in {want} blocks but {sub} lies in {c}")
    return TDesignResult(True, want)


class IntersectionProfile(NamedTuple):
    values: tuple[int, ...]
    quasi_symmetric: bool
    alpha: Optional[int] = None
    beta: Optional[int] = None


def block_masks(d: IncidenceDesign) -> tuple[int, ...]:
    """Each block as a bitmask: bit p is set when point p lies in the block.

    A point in no block raises DesignError before any mask is built; past
    that check m is at most the number of incidences the design holds, so
    no mask is longer than that many bits.
    """
    covered = {p for block in d.blocks for p in block}
    if len(covered) < d.m:
        missing = next(p for p in range(d.m) if p not in covered)
        raise DesignError(f"point {missing} lies in no block")
    return tuple(sum(1 << p for p in block) for block in d.blocks)


def intersection_numbers(d: IncidenceDesign, masks: Optional[tuple] = None
                         ) -> IntersectionProfile:
    """Collect |b & b'| over all distinct block pairs.

    Each value is the popcount of two blocks' masks (`block_masks`, formed
    here unless the caller passes them); S is a value when two blocks are
    equal.  The design is quasi-symmetric when exactly two values occur;
    then alpha is the larger and beta the smaller.
    """
    if d.block_count < 2:
        raise DesignError("need at least two blocks to intersect")
    if masks is None:
        masks = block_masks(d)
    values = tuple(sorted({(a & b).bit_count() for i, a in enumerate(masks) for b in masks[:i]}))
    if len(values) == 2:
        return IntersectionProfile(values, True, alpha=values[1], beta=values[0])
    return IntersectionProfile(values, False)


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
    parsed: list[tuple[int, ...]] = []
    for i, b in enumerate(blocks):
        if not isinstance(b, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in b
        ):
            raise DesignError(f"{source}: blocks[{i}] must be a list of integers")
        parsed.append(tuple(b))
    try:
        return IncidenceDesign(m, tuple(parsed))
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


def parameters_from_design(d: IncidenceDesign, masks: Optional[tuple] = None
                           ) -> DesignParameters:
    """Read (m, S, alpha, beta) off an actual design and derive the rest.

    `masks` are the design's `block_masks` when the caller has them; a
    design that is not quasi-symmetric raises DesignError.
    """
    profile = intersection_numbers(d, masks)
    if not profile.quasi_symmetric:
        raise DesignError(
            f"design is not quasi-symmetric: intersection values {profile.values}"
        )
    if profile.alpha is None or profile.beta is None:
        raise InternalConsistencyError(f"quasi-symmetric profile {profile} lacks alpha or beta")
    return derive_parameters(d.m, d.block_size, profile.alpha, profile.beta)
