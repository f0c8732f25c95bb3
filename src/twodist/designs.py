"""Quasi-symmetric design combinatorics.

Incidence structures, t-design verification, block intersection numbers, and
the exact parameter calculus that expresses the block-graph quantities
(Lambda, T, N, P, n, k, r, s) in terms of (m, S, alpha, beta).  Integrality
of those derived values is checked by a separate gate so callers can see
exactly which condition fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Optional

import numpy as np

from .exactnum import format_scalar


class DesignError(ValueError):
    """Invalid design data or parameters."""


class DegenerateParametersError(DesignError):
    """A parameter formula hits a zero denominator."""


# ----- parameter calculus ----------------------------------------------


@dataclass(frozen=True)
class DesignParameters:
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


def derive_parameters(m: int, S: int, alpha: int, beta: int) -> DesignParameters:
    """Derive (Lambda, T, N, P, n, k, r, s) exactly from (m, S, alpha, beta).

    Requires the feasibility ordering 0 <= beta < alpha < S < m; raises
    DegenerateParametersError when a formula denominator vanishes.
    """
    if not (0 <= beta < alpha < S < m):
        raise DesignError(
            f"parameters must satisfy 0 <= beta < alpha < S < m, got "
            f"(m={m}, S={S}, alpha={alpha}, beta={beta})"
        )
    lam_den = (
        S**4
        - 2 * S**3
        - ((alpha + beta - 1) * (m - 1) - 1) * S**2
        + alpha * beta * m * (m - 1)
    )
    if lam_den == 0 or S == alpha or S == 1:
        raise DegenerateParametersError(
            f"degenerate parameters (m={m}, S={S}, alpha={alpha}, beta={beta})"
        )
    Lambda = Fraction(S * (S - 1) * (S - alpha) * (S - beta), lam_den)
    T = (m - 1) * Lambda / (S - 1)
    block_excess = S * (S - 1) - beta * (m - 1)
    N = alpha * (m - S) * block_excess * Lambda / (S * (alpha - beta) * (S - alpha) * (S - 1))
    P = block_excess * Lambda / ((alpha - beta) * (S - 1))
    r = ((m - S) * Lambda / (S - 1) - (S - beta)) / (alpha - beta)
    k = (m - S) * block_excess * Lambda / ((alpha - beta) * (S - alpha) * (S - 1))
    n = m * T / S
    s = Fraction(beta - S, alpha - beta)
    return DesignParameters(m, S, alpha, beta, Lambda, T, N, P, n, k, r, s)


@dataclass(frozen=True)
class GateReport:
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
        violations.append(f"Lambda = {p.Lambda} is not a positive integer")
    for name in ("T", "N", "P", "k", "n"):
        value: Fraction = getattr(p, name)
        if value.denominator != 1 or value < 0:
            violations.append(f"{name} = {value} is not a nonnegative integer")
    for name in ("r", "s"):
        value = getattr(p, name)
        if value.denominator != 1:
            violations.append(f"{name} = {value} is not an integer")
    return GateReport(p, tuple(violations))


# ----- incidence structures --------------------------------------------


@dataclass(frozen=True)
class IncidenceDesign:
    """Points 0..m-1 and equally sized blocks given as ascending point tuples."""

    m: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise DesignError(f"point count must be positive, got {self.m}")
        if not self.blocks:
            raise DesignError("design needs at least one block")
        size = len(self.blocks[0])
        for i, b in enumerate(self.blocks):
            if len(b) != size:
                raise DesignError(f"block {i} has size {len(b)}, expected {size}")
            if any(not (0 <= v < self.m) for v in b):
                raise DesignError(f"block {i} has an entry outside [0, {self.m})")
            if any(b[j] >= b[j + 1] for j in range(len(b) - 1)):
                raise DesignError(f"block {i} is not strictly ascending: {b}")

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "blocks": [list(b) for b in self.blocks]}


@dataclass(frozen=True)
class TDesignResult:
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
    first = None
    for sub in combinations(range(d.m), t):
        c = counts.get(sub, 0)
        if first is None:
            first = (sub, c)
            continue
        if c != first[1]:
            return TDesignResult(
                False, None,
                f"{first[0]} lies in {first[1]} blocks but {sub} lies in {c}",
            )
    assert first is not None
    return TDesignResult(True, first[1])


@dataclass(frozen=True)
class IntersectionProfile:
    values: tuple[int, ...]
    quasi_symmetric: bool
    alpha: Optional[int] = None
    beta: Optional[int] = None


def incidence_matrix(d: IncidenceDesign) -> np.ndarray:
    """The m x n 0/1 matrix (int8) with entry (p, j) = 1 when point p lies in block j."""
    inc = np.zeros((d.m, d.block_count), dtype=np.int8)
    for j, block in enumerate(d.blocks):
        inc[list(block), j] = 1
    return inc


def intersection_numbers(d: IncidenceDesign) -> IntersectionProfile:
    """Collect |b & b'| over all distinct block pairs.

    The values are the off-diagonal entries of the integer product inc^T inc.
    The design is quasi-symmetric when exactly two values occur; then alpha
    is the larger and beta the smaller.
    """
    if d.block_count < 2:
        raise DesignError("need at least two blocks to intersect")
    inc = incidence_matrix(d).astype(np.int32)
    inter = inc.T @ inc
    values = tuple(sorted(set(inter[np.triu_indices(d.block_count, 1)].tolist())))
    if len(values) == 2:
        return IntersectionProfile(values, True, alpha=values[1], beta=values[0])
    return IntersectionProfile(values, False)


# ----- canonical designs -----------------------------------------------


def lisonek_design() -> IncidenceDesign:
    """The 2-(9,2,1) design: all 2-subsets of 9 points (36 blocks)."""
    return IncidenceDesign(9, tuple(combinations(range(9), 2)))


def complement_design(d: IncidenceDesign) -> IncidenceDesign:
    """Replace every block by its complement in the point set."""
    full = set(range(d.m))
    blocks = tuple(tuple(sorted(full - set(b))) for b in d.blocks)
    return IncidenceDesign(d.m, blocks)


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
        if any(b[j] >= b[j + 1] for j in range(len(b) - 1)):
            raise DesignError(f"{source}: blocks[{i}] must be sorted ascending: {b}")
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
    return design_from_json(data, source=str(path))


def save_design(d: IncidenceDesign, path) -> None:
    Path(path).write_text(json.dumps(d.to_json_dict()) + "\n")


def parameters_from_design(d: IncidenceDesign) -> DesignParameters:
    """Read (m, S, alpha, beta) off an actual design and derive the rest."""
    profile = intersection_numbers(d)
    if not profile.quasi_symmetric:
        raise DesignError(
            f"design is not quasi-symmetric: intersection values {profile.values}"
        )
    assert profile.alpha is not None and profile.beta is not None
    return derive_parameters(d.m, d.block_size, profile.alpha, profile.beta)
