"""The parameter calculus against double-counting identities it does not use,
and its one-division-per-value evaluation against the sequential oracle.

Each identity counts incidences of a quasi-symmetric 2-design with block
graph parameters (n, k, lambda, mu) in two ways, independently of the
formulas in `designs.block_graph_formulas` (Shrikhande and Sane,
Quasi-symmetric designs, 1991):

- S N = k alpha and (m - S) P = k (S - alpha): the blocks alpha-adjacent to a
  block B, counted through the points inside and outside B;
- k alpha + (n - 1 - k) beta = S (T - 1): the pairs (point of B, other block
  through it);
- k alpha(alpha - 1) + (n - 1 - k) beta(beta - 1) = S(S - 1)(Lambda - 1):
  the pairs (2-subset of B, other block through it);
- k (k - lambda - 1) = (n - k - 1) mu: the paths B - B' - B'' with B' adjacent
  to B and B'' not, in the strongly regular block graph.

`oracles.sequential_parameters` evaluates the same formulas one Fraction
operation at a time; `derive_parameters` must give exactly its values.
"""

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from twodist.designs import derive_parameters
from twodist.errors import DegenerateParametersError

from oracles import sequential_parameters

PARAM_NAMES = ("Lambda", "T", "N", "P", "r", "k", "n", "s")

# (v, k, x, y, lambda) of the quasi-symmetric 2-designs with x > y in the
# standard table of Shrikhande and Sane; (m, S, alpha, beta) = (v, k, x, y)
SHRIKHANDE_SANE = [
    (9, 2, 1, 0, 1), (10, 4, 2, 1, 2), (19, 7, 3, 1, 7), (20, 8, 4, 2, 14),
    (21, 6, 2, 0, 4), (21, 7, 3, 1, 12), (22, 6, 2, 0, 5), (22, 7, 3, 1, 16),
    (23, 7, 3, 1, 21), (28, 7, 3, 1, 16), (36, 16, 8, 6, 12), (45, 9, 3, 1, 8),
    (49, 9, 3, 1, 6), (56, 16, 6, 4, 6),
]


@st.composite
def ordered_tuples(draw):
    m = draw(st.integers(3, 2000))
    S = draw(st.integers(2, m - 1))
    alpha = draw(st.integers(1, S - 1))
    beta = draw(st.integers(0, alpha - 1))
    return m, S, alpha, beta


@settings(max_examples=500, deadline=None)
@given(ordered_tuples())
def test_parameters_satisfy_double_counting(args):
    m, S, alpha, beta = args
    try:
        p = derive_parameters(m, S, alpha, beta)
    except DegenerateParametersError:
        reject()
    others = p.n - 1 - p.k
    assert S * p.N == p.k * alpha
    assert (m - S) * p.P == p.k * (S - alpha)
    assert p.k * alpha + others * beta == S * (p.T - 1)
    assert p.k * alpha * (alpha - 1) + others * beta * (beta - 1) == S * (S - 1) * (p.Lambda - 1)
    assert p.k * (p.k - p.lambda_graph - 1) == (p.n - p.k - 1) * p.mu_graph


def _agree_with_sequential_oracle(m, S, alpha, beta):
    """Both sides raise DegenerateParametersError, or give the same eight Fractions."""
    try:
        want = sequential_parameters(m, S, alpha, beta)
    except DegenerateParametersError:
        with pytest.raises(DegenerateParametersError):
            derive_parameters(m, S, alpha, beta)
        return None
    p = derive_parameters(m, S, alpha, beta)
    assert {name: getattr(p, name) for name in PARAM_NAMES} == want
    return p


@settings(max_examples=500, deadline=None)
@given(ordered_tuples())
def test_parameters_match_the_sequential_oracle(args):
    _agree_with_sequential_oracle(*args)


def test_degenerate_tuple_is_refused_by_both_sides():
    # (5, 3, 2, 0) zeroes the Lambda denominator
    with pytest.raises(DegenerateParametersError):
        sequential_parameters(5, 3, 2, 0)
    assert _agree_with_sequential_oracle(5, 3, 2, 0) is None


@pytest.mark.parametrize("v, k, x, y, lam", SHRIKHANDE_SANE)
def test_shrikhande_sane_table_matches_the_sequential_oracle(v, k, x, y, lam):
    assert _agree_with_sequential_oracle(v, k, x, y).Lambda == lam
