"""The parameter calculus against double-counting identities it does not use.

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
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from twodist.designs import derive_parameters
from twodist.errors import DegenerateParametersError


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
