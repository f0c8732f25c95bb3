from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twodist.exactnum import QuadExt
from twodist.polynomials import (Poly, compose_cleared, dense_coeffs, dense_divmod, dense_gcd,
                                 taylor_shift)

from lattice_oracle import root_free, sign_variations
from oracles import compose_cleared_by_terms, poly_eval, poly_mul

XZ = ("x", "z")
T = ("t",)
SMXY = ("S", "m", "x", "y")
small = st.integers(-20, 20)


def polys(variables, max_degree=3, max_terms=5):
    expo = st.tuples(*[st.integers(0, max_degree)] * len(variables))
    return st.dictionaries(expo, small, max_size=max_terms).map(lambda t: Poly(variables, t))


points = st.fixed_dictionaries({"x": small, "z": small})


# ----- the Fraction Euclid oracle (dense lists, lowest degree first) -------


def oracle_divmod(a, b):
    rem = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while rem and rem[-1] == 0:
        rem.pop()
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        q[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return q, rem


def oracle_gcd(a, b):
    """Monic gcd over Q by Euclid on Fraction remainders."""
    while b:
        a, b = b, oracle_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a] if a else []


def nonzero_dense(max_degree=4):
    return polys(T, max_degree).filter(lambda p: not p.is_zero()).map(dense_coeffs)


# ----- Poly --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(a=polys(XZ), b=polys(XZ), c=polys(XZ), point=points)
def test_ring_laws_and_eval_homomorphism(a, b, c, point):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and (a + 0) == a and a * 1 == a and (a * 0).is_zero()
    assert a**3 == a * a * a and -(-a) == a
    va, vb = poly_eval(a, point), poly_eval(b, point)
    assert type(va) is int
    assert poly_eval(a + b, point) == va + vb
    assert poly_eval(a - b, point) == va - vb
    assert poly_eval(a * b, point) == va * vb


@settings(max_examples=30, deadline=None)
@given(p=polys(XZ), nx=polys(T, 2, 3), dx=polys(T, 2, 3), nz=polys(T, 2, 3),
       dz=polys(T, 2, 3), t=small)
def test_compose_cleared_matches_pointwise_substitution(p, nx, dx, nz, dz, t):
    at = {"t": t}
    assume(poly_eval(dx, at) != 0 and poly_eval(dz, at) != 0)
    cleared = compose_cleared(p, {"x": (nx, dx), "z": (nz, dz)})
    value = poly_eval(p, {"x": Fraction(poly_eval(nx, at), poly_eval(dx, at)),
                          "z": Fraction(poly_eval(nz, at), poly_eval(dz, at))})
    scale = poly_eval(dx, at) ** p.degree("x") * poly_eval(dz, at) ** p.degree("z")
    assert poly_eval(cleared, at) == value * scale


@pytest.mark.parametrize("p", [Poly.variable("x", XZ) + 1, Poly.constant(XZ, 3)],
                         ids=["non-constant", "constant"])
def test_compose_cleared_needs_a_substitution(p):
    # the substitutions name the output variables, so there is no answer without one
    with pytest.raises(ValueError, match="at least one substitution"):
        compose_cleared(p, {})


def test_poly_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        Poly(("z",), {(1,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        Poly.constant(XZ, Fraction(3))
    with pytest.raises(TypeError):
        Poly.constant(XZ, 1.0)
    with pytest.raises(TypeError):
        Poly.variable("x", XZ) + Fraction(1, 2)
    with pytest.raises(TypeError):
        Poly(("x",), {(1,): True})
    with pytest.raises(TypeError):
        Poly.variable("x", XZ) * True


@pytest.mark.parametrize("terms, error", [
    ({(-1,): 5, (2,): 1}, ValueError),       # x^-1 would be dropped by dense_coeffs
    ({(-1,): 0}, ValueError),                # checked before the zero is dropped
    ({(1.0,): 1}, TypeError),
    ({(True,): 1}, TypeError),
    ({(1, 0): 1}, ValueError),
], ids=["negative", "negative-zero-coefficient", "float", "bool", "length"])
def test_poly_rejects_invalid_exponents(terms, error):
    with pytest.raises(error):
        Poly(("x",), terms)


# ----- the kernel against the schoolbook oracle ---------------------------


@st.composite
def kernel_polys(draw, variables, max_degree=3, flat=frozenset()):
    """A Poly that is often zero or one term; the variables in `flat` never occur."""
    expo = st.tuples(*[st.just(0) if v in flat else st.integers(0, max_degree)
                       for v in variables])
    size = draw(st.sampled_from([0, 1, 1, 2, 3, 5]))
    return Poly(variables, draw(st.dictionaries(expo, small, max_size=size)))


def assert_canonical(p, variables):
    """No stored zero, int coefficients, nonnegative int exponents of the right length."""
    assert p.vars == variables
    for expo, coeff in p.terms.items():
        assert type(coeff) is int and coeff != 0
        assert type(expo) is tuple and len(expo) == len(variables)
        assert all(type(e) is int and e >= 0 for e in expo)


def oracle_sub(a, b):
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, 0) - c
    return Poly(a.vars, terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), variables=st.sampled_from([T, XZ, SMXY]), n=st.integers(0, 4),
       k=small)
def test_ring_operations_match_schoolbook_oracle(data, variables, n, k):
    flat = data.draw(st.sets(st.sampled_from(variables), max_size=len(variables) - 1))
    a = data.draw(kernel_polys(variables, flat=flat))
    b = data.draw(kernel_polys(variables))
    zero = Poly(variables)
    power = Poly.constant(variables, 1)
    for _ in range(n):
        power = poly_mul(power, a)
    times_k = poly_mul(a, Poly.constant(variables, k))
    for got, want in [(a * b, poly_mul(a, b)), (b * a, poly_mul(a, b)),
                      (a * k, times_k), (k * a, times_k),
                      (a - b, oracle_sub(a, b)), (-a, oracle_sub(zero, a)),
                      (a + b, oracle_sub(a, oracle_sub(zero, b))), (a**n, power)]:
        assert_canonical(got, variables)
        assert got.terms == want.terms


@settings(max_examples=40, deadline=None)
@given(data=st.data(), in_vars=st.sampled_from([("x", "y", "z"), SMXY]),
       out_vars=st.sampled_from([T, XZ]))
def test_compose_cleared_matches_term_by_term_oracle(data, in_vars, out_vars):
    flat = data.draw(st.sets(st.sampled_from(in_vars), max_size=len(in_vars) - 1))
    p = data.draw(kernel_polys(in_vars, 2, flat))
    one = Poly.constant(out_vars, 1)
    subs = {v: (data.draw(kernel_polys(out_vars, 2)),
                data.draw(st.one_of(st.just(one), kernel_polys(out_vars, 2))))
            for v in in_vars}
    got = compose_cleared(p, subs)
    assert_canonical(got, out_vars)
    assert got.terms == compose_cleared_by_terms(p, subs).terms


# ----- value semantics ------------------------------------------------------

_n = st.integers(-2, 2)
exact_values = st.one_of(
    _n,
    st.builds(Fraction, _n, st.sampled_from([1, 2])),
    st.builds(lambda n, d: QuadExt(Fraction(n, d)), _n, st.sampled_from([1, 2])),
    st.builds(lambda n: QuadExt({1: n, 2: 1}), _n),
    st.builds(Poly.constant, st.sampled_from([T, XZ]), _n),
    st.builds(lambda n: Poly.variable("x", XZ) + n, _n),
)


@settings(max_examples=100, deadline=None)
@given(a=exact_values, b=exact_values)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_constants_and_their_ints_are_one_set_element():
    assert len({Poly.constant(T, 3), 3}) == 1 and len({Poly(XZ), 0}) == 1
    assert len({QuadExt(3), 3, Fraction(3)}) == 1
    assert len({QuadExt(Fraction(1, 2)), Fraction(1, 2)}) == 1


# ----- dense lists -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(a=polys(T, 6).map(dense_coeffs), b=nonzero_dense(), sign=st.sampled_from([1, -1]))
def test_divmod_by_unit_leading_coefficient_matches_oracle(a, b, sign):
    b = b[:-1] + [sign]
    q, r = dense_divmod(a, b)
    assert (q, r) == oracle_divmod(a, b)


@settings(max_examples=40, deadline=None)
@given(b=polys(T, 4), q=polys(T, 3))
def test_divmod_recovers_exact_quotient(b, q):
    assume(not b.is_zero())
    quotient, rem = dense_divmod(dense_coeffs(b * q), dense_coeffs(b))
    assert rem == [] and quotient == dense_coeffs(q)


def test_divmod_rejects_non_integral_quotient_and_zero_divisor():
    with pytest.raises(ArithmeticError):
        dense_divmod([0, 1], [0, 2])
    with pytest.raises(ZeroDivisionError):
        dense_divmod([1, 2], [0, 0])


@settings(max_examples=40, deadline=None)
@given(common=nonzero_dense(3), u=polys(T, 3), v=polys(T, 3))
def test_gcd_divides_both_and_matches_oracle(common, u, v):
    c = Poly(T, {(i,): x for i, x in enumerate(common)})
    a, b = dense_coeffs(c * u), dense_coeffs(c * v)
    g = dense_gcd(a, b)
    expected = oracle_gcd(a, b)
    if not expected:
        assert g == [] and not a and not b
        return
    assert g[-1] > 0
    assert dense_divmod(a, g)[1] == [] and dense_divmod(b, g)[1] == []
    assert [Fraction(x, g[-1]) for x in g] == expected
    assert len(g) >= len(common)


# ----- root exclusion, against sympy's real-root counts ---------------------


def sympy_poly(c):
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(sum(v * x**k for k, v in enumerate(c)), x)


def real_rooted(lead, roots):
    """Dense coefficients of lead * prod(q x - p) over roots p/q, lowest degree first."""
    c = [lead]
    for p, q in roots:
        c = [b * q - a * p for a, b in zip(c + [0], [0] + c)]
    return c


@st.composite
def real_rooted_cases(draw):
    """A real-rooted polynomial whose roots may sit at, between or past a and b.

    Roots are p/q with q in {1, 2, 3}; the endpoints a, b (a == b allowed)
    are drawn first so that roots at them, double roots and roots just
    outside are all common.
    """
    a = draw(st.integers(-15, 15))
    b = a + draw(st.sampled_from([0, 0, 1, 2, 3, 7, 20]))
    root = st.one_of(
        st.tuples(st.sampled_from([a, b, a - 1, b + 1]), st.just(1)),
        st.tuples(st.integers(-60, 60), st.sampled_from([1, 2, 3])))
    roots = []
    for r in draw(st.lists(root, max_size=6)):
        roots += [r] * draw(st.integers(1, 3))
    lead = draw(st.sampled_from([1, -1, 2, -5]))
    return real_rooted(lead, roots), a, b


@settings(max_examples=200, deadline=None)
@given(case=real_rooted_cases())
def test_root_free_is_exact_on_real_rooted_polynomials(case):
    """With every root real, Descartes after the Moebius map counts exactly."""
    c, a, b = case
    assert root_free(c, a, b) == (sympy_poly(c).count_roots(a, b) == 0)


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.integers(-20, 20), max_size=9), a=st.integers(-10, 10),
       width=st.integers(0, 12))
def test_root_free_is_sound(c, a, width):
    """A True answer is a proof: no real root on [a, b], endpoints included."""
    b = a + width
    if root_free(c, a, b):
        assert any(c) and sympy_poly(c).count_roots(a, b) == 0


@settings(max_examples=300, deadline=None)
@given(c=st.lists(st.integers(-10**9, 10**9), max_size=13), a=st.integers(-10**5, 10**5),
       vanish=st.booleans())
def test_root_free_on_one_point_is_nonvanishing(c, a, vanish):
    """On [a, a] the test is exact: root_free(c, a, a) holds iff c(a) != 0.

    Row kernels bisect lattice rows down to single points, so an unproved
    point is exactly a zero of the row.  With `vanish`, the constant term is
    moved so that c(a) = 0.
    """
    if vanish and c:
        c = [c[0] - sum(ck * a**k for k, ck in enumerate(c))] + c[1:]
    assert root_free(c, a, a) == (sum(ck * a**k for k, ck in enumerate(c)) != 0)


def test_root_free_edge_cases():
    assert not root_free([], 0, 5) and not root_free([0, 0], 0, 5)
    assert root_free([7], -3, 3) and root_free([-2, 0, 0], -3, 3)
    assert not root_free([-2, 1], 2, 2) and root_free([-2, 1], 3, 3)
    assert not root_free([-2, 1], 0, 2) and not root_free([-2, 1], 2, 9)
    assert root_free([-10, 1], 0, 9)             # the root 10 lies past b
    assert not root_free([1, 0, 1], -9, 9)       # x^2 + 1: the pair +-i defeats one test
    assert root_free([1, 0, 1], 1, 9)


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.integers(-10**6, 10**6), max_size=12), a=st.integers(-10**4, 10**4))
def test_taylor_shift_matches_sympy(c, a):
    shifted = taylor_shift(c, a)
    assert len(shifted) == len(c)
    if any(c):
        assert sympy_poly(shifted) == sympy_poly(c).shift(a)
    else:
        assert not any(shifted)


def test_sign_variations():
    assert sign_variations([]) == 0 and sign_variations([0, 0]) == 0
    assert sign_variations([1, 0, -1, 2]) == 2
    assert sign_variations([-3, -1, 0, -2]) == 0
