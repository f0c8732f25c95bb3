from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twodist.polynomials import Poly, compose_cleared, dense_coeffs, dense_divmod, dense_gcd

XZ = ("x", "z")
T = ("t",)
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
    va, vb = a.eval(point), b.eval(point)
    assert type(va) is int
    assert (a + b).eval(point) == va + vb
    assert (a - b).eval(point) == va - vb
    assert (a * b).eval(point) == va * vb


@settings(max_examples=30, deadline=None)
@given(p=polys(XZ), nx=polys(T, 2, 3), dx=polys(T, 2, 3), nz=polys(T, 2, 3),
       dz=polys(T, 2, 3), t=small)
def test_compose_cleared_matches_pointwise_substitution(p, nx, dx, nz, dz, t):
    at = {"t": t}
    assume(dx.eval(at) != 0 and dz.eval(at) != 0)
    cleared = compose_cleared(p, {"x": (nx, dx), "z": (nz, dz)})
    value = p.eval({"x": Fraction(nx.eval(at), dx.eval(at)),
                    "z": Fraction(nz.eval(at), dz.eval(at))})
    scale = dx.eval(at) ** p.degree("x") * dz.eval(at) ** p.degree("z")
    assert cleared.eval(at) == value * scale


def test_poly_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        Poly(("z",), {(1,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        Poly.constant(XZ, Fraction(3))
    with pytest.raises(TypeError):
        Poly.constant(XZ, 1.0)
    with pytest.raises(TypeError):
        Poly.variable("x", XZ) + Fraction(1, 2)


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
