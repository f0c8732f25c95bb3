import math
import random
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodist import exactnum
from twodist.errors import DesignError
from twodist.exactnum import (
    QuadExt,
    _conjugate_split,
    format_scalar,
    parse_scalar,
    quadext_sign,
    sqrt_adjoin,
    squarefree_decompose,
)


def test_quadext_arith_examples():
    sq7_18 = QuadExt({7: Fraction(1, 18)})
    assert sq7_18 * sq7_18 == QuadExt(Fraction(7, 324))
    one_plus = QuadExt({1: 1, 2: 1})
    one_minus = QuadExt({1: 1, 2: -1})
    assert one_plus * one_minus == QuadExt(-1)
    a = QuadExt({14: Fraction(2, 7)})
    b = QuadExt({14: Fraction(1, 21)})
    assert a + b == QuadExt({14: Fraction(1, 3)})


def test_sqrt_adjoin_examples():
    assert sqrt_adjoin(4) == QuadExt(2)
    assert sqrt_adjoin(Fraction(8, 9)) == QuadExt({2: Fraction(2, 3)})
    assert sqrt_adjoin(Fraction(7, 324)) == QuadExt({7: Fraction(1, 18)})
    assert sqrt_adjoin(0) == QuadExt(0)
    with pytest.raises(ValueError):
        sqrt_adjoin(Fraction(-1, 2))


@pytest.mark.parametrize("value", [0.5, "1/2"])
def test_sqrt_adjoin_refuses_what_is_not_an_int_or_fraction(value):
    # a float would carry its rounding into an exact result
    with pytest.raises(TypeError, match="not a rational value"):
        sqrt_adjoin(value)


def test_sqrt_adjoin_squares_back():
    random.seed(20240817)
    for _ in range(200):
        r = Fraction(random.randint(0, 400), random.randint(1, 60))
        root = sqrt_adjoin(r)
        assert root * root == QuadExt(r)
        assert root.sign() >= 0


def test_sign_examples():
    assert quadext_sign(QuadExt({1: 3, 2: -2})) == 1          # 9 > 8
    assert quadext_sign(QuadExt({14: Fraction(1, 3), 2: Fraction(-2, 3)})) == 1
    assert quadext_sign(QuadExt(0)) == 0
    assert quadext_sign(QuadExt({1: 1, 2: -1})) == -1         # 1 < sqrt(2)


def test_division_and_inverse():
    v = QuadExt({6: 1, 10: 1, 15: 1})
    assert v * v.inverse() == QuadExt(1)
    w = QuadExt({1: Fraction(3, 7), 2: Fraction(-1, 2), 7: Fraction(5, 3), 14: Fraction(2, 9)})
    assert w / w == QuadExt(1)
    with pytest.raises(ZeroDivisionError):
        w / QuadExt(0)


def test_extension_rank_cap():
    beyond_two = "value leaves every extension generated by two radicands"
    with pytest.raises(DesignError, match=beyond_two):
        QuadExt({2: 1, 3: 1, 5: 1})
    with pytest.raises(DesignError, match=beyond_two):
        QuadExt({2: 1, 3: 1}) * QuadExt({1: 1, 5: 1})
    with pytest.raises(DesignError, match=beyond_two):
        QuadExt({2: 1, 3: 1}) + QuadExt({5: 1})
    # the same sqrt(2) + sqrt(3) + sqrt(5) as a product and through an inverse:
    # 5 + sqrt(10) + sqrt(15) lies in Q(sqrt(10), sqrt(15)), its quotient by
    # sqrt(5) does not
    rank_two = QuadExt({1: 5, 10: 1, 15: 1})
    with pytest.raises(DesignError, match=beyond_two):
        rank_two * QuadExt({5: Fraction(1, 5)})
    with pytest.raises(DesignError, match=beyond_two):
        rank_two * QuadExt({5: 1}).inverse()
    # (sqrt(2) + sqrt(3)) * sqrt(5) lands in the rank-2 field Q(sqrt(10), sqrt(15))
    ok = QuadExt({2: 1, 3: 1}) * QuadExt({5: 1})
    assert ok == QuadExt({10: 1, 15: 1})
    # three radicands inside one rank-2 extension are fine
    QuadExt({2: 1, 3: 1, 6: 1})


def test_canonicalization_idempotent_and_square_extraction():
    assert QuadExt({8: 1}) == QuadExt({2: 2})                  # sqrt(8) = 2 sqrt(2)
    assert QuadExt({12: Fraction(1, 2)}) == QuadExt({3: 1})
    merged = QuadExt({8: 1, 2: -2})
    assert merged.is_zero()
    assert squarefree_decompose(504) == (6, 14)
    # sqrt(2) * sqrt(14) = 2 sqrt(7)
    assert QuadExt({2: 1}) * QuadExt({14: 1}) == QuadExt({7: 2})


def _random_quadext(rng, d1, d2):
    d12 = d1 * d2 // math.gcd(d1, d2) ** 2
    rads = [1, d1, d2, d12]
    terms = {}
    for r in rads:
        if rng.random() < 0.75:
            terms[r] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return QuadExt(terms)


FIELD_PAIRS = [(2, 7), (3, 5), (2, 3), (5, 14), (7, 13)]


def test_field_axioms_random():
    rng = random.Random(99)
    for _ in range(400):
        d1, d2 = rng.choice(FIELD_PAIRS)
        a = _random_quadext(rng, d1, d2)
        b = _random_quadext(rng, d1, d2)
        c = _random_quadext(rng, d1, d2)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == QuadExt(1)
            assert (b / a) * a == b


def _decimal_value(v: QuadExt) -> Decimal:
    getcontext().prec = 60
    total = Decimal(0)
    for r, c in v.terms:
        total += Decimal(c.numerator) / Decimal(c.denominator) * Decimal(r).sqrt()
    return total


def test_sign_matches_high_precision_oracle():
    rng = random.Random(123456)
    checked = 0
    while checked < 10_000:
        d1, d2 = rng.choice(FIELD_PAIRS)
        v = _random_quadext(rng, d1, d2)
        if v.is_zero():
            continue
        approx = _decimal_value(v)
        assert abs(approx) > Decimal("1e-45")  # random samples stay far from 0
        expected = 1 if approx > 0 else -1
        assert quadext_sign(v) == expected
        checked += 1


def test_comparisons_and_ordering():
    # values are ordered by the sign of their difference
    r2 = sqrt_adjoin(2)
    assert (r2 - 1).sign() > 0 and (QuadExt(Fraction(3, 2)) - r2).sign() > 0
    assert (sqrt_adjoin(Fraction(14, 9)) - sqrt_adjoin(Fraction(8, 9))).sign() > 0
    assert (QuadExt(1) - r2).sign() < 0 and (r2 - r2).sign() == 0


def test_format_parse_round_trip():
    rng = random.Random(7)
    values = [QuadExt(0), QuadExt(Fraction(-4, 9)), sqrt_adjoin(Fraction(7, 324))]
    values += [_random_quadext(rng, *rng.choice(FIELD_PAIRS)) for _ in range(200)]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


def test_parse_rejects_garbage():
    over_limit = "7" * 5000   # Python converts at most 4,300 digits between int and str
    for bad in ("", "1 +", "sqrt()", "2**sqrt(2)", "1/(2)", "1/0", "3/0*sqrt(2)", "sqrt(0)",
                "2*sqrt(0) + 1", over_limit, f"1/{over_limit}", f"sqrt({over_limit})",
                "sqrt(1000000000000)", "2*sqrt(1000000000000000003) + 1"):
        with pytest.raises(DesignError):
            parse_scalar(bad)
    assert parse_scalar("0*sqrt(0) + 1") == QuadExt(1)
    # the largest prime below the radicand bound, the costliest radicand accepted
    assert parse_scalar("sqrt(999999999989)") == QuadExt({999999999989: 1})


def test_format_past_the_digit_limit():
    assert format_scalar(10 ** 4299) == "1" + "0" * 4299
    with pytest.raises(DesignError, match="Exceeds the limit"):
        format_scalar(Fraction(1, 10 ** 4300))
    with pytest.raises(DesignError, match="Exceeds the limit"):
        format_scalar(QuadExt({3: 10 ** 4300}))


def test_format_examples():
    assert format_scalar(Fraction(-1, 18)) == "-1/18"
    assert format_scalar(QuadExt({7: Fraction(-1, 18)})) == "-1/18*sqrt(7)"
    assert format_scalar(QuadExt({1: Fraction(5, 9), 7: Fraction(1, 9)})) == "5/9 + 1/9*sqrt(7)"
    assert parse_scalar("sqrt(7)") == QuadExt({7: 1})


# ----- Hypothesis properties ---------------------------------------------------

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
SQRT2_SQRT3 = (1, 2, 3, 6)  # the basis of Q(sqrt(2), sqrt(3))


def quadexts(radicands=SQRT2_SQRT3):
    return st.dictionaries(st.sampled_from(radicands), fractions, max_size=4).map(QuadExt)


any_field = st.sampled_from(FIELD_PAIRS).flatmap(
    lambda pair: quadexts((1, *pair, pair[0] * pair[1] // math.gcd(*pair) ** 2)))


def _unit_product(a: int, b: int) -> QuadExt:
    """(sqrt(2) - 1)^a (2 - sqrt(3))^b, by repeated multiplication."""
    out = QuadExt(1)
    for factor, count in ((QuadExt({2: 1, 1: -1}), a), (QuadExt({1: 2, 3: -1}), b)):
        for _ in range(count):
            out = out * factor
    return out


# (sqrt(2) - 1)^a (2 - sqrt(3))^b is tiny, so these products sit close to 0
small_units = st.tuples(st.integers(0, 30), st.integers(0, 20)).map(lambda ab: _unit_product(*ab))


@settings(max_examples=60, deadline=None)
@given(a=quadexts(), b=quadexts(), c=quadexts())
def test_field_axioms_over_sqrt2_sqrt3(a, b, c):
    zero, one = QuadExt(0), QuadExt(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a + (-a)).is_zero() and a - b == a + (-b)
    if not a.is_zero():
        assert a * a.inverse() == one
        assert (b / a) * a == b


def assert_canonical(v: QuadExt) -> None:
    # the public constructor re-canonicalises from scratch; results built on
    # the trusted path must already be in that form, term for term
    assert v.terms == QuadExt(dict(v.terms)).terms
    assert all(c for _, c in v.terms)


@settings(max_examples=100, deadline=None)
@given(pair=st.sampled_from(FIELD_PAIRS), data=st.data())
def test_arithmetic_results_are_canonical(pair, data):
    field = quadexts((1, *pair, pair[0] * pair[1] // math.gcd(*pair) ** 2))
    a, b = data.draw(field), data.draw(field)
    for value in (a + b, a - b, a * b, a + (-a), a * (b - b)):
        assert_canonical(value)
    if not b.is_zero():
        assert_canonical(a / b)
        assert_canonical(b.inverse())


@settings(max_examples=100, deadline=None)
@given(r=st.one_of(st.integers(-10**6, 10**6), fractions))
def test_rational_constructor_matches_wrapping_in_a_fraction(r):
    # QuadExt(r) keeps a Fraction as it is and builds one only from an int;
    # either way it is the term map of Fraction(r), with a Fraction coefficient
    v = QuadExt(r)
    assert v.terms == (((1, Fraction(r)),) if r else ())
    assert all(type(c) is Fraction for _, c in v.terms)
    assert v == QuadExt({1: r})


@settings(max_examples=100, deadline=None)
@given(v=any_field, r=st.one_of(st.integers(-10**6, 10**6), fractions))
def test_rational_operand_matches_the_general_product(v, r):
    # QuadExt * int/Fraction scales the terms directly; it must agree term for
    # term with the product by QuadExt(r) and stay canonical, in either order
    expected = v * QuadExt(r)
    for product in (v * r, r * v):
        assert product.terms == expected.terms
        assert all(type(c) is Fraction for _, c in product.terms)
        assert_canonical(product)


@settings(max_examples=100, deadline=None)
@given(v=any_field)
def test_format_parse_round_trip_property(v):
    text = format_scalar(v)
    assert parse_scalar(text) == v
    assert format_scalar(parse_scalar(text)) == text


def decimal_sign(v: QuadExt) -> int:
    """Sign of v from a Decimal sum precise enough to be certain.

    y = q v = sum a_r sqrt(r) with integer a_r is a nonzero algebraic integer
    when v != 0, so its norm over Q(sqrt(2), sqrt(3)) is a nonzero integer.
    Each of the four conjugates of y is at most B = sum |a_r| (isqrt(r) + 1)
    in absolute value, hence |y| >= 1 / B^3.  The sum below rounds at most
    12 times (a root, a product and a sum per term), each time by at most
    10^(1 - prec) times a value below B, so its error is under
    12 B 10^(1 - prec) < 1 / (2 B^3): prec = 4 digits(B) + 3 makes
    10^(prec - 1) >= 100 B^4.
    """
    q = math.lcm(*(c.denominator for _, c in v.terms))
    ints = [(r, int(c * q)) for r, c in v.terms]
    bound = sum(abs(a) * (math.isqrt(r) + 1) for r, a in ints)
    with localcontext() as ctx:
        ctx.prec = 4 * len(str(bound)) + 3
        y = sum((Decimal(a) * Decimal(r).sqrt() for r, a in ints), Decimal(0))
    return (y > 0) - (y < 0)


@settings(max_examples=200, deadline=None)
@given(v=quadexts(), unit=small_units)
def test_sign_matches_certified_decimal_oracle(v, unit):
    for value in (v, v * unit):
        expected = decimal_sign(value) if not value.is_zero() else 0
        assert quadext_sign(value) == expected


@settings(max_examples=100, deadline=None)
@given(v=any_field)
def test_conjugate_split_drops_one_radicand(v):
    # v = u + v'*sqrt(d) with u and v' in one subfield Q(sqrt(h)) that leaves d out
    if v.is_rational():
        return
    u, w, d = _conjugate_split(v)
    assert u + w * sqrt_adjoin(d) == v and not w.is_zero()
    below = set(u.radicands()) | set(w.radicands())
    assert len(below) <= 1 and d not in below


def test_sign_recursion_is_at_most_two_levels_deep(monkeypatch):
    # each split drops a radicand, so Q(sqrt(2), sqrt(7)) bottoms out two calls down;
    # the check sits in the recursion, so a split that drops none fails, not hangs
    real, depth, deepest = exactnum.quadext_sign, [0], [0]

    def traced(a):
        assert depth[0] <= 2, f"quadext_sign nested {depth[0]} deep"
        deepest[0] = max(deepest[0], depth[0])
        depth[0] += 1
        try:
            return real(a)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(exactnum, "quadext_sign", traced)
    rng = random.Random(37)
    values = [parse_scalar("4059965/1000000 - sqrt(2) - sqrt(7)")] + [
        QuadExt({r: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for r in (1, 2, 7, 14)})
        * _unit_product(rng.randint(0, 12), 0) for _ in range(50)]
    for value in values:
        assert traced(value) == decimal_sign(value)
    deepest[0] = 0
    traced(values[0])
    assert deepest[0] == 2
