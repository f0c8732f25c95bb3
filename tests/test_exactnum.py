import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from twodist.exactnum import (
    QuadExt,
    UnsupportedExtensionError,
    format_scalar,
    parse_scalar,
    quadext_sign,
    quadext_sqrt,
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
    with pytest.raises(UnsupportedExtensionError):
        QuadExt({2: 1, 3: 1, 5: 1})
    with pytest.raises(UnsupportedExtensionError):
        QuadExt({2: 1, 3: 1}) * QuadExt({1: 1, 5: 1})
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
    r2 = sqrt_adjoin(2)
    assert QuadExt(1) < r2 < QuadExt(Fraction(3, 2))
    assert sqrt_adjoin(Fraction(14, 9)) > sqrt_adjoin(Fraction(8, 9))
    assert abs(QuadExt(1) - r2) == r2 - 1


def test_quadext_sqrt():
    assert quadext_sqrt(QuadExt(Fraction(9, 4))) == QuadExt(Fraction(3, 2))
    square = QuadExt({1: 3, 2: 2})  # (1 + sqrt(2))^2
    assert quadext_sqrt(square) == QuadExt({1: 1, 2: 1})
    assert quadext_sqrt(QuadExt(0)) == QuadExt(0)
    # 16/7 + (8/21) sqrt(15) has a degree-4 root: not representable
    assert quadext_sqrt(QuadExt({1: Fraction(16, 7), 15: Fraction(8, 21)})) is None
    with pytest.raises(ValueError):
        quadext_sqrt(QuadExt(-4))


def test_format_parse_round_trip():
    rng = random.Random(7)
    values = [QuadExt(0), QuadExt(Fraction(-4, 9)), sqrt_adjoin(Fraction(7, 324))]
    values += [_random_quadext(rng, *rng.choice(FIELD_PAIRS)) for _ in range(200)]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


def test_parse_rejects_garbage():
    for bad in ("", "1 +", "sqrt()", "2**sqrt(2)", "1/(2)"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_format_examples():
    assert format_scalar(Fraction(-1, 18)) == "-1/18"
    assert format_scalar(QuadExt({7: Fraction(-1, 18)})) == "-1/18*sqrt(7)"
    assert format_scalar(QuadExt({1: Fraction(5, 9), 7: Fraction(1, 9)})) == "5/9 + 1/9*sqrt(7)"
    assert parse_scalar("sqrt(7)") == QuadExt({7: 1})
