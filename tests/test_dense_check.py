"""The dense projector check on the integer form of E, against a QuadExt oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodist.coherent import (
    GramTable,
    _dense_checks,
    _integer_form,
    _integer_square,
)
from twodist.errors import InternalConsistencyError
from twodist.exactnum import QuadExt, _sf_product


def quadext_matmul(a: list, b: list) -> list:
    """Dense product of QuadExt matrices by raw term accumulation.

    The dense E^2 = E check used this triple loop before the integer form;
    it stays here as the independent oracle for ``_integer_square``.
    """
    cols = [[row[j] for row in b] for j in range(len(b[0]))]
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc: dict = {}
            for x, y in zip(row, col):
                for r1, c1 in x.terms:
                    for r2, c2 in y.terms:
                        g, d = _sf_product(r1, r2)
                        acc[d] = acc.get(d, Fraction(0)) + c1 * c2 * g
            out_row.append(QuadExt(acc))
        out.append(out_row)
    return out


def projector_form(result, coeffs=None):
    coeffs = result.coefficients if coeffs is None else coeffs
    return _integer_form(coeffs, result.cc.relation_index_matrix() - 1)


def with_part(form, radicand, part):
    return type(form)(form.denominator, {**form.parts, radicand: part})


def test_dense_check_passes_on_lisonek(lisonek_projector):
    form = projector_form(lisonek_projector)
    assert form.denominator == 126
    assert sorted(form.parts) == [1, 7]
    assert all(part.dtype == np.int64 for part in form.parts.values())
    _dense_checks(lisonek_projector.cc, form, lisonek_projector.gram)


@pytest.mark.parametrize("radicand, a, b", [(1, 0, 1), (7, 0, 9), (1, 9, 10)])
def test_dense_check_catches_symmetric_off_class_entry(lisonek_projector, radicand, a, b):
    form = projector_form(lisonek_projector)
    part = form.parts[radicand].copy()
    part[a, b] += 1
    part[b, a] += 1
    with pytest.raises(InternalConsistencyError, match="off its class value"):
        _dense_checks(lisonek_projector.cc, with_part(form, radicand, part),
                      lisonek_projector.gram)


def test_dense_check_catches_class_value_off_gram_table(lisonek_projector):
    gram = lisonek_projector.gram
    wrong = GramTable(gram.params, {**gram.classes, "B_beta": QuadExt(Fraction(-1, 63))})
    with pytest.raises(InternalConsistencyError, match="off its class value"):
        _dense_checks(lisonek_projector.cc, projector_form(lisonek_projector), wrong)


def test_dense_check_catches_non_idempotent_consistent_projector(lisonek_projector):
    # V_off (R3) enters neither the trace nor the symmetry pairs, and the Gram
    # table moves with it, so only the E^2 = E product can see the change
    coeffs = list(lisonek_projector.coefficients)
    coeffs[2] = coeffs[2] + Fraction(1, 126)
    gram = GramTable(lisonek_projector.gram.params,
                     {**lisonek_projector.gram.classes, "V_off": coeffs[2]})
    with pytest.raises(InternalConsistencyError, match=r"E\^2 != E"):
        _dense_checks(lisonek_projector.cc, projector_form(lisonek_projector, coeffs), gram)


FIELDS = ((1, 2, 3, 6), (1, 7))  # Q(sqrt(2), sqrt(3)) and Q(sqrt(7))


@st.composite
def field_matrices(draw, bits: int) -> list:
    radicands = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    coeff = st.builds(Fraction, st.integers(-2 ** bits, 2 ** bits), st.integers(1, 12))
    entries = [
        QuadExt(dict(zip(radicands, draw(st.lists(coeff, min_size=len(radicands),
                                                  max_size=len(radicands))))))
        for _ in range(n * n)
    ]
    if bits > 6:
        # one rational part of at least 2^(bits - 1) pushes the form past the
        # int64 bound (its square alone exceeds 2^63); at 34 bits the entries
        # still fit in int64 but their products do not.  It replaces the drawn
        # part rather than adding to it, which could cancel it down to int64.
        big = Fraction(draw(st.integers(2 ** (bits - 1), 2 ** bits)))
        entries[0] = QuadExt({**dict(entries[0].terms), 1: big})
    return [entries[i * n:(i + 1) * n] for i in range(n)]


@pytest.mark.parametrize("bits, dtype", [(6, np.int64), (34, object), (70, object)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_square_matches_quadext_oracle(bits, dtype, data):
    rows = data.draw(field_matrices(bits))
    n = len(rows)
    form = _integer_form([v for row in rows for v in row], np.arange(n * n).reshape(n, n))
    assert all(part.dtype == dtype for part in form.parts.values())
    square = _integer_square(form)
    den = form.denominator ** 2
    got = [
        [QuadExt({d: Fraction(int(num[a, b]), den) for d, num in square.items()})
         for b in range(n)]
        for a in range(n)
    ]
    assert got == quadext_matmul(rows, rows)
