"""Field construction, log/antilog tables, and element arithmetic."""

import pytest
from hypothesis import given, strategies as st

from orbitcodes import make_field, default_poly, parse_poly
from orbitcodes.errors import (
    DegreeMismatch,
    NoDefault,
    NotPrime,
    NotPrimitive,
    TooLarge,
    ZeroInverse,
)
from orbitcodes.gfext import DEFAULT_POLYS, poly_str


def test_all_default_polys_are_primitive():
    for (q, n), poly in DEFAULT_POLYS.items():
        if q ** n - 1 > 1 << 17:
            continue  # keep this suite fast; big ones are exercised elsewhere
        f = make_field(q, n, poly)
        assert f.group_order == q ** n - 1
        assert len(set(f.antilog)) == f.group_order


def test_paper_field_specs():
    assert make_field(2, 4, "x^4+x+1").group_order == 15
    assert make_field(2, 5, "x^5+x^2+1").group_order == 31
    assert make_field(2, 10).group_order == 1023


def test_poly_parsing_both_forms():
    assert parse_poly("1,1,0,0,1", 2) == (1, 1, 0, 0, 1)
    assert parse_poly("x^4+x+1", 2) == (1, 1, 0, 0, 1)
    assert parse_poly("x^10+x^6+x^5+x^3+x^2+x+1", 2) == default_poly(2, 10)
    assert poly_str((1, 1, 0, 0, 1)) == "x^4+x+1"


def test_invalid_fields_rejected():
    with pytest.raises(NotPrime):
        make_field(4, 2, (1, 1, 1))
    with pytest.raises(NotPrimitive):
        make_field(2, 4, (1, 1, 1, 1, 1))  # x^4+x^3+x^2+x+1 has order 5
    with pytest.raises(DegreeMismatch):
        make_field(2, 4, (1, 1, 1))
    with pytest.raises(NoDefault):
        make_field(11, 3)
    with pytest.raises(TooLarge):
        make_field(2, 10, max_group_order=100)


def test_log_antilog_inverse_tables(f16):
    for e in range(f16.group_order):
        assert f16.log[f16.antilog[e]] == e


def test_element_arithmetic_f16(f16):
    g = f16.element
    # gamma^0 + gamma^1 = gamma^4 for x^4 + x + 1
    assert (g(0) + g(1)).exp == 4
    assert (g(3) * g(5)).exp == 8
    assert (g(14) * g(1)).exp == 0
    assert (g(7) + g(7)).is_zero
    assert f16.inv(g(6)).exp == 9
    with pytest.raises(ZeroInverse):
        f16.inv(f16.zero())


def test_addition_matches_coordinate_xor(f16):
    for a in range(15):
        for b in range(15):
            s = f16.add(f16.element(a), f16.element(b))
            packed = f16.antilog[a] ^ f16.antilog[b]
            assert (s.is_zero and packed == 0) or f16.antilog[s.exp] == packed


def test_nonbinary_field_arithmetic(f9):
    # F_9: every nonzero element has multiplicative order dividing 8
    for e in range(8):
        x = f9.element(e)
        assert (x * f9.inv(x)).exp == 0
    # characteristic 3: x + x + x = 0
    x = f9.element(1)
    assert (x + x + x).is_zero


@given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14))
def test_field_axioms_f16(a, b, c):
    f = make_field(2, 4)
    x, y, z = f.element(a), f.element(b), f.element(c)
    assert (x + y).exp == (y + x).exp  # commutativity (None-safe: both equal)
    lhs, rhs = (x + y) + z, x + (y + z)
    assert lhs.exp == rhs.exp
    # distributivity
    left = x * (y + z)
    right = (x * y) + (x * z)
    assert left.exp == right.exp


def test_coords_round_trip(f16, f9):
    for f in (f16, f9):
        for e in range(f.group_order):
            elt = f.element(e)
            assert f.from_coords(elt.coords).exp == e


def _times_x(digits, poly, q):
    """x * a(x) mod the monic poly(x), both digit lists with the constant first."""
    top = digits[-1]
    return [(d - top * c) % q for d, c in zip([0] + digits[:-1], poly)]


TABLE_CASES = [
    *(pytest.param(q, n, poly, id=f"F{q}^{n}") for (q, n), poly in DEFAULT_POLYS.items()),
    pytest.param(2, 6, "x^6+x^5+1", id="F2^6-x^6+x^5+1"),
    pytest.param(3, 5, "x^5+2x+1", id="F3^5-x^5+2x+1"),
    pytest.param(3, 6, "x^6+x^5+2", id="F3^6-x^6+x^5+2"),
    pytest.param(5, 3, "x^3+x^2+2", id="F5^3-x^3+x^2+2"),
]


@pytest.mark.parametrize("q,n,poly", TABLE_CASES)
def test_antilog_steps_multiply_by_x(q, n, poly):
    """antilog[e + 1] is x * antilog[e] mod p, by digit-list arithmetic."""
    field = make_field(q, n, poly)
    digits, expected = [1] + [0] * (n - 1), []
    for _ in range(field.group_order):
        expected.append(int("".join(map(str, reversed(digits))), q))
        digits = _times_x(digits, field.poly, q)
    assert field.antilog == expected
    assert digits == [1] + [0] * (n - 1)
