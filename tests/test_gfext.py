"""Field construction, log/antilog tables, and arithmetic on packed vectors."""

import re

import pytest
from hypothesis import given, strategies as st

from orbitcodes import make_field, default_poly, parse_poly
from orbitcodes.errors import ParseError
from orbitcodes.gfext import DEFAULT_POLYS, poly_str
from tests.conftest import refused


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
    assert parse_poly("x^6+x^5-1", 3) == (2, 0, 0, 0, 0, 1, 1)     # a "-" negates its term
    assert poly_str((1, 1, 0, 0, 1)) == "x^4+x+1"


@st.composite
def term_strings(draw):
    """(q, terms c x^e joined by random signs and spaces, their coefficient tuple mod q)."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    terms = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 20), st.integers(0, 9)),
                          min_size=1, max_size=6))
    coeffs = [0] * (max(e for _, _, e in terms) + 1)
    text = ""
    for i, (minus, c, e) in enumerate(terms):
        coeffs[e] += -c if minus else c
        if not e:
            body = str(c)
        elif c == 1 and draw(st.booleans()):
            body = "x" if e == 1 else f"x^{e}"
        else:
            body = str(c) + draw(st.sampled_from(["", "*"])) + ("x" if e == 1 else f"x^{e}")
        space = draw(st.sampled_from(["", " "]))
        text += ("-" if minus else "+" if i else "") + space + body + space
    return q, text, tuple(c % q for c in coeffs)


@given(term_strings())
def test_parse_poly_of_signed_terms(case):
    q, text, expected = case
    assert parse_poly(text, q) == expected


@pytest.mark.parametrize("text", ["x^2 - - x", "x-", "-", "x^2+-", "x^4 + x - ",
                                  "x^4+x+1+", "x^4++x+1", "+"])
def test_parse_poly_refuses_a_sign_with_no_term_after_it(text):
    with pytest.raises(ParseError, match="a sign with no term after it"):
        parse_poly(text, 3)


@pytest.mark.parametrize("text, term", [("x^^4+x+1", "x^^4"), ("2**x+1", "2**x"),
                                        ("x4+x+1", "x4"), ("x^+1", "x^"), ("*x+1", "*x"),
                                        ("x^4+x y+1", "x y"), ("2 3x+1", "2 3x")])
def test_parse_poly_refuses_a_malformed_term(text, term):
    with pytest.raises(ParseError, match=f"malformed term {re.escape(repr(term))}"):
        parse_poly(text, 2)


def test_parse_poly_refuses_an_empty_polynomial():
    for text in ["", "  "]:
        with pytest.raises(ParseError, match="no terms"):
            parse_poly(text, 2)


def test_parse_poly_allows_spaces_within_a_term():
    assert parse_poly(" 2 * x ^ 3 + x^ 2 + 1 ", 3) == (1, 0, 1, 2)
    assert parse_poly("+x^4+x+1", 2) == (1, 1, 0, 0, 1)


def test_invalid_fields_rejected():
    with refused("q=4 is not prime"):
        make_field(4, 2, (1, 1, 1))
    with refused(r"x\^4\+x\^3\+x\^2\+x\+1 is not primitive over F_2 \(x has order 5\)"):
        make_field(2, 4, (1, 1, 1, 1, 1))
    with refused("polynomial has degree 2, expected 4"):
        make_field(2, 4, (1, 1, 1))
    with refused("no built-in primitive polynomial for q=11, n=3"):
        make_field(11, 3)
    with refused(r"q\^25-1 exceeds limit 16777216"):
        make_field(2, 25)               # 2^25 - 1 is past the 2^24 cap


def test_log_antilog_inverse_tables(f16):
    for e in range(f16.group_order):
        assert f16.log[f16.antilog[e]] == e


def mul(f, a, b):
    """The product of two packed vectors, by adding their logs."""
    return a and b and f.antilog[(f.log[a] + f.log[b]) % f.group_order]


def test_element_arithmetic_f16(f16):
    g = f16.antilog.__getitem__
    # gamma^0 + gamma^1 = gamma^4 for x^4 + x + 1
    assert f16.log[f16.coord_add(g(0), g(1))] == 4
    assert mul(f16, g(3), g(5)) == g(8)
    assert mul(f16, g(14), g(1)) == g(0) == 1
    assert f16.coord_add(g(7), g(7)) == 0
    assert mul(f16, g(6), g(9)) == 1
    assert mul(f16, 0, g(6)) == mul(f16, g(6), 0) == 0


def test_addition_matches_coordinate_xor(f16):
    for a in range(15):
        for b in range(15):
            s = f16.coord_add(f16.antilog[a], f16.antilog[b])
            assert s == f16.antilog[a] ^ f16.antilog[b]


def test_nonbinary_field_arithmetic(f9):
    # F_9: every nonzero element has an inverse, gamma^(8 - e)
    for e in range(8):
        x = f9.antilog[e]
        assert mul(f9, x, f9.antilog[-e % 8]) == 1
    # characteristic 3: x + x + x = 0, and x + x is 2x
    x = f9.antilog[1]
    assert f9.coord_add(x, x) == f9.coord_scale(x, 2)
    assert f9.coord_add(f9.coord_add(x, x), x) == 0


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_field_axioms_f16(x, y, z):
    f = make_field(2, 4)
    add = f.coord_add
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(f, x, add(y, z)) == add(mul(f, x, y), mul(f, x, z))


def test_coords_round_trip(f16, f9):
    for f in (f16, f9):
        for e in range(f.group_order):
            coords = f.unpack_coords(f.antilog[e])
            assert len(coords) == f.n and all(0 <= c < f.q for c in coords)
            assert f.log[f.pack_coords(coords)] == e


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


@pytest.mark.parametrize("q,n,poly", TABLE_CASES)
def test_zech_logarithm_adds_one(q, n, poly):
    """antilog[zech[i]] is gamma^i + 1 by digit-list arithmetic; -1 marks a zero sum."""
    field = make_field(q, n, poly)
    for i, z in enumerate(field.zech):
        digits = list(field.unpack_coords(field.antilog[i]))
        digits[0] = (digits[0] + 1) % q
        total = int("".join(map(str, reversed(digits))), q)
        assert z == -1 if total == 0 else field.antilog[z] == total


def test_exp_bits_holds_only_the_vectors_looked_up():
    """exp_bits[v] is 1 << log[v], made on first lookup; over F_2^16 a full
    table would hold about 270 MB of ints."""
    field = make_field(2, 16)
    table = field.exp_bits
    assert table is field.exp_bits and len(table) == 0
    for e in (0, 1, 7, field.group_order - 1):
        assert table[field.antilog[e]] == 1 << e
    assert len(table) == 4
