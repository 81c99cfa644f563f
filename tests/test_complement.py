"""The perp-mask orthogonal complement against the elimination oracle it replaced."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import from_bits, make_field, orthogonal_complement, span
from orbitcodes.gfext import PERP_TABLE_MAX_ORDER
from orbitcodes.orbits import cyclic_orbit_data
from orbitcodes.subspace import canonical_rotation, complement_bits, rotate_bits
from tests.complement_oracle import oracle_complement_bits

# x^8 + x^6 + x^5 + x^4 + 1, a primitive polynomial other than the default
F256_OTHER_POLY = (1, 0, 0, 0, 1, 1, 1, 0, 1)


def assert_matches_oracle(field, bits, dim):
    expected = oracle_complement_bits(field, bits, dim)
    assert complement_bits(field, bits, dim) == expected
    assert orthogonal_complement(from_bits(field, bits)).bits == expected


def every_subspace(field):
    """(bits, dim) of every subspace, as all members of every cyclic orbit."""
    N = field.group_order
    yield 0, 0
    yield (1 << N) - 1, field.n
    for k in range(1, field.n):
        for rec in cyclic_orbit_data(field, k):
            cur = rec.rep_bits
            for _ in range(rec.length):
                yield cur, k
                cur = rotate_bits(cur, 1, N)


def random_subspace(field, k, rng):
    while True:
        V = span(field, rng.sample(range(field.group_order), k))
        if V.dim == k:
            return V


@pytest.mark.parametrize("q,n,count", [
    (2, 4, 67), (2, 5, 374), (2, 6, 2825), (3, 3, 28), (5, 2, 8)])
def test_every_subspace_matches_oracle(q, n, count):
    field = make_field(q, n)
    seen = 0
    for bits, dim in every_subspace(field):
        assert_matches_oracle(field, bits, dim)
        seen += 1
    assert seen == count


@pytest.mark.parametrize("poly", [None, F256_OTHER_POLY])
def test_f256_orbit_reps_match_oracle(poly):
    field = make_field(2, 8, poly)
    for k in range(1, 8):
        for rec in cyclic_orbit_data(field, k):
            assert_matches_oracle(field, rec.rep_bits, k)


def test_f1024_sampled_reps_match_oracle():
    field = make_field(2, 10)
    rng = random.Random(10)
    for _ in range(300):
        rep, _ = canonical_rotation(random_subspace(field, rng.randint(1, 9), rng))
        assert_matches_oracle(field, rep.bits, rep.dim)


def test_above_table_cap_matches_oracle():
    field = make_field(2, 13)
    assert field.order > PERP_TABLE_MAX_ORDER
    rng = random.Random(13)
    for k in (1, 2, 6, 7, 11, 12):
        V = random_subspace(field, k, rng)
        assert_matches_oracle(field, V.bits, k)
    # masks were rotated on demand, not tabled
    assert field.perp_masks is None


FIELDS = [make_field(2, 5), make_field(2, 8), make_field(3, 3), make_field(5, 2),
          make_field(2, 13)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_complement_is_an_involution(data):
    field = data.draw(st.sampled_from(FIELDS))
    exps = data.draw(st.lists(st.integers(0, field.group_order - 1),
                              min_size=1, max_size=field.n + 1))
    V = span(field, exps)
    C = orthogonal_complement(V)
    assert V.dim + C.dim == field.n
    assert orthogonal_complement(C).bits == V.bits
