"""The perp-mask orthogonal complement against the elimination oracle it replaced."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import from_bits, make_field, orthogonal_complement, span
from orbitcodes.gfext import PERP_TABLE_MAX_ORDER
from orbitcodes.orbits import cyclic_orbit_data
from orbitcodes.subspace import (
    complement_bits,
    min_member,
    orbit_complements,
    rotate_bits,
    stabilizer,
)
from tests.complement_oracle import oracle_complement_bits
from tests.test_selfdual_search import EXTENDED_FIELDS, FIELDS as SELFDUAL_FIELDS

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
        V = random_subspace(field, rng.randint(1, 9), rng)
        assert_matches_oracle(field, min_member(field, V.bits)[0], V.dim)


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


def assert_orbit_complements_match(field, bits, dim, oracle=False):
    """orbit_complements gives complement_bits of every member, in order."""
    N = field.group_order
    _, D = stabilizer(field, bits)
    members = [rotate_bits(bits, j, N) for j in range(D)]
    got = orbit_complements(field, bits, dim, D)
    assert got == [complement_bits(field, b, dim) for b in members]
    if oracle:
        assert got == [oracle_complement_bits(field, b, dim) for b in members]
    return D


def orbit_reps(field):
    """(rep bits, k) of every cyclic orbit, k = 0 and k = n included."""
    return [(rec.rep_bits, k) for k in range(field.n + 1) for rec in cyclic_orbit_data(field, k)]


# fields small enough for the elimination oracle on every member
ORACLE_MAX_ORDER = 64


@pytest.mark.parametrize("name", list(SELFDUAL_FIELDS))
def test_orbit_complements_match_complement_bits(name):
    field = make_field(*SELFDUAL_FIELDS[name])
    for bits, k in orbit_reps(field):
        assert_orbit_complements_match(field, bits, k, oracle=field.order <= ORACLE_MAX_ORDER)


def test_orbit_complement_fields_reach_every_kind_of_orbit():
    """The fields above hold q = 2, 3, 5, 7 and orbits shorter than q^n - 1."""
    fields = [make_field(*spec) for spec in SELFDUAL_FIELDS.values()]
    assert {f.q for f in fields} == {2, 3, 5, 7}
    short = [(f, k) for f in fields for bits, k in orbit_reps(f)
             if 0 < k < f.n and stabilizer(f, bits)[1] < f.group_order]
    assert {f.q for f, _ in short} == {2, 3, 5, 7}


def test_orbit_complements_above_table_cap():
    """A sample of orbits of F_3^8 (x^8 + x^3 + 2): masks on demand, no table."""
    field = make_field(3, 8, (2, 0, 0, 1, 0, 0, 0, 0, 1))
    N = field.group_order
    assert field.order > PERP_TABLE_MAX_ORDER
    rng = random.Random(38)
    samples = [(0, 0), ((1 << N) - 1, 8)]
    # the subfields F_9 and F_81, whose orbits are shorter than q^n - 1
    for t in (2, 4):
        samples.append((span(field, range(0, N, N // (3 ** t - 1))).bits, t))
    for k in (1, 3, 6, 7):
        samples.append((random_subspace(field, k, rng).bits, k))
    lengths = [assert_orbit_complements_match(field, bits, k) for bits, k in samples]
    assert lengths[2:4] == [82 * 10, 82]
    assert field.perp_masks is None


@pytest.mark.extended
@pytest.mark.parametrize("name", list(EXTENDED_FIELDS))
def test_orbit_complements_match_complement_bits_extended(name):
    field = make_field(*EXTENDED_FIELDS[name])
    for bits, k in orbit_reps(field):
        assert_orbit_complements_match(field, bits, k)
