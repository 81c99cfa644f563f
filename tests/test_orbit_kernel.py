"""The orbit kernels (orbit_bits, stabilizer, min_member, cyclic_overlaps)
against the per-step loops they replaced, and the census against the
visited-set census it replaced."""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import (
    canonical_rotation,
    classify,
    code_from_generators,
    enumerate_orbits,
    from_bits,
    inter_orbit_distance,
    is_quasi_cyclic,
    load_code_file,
    make_field,
    orbit_of,
    shift,
    span,
)
from orbitcodes.codes import _min_distance_orbits
from orbitcodes.errors import BadModulus
from orbitcodes.orbits import _iter_candidates, _process_orbit, cyclic_orbit_data, divisors
from orbitcodes.subspace import (
    check_modulus,
    cyclic_overlaps,
    is_min_member,
    min_member,
    orbit_bits,
    rotate_bits,
    stabilizer,
)
from tests import orbit_oracle as oracle
from tests.conftest import data_path

# primitive polynomials other than the defaults, constant term first
F64_OTHER_POLY = (1, 1, 0, 0, 0, 0, 1)              # x^6 + x + 1
F256_OTHER_POLY = (1, 0, 0, 0, 1, 1, 1, 0, 1)       # x^8 + x^6 + x^5 + x^4 + 1

FIELDS = {
    "F2^6": (2, 6, None), "F2^6-other": (2, 6, F64_OTHER_POLY),
    "F2^8": (2, 8, None), "F2^8-other": (2, 8, F256_OTHER_POLY),
    "F3^3": (3, 3, None), "F3^4": (3, 4, None), "F5^2": (5, 2, None),
}

# fields whose hyperplanes overlap in 255 elements (one-byte lanes, F_2^9)
# or in more (two-byte lanes); each has one cyclic orbit of hyperplanes
WIDE_FIELDS = {
    "F2^9": (2, 9, None), "F2^10": (2, 10, None),
    "F3^7": (3, 7, (1, 0, 0, 0, 0, 2, 0, 1)),       # x^7 + 2x^5 + 1
    "F5^5": (5, 5, (2, 0, 0, 0, 3, 1)),             # x^5 + 3x^4 + 2
}
HYPERPLANE_LANES = {"F2^9": 1, "F2^10": 2, "F3^7": 2, "F5^5": 2}


def field_of(name):
    q, n, poly = FIELDS[name] if name in FIELDS else WIDE_FIELDS[name]
    return make_field(q, n, poly)


def assert_walk_matches(field, k, rec, start, general=False):
    """A cyclic orbit record against the oracle loop walking its orbit from start."""
    rep, D, t, by_class = oracle.process_orbit(field, k, start, set(), general)
    assert (rec.rep_bits, rec.length, rec.stab_degree) == (rep, D, t)
    for g in divisors(D):
        assert rec.min_dist_for_step(g) == oracle.min_dist_for_step(D, by_class, g)


@pytest.mark.parametrize("name, only_k", [
    *(pytest.param(name, None, id=name) for name in FIELDS),
    *(pytest.param(name, WIDE_FIELDS[name][1] - 1, id=f"{name}-k{WIDE_FIELDS[name][1] - 1}")
      for name in WIDE_FIELDS)])
def test_census_walk_matches_oracle(name, only_k):
    """Every cyclic orbit of every G_q(n, k), 0 < k < n, walked from a member
    a few steps past its representative.

    The wide fields walk only their hyperplanes, k = n - 1.
    """
    field = field_of(name)
    N = field.group_order
    # on F_2^6 the oracle's general-q branch must agree on GF(2) too
    also_general = field.q == 2 and field.n == 6
    for k in [only_k] if only_k else range(1, field.n):
        for i, rec in enumerate(cyclic_orbit_data(field, k)):
            start = rotate_bits(rec.rep_bits, i % 5, N)
            assert_walk_matches(field, k, rec, start)
            if also_general:
                assert_walk_matches(field, k, rec, start, general=True)


CENSUS_CASES = [
    *(pytest.param(name, k, id=f"{name}-k{k}")
      for name, (_, n, _) in FIELDS.items() for k in range(1, n)),
    pytest.param("F2^9", 4, id="F2^9-k4"),
    pytest.param("F2^10", 3, id="F2^10-k3"),
]


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("name, k", CENSUS_CASES)
def test_census_matches_visited_set_oracle(name, k):
    """The same records as the visited-set census, in the candidate order of their reps."""
    field = field_of(name)
    index = {bits: i for i, bits in enumerate(_iter_candidates(field, k))}
    expected = sorted(oracle.visited_census(field, k), key=lambda rec: index[rec[0]])
    got = [(rec.rep_bits, rec.length, rec.stab_degree, rec.min_by_step)
           for rec in cyclic_orbit_data(field, k)]
    assert got == expected


CANDIDATE_CASES = [
    *(pytest.param(name, k, id=f"{name}-k{k}")
      for name, (_, n, _) in FIELDS.items() for k in range(n + 2)),
    *(pytest.param(name, k, id=f"{name}-k{k}")
      for name, (_, n, _) in WIDE_FIELDS.items() for k in (0, 1, 2, n - 1, n, n + 1)),
    pytest.param("F2^9", 4, id="F2^9-k4"),
    pytest.param("F2^10", 3, id="F2^10-k3"),
]


@pytest.mark.parametrize("name, k", CANDIDATE_CASES)
def test_candidates_match_rref_oracle(name, k):
    """The same candidates in the same order as one counter over all free
    digits with every span built from scratch.

    The wide fields take only the k whose spans or counts are small.
    """
    field = field_of(name)
    assert list(_iter_candidates(field, k)) == list(oracle.rref_candidates(field, k))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["F2^6", "F3^3", "F5^2", "F2^9"]), st.data())
def test_is_min_member_random_bitsets(name, data):
    """The early-exit test agrees with min_member on any bitset, subspace or not,
    and on bitsets fixed by a rotation, where it stops at the period."""
    field = field_of(name)
    N = field.group_order
    bits = data.draw(st.integers(0, (1 << N) - 1))
    period = data.draw(st.sampled_from(divisors(N)))
    periodic = sum((bits & ((1 << period) - 1)) << j for j in range(0, N, period))
    for b in (bits, bits | 1, periodic, periodic | sum(1 << j for j in range(0, N, period))):
        assert is_min_member(field, b) == (min_member(field, b)[0] == b)


def test_f1024_sampled_walks_match_oracle():
    field = make_field(2, 10)
    rng = random.Random(1024)
    cands = list(_iter_candidates(field, 3))
    sample = rng.sample(cands, 40)
    for bits in sample:
        rec = _process_orbit(field, 3, min_member(field, bits)[0])
        assert_walk_matches(field, 3, rec, bits)
    orbits = [orbit_of(from_bits(field, b), m)
              for b in sample[:8] for m in (1, 3, 11, 33)]
    for V in (from_bits(field, b) for b in sample[:8]):
        for m in divisors(field.group_order):
            assert_orbit_of_matches(V, m)
    for A, B in itertools.combinations(orbits, 2):
        if A.m == B.m and A.rep.bits != B.rep.bits:
            assert inter_orbit_distance(A, B) == oracle.inter_orbit_distance(A, B)


def assert_orbit_of_matches(V, m):
    field, N = V.field, V.field.group_order
    O = orbit_of(V, m)
    assert (O.rep.bits, O.length, O.min_dist, O.stab_degree) == oracle.orbit_of(V, m)
    rep, off = canonical_rotation(V, m)
    assert (rep.bits, off) == oracle.canonical_rotation(V, m)
    assert shift(V, off).bits == rep.bits
    best, s = min_member(field, V.bits, m)
    assert best == min(orbit_bits(field, V.bits, m)) == rep.bits
    assert 0 <= s < N and s % m == 0 and rotate_bits(V.bits, s, N) == best


@pytest.mark.parametrize("name", ["F2^6", "F2^6-other", "F2^8", "F3^3", "F3^4", "F5^2"])
def test_orbit_of_every_modulus_matches_oracle(name):
    """orbit_of, canonical_rotation and min_member on a shifted member of each
    cyclic orbit.

    F_2^8 takes every third orbit, to keep the test short.
    """
    field = field_of(name)
    N = field.group_order
    stride = 3 if field.order == 256 else 1
    for k in range(1, field.n):
        for i, rec in enumerate(cyclic_orbit_data(field, k)[::stride]):
            V = from_bits(field, rotate_bits(rec.rep_bits, 1 + i % 7, N))
            for m in divisors(N):
                assert_orbit_of_matches(V, m)


@pytest.mark.parametrize("m", [1, 3, 7, 9, 21])
def test_inter_orbit_distance_all_pairs_f64(m):
    field = field_of("F2^6")
    orbits = list(enumerate_orbits(field, 3, m))
    pairs = 0
    for A, B in itertools.combinations(orbits, 2):
        assert inter_orbit_distance(A, B) == oracle.inter_orbit_distance(A, B)
        pairs += 1
    assert pairs == len(orbits) * (len(orbits) - 1) // 2 > 0


CODE_FILES = ["cyclic_n5k2", "example1_n10k5", "example2_n10k3", "example3_n8k4",
              "quasi3_n8k4", "selfdual_p2_4_m5", "selfdual_p2_6_m21",
              "selfdual_p2_8_m85", "spread_n6k3"]


@pytest.mark.parametrize("name", CODE_FILES)
def test_min_distance_of_shipped_codes_matches_oracle(name):
    cf = load_code_file(data_path(name + ".json"))
    code = code_from_generators(cf.field, cf.m, cf.generators)
    assert _min_distance_orbits(code) == oracle.min_distance_orbits(code)


@pytest.mark.parametrize("name", ["F2^6", "F2^6-other", "F3^3", "F5^2"])
def test_min_distance_of_random_orbit_codes_matches_oracle(name):
    """Seeded unions of 2-4 orbits, of one or mixed dimensions, every modulus."""
    field = field_of(name)
    reps = [from_bits(field, rec.rep_bits) for k in range(1, field.n)
            for rec in cyclic_orbit_data(field, k)]
    rng = random.Random(field.order)
    for m in divisors(field.group_order):
        for _ in range(12):
            gens = [shift(V, rng.randrange(field.group_order))
                    for V in rng.sample(reps, min(len(reps), rng.randint(2, 4)))]
            code = code_from_generators(field, m, gens)
            if code.size >= 2:
                assert _min_distance_orbits(code) == oracle.min_distance_orbits(code)


def test_orbit_bits_is_the_distinct_rotations():
    """orbit_bits lists the rotations by multiples of m, in order, without repeats."""
    field = field_of("F2^6")
    N = field.group_order
    for rec in cyclic_orbit_data(field, 3):
        for m in divisors(N):
            members = orbit_bits(field, rec.rep_bits, m)
            assert members == oracle.expand_orbit_bits(field, rec.rep_bits, m)
            assert members == [rotate_bits(rec.rep_bits, j * m, N)
                               for j in range(len(members))]
        t, D = stabilizer(field, rec.rep_bits)
        assert (t, D) == (rec.stab_degree, rec.length)


def test_every_modulus_check_raises_one_message():
    field = field_of("F2^6")
    V = from_bits(field, cyclic_orbit_data(field, 2)[0].rep_bits)
    code = code_from_generators(field, 1, [V])
    calls = [lambda m: check_modulus(field, m),
             lambda m: canonical_rotation(V, m),
             lambda m: orbit_of(V, m),
             lambda m: next(enumerate_orbits(field, 2, m)),
             lambda m: classify(field, 2, m),
             lambda m: code_from_generators(field, m, [V]),
             lambda m: is_quasi_cyclic(code, m)]
    for m in (0, 4):
        messages = set()
        for call in calls:
            with pytest.raises(BadModulus) as exc:
                call(m)
            messages.add(str(exc.value))
        assert messages == {f"modulus m={m} does not divide q^n-1 = 63"}


# -- the correlation kernel --------------------------------------------------------


def random_subspace(field, rng):
    return span(field, rng.sample(range(field.group_order), rng.randint(1, field.n - 1)))


@pytest.mark.parametrize("q, n", [(2, n) for n in range(4, 11)] + [(3, 3), (3, 4), (5, 2)],
                         ids=lambda v: str(v))
def test_cyclic_overlaps_match_rotation_loop(q, n):
    """Seeded pairs of subspaces of every dimension, and of raw bitsets."""
    field = make_field(q, n)
    N = field.group_order
    rng = random.Random(N)
    for _ in range(10):
        a, b = random_subspace(field, rng).bits, random_subspace(field, rng).bits
        for x, y in ((a, b), (a, a), (rng.getrandbits(N), rng.getrandbits(N))):
            assert list(cyclic_overlaps(field, x, y)) == oracle.cyclic_overlaps(field, x, y)


@pytest.mark.parametrize("name", list(WIDE_FIELDS))
def test_cyclic_overlaps_lane_width_edges(name):
    """q^k - 1 = 255 still fits one-byte lanes; 511, 728 and 624 need two."""
    field = field_of(name)
    [rec] = cyclic_orbit_data(field, field.n - 1)
    a = rec.rep_bits
    b = rotate_bits(a, 5, field.group_order)
    for x, y in ((a, a), (a, b), (b, a)):
        overlap = cyclic_overlaps(field, x, y)
        assert memoryview(overlap).itemsize == HYPERPLANE_LANES[name]
        assert list(overlap) == oracle.cyclic_overlaps(field, x, y)
    assert max(cyclic_overlaps(field, a, a)) == a.bit_count() > 254


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["F2^6", "F3^3", "F5^2", "F2^9", "F2^10"]), st.data())
def test_cyclic_overlaps_random_pairs(name, data):
    field = field_of(name)
    bitsets = st.integers(0, (1 << field.group_order) - 1)
    a, b = data.draw(bitsets), data.draw(bitsets)
    assert list(cyclic_overlaps(field, a, b)) == oracle.cyclic_overlaps(field, a, b)


@pytest.mark.parametrize("name", list(WIDE_FIELDS))
def test_wide_lane_callers_match_oracle(name):
    """orbit_of for every m | N, inter_orbit_distance and _min_distance_orbits
    on the hyperplanes, whose overlaps fill one-byte or two-byte lanes."""
    field = field_of(name)
    N, k = field.group_order, field.n - 1
    [rec] = cyclic_orbit_data(field, k)
    V = from_bits(field, rotate_bits(rec.rep_bits, 4, N))
    for m in divisors(N):
        assert_orbit_of_matches(V, m)
    rng = random.Random(N)
    # moduli that split the hyperplane orbit, so distinct quasi orbits exist
    for m in [m for m in divisors(N) if gcd(m, rec.length) > 1][:3]:
        orbits = list(enumerate_orbits(field, k, m))
        sample = rng.sample(orbits, min(len(orbits), 5))
        for A, B in itertools.combinations(sample, 2):
            assert inter_orbit_distance(A, B) == oracle.inter_orbit_distance(A, B)
        gens = [shift(V, s) for s in rng.sample(range(N), 3)]
        code = code_from_generators(field, m, gens)
        if code.size >= 2:
            assert _min_distance_orbits(code) == oracle.min_distance_orbits(code)
