"""self_dual_search against the per-modulus search it replaced, hit for hit."""

from array import array
from bisect import bisect_right
from itertools import accumulate, chain, repeat
from operator import lt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import construct, from_bits, make_field, self_dual_search
from orbitcodes.construct import (
    _complement_pairs,
    _Level,
    _level_roots,
    _OrbitTable,
    _union_find,
)
from orbitcodes.errors import ResourceLimit, VerificationFailed
from orbitcodes.gfext import is_prime
from orbitcodes.orbits import cyclic_orbit_data
from orbitcodes.subspace import divisors, min_member, orbit_bits, rotate_bits
from tests import selfdual_oracle as oracle

# (q, n, poly): poly None takes the default; others are primitive, constant term first
FIELDS = {
    **{f"F2^{n}": (2, n, None) for n in range(1, 8)},
    "F2^6-other": (2, 6, (1, 0, 0, 0, 0, 1, 1)),    # x^6 + x^5 + 1
    **{f"F3^{n}": (3, n, None) for n in range(1, 5)},
    "F3^5": (3, 5, (1, 2, 0, 0, 0, 1)),             # x^5 + 2x + 1
    "F5^2": (5, 2, None),
    "F5^3": (5, 3, (2, 0, 1, 1)),                   # x^3 + x^2 + 2
    "F7^2": (7, 2, None),
}
# the oracle takes tens of seconds on each of these
EXTENDED_FIELDS = {
    "F2^8": (2, 8, None),
    "F3^6-other": (3, 6, (2, 0, 0, 0, 0, 1, 1)),    # x^6 + x^5 + 2
}


def summary(hit):
    return (hit.m, hit.moduli, sorted(hit.words), hit.dims, hit.size,
            hit.constant_dimension, hit.orbit_count)


def assert_same_hits(field):
    expected = oracle.self_dual_search(field)
    got = self_dual_search(field)
    assert len(got) == len(expected)
    for position, (h, ref) in enumerate(zip(got, expected)):
        assert summary(h) == summary(ref), f"hit {position} differs"
    return got


def assert_same_pairs(field):
    """perp_id covers every member, is an involution, and pairs the words as the oracle does."""
    orbits = _OrbitTable(field)
    perp_id = _complement_pairs(field, orbits)
    left, right = oracle.complement_pairs(field)
    members = range(len(perp_id))
    words = list(orbits.words(members))
    assert len(set(words)) == len(words)    # each subspace is one member
    assert set(left) | set(right) == set(words)
    assert [perp_id[c] for c in perp_id] == list(members)
    expected = {frozenset(pair) for pair in zip(left, right)}
    assert len(expected) == len(left)       # the oracle lists each pair once
    assert {frozenset((words[i], words[c])) for i, c in enumerate(perp_id)} == expected


@pytest.mark.parametrize("name", list(FIELDS))
def test_complement_pairs_matches_oracle(name):
    assert_same_pairs(make_field(*FIELDS[name]))


@pytest.mark.extended
@pytest.mark.parametrize("name", list(EXTENDED_FIELDS))
def test_complement_pairs_matches_oracle_extended(name):
    assert_same_pairs(make_field(*EXTENDED_FIELDS[name]))


def assert_same_level(M, orbits, perp_id, proper):
    """The level of modulus M matches the oracle's: components, roots, nodes and read-outs.

    orbits is an _OrbitTable, or anything with its dims, lengths, start and
    orbit_of, and perp_id the complement map over its member ids.
    """
    level = _Level(M, orbits, _level_roots(orbits, perp_id, [M])[0])
    ref, ref_groups = oracle.components_at(M, orbits.lengths, perp_id)
    components = list(level.components())
    assert [list(nodes) for _, nodes in components] == list(map(list, ref_groups)), f"M={M}"
    # each root is its component's smallest member, the first member of its smallest node
    assert list(map(level.node, level.root)) == ref.parent
    assert list(map(level.node, range(len(perp_id)))) == list(ref.node_of)
    for root, nodes in components:
        assert root == next(level.members(nodes[:1])) == min(level.members(nodes))
        assert level.sizes[root] == ref.sizes[nodes[0]]
        moduli, orbit_count = level.read_out(nodes, proper)
        ref_moduli, ref_count = oracle.read_out(ref, nodes, proper)
        assert (moduli[0], moduli, orbit_count) == (ref_moduli[0], ref_moduli, ref_count)


def assert_same_levels(field):
    """At every maximal modulus, the components and their read-outs match the oracle's."""
    orbits = _OrbitTable(field)
    perp_id = _complement_pairs(field, orbits)
    N = field.group_order
    for p in filter(is_prime, divisors(N)):
        assert_same_level(N // p, orbits, perp_id, divisors(N)[:-1])


@pytest.mark.parametrize("name", list(FIELDS))
def test_levels_match_oracle(name):
    assert_same_levels(make_field(*FIELDS[name]))


@pytest.mark.extended
@pytest.mark.parametrize("name", list(EXTENDED_FIELDS))
def test_levels_match_oracle_extended(name):
    assert_same_levels(make_field(*EXTENDED_FIELDS[name]))


# -- the union-find and the levels on random pairings -----------------------------


@st.composite
def node_pairs(draw):
    """(count, pairs of nodes below count), self-loops and repeated pairs included."""
    count = draw(st.integers(1, 60))
    node = st.integers(0, count - 1)
    return count, draw(st.lists(st.tuples(node, node), max_size=90))


@settings(max_examples=200, deadline=None)
@given(node_pairs())
def test_union_find_matches_path_halving(case):
    """Rem's algorithm finds the components path halving found, each root the smallest node."""
    count, pairs = case
    parent = array("i", range(count))
    _union_find(parent, [a for a, _ in pairs], [b for _, b in pairs])
    for x, r in enumerate(parent):
        assert r <= x
        parent[x] = parent[r]
    assert list(parent) == oracle.path_halving_roots(count, pairs)


@st.composite
def pairings(draw):
    """(N, an _OrbitTable stand-in of cyclic orbits of sizes dividing N, their pairing).

    As in P_q(n), the orbits come in three dimensions 0, 1 and n = 2:
    each member of dimension 0 is paired with one of dimension 2, whose
    orbits have the same sizes, and the members of the middle dimension 1
    are paired among themselves, some with themselves.
    """
    N = draw(st.sampled_from([4, 6, 12, 15, 16, 30, 36, 63]))
    size = st.sampled_from(divisors(N))
    low = draw(st.lists(size, min_size=1, max_size=4))
    middle = draw(st.lists(size, max_size=5))
    high = draw(st.permutations(low))
    sizes = low + middle + high
    start = [0, *accumulate(sizes)]
    lo, hi = sum(low), sum(low) + sum(middle)
    perp = list(range(start[-1]))
    for a, b in zip(range(lo), draw(st.permutations(range(hi, start[-1])))):
        perp[a], perp[b] = b, a
    order = draw(st.permutations(range(lo, hi)))
    unpaired = order[draw(st.integers(0, len(order))):]
    for a, b in zip(unpaired[::2], unpaired[1::2]):
        perp[a], perp[b] = b, a
    orbits = SimpleNamespace(
        dims=[0] * len(low) + [1] * len(middle) + [2] * len(high), lengths=sizes, start=start,
        orbit_of=array("i", chain.from_iterable(map(repeat, range(len(sizes)), sizes))))
    return N, orbits, array("i", perp)


@settings(max_examples=150, deadline=None)
@given(pairings())
def test_levels_match_oracle_on_random_pairings(case):
    """Every maximal modulus: the oracle's components, roots, nodes, sizes and read-outs."""
    N, orbits, perp_id = case
    for p in filter(is_prime, divisors(N)):
        assert_same_level(N // p, orbits, perp_id, divisors(N)[:-1])


def test_f2_8_level_structure_is_pinned():
    """P_2(8): the complement pairs, each maximal modulus's components and nodes, the hits' m.

    A union-find that merges or splits components fails here, naming the
    modulus, where the pinned selfdual stdout would only change its sha256.
    """
    field = make_field(2, 8)
    orbits = _OrbitTable(field)
    perp_id = _complement_pairs(field, orbits)
    assert sum(map(lt, range(len(perp_id)), perp_id)) == 208_532
    pinned = [(85, 3195, 139_419), (51, 5, 83_455), (15, 5, 24_543)]
    roots = _level_roots(orbits, perp_id, [M for M, _, _ in pinned])
    for (M, components, nodes), root in zip(pinned, roots):
        level = _Level(M, orbits, root)
        assert (len(level.sizes), len(level.root)) == (components, nodes), f"M={M}"
    found = construct._minimal_components(field, orbits, perp_id)
    assert len(found) == 3194
    assert {hit.m for hit in found} == {85}


@pytest.mark.parametrize("name", list(FIELDS))
def test_orbit_index_finds_every_member_as_orbit_bits_lists_it(name):
    """Member j of orbit oid is orbit_bits' j-th rotation of its representative,
    the census's up to n/2, and the orbit index finds it as start[oid] + j."""
    field = make_field(*FIELDS[name])
    orbits = _OrbitTable(field)
    finders = [orbits.member_finder(k) for k in range(field.n + 1)]
    mask = (1 << field.group_order) - 1
    reps = [doubled & mask for doubled in orbits.doubled]
    census = [rec.rep_bits for k in range(field.n // 2 + 1) for rec in cyclic_orbit_data(field, k)]
    assert reps[:len(census)] == census
    for oid, (rep, k) in enumerate(zip(reps, orbits.dims)):
        ids = range(orbits.start[oid], orbits.start[oid + 1])
        members = orbit_bits(field, rep)
        assert list(orbits.words(ids)) == members
        assert list(finders[k](members)) == list(ids)


@pytest.mark.parametrize("name", list(FIELDS))
def test_complement_pairs_indexes_each_upper_dimension_once(monkeypatch, name):
    """The pairing asks for the index of each dimension n, n - 1, ..., down to
    the middle once, in that order, and never for one below n/2."""
    finder, asked = _OrbitTable.member_finder, []

    def counted(orbits, dim):
        asked.append(dim)
        return finder(orbits, dim)

    monkeypatch.setattr(_OrbitTable, "member_finder", counted)
    field = make_field(*FIELDS[name])
    _complement_pairs(field, _OrbitTable(field))
    assert asked == list(range(field.n, (field.n + 1) // 2 - 1, -1))


@pytest.mark.parametrize("name", list(FIELDS))
def test_complement_pairs_looks_up_each_pair_once_across_orbits(monkeypatch, name):
    """Every member below n/2 is looked up, none above it, and one of the
    middle dimension only when its partner's orbit came after its own: each
    complement pair {i, perp_id[i]} is looked up once, self-perpendicular
    members included, but for a pair within one middle orbit, whose ends
    are both unknown when that orbit is filled, so each is looked up."""
    finder, looked_up = _OrbitTable.member_finder, []

    def counted(orbits, dim):
        member_ids = finder(orbits, dim)

        def counting(words):
            looked_up.extend((dim, word) for word in words)
            return member_ids(words)

        return counting

    monkeypatch.setattr(_OrbitTable, "member_finder", counted)
    field = make_field(*FIELDS[name])
    orbits = _OrbitTable(field)
    perp_id = _complement_pairs(field, orbits)
    pairs = {frozenset((i, c)) for i, c in enumerate(perp_id)}
    within = sum(len(p) == 2 and len(set(map(orbits.orbit_of.__getitem__, p))) == 1
                 for p in pairs)
    # every word looked up is a complement of dimension n/2 or more
    assert all(2 * dim >= field.n for dim, _ in looked_up)
    assert len(set(looked_up)) == len(looked_up)
    assert len(looked_up) == len(pairs) + within


def test_an_orbit_map_of_more_than_16_bits_is_refused(monkeypatch):
    """A table of 65,536 orbits or more would overflow the array('H') orbit map."""
    census = construct.cyclic_orbit_data

    def swollen(field, k):
        records = census(field, k)
        return records * (0x10000 // len(records) + 1) if k == 1 else records

    monkeypatch.setattr(construct, "cyclic_orbit_data", swollen)
    with pytest.raises(ResourceLimit, match=r"^P_2\(2\) has \d+ cyclic orbits; .* 65535$"):
        _OrbitTable(make_field(2, 2))


@pytest.mark.parametrize("name", list(FIELDS))
def test_orbits_above_half_are_the_census_orbits(name):
    """The trace duals of the orbits below n/2 are the census's orbits above it,
    as smallest members and lengths, each with its dimension."""
    field = make_field(*FIELDS[name])
    orbits = _OrbitTable(field)
    mask = (1 << field.group_order) - 1
    assert orbits.dims == sorted(orbits.dims)
    for k in range(field.n // 2 + 1, field.n + 1):
        got = [(min_member(field, doubled & mask), D) for dim, doubled, D
               in zip(orbits.dims, orbits.doubled, orbits.lengths) if dim == k]
        expected = [(rec.rep_bits, rec.length) for rec in cyclic_orbit_data(field, k)]
        assert sorted(got) == sorted(expected), f"k={k}"


@pytest.mark.parametrize("name", list(FIELDS))
def test_rotation_table_matches_the_per_member_formula(name):
    """rotation(m) maps each id to the id of gamma^m times its word, as the formula does."""
    field = make_field(*FIELDS[name])
    orbits = _OrbitTable(field)
    N, ids = field.group_order, range(orbits.start[-1])
    words = list(orbits.words(ids))
    for m in sorted({1, 2, 3, N - 1, max(orbits.lengths) + 2, *divisors(N)}):
        table = orbits.rotation(m)
        assert list(table) == list(oracle.shifted(orbits, ids, m)), f"m={m}"
        assert list(orbits.words(table)) == [rotate_bits(w, m, N) for w in words], f"m={m}"


@pytest.mark.parametrize("name", ["F2^6-other", "F3^4"])
def test_search_builds_one_rotation_table_per_distinct_m(monkeypatch, name):
    """The hits of these fields have two distinct m, each checked on one table."""
    rotation, built = _OrbitTable.rotation, []

    def counted(orbits, m):
        built.append(m)
        return rotation(orbits, m)

    monkeypatch.setattr(_OrbitTable, "rotation", counted)
    hits = self_dual_search(make_field(*FIELDS[name]))
    assert len(built) == 2
    assert sorted(built) == sorted({hit.m for hit in hits})


@pytest.mark.parametrize("name", list(FIELDS), ids=lambda name: f"{name}-minimal")
def test_self_dual_search_matches_oracle(name):
    assert_same_hits(make_field(*FIELDS[name]))


@pytest.mark.extended
@pytest.mark.parametrize("name", list(EXTENDED_FIELDS))
def test_self_dual_search_matches_oracle_extended(name):
    assert_same_hits(make_field(*EXTENDED_FIELDS[name]))


def test_differential_cases_reach_every_rule():
    """The cases above include hits that only the less common paths produce."""
    # found at both maximal moduli 24 and 16 of 48: one shared component
    assert any({16, 24} <= set(h.moduli) for h in self_dual_search(make_field(7, 2)))
    # smallest modulus 6, a non-maximal divisor of 24, found by the closure test
    assert any(h.m == 6 for h in self_dual_search(make_field(5, 2)))
    # minimal only at the second maximal modulus 9 of 63
    assert any(h.moduli == (9,) for h in self_dual_search(make_field(*FIELDS["F2^6-other"])))
    # smallest modulus 10, read at the maximal modulus 40 = 2^2 * 10 of 80: the
    # closure test divides the prime 2 out twice
    assert any(h.moduli == (10, 20, 40) for h in self_dual_search(make_field(3, 4)))


@pytest.mark.parametrize("name", ["F2^6", "F3^4"])
def test_lazy_code_holds_the_hit_words(name):
    """hit.code, built on each read, is the code of the hit's bitsets; hits have no __dict__."""
    field = make_field(*FIELDS[name])
    for hit in self_dual_search(field):
        assert list(hit.words) == sorted(hit.words)
        code = hit.code
        assert code.words == {from_bits(field, b) for b in hit.words}
        assert (code.size, code.dims) == (hit.size, hit.dims)
        assert code.constant_dimension == hit.constant_dimension
        assert hit.params() == code.params()
        assert hit.code is not code and not hasattr(hit, "__dict__")


# -- the checks inside the search still fire ------------------------------------


def corrupt_first_component(monkeypatch, change):
    """Make the search see the first component's member ids through change."""
    components = construct._minimal_components

    def corrupted(field, orbits, perp_id):
        found = components(field, orbits, perp_id)
        found[0].members = change(orbits, perp_id, found[0].members)
        return found

    monkeypatch.setattr(construct, "_minimal_components", corrupted)


def drop_last(orbits, perp_id, members):
    """The last member dropped, while its complement, another member, stays."""
    assert perp_id[members[-1]] != members[-1]
    return members[:-1]


def drop_first_pair(orbits, perp_id, members):
    """The first member and its complement dropped: still self-dual, but the
    first member is the shift of another member by gamma^m."""
    i = members[0]
    return array("i", (j for j in members if j not in (i, perp_id[i])))


def orbit_neighbour_of_first(orbits, perp_id, members):
    """The first member replaced by the next member of its cyclic orbit."""
    i = members[0]
    oid = bisect_right(orbits.start, i) - 1
    start, D = orbits.start[oid], orbits.lengths[oid]
    assert D > 1
    out = array("i", members)
    out[0] = start + (i - start + 1) % D
    return out


@pytest.mark.parametrize("change", [drop_last, orbit_neighbour_of_first],
                         ids=["member-dropped", "orbit-neighbour"])
@pytest.mark.parametrize("name", ["F2^6", "F3^3"])
def test_a_corrupted_hit_is_refused(monkeypatch, name, change):
    """A member missing from a hit, with its complement present, fails the self-dual check."""
    corrupt_first_component(monkeypatch, change)
    with pytest.raises(VerificationFailed, match="not self-dual"):
        self_dual_search(make_field(*FIELDS[name]))


@pytest.mark.parametrize("name", ["F2^4", "F2^6"])
def test_a_dropped_complement_pair_fails_the_quasi_cyclic_check(monkeypatch, name):
    """Over F_3^3 every hit is one complement pair, and dropping it leaves nothing to check."""
    corrupt_first_component(monkeypatch, drop_first_pair)
    with pytest.raises(VerificationFailed, match="not quasi-cyclic"):
        self_dual_search(make_field(*FIELDS[name]))


@pytest.mark.parametrize("name", ["F2^6", "F3^3"])
def test_an_off_by_one_orbit_index_is_refused(monkeypatch, name):
    finder = _OrbitTable.member_finder

    def off_by_one(orbits, dim):
        member_ids = finder(orbits, dim)
        total = orbits.start[-1]
        return lambda words: array("i", [(i + 1) % total for i in member_ids(words)])

    monkeypatch.setattr(_OrbitTable, "member_finder", off_by_one)
    with pytest.raises(VerificationFailed, match="names another word"):
        self_dual_search(make_field(*FIELDS[name]))


@pytest.mark.parametrize("name", ["F2^6", "F3^3"])
def test_a_wrong_complement_on_an_upper_orbit_is_refused(monkeypatch, name):
    """The orbits above n/2 are never looked up, but each entry is still checked
    against the complements of its own words: one upper orbit given its
    complements rotated by one member is refused."""
    complements = construct.orbit_complements
    wrong = []

    def rotated_once(field, bits, dim, D):
        comps = complements(field, bits, dim, D)
        if 2 * dim > field.n and D > 1 and not wrong:
            wrong.append(bits)
            return comps[1:] + comps[:1]
        return comps

    monkeypatch.setattr(construct, "orbit_complements", rotated_once)
    with pytest.raises(VerificationFailed, match="names another word"):
        self_dual_search(make_field(*FIELDS[name]))
    assert wrong
