"""self_dual_search against the per-modulus search it replaced, hit for hit."""

from array import array
from bisect import bisect_right

import pytest

from orbitcodes import codes, construct, from_bits, make_field, self_dual_search
from orbitcodes.construct import _complement_pairs, _components_at, _OrbitTable
from orbitcodes.errors import VerificationFailed
from orbitcodes.gfext import is_prime
from orbitcodes.orbits import cyclic_orbit_data
from orbitcodes.subspace import divisors, orbit_bits
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


def assert_same_hits(field, include_trivial):
    expected = oracle.self_dual_search(field, include_trivial=include_trivial)
    got = self_dual_search(field, include_trivial=include_trivial)
    assert len(got) == len(expected)
    for position, (h, ref) in enumerate(zip(got, expected)):
        assert summary(h) == summary(ref), f"hit {position} differs"
    return got


def assert_same_pairs(field):
    """perp_id covers every member, is an involution, and pairs as the oracle does."""
    perp_id = _complement_pairs(field, _OrbitTable(field))
    left, right = oracle.complement_pairs(field)
    members = range(len(perp_id))
    assert set(left) | set(right) == set(members)
    assert [perp_id[c] for c in perp_id] == list(members)
    expected = {frozenset(pair) for pair in zip(left, right)}
    assert len(expected) == len(left)       # the oracle lists each pair once
    assert {frozenset(pair) for pair in enumerate(perp_id)} == expected


@pytest.mark.parametrize("name", list(FIELDS))
def test_complement_pairs_matches_oracle(name):
    assert_same_pairs(make_field(*FIELDS[name]))


@pytest.mark.extended
@pytest.mark.parametrize("name", list(EXTENDED_FIELDS))
def test_complement_pairs_matches_oracle_extended(name):
    assert_same_pairs(make_field(*EXTENDED_FIELDS[name]))


def assert_same_levels(field):
    """At every maximal modulus, the components and their read-outs match the oracle's."""
    orbits = _OrbitTable(field)
    orbits.perp_id = _complement_pairs(field, orbits)
    N = field.group_order
    proper = divisors(N)[:-1]
    for M in (N // p for p in divisors(N) if is_prime(p)):
        level, groups = _components_at(M, orbits)
        ref, ref_groups = oracle.components_at(M, orbits.lengths, orbits.perp_id)
        assert list(map(list, groups)) == list(map(list, ref_groups)), f"M={M}"
        assert list(level.root) == ref.parent
        assert list(map(level.node, range(len(orbits.perp_id)))) == list(ref.node_of)
        for nodes in groups:
            moduli, orbit_count = level.read_out(nodes, proper)
            ref_moduli, ref_count = oracle.read_out(ref, nodes, proper)
            assert level.sizes[nodes[0]] == ref.sizes[nodes[0]]
            assert (moduli[0], moduli, orbit_count) == (ref_moduli[0], ref_moduli, ref_count)


@pytest.mark.parametrize("name", list(FIELDS))
def test_levels_match_oracle(name):
    assert_same_levels(make_field(*FIELDS[name]))


@pytest.mark.extended
@pytest.mark.parametrize("name", list(EXTENDED_FIELDS))
def test_levels_match_oracle_extended(name):
    assert_same_levels(make_field(*EXTENDED_FIELDS[name]))


@pytest.mark.parametrize("name", list(FIELDS))
def test_orbit_index_finds_every_member_as_orbit_bits_lists_it(name):
    """Member j of orbit oid is orbit_bits' j-th rotation, its id is start[oid] + j,
    and shifted moves it to member (j + m) mod D."""
    field = make_field(*FIELDS[name])
    orbits = _OrbitTable(field)
    member_ids = orbits.member_finder()
    reps = [rec.rep_bits for k in range(field.n + 1) for rec in cyclic_orbit_data(field, k)]
    assert len(reps) == len(orbits.lengths)
    for oid, rep in enumerate(reps):
        ids = range(orbits.start[oid], orbits.start[oid + 1])
        members = orbit_bits(field, rep)
        assert list(orbits.words(ids)) == members
        assert list(member_ids(members)) == list(ids)
        for m in (1, len(ids) + 2):
            # gamma^m moves member j to member (j + m) mod D
            assert list(orbits.shifted(ids, m)) == [ids[(j + m) % len(ids)]
                                                     for j in range(len(ids))]


@pytest.mark.parametrize("include_trivial", [False, True], ids=["minimal", "with-trivial"])
@pytest.mark.parametrize("name", list(FIELDS))
def test_self_dual_search_matches_oracle(name, include_trivial):
    assert_same_hits(make_field(*FIELDS[name]), include_trivial)


@pytest.mark.extended
@pytest.mark.parametrize("name", list(EXTENDED_FIELDS))
def test_self_dual_search_matches_oracle_extended(name):
    assert_same_hits(make_field(*EXTENDED_FIELDS[name]), include_trivial=False)


def test_differential_cases_reach_every_rule():
    """The cases above include hits that only the less common paths produce."""
    # found at both maximal moduli 24 and 16 of 48: one shared component
    assert any({16, 24} <= set(h.moduli) for h in self_dual_search(make_field(7, 2)))
    # smallest modulus 6, a non-maximal divisor of 24, found by the closure test
    assert any(h.m == 6 for h in self_dual_search(make_field(5, 2)))
    # minimal only at the second maximal modulus 9 of 63
    assert any(h.moduli == (9,) for h in self_dual_search(make_field(*FIELDS["F2^6-other"])))


@pytest.mark.parametrize("name", ["F2^6", "F3^4"])
def test_lazy_code_holds_the_hit_words(name):
    """hit.code, built on first access, is the code of the hit's bitsets."""
    field = make_field(*FIELDS[name])
    for hit in self_dual_search(field):
        assert list(hit.words) == sorted(hit.words)
        code = hit.code
        assert code.words == {from_bits(field, b) for b in hit.words}
        assert (code.size, code.dims) == (hit.size, hit.dims)
        assert code.constant_dimension == hit.constant_dimension
        assert hit.code is code


# -- the checks inside the search still fire ------------------------------------


def corrupt_first_component(monkeypatch, change):
    """Make the search see the first component's member ids through change."""
    components = construct._minimal_components

    def corrupted(field, orbits, include_trivial):
        found = components(field, orbits, include_trivial)
        *head, members = found[0]
        found[0] = (*head, change(orbits, members))
        return found

    monkeypatch.setattr(construct, "_minimal_components", corrupted)


def drop_last(orbits, members):
    return members[:-1]


def orbit_neighbour_of_first(orbits, members):
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
    corrupt_first_component(monkeypatch, change)
    with pytest.raises(VerificationFailed, match="not self-dual|not quasi-cyclic"):
        self_dual_search(make_field(*FIELDS[name]))


@pytest.mark.parametrize("name", ["F2^6", "F3^3"])
def test_an_off_by_one_orbit_index_is_refused(monkeypatch, name):
    finder = _OrbitTable.member_finder

    def off_by_one(orbits):
        member_ids = finder(orbits)
        total = orbits.start[-1]
        return lambda words: array("i", [(i + 1) % total for i in member_ids(words)])

    monkeypatch.setattr(_OrbitTable, "member_finder", off_by_one)
    with pytest.raises(VerificationFailed, match="names another word"):
        self_dual_search(make_field(*FIELDS[name]))


@pytest.mark.parametrize("name", ["F2^6", "F3^3"])
def test_each_hit_is_checked_once(monkeypatch, name):
    """is_self_dual and is_quasi_cyclic run exactly once per hit, on the hit."""
    calls = {"is_self_dual": [], "is_quasi_cyclic": []}

    def counted(module, fn_name):
        fn = getattr(module, fn_name)

        def count(C, *args):
            calls[fn_name].append(C)
            return fn(C, *args)
        monkeypatch.setattr(module, fn_name, count)

    counted(construct, "is_self_dual")
    counted(codes, "is_quasi_cyclic")
    hits = self_dual_search(make_field(*FIELDS[name]))
    assert hits
    for checked in calls.values():
        assert sorted(map(id, checked)) == sorted(map(id, hits))
