"""Orbit enumeration, length laws, censuses, and the orbit database."""

import itertools
import os

import pytest

from orbitcodes import (
    Checkpoint,
    RunBudget,
    classify,
    conjecture_check,
    distance,
    enumerate_orbits,
    from_bits,
    from_exponents,
    make_field,
    orbit_of,
    read_orbit_db,
    span,
    write_orbit_db,
)
from orbitcodes.codes import gaussian_coefficient
from orbitcodes import orbits
from orbitcodes.errors import ResourceLimit
from orbitcodes.orbits import (
    Orbit,
    _iter_candidates,
    candidate_count,
    cyclic_orbit_data,
)
from orbitcodes.subspace import divisors, orbit_bits, stabilizer
from tests.conftest import refused
from tests.orbit_oracle import (
    naive_orbit_length,
    passes_wrap_gap_bound,
    quasi_length_formula,
    rref_candidates,
)


def brute_subspaces(field, k):
    seen = set()
    for combo in itertools.combinations(range(field.group_order), k):
        V = span(field, combo)
        if V.dim == k:
            seen.add(V)
    return seen


# -- candidate enumeration ---------------------------------------------------------


@pytest.mark.parametrize("q,n,k", [(2, 4, 1), (2, 4, 2), (2, 4, 3),
                                   (2, 5, 2), (2, 6, 3), (3, 2, 1)])
def test_candidates_count_and_uniqueness(q, n, k):
    """Subspaces containing gamma^0 are counted by [n-1 k-1]_q, no repeats;
    the walk numbers them all and yields those that pass the bound."""
    f = make_field(q, n)
    assert len(list(rref_candidates(f, k))) == gaussian_coefficient(n - 1, k - 1, q)
    indices, cands = zip(*_iter_candidates(f, k))
    assert list(indices) == sorted(set(indices))
    assert 0 <= indices[0] and indices[-1] < candidate_count(f, k)
    assert len(cands) == len(set(cands))
    for bits in cands:
        assert bits & 1  # contains gamma^0
        assert passes_wrap_gap_bound(f, k, bits)


def test_candidates_cover_brute_force():
    f = make_field(2, 5)
    expected = {V.bits for V in brute_subspaces(f, 2)
                if V.bits & 1 and passes_wrap_gap_bound(f, 2, V.bits)}
    assert {bits for _, bits in _iter_candidates(f, 2)} == expected


# -- orbit length law --------------------------------------------------------------


def test_orbit_length_law_brute_force_all_m():
    """Length = D/gcd(m, D) with D = (q^n-1)/(q^t-1), for every subspace, n <= 6."""
    for n in (4, 5, 6):
        f = make_field(2, n)
        N = f.group_order
        for k in (1, 2):
            for V in brute_subspaces(f, k):
                t, _ = stabilizer(f, V.bits)
                for m in divisors(N):
                    assert naive_orbit_length(V, m) == quasi_length_formula(f, t, m)


def test_uncorrected_length_formula_fails_on_witness():
    """The n=8, m=3 spread orbit: naive (1/m)D is not even an integer."""
    f = make_field(2, 8)
    V = from_exponents(f, range(0, 255, 17))  # subfield F_16, t = 4
    t, _ = stabilizer(f, V.bits)
    assert t == 4
    D = f.group_order // (2 ** t - 1)
    assert D == 17
    assert D % 3 != 0                      # (1/3)*17 is not an integer
    assert naive_orbit_length(V, 3) == 17  # actual length: D / gcd(3, 17)
    assert quasi_length_formula(f, t, 3) == 17


def test_orbit_of_basic(f64):
    V = from_exponents(f64, range(0, 63, 9))  # subfield F_8
    O = orbit_of(V, 1)
    assert (O.length, O.k, O.stab_degree, O.min_dist) == (9, 3, 3, 6)
    members = [from_bits(f64, b) for b in orbit_bits(f64, O.rep.bits, O.m)]
    assert len({W.bits for W in members}) == 9
    # all-pairs oracle for the internal minimum distance
    assert min(distance(a, b) for a, b in itertools.combinations(members, 2)) == 6


def test_orbit_min_dist_matches_all_pairs(f32):
    for V in list(brute_subspaces(f32, 2))[:25]:
        O = orbit_of(V, 1)
        members = [from_bits(f32, b) for b in orbit_bits(f32, O.rep.bits, O.m)]
        if len(members) > 1:
            naive = min(distance(a, b)
                        for a, b in itertools.combinations(members, 2))
            assert O.min_dist == naive


def test_bad_modulus(f16):
    V = from_exponents(f16, [0, 1, 4])
    with refused(r"modulus m=4 does not divide q\^n-1 = 15"):
        orbit_of(V, 4)


def test_enumerate_orbits_partitions_grassmannian(f16):
    for k in range(5):
        for m in (1, 3, 5):
            orbits = list(enumerate_orbits(f16, k, m))
            seen = set()
            for O in orbits:
                ms = set(orbit_bits(f16, O.rep.bits, O.m))
                assert len(ms) == O.length
                assert not (ms & seen)
                seen |= ms
            assert len(seen) == gaussian_coefficient(4, k, 2)


@pytest.mark.parametrize("q, n, ms", [(2, 6, (1, 3, 7, 9, 21, 63)),
                                      (3, 3, (1, 2, 13, 26))])
def test_zero_and_full_space_through_the_candidate_walk(q, n, ms):
    """k = 0 and k = n each have one orbit, of length 1, for every m."""
    field = make_field(q, n)
    full = (1 << field.group_order) - 1
    for k, V in ((0, from_bits(field, 0)), (n, from_bits(field, full))):
        for m in ms:
            assert list(enumerate_orbits(field, k, m)) == [Orbit(field, m, V, 1, k, 0, n)]
            table = classify(field, k, m)
            assert table.counts == {(1, 0): 1}
            assert table.mass == table.expected_mass == 1


def test_quasi_orbits_refine_cyclic_orbits(f64):
    """Each m-quasi orbit lies inside one cyclic orbit, g = gcd(m, D) of them."""
    V = span(f64, [0, 1])
    O1 = orbit_of(V, 1)
    for m in (3, 7, 9, 21):
        Om = orbit_of(V, m)
        assert Om.length == O1.length // __import__("math").gcd(m, O1.length)
        cyclic_members = set(orbit_bits(f64, O1.rep.bits, 1))
        assert set(orbit_bits(f64, Om.rep.bits, m)) <= cyclic_members


# -- censuses -----------------------------------------------------------------------


def test_census_mass_invariant(f64):
    for k in (1, 2, 3):
        t = classify(f64, k, 1)
        assert t.mass == gaussian_coefficient(6, k, 2)


def test_census_n6_k3(f64):
    t = classify(f64, 3, 1)
    assert t.counts == {(63, 2): 14, (63, 4): 8, (9, 6): 1}
    assert t.diffs == []


def test_census_degenerate_split(f256):
    t = classify(f256, 4, 1)
    assert t.counts[(85, 4)] == 4
    assert t.counts[(17, 8)] == 1
    assert t.counts[(255, 2)] == 40
    assert t.counts[(255, 4)] == 746
    assert t.diffs == []


def test_quasi_census_m17_matches_published(f256):
    t = classify(f256, 4, 17)
    assert t.diffs == []
    assert t.by_distance(length=1) == {0: 17}


def test_quasi_census_diff_reports_paper_omissions(f256):
    """m=5, k=4: the paper omits one length-17 spread orbit at d=8."""
    t = classify(f256, 4, 5)
    flagged = [d for d in t.diffs if d["length"] == 17 and d["d"] == 8]
    assert flagged and flagged[0]["computed"] == 1 and flagged[0]["reference"] == 0


def test_budget_enforced(f64):
    with pytest.raises(ResourceLimit):
        classify(f64, 3, 1, budget=RunBudget(max_steps=10))


def test_time_budget_is_read_when_a_tick_passes_a_multiple_of_1024():
    clock = RunBudget(max_seconds=1).start()
    clock.tick(1000)                    # the first step reads the clock, in time
    clock.t0 -= 10                      # as if 10 s had gone by
    clock.tick(23)                      # 1023: no multiple of 1024 passed
    with pytest.raises(ResourceLimit, match="time budget"):
        clock.tick(977)                 # 2000: passes 1024 without landing on it


def test_time_budget_is_read_on_the_first_step():
    clock = RunBudget(max_seconds=1).start()
    clock.t0 -= 10
    clock.tick(0)                       # no step yet
    with pytest.raises(ResourceLimit, match="time budget"):
        clock.tick()


def test_budget_start_returns_the_budget_counting_from_zero():
    budget = RunBudget(max_steps=10)
    assert budget.start() is budget
    budget.tick(10)
    with pytest.raises(ResourceLimit, match="step budget 10"):
        budget.tick()
    assert budget.start() is budget and budget.steps == 0
    budget.tick(10)                     # a second start counts from zero again
    assert budget == RunBudget(max_steps=10) and repr(budget) == (
        "RunBudget(max_seconds=None, max_steps=10)")


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("budget", [
    lambda last: RunBudget(max_seconds=0),
    lambda last: RunBudget(max_steps=10),
    lambda last: RunBudget(max_steps=last + 1),
], ids=["seconds", "candidates", "candidates_after_last_tested"])
def test_budgets_stop_a_walk_that_skips_subtrees(budget):
    """F_2^7, k = 4: the bound skips more than half of its 1,395 candidates,
    the last 14 among them, and a budget counts those too."""
    field = make_field(2, 7)
    tested = [idx for idx, _ in _iter_candidates(field, 4)]
    end = candidate_count(field, 4)
    assert len(tested) < end // 2 and tested[-1] + 1 < end
    with pytest.raises(ResourceLimit):
        cyclic_orbit_data(field, 4, budget=budget(tested[-1]))
    assert len(cyclic_orbit_data(field, 4, budget=RunBudget(max_steps=end))) == 93


def test_conjecture_check_small(f64):
    v = conjecture_check(f64, 2)
    assert v.applicable and v.satisfied  # full-length orbits at d >= 2 exist
    v3 = conjecture_check(f64, 3)
    assert not v3.applicable  # k = n/2 is out of the stated range
    assert v3.target_distance == 4


# -- persistence ----------------------------------------------------------------------


def test_orbit_db_round_trip(tmp_path, f64):
    orbits = list(enumerate_orbits(f64, 3, 1))
    path = os.path.join(tmp_path, "orbits.jsonl")
    assert write_orbit_db(orbits, path) == len(orbits)
    back = read_orbit_db(path)
    assert [(o.rep.bits, o.length, o.min_dist, o.k, o.m) for o in back] == \
           [(o.rep.bits, o.length, o.min_dist, o.k, o.m) for o in orbits]


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_resume(tmp_path, f64, monkeypatch):
    from orbitcodes.orbits import cyclic_orbit_data
    path = os.path.join(tmp_path, "ckpt.jsonl")
    full = cyclic_orbit_data(f64, 3)
    # run once with a checkpoint, then resume from the file: same records
    monkeypatch.setattr(orbits, "CHECKPOINT_FLUSH_EVERY", 4)
    ck = Checkpoint(path)
    first = cyclic_orbit_data(f64, 3, checkpoint=ck)
    ck2 = Checkpoint(path)
    resumed = cyclic_orbit_data(f64, 3, checkpoint=ck2)
    key = lambda recs: sorted((r.rep_bits, r.length, r.stab_degree) for r in recs)
    assert key(first) == key(full) == key(resumed)


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_refuses_another_field_or_k(tmp_path, f64):
    from orbitcodes.orbits import cyclic_orbit_data
    path = os.path.join(tmp_path, "ckpt.jsonl")
    cyclic_orbit_data(f64, 3, checkpoint=Checkpoint(path))
    other = make_field(2, 6, (1, 1, 0, 0, 0, 0, 1))    # x^6 + x + 1
    for field, k in ((other, 3), (f64, 2), (make_field(2, 5), 3)):
        with refused("was written for another field, polynomial or k"):
            cyclic_orbit_data(field, k, checkpoint=Checkpoint(path))


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_refuses_min_by_class_records(tmp_path, f64):
    """A file in the older header-less min_by_class format is not misread."""
    from orbitcodes.orbits import cyclic_orbit_data
    path = os.path.join(tmp_path, "old.jsonl")
    with open(path, "w") as fh:
        fh.write('{"q": 2, "n": 6, "k": 3, "cand": 0, "rep_bits": "7", '
                 '"length": 63, "stab_degree": 1, "min_by_class": {"1": 2}}\n')
    with refused("holds records in the older min_by_class format"):
        cyclic_orbit_data(f64, 3, checkpoint=Checkpoint(path))


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_tolerates_torn_last_line(tmp_path, f64, monkeypatch):
    from orbitcodes.orbits import cyclic_orbit_data
    path = os.path.join(tmp_path, "ckpt.jsonl")
    monkeypatch.setattr(orbits, "CHECKPOINT_FLUSH_EVERY", 4)
    full = cyclic_orbit_data(f64, 3, checkpoint=Checkpoint(path))
    with open(path) as fh:
        lines = fh.readlines()
    # keep the header and five records, then half of the sixth record
    with open(path, "w") as fh:
        fh.writelines(lines[:6])
        fh.write(lines[6][:len(lines[6]) // 2])
    resumed = cyclic_orbit_data(f64, 3, checkpoint=Checkpoint(path))
    key = lambda recs: [(r.rep_bits, r.length, r.stab_degree, r.min_by_step)
                        for r in recs]
    assert key(resumed) == key(full)
    # the torn tail was cut off, so the resumed run appended whole lines
    with open(path) as fh:
        assert [line for line in fh.read().split("\n") if line] == \
            [line.rstrip("\n") for line in lines]


def test_checkpoint_is_written_after_a_cached_census(tmp_path, f32):
    """A census already in the in-process cache still writes its checkpoint."""
    from orbitcodes.orbits import cyclic_orbit_data
    path = os.path.join(tmp_path, "ckpt.jsonl")
    plain = classify(f32, 2)
    checkpointed = classify(f32, 2, checkpoint=Checkpoint(path))
    assert checkpointed.counts == plain.counts
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + len(cyclic_orbit_data(f32, 2))


def test_read_orbit_db_recomputes_every_record(tmp_path, f64):
    import json
    from orbitcodes.errors import ParseError
    orbits = list(enumerate_orbits(f64, 3, 3))
    path = os.path.join(tmp_path, "orbits.jsonl")
    write_orbit_db(orbits, path)
    with open(path) as fh:
        good = [json.loads(line) for line in fh]
    first = good[0]
    assert first["length"] > 1
    rep, N = first["rep"], f64.group_order
    edits = [(key, first[key] + 1) for key in ("min_dist", "length", "stab_degree", "k")]
    edits += [("rep", sorted((e + 3) % N for e in rep)),          # not canonical
              ("rep", rep[:-1] + [(rep[-1] + 1) % N])]            # not a subspace
    for key, value in edits:
        bad = dict(first, **{key: value})
        with open(path, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in [bad] + good[1:])
        with pytest.raises(ParseError, match="line 1"):
            read_orbit_db(path)
