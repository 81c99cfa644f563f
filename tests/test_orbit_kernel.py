"""The orbit kernels (orbit_bits, stabilizer, min_member, cyclic_overlaps)
against the per-step loops they replaced, and the census against the
visited-set census it replaced."""

import itertools
import json
import random
from collections import Counter
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitcodes import (
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
from orbitcodes.gfext import gaussian_coefficient
from orbitcodes import orbits
from orbitcodes.errors import ResourceLimit, VerificationFailed
from orbitcodes.orbits import (
    Checkpoint,
    RunBudget,
    _iter_candidates,
    cyclic_orbit_data,
)
from orbitcodes.subspace import (
    LEAF_PASS_MIN,
    _basis_span,
    _echelon_rows,
    _walk_rows,
    check_modulus,
    cyclic_overlaps,
    divisors,
    exponents_of,
    is_min_member,
    min_member,
    min_member_of_exponents,
    orbit_bits,
    orbit_record,
    rotate_bits,
    stabilizer,
)
from tests import orbit_oracle as oracle
from tests.conftest import data_path, refused

# primitive polynomials other than the defaults, constant term first
F64_OTHER_POLY = (1, 1, 0, 0, 0, 0, 1)              # x^6 + x + 1
F256_OTHER_POLY = (1, 0, 0, 0, 1, 1, 1, 0, 1)       # x^8 + x^6 + x^5 + x^4 + 1
F125_POLY = (2, 0, 1, 1)                            # x^3 + x^2 + 2, no default

FIELDS = {
    "F2^6": (2, 6, None), "F2^6-other": (2, 6, F64_OTHER_POLY),
    "F2^8": (2, 8, None), "F2^8-other": (2, 8, F256_OTHER_POLY),
    "F3^3": (3, 3, None), "F3^4": (3, 4, None), "F5^2": (5, 2, None),
    "F5^3": (5, 3, F125_POLY),
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
    index = {bits: i for i, bits in _iter_candidates(field, k)}
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
    """The same candidates under the same indices as one counter over all
    free digits with every span built from scratch, numbered before the
    wrap-gap bound drops the candidates that fail it.

    The wide fields take only the k whose spans or counts are small.
    """
    field = field_of(name)
    assert list(_iter_candidates(field, k)) == oracle.bounded_candidates(field, k)


def echelon_like_rows(field, data, leaf: int) -> list:
    """Random rows over a random basis b_0..b_{K-1} of the field: row i's
    choices are distinct vectors b_i + sum_{j > i} d_j b_j, so one choice
    from each row is always independent; row 0 has leaf choices."""
    q, N = field.q, field.group_order
    exps = data.draw(st.sets(st.integers(0, N - 1), min_size=field.n + 2, max_size=field.n + 4))
    basis, vectors, _ = _basis_span(field, sum(1 << e for e in exps))
    K = len(basis)
    assume(q ** (K - 1) >= leaf)
    rows = []
    for i in range(data.draw(st.integers(1, min(K, 4)))):
        free = q ** (K - 1 - i)                 # the choices b_i + q^(i+1) * m
        size = leaf if i == 0 else data.draw(st.integers(1, min(free, 4)))
        picks = data.draw(st.lists(st.integers(0, free - 1), min_size=size, max_size=size,
                                   unique=True))
        rows.append([vectors[q ** i + q ** (i + 1) * m] for m in picks])
    return rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("leaf", [LEAF_PASS_MIN - 1, LEAF_PASS_MIN, LEAF_PASS_MIN + 1,
                                  2 * LEAF_PASS_MIN])
@pytest.mark.parametrize("name", ["F2^8", "F3^4"])
def test_walk_rows_matches_per_choice_oracle(name, leaf, data):
    """The walk that expands a leaf in one C-level pass, over F_2 from
    LEAF_PASS_MIN row-0 choices up, yields what one _span_step per choice
    yields: the same (index, bitset) pairs in the same order from any
    start, with no cap, a cap inside the walk's bitsets (so inside a leaf)
    or any cap.  Over F_3 every leaf takes the per-choice path."""
    field = field_of(name)
    rows = echelon_like_rows(field, data, leaf)
    index = data.draw(st.integers(0, 10 ** 6))
    whole = list(oracle.walk_rows_per_choice(field, rows, None, index))
    assert len(whole) == prod(map(len, rows))
    cap = data.draw(st.one_of(st.none(), st.sampled_from([b for _, b in whole]),
                              st.integers(0, 1 << field.group_order)))
    assert list(_walk_rows(field, rows, cap, index)) == \
        list(oracle.walk_rows_per_choice(field, rows, cap, index))


def assert_bound_keeps_every_smallest_member(field, k):
    """The census keeps the same candidates under the same indices from the
    walk the bound prunes as from the unpruned oracle walk."""
    def smallest(candidates):
        return [(i, bits) for i, bits in candidates if min_member(field, bits) == bits]
    expected = smallest(enumerate(oracle.rref_candidates(field, k)))
    assert all(oracle.passes_wrap_gap_bound(field, k, bits) for _, bits in expected)
    assert smallest(_iter_candidates(field, k)) == expected


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name}-k{k}")
    for name, (_, n, _) in FIELDS.items() for k in range(n + 1)])
def test_bound_keeps_every_smallest_member(name, k):
    assert_bound_keeps_every_smallest_member(field_of(name), k)


@pytest.mark.extended
@pytest.mark.parametrize("name, k", [("F2^9", 4), ("F2^10", 3)])
def test_bound_keeps_every_smallest_member_extended(name, k):
    """The paper's F_2^9, k = 4 and F_2^10, k = 3 censuses, about 5 s."""
    assert_bound_keeps_every_smallest_member(field_of(name), k)


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("name, k", [("F2^6", 3), ("F2^8", 4), ("F3^4", 2)])
def test_checkpoint_numbered_by_the_unpruned_walk_resumes(tmp_path, name, k):
    """A checkpoint whose records carry their indices in the unpruned walk,
    cut after any number of records, resumes to the records and the file of
    one checkpointed run."""
    field = field_of(name)
    whole = tmp_path / "whole.jsonl"
    records = cyclic_orbit_data(field, k, checkpoint=Checkpoint(str(whole)))
    reps = [i for i, bits in enumerate(oracle.rref_candidates(field, k))
            if min_member(field, bits) == bits]
    assert len(reps) == len(records) > 2
    for cut in sorted({0, 1, len(records) // 2, len(records) - 1, len(records)}):
        path = tmp_path / f"cut{cut}.jsonl"
        ck = Checkpoint(str(path))
        ck.load(field, k)
        for i, rec in zip(reps[:cut], records):
            ck.record(i, rec.rep_bits)
        ck.flush()
        assert cyclic_orbit_data(field, k, checkpoint=Checkpoint(str(path))) == records
        assert path.read_bytes() == whole.read_bytes()


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("name, k", [("F2^6", 3), ("F2^8", 4), ("F3^4", 2)])
def test_census_stopped_by_its_budget_keeps_its_checkpoint(tmp_path, name, k):
    """A census stopped by a step budget has written every record it found
    before the stop, and resumes to the records and the file of one whole
    run."""
    field = field_of(name)
    whole = tmp_path / "whole.jsonl"
    records = cyclic_orbit_data(field, k, checkpoint=Checkpoint(str(whole)))
    header, *lines = whole.read_text().splitlines(keepends=True)
    cands = [json.loads(line)["cand"] for line in lines]
    for steps in sorted({1, cands[1], cands[len(cands) // 2], cands[-1]}):
        path = tmp_path / f"stopped{steps}.jsonl"
        with pytest.raises(ResourceLimit):
            cyclic_orbit_data(field, k, RunBudget(max_steps=steps),
                              checkpoint=Checkpoint(str(path)))
        # the step of candidate i is the (i + 1)-th, so those below steps were tested
        assert path.read_text() == header + "".join(
            line for cand, line in zip(cands, lines) if cand < steps)
        assert cyclic_orbit_data(field, k, checkpoint=Checkpoint(str(path))) == records
        assert path.read_bytes() == whole.read_bytes()


@pytest.mark.usefixtures("fresh_census_cache")
def test_resume_walks_on_when_its_rebuild_outlasts_the_budget(tmp_path, monkeypatch):
    """The budget's clock starts after a resume rebuilds its stored orbits:
    with a clock that moves 1 s per orbit record and a 0.5 s budget, every
    resume still appends records, and the resumes end in the whole run's
    records and file."""
    field = field_of("F2^8")
    whole = tmp_path / "whole.jsonl"
    records = cyclic_orbit_data(field, 4, checkpoint=Checkpoint(str(whole)))
    path = tmp_path / "stopped.jsonl"
    with pytest.raises(ResourceLimit):
        cyclic_orbit_data(field, 4, RunBudget(max_steps=len(records) * 4),
                          checkpoint=Checkpoint(str(path)))
    now = [0.0]
    walk_record = orbits._cyclic_record

    def slow_record(*args):
        now[0] += 1.0
        return walk_record(*args)

    monkeypatch.setattr(orbits, "_cyclic_record", slow_record)
    monkeypatch.setattr(orbits, "time", SimpleNamespace(monotonic=lambda: now[0]))
    lines = len(path.read_text().splitlines())
    for _ in range(len(records)):
        try:
            result = cyclic_orbit_data(field, 4, RunBudget(max_seconds=0.5),
                                       checkpoint=Checkpoint(str(path)))
        except ResourceLimit:
            grown = len(path.read_text().splitlines())
            assert grown > lines
            lines = grown
        else:
            break
    assert result == records and path.read_bytes() == whole.read_bytes()


def pattern_starts(field, k):
    """The index of the first candidate of each pivot pattern, and the end."""
    sizes = [prod(map(len, _echelon_rows(field.q, pivots, field.n)))
             for pivots in itertools.combinations(range(1, field.n), k - 1)]
    return [0, *itertools.accumulate(sizes)]


@pytest.mark.parametrize("name, k", [("F2^6", 3), ("F2^8", 4), ("F3^4", 2)])
def test_walk_from_a_start_skips_the_patterns_below_it(name, k):
    """From any start, the walk yields the full walk's candidates from the
    first index of the pivot pattern holding the start on, and none before."""
    field = field_of(name)
    full = list(_iter_candidates(field, k))
    starts = pattern_starts(field, k)
    for start in sorted({0, 1, *starts[1:-1], *(s + 1 for s in starts[1:-1]),
                         full[len(full) // 2][0], full[-1][0], starts[-1]}):
        first = max(s for s in starts if s <= start)
        assert list(_iter_candidates(field, k, start)) == [c for c in full if c[0] >= first]


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("name, k", [("F2^8", 4), ("F3^4", 2)])
def test_resume_walks_no_pattern_below_its_start(tmp_path, monkeypatch, name, k):
    """A census resumed from a cut checkpoint gives the records and the file
    of one whole run, and walks only from the pattern holding its start."""
    field = field_of(name)
    whole = tmp_path / "whole.jsonl"
    records = cyclic_orbit_data(field, k, checkpoint=Checkpoint(str(whole)))
    lines = whole.read_text().splitlines(keepends=True)
    starts = pattern_starts(field, k)
    walked = []

    def walk_rows(*args):
        for idx, bits in _walk_rows(*args):
            walked.append(idx)
            yield idx, bits

    monkeypatch.setattr(orbits, "_walk_rows", walk_rows)
    for cut in sorted({1, len(records) // 2, len(records)}):
        path = tmp_path / f"cut{cut}.jsonl"
        path.write_text("".join(lines[:cut + 1]))
        start = json.loads(lines[cut])["cand"] + 1
        walked.clear()
        assert cyclic_orbit_data(field, k, checkpoint=Checkpoint(str(path))) == records
        assert path.read_bytes() == whole.read_bytes()
        assert min(walked, default=start) >= max(s for s in starts if s <= start)


def frobenius_class(field, bits):
    """The smallest member of each orbit in the Frobenius class of bits' orbit."""
    images = [bits]
    for _ in range(field.n - 1):
        images.append(oracle.frobenius_image(field, images[-1]))
    return {min_member(field, image) for image in images}


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("name, k", [("F2^6", 3), ("F2^8", 4), ("F3^4", 2)])
def test_resume_between_a_frobenius_class_and_its_conjugate(tmp_path, name, k):
    """A checkpoint cut after a class's first orbit and before a later
    conjugate resumes to the records of the per-orbit census and the file of
    one whole run: the resumed run walks the conjugate afresh."""
    field = field_of(name)
    whole = tmp_path / "whole.jsonl"
    records = cyclic_orbit_data(field, k, checkpoint=Checkpoint(str(whole)))
    assert records == oracle.per_orbit_census(field, k)
    reps = [rec.rep_bits for rec in records]
    cut = next(j for j, rep in enumerate(reps)
               if frobenius_class(field, rep) & set(reps[:j]))
    lines = whole.read_text().splitlines(keepends=True)
    path = tmp_path / "cut.jsonl"
    path.write_text("".join(lines[:cut + 1]))
    assert cyclic_orbit_data(field, k, checkpoint=Checkpoint(str(path))) == records
    assert path.read_bytes() == whole.read_bytes()


def test_census_fails_when_a_conjugate_is_never_met(monkeypatch):
    """A Frobenius image that no candidate of a whole run matches is a
    VerificationFailed, not a census that is silently short of records."""
    field = field_of("F2^6")
    real = orbits.min_member_of_exponents
    monkeypatch.setattr(orbits, "_CYCLIC_CACHE", {})
    monkeypatch.setattr(orbits, "min_member_of_exponents",
                        lambda exps, N: real(exps, N) | 1 << N - 1)
    with pytest.raises(VerificationFailed, match="never met"):
        cyclic_orbit_data(field, 3)


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name}-k{k}")
    for name, (_, n, _) in FIELDS.items() for k in range(n + 1)])
def test_stabilizer_counts_match_the_per_orbit_census(name, k):
    """The closed form gives, per stabilizer degree, the orbit counts of the
    census that walks every kept orbit on its own, and their mass."""
    field = field_of(name)
    q, n = field.q, field.n
    counts = orbits.stabilizer_counts(q, n, k)
    assert counts == Counter(rec.stab_degree for rec in oracle.per_orbit_census(field, k))
    assert sum(c * (q ** n - 1) // (q ** t - 1) for t, c in counts.items()) == \
        gaussian_coefficient(n, k, q)


def self_conjugate_rep(field, k):
    """The representative of the first orbit of the census, longer than one
    member, that is its own Frobenius class."""
    return next(rec.rep_bits for rec in cyclic_orbit_data(field, k)
                if rec.length > 1 and not orbits._frobenius_conjugates(field, rec.rep_bits))


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("mutation", ["drop-a-class-head", "a-candidate-twice",
                                      "a-changed-stab-degree", "a-loss-made-up-by-shorter-orbits"])
def test_census_fails_against_the_closed_form(monkeypatch, mutation):
    """A census walk that loses a Frobenius class of one orbit, that meets a
    kept candidate twice, whose record has another stabilizer degree, or
    that loses a class of two orbits of length 63 and meets the one orbit
    of length 9 fourteen more times (which keeps the mass) has the wrong
    orbit count for some degree; the conjugate map holds nothing then, and
    the closed-form check raises VerificationFailed."""
    field, k = field_of("F2^6"), 3
    census = cyclic_orbit_data(field, k)
    head = self_conjugate_rep(field, k)
    dropped, repeats = set(), {}
    if mutation == "drop-a-class-head":
        dropped = {head}
    elif mutation == "a-candidate-twice":
        repeats = {head: 2}
    elif mutation == "a-loss-made-up-by-shorter-orbits":
        pair = next(rec.rep_bits for rec in census if rec.length == 63
                    and len(orbits._frobenius_conjugates(field, rec.rep_bits)) == 1)
        dropped = {pair, *orbits._frobenius_conjugates(field, pair)}
        [short] = [rec for rec in census if rec.length == 9]
        repeats = {short.rep_bits: 15}
        assert sum(rec.length for rec in census) - 2 * 63 + 14 * short.length == \
            gaussian_coefficient(field.n, k, field.q)
    real_candidates, real_record = orbits._iter_candidates, orbits.orbit_record

    def candidates(*args):
        for idx, bits in real_candidates(*args):
            if bits not in dropped:
                yield from [(idx, bits)] * repeats.get(bits, 1)

    def record(*args):
        rec = real_record(*args)
        if rec.rep_bits == head and mutation == "a-changed-stab-degree":
            rec.stab_degree = 1 if rec.stab_degree > 1 else field.n
        return rec

    monkeypatch.setattr(orbits, "_CYCLIC_CACHE", {})
    monkeypatch.setattr(orbits, "_iter_candidates", candidates)
    monkeypatch.setattr(orbits, "orbit_record", record)
    with pytest.raises(VerificationFailed, match="by stabilizer degree, the closed form"):
        cyclic_orbit_data(field, k)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["F2^6", "F3^3", "F3^4", "F5^2"]), st.data())
def test_min_member_of_exponents_random_sets(name, data):
    """The gap rule agrees with min_member on any set of exponents, and on
    sets fixed by a rotation, whose largest gaps tie."""
    field = field_of(name)
    N = field.group_order
    period = data.draw(st.sampled_from(divisors(N)))
    base = data.draw(st.sets(st.integers(0, period - 1), min_size=1))
    exps = sorted(b + j for b in base for j in range(0, N, period))
    bits = sum(1 << e for e in exps)
    assert min_member_of_exponents(exps, N) == min_member(field, bits)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([("F2^6", k) for k in range(1, 6)] + [("F2^8", 4), ("F3^3", 1),
                        ("F3^4", 2), ("F5^2", 1), ("F5^3", 2)]), st.data())
def test_min_member_of_frobenius_images(case, data):
    """The smallest member of sigma^i(V) from V's exponents, for any member V
    of a census orbit, stabilized ones (D < N) included, and q = 2, 3, 5."""
    name, k = case
    field = field_of(name)
    N = field.group_order
    rec = data.draw(st.sampled_from(cyclic_orbit_data(field, k)))
    V = rotate_bits(rec.rep_bits, data.draw(st.integers(0, N - 1)), N)
    power = data.draw(st.integers(1, field.n - 1))
    image = V
    for _ in range(power):
        image = oracle.frobenius_image(field, image)
    exps = sorted(field.q ** power * e % N for e in exponents_of(V))
    assert min_member_of_exponents(exps, N) == min_member(field, image)


@pytest.mark.parametrize("name", list(FIELDS))
def test_min_member_of_every_frobenius_image(name):
    """Every Frobenius image of every census rep, stabilized orbits included.

    Over F_2^6 and F_2^8 some images have largest gaps that tie and give
    different rotations; the few orbits over F_3^n and F_5^n here have none,
    and test_min_member_of_exponents_random_sets meets such ties for every q.
    """
    field = field_of(name)
    N = field.group_order
    ties = stabilized = 0
    for k in range(1, field.n):
        for rec in cyclic_orbit_data(field, k):
            stabilized += rec.length < N
            exps = exponents_of(rec.rep_bits)
            image = rec.rep_bits
            for _ in range(field.n - 1):
                exps = sorted(field.q * e % N for e in exps)
                image = oracle.frobenius_image(field, image)
                assert min_member_of_exponents(exps, N) == min_member(field, image)
                gaps = [e - d for d, e in zip((exps[-1] - N, *exps), exps)]
                ends = [e for e, gap in zip(exps, gaps) if gap == max(gaps)]
                ties += len({rotate_bits(image, -e, N) for e in ends}) > 1
    assert stabilized and (ties or field.q > 2)


@pytest.mark.extended
@pytest.mark.usefixtures("fresh_census_cache")
def test_frobenius_records_match_per_orbit_oracle_extended():
    """F_2^10, k = 4: all 52,547 records against the census that walks every
    orbit, about 10 s."""
    field = field_of("F2^10")
    assert cyclic_orbit_data(field, 4) == oracle.per_orbit_census(field, 4)


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
        assert is_min_member(field, b) == (min_member(field, b) == b)


def test_f1024_sampled_walks_match_oracle():
    field = make_field(2, 10)
    rng = random.Random(1024)
    cands = list(oracle.rref_candidates(field, 3))
    sample = rng.sample(cands, 40)
    for bits in sample:
        rec = orbit_record(field, min_member(field, bits), 3)
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
    field = V.field
    O = orbit_of(V, m)
    assert (O.rep.bits, O.length, O.min_dist, O.stab_degree) == oracle.orbit_of(V, m)
    assert (min_member(field, V.bits, m) == oracle.canonical_rotation(V, m)[0]
            == min(orbit_bits(field, V.bits, m)))


@pytest.mark.parametrize("name", ["F2^6", "F2^6-other", "F2^8", "F3^3", "F3^4", "F5^2"])
def test_orbit_of_every_modulus_matches_oracle(name):
    """orbit_of and min_member on a shifted member of each cyclic orbit.

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


@pytest.mark.parametrize("name", list(FIELDS))
def test_orbit_of_reads_the_full_record_at_its_step(name):
    """orbit_of asks orbit_record for the one step gcd(m, D) it reads; its
    min_dist is the full record's at that step, for every rep and every m."""
    field = field_of(name)
    N = field.group_order
    for k in range(field.n + 1):
        for rec in cyclic_orbit_data(field, k):
            full = orbit_record(field, rec.rep_bits, k)
            V = from_bits(field, rec.rep_bits)
            for m in divisors(N):
                g = gcd(m, full.length)
                one = orbit_record(field, rec.rep_bits, k, m)
                assert one.min_by_step == {s: d for s, d in full.min_by_step.items() if s == g}
                assert orbit_of(V, m).min_dist == full.min_dist_for_step(g)


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
             lambda m: orbit_of(V, m),
             lambda m: next(enumerate_orbits(field, 2, m)),
             lambda m: classify(field, 2, m),
             lambda m: code_from_generators(field, m, [V]),
             lambda m: is_quasi_cyclic(code, m)]
    for m in (0, 4):
        for call in calls:
            with refused(rf"^modulus m={m} does not divide q\^n-1 = 63$"):
                call(m)


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


def sparse_bitsets(N):
    """Bitsets of at most 20 of the exponents 0..N-1: their overlaps fit
    one-byte lanes, where dense bitsets of F_2^9 and F_2^10 may need two."""
    return st.frozensets(st.integers(0, N - 1), max_size=20).map(
        lambda exps: sum(1 << e for e in exps))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["F2^6", "F3^3", "F5^2", "F2^9", "F2^10"]), st.data())
def test_cyclic_overlaps_random_pairs(name, data):
    field = field_of(name)
    N = field.group_order
    bitsets = st.one_of(st.integers(0, (1 << N) - 1), sparse_bitsets(N))
    a, b = data.draw(bitsets), data.draw(bitsets)
    for x, y in ((a, b), (a, a)):
        assert list(cyclic_overlaps(field, x, y)) == oracle.cyclic_overlaps(field, x, y)


@pytest.mark.parametrize("top", [7, 8, 15, 16])
@pytest.mark.parametrize("name", ["F2^6", "F3^4", "F2^9", "F2^10"])
def test_cyclic_overlaps_at_lane_edges(name, top):
    """Bitsets whose smaller popcount is 7, 8, 15 or 16, the sizes of small
    subspaces and their neighbours, against larger ones: the overlaps fit
    one-byte lanes, the narrowest there are."""
    field = field_of(name)
    N = field.group_order
    rng = random.Random(N * top)
    for _ in range(8):
        a = sum(1 << e for e in rng.sample(range(N), top))
        b = sum(1 << e for e in rng.sample(range(N), rng.randint(top + 1, N)))
        for x, y in ((a, a), (a, b), (b, a)):
            overlap = cyclic_overlaps(field, x, y)
            assert type(overlap) is bytes
            assert list(overlap) == oracle.cyclic_overlaps(field, x, y)
        assert max(cyclic_overlaps(field, a, a)) == top


@pytest.mark.parametrize("name, k, size", [("F2^9", 3, 7), ("F3^4", 2, 8), ("F2^8", 4, 15)])
def test_cyclic_overlaps_of_subspaces_at_lane_tops(name, k, size):
    """k-subspaces of q^k - 1 = 7, 8 or 15 elements: the orbits shorter than
    q^n - 1 and a seeded sample of the others, each against itself, a
    rotated rep and a (k+1)-subspace through that rep."""
    field = field_of(name)
    N = field.group_order
    recs = cyclic_orbit_data(field, k)
    rng = random.Random(N * k)
    short = [rec.rep_bits for rec in recs if rec.length < N]
    reps = short + [rec.rep_bits for rec in rng.sample(recs, min(len(recs), 12))]
    assert short and {bits.bit_count() for bits in reps} == {size}
    for a in reps:
        b = rotate_bits(rng.choice(reps), rng.randrange(N), N)
        outside = rng.choice([e for e in range(N) if not b >> e & 1])
        c = span(field, [*exponents_of(b), outside]).bits
        assert c.bit_count() == field.q ** (k + 1) - 1
        for x, y in ((a, a), (a, b), (a, c), (c, a)):
            overlap = cyclic_overlaps(field, x, y)
            assert type(overlap) is bytes
            assert list(overlap) == oracle.cyclic_overlaps(field, x, y)


@pytest.mark.extended
@pytest.mark.parametrize("name, k", [("F2^10", 3), ("F2^9", 4)])
def test_cyclic_overlaps_of_every_census_rep_extended(name, k):
    """Every cyclic orbit rep of the census, with itself and with a seeded
    rotated rep, against the rotation loop."""
    field = field_of(name)
    N = field.group_order
    reps = [rec.rep_bits for rec in cyclic_orbit_data(field, k)]
    rng = random.Random(N * k)
    for a in reps:
        b = rotate_bits(rng.choice(reps), rng.randrange(N), N)
        for x, y in ((a, a), (a, b)):
            assert list(cyclic_overlaps(field, x, y)) == oracle.cyclic_overlaps(field, x, y)


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
