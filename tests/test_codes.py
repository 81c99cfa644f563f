"""Codes: counting, bounds, spreads, duality, self-duality, file verification."""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import (
    SubspaceCode,
    code_from_generators,
    code_from_words,
    distance,
    dualize,
    etzion_vardy_bound,
    from_exponents,
    gaussian_coefficient,
    is_cyclic,
    is_quasi_cyclic,
    is_self_dual,
    load_code_file,
    make_field,
    min_distance,
    orthogonal_complement,
    shift,
    span,
    spread_code,
    verify_code_file,
)
from orbitcodes import codes
from orbitcodes.cli import main
from orbitcodes.errors import VerificationFailed
from orbitcodes.subspace import divisors
from tests import orbit_oracle as oracle
from tests.conftest import data_path, refused


# -- Gaussian coefficients and bounds --------------------------------------------


def q_pascal(n, k, q, cache={}):
    """Independent oracle: the q-analogue Pascal recurrence."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    key = (n, k, q)
    if key not in cache:
        cache[key] = q_pascal(n - 1, k - 1, q) + q ** k * q_pascal(n - 1, k, q)
    return cache[key]


def test_gaussian_matches_q_pascal_oracle():
    for q in (2, 3):
        for n in range(17):
            for k in range(n + 1):
                assert gaussian_coefficient(n, k, q) == q_pascal(n, k, q)


def sequential_gaussian(n, k, q):
    """The coefficient as gaussian_coefficient formed it before its product
    tree: numerator and denominator multiplied one factor at a time."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_gaussian_product_tree_matches_the_sequential_products():
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        for n in range(0, 41 if q == 2 else 17):
            for k in range(-1, n + 2):
                assert gaussian_coefficient(n, k, q) == sequential_gaussian(n, k, q), (n, k, q)
    for n, k in [(300, 150), (1000, 37), (2000, 999)]:
        assert gaussian_coefficient(n, k, 2) == sequential_gaussian(n, k, 2)


def test_gaussian_symmetry():
    for n in range(17):
        for k in range(n + 1):
            assert gaussian_coefficient(n, k, 2) == gaussian_coefficient(n, n - k, 2)


def test_bound_paper_values():
    assert etzion_vardy_bound(10, 4, 3, 2) == 24893
    assert etzion_vardy_bound(8, 4, 4, 2) == 6477
    assert etzion_vardy_bound(10, 10, 5, 2) == 33


def test_bound_is_the_gaussian_quotient():
    """The bound formed from few factors, or read off as q^(s a), is the quotient
    of the two Gaussian coefficients on every small case, and 1 past the
    largest distance 2 min(k, n - k) of two k-subspaces."""
    for q in (2, 3, 4, 5):
        for n in range(1, 13 if q == 2 else 8):
            for k in range(n + 1):
                for d in range(2, 2 * n + 8, 2):
                    delta = d // 2 - 1
                    expected = (1 if d > 2 * min(k, n - k) else
                                gaussian_coefficient(n, k, q)
                                // gaussian_coefficient(n - k + delta, delta, q))
                    assert etzion_vardy_bound(n, d, k, q) == expected, (n, d, k, q)
    assert etzion_vardy_bound(300, 300, 150, 2) == 2 ** 150 + 1


def test_bound_past_the_digit_limit_is_refused_before_it_is_formed():
    t0 = time.monotonic()
    for n, d, k in [(300, 4, 150), (10 ** 6, 4, 5 * 10 ** 5), (10 ** 6, 2, 1)]:
        with refused("has more than [0-9]+ digits"):
            etzion_vardy_bound(n, d, k, 2)
    assert time.monotonic() - t0 < 5


def test_bound_rejects_odd_distance():
    with refused("minimum distance 3 must be even and >= 2"):
        etzion_vardy_bound(10, 3, 3, 2)


# -- code construction and distance -----------------------------------------------


def test_code_from_generators_orbit_union(f16):
    g = from_exponents(f16, [0, 1, 4])
    C = code_from_generators(f16, 1, [g])
    assert C.size == 15 and C.constant_dimension
    assert C.params() == (4, 2, 15, 2)


def test_duplicate_generators_flagged(f16):
    g = from_exponents(f16, [0, 1, 4])
    C = code_from_generators(f16, 1, [g, g])
    assert C.size == 15
    assert C.duplicate_generators == (1,)


def test_bad_modulus_rejected(f16):
    g = from_exponents(f16, [0, 1, 4])
    with refused(r"modulus m=4 does not divide q\^n-1 = 15"):
        code_from_generators(f16, 4, [g])


def test_min_distance_orbit_vs_all_pairs(f64):
    """Shift-identity computation agrees with the naive all-pairs scan."""
    rng = random.Random(7)
    for _ in range(10):
        exps = rng.sample(range(63), 3)
        gens = [span(f64, exps)]
        for m in (1, 7, 9):
            C = code_from_generators(f64, m, gens)
            if C.size < 2:
                continue
            naive = min(distance(a, b)
                        for a, b in itertools.combinations(C.words, 2))
            assert min_distance(C) == naive


ORACLE_FIELDS = [make_field(2, 4), make_field(2, 6), make_field(3, 3)]


@st.composite
def generator_lists(draw):
    """(field, m, generators): every divisor m of q^n - 1, and generators of
    mixed dimension, the zero and the full subspace among them, and repeats
    of earlier generators rotated by any amount, a multiple of m or not."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    N, n = field.group_order, field.n
    m = draw(st.sampled_from(divisors(N)))
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            gens.append(from_exponents(field, []))
        elif kind == 1:
            gens.append(from_exponents(field, range(N)))
        elif kind <= 3 and gens:
            gens.append(shift(draw(st.sampled_from(gens)), draw(st.integers(0, N - 1))))
        else:
            exps = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=n))
            gens.append(span(field, exps))
    return field, m, gens


def reads(C) -> tuple:
    """What a code reads as: size, dims, words, distance, dual, self-duality
    and quasi-cyclicity under every m."""
    return (C.size, C.dims, C.bitsets, min_distance(C) if C.size >= 2 else None,
            dualize(C).bitsets, is_self_dual(C),
            tuple(is_quasi_cyclic(C, m) for m in divisors(C.field.group_order)))


@settings(max_examples=300, deadline=None)
@given(generator_lists())
def test_code_from_generators_matches_the_word_set_oracle(case):
    """One model: a code from generators, holding their distinct orbits
    under m, the same words through SubspaceCode(field, bitsets), each a
    one-word orbit under q^n - 1, and the oracle's materialized code read
    alike."""
    field, m, gens = case
    code = code_from_generators(field, m, gens)
    want = oracle.materialized_code(field, m, gens)
    from_words = SubspaceCode(field, want.bitsets)
    assert code.provenance == want.provenance
    assert code.duplicate_generators == want.duplicate_generators
    assert (code.m, from_words.m, want.m) == (m, field.group_order, field.group_order)
    assert reads(code) == reads(from_words) == reads(want)
    assert code.params() == want.params() == from_words.params()
    assert code.words == want.words
    assert code == want and hash(code) == hash(want)


def test_expanding_a_code_calls_no_stabilizer(monkeypatch):
    """bitsets is expanded from the stored orbit sizes: neither a code built
    from words, nor the code dualize returns, nor a code from generators
    calls stabilizer to list its words; code_from_generators calls it once
    per generator."""
    from orbitcodes import subspace
    cf = load_code_file(data_path("example3_n8k4.json"))
    want = oracle.materialized_code(cf.field, cf.m, cf.generators).bitsets
    calls = []

    def counted(field, bits):
        calls.append(bits)
        return real(field, bits)

    real = subspace.stabilizer
    monkeypatch.setattr(subspace, "stabilizer", counted)
    monkeypatch.setattr(codes, "stabilizer", counted)
    code = code_from_generators(cf.field, cf.m, cf.generators)
    assert len(calls) == len(cf.generators) == 20
    calls.clear()
    words = SubspaceCode(cf.field, want)
    dual = dualize(words)
    assert code.bitsets == words.bitsets == want and len(dualize(code).bitsets) == 4505
    assert dual.bitsets == dualize(code).bitsets
    assert calls == []


def test_min_distance_needs_two_words(f16):
    C = code_from_words(f16, [from_exponents(f16, [0, 1, 4])])
    with refused("minimum distance needs at least two codewords"):
        min_distance(C)


def test_provenance_lists_each_generator_with_its_orbit_size(f16):
    g, h = from_exponents(f16, [0, 1, 4]), from_exponents(f16, [2, 3, 6])
    C = code_from_generators(f16, 3, [g, h, shift(g, 3)])
    assert C.provenance == (3, ((g, 5), (h, 5), (shift(g, 3), 5)))
    assert C.duplicate_generators == (2,) and C.size == 10


def test_min_distance_of_one_word_orbits_compares_words(tmp_path, monkeypatch):
    """dualize writes each word as its own generator under m = q^n - 1, so
    every orbit of its file is one word: min_distance compares the words and
    reads no orbit record or correlation."""
    path = str(tmp_path / "dual.json")
    assert main(["dualize", data_path("cyclic_n5k2.json"), "-o", path]) == 0
    cf = load_code_file(path)
    C = code_from_generators(cf.field, cf.m, cf.generators)
    assert cf.m == cf.field.group_order and C.size == 31
    assert {size for _, size in C.provenance[1]} == {1}

    def refuse(*args):
        raise AssertionError("min_distance took the orbit path")

    monkeypatch.setattr(codes, "orbit_record", refuse)
    monkeypatch.setattr(codes, "orbit_distance", refuse)
    assert min_distance(C) == min(distance(a, b) for a, b in itertools.combinations(C.words, 2))


def test_mixed_dimension_params(f16):
    C = code_from_words(f16, [from_exponents(f16, [2]),
                              from_exponents(f16, [0, 1, 4])])
    assert not C.constant_dimension
    assert C.params() == (4, 2, 3)  # [n, size, d]: the words intersect trivially


# -- spreads -----------------------------------------------------------------------


def test_spread_n6(f64):
    C = spread_code(f64, 3)
    assert C.params() == (6, 3, 9, 6)
    assert C.size == etzion_vardy_bound(6, 6, 3, 2)  # spreads meet the bound


def test_spread_requires_divisor(f64):
    with refused("t=4 is not a positive divisor of n=6"):
        spread_code(f64, 4)


def test_spread_n10_is_example_code():
    f = make_field(2, 10)
    C = spread_code(f, 5)
    assert C.params() == (10, 5, 33, 10)


def test_spread_n14_t2_is_checked_in_linear_time():
    """The 5,461 words of the F_2^14, t = 2 spread are checked in one pass
    over them; a check of every pair took about 17 s."""
    start = time.perf_counter()
    C = spread_code(make_field(2, 14), 2)
    assert C.size == (2 ** 14 - 1) // 3 == 5461
    assert time.perf_counter() - start < 5


def test_spread_members_that_intersect_are_refused(f64, monkeypatch):
    """A word meeting another fails the spread check, whichever comes first."""
    from orbitcodes import codes

    def with_a_point_of_the_subfield(field, m, generators):
        C = code_from_generators(field, m, generators)
        return SubspaceCode(field, [*C.bitsets, 1])

    monkeypatch.setattr(codes, "code_from_generators", with_a_point_of_the_subfield)
    with pytest.raises(VerificationFailed, match="spread members intersect nontrivially"):
        spread_code(f64, 3)


# -- duality -----------------------------------------------------------------------


def load_dual_table(name):
    with open(data_path(name)) as fh:
        return json.load(fh)


def test_dual_table_n5_all_rows(f32):
    doc = load_dual_table("dual_table_n5.json")
    assert len(doc["rows"]) == 31
    for row in doc["rows"]:
        got = orthogonal_complement(from_exponents(f32, row["word"]))
        assert sorted(got.exponents) == sorted(row["dual"])


def test_dual_table_n6_spread_all_rows(f64):
    doc = load_dual_table("dual_table_n6_spread.json")
    assert len(doc["rows"]) == 9
    spread = spread_code(f64, 3)
    table_words = {tuple(sorted(r["word"])) for r in doc["rows"]}
    assert {tuple(w.exponents) for w in spread.words} == table_words
    for row in doc["rows"]:
        got = orthogonal_complement(from_exponents(f64, row["word"]))
        assert sorted(got.exponents) == sorted(row["dual"])


def test_dual_of_cyclic_code_not_cyclic(f32):
    C = code_from_generators(f32, 1, [from_exponents(f32, [0, 13, 14])])
    assert is_cyclic(C)
    D = dualize(C)
    assert not is_cyclic(D)
    assert dualize(D).words == C.words  # involution


def test_duality_preserves_parameters_random(f64):
    """Size, dimension flip, and min distance are preserved on random codes."""
    rng = random.Random(3)
    for _ in range(100):
        words = set()
        while len(words) < 4:
            words.add(span(f64, rng.sample(range(63), 2)))
        C = code_from_words(f64, words)
        D = dualize(C)
        assert D.size == C.size
        assert {6 - k for k in C.dims} == set(D.dims)
        assert min_distance(D) == min_distance(C)


# -- self-duality and quasi-cyclicity -------------------------------------------------


def test_quasi_cyclic_predicate(f16):
    g = from_exponents(f16, [2, 3, 6])
    C = code_from_generators(f16, 3, [g])
    assert C.size == 5
    assert is_quasi_cyclic(C, 3)
    assert not is_cyclic(C)
    with refused(r"modulus m=4 does not divide q\^n-1 = 15"):
        is_quasi_cyclic(C, 4)


def test_published_5word_code_is_not_self_dual(f16):
    """The claimed self-dual 3-quasi [4,2,5,2] code fails the definition:

    two of its five words have orthogonal complements outside the code
    (under the same inner product that reproduces the 31-row dual table).
    """
    g = from_exponents(f16, [2, 3, 6])
    C = code_from_generators(f16, 3, [g])
    assert not is_self_dual(C)
    outside = [w for w in C.words
               if orthogonal_complement(w) not in C.words]
    assert len(outside) == 2


def test_self_dual_examples_verify(f16, f64, f256):
    pairs = [
        (f16, 5, [[2, 7, 12], [4, 9, 14]]),
        (f64, 21, [[9, 24, 30, 33, 43, 50, 51]]),
        (f256, 85, [[27, 34, 46, 54, 76, 112, 119, 131, 139, 161, 197, 204,
                     216, 224, 246],
                    [5, 27, 63, 70, 82, 90, 112, 148, 155, 167, 175, 197,
                     233, 240, 252]]),
    ]
    for field, m, gens in pairs:
        C = code_from_generators(field, m, [from_exponents(field, g) for g in gens])
        assert is_self_dual(C)
        assert is_quasi_cyclic(C, m)


def test_mixed_dims_missing_pair_not_self_dual(f16):
    C = code_from_words(f16, [from_exponents(f16, [2]),
                              from_exponents(f16, [0, 1, 4])])
    assert not is_self_dual(C)


# -- code files --------------------------------------------------------------------


def test_verify_example1_optimal():
    r = verify_code_file(data_path("example1_n10k5.json"))
    assert (r["size"], r["dims"], r["min_dist"]) == (33, [5], 10)
    assert r["matches_claim"] and r["optimal"] and r["bound"] == 33


def test_verify_quasi3_code():
    r = verify_code_file(data_path("quasi3_n8k4.json"))
    assert (r["size"], r["dims"], r["min_dist"]) == (2992, [4], 4)
    assert r["matches_claim"]
    assert r["orbit_sizes"].count(85) == 35 and r["orbit_sizes"].count(17) == 1


def test_verify_example3_reports_shortfall():
    """The 20 listed generators contain a duplicate; expansion reaches 4505,
    one 85-orbit short of the claimed 4590."""
    r = verify_code_file(data_path("example3_n8k4.json"))
    assert r["duplicate_generators"] == [18]
    assert r["size"] == 4505
    assert r["matches_claim"] is False
    assert any("4590" in note for note in r["notes"])


def test_verify_selfdual_files():
    for name in ("selfdual_p2_4_m5.json", "selfdual_p2_6_m21.json",
                 "selfdual_p2_8_m85.json"):
        cf = load_code_file(data_path(name))
        C = code_from_generators(cf.field, cf.m, cf.generators)
        assert is_self_dual(C)
        assert is_quasi_cyclic(C, cf.m)


def test_constant_dimension_codes_respect_bound():
    for name in ("cyclic_n5k2.json", "spread_n6k3.json", "quasi3_n8k4.json"):
        r = verify_code_file(data_path(name))
        k = r["dims"][0]
        assert r["size"] <= etzion_vardy_bound(r["field"]["n"], r["min_dist"],
                                               k, r["field"]["q"])


# -- words held as bitsets ----------------------------------------------------------


def refuse_word_sets(*args):
    raise AssertionError("a word set was built")


def test_verify_builds_no_word_subspace(monkeypatch):
    """verify reads the orbits: of the 21,483 words of the F_{2^10} code only
    the 21 generators read from the file become Subspace objects, and
    neither it nor the 2,992-word quasi3_n8k4 code expands an orbit or
    builds a word set.  The words read later are the set built member by
    member."""
    from orbitcodes import subspace
    from orbitcodes.subspace import from_bits, orbit_bits
    built = []

    class Counted(subspace.Subspace):
        __slots__ = ()

        def __new__(cls, field, bits, dim):
            built.append(bits)
            return super().__new__(cls, field, bits, dim)

    monkeypatch.setattr(subspace, "Subspace", Counted)
    path = data_path("example2_n10k3.json")
    with monkeypatch.context() as patch:
        patch.setattr(codes, "rotate_bits", refuse_word_sets)
        patch.setattr(SubspaceCode, "bitsets", property(refuse_word_sets))
        report = verify_code_file(path)
        assert report["size"] == 21483 and report["min_dist"] == 4
        assert len(built) == report["generators"] == 21
        report = verify_code_file(data_path("quasi3_n8k4.json"))
        assert report["size"] == 2992 and report["min_dist"] == 4
    built.clear()
    cf = load_code_file(path)
    code = code_from_generators(cf.field, cf.m, cf.generators)
    assert len(built) == 21
    eager = {from_bits(cf.field, b) for g in cf.generators
             for b in orbit_bits(cf.field, g.bits, cf.m)}
    assert code.words == eager and len(built) == 21 + 2 * 21483


def test_dualize_complements_each_orbit_at_once(monkeypatch):
    """dualize of a code from generators complements no word on its own: the
    4,505 complements of example3_n8k4, two of whose generators share an
    orbit, come from one orbit_complements pass per distinct orbit, and they
    are the complements taken word by word."""
    from orbitcodes import subspace
    cf = load_code_file(data_path("example3_n8k4.json"))
    code = code_from_generators(cf.field, cf.m, cf.generators)
    want = {orthogonal_complement(w).bits for w in code.words}
    with monkeypatch.context() as patch:
        patch.setattr(subspace, "complement_bits", refuse_word_sets)
        dual = dualize(code)
    assert dual.bitsets == want and dual.size == 4505
