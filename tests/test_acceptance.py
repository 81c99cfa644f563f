"""Acceptance suite: twelve pass/fail criteria, each with a wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v -s`` so the one-line verdicts
are visible.  Criterion 5 (the complete n=10 census) is long-running and
opt-in: add ``-m extended`` (or set RUN_EXTENDED=1) to include it.
"""

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from orbitcodes import (
    assemble_code,
    build_graph,
    classify,
    code_from_generators,
    code_from_words,
    distance,
    dualize,
    enumerate_orbits,
    etzion_vardy_bound,
    find_cliques,
    from_exponents,
    is_quasi_cyclic,
    is_self_dual,
    load_code_file,
    make_field,
    min_distance,
    orbit_of,
    orthogonal_complement,
    self_dual_search,
    span,
    verify_code_file,
)
from orbitcodes.codes import gaussian_coefficient
from orbitcodes.orbits import RunBudget
from orbitcodes.subspace import divisors, stabilizer
from tests.conftest import data_path
from tests.orbit_oracle import naive_orbit_length, quasi_length_formula


class criterion:
    """Times a block, enforces its budget, prints one PASS/FAIL line."""

    def __init__(self, num, desc, budget_sec):
        self.num, self.desc, self.budget = num, desc, budget_sec

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        ok = exc_type is None and dt <= self.budget
        print(f"criterion {self.num:2d} [{'PASS' if ok else 'FAIL'}] "
              f"{dt:8.1f}s / {self.budget}s budget  -- {self.desc}")
        if exc_type is None:
            assert dt <= self.budget, (
                f"criterion {self.num} exceeded budget: {dt:.1f}s > {self.budget}s")
        return False


def all_subspaces(field, k):
    seen = set()
    for combo in itertools.combinations(range(field.group_order), k):
        V = span(field, combo)
        if V.dim == k:
            seen.add(V)
    return seen


def census_ok(field, k, m=1):
    t = classify(field, k, m)
    assert t.mass == gaussian_coefficient(field.n, k, field.q)
    assert t.diffs == [], (field.n, k, m, t.diffs)


def test_criterion_01_field_and_subspace_invariants():
    with criterion(1, "field arithmetic and subspace-metric invariants", 10):
        f9 = make_field(3, 2)
        add = f9.coord_add

        def mul(a, b):
            return a and b and f9.antilog[(f9.log[a] + f9.log[b]) % f9.group_order]

        for x, y, z in itertools.product(range(f9.order), repeat=3):
            assert add(x, y) == add(y, x)
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))

        f16 = make_field(2, 4)
        G = sorted(all_subspaces(f16, 2), key=lambda V: V.bits)
        assert len(G) == gaussian_coefficient(4, 2, 2) == 35
        for U, V in itertools.combinations_with_replacement(G, 2):
            d = distance(U, V)
            assert d == distance(V, U) >= 0
            assert (d == 0) == (U.bits == V.bits)
        for U, V, W in itertools.product(random.Random(0).sample(G, 12), repeat=3):
            assert distance(U, W) <= distance(U, V) + distance(V, W)

        for k in (1, 2, 3):
            for V in all_subspaces(f16, k):
                C = orthogonal_complement(V)
                assert C.dim == 4 - V.dim
                assert orthogonal_complement(C).bits == V.bits


def test_criterion_02_census_n6():
    with criterion(2, "cyclic orbit census for n=6 matches the published table", 30):
        f = make_field(2, 6)
        for k in (1, 2, 3):
            census_ok(f, k)


def test_criterion_03_census_n7_n8():
    with criterion(3, "cyclic orbit censuses for n=7 and n=8 match", 600):
        f7, f8 = make_field(2, 7), make_field(2, 8)
        for k in (1, 2, 3):
            census_ok(f7, k)
        for k in (1, 2, 3, 4):
            census_ok(f8, k)


def test_criterion_04_census_n9():
    with criterion(4, "cyclic orbit census for n=9 matches", 3600):
        f = make_field(2, 9)
        for k in (1, 2, 3, 4):
            census_ok(f, k)


@pytest.mark.extended
def test_criterion_05_census_n10_extended():
    with criterion(5, "complete cyclic orbit census for n=10 (extended)", 3600):
        f = make_field(2, 10)
        for k in (1, 2, 3, 4, 5):
            census_ok(f, k)


@pytest.mark.extended
def test_census_n10_k4_through_the_cli_extended():
    """classify --n 10 --k 4 --extended in its own process: mass and published
    table, with the run's wall time and peak RSS printed."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcodes.cli", "classify", "--n", "10", "--k", "4",
         "--extended", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=3600)
    wall = time.perf_counter() - t0
    # on Linux a child's ru_maxrss also counts the memory of the process that
    # started it, so this is the census's own peak only when the test runs alone
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"classify --n 10 --k 4 --extended: {wall:.1f}s wall, "
          f"{rss_mb:.0f} MB peak RSS")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["mass_ok"] and doc["mass"] == gaussian_coefficient(10, 4, 2)
    assert doc["diffs"] == []


@pytest.mark.extended
def test_code_n10_k3_d4_rebuilt_from_the_orbits_extended():
    """The paper's F_{2^10} code from scratch: every orbit of G_2(10, 3) under
    example2_n10k3.json's polynomial, the d = 4 graph, a clique search cut at
    200,000 nodes, and the assembled code, against verify on the shipped file."""
    field = load_code_file(data_path("example2_n10k3.json")).field
    t0 = time.perf_counter()
    G = build_graph(list(enumerate_orbits(field, 3)), 4)
    t1 = time.perf_counter()
    assert G.n_vertices == 5950
    assert sum(a.bit_count() for a in G.adj) // 2 == 13_015_380
    best = find_cliques(G, budget=RunBudget(max_steps=200_000))[0]
    t2 = time.perf_counter()
    print(f"n=10 k=3 d=4: graph {t1 - t0:.1f}s, clique of {best.size} "
          f"({'certified' if best.certified else 'uncertified'}) in {t2 - t1:.1f}s")
    assert best.size >= 21
    code = assemble_code(G, best)
    shipped = verify_code_file(data_path("example2_n10k3.json"))
    assert code.size == shipped["size"] == 21_483
    assert min_distance(code) == shipped["min_dist"] == 4


# Every cell where a computed n=8 quasi-cyclic census deviates from the
# published tables.  Each deviation is an omission or miscount in the
# publication: the mass invariant (orbit lengths summing to the Gaussian
# coefficient) certifies the computed value.
EXPECTED_QUASI_DIFFS = {
    (3, 2): [("full", 4, 85, 24, 25)],
    (3, 4): [("full", 4, 85, 2262, 2266),
             ("degenerate:17", 8, 17, 0, 1),
             ("degenerate-total", None, None, 0, 1)],
    (5, 4): [("orbits", 8, None, 0, 1),
             ("degenerate:17", 8, 17, 0, 1)],
    (15, 2): [("full", 4, 17, 510, 515)],
    (15, 4): [("full", 4, 17, 6000, 6020),
              ("full", 8, 17, 0, 1)],
    (51, 2): [("full", 4, 5, 2040, 2057)],
    (51, 4): [("full", 8, 5, 1836, 1904),
              ("degenerate:1", 0, 1, 0, 17),
              ("degenerate-total", None, None, 0, 17)],
    (85, 4): [("orbits", 0, None, 340, 357),
              ("degenerate:1", 0, 1, 340, 357)],
}


def test_criterion_06_quasi_censuses_n8():
    with criterion(6, "n=8 quasi-cyclic censuses for m in {3,5,15,17,51,85}", 900):
        f = make_field(2, 8)
        for m in (3, 5, 15, 17, 51, 85):
            for k in (1, 2, 3, 4):
                t = classify(f, k, m)
                assert t.mass == gaussian_coefficient(8, k, 2)
                got = [(d["table"], d["d"], d["length"],
                        d["reference"], d["computed"]) for d in t.diffs]
                assert got == EXPECTED_QUASI_DIFFS.get((m, k), []), (m, k, got)


def test_criterion_07_example_codes():
    with criterion(7, "shipped example codes verify against their claims", 300):
        r = verify_code_file(data_path("example1_n10k5.json"))
        assert (r["size"], r["dims"], r["min_dist"]) == (33, [5], 10)
        assert r["matches_claim"] and r["optimal"]

        r = verify_code_file(data_path("example2_n10k3.json"))
        assert (r["size"], r["dims"], r["min_dist"]) == (21483, [3], 4)
        assert r["matches_claim"]

        r = verify_code_file(data_path("example3_n8k4.json"))
        assert r["duplicate_generators"] == [18]
        assert r["size"] == 4505 and r["matches_claim"] is False

        r = verify_code_file(data_path("quasi3_n8k4.json"))
        assert (r["size"], r["dims"], r["min_dist"]) == (2992, [4], 4)
        assert r["matches_claim"]
        assert sorted(set(r["orbit_sizes"])) == [17, 85]

        for name in ("cyclic_n5k2.json", "spread_n6k3.json"):
            assert verify_code_file(data_path(name))["matches_claim"]


def test_criterion_08_bounds():
    with criterion(8, "packing-bound values", 1):
        assert etzion_vardy_bound(10, 4, 3, 2) == 24893
        assert etzion_vardy_bound(8, 4, 4, 2) == 6477
        assert etzion_vardy_bound(10, 10, 5, 2) == 33


def test_criterion_09_duality():
    with criterion(9, "dual tables reproduce exactly; duality preserves metrics", 60):
        f32, f64 = make_field(2, 5), make_field(2, 6)
        with open(data_path("dual_table_n5.json")) as fh:
            rows = json.load(fh)["rows"]
        assert len(rows) == 31
        for row in rows:
            got = orthogonal_complement(from_exponents(f32, row["word"]))
            assert sorted(got.exponents) == sorted(row["dual"])
        with open(data_path("dual_table_n6_spread.json")) as fh:
            rows = json.load(fh)["rows"]
        assert len(rows) == 9
        for row in rows:
            got = orthogonal_complement(from_exponents(f64, row["word"]))
            assert sorted(got.exponents) == sorted(row["dual"])

        rng = random.Random(17)
        for _ in range(100):
            words = set()
            while len(words) < 4:
                words.add(span(f64, rng.sample(range(63), 2)))
            C = code_from_words(f64, words)
            D = dualize(C)
            assert D.size == C.size
            assert min_distance(D) == min_distance(C)
            assert dualize(D).words == C.words


def test_criterion_10_self_dual_searches():
    with criterion(10, "self-dual quasi-cyclic searches over F_2^4, F_2^6, F_2^8",
                   300):
        # the published five-word 3-quasi-cyclic [4,2,5,2] code is NOT
        # self-dual under the inner product that reproduces the dual tables
        f16 = make_field(2, 4)
        C5 = code_from_generators(f16, 3, [from_exponents(f16, [2, 3, 6])])
        assert not is_self_dual(C5)
        assert sum(1 for w in C5.words
                   if orthogonal_complement(w) not in C5.words) == 2

        expected = {
            4: ((5, (4, 2, 2, 4)), "selfdual_p2_4_m5.json"),
            6: ((21, (6, 3, 3, 2)), "selfdual_p2_6_m21.json"),
            8: ((85, (8, 4, 2, 4)), "selfdual_p2_8_m85.json"),
        }
        for n, ((m, params), fname) in expected.items():
            field = make_field(2, n)
            hits = self_dual_search(field)
            for h in hits:
                assert is_self_dual(h.code) and is_quasi_cyclic(h.code, h.m)
            primary = [h for h in hits
                       if h.constant_dimension and h.single_generator]
            assert len(primary) == 1
            h = primary[0]
            assert h.m == m and h.params() == params
            cf = load_code_file(data_path(fname))
            ref = code_from_generators(cf.field, cf.m, cf.generators)
            assert h.code.words == ref.words


def test_criterion_11_orbit_length_law():
    with criterion(11, "orbit-length law verified by brute force plus witness", 300):
        for n in (4, 5, 6):
            f = make_field(2, n)
            N = f.group_order
            kmax = 3 if n == 6 else 2
            for k in range(1, kmax + 1):
                for V in all_subspaces(f, k):
                    t, _ = stabilizer(V.field, V.bits)
                    for m in divisors(N):
                        assert naive_orbit_length(V, m) == \
                            quasi_length_formula(f, t, m)
        # witness: the n=8 subfield-F_16 orbit under m=3 has length 17,
        # which the uncorrected (1/m)*D formula cannot even express
        f8 = make_field(2, 8)
        V = from_exponents(f8, range(0, 255, 17))
        t, _ = stabilizer(V.field, V.bits)
        D = f8.group_order // (2 ** t - 1)
        assert (t, D) == (4, 17) and D % 3 != 0
        assert naive_orbit_length(V, 3) == quasi_length_formula(f8, t, 3) == 17


def _dp_max_clique(adj):
    """Subset dynamic program: independent oracle for small graphs."""
    n = len(adj)
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    best = 0
    for S in range(1, 1 << n):
        v = (S & -S).bit_length() - 1
        rest = S & (S - 1)
        if is_clique[rest] and (adj[v] & rest) == rest:
            is_clique[S] = 1
            best = max(best, S.bit_count())
    return best


def test_criterion_12_clique_machinery():
    with criterion(12, "exact clique search vs oracle on 1000 graphs; "
                       "21-orbit assembly", 600):
        rng = random.Random(1234)
        for i in range(1000):
            if i % 20 == 19:
                n, p = rng.randint(15, 20), rng.choice((0.15, 0.3))
            else:
                n, p = rng.randint(1, 14), rng.choice((0.2, 0.5, 0.8))
            adj = [0] * n
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < p:
                        adj[a] |= 1 << b
                        adj[b] |= 1 << a
            res = find_cliques(adj, mode="exact")[0]
            assert res.certified
            assert res.size == _dp_max_clique(adj)
            assert all((adj[a] >> b) & 1
                       for a, b in itertools.combinations(res.vertices, 2))

        cf = load_code_file(data_path("example2_n10k3.json"))
        orbits = [orbit_of(g, 1) for g in cf.generators]
        G = build_graph(orbits, 4)
        res = find_cliques(G, mode="exact")[0]
        assert res.size == 21 and res.certified
        code = assemble_code(G, res)
        assert code.params() == (10, 3, 21483, 4)
