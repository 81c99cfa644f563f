"""Compatibility graphs, clique search, assembly, and the self-dual search."""

import functools
import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from orbitcodes import (
    assemble_code,
    build_graph,
    construct,
    distance,
    enumerate_orbits,
    find_cliques,
    from_bits,
    from_exponents,
    inter_orbit_distance,
    load_code_file,
    make_field,
    min_distance,
    orbit_of,
    read_dimacs,
    self_dual_search,
    shift,
    span,
    write_dimacs,
)
from orbitcodes.construct import CliqueResult
from orbitcodes.errors import ResourceLimit, VerificationFailed
from orbitcodes.orbits import RunBudget
from orbitcodes.subspace import divisors, orbit_bits
from tests.conftest import data_path, refused
from tests.orbit_oracle import pairwise_graph


def random_adj(rng, n, p=0.5):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def brute_max_clique(adj):
    n = len(adj)
    for r in range(n, 0, -1):
        for comb in itertools.combinations(range(n), r):
            if all((adj[a] >> b) & 1 for a, b in itertools.combinations(comb, 2)):
                return r
    return 0


# -- inter-orbit distance ------------------------------------------------------------


def test_inter_orbit_distance_matches_all_pairs(f64):
    rng = random.Random(11)
    orbits = [orbit_of(span(f64, rng.sample(range(63), 3)), 1) for _ in range(6)]
    for A, B in itertools.combinations(orbits, 2):
        if A.rep.bits == B.rep.bits:
            continue
        naive = min(distance(from_bits(f64, a), from_bits(f64, b))
                    for a in orbit_bits(f64, A.rep.bits) for b in orbit_bits(f64, B.rep.bits))
        assert inter_orbit_distance(A, B) == naive
        assert inter_orbit_distance(B, A) == naive  # symmetry


def test_inter_orbit_distance_rep_invariant(f64):
    A = orbit_of(from_exponents(f64, [0, 1, 56]), 1)
    B = orbit_of(from_exponents(f64, [0, 2, 49]), 1)
    if A.rep.bits != B.rep.bits:
        base = inter_orbit_distance(A, B)
        for e in (3, 17, 40):
            A2 = orbit_of(shift(A.rep, e), 1)
            assert inter_orbit_distance(A2, B) == base


def test_same_orbit_rejected(f64):
    A = orbit_of(from_exponents(f64, [0, 1, 56]), 1)
    B = orbit_of(shift(A.rep, 5), 1)
    with refused("orbits are identical"):
        inter_orbit_distance(A, B)


def test_field_mismatch_rejected(f16, f64):
    A = orbit_of(from_exponents(f16, [0, 1, 4]), 1)
    B = orbit_of(from_exponents(f64, [0, 1, 56]), 1)
    with refused("orbits must share a field and modulus"):
        inter_orbit_distance(A, B)


# -- graph construction ---------------------------------------------------------------


def test_build_graph_excludes_low_internal_distance(f64):
    orbits = list(enumerate_orbits(f64, 3, 1))
    G = build_graph(orbits, 4)
    assert len(G.orbits) + len(G.excluded) == len(orbits)
    assert all(o.min_dist >= 4 for o in G.orbits)
    assert all(o.min_dist < 4 for o in G.excluded)


def test_graph_degrees_match_distance_matrix(f64):
    orbits = list(enumerate_orbits(f64, 2, 1))
    G = build_graph(orbits, 4)
    for i, A in enumerate(G.orbits):
        expected = sum(
            1 for j, B in enumerate(G.orbits)
            if j != i and inter_orbit_distance(A, B) >= 4)
        assert G.adj[i].bit_count() == expected


# x^8 + x^6 + x^5 + x^4 + 1, constant term first
F256_OTHER_POLY = (1, 0, 0, 0, 1, 1, 1, 0, 1)
ORACLE_SAMPLE = 40


def _orbits(q, n, poly, k, m):
    return list(enumerate_orbits(make_field(q, n, poly), k, m))


@functools.lru_cache(maxsize=1)
def _f256_included(poly, k, m):
    """The m-quasi orbits of G_2(8, k) with min_dist >= 4, the least d tested."""
    return [o for o in enumerate_orbits(make_field(2, 8, poly), k, m) if o.min_dist >= 4]


def _oracle_sample(poly, k, m, d):
    """The m-quasi orbits of G_2(8, k) with min_dist >= d, all of them when
    the pairwise oracle can afford them, else a seeded sample: a run of
    consecutive orbits, siblings of a few cyclic orbits, and as many drawn
    from the rest."""
    orbits = [o for o in _f256_included(poly, k, m) if o.min_dist >= d]
    if len(orbits) <= 10 * ORACLE_SAMPLE:
        return orbits
    rng = random.Random(f"{poly}-{k}-{m}-{d}")
    start = rng.randrange(len(orbits) - ORACLE_SAMPLE)
    rest = orbits[:start] + orbits[start + ORACLE_SAMPLE:]
    return orbits[start:start + ORACLE_SAMPLE] + rng.sample(rest, ORACLE_SAMPLE)


# (k, d) varies fastest, so each orbit list is enumerated once
@pytest.mark.parametrize("k,d", [(3, 4), (4, 4), (4, 6)])
@pytest.mark.parametrize("m", divisors(255))
@pytest.mark.parametrize("poly", [None, F256_OTHER_POLY], ids=["default", "other"])
def test_graph_matches_pairwise_oracle_f256(poly, m, k, d):
    orbits = _oracle_sample(poly, k, m, d)
    G, oracle = build_graph(orbits, d), pairwise_graph(orbits, d)
    assert G.orbits == oracle.orbits and G.adj == oracle.adj


@pytest.mark.parametrize("m", divisors(80))
@pytest.mark.parametrize("k", [2, 3])
def test_graph_matches_pairwise_oracle_f81(k, m):
    orbits = _orbits(3, 4, None, k, m)
    for d in (2, 4):
        assert build_graph(orbits, d).adj == pairwise_graph(orbits, d).adj


@pytest.mark.parametrize("m", [1, 3])
def test_graph_of_mixed_dimensions_matches_pairwise_oracle(m):
    """Dimensions 1..5 of F_2^6 together: t = (kA + kB - d) // 2 + 1 per pair,
    above the smaller dimension for some pairs."""
    orbits = [o for k in range(1, 6) for o in _orbits(2, 6, None, k, m)]
    for d in (2, 4, 6):
        G, oracle = build_graph(orbits, d), pairwise_graph(orbits, d)
        assert G.orbits == oracle.orbits and G.adj == oracle.adj


def test_threshold_above_distance_cap_gives_empty_edges(f64):
    orbits = list(enumerate_orbits(f64, 2, 1))
    G = build_graph(orbits, 6)  # 2k = 4 < 6: no pair can reach it
    assert all(a == 0 for a in G.adj)


def test_dimacs_round_trip(tmp_path, f64):
    orbits = list(enumerate_orbits(f64, 3, 1))
    G = build_graph(orbits, 4)
    path = str(tmp_path / "g.dimacs")
    write_dimacs(G, path)
    n, adj = read_dimacs(path)
    assert n == G.n_vertices and adj == G.adj


def test_dimacs_write_and_read_hold_no_edge_list(tmp_path, f256):
    """write_dimacs and read_dimacs hold one vertex's edges or one line at a
    time: on the 10,596 edges of the n = 8, k = 3, d = 4 graph neither
    allocates 256 KiB at its peak, the adjacency read back included."""
    G = build_graph(list(enumerate_orbits(f256, 3, 1)), 4)
    path = str(tmp_path / "g.dimacs")
    tracemalloc.start()
    try:
        write_dimacs(G, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        n, adj = read_dimacs(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == G.n_vertices and adj == G.adj
    assert sum(map(int.bit_count, adj)) // 2 == 10596
    assert write_peak < 2**18 and read_peak < 2**18


# -- clique search ---------------------------------------------------------------------


def test_exact_clique_matches_exhaustive_small():
    rng = random.Random(2)
    for _ in range(300):
        adj = random_adj(rng, rng.randint(1, 13), rng.choice((0.2, 0.5, 0.8)))
        res = find_cliques(adj, mode="exact")[0]
        assert res.certified
        assert res.size == brute_max_clique(adj)
        assert all((adj[a] >> b) & 1
                   for a, b in itertools.combinations(res.vertices, 2))


def test_greedy_clique_valid_and_deterministic():
    rng = random.Random(5)
    adj = random_adj(rng, 30, 0.6)
    r1 = find_cliques(adj, mode="greedy", seed=42)
    r2 = find_cliques(adj, mode="greedy", seed=42)
    assert [c.vertices for c in r1] == [c.vertices for c in r2]
    for c in r1:
        assert not c.certified
        assert all((adj[a] >> b) & 1
                   for a, b in itertools.combinations(c.vertices, 2))


def seeded_graphs():
    rng = random.Random(16)
    return [random_adj(rng, rng.randint(0, 36), rng.choice((0.3, 0.6, 0.85)))
            for _ in range(40)]


# sha256 of the repr of [(vertices, certified) of each result] of exact mode
# and of greedy mode (seed = the graph's index), on each of seeded_graphs(),
# taken from find_cliques as it was before it ran on RunBudget
SEEDED_CLIQUES_SHA256 = "4611b5a7bb89a3e8ed2905ca9dcbd621139ef2e652cc47d40d26d889fbb88d89"


@pytest.mark.parametrize("budget", [
    None,
    RunBudget(max_seconds=3600, max_steps=10 ** 9),
], ids=["none", "ample"])
def test_cliques_of_seeded_graphs_are_pinned(budget):
    out = []
    for i, adj in enumerate(seeded_graphs()):
        for mode in ("exact", "greedy"):
            res = find_cliques(adj, budget, mode=mode, seed=i)
            out.append([(r.vertices, r.certified) for r in res])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == SEEDED_CLIQUES_SHA256


def test_exact_step_budget_counts_nodes():
    """On each seeded graph there is one node count from which the exact
    search certifies its unbudgeted result; every smaller step budget stops
    it uncertified, with a clique no larger."""
    for adj in seeded_graphs()[:12]:
        full = find_cliques(adj)[0]
        steps = 1
        while not (res := find_cliques(adj, RunBudget(max_steps=steps))[0]).certified:
            assert res.size <= full.size
            assert all((adj[a] >> b) & 1 for a, b in itertools.combinations(res.vertices, 2))
            steps += 1
        assert res == full == find_cliques(adj, RunBudget(max_steps=steps + 1))[0]


def test_n8_k3_d4_exact_search_takes_1163_nodes(f256):
    """The paper's n = 8, k = 3, d = 4 graph: the exact search certifies its
    five-orbit clique at its 1,163rd node, and one node less leaves it
    uncertified, with the same clique found."""
    G = build_graph(list(enumerate_orbits(f256, 3)), 4)
    best = CliqueResult((72, 236, 243, 296, 307), True)
    assert find_cliques(G)[0] == best
    assert find_cliques(G, RunBudget(max_steps=1163))[0] == best
    assert find_cliques(G, RunBudget(max_steps=1162))[0] == best._replace(certified=False)


def test_exact_budget_exhaustion_uncertified():
    rng = random.Random(9)
    adj = random_adj(rng, 40, 0.9)
    res = find_cliques(adj, RunBudget(max_steps=3), mode="exact")[0]
    assert not res.certified  # budget of 3 nodes cannot finish a 40-vertex graph


def test_exact_time_budget_returns_best_so_far():
    """max_seconds is wall-clock time: the search stops near it, uncertified."""
    rng = random.Random(11)
    adj = random_adj(rng, 120, 0.9)
    t0 = time.monotonic()
    res = find_cliques(adj, RunBudget(max_seconds=0.3), mode="exact")[0]
    assert time.monotonic() - t0 < 5
    assert not res.certified and res.size >= 2
    assert all((adj[a] >> b) & 1 for a, b in itertools.combinations(res.vertices, 2))


def test_time_budget_that_suffices_still_certifies():
    rng = random.Random(2)
    adj = random_adj(rng, 13, 0.5)
    res = find_cliques(adj, RunBudget(max_seconds=60), mode="exact")[0]
    assert res.certified and res.size == brute_max_clique(adj)


def test_greedy_time_budget_stops_restarts():
    """A start scans all 1,024 vertices, so each one passes a multiple of
    1024 steps and reads the clock: a zero time budget runs one start."""
    adj = [0] * 1024                    # no edges: each start's clique is one vertex
    full = find_cliques(adj, mode="greedy", seed=3)
    assert len(full) == 16
    res = find_cliques(adj, RunBudget(max_seconds=0), mode="greedy", seed=3)
    assert res == full[:1] and not res[0].certified


@pytest.mark.parametrize("starts", [1, 2, 5])
def test_greedy_step_budget_stops_restarts(starts):
    """A start is one step per vertex, and the budget is read after each
    start: the start that takes the count past max_steps is the last."""
    adj = [0] * 50
    full = find_cliques(adj, mode="greedy", seed=3)
    budget = RunBudget(max_steps=50 * (starts - 1))
    assert find_cliques(adj, budget, mode="greedy", seed=3) == full[:starts]


def test_edgeless_graph():
    res = find_cliques([0, 0, 0], mode="exact")[0]
    assert res.size == 1 and res.certified


# -- assembly ---------------------------------------------------------------------------


def test_assemble_single_orbit_code(f256):
    orbits = [O for O in enumerate_orbits(f256, 3, 1)
              if O.length == 255 and O.min_dist == 4]
    G = build_graph(orbits[:1], 4)
    code = assemble_code(G, CliqueResult((0,), True))
    assert code.params() == (8, 3, 255, 4)


def test_assemble_rejects_non_clique(f64):
    orbits = list(enumerate_orbits(f64, 2, 1))
    G = build_graph(orbits, 4)
    non_edge = None
    for i in range(G.n_vertices):
        for j in range(i + 1, G.n_vertices):
            if not (G.adj[i] >> j) & 1:
                non_edge = (i, j)
                break
        if non_edge:
            break
    if non_edge:
        with pytest.raises(VerificationFailed):
            assemble_code(G, CliqueResult(non_edge, False))


def test_example2_orbits_form_certified_21_clique():
    cf = load_code_file(data_path("example2_n10k3.json"))
    orbits = [orbit_of(g, 1) for g in cf.generators]
    assert all(o.min_dist >= 4 and o.length == 1023 for o in orbits)
    G = build_graph(orbits, 4)
    assert G.n_vertices == 21 and not G.excluded
    res = find_cliques(G, mode="exact")[0]
    assert res.size == 21 and res.certified
    code = assemble_code(G, res)
    assert code.params() == (10, 3, 21483, 4)
    assert min_distance(code) >= G.threshold  # independent recomputation


# -- self-dual search --------------------------------------------------------------------


def test_self_dual_search_p2_4(f16):
    hits = self_dual_search(f16)
    primary = [h for h in hits if h.constant_dimension and h.single_generator]
    assert len(primary) == 1
    h = primary[0]
    assert h.m == 5 and h.params() == (4, 2, 2, 4)
    words = {tuple(sorted(w.exponents)) for w in h.code.words}
    assert words == {(2, 7, 12), (4, 9, 14)}


def test_self_dual_search_p2_6(f64):
    hits = self_dual_search(f64)
    primary = [h for h in hits if h.constant_dimension and h.single_generator]
    assert len(primary) == 1
    h = primary[0]
    assert h.m == 21 and h.params() == (6, 3, 3, 2)
    words = {tuple(sorted(w.exponents)) for w in h.code.words}
    assert words == {(9, 24, 30, 33, 43, 50, 51),
                     (1, 8, 9, 30, 45, 51, 54),
                     (3, 9, 12, 22, 29, 30, 51)}


def test_self_dual_search_results_genuine():
    from orbitcodes import is_quasi_cyclic, is_self_dual
    from orbitcodes.orbits import RunBudget
    from orbitcodes.subspace import divisors, orbit_bits
    for q, n in ((2, 4), (2, 6), (3, 3)):
        field = make_field(q, n)
        N = field.group_order
        hits = self_dual_search(field)
        assert hits
        for h in hits:
            assert is_self_dual(h.code)
            # the moduli are exactly the proper m whose shift fixes the word set
            assert h.moduli == tuple(m for m in divisors(N)
                                     if m != N and is_quasi_cyclic(h.code, m))
            assert h.m == h.moduli[0]
            quasi_orbits = {frozenset(orbit_bits(field, w.bits, h.m)) for w in h.code.words}
            assert h.orbit_count == len(quasi_orbits)
            # minimality: no other hit's word set is strictly contained
            for other in hits:
                if other is not h:
                    assert not (other.code.words < h.code.words)


def test_self_dual_search_budget_guard(monkeypatch):
    # P_2(9) is refused at the default limit before any work
    with pytest.raises(ResourceLimit, match="P_2\\(9\\) has 8283458 subspaces"):
        self_dual_search(make_field(2, 9))
    monkeypatch.setattr(construct, "SELFDUAL_MAX_BYTES", 100)
    with pytest.raises(ResourceLimit, match="over the limit of 0.0 MB"):
        self_dual_search(make_field(2, 6))
