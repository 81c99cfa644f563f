"""Microbenchmarks of the layer kernels, on samples drawn from the seed.

Usage, from the repository root with ``src`` on PYTHONPATH:

    python3 perfbench/micro.py <seed>

Each kernel is timed over a seeded sample through its public function, in
several sweeps; the per-call time is the median sweep's time divided by the
calls in one sweep.  Samples are built before timing starts.  Prints one JSON
object mapping each metric name to its value.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from orbitcodes import (
    build_graph,
    enumerate_orbits,
    find_cliques,
    inter_orbit_distance,
    make_field,
    orbit_of,
    orthogonal_complement,
    span,
)

from jobs import seeded_polys

SWEEPS = 5


def per_call_us(fn, args_list, sweeps=SWEEPS) -> float:
    times = []
    for _ in range(sweeps):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(args_list) * 1e6


def random_subspaces(field, k, count, rng) -> list:
    out = []
    while len(out) < count:
        V = span(field, rng.sample(range(field.group_order), k))
        if V.dim == k:
            out.append(V)
    return out


def orbit_pairs(field, k, count, rng) -> list:
    orbits = [orbit_of(V) for V in random_subspaces(field, k, 2 * count, rng)]
    return [(a, b) for a, b in zip(orbits[::2], orbits[1::2]) if a.rep != b.rep]


def induced(adj, keep) -> list:
    """Adjacency bitmasks of the subgraph on the vertices in keep, renumbered."""
    pos = {v: i for i, v in enumerate(keep)}
    out = []
    for v in keep:
        mask = 0
        for w in keep:
            if (adj[v] >> w) & 1:
                mask |= 1 << pos[w]
        out.append(mask)
    return out


def clique_graphs(field, count, rng) -> list:
    """The construct workload's graph and seeded induced subgraphs of it.

    The only clique search a workload runs is on the d = 4 compatibility
    graph of the k = 3 orbits of F_2^8, so the sample is drawn from that
    graph: the whole graph, and subgraphs on a random nine tenths of its
    vertices.
    """
    adj = build_graph(list(enumerate_orbits(field, 3)), 4).adj
    n = len(adj)
    graphs = [adj]
    while len(graphs) < count:
        graphs.append(induced(adj, sorted(rng.sample(range(n), n * 9 // 10))))
    return graphs


def main(argv) -> int:
    seed = int(argv[1])
    rng = random.Random(seed)
    polys = seeded_polys(seed)
    out = {}

    field_args = [(2, n, polys[n]) for n in sorted(polys)] * 10
    out["gfext.make_field_us"] = per_call_us(make_field, field_args)
    out["gfext.make_field_calls"] = len(field_args)

    f8, f10 = make_field(2, 8, polys[8]), make_field(2, 10, polys[10])
    reps = [(orbit_of(V).rep,) for V in random_subspaces(f10, 3, 40, rng)]
    out["orbits.orbit_of_us"] = per_call_us(orbit_of, reps)
    out["orbits.orbit_of_calls"] = len(reps)

    cyclic_reps = [(o.rep,) for k in (1, 2, 3, 4) for o in enumerate_orbits(f8, k)]
    out["subspace.orthogonal_complement_us"] = per_call_us(
        orthogonal_complement, cyclic_reps)
    out["subspace.orthogonal_complement_calls"] = len(cyclic_reps)

    pairs = orbit_pairs(f8, 3, 60, rng) + orbit_pairs(f10, 3, 20, rng)
    out["construct.inter_orbit_distance_us"] = per_call_us(inter_orbit_distance, pairs)
    out["construct.inter_orbit_distance_calls"] = len(pairs)

    graphs = [(adj,) for adj in clique_graphs(f8, 10, rng)]
    out["construct.find_cliques_us"] = per_call_us(find_cliques, graphs)
    out["construct.find_cliques_calls"] = len(graphs)

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
