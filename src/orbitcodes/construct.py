"""Code construction as graph search, plus the self-dual quasi-cyclic search.

Orbits become vertices of a compatibility graph with an edge whenever the
joint minimum distance of two orbits meets the threshold; any clique's
orbit union is a (quasi-)cyclic code with that minimum distance.  The
self-dual search pairs every subspace with its orthogonal complement and
reads off the connected components of that pairing at the quasi-orbit
level: each component is a minimal self-dual m-quasi-cyclic code.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from math import gcd

from .codes import SubspaceCode, code_from_generators, is_self_dual, min_distance
from .errors import (
    FieldMismatch,
    OddDistance,
    ParseError,
    ResourceLimit,
    SameOrbit,
    VerificationFailed,
)
from .gfext import FieldSpec
from .orbits import Orbit, cyclic_orbit_data, divisors
from .subspace import (
    complement_bits,
    cyclic_overlaps,
    from_bits,
    meet_dim,
    orbit_bits,
)


# -- compatibility graph ---------------------------------------------------------


def inter_orbit_distance(A: Orbit, B: Orbit) -> int:
    """Minimum distance between any member of A and any member of B.

    By the shift identity it is the distance from A's representative to the
    nearest member of B, the one with the largest overlap; B's members are
    the shifts of its representative by multiples of m, so the overlaps are
    every m-th entry of one correlation.
    """
    if A.field != B.field or A.m != B.m:
        raise FieldMismatch("orbits must share a field and modulus")
    if A.rep.bits == B.rep.bits:
        raise SameOrbit("orbits are identical")
    overlap = cyclic_overlaps(A.field, A.rep.bits, B.rep.bits)
    return A.k + B.k - 2 * meet_dim(A.field.q, overlap[::A.m], min(A.k, B.k))


@dataclass
class CompatGraph:
    """Orbit compatibility graph at a distance threshold."""

    orbits: list                       # included orbits, one per vertex
    threshold: int
    adj: list                          # adjacency bitmasks over vertex indices
    excluded: list = dc_field(default_factory=list)  # orbits with internal d < threshold

    @property
    def n_vertices(self) -> int:
        return len(self.orbits)

    def is_clique(self, vertices) -> bool:
        vs = list(vertices)
        return all(((self.adj[v] >> w) & 1) for i, v in enumerate(vs)
                   for w in vs[i + 1:])


def build_graph(orbits, d: int) -> CompatGraph:
    """Graph over orbits whose internal minimum distance meets the threshold d."""
    if d < 2 or d % 2 != 0:
        raise OddDistance(f"threshold d={d} must be even and >= 2")
    included = [o for o in orbits if o.min_dist >= d]
    excluded = [o for o in orbits if o.min_dist < d]
    n = len(included)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if inter_orbit_distance(included[i], included[j]) >= d:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return CompatGraph(included, d, adj, excluded)


def write_dimacs(G: CompatGraph, path) -> None:
    """Export in DIMACS edge-list format for external solvers."""
    edges = [(i + 1, j + 1) for i in range(G.n_vertices)
             for j in range(i + 1, G.n_vertices) if (G.adj[i] >> j) & 1]
    with open(path, "w") as fh:
        fh.write(f"p edge {G.n_vertices} {len(edges)}\n")
        for i, j in edges:
            fh.write(f"e {i} {j}\n")


# One adjacency bitmask per vertex is allocated from the p line alone, so the
# vertex count is capped well above any graph the exact search can finish.
MAX_DIMACS_VERTICES = 1 << 20


def read_dimacs(path):
    """Read a DIMACS edge list; returns (n_vertices, adjacency bitmasks).

    A missing or unreadable file, a missing or repeated p line, a vertex
    count above MAX_DIMACS_VERTICES, or an edge that is malformed or names
    a vertex outside 1..n is a ParseError.
    """
    n, adj = None, []
    try:
        with open(path) as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read DIMACS file {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if not parts or parts[0] not in ("p", "e"):
            continue
        where = f"DIMACS file {path} line {lineno}"
        try:
            nums = [int(x) for x in (parts[2:4] if parts[0] == "p" else parts[1:3])]
        except ValueError:
            raise ParseError(f"{where}: expected integers") from None
        if parts[0] == "p":
            if n is not None or len(nums) != 2 or nums[0] < 0:
                raise ParseError(f"{where}: expected one 'p edge <vertices> <edges>'")
            if nums[0] > MAX_DIMACS_VERTICES:
                raise ParseError(f"{where}: more than {MAX_DIMACS_VERTICES} vertices")
            n = nums[0]
            adj = [0] * n
            continue
        if n is None:
            raise ParseError(f"{where}: edge before the 'p' line")
        if len(nums) != 2 or not all(1 <= v <= n for v in nums):
            raise ParseError(f"{where}: edge must join two vertices in 1..{n}")
        i, j = nums[0] - 1, nums[1] - 1
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if n is None:
        raise ParseError(f"DIMACS file {path} has no 'p edge' line")
    return n, adj


# -- clique search ----------------------------------------------------------------


@dataclass
class CliqueResult:
    vertices: tuple
    certified: bool

    @property
    def size(self) -> int:
        return len(self.vertices)


def find_cliques(G, budget: int | None = None, mode: str = "exact",
                 seed: int = 0, starts: int = 64,
                 seconds: float | None = None) -> list:
    """Best cliques found; exact mode certifies optimality within its budgets.

    G may be a CompatGraph or a plain adjacency bitmask list.  Exact mode
    stops after budget search nodes or after seconds of wall-clock time,
    whichever comes first, and then returns the best clique so far with
    certified=False.  Greedy mode tries starts random orders, fewer if
    seconds run out first; it ignores budget and never certifies.
    """
    adj = G.adj if isinstance(G, CompatGraph) else list(G)
    deadline = None if seconds is None else time.monotonic() + seconds
    if mode == "exact":
        best, certified = _max_clique_exact(adj, budget, deadline)
        return [CliqueResult(tuple(sorted(best)), certified)]
    if mode == "greedy":
        return _greedy_cliques(adj, seed, starts, deadline)
    raise ValueError(f"unknown mode {mode!r}")


def _greedy_cliques(adj, seed, starts, deadline=None):
    n = len(adj)
    rng = random.Random(seed)
    seen = {}
    for start in range(max(1, starts)):
        if start and deadline is not None and time.monotonic() > deadline:
            break
        order = list(range(n))
        rng.shuffle(order)
        clique = []
        cmask = (1 << n) - 1
        for v in order:
            if (cmask >> v) & 1:
                clique.append(v)
                cmask &= adj[v]
        key = tuple(sorted(clique))
        seen[key] = True
    results = sorted(seen, key=len, reverse=True)
    return [CliqueResult(k, False) for k in results[:16]]


def _color_bound(adj, pmask):
    """Greedy coloring of the candidate set; returns vertices ordered by color."""
    order = []
    color_of = []
    color = 0
    rest = pmask
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append(v)
            color_of.append(color)
            avail &= ~adj[v]
            avail &= ~low
            rest &= ~low
    return order, color_of


def _max_clique_exact(adj, node_budget=None, deadline=None):
    """Branch and bound with the coloring bound; (best, certified).

    The clock is read every 1024 nodes; a search stopped by either budget
    keeps the best clique found so far and is not certified.
    """
    n = len(adj)
    best = []
    nodes = 0
    exhausted = False

    def expand(rmembers, pmask):
        nonlocal nodes, best, exhausted
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            return
        nodes += 1
        if deadline is not None and nodes & 0x3FF == 0 and time.monotonic() > deadline:
            exhausted = True
            return
        order, colors = _color_bound(adj, pmask)
        for i in range(len(order) - 1, -1, -1):
            if exhausted:
                return
            if len(rmembers) + colors[i] <= len(best):
                return
            v = order[i]
            rmembers.append(v)
            newp = pmask & adj[v]
            if newp:
                expand(rmembers, newp)
            elif len(rmembers) > len(best):
                best = rmembers[:]
            rmembers.pop()
            pmask &= ~(1 << v)

    if n:
        expand([], (1 << n) - 1)
    return best, not exhausted


def assemble_code(G: CompatGraph, clique: CliqueResult) -> SubspaceCode:
    """Union of the clique's orbits, re-verified against the threshold."""
    if not G.is_clique(clique.vertices):
        raise VerificationFailed("vertex set is not a clique in the graph")
    orbits = [G.orbits[i] for i in clique.vertices]
    field = orbits[0].field
    code = code_from_generators(field, orbits[0].m, [o.rep for o in orbits])
    if code.size >= 2 and min_distance(code) < G.threshold:
        raise VerificationFailed("assembled code misses the distance threshold")
    return code


# -- self-dual quasi-cyclic search -------------------------------------------------


@dataclass
class SelfDualHit:
    """One minimal self-dual m-quasi-cyclic code."""

    m: int                    # smallest modulus exhibiting the quasi-cyclic closure
    moduli: tuple             # all proper divisors m of q^n-1 that work
    code: SubspaceCode
    constant_dimension: bool
    orbit_count: int          # number of m-quasi orbits the word set splits into

    @property
    def single_generator(self) -> bool:
        """True when the code is the dual closure of one quasi orbit.

        Such a code is orbit(V) united with orbit(V-perp) for a single
        subspace V, i.e. it splits into at most two quasi orbits.
        """
        return self.orbit_count <= 2

    def params(self) -> tuple:
        return self.code.params()


def _orbit_count(field: FieldSpec, bitset, m: int) -> int:
    seen, count = set(), 0
    for b in bitset:
        if b not in seen:
            count += 1
            seen.update(orbit_bits(field, b, m))
    return count


def self_dual_search(field: FieldSpec, max_space: int = 1 << 21,
                     include_trivial: bool = False) -> list:
    """All minimal self-dual m-quasi-cyclic codes in P_q(n), every proper m.

    Pairs each subspace with its orthogonal complement once, then for each
    modulus m reads off connected components of the pairing at the
    quasi-orbit level.  Every component is a self-dual m-quasi-cyclic code
    and every minimal one arises this way.  Components are deduplicated
    across moduli and filtered to the inclusion-minimal, nontrivial ones
    (m = q^n-1 is excluded: the shift is the identity and every dual-closed
    set would qualify; the {0, full-space} pair is likewise uninformative
    unless include_trivial is set).
    """
    from .codes import gaussian_coefficient, is_quasi_cyclic

    n, q, N = field.n, field.q, field.group_order
    total = sum(gaussian_coefficient(n, k, q) for k in range(n + 1))
    if total > max_space:
        raise ResourceLimit(f"P_{q}({n}) has {total} subspaces > limit {max_space}")

    # the cyclic orbits of every dimension, each as its list of members
    # gamma^j V, plus a member -> (orbit, j) index
    orbit_base = [(0, [0])]      # (k, members)
    for k in range(1, n):
        orbit_base += [(k, orbit_bits(field, rec.rep_bits))
                       for rec in cyclic_orbit_data(field, k)]
    orbit_base.append((n, [(1 << N) - 1]))
    index = {}
    for oid, (_, members) in enumerate(orbit_base):
        for j, b in enumerate(members):
            index[b] = (oid, j)

    # orthogonal-complement pairing at the member level (each pair once)
    pairs = []
    for oid, (k, members) in enumerate(orbit_base):
        if 2 * k <= n:
            pairs += [((oid, j), index[complement_bits(field, b, k)])
                      for j, b in enumerate(members)]

    moduli = [m for m in divisors(N) if m != N]
    components = {}      # frozenset of word bits -> set of moduli
    for m in moduli:
        g = [gcd(m, len(members)) for (_, members) in orbit_base]
        offset = [0, *accumulate(g)]
        parent = list(range(offset[-1]))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for (o1, j1), (o2, j2) in pairs:
            union(offset[o1] + j1 % g[o1], offset[o2] + j2 % g[o2])

        # quasi orbit s of cyclic orbit oid is its members s, s+g, s+2g, ...
        groups = {}
        for oid, gi in enumerate(g):
            for s in range(gi):
                groups.setdefault(find(offset[oid] + s), []).append((oid, s))
        for quasi in groups.values():
            key = frozenset(b for oid, s in quasi
                            for b in orbit_base[oid][1][s::g[oid]])
            components.setdefault(key, set()).add(m)

    # filter: nontrivial, inclusion-minimal across all moduli
    hits = []
    keys = sorted(components, key=len)
    kept = []
    trivial_pair = frozenset({0, (1 << N) - 1})
    for key in keys:
        if not include_trivial and key == trivial_pair:
            continue
        if any(small < key for small in kept):
            continue
        kept.append(key)
        words = frozenset(from_bits(field, b) for b in key)
        code = SubspaceCode(field, words)
        ms = tuple(sorted(components[key]))
        hit = SelfDualHit(ms[0], ms, code, code.constant_dimension,
                          _orbit_count(field, key, ms[0]))
        if not is_self_dual(code):
            raise VerificationFailed("component is not self-dual: internal error")
        if not is_quasi_cyclic(code, hit.m):
            raise VerificationFailed("component is not quasi-cyclic: internal error")
        hits.append(hit)
    hits.sort(key=lambda h: (not h.constant_dimension, h.code.size, h.m))
    return hits
