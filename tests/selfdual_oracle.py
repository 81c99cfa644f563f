"""The per-modulus self-dual search that the maximal-moduli search replaced, as an oracle.

self_dual_search runs a union-find over every member pair at each proper
divisor m of q^n - 1, deduplicates the component word sets across moduli
in a dict, keeps the inclusion-minimal ones by a scan over the sets kept
so far, and counts each hit's quasi orbits by rotating its words, as the
code did before the search ran the union-find only at the maximal moduli.
Its hits are OracleHit records, each holding the SubspaceCode it checked.

complement_pairs is the pairing self_dual_search made while it held every
subspace's bitset: each word found its complement's member id in a dict
from bitset to id.  shifted is the per-member formula the search's
quasi-cyclic check read before the rotation table.

components_at is one level of the maximal-moduli search as it was while
each level kept a member -> node map (node_of) and its union-find parent
list for the whole search, and read_out reads a component's moduli and
quasi-orbit count from sets of (orbit, s) tuples, as that search did.
path_halving_roots is the union-find those levels ran, by path halving,
before the search selected the complement pairs once and joined them by
Rem's algorithm.
"""

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from math import gcd
from operator import add, le, mod, sub

from orbitcodes.codes import SubspaceCode, gaussian_coefficient, is_quasi_cyclic, is_self_dual
from orbitcodes.errors import ResourceLimit, VerificationFailed
from orbitcodes.orbits import cyclic_orbit_data
from orbitcodes.subspace import complement_bits, divisors, orbit_bits


@dataclass
class OracleHit:
    """One minimal self-dual m-quasi-cyclic code found by the oracle."""

    m: int
    moduli: tuple
    code: SubspaceCode
    orbit_count: int

    @property
    def words(self) -> tuple:
        return tuple(sorted(self.code.bitsets))

    @property
    def dims(self) -> tuple:
        return self.code.dims

    @property
    def size(self) -> int:
        return self.code.size

    @property
    def constant_dimension(self) -> bool:
        return self.code.constant_dimension


def _orbit_count(field, bitset, m: int) -> int:
    seen, count = set(), 0
    for b in bitset:
        if b not in seen:
            count += 1
            seen.update(orbit_bits(field, b, m))
    return count


def complement_pairs(field) -> tuple:
    """The orthogonal-complement pairing as two lists of words.

    Member j of the cyclic orbit oid, orbit_bits(field, rep)[j] with the
    orbits of dimensions 0..n in cyclic_orbit_data order, has id
    start[oid] + j.  Each pair appears once: a member of the middle
    dimension (2k = n) is complemented only if it is not the complement of
    one already seen.  The pairs are found as ids and returned as words.
    """
    n = field.n
    orbit_base = [(k, orbit_bits(field, rec.rep_bits))
                  for k in range(n + 1) for rec in cyclic_orbit_data(field, k)]
    words = list(chain.from_iterable(members for _, members in orbit_base))
    start = [0, *accumulate(len(members) for _, members in orbit_base)]
    index = dict(zip(words, range(len(words))))
    left, right = [], []
    met = bytearray(len(words))
    for oid, (k, members) in enumerate(orbit_base):
        if 2 * k < n:
            left += range(start[oid], start[oid + 1])
            right += [index[complement_bits(field, b, k)] for b in members]
        elif 2 * k == n:
            for i in range(start[oid], start[oid + 1]):
                if not met[i]:
                    c = index[complement_bits(field, words[i], k)]
                    met[c] = 1
                    left.append(i)
                    right.append(c)
    return [words[i] for i in left], [words[i] for i in right]


def shifted(orbits, ids, m: int):
    """The id of gamma^m times each member of an _OrbitTable, in their order.

    Member i of orbit oid, which starts at b = start[oid], goes to
    b + (i - b + m) mod D.
    """
    oids = list(map(orbits.orbit_of.__getitem__, ids))
    base = list(map(orbits.start.__getitem__, oids))
    return map(add, base, map(mod, map(add, map(sub, ids, base), repeat(m)),
                              map(orbits.lengths.__getitem__, oids)))


def self_dual_search(field, max_space: int = 1 << 21) -> list:
    """All minimal self-dual m-quasi-cyclic codes in P_q(n), every proper m.

    Pairs each subspace with its orthogonal complement once, then for each
    modulus m reads off connected components of the pairing at the
    quasi-orbit level.  Every component is a self-dual m-quasi-cyclic code
    and every minimal one arises this way.  Components are deduplicated
    across moduli and filtered to the inclusion-minimal, nontrivial ones
    (m = q^n-1 is excluded: the shift is the identity and every dual-closed
    set would qualify; so is the {0, full-space} pair, which every modulus
    closes).
    """
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
        if key == trivial_pair:
            continue
        if any(small < key for small in kept):
            continue
        kept.append(key)
        code = SubspaceCode(field, key)
        ms = tuple(sorted(components[key]))
        hit = OracleHit(ms[0], ms, code, _orbit_count(field, key, ms[0]))
        if not is_self_dual(code):
            raise VerificationFailed("component is not self-dual: internal error")
        if not is_quasi_cyclic(code, hit.m):
            raise VerificationFailed("component is not quasi-cyclic: internal error")
        hits.append(hit)
    hits.sort(key=lambda h: (not h.constant_dimension, h.code.size, h.m))
    return hits


@dataclass
class OracleLevel:
    """The quasi orbits at one maximal modulus M, with their member -> node map.

    Member j of cyclic orbit oid has id start[oid] + j; its quasi orbit s,
    with g = gcd(M, orbit size), is node offset[oid] + s.  node_of maps each
    member id to its node, parent each node to its root, its smallest node,
    and sizes each root to its component's number of members.
    """

    M: int
    g: list
    offset: list
    node_oid: array
    node_of: array
    parent: list
    sizes: dict


def path_halving_roots(count: int, pairs) -> list:
    """The root of each of count nodes joined by the node pairs, its component's smallest node.

    The union-find the search ran before Rem's algorithm: each end is found
    by path halving, and the larger root is linked under the smaller, so
    every parent precedes its child and one ascending pass sets each node
    to its root.
    """
    parent = list(range(count))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for x, r in enumerate(parent):
        parent[x] = parent[r]
    return parent


def components_at(M: int, sizes: list, perp_id) -> tuple:
    """(OracleLevel of modulus M, its components as arrays of ascending nodes)."""
    g = [gcd(M, size) for size in sizes]
    offset = [0, *accumulate(g)]
    node_oid = array("i", [oid for oid, gi in enumerate(g) for _ in range(gi)])
    node_of = array("i")
    for oid, size in enumerate(sizes):
        node_of += array("i", range(offset[oid], offset[oid + 1])) * (size // g[oid])
    ids = range(len(perp_id))
    left = compress(ids, map(le, ids, perp_id))
    right = compress(perp_id, map(le, ids, perp_id))
    parent = path_halving_roots(offset[-1], zip(map(node_of.__getitem__, left),
                                                map(node_of.__getitem__, right)))
    groups = {}
    for x, r in enumerate(parent):
        if r == x:
            groups[x] = array("i", (x,))
        else:
            groups[r].append(x)
    node_size = [size // gi for size, gi in zip(sizes, g)]
    comp_size = {r: sum(node_size[node_oid[x]] for x in nodes) for r, nodes in groups.items()}
    level = OracleLevel(M, g, offset, node_oid, node_of, parent, comp_size)
    return level, list(groups.values())


def read_out(level: OracleLevel, nodes, proper: list) -> tuple:
    """(moduli, m0-quasi-orbit count) of a component, from sets of (orbit, s).

    m0 is the first divisor of M whose shift maps the quasi orbits
    (orbit, s) onto themselves; the m0-quasi orbits are the distinct
    (orbit, s mod gcd(m0, g)).
    """
    oids = [level.node_oid[x] for x in nodes]
    ss = [x - level.offset[oid] for x, oid in zip(nodes, oids)]
    gs = [level.g[oid] for oid in oids]
    quasi = set(zip(oids, ss))
    m0 = next(m for m in divisors(level.M)
              if quasi.issuperset(zip(oids, map(mod, map(add, ss, repeat(m)), gs))))
    coarse = set(zip(oids, map(mod, ss, map(gcd, repeat(m0), gs))))
    return tuple(m for m in proper if m % m0 == 0), len(coarse)
