"""The per-modulus self-dual search that the maximal-moduli search replaced, as an oracle.

self_dual_search runs a union-find over every member pair at each proper
divisor m of q^n - 1, deduplicates the component word sets across moduli
in a dict, keeps the inclusion-minimal ones by a scan over the sets kept
so far, and counts each hit's quasi orbits by rotating its words, as the
code did before the search ran the union-find only at the maximal moduli.
Its hits are OracleHit records, each holding the SubspaceCode it checked.

complement_pairs is the pairing self_dual_search made while it held every
subspace's bitset: each word found its complement's member id in a dict
from bitset to id.
"""

from dataclasses import dataclass
from itertools import accumulate, chain
from math import gcd

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
    """The orthogonal-complement pairing as two lists of member ids.

    Member j of the cyclic orbit oid, orbit_bits(field, rep)[j] with the
    orbits of dimensions 0..n in cyclic_orbit_data order, has id
    start[oid] + j.  Each pair appears once: a member of the middle
    dimension (2k = n) is complemented only if it is not the complement of
    one already seen.
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
    return left, right


def self_dual_search(field, max_space: int = 1 << 21,
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
