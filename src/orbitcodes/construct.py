"""Code construction as graph search, plus the self-dual quasi-cyclic search.

Orbits become vertices of a compatibility graph with an edge whenever the
joint minimum distance of two orbits meets the threshold; any clique's
orbit union is a (quasi-)cyclic code with that minimum distance.  The graph
comes from incidences, not from pairwise distances (the Kramer-Mesner
method with the Singer cycle as the prescribed group): words of dimensions
kA and kB are closer than d exactly when they share a t-subspace,
t = (kA + kB - d) // 2 + 1, and the t-subspaces an m-quasi orbit covers are
the m-quasi orbits of its rep's t-subspaces.  So each orbit is keyed by the
smallest members of those t-orbits, an index from key to vertices gives
every conflict at O(orbits x [k, t]_q) cost, and the graph is the
complement of the conflicts.  inter_orbit_distance reads the distance of
one pair from a correlation instead.  The
self-dual search pairs every subspace with its orthogonal complement and
reads off the connected components of that pairing at the quasi-orbit
level: each component is a self-dual m-quasi-cyclic code.  The minimal
ones are all components at a maximal proper divisor (q^n-1)/p, so the
union-find runs only at those moduli; a component's moduli are the
divisors of those under whose shift its quasi orbits are closed, and it is
minimal unless it holds all of a smaller component found at another
maximal modulus, which one probe per component and modulus decides.
"""

from __future__ import annotations

import random
import time
from array import array
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, chain, product
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
from .gfext import FieldSpec, is_prime
from .orbits import Orbit, cyclic_orbit_data, divisors
from .records import Record
from .subspace import (
    complement_bits,
    cyclic_overlaps,
    meet_dim,
    min_member,
    subspaces_of,
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


class CompatGraph(Record):
    """Orbit compatibility graph at a distance threshold."""

    _fields = ("orbits", "threshold", "adj", "excluded")

    def __init__(self, orbits: list, threshold: int, adj: list,
                 excluded: list | None = None):
        self.orbits = orbits            # included orbits, one per vertex
        self.threshold = threshold
        self.adj = adj                  # adjacency bitmasks over vertex indices
        self.excluded = [] if excluded is None else excluded  # internal d < threshold

    @property
    def n_vertices(self) -> int:
        return len(self.orbits)

    def is_clique(self, vertices) -> bool:
        vs = list(vertices)
        return all(((self.adj[v] >> w) & 1) for i, v in enumerate(vs)
                   for w in vs[i + 1:])


def build_graph(orbits, d: int) -> CompatGraph:
    """Graph over orbits whose internal minimum distance meets the threshold d.

    Two words U, W of dimensions kA, kB are closer than d exactly when they
    share a t-subspace, t = (kA + kB - d) // 2 + 1, which is at least 1,
    since an included orbit has d <= min_dist <= 2k.  The t-subspaces an
    m-quasi orbit covers are the m-quasi orbits of its rep's t-subspaces, so
    each included orbit gets one key per t-subspace of its rep, that
    subspace's smallest m-quasi-orbit member, and two orbits conflict exactly
    when their keys meet.  An index from key to the bitmask of vertices
    holding it gives each vertex its conflicts, one index per pair of
    dimensions at that pair's t; a pair of dimensions with t above the
    smaller one has no t-subspace in common and never conflicts.

    The included orbits must share one field and modulus (FieldMismatch)
    and be distinct orbits (SameOrbit).
    """
    if d < 2 or d % 2 != 0:
        raise OddDistance(f"threshold d={d} must be even and >= 2")
    included = [o for o in orbits if o.min_dist >= d]
    excluded = [o for o in orbits if o.min_dist < d]
    seen = set()
    for o in included:
        if (o.field, o.m) != (included[0].field, included[0].m):
            raise FieldMismatch("orbits must share a field and modulus")
        if o.rep.bits in seen:
            raise SameOrbit("orbits are identical")
        seen.add(o.rep.bits)

    by_dim = {}                          # k -> vertices of dimension k
    for v, o in enumerate(included):
        by_dim.setdefault(o.k, []).append(v)
    indexes = {}                         # (k, t) -> (key -> vertex mask, keys of each vertex)

    def index_at(k, t):
        if (k, t) not in indexes:
            masks, keys = {}, []
            for v in by_dim[k]:
                o = included[v]
                keys.append({min_member(o.field, T, o.m)[0]
                             for T in subspaces_of(o.field, o.rep.bits, t)})
                for key in keys[-1]:
                    masks[key] = masks.get(key, 0) | 1 << v
            indexes[k, t] = masks, keys
        return indexes[k, t]

    conflict = [0] * len(included)
    for ka, kb in product(by_dim, repeat=2):
        t = (ka + kb - d) // 2 + 1
        masks = index_at(kb, t)[0]
        for v, keys in zip(by_dim[ka], index_at(ka, t)[1]):
            for key in keys:
                conflict[v] |= masks.get(key, 0)
    everyone = (1 << len(included)) - 1
    adj = [everyone & ~c & ~(1 << v) for v, c in enumerate(conflict)]
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
    count above MAX_DIMACS_VERTICES, or an edge that is malformed, names
    a vertex outside 1..n or is a self-loop is a ParseError.
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
        if len(nums) != 2 or not all(1 <= v <= n for v in nums) or nums[0] == nums[1]:
            raise ParseError(f"{where}: edge must join two distinct vertices in 1..{n}")
        i, j = nums[0] - 1, nums[1] - 1
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if n is None:
        raise ParseError(f"DIMACS file {path} has no 'p edge' line")
    return n, adj


# -- clique search ----------------------------------------------------------------


class CliqueResult(namedtuple("CliqueResult", "vertices certified")):
    __slots__ = ()

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


class _OrbitTable:
    """The cyclic orbits of P_q(n), each held as its representative only.

    Orbit oid has dimension dims[oid] and length D = lengths[oid]; its
    member j < D, the representative rotated by j, has the member id
    start[oid] + j.  A member's bitset is one shift of the doubled
    representative, made when it is read.
    """

    __slots__ = ("N", "dims", "lengths", "start", "doubled")

    def __init__(self, field: FieldSpec):
        N = self.N = field.group_order
        records = [(k, rec) for k in range(field.n + 1) for rec in cyclic_orbit_data(field, k)]
        self.dims = [k for k, _ in records]
        self.lengths = [rec.length for _, rec in records]
        self.start = [0, *accumulate(self.lengths)]
        self.doubled = [rec.rep_bits | rec.rep_bits << N for _, rec in records]

    def words(self, ids):
        """The bitsets of the members with these ids, in their order."""
        N, start, doubled = self.N, self.start, self.doubled
        mask = (1 << N) - 1
        for i in ids:
            oid = bisect_right(start, i) - 1
            yield (doubled[oid] >> (N - i + start[oid])) & mask

    def member_finder(self):
        """A function from a nonzero member's bitset to its id.

        It looks the member up in an orbit index: each representative rotated
        down by each of its exponents e < D, mapped to (oid, e).  A member
        rotated down to its lowest exponent a is one of these keys, and it is
        member (a - e) mod D of orbit oid: rotation by D fixes the
        representative, so each of its exponents is congruent to one below D.
        """
        N, start, lengths = self.N, self.start, self.lengths
        mask = (1 << N) - 1
        index = {}
        for oid, (doubled, D) in enumerate(zip(self.doubled, lengths)):
            rest = doubled & ((1 << D) - 1)
            while rest:
                e = (rest & -rest).bit_length() - 1
                index[(doubled >> e) & mask] = (oid, e)
                rest &= rest - 1

        def member_id(bits: int) -> int:
            a = (bits & -bits).bit_length() - 1
            oid, e = index[bits >> a]
            return start[oid] + (a - e) % lengths[oid]

        return member_id


class SelfDualHit(Record):
    """One minimal self-dual m-quasi-cyclic code, held as its member ids.

    The ids number the members of the cyclic orbits of P_q(n) as
    _OrbitTable does.  words, bitsets and params() rotate the orbit
    representatives on each read; the SubspaceCode of the same words is
    built the first time code is read.
    """

    _fields = ("field", "m", "moduli", "words", "orbit_count")

    def __init__(self, field: FieldSpec, m: int, moduli: tuple, orbit_count: int,
                 dims: tuple, members, orbits: _OrbitTable):
        self.field = field
        self.m = m                      # smallest modulus exhibiting the quasi-cyclic closure
        self.moduli = moduli            # all proper divisors m of q^n-1 that work
        self.orbit_count = orbit_count  # number of m-quasi orbits the word set splits into
        self.dims = dims                # the distinct word dimensions, ascending
        self.members = members          # array('i') of the words' member ids
        self._orbits = orbits

    @property
    def words(self) -> tuple:
        """The word bitsets, ascending."""
        return tuple(sorted(self._orbits.words(self.members)))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def constant_dimension(self) -> bool:
        return len(self.dims) == 1

    @property
    def single_generator(self) -> bool:
        """True when the code is the dual closure of one quasi orbit.

        Such a code is orbit(V) united with orbit(V-perp) for a single
        subspace V, i.e. it splits into at most two quasi orbits.
        """
        return self.orbit_count <= 2

    @property
    def bitsets(self) -> frozenset:
        """The words as a set for is_self_dual and is_quasi_cyclic."""
        return frozenset(self._orbits.words(self.members))

    @cached_property
    def code(self) -> SubspaceCode:
        return SubspaceCode(self.field, self._orbits.words(self.members))

    def params(self) -> tuple:
        # from a code of its own, so that the hit keeps no set of its words
        return SubspaceCode(self.field, self._orbits.words(self.members)).params()


# self_dual_search estimates its memory as SELFDUAL_BASE_BYTES, about what the
# interpreter and the package hold before it starts (16.3 MB), plus, for each
# subspace, its bitset and SELFDUAL_WORD_OVERHEAD bytes.  On CPython 3.11 a
# `selfdual` call's own peak (VmHWM) was 42.7 MB over F_2^8 (417,199
# subspaces, estimated at 221 MB) and 48.1 MB over F_3^6 under x^6+x^5+2
# (56,632 subspaces, estimated at 50.6 MB).  Per subspace the peak grew by 58
# bytes over F_2^8, 32 of them the bitset, and by 483 over F_3^6, 91 of them
# the bitset and most of the rest the components and records of its 28,315 hits.
SELFDUAL_BASE_BYTES = 20_000_000
SELFDUAL_WORD_OVERHEAD = 450
SELFDUAL_MAX_BYTES = 500_000_000


def self_dual_search(field: FieldSpec, max_space: int = SELFDUAL_MAX_BYTES,
                     include_trivial: bool = False) -> list:
    """All minimal self-dual m-quasi-cyclic codes in P_q(n), every proper m.

    Pairs each subspace with its orthogonal complement once, then reads off
    connected components of the pairing at the m-quasi-orbit level: every
    component is a self-dual m-quasi-cyclic code and every minimal one
    arises this way.  Three facts keep the work down while giving the same
    hits as running every proper divisor m of N = q^n-1:

    - maximal moduli: when m divides m', the m'-quasi orbits refine the
      m-quasi orbits, so a component at m is a union of components at m'.
      A minimal component is therefore a component at some N/p (p a prime
      factor of N), and the union-find runs only at those moduli;
    - closure: a minimal component K is a component at m exactly when it
      is closed under the shift by gamma^m, and every such m divides a
      maximal modulus K was found at; K's moduli are those divisors under
      which its set of quasi orbits is closed;
    - minimality: components at one modulus are disjoint, so K is not
      minimal exactly when it strictly contains a component C found at
      another maximal modulus.  One probe per C and modulus settles it:
      the component there that holds one member of C, tested for holding
      all of C.

    m = q^n-1 is excluded (the shift is the identity and every dual-closed
    set would qualify); the {0, full-space} pair is likewise uninformative
    unless include_trivial is set.

    The search holds each cyclic orbit as its representative, the pairing
    and the union-find levels as arrays of member ids, and each hit as the
    member ids of its words.  Words are rotated out of the representatives
    when they are checked or read: both checks run on one code per hit,
    dropped after them.

    Before any work, the memory the search would hold is estimated as
    SELFDUAL_BASE_BYTES + subspaces x (ceil((q^n-1)/8) +
    SELFDUAL_WORD_OVERHEAD) bytes, and a ResourceLimit is raised when that
    exceeds max_space, 500 MB by default.  P_2(8) is estimated at 221 MB
    and P_3(6) at 51 MB; P_2(9) (4.3 GB) and P_3(7) (1.5 GB) are refused.
    """
    from .codes import gaussian_coefficient, is_quasi_cyclic

    n, q = field.n, field.q
    total = sum(gaussian_coefficient(n, k, q) for k in range(n + 1))
    need = SELFDUAL_BASE_BYTES + total * ((field.group_order + 7) // 8
                                          + SELFDUAL_WORD_OVERHEAD)
    if need > max_space:
        raise ResourceLimit(
            f"P_{q}({n}) has {total} subspaces, an estimated {need / 1e6:.1f} MB "
            f"to search, over the limit of {max_space / 1e6:.1f} MB")

    orbits = _OrbitTable(field)
    hits = []
    for ms, orbit_count, first_quasi, dims, members in _minimal_components(
            field, orbits, include_trivial):
        hit = SelfDualHit(field, ms[0], ms, orbit_count, dims, members, orbits)
        # both checks read one code of freshly rotated words, dropped after them
        check = SubspaceCode(field, orbits.words(members))
        if not is_self_dual(check):
            raise VerificationFailed("component is not self-dual: internal error")
        if not is_quasi_cyclic(check, hit.m):
            raise VerificationFailed("component is not quasi-cyclic: internal error")
        del check
        # ties in (dimension kind, size, m) keep the order of the components
        # at m, i.e. of their first quasi orbit
        hits.append((not hit.constant_dimension, hit.size, hit.m, first_quasi, hit))
    hits.sort(key=lambda entry: entry[:4])
    return [entry[-1] for entry in hits]


class _Component:
    """A component of the pairing, one object for every maximal modulus it appears at."""

    __slots__ = ("size", "first", "nodes", "contains_another")

    def __init__(self, size: int, first: int):
        self.size = size                 # number of members
        self.first = first               # its smallest member id
        self.nodes = {}                  # maximal modulus -> its node ids there
        self.contains_another = False    # strictly contains another component


class _Level:
    """The quasi orbits at one maximal modulus M, numbered as union-find nodes.

    Member j of cyclic orbit oid has id start[oid] + j; its quasi orbit s,
    the members s, s+g, s+2g, ... with g = gcd(M, orbit size), is node
    offset[oid] + s.
    """

    __slots__ = ("start", "g", "offset", "node_oid", "node_of", "component")

    def __init__(self, start: list, g: list, offset: list, node_oid: array, node_of: array):
        self.start, self.g, self.offset = start, g, offset
        self.node_oid = node_oid         # node -> its cyclic orbit, array('i')
        self.node_of = node_of           # member id -> node, array('i')
        self.component = [None] * offset[-1]     # node -> _Component

    def quasi_orbits(self, nodes) -> list:
        """The nodes as (orbit, s) pairs."""
        offset = self.offset
        return [(o, x - offset[o]) for x, o in zip(nodes, map(self.node_oid.__getitem__, nodes))]

    def members(self, nodes):
        """The member ids of the nodes."""
        start, g = self.start, self.g
        return chain.from_iterable(range(start[o] + s, start[o + 1], g[o])
                                   for o, s in self.quasi_orbits(nodes))

    def holds(self, comp: _Component, members) -> bool:
        """True iff every member id lies in comp at this modulus."""
        component, node_of = self.component, self.node_of
        return all(component[node_of[i]] is comp for i in members)


def _complement_pairs(field: FieldSpec, orbits: _OrbitTable) -> tuple:
    """The orthogonal-complement pairing as two arrays of member ids.

    Each complement is rotated out of its orbit's representative and its
    id found by orbits.member_finder(), so no word set is held.  Each pair
    appears once: V -> V-perp is an involution, so a member of the middle
    dimension (2k = n) is complemented only if it is not the complement of
    one already seen.
    """
    n, N = field.n, orbits.N
    mask = (1 << N) - 1
    start = orbits.start
    member_id = orbits.member_finder()
    left, right = array("i"), array("i")
    met = bytearray(start[-1])
    for oid, (k, doubled) in enumerate(zip(orbits.dims, orbits.doubled)):
        if 2 * k > n:
            continue
        for j in range(orbits.lengths[oid]):
            i = start[oid] + j
            if not met[i]:
                c = member_id(complement_bits(field, (doubled >> (N - j)) & mask, k))
                met[c] = 1
                left.append(i)
                right.append(c)
    return left, right


def _components_at(M: int, sizes: list, start: list, left: array, right: array) -> tuple:
    """The _Level of modulus M and its components, each as its ascending nodes.

    Components come in the order of their smallest node.
    """
    g = [gcd(M, size) for size in sizes]
    offset = [0, *accumulate(g)]
    node_oid = array("i", [oid for oid, gi in enumerate(g) for _ in range(gi)])
    node_of = array("i")
    for oid, size in enumerate(sizes):
        node_of += array("i", range(offset[oid], offset[oid + 1])) * (size // g[oid])
    # union-find that links the larger root under the smaller, so every
    # parent precedes its child and one ascending pass finds all roots
    parent = list(range(offset[-1]))
    for a, b in zip(map(node_of.__getitem__, left), map(node_of.__getitem__, right)):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    groups = {}          # root (the smallest node) -> the component's nodes
    for x, r in enumerate(parent):
        parent[x] = r = parent[r]
        groups.setdefault(r, []).append(x)
    level = _Level(start, g, offset, node_oid, node_of)
    return level, list(groups.values())


def _minimal_components(field: FieldSpec, orbits: _OrbitTable, include_trivial: bool) -> list:
    """(moduli, quasi-orbit count, first quasi orbit, dims, member ids) of each minimal component."""
    N = field.group_order
    sizes, start = orbits.lengths, orbits.start
    left, right = _complement_pairs(field, orbits)

    levels, components = {}, []
    for M in (N // p for p in divisors(N) if is_prime(p)):
        level, groups = _components_at(M, sizes, start, left, right)
        for nodes in groups:
            size = sum(sizes[o] // level.g[o] for o in map(level.node_oid.__getitem__, nodes))
            # one object per member set: a component met again at a later
            # modulus shares its flags and collects its nodes there
            first = next(level.members(nodes[:1]))
            for earlier in levels.values():
                comp = earlier.component[earlier.node_of[first]]
                if comp.size == size and earlier.holds(comp, level.members(nodes)):
                    break
            else:
                comp = _Component(size, first)
                components.append(comp)
            comp.nodes[M] = nodes
            for x in nodes:
                level.component[x] = comp
        levels[M] = level

    # minimality: probe every other maximal modulus with one member of comp
    for comp in components:
        M, nodes = next(iter(comp.nodes.items()))
        for other, level in levels.items():
            if other not in comp.nodes:
                outer = level.component[level.node_of[comp.first]]
                if (not outer.contains_another and outer.size > comp.size
                        and level.holds(outer, levels[M].members(nodes))):
                    outer.contains_another = True

    found = []
    for comp in components:
        # member 0 is the zero subspace, so its component is the {0, full-space} pair
        if comp.contains_another or (comp.first == 0 and not include_trivial):
            continue
        quasi_at = {M: levels[M].quasi_orbits(nodes) for M, nodes in comp.nodes.items()}
        # moduli: the divisors m of the maximal moduli comp was found at
        # whose shift maps its quasi orbits (orbit, s) onto themselves
        closed = {}
        for M, quasi in quasi_at.items():
            g, quasi_set = levels[M].g, set(quasi)
            for m in divisors(M):
                if m not in closed:
                    closed[m] = all((o, (s + m) % g[o]) in quasi_set for o, s in quasi)
        ms = tuple(sorted(m for m, ok in closed.items() if ok))
        # the ms[0]-quasi orbits, (orbit, s mod gcd(ms[0], size)), read at a
        # maximal modulus that ms[0] divides
        M = next(M for M in quasi_at if M % ms[0] == 0)
        g = levels[M].g
        coarse = {(o, s % gcd(ms[0], g[o])) for o, s in quasi_at[M]}
        dims = tuple(sorted({orbits.dims[o] for o, _ in quasi_at[M]}))
        members = array("i", levels[M].members(comp.nodes[M]))
        found.append((ms, len(coarse), min(coarse), dims, members))
    return found
