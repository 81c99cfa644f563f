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
one pair from a correlation instead.

The self-dual search pairs every subspace with its orthogonal complement
and reads off the connected components of that pairing at the quasi-orbit
level: each component is a self-dual m-quasi-cyclic code.  The minimal
ones are all components at a maximal proper divisor (q^n-1)/p, so the
union-find runs only at those moduli.  Each minimal component is read at
the first of them it appears at: its moduli are the multiples of the
smallest modulus under whose shift its quasi orbits are closed, and it is
minimal unless it holds all of a smaller component found at another
maximal modulus, which one probe per component and modulus decides.
"""

from __future__ import annotations

import random
from array import array
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, chain, compress, product, repeat
from math import gcd
from operator import add, and_, eq, le, lt, mod, neg, rshift, sub

from .codes import SubspaceCode, code_from_generators, is_self_dual, min_distance
from .errors import (
    FieldMismatch,
    OddDistance,
    ParseError,
    ResourceLimit,
    SameOrbit,
    VerificationFailed,
)
from .gfext import FieldSpec, gaussian_coefficient, is_prime
from .orbits import Orbit, RunBudget, cyclic_orbit_data
from .records import Record
from .subspace import (
    divisors,
    min_member,
    orbit_complements,
    orbit_distance,
    subspaces_of,
)


# -- compatibility graph ---------------------------------------------------------


def inter_orbit_distance(A: Orbit, B: Orbit) -> int:
    """Minimum distance between any member of A and any member of B.

    By the shift identity it is the distance from A's representative to the
    nearest member of B (orbit_distance).
    """
    if A.field != B.field or A.m != B.m:
        raise FieldMismatch("orbits must share a field and modulus")
    if A.rep.bits == B.rep.bits:
        raise SameOrbit("orbits are identical")
    return orbit_distance(A.field, A.rep.bits, A.k, B.rep.bits, B.k, A.m)


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


# the random vertex orders greedy mode tries, fewer if the budget ends first
GREEDY_STARTS = 64


def find_cliques(G, budget: RunBudget | None = None, mode: str = "exact",
                 seed: int = 0) -> list:
    """Best cliques found; exact mode certifies optimality unless the budget ends it.

    G may be a CompatGraph or a plain adjacency bitmask list.  A step of
    budget is one node of the exact search or one vertex a greedy start
    scans.  Exact mode stopped by the budget returns the best clique so far
    with certified=False.  Greedy mode tries GREEDY_STARTS random orders,
    fewer if the budget ends first, but always one, and never certifies.
    """
    adj = G.adj if isinstance(G, CompatGraph) else list(G)
    clock = (budget or RunBudget()).start()
    if mode == "exact":
        best = []               # the largest clique so far, kept if the budget ends the search
        try:
            _max_clique_exact(adj, clock, best)
            certified = True
        except ResourceLimit:
            certified = False
        return [CliqueResult(tuple(sorted(best)), certified)]
    if mode == "greedy":
        seen = {}
        try:
            _greedy_cliques(adj, seed, clock, seen)
        except ResourceLimit:
            pass
        return [CliqueResult(k, False) for k in sorted(seen, key=len, reverse=True)[:16]]
    raise ValueError(f"unknown mode {mode!r}")


def _greedy_cliques(adj, seed, clock, seen):
    """Add each start's clique to seen, ticking the clock after the start."""
    n = len(adj)
    rng = random.Random(seed)
    for _ in range(GREEDY_STARTS):
        order = list(range(n))
        rng.shuffle(order)
        clique = []
        cmask = (1 << n) - 1
        for v in order:
            if (cmask >> v) & 1:
                clique.append(v)
                cmask &= adj[v]
        seen[tuple(sorted(clique))] = True
        clock.tick(n)


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


def _max_clique_exact(adj, clock, best):
    """Branch and bound with the coloring bound, each node one clock tick.

    best, a list, holds the largest clique found so far, so it is kept when
    a ResourceLimit from the clock ends the search.
    """

    def expand(rmembers, pmask):
        clock.tick()
        order, colors = _color_bound(adj, pmask)
        for i in range(len(order) - 1, -1, -1):
            if len(rmembers) + colors[i] <= len(best):
                return
            v = order[i]
            rmembers.append(v)
            newp = pmask & adj[v]
            if newp:
                expand(rmembers, newp)
            elif len(rmembers) > len(best):
                best[:] = rmembers
            rmembers.pop()
            pmask &= ~(1 << v)

    if adj:
        expand([], (1 << len(adj)) - 1)


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
    start[oid] + j, and orbit_of maps each member id to its oid.  A
    member's bitset is one shift of the doubled representative, made when
    it is read.  perp_id, once the search sets it, maps each member id to
    the id of its orthogonal complement.
    """

    __slots__ = ("N", "dims", "lengths", "start", "orbit_of", "doubled", "perp_id", "_tops")

    def __init__(self, field: FieldSpec):
        N = self.N = field.group_order
        records = [(k, rec) for k in range(field.n + 1) for rec in cyclic_orbit_data(field, k)]
        self.dims = [k for k, _ in records]
        self.lengths = [rec.length for _, rec in records]
        self.start = [0, *accumulate(self.lengths)]
        self.orbit_of = array("i", chain.from_iterable(map(repeat, range(len(records)),
                                                           self.lengths)))
        self.doubled = [rec.rep_bits | rec.rep_bits << N for _, rec in records]
        self._tops = [s + N for s in self.start]

    def words(self, ids):
        """The bitsets of the members with these ids, in their order.

        ids is a sequence, read twice.  Member i of orbit oid is the doubled
        representative shifted down by start[oid] + N - i.
        """
        oids = list(map(self.orbit_of.__getitem__, ids))
        return map(and_, map(rshift, map(self.doubled.__getitem__, oids),
                             map(sub, map(self._tops.__getitem__, oids), ids)),
                   repeat((1 << self.N) - 1))

    def shifted(self, ids, m: int):
        """The id of gamma^m times each member, in their order.

        ids is a sequence, read twice.  Member i of orbit oid, which starts
        at b = start[oid], goes to b + (i - b + m) mod D.
        """
        oids = list(map(self.orbit_of.__getitem__, ids))
        base = list(map(self.start.__getitem__, oids))
        return map(add, base, map(mod, map(add, map(sub, ids, base), repeat(m)),
                                  map(self.lengths.__getitem__, oids)))

    def member_finder(self):
        """A function from a list of members' bitsets to an array('i') of their ids.

        It looks each nonzero member up in an orbit index: each
        representative rotated down by each of its exponents e < D, keyed
        without its bit 0, which is always set.  A member rotated down to
        its lowest exponent a is one of these words, and it is member
        (a - e) mod D of orbit oid: rotation by D fixes the representative,
        so each of its exponents is congruent to one below D.  The index
        holds (e + 1, D, start[oid]), and the members are looked up with
        C-level maps; [0], the zero subspace alone, is id 0.
        """
        start = self.start
        mask = (1 << (self.N - 1)) - 1      # the N - 1 bits above bit 0
        index = {}
        for oid, (doubled, D) in enumerate(zip(self.doubled, self.lengths)):
            rest = doubled & ((1 << D) - 1)
            while rest:
                e = (rest & -rest).bit_length()         # the exponent plus one
                index[(doubled >> e) & mask] = (e, D, start[oid])
                rest &= rest - 1

        def member_ids(words: list) -> array:
            if words == [0]:
                return array("i", [0])      # the zero subspace, the first orbit
            # a + 1 for the lowest exponent a of each member
            low = list(map(int.bit_length, map(and_, words, map(neg, words))))
            e, D, base = zip(*map(index.__getitem__, map(rshift, words, low)))
            return array("i", map(add, base, map(mod, map(sub, low, e), D)))

        return member_ids


class SelfDualHit(Record):
    """One minimal self-dual m-quasi-cyclic code, held as its member ids.

    The ids number the members of the cyclic orbits of P_q(n) as
    _OrbitTable does.  words and params() rotate the orbit
    representatives on each read; the SubspaceCode of the same words is
    built the first time code is read.  is_self_dual and is_quasi_cyclic
    read a hit through word_keys, complement_keys and shifted_keys, which
    name its words by member id.
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

    @cached_property
    def code(self) -> SubspaceCode:
        return SubspaceCode(self.field, self._orbits.words(self.members))

    def params(self) -> tuple:
        # from a code of its own, so that the hit keeps no set of its words
        return SubspaceCode(self.field, self._orbits.words(self.members)).params()

    def word_keys(self) -> set:
        """The member ids of the words."""
        return set(self.members)

    def complement_keys(self):
        """The member id of each word's orthogonal complement."""
        return map(self._orbits.perp_id.__getitem__, self.members)

    def shifted_keys(self, m: int):
        """The member id of each word times gamma^m."""
        return self._orbits.shifted(self.members, m)


# self_dual_search estimates its memory as SELFDUAL_BASE_BYTES, about what the
# interpreter and the package hold before it starts (16.5 MB), plus, for each
# subspace, its bitset and SELFDUAL_WORD_OVERHEAD bytes, plus, when q is odd,
# SELFDUAL_HIT_OVERHEAD bytes for each complement pair.  For odd q, -1 fixes
# every subspace, so at the maximal modulus (q^n-1)/2 every pair {V, V-perp}
# is a component of its own, and each is a minimal hit: about one hit per two
# subspaces, where over F_2^n the hits are few and large.  Each union-find
# level holds its member -> node map and parent list only while its loop
# runs, and keeps a node -> root array.  On CPython 3.11 a `selfdual` call's
# own peak (VmHWM) was about 28 MiB over F_2^8 (417,199 subspaces, estimated
# at 41.7 MB; 33.6 MiB while every level kept its map and parent list) and
# 32.2 MiB over F_3^6 under x^6+x^5+2 (56,632 subspaces and 28,315 hits,
# estimated at 48.9 MB; 33.4 MB before, and 40.7 MB while the search kept an
# object for each distinct component).  The peak grew by about 28 bytes per
# subspace over F_2^8; over F_3^6 it grew by about 16 MB, most of it the
# records of the hits.
SELFDUAL_BASE_BYTES = 20_000_000
SELFDUAL_WORD_OVERHEAD = 20
SELFDUAL_HIT_OVERHEAD = 800
SELFDUAL_MAX_BYTES = 500_000_000


def _space_needed(field: FieldSpec) -> tuple:
    """(subspaces of P_q(n), the bytes self_dual_search estimates it needs)."""
    n, q = field.n, field.q
    total = sum(gaussian_coefficient(n, k, q) for k in range(n + 1))
    need = SELFDUAL_BASE_BYTES + total * ((field.group_order + 7) // 8
                                          + SELFDUAL_WORD_OVERHEAD)
    if q % 2:
        need += total // 2 * SELFDUAL_HIT_OVERHEAD
    return total, need


def self_dual_search(field: FieldSpec, max_space: int = SELFDUAL_MAX_BYTES,
                     include_trivial: bool = False) -> list:
    """All minimal self-dual m-quasi-cyclic codes in P_q(n), every proper m.

    Pairs each subspace with its orthogonal complement once, then reads off
    connected components of the pairing at the m-quasi-orbit level: every
    component is a self-dual m-quasi-cyclic code and every minimal one
    arises this way.  Four facts keep the work down while giving the same
    hits as running every proper divisor m of N = q^n-1:

    - maximal moduli: when m divides m', the m'-quasi orbits refine the
      m-quasi orbits, so a component at m is a union of components at m'.
      A minimal component is therefore a component at some N/p (p a prime
      factor of N), and the union-find runs only at those moduli, each
      component named by its root, its smallest quasi orbit;
    - moduli from one level: a set closed under the shifts by m and m' is
      closed under the shift by gcd(m, m') and by every multiple of it, so
      a hit's moduli are exactly the proper divisors of N that its smallest
      modulus m0 divides.  m0 is found at the maximal modulus M the hit is
      read at, by dividing M by each of its primes while the shift still
      maps the hit's nodes onto nodes of its root, and its m0-quasi orbits
      are counted from those nodes;
    - skip what an earlier level holds: a self-dual set closed under a
      maximal modulus M' is a union of components at M'.  So a component
      at M that is closed under an earlier maximal M' (M' % m0 == 0) is
      either one component at M', read there, or a union of at least two,
      not minimal; either way it is skipped, and each hit is read once;
    - minimality: components at one modulus are disjoint, so K is not
      minimal exactly when it strictly contains a component C found at
      another maximal modulus.  One probe per C and level settles it: from
      C's smallest member to the root of the component there that holds
      it, which is marked, as an (M, root) pair, when it is larger than C
      and holds every member of C.

    m = q^n-1 is excluded (the shift is the identity and every dual-closed
    set would qualify); the {0, full-space} pair is likewise uninformative
    unless include_trivial is set.

    The search holds each cyclic orbit as its representative, the pairing
    and each hit as arrays of member ids, and each union-find level as
    arrays over its nodes: the member -> node map and the parent list live
    only while that level's union-find runs, and the level keeps a node ->
    root array, so one level's scaffolding is alive at a time.  The pairing
    is one map perp_id from each member to its complement:
    orbit_complements complements each orbit's D members at once, and the
    orbit index names each complement's member.  Before any union-find the
    map is checked, the word of every id found against the complement just
    computed, bit for bit, and for being an involution.  Both checks of a
    hit then run on its member ids: it is self-dual when its id set holds
    perp_id of every id, and m-quasi-cyclic when it holds member
    (j + m) mod D of orbit oid for each member j of oid.  No hit builds a
    set of its words.

    Before any work, the memory the search would hold is estimated as
    SELFDUAL_BASE_BYTES + subspaces x (ceil((q^n-1)/8) +
    SELFDUAL_WORD_OVERHEAD) bytes, plus subspaces / 2 x SELFDUAL_HIT_OVERHEAD
    when q is odd, and a ResourceLimit is raised when that exceeds
    max_space, 500 MB by default.  P_2(8) is estimated at 42 MB and P_3(6)
    at 49 MB, against `selfdual` peaks (VmHWM, CPython 3.11) of about
    28 MiB and 32.2 MiB; P_2(9) (716 MB) and P_3(7) (1.4 GB) are refused.
    """
    from .codes import is_quasi_cyclic

    total, need = _space_needed(field)
    if need > max_space:
        raise ResourceLimit(
            f"P_{field.q}({field.n}) has {total} subspaces, an estimated "
            f"{need / 1e6:.1f} MB to search, over the limit of {max_space / 1e6:.1f} MB")

    orbits = _OrbitTable(field)
    orbits.perp_id = _complement_pairs(field, orbits)
    hits = []
    for ms, orbit_count, first, dims, members in _minimal_components(
            field, orbits, include_trivial):
        hit = SelfDualHit(field, ms[0], ms, orbit_count, dims, members, orbits)
        # both checks read the hit's member ids, through the verified perp_id
        if not is_self_dual(hit):
            raise VerificationFailed("component is not self-dual: internal error")
        if not is_quasi_cyclic(hit, hit.m):
            raise VerificationFailed("component is not quasi-cyclic: internal error")
        # ties in (dimension kind, size, m) go by the hit's smallest member id
        hits.append((not hit.constant_dimension, hit.size, hit.m, first, hit))
    hits.sort(key=lambda entry: entry[:4])
    return [entry[-1] for entry in hits]


class _Level:
    """The quasi orbits at one maximal modulus M, numbered as union-find nodes.

    Member i of cyclic orbit o = orbit_of[i] is member i - start[o] of it;
    its quasi orbit s, the members s, s+g, s+2g, ... with g = g[o] =
    gcd(M, orbit size), is node offset[o] + s.  A component is named by its
    root, its smallest node, and is exactly the set of nodes with that root:
    root maps every node to its root, an array('i'), and sizes maps each
    root to the component's number of members.  No member -> node map is
    kept; node and holds compute a member's node from its orbit.  Nodes are
    read with C-level maps over these sequences.
    """

    __slots__ = ("M", "start", "orbit_of", "g", "offset", "node_oid", "root", "sizes")

    def __init__(self, M: int, start: list, orbit_of: array, g: list, offset: list,
                 node_oid: array, root: array, sizes: dict):
        self.M, self.start, self.orbit_of, self.g, self.offset = M, start, orbit_of, g, offset
        self.node_oid = node_oid         # node -> its cyclic orbit, array('i')
        self.root = root                 # node -> its root, array('i')
        self.sizes = sizes               # root -> members of its component

    def node(self, i: int) -> int:
        """The node of member id i."""
        o = self.orbit_of[i]
        return self.offset[o] + (i - self.start[o]) % self.g[o]

    def quasi_orbits(self, nodes) -> tuple:
        """The nodes as two lists, their orbits and their s."""
        oids = list(map(self.node_oid.__getitem__, nodes))
        return oids, list(map(sub, nodes, map(self.offset.__getitem__, oids)))

    def members(self, nodes):
        """The member ids of the nodes; the first is the smallest when nodes ascend."""
        oids, ss = self.quasi_orbits(nodes)
        start = self.start
        return chain.from_iterable(map(range, map(add, map(start.__getitem__, oids), ss),
                                       map(start.__getitem__, map(add, oids, repeat(1))),
                                       map(self.g.__getitem__, oids)))

    def holds(self, root: int, members) -> bool:
        """True iff every member id lies in the component of root.

        members is a sequence, read twice.
        """
        oids = array("i", map(self.orbit_of.__getitem__, members))
        nodes = map(add, map(self.offset.__getitem__, oids),
                    map(mod, map(sub, members, map(self.start.__getitem__, oids)),
                        map(self.g.__getitem__, oids)))
        return all(map(eq, map(self.root.__getitem__, nodes), repeat(root)))

    def read_out(self, nodes, proper: list) -> tuple:
        """(moduli, m0-quasi-orbit count) of the component with these ascending nodes.

        A shift by m | M maps quasi orbit s of orbit o to (s + m) mod g[o],
        so the component is closed under it when every shifted node has its
        root.  The shifts that close it are the multiples of its smallest
        modulus m0 (a set closed under two shifts is closed under their
        gcd), so m0 is found by dividing M by each of its primes while the
        closure holds, and the moduli are the m in proper that m0 divides.
        The component meets each m0-quasi orbit, a class of s mod
        gcd(m0, g[o]), in all its quasi orbits or none, so it splits into as
        many m0-quasi orbits as it has nodes with s < gcd(m0, g[o]).
        """
        oids, ss = self.quasi_orbits(nodes)
        gs = list(map(self.g.__getitem__, oids))
        bases = list(map(self.offset.__getitem__, oids))

        def closed(m: int) -> bool:
            shifted = map(add, bases, map(mod, map(add, ss, repeat(m)), gs))
            return all(map(eq, map(self.root.__getitem__, shifted), repeat(nodes[0])))

        m0 = self.M
        for p in filter(is_prime, divisors(self.M)):
            while m0 % p == 0 and closed(m0 // p):
                m0 //= p
        count = sum(map(lt, ss, map(gcd, repeat(m0), gs)))
        return tuple(m for m in proper if m % m0 == 0), count


def _complement_pairs(field: FieldSpec, orbits: _OrbitTable) -> array:
    """The orthogonal-complement pairing as one map perp_id, an array('i').

    perp_id[i] is the member id of the complement of member i.  Each
    orbit's complements come from orbit_complements, and their ids from
    orbits.member_finder(), so no word set is held.  The map is checked
    before it is returned: the word of each id found must be the
    complement just computed, bit for bit, and the map an involution;
    either failure raises VerificationFailed.
    """
    mask = (1 << orbits.N) - 1
    member_ids = orbits.member_finder()
    perp_id = array("i")
    for k, doubled, D in zip(orbits.dims, orbits.doubled, orbits.lengths):
        comps = orbit_complements(field, doubled & mask, k, D)
        ids = member_ids(comps)
        if not all(map(eq, orbits.words(ids), comps)):
            raise VerificationFailed("a complement's id names another word: internal error")
        perp_id += ids
    if not all(map(eq, map(perp_id.__getitem__, perp_id), range(len(perp_id)))):
        raise VerificationFailed("the complement pairing is not an involution: internal error")
    return perp_id


def _union_find(g: list, offset: list, sizes: list, perp_id: array) -> list:
    """The root of each node's component in the complement pairing, as a list.

    Node offset[oid] + s is quasi orbit s < g[oid] of orbit oid.  node_of,
    the member -> node map the loop reads, lives only for this call.  The
    union-find links the larger root under the smaller, so every parent
    precedes its child and one ascending pass sets each node to its root;
    each pair (i, perp_id[i]) is read once, at i <= perp_id[i].
    """
    node_of = array("i")
    for oid, size in enumerate(sizes):
        node_of += array("i", range(offset[oid], offset[oid + 1])) * (size // g[oid])
    ids = range(len(perp_id))
    left = compress(ids, map(le, ids, perp_id))
    right = compress(perp_id, map(le, ids, perp_id))
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
    for x, r in enumerate(parent):
        parent[x] = parent[r]
    return parent


def _components_at(M: int, orbits: _OrbitTable) -> tuple:
    """The _Level of modulus M and its components.

    Each component is an array('i') of its ascending nodes, so its first
    node is its root, and components come in the order of their roots.
    """
    sizes = orbits.lengths
    g = [gcd(M, size) for size in sizes]
    offset = [0, *accumulate(g)]
    node_oid = array("i", chain.from_iterable(map(repeat, range(len(g)), g)))
    root = array("i", _union_find(g, offset, sizes, orbits.perp_id))
    groups = {}          # root -> the component's nodes, array('i')
    for x, r in enumerate(root):
        if r == x:
            groups[x] = array("i", (x,))
        else:
            groups[r].append(x)
    node_size = [size // gi for size, gi in zip(sizes, g)]      # orbit -> members per node
    comp_size = {r: sum(map(node_size.__getitem__, map(node_oid.__getitem__, nodes)))
                 for r, nodes in groups.items()}
    level = _Level(M, orbits.start, orbits.orbit_of, g, offset, node_oid, root, comp_size)
    return level, list(groups.values())


def _minimal_components(field: FieldSpec, orbits: _OrbitTable, include_trivial: bool) -> list:
    """(moduli, quasi-orbit count, smallest member id, dims, member ids) of each minimal component.

    Each is read at the first maximal modulus it is a component at.
    """
    N = field.group_order
    levels = [_components_at(N // p, orbits) for p in divisors(N) if is_prime(p)]

    # minimality: probe every level with the smallest member of each
    # component, and mark the root found there when its component is larger
    # and holds every member of the probing one (at the component's own
    # level the root found is its own, of the same size)
    marked = set()       # (M, root) of every component that holds a smaller one
    for level, groups in levels:
        for nodes in groups:
            first = next(level.members(nodes[:1]))
            for other, _ in levels:
                root = other.root[other.node(first)]
                if ((other.M, root) not in marked
                        and other.sizes[root] > level.sizes[nodes[0]]
                        and other.holds(root, array("i", level.members(nodes)))):
                    marked.add((other.M, root))

    found, earlier, proper = [], [], divisors(N)[:-1]
    for level, groups in levels:
        for nodes in groups:
            first = next(level.members(nodes[:1]))
            # member 0 is the zero subspace, so its component is the {0, full-space} pair
            if (level.M, nodes[0]) in marked or (first == 0 and not include_trivial):
                continue
            moduli, orbit_count = level.read_out(nodes, proper)
            # closed under an earlier maximal modulus: one component there,
            # read there, or a union of several, not minimal
            if any(E % moduli[0] == 0 for E in earlier):
                continue
            oids = map(level.node_oid.__getitem__, nodes)
            dims = tuple(sorted(set(map(orbits.dims.__getitem__, oids))))
            found.append((moduli, orbit_count, first, dims, array("i", level.members(nodes))))
        earlier.append(level.M)
    return found
