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
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate, chain, compress, islice, product, repeat
from math import gcd
from operator import add, and_, eq, floordiv, lt, mod, mul, neg, rshift, sub

from .codes import SubspaceCode, code_from_generators, min_distance
from .errors import OrbitCodesError, ParseError, ResourceLimit, VerificationFailed
from .gfext import FieldSpec, gaussian_coefficient, is_prime
from .orbits import Orbit, RunBudget, cyclic_orbit_data, numbered_lines
from .records import Record
from .subspace import (
    divisors,
    min_member,
    orbit_complements,
    orbit_distance,
    subspaces_of,
    trace_dual_bits,
)


# -- compatibility graph ---------------------------------------------------------


def inter_orbit_distance(A: Orbit, B: Orbit) -> int:
    """Minimum distance between any member of A and any member of B.

    By the shift identity it is the distance from A's representative to the
    nearest member of B (orbit_distance).
    """
    if A.field != B.field or A.m != B.m:
        raise OrbitCodesError("orbits must share a field and modulus")
    if A.rep.bits == B.rep.bits:
        raise OrbitCodesError("orbits are identical")
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

    The included orbits must share one field and modulus and be distinct
    orbits; otherwise the graph is refused (exit 3).
    """
    if d < 2 or d % 2 != 0:
        raise OrbitCodesError(f"threshold d={d} must be even and >= 2")
    included = [o for o in orbits if o.min_dist >= d]
    excluded = [o for o in orbits if o.min_dist < d]
    seen = set()
    for o in included:
        if (o.field, o.m) != (included[0].field, included[0].m):
            raise OrbitCodesError("orbits must share a field and modulus")
        if o.rep.bits in seen:
            raise OrbitCodesError("orbits are identical")
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
                keys.append({min_member(o.field, T, o.m)
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
    """Export in DIMACS edge-list format for external solvers, one vertex's
    edges at a time: the edge list is never held whole."""
    with open(path, "w") as fh:
        fh.write(f"p edge {G.n_vertices} {sum(map(int.bit_count, G.adj)) // 2}\n")
        for i, row in enumerate(G.adj, 1):
            bits = bin(row)[:1:-1]          # bits[j] == "1" iff vertex j + 1 is adjacent
            fh.write("".join(f"e {i} {j + 1}\n" for j in range(i, len(bits)) if bits[j] == "1"))


# One adjacency bitmask per vertex is allocated from the p line alone, so the
# vertex count is capped well above any graph the exact search can finish.
MAX_DIMACS_VERTICES = 1 << 20


def read_dimacs(path):
    """Read a DIMACS edge list, line by line; returns (n_vertices, adjacency bitmasks).

    A missing or unreadable file, a missing or repeated p line, a vertex
    count above MAX_DIMACS_VERTICES, or an edge that is malformed, names
    a vertex outside 1..n or is a self-loop is a ParseError.
    """
    n, adj = None, []
    for lineno, line in numbered_lines(path, "DIMACS file"):
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

    The orbits of dimension k <= n/2 are the census's (cyclic_orbit_data),
    each held as its smallest member.  Those above n/2 come from the trace
    dual T(V) = {y : Tr(xy) = 0 for every x in V}, which maps the orbit of
    V onto the orbit of T(V), of dimension n - k and the same length: for
    each k > n/2, the orbits of dimension n - k in census order, each held
    as T of their smallest member, which need not be the smallest of its
    own orbit.  Orbit oid has dimension dims[oid] and length D =
    lengths[oid]; its member j < D, the representative rotated by j, has
    the member id start[oid] + j, and orbit_of, an array('H'), maps each
    member id to its oid: 2 bytes per subspace, so a table of 65,536 or
    more orbits raises ResourceLimit.  A member's bitset is one shift of
    the doubled representative, made when it is read.
    """

    __slots__ = ("N", "dims", "lengths", "start", "orbit_of", "doubled", "_tops")

    def __init__(self, field: FieldSpec):
        N, n = field.group_order, field.n
        self.N = N
        self.dims, self.lengths, reps = [], [], []
        for k in range(n + 1):
            below = min(k, n - k)
            records = cyclic_orbit_data(field, below)
            self.dims += [k] * len(records)
            self.lengths += [rec.length for rec in records]
            reps += ([rec.rep_bits for rec in records] if k == below else
                     [trace_dual_bits(field, rec.rep_bits, below) for rec in records])
        if len(reps) > 0xFFFF:
            raise ResourceLimit(f"P_{field.q}({n}) has {len(reps)} cyclic orbits; the "
                                f"self-dual search numbers at most 65535")
        self.start = [0, *accumulate(self.lengths)]
        self.orbit_of = array("H", chain.from_iterable(map(repeat, range(len(reps)),
                                                           self.lengths)))
        self.doubled = [rep | rep << N for rep in reps]
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

    def rotation(self, m: int) -> array:
        """The rotation table of gamma^m: the id of gamma^m times each member, by member id.

        Member j of the orbit at start[oid] = a of length D goes to member
        (j + m) mod D, so the orbit's run of ids is rotated by c = m mod D:
        ids a + c, ..., a + D - 1, a, ..., a + c - 1.
        """
        start = self.start
        cut = [a + m % (b - a) for a, b in zip(start, start[1:])]
        runs = chain.from_iterable((range(c, b), range(a, c))
                                   for a, b, c in zip(start, start[1:], cut))
        return _joined(map(array, repeat("i"), runs), start[-1])

    def member_finder(self, dim: int):
        """A function from a list of dim-subspaces' bitsets to an array('i') of their ids.

        It looks each nonzero member up in an index of the orbits of
        dimension dim: each representative rotated down by each of its
        exponents e < D, keyed without its bit 0, which is always set.  A
        member rotated down to its lowest exponent a is one of these words,
        and it is member (a - e) mod D of orbit oid: rotation by D fixes the
        representative, so each of its exponents is congruent to one below
        D.  The index holds (e + 1, D, start[oid]), and the members are
        looked up with C-level maps; [0], the zero subspace alone, is id 0.
        """
        start = self.start
        mask = (1 << (self.N - 1)) - 1      # the N - 1 bits above bit 0
        index = {}
        for oid in range(bisect_left(self.dims, dim), bisect_right(self.dims, dim)):
            doubled, D = self.doubled[oid], self.lengths[oid]
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
    _OrbitTable does, ascending, so members[0] is the smallest.  words,
    code and params() rotate the orbit representatives on each read, code
    into a fresh SubspaceCode.
    """

    __slots__ = ("field", "moduli", "orbit_count", "dims", "members", "_orbits")
    _fields = ("field", "m", "moduli", "words", "orbit_count")

    def __init__(self, field: FieldSpec, moduli: tuple, orbit_count: int, dims: tuple,
                 members: array, orbits: _OrbitTable):
        self.field = field
        self.moduli = moduli            # all proper divisors m of q^n-1 that work, ascending
        self.orbit_count = orbit_count  # number of m-quasi orbits the word set splits into
        self.dims = dims                # the distinct word dimensions, ascending
        self.members = members          # array('i') of the words' member ids, ascending
        self._orbits = orbits

    @property
    def m(self) -> int:         # the smallest modulus exhibiting the quasi-cyclic closure
        return self.moduli[0]

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
    def code(self) -> SubspaceCode:
        return SubspaceCode(self.field, self._orbits.words(self.members))

    def params(self) -> tuple:
        return self.code.params()


# self_dual_search estimates its memory as SELFDUAL_BASE_BYTES, a little more
# than the interpreter and the package hold before it starts (12 MB on CPython
# 3.10, 16.8 MB on 3.11), plus, for each subspace, its bitset and
# SELFDUAL_WORD_OVERHEAD bytes, plus, when q is odd, SELFDUAL_HIT_OVERHEAD
# bytes for each complement pair.  For odd q, -1 fixes every subspace, so at
# the maximal modulus (q^n-1)/2 every pair {V, V-perp} is a component of its
# own, and each is a minimal hit: about one hit per two subspaces, where over
# F_2^n the hits are few and large.  A hit is a slotted SelfDualHit (80 bytes
# on CPython 3.11) and an array('i') of its member ids (96 bytes for two).
# The complement map perp_id and the rotation tables of the hits'
# quasi-cyclic checks, one per distinct m (one over F_2^8, two over F_3^6),
# each take 4 bytes per subspace (1.7 MB over F_2^8); perp_id is dropped
# before the tables are built, and the tables when the search returns.  A
# `selfdual` call's own peak (VmHWM) over F_2^8 (417,199 subspaces, estimated
# at 39.7 MB) was 20.2-20.7 MiB on CPython 3.10 and 23.8-24.0 MiB on 3.11, and
# over F_3^6 under x^6+x^5+2 (56,632 subspaces and 28,315 hits, estimated at
# 46.9 MB) 24.8 and 28.5 MiB: the estimate stays between the peak and twice it.
SELFDUAL_BASE_BYTES = 18_000_000
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


def self_dual_search(field: FieldSpec) -> list:
    """All minimal self-dual m-quasi-cyclic codes in P_q(n), every proper m.

    Pairs each subspace with its orthogonal complement once, then reads off
    connected components of the pairing at the m-quasi-orbit level: every
    component is a self-dual m-quasi-cyclic code and every minimal one
    arises this way.  Three facts keep the work down while giving the same
    hits as running every proper divisor m of N = q^n-1:

    - maximal moduli: when m divides m', the m'-quasi orbits refine the
      m-quasi orbits, so a component at m is a union of components at m'.
      A minimal component is therefore a component at some N/p (p a prime
      factor of N), and the union-find runs only at those moduli, each
      component named by its root, its smallest member;
    - moduli from one level: a set closed under the shifts by m and m' is
      closed under the shift by gcd(m, m') and by every multiple of it, so
      a hit's moduli are exactly the proper divisors of N that its smallest
      modulus m0 divides.  m0 is found at the maximal modulus M the hit is
      read at, by dividing M by each of its primes while the shift still
      maps the hit's nodes onto nodes of its root (one pass over the
      level's nodes per prime finds the components with m0 = M), and its
      m0-quasi orbits are counted from those nodes;
    - minimality: components at one modulus are disjoint, so K is not
      minimal exactly when it strictly contains a component C found at
      another maximal modulus.  One probe per C and level settles it: from
      C's smallest member to the root of the component there that holds
      it, which is marked, as an (M, root) pair, when it holds every member
      of C and is larger than C, or as large and at a later maximal modulus:
      then it is C itself, read at C's modulus, so each hit is read once.

    m = q^n-1 is excluded (the shift is the identity and every dual-closed
    set would qualify), and so is the {0, full-space} pair, which every
    modulus closes.

    The search holds each cyclic orbit as its representative (the census's
    up to n/2, the trace duals of those above it: see _OrbitTable), the
    pairing as one map perp_id from each member id to its complement's,
    made and verified by _complement_pairs, each level as arrays over its
    nodes (_Pairs, _Level), and each hit as a slotted SelfDualHit over an
    array of its member ids, built where its component is read.  Each hit
    is checked on sets of its member ids: every hit is self-dual when its
    set holds perp_id of every member; then perp_id is dropped, and every
    hit is m-quasi-cyclic when its set holds the image of every member in
    the rotation table of gamma^m (_OrbitTable.rotation), built once per
    distinct m, so the pairing and the tables are never held together.
    No hit builds a set of its words.  The ids above n/2 follow the trace
    duals, but every hit's smallest member lies at a dimension of at most
    n/2, numbered as the census lists it, so the order of the hits does
    not depend on them.

    Before any work, the memory the search would hold is estimated as the
    SELFDUAL_* constants set out, and a ResourceLimit is raised when that
    exceeds SELFDUAL_MAX_BYTES (500 MB): P_2(9) (714 MB) and P_3(7) (1.4 GB)
    are refused.  The rotation tables are dropped when the search returns;
    each hit keeps only the orbit table.
    """
    total, need = _space_needed(field)
    if need > SELFDUAL_MAX_BYTES:
        raise ResourceLimit(
            f"P_{field.q}({field.n}) has {total} subspaces, an estimated {need / 1e6:.1f} MB "
            f"to search, over the limit of {SELFDUAL_MAX_BYTES / 1e6:.1f} MB")

    orbits = _OrbitTable(field)
    perp_id = _complement_pairs(field, orbits)
    hits = _minimal_components(field, orbits, perp_id)
    for hit in hits:
        if not set(hit.members).issuperset(map(perp_id.__getitem__, hit.members)):
            raise VerificationFailed("component is not self-dual: internal error")
    # dropped first, so that the pairing and the rotation tables are never held together
    del perp_id
    rotations = {m: orbits.rotation(m) for m in {hit.m for hit in hits}}
    for hit in hits:
        if not set(hit.members).issuperset(map(rotations[hit.m].__getitem__, hit.members)):
            raise VerificationFailed("component is not quasi-cyclic: internal error")
    # ties in (dimension kind, size, m) go by the hit's smallest member id;
    # two hits of one m are two components at the first maximal modulus m
    # divides, which are disjoint, so no two hits tie on all four
    hits.sort(key=lambda h: (not h.constant_dimension, h.size, h.m, h.members[0]))
    return hits


class _Level:
    """The quasi orbits at one maximal modulus M, numbered as nodes, and their components.

    Member i of cyclic orbit o = orbit_of[i] is member i - start[o] of it;
    its quasi orbit s, the members s, s+g, s+2g, ... with g = g[o] =
    gcd(M, orbit size), is node offset[o] + s.  A component is the set of
    nodes with its root, its smallest member: root maps each node to its
    root, an array('i'), sizes each root to the component's number of
    members, in the order of the roots, and component j is the ascending
    nodes[bounds[j]:bounds[j + 1]].  No member -> node map is kept: node
    and holds compute a member's node from its orbit, and a node's orbit
    is found by bisecting offset.  Nodes are read with C-level maps, but
    for read_out's closure tests, which stop at the first node that fails.
    """

    __slots__ = ("M", "start", "orbit_of", "g", "offset", "dim", "root", "sizes", "nodes",
                 "bounds")

    def __init__(self, M: int, orbits: _OrbitTable, root: array):
        """The level of modulus M whose nodes have the roots _Pairs.roots(M)."""
        sizes = orbits.lengths
        self.M, self.start, self.orbit_of, self.root = M, orbits.start, orbits.orbit_of, root
        self.g = g = [gcd(M, size) for size in sizes]
        self.offset = offset = [0, *accumulate(g)]
        self.dim = b"".join(map(mul, map(bytes, zip(orbits.dims)), g))    # node -> dimension
        # a component's smallest member lies in its smallest node, so the
        # roots first appear in order; array.append returns None, so any()
        # runs the whole C-level pass that appends each node to its root's array
        groups = {r: array("i") for r in dict.fromkeys(root)}
        any(map(array.append, map(groups.__getitem__, root), range(offset[-1])))
        weight = _joined(map(mul, map(array, repeat("i"), zip(map(floordiv, sizes, g))), g),
                         offset[-1])          # node -> its members
        self.sizes = {r: sum(map(weight.__getitem__, nodes)) for r, nodes in groups.items()}
        self.nodes = _joined(groups.values(), offset[-1])
        self.bounds = array("i", accumulate(map(len, groups.values()), initial=0))

    def components(self):
        """(root, ascending nodes as an array('i')) of each component, in the order of the roots."""
        return zip(self.sizes, map(self.nodes.__getitem__,
                                   map(slice, self.bounds, self.bounds[1:])))

    def node(self, i: int) -> int:
        """The node of member id i."""
        o = self.orbit_of[i]
        return self.offset[o] + (i - self.start[o]) % self.g[o]

    def quasi_orbits(self, nodes) -> tuple:
        """The nodes as two lists, their orbits and their s."""
        oids = list(map(sub, map(bisect_right, repeat(self.offset), nodes), repeat(1)))
        return oids, list(map(sub, nodes, map(self.offset.__getitem__, oids)))

    def members(self, nodes):
        """The member ids of the nodes; the first is the smallest when nodes ascend."""
        oids, ss = self.quasi_orbits(nodes)
        start = self.start
        return chain.from_iterable(map(range, map(add, map(start.__getitem__, oids), ss),
                                       map(start.__getitem__, map(add, oids, repeat(1))),
                                       map(self.g.__getitem__, oids)))

    def member_ids(self) -> dict:
        """root -> array('i') of its component's member ids, ascending.

        An orbit's members have its nodes' roots repeated D/g times.
        """
        out = {r: array("i") for r in self.sizes}
        root, offset, start = self.root, self.offset, self.start
        for o, gi in enumerate(self.g):
            ids = range(start[o], start[o + 1])
            any(map(array.append, map(out.__getitem__,
                                      root[offset[o]:offset[o + 1]] * (len(ids) // gi)), ids))
        return out

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
        root; each test stops at the first node whose shifted node has
        another.  The shifts that close it are the multiples of its smallest
        modulus m0 (a set closed under two shifts is closed under their
        gcd), so m0 is found by dividing M by each of its primes while the
        closure holds, and the moduli are the m in proper that m0 divides.
        The component meets each m0-quasi orbit, a class of s mod
        gcd(m0, g[o]), in all its quasi orbits or none, so it splits into as
        many m0-quasi orbits as it has nodes with s < gcd(m0, g[o]): every
        node when m0 = M, as g[o] divides M.
        """
        root, offset, g = self.root, self.offset, self.g
        r = root[nodes[0]]

        def closed(m: int) -> bool:
            for x in nodes:
                o = bisect_right(offset, x) - 1
                if root[offset[o] + (x - offset[o] + m) % g[o]] != r:
                    return False
            return True

        m0 = self.M
        for p in filter(is_prime, divisors(self.M)):
            while m0 % p == 0 and closed(m0 // p):
                m0 //= p
        if m0 == self.M:
            count = len(nodes)
        else:
            oids, ss = self.quasi_orbits(nodes)
            count = sum(map(lt, ss, map(gcd, repeat(m0), map(g.__getitem__, oids))))
        return tuple(m for m in proper if m % m0 == 0), count


def _complement_pairs(field: FieldSpec, orbits: _OrbitTable) -> array:
    """The orthogonal-complement pairing as one map perp_id, an array('i').

    perp_id[i] is the member id of the complement of member i.  The orbits
    are filled in id order, each orbit's complements from
    orbit_complements, and each pair found sets its partner's entry too,
    so the dimension tells which members are looked up: every member
    below n/2, none above it, and in the middle dimension, n/2, those whose
    entry is still unknown, as their partner's orbit is not before theirs.
    While dimension k is filled, the complements are looked up through
    orbits.member_finder(n - k), an index of that one dimension, dropped
    before the next one is built: dimensions n, n - 1, ..., down to the
    middle are indexed, each once.  So no word set is held.  Each orbit's
    entries, once it is filled, are checked against the complements
    computed from its own words, bit for bit, and the whole map for being
    an involution, which catches an entry a later pair overwrote or one
    left unset; either failure raises VerificationFailed.
    """
    mask, n = (1 << orbits.N) - 1, field.n
    indexed, member_ids = None, None
    perp_id = array("i", (-1,)) * orbits.start[-1]
    for k, doubled, a, b in zip(orbits.dims, orbits.doubled, orbits.start, orbits.start[1:]):
        comps = orbit_complements(field, doubled & mask, k, b - a)
        if 2 * k < n:
            ids, words = range(a, b), comps
        elif 2 * k == n:
            unknown = bytes(map(eq, perp_id[a:b], repeat(-1)))
            ids = list(compress(range(a, b), unknown))
            words = list(compress(comps, unknown))
        else:
            ids = words = ()
        if words:
            if indexed != n - k:
                member_ids = None           # the previous dimension's index is freed first
                indexed, member_ids = n - k, orbits.member_finder(n - k)
            found = member_ids(words)
            # __setitem__ returns None, so any() runs each whole C-level pass
            if 2 * k < n:
                perp_id[a:b] = found
            else:
                any(map(perp_id.__setitem__, ids, found))
            any(map(perp_id.__setitem__, found, ids))
        if not all(map(eq, orbits.words(perp_id[a:b]), comps)):
            raise VerificationFailed("a complement's id names another word: internal error")
    if not all(map(eq, map(perp_id.__getitem__, perp_id), range(len(perp_id)))):
        raise VerificationFailed("the complement pairing is not an involution: internal error")
    return perp_id


class _Pairs:
    """The complement pairs {i, perp_id[i]}, i < perp_id[i], that every maximal modulus joins.

    Ids ascend with dimension, and a k-subspace's complement has dimension
    n - k, so each id below lo, the first of dimension 2k >= n, is its
    pair's smaller end; left and right hold the pairs of dimension 2k = n,
    self-perpendicular members left out.  parent, the union-find forest
    over the members, is one buffer for every modulus.
    """

    __slots__ = ("lo", "left", "right", "perp_id", "start", "parent")

    def __init__(self, orbits: _OrbitTable, perp_id: array):
        dims, n = orbits.dims, orbits.dims[-1]
        self.perp_id, self.start = perp_id, start = perp_id, orbits.start
        self.lo = lo = start[bisect_left(dims, (n + 1) // 2)]
        hi = start[bisect_left(dims, n // 2 + 1)]
        ids, perp = range(lo, hi), perp_id[lo:hi]
        below = bytes(map(lt, ids, perp))
        self.left, self.right = array("i", compress(ids, below)), array("i", compress(perp, below))
        self.parent = array("i", (0,)) * len(perp_id)

    def roots(self, M: int) -> array:
        """The smallest member of the component of each quasi orbit at modulus M, an array('i').

        Orbit o of size D has g = gcd(M, D) quasi orbits, and quasi orbit
        s < g holds its members s, s + g, ...  Each member starts under the
        first member of its quasi orbit, start[o] + s, which stands for it,
        so the pairs index the forest directly.
        """
        parent, lo, start = self.parent, self.lo, self.start
        stop = list(map(add, start, map(gcd, repeat(M), map(sub, start[1:], start))))
        for a, b, end in zip(start, stop, start[1:]):
            parent[a:end] = array("i", range(a, b)) * ((end - a) // (b - a))
        _union_find(parent, chain(range(lo), self.left),
                    chain(islice(self.perp_id, lo), self.right))
        # every parent is a first member, below its child
        for first in chain.from_iterable(map(range, start, stop)):
            parent[first] = parent[parent[first]]
        return _joined(map(parent.__getitem__, map(slice, start, stop)), sum(map(sub, stop, start)))


def _union_find(parent: array, a, b) -> None:
    """Join the pairs zip(a, b) in the forest parent, in place, where parent[x] <= x.

    Rem's algorithm with splicing: the two paths, from the pair's parents,
    are climbed together, the one at the larger parent first, each node
    passed spliced onto the other's smaller parent, until the parents meet
    or a root is linked under a smaller node.  So parent[x] <= x holds, each
    root is the smallest node of its tree, and one ascending pass sets
    each node to its root.
    """
    for x, y in zip(a, b):
        x, y = parent[x], parent[y]
        px, py = parent[x], parent[y]
        while px != py:
            if px > py:
                parent[x] = py
                if x == px:
                    break
                x, px = px, parent[px]
            else:
                parent[y] = px
                if y == py:
                    break
                y, py = py, parent[py]


def _joined(parts, size: int) -> array:
    """The arrays('i') parts end to end, in one array('i') of size entries.

    It is allocated whole: a large array grown piece by piece is moved many
    times, and the heap keeps the holes.
    """
    out, end = array("i", (0,)) * size, 0
    for part in parts:
        out[end:end + len(part)] = part
        end += len(part)
    return out


def _minimal_components(field: FieldSpec, orbits: _OrbitTable, perp_id: array) -> list:
    """An unchecked SelfDualHit for each minimal component but the {0, full-space} pair.

    Each is read at the first maximal modulus it is a component at, from
    the pairing perp_id that _complement_pairs made: its member ids from
    the level's member arrays, built once the level has a hit, and its
    moduli and quasi-orbit count from _Level.read_out.
    """
    N = field.group_order
    maximal = [N // p for p in divisors(N) if is_prime(p)]
    # every union-find first, so that the pairs are gone before any level is grouped
    pairs = _Pairs(orbits, perp_id)
    roots = list(map(pairs.roots, maximal))
    del pairs
    levels = list(map(_Level, maximal, repeat(orbits), roots))
    del roots

    # minimality: probe every level with the smallest member of each
    # component, its root, and mark the root found there when its component
    # holds every member of the probing one and is larger, or as large (the
    # same set) at a later level (at the component's own level the root
    # found is its own, of the same size)
    marked = set()       # (M, root) of every component that holds a smaller or earlier one
    for i, level in enumerate(levels):
        for r, nodes in level.components():
            for j, other in enumerate(levels):
                root = other.root[other.node(r)]
                if ((other.M, root) not in marked
                        and (other.sizes[root], j) > (level.sizes[r], i)
                        and other.holds(root, array("i", level.members(nodes)))):
                    marked.add((other.M, root))

    # the levels are read last first, each dropped once read, so that one
    # level's nodes and member arrays are alive at a time
    hits, proper = [], divisors(N)[:-1]
    shared = {}          # one copy of each moduli and dims tuple
    while levels:
        level, members = levels.pop(), None
        for r, nodes in level.components():
            # member 0 is the zero subspace, so its component is the {0, full-space} pair
            if (level.M, r) in marked or r == 0:
                continue
            if members is None:
                members = level.member_ids()
            moduli, orbit_count = level.read_out(nodes, proper)
            dims = tuple(sorted(set(map(level.dim.__getitem__, nodes))))
            hits.append(SelfDualHit(field, shared.setdefault(moduli, moduli), orbit_count,
                                    shared.setdefault(dims, dims), members[r], orbits))
    return hits
