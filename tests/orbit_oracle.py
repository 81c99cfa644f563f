"""The rotate/popcount orbit loops that the orbit kernels replaced, as oracles.

Each function walks an orbit one rotate_bits step at a time and converts
every member's overlap to a distance, as the code did before the orbit_bits
and cyclic_overlaps kernels.  process_orbit keeps both of its branches: the
GF(2) one with the inlined rotation and bit-length dimension, and the
general-q one.

visited_census is the census as it was before orderly generation: it keeps
a set of every member containing gamma^0 of the orbits met so far, skips
the candidates in it, and names each orbit by the least of those members.
It walks every candidate, those the wrap-gap bound skips too.

per_orbit_census is the census loop before Frobenius conjugates shared
their records: every orbit the walk keeps goes through orbit_record.
frobenius_image maps a subspace's bitset by x -> x^q, one bit at a time.

rref_candidates is the candidate walk before the rows shared their spans
and before the wrap-gap bound skipped any: one counter over all free digits
of a pivot pattern, and every basis spanned from scratch.
bounded_candidates numbers it and keeps the candidates that pass the bound
(passes_wrap_gap_bound), as the census walk does.

walk_rows_per_choice is the row walk before each leaf was expanded as a
whole: one _span_step per row-0 choice, each candidate yielded up through
the recursion's generator frames.

pairwise_graph is the compatibility graph as it was built before the
t-subspace index: one correlation (inter_orbit_distance) per pair of
included orbits.

materialized_code is code_from_generators as it was before a code kept
its orbits: it rotates every generator into all its words, flags a
generator whose words meet the words so far as a duplicate, and builds the
code from the word set through the constructor.
"""

import itertools
from math import gcd, prod

from orbitcodes.codes import SubspaceCode
from orbitcodes.construct import CompatGraph, inter_orbit_distance as kernel_inter_orbit_distance
from orbitcodes.errors import OrbitCodesError, VerificationFailed
from orbitcodes.orbits import _iter_candidates
from orbitcodes.subspace import (
    Subspace,
    _span_step,
    check_modulus,
    cyclic_overlaps as overlap_kernel,
    dimension_from_popcount,
    divisors,
    exponents_of,
    is_min_member,
    meet_dim,
    orbit_bits,
    orbit_record,
    rotate_bits,
    stabilizer,
)


def gamma0_members(field, bits: int) -> set:
    """The members of bits' cyclic orbit that contain gamma^0.

    They are the rotations by -e for the exponents e of the subspace, so
    they cost |V| shifts of the doubled bitset, not one per member.
    """
    N = field.group_order
    doubled = bits | bits << N
    mask = (1 << N) - 1
    out = set()
    while bits:
        low = bits & -bits
        out.add((doubled >> (low.bit_length() - 1)) & mask)
        bits ^= low
    return out


def visited_census(field, k: int) -> list:
    """(rep, D, t, min_by_step) of every cyclic orbit of G_q(n, k), first met first.

    Each orbit's walk uses the kernels (stabilizer, cyclic_overlaps), which
    test_orbit_kernel checks against the per-step loops on their own.
    """
    visited = set()
    records = []
    for bits in rref_candidates(field, k):
        if bits in visited:
            continue
        ones = gamma0_members(field, bits)
        visited.update(ones)
        t, D = stabilizer(field, bits)
        overlap = overlap_kernel(field, bits, bits)
        min_by_step = {g: 2 * k - 2 * meet_dim(field.q, overlap[g:D:g], k)
                       for g in divisors(D) if g < D}
        records.append((min(ones), D, t, min_by_step))
    return records


def per_orbit_census(field, k: int) -> list:
    """The census records with each kept orbit walked on its own."""
    return [orbit_record(field, bits, k) for _, bits in _iter_candidates(field, k)
            if is_min_member(field, bits)]


def frobenius_image(field, bits: int) -> int:
    """The bitset of sigma(V) = {x^q : x in V}: exponent e goes to q e mod N."""
    return sum(1 << field.q * e % field.group_order for e in exponents_of(bits))


def rref_candidates(field, k: int):
    """The bitsets of the k-subspaces containing gamma^0, in _iter_candidates' order.

    For each pivot pattern of a reduced echelon (k-1) x (n-1) matrix, in
    lexicographic order, a base-q counter runs over the free digits (row i,
    column c > pivot i, c not a pivot), the first free position least
    significant.  Quotient column c is coordinate c+1, and the span of
    gamma^0 and the rows is built from scratch: each vector holds coordinate
    i in byte i of an integer, so a linear combination is one integer sum
    whose bytes are reduced mod q at the end, and a table from reduced bytes
    to exponents (built from field.log) names its element.  A byte holds at
    most k (q-1)^2, the largest sum of k rows before the reduction.  k = 0
    gives the zero subspace.
    """
    n, q = field.n, field.q
    if k == 0:
        yield 0
        return
    assert k * (q - 1) ** 2 < 256, "a coordinate sum must fit in a byte"
    mod_q = bytes(d % q for d in range(256))
    exponent = {bytes((p // q ** i) % q for i in range(n)): field.log[p]
                for p in range(1, q ** n)}
    for pivots in itertools.combinations(range(n - 1), k - 1):
        free = [(i, c) for i in range(k - 1)
                for c in range(pivots[i] + 1, n - 1) if c not in pivots]
        for count in range(q ** len(free)):
            rows = [1 << 8 * (p + 1) for p in pivots]
            for i, c in free:
                count, digit = divmod(count, q)
                rows[i] += digit << 8 * (c + 1)
            elts = [0]
            for row in [1, *rows]:
                elts = [e + a * row for a in range(q) for e in elts]
            bits = 0
            for v in elts[1:]:
                bits |= 1 << exponent[v.to_bytes(n, "little").translate(mod_q)]
            yield bits


def walk_rows_per_choice(field, rows: list, cap=None, index: int = 0):
    """(index, bitset) of the span of one choice from each of rows, for every
    choice whose bitset is below cap, the last row outermost, as
    subspace._walk_rows yields them; the index counts the skipped ones too."""
    if cap is None:
        cap = 1 << field.group_order
    get = field.exp_bits.__getitem__

    def walk(rows, elts, bits, index):
        if len(rows) > 1:
            below = prod(map(len, rows[:-1]))
            for v in rows[-1]:
                new = _span_step(field, elts, v)
                out = bits | sum(map(get, new))
                if out < cap:
                    yield from walk(rows[:-1], elts + new, out, index)
                index += below
        elif rows:
            outs = [bits | sum(map(get, _span_step(field, elts, v))) for v in rows[0]]
            for i, out in enumerate(outs, index):
                if out < cap:
                    yield i, out
        else:
            yield index, bits

    return walk(rows, [0], 0, index)


def passes_wrap_gap_bound(field, k: int, bits: int) -> bool:
    """Whether the census walk tests this candidate of G_q(n, k).

    The s = q^k - 1 exponents of a subspace cut the N = q^n - 1 exponents
    into s cyclic gaps; the wrap gap N - top, top the highest exponent, must
    be at least their mean N / s.  The zero subspace has no gaps and passes.
    """
    N, s = field.group_order, field.q ** k - 1
    return bits == 0 or s * (N - (bits.bit_length() - 1)) >= N


def bounded_candidates(field, k: int) -> list:
    """(index in rref_candidates, bits) of the candidates that pass the bound."""
    return [(i, bits) for i, bits in enumerate(rref_candidates(field, k))
            if passes_wrap_gap_bound(field, k, bits)]


def quasi_length_formula(field, t: int, m: int) -> int:
    """Orbit length D/gcd(m, D) with D = (q^n-1)/(q^t-1)."""
    D = field.group_order // (field.q ** t - 1)
    return D // gcd(m, D)


def naive_orbit_length(V: Subspace, m: int) -> int:
    """Brute-force least l >= 1 with shift(V, l*m) = V."""
    N = V.field.group_order
    cur = rotate_bits(V.bits, m, N)
    l = 1
    while cur != V.bits:
        cur = rotate_bits(cur, m, N)
        l += 1
    return l


def cyclic_overlaps(field, a: int, b: int) -> list:
    """|a & rot(b, j)| for every shift j, one rotation at a time."""
    N = field.group_order
    return [(a & rotate_bits(b, j, N)).bit_count() for j in range(N)]


def stabilizer_degree_bits(field, bits: int) -> int:
    N, q = field.group_order, field.q
    for t in sorted(divisors(field.n), reverse=True):
        if rotate_bits(bits, N // (q ** t - 1), N) == bits:
            return t
    raise AssertionError("t=1 always stabilizes")


def process_orbit(field, k: int, bits: int, visited: set, general: bool = False):
    """(rep, D, t, min_by_class) of one cyclic orbit; marks members containing gamma^0.

    min_by_class maps gcd(j, D) to the least d(V, gamma^j V) over that class.
    general=True takes the general-q branch even when q = 2.
    """
    N, q = field.group_order, field.q
    t = stabilizer_degree_bits(field, bits)
    D = N // (q ** t - 1)
    min_by_class = {}
    rep = bits
    cur = bits
    two_k = 2 * k
    if q == 2 and not general:
        for j in range(1, D):
            cur = ((cur << 1) | (cur >> (N - 1))) & ((1 << N) - 1)
            if cur & 1:
                visited.add(cur)
            if cur < rep:
                rep = cur
            d = two_k - 2 * ((bits & cur).bit_count() + 1).bit_length() + 2
            c = gcd(j, D)
            if d < min_by_class.get(c, two_k + 1):
                min_by_class[c] = d
    else:
        for j in range(1, D):
            cur = rotate_bits(cur, 1, N)
            if cur & 1:
                visited.add(cur)
            if cur < rep:
                rep = cur
            w = dimension_from_popcount((bits & cur).bit_count(), q)
            d = two_k - 2 * w
            c = gcd(j, D)
            if d < min_by_class.get(c, two_k + 1):
                min_by_class[c] = d
    return rep, D, t, min_by_class


def min_dist_for_step(D: int, min_by_class: dict, g: int) -> int:
    """Internal minimum distance of the quasi orbit stepping by g (g | D)."""
    if g >= D:
        return 0
    return min(v for c, v in min_by_class.items() if c % g == 0)


def orbit_of(V: Subspace, m: int = 1) -> tuple:
    """(rep bits, length, min_dist, t) of V's m-quasi orbit."""
    field = V.field
    N = field.group_order
    if m < 1 or N % m != 0:
        raise OrbitCodesError(f"m={m} does not divide {N}")
    t = stabilizer_degree_bits(field, V.bits)
    D = N // (field.q ** t - 1)
    L = D // gcd(m, D)
    cur = V.bits
    best = V.bits
    md = 2 * V.dim + 1
    for _ in range(1, L):
        cur = rotate_bits(cur, m, N)
        if cur < best:
            best = cur
        w = dimension_from_popcount((V.bits & cur).bit_count(), field.q)
        md = min(md, 2 * V.dim - 2 * w)
    if rotate_bits(cur, m, N) != V.bits:
        raise VerificationFailed("orbit length formula disagrees with iteration")
    if L == 1:
        md = 0
    return best, L, md, t


def inter_orbit_distance(A, B) -> int:
    """Least distance from A's rep to any of the N/m shifts of B's rep."""
    field = A.field
    N, q = field.group_order, field.q
    a, ka, kb = A.rep.bits, A.k, B.k
    cur = B.rep.bits
    best = ka + kb
    for _ in range(N // A.m):
        d = ka + kb - 2 * dimension_from_popcount((a & cur).bit_count(), q)
        if d < best:
            best = d
            if best == 0:
                return 0
        cur = rotate_bits(cur, A.m, N)
    return best


def expand_orbit_bits(field, bits: int, m: int) -> list:
    """All distinct rotations of bits by multiples of m, starting at bits."""
    N = field.group_order
    out = [bits]
    cur = rotate_bits(bits, m, N)
    while cur != bits:
        out.append(cur)
        cur = rotate_bits(cur, m, N)
    return out


def _dist_bits(q: int, ka: int, kb: int, a: int, b: int) -> int:
    return ka + kb - 2 * dimension_from_popcount((a & b).bit_count(), q)


def min_distance_orbits(C) -> int:
    """Minimum distance of a code with provenance, member by member."""
    field = C.field
    N, q = field.group_order, field.q
    gens = []
    seen = set()
    m, orbits = C.provenance
    for gen, _ in orbits:
        members = expand_orbit_bits(field, gen.bits, m)
        if members[0] in seen:
            continue
        seen.update(members)
        gens.append((gen.dim, gen.bits, m, len(members)))
    best = None

    def consider(d):
        nonlocal best
        if best is None or d < best:
            best = d

    for ka, a, m, length in gens:
        cur = a
        for _ in range(length - 1):
            cur = rotate_bits(cur, m, N)
            consider(_dist_bits(q, ka, ka, a, cur))
    for i in range(len(gens)):
        ka, a, ma, _ = gens[i]
        for j in range(i + 1, len(gens)):
            kb, b, _, _ = gens[j]
            cur = b
            for _ in range(N // ma):
                consider(_dist_bits(q, ka, kb, a, cur))
                cur = rotate_bits(cur, ma, N)
    if best is None:
        raise OrbitCodesError("code has a single orbit of length 1")
    return best


def canonical_rotation(V: Subspace, m: int = 1) -> tuple:
    """(least rotation of V by a multiple of m, the offset reaching it)."""
    N = V.field.group_order
    if m < 1 or N % m != 0:
        raise OrbitCodesError(f"modulus {m} does not divide {N}")
    best, best_off = V.bits, 0
    cur = V.bits
    for j in range(1, N // m):
        cur = rotate_bits(cur, m, N)
        if cur == V.bits:
            break
        if cur < best:
            best, best_off = cur, j * m
    return best, best_off


def pairwise_graph(orbits, d: int):
    """The compatibility graph from one inter_orbit_distance call per pair.

    The included orbits are those with min_dist >= d, in the input order,
    and an edge joins two of them whose distance meets d.
    """
    included = [o for o in orbits if o.min_dist >= d]
    excluded = [o for o in orbits if o.min_dist < d]
    n = len(included)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if kernel_inter_orbit_distance(included[i], included[j]) >= d:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return CompatGraph(included, d, adj, excluded)


def materialized_code(field, m: int, generators) -> SubspaceCode:
    """Union of the m-quasi orbits of the generators, as a word set."""
    check_modulus(field, m)
    bitsets = set()
    duplicates = []
    orbits = []
    for idx, gen in enumerate(generators):
        if gen.field != field:
            raise OrbitCodesError("generator belongs to a different field")
        members = orbit_bits(field, gen.bits, m)
        if not bitsets.isdisjoint(members):
            duplicates.append(idx)
        bitsets.update(members)
        orbits.append((gen, len(members)))
    return SubspaceCode(field, bitsets, (m, tuple(orbits)), tuple(duplicates))
