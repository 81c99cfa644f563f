"""Characteristic-bitvector subspaces of F_{q^n} and the coordinate-matrix bridge.

A subspace V is stored as an integer bitset over exponents 0..q^n-2: bit j
is set iff gamma^j lies in V (the zero vector is implicit).  Intersection is
a bitwise AND, multiplying every element by gamma^e rotates the bitset by e
positions, and the dimension k is recovered from popcount = q^k - 1.

The orthogonal complement (under the coordinate dot product in the
polynomial basis) needs no elimination.  perp[r] is the bitset of exponents
e with antilog[e] . r = 0 (mod q), the hyperplane orthogonal to the packed
vector r, and V-perp is the AND of perp[antilog[e]] over the set bits e of
V, taken in increasing order.  The AND over any subset S of V is S-perp,
which shrinks exactly when the next vector lies outside the span of S, so
the exponents that shrink it are a basis of V and the loop stops after
dim V of them.  The masks are FieldSpec.perp_mask: each is a rotation of
the one bitset of exponents with trace 0, so a field's masks cost one pass
over its exponents, made on the first complement and memoised on the
FieldSpec as FieldSpec.perp_masks, indexed by exponent and doubled.  Fields
with at most PERP_TABLE_MAX_ORDER vectors keep all q^n - 1 masks (about
2 MB at the cap); larger ones rotate each mask when it is needed.
orbit_complements complements a whole cyclic orbit at once: member j,
the rotation by j, has the basis exponents b + j, so its complement is the
AND of the masks at b + j over the basis found for the representative,
one C-level pass over a slice of perp_masks per basis exponent.

Every orbit walk goes through two functions.  stabilizer(field, bits)
returns (t, D): F_{q^t} is the largest subfield whose nonzero elements fix
the subspace, and D = (q^n-1)/(q^t-1) is its cyclic orbit length.
orbit_bits(field, bits, m) returns the D/gcd(m, D) distinct rotations of
bits by multiples of m, each one shift-and-mask of the doubled bitset
bits | bits << (q^n-1).  An orbit is named by its smallest member as an
integer, and min_member(field, bits, m) finds it without listing the
orbit: that member has a set bit below m, so it is the rotation of V
down by e - e % m for some exponent e of V, at most |V| shifts of the
doubled bitset instead of D/gcd(m, D).  is_min_member(field, bits) asks
the same of a cyclic orbit with an early exit, which is how a census
keeps exactly one candidate per orbit.  min_member_of_exponents(exps, N)
finds a cyclic orbit's smallest member from a sorted exponent list alone:
it is a rotation down to an exponent that ends a largest cyclic gap, which
is how a census names the Frobenius images of an orbit.

Every basis, closure check and span comes from _span_step, which adds one
vector to a span (by XOR over F_2, by Zech logarithms over larger q); src/
does no elimination.  _basis_span takes the lowest
exponent not yet spanned as the next basis vector, so from_exponents checks
closure in at most k steps, and span and subspaces_of get a basis and its
span in one pass.  The subspaces are spanned by walking the rows of reduced
echelon matrices (_echelon_rows, _walk_rows): each choice of a row extends
the span of the rows after it once for every choice of the rows before it,
and each choice of the last row left only ORs the exponents it adds.
Each span is numbered by its place in the walk.  The census walks them
over the coordinates of F_q^n with a cap, skipping every node whose bitset
is not below it together with the spans under it (the wrap-gap bound, see
orbits), and subspaces_of(field, bits, t) over a subspace's own basis with
none, listing each of its t-subspaces once.

Every orbit distance comes from one correlation kernel, and two functions
read it: orbit_record(field, bits, k) gives a cyclic orbit's length,
stabilizer degree and internal distances (CyclicOrbitRecord), and
orbit_distance(field, a, k_a, b, k_b, m) the distance from a subspace to
an m-quasi orbit.  cyclic_overlaps(field, a, b) returns all N = q^n-1
overlaps |a & rot(b, j)|, j = 0..N-1, from a single big-int product
(Kronecker substitution): a is spread into N lanes, lane i holding bit i,
b into N lanes in reverse order, and lane N-1+j of the product is the
linear correlation at shift j; the wrapped part, lane j-1, is added back
in with one shift.  No lane can carry into the next, because every lane
is at most top = min(|a|, |b|), q^k - 1 for k-dimensional subspaces.  A
lane is W bytes, the smallest of 1, 2, 4 and 8 that holds top, spread by
translating the binary string to bytes and read back with to_bytes, as
bytes when W = 1 and as a memoryview cast to W-byte ints otherwise, so
the slices the two readers take (overlap[g:D:g], overlap[::m]) and the
searches over them run in C.  A distance between a subspace and an orbit
is read from the largest overlap: d = dim U + dim V - 2 dim(U meet V) is
smallest where the popcount of U & V is largest.  Every overlap of two
subspaces is the size q^w - 1 of their meet, so meet_dim(q, overlaps,
top) finds the largest w by testing q^w - 1, w = top, top-1, ..., for
membership in the slice.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import and_, itemgetter, sub

from .errors import (
    AllZero,
    BadModulus,
    DuplicateExponent,
    ExponentOutOfRange,
    FieldMismatch,
    NotASubspace,
)
from .gfext import FieldSpec
from .records import Record


def dimension_from_popcount(popcount: int, q: int) -> int:
    """Return k with q^k - 1 = popcount, or raise NotASubspace."""
    k, size = 0, 1
    while size - 1 < popcount:
        size *= q
        k += 1
    if size - 1 != popcount:
        raise NotASubspace(f"popcount {popcount} is not of the form {q}^k-1")
    return k


def rotate_bits(bits: int, e: int, length: int) -> int:
    """Rotate a length-bit bitset left by e positions (exponent shift by +e)."""
    e %= length
    if e == 0:
        return bits
    mask = (1 << length) - 1
    return ((bits << e) | (bits >> (length - e))) & mask


def check_modulus(field: FieldSpec, m: int) -> None:
    """Raise BadModulus unless m is a positive divisor of q^n - 1."""
    N = field.group_order
    if m < 1 or N % m != 0:
        raise BadModulus(f"modulus m={m} does not divide q^n-1 = {N}")


def stabilizer(field: FieldSpec, bits: int) -> tuple:
    """(t, D) for the subspace with these bits.

    F_{q^t} is the largest subfield (t | n) whose nonzero elements fix the
    subspace, and D = (q^n-1)/(q^t-1) is the length of its cyclic orbit.
    """
    N, q, n = field.group_order, field.q, field.n
    doubled = bits | bits << N
    mask = (1 << N) - 1
    for t in range(n, 0, -1):
        if n % t == 0:
            D = N // (q ** t - 1)
            if (doubled >> (N - D)) & mask == bits:
                return t, D
    raise NotASubspace("bitset is not fixed by the scalars F_q^*")


def orbit_bits(field: FieldSpec, bits: int, m: int = 1) -> list:
    """The distinct rotations of bits by multiples of m, starting at bits.

    Member j is the rotation by j*m, for j < D/gcd(m, D) with D from
    stabilizer; m must divide q^n - 1 (see check_modulus).
    """
    N = field.group_order
    _, D = stabilizer(field, bits)
    doubled = bits | bits << N
    mask = (1 << N) - 1
    return [(doubled >> s) & mask for s in range(N, N - D // gcd(m, D) * m, -m)]


def orbit_length(field: FieldSpec, bits: int, m: int = 1) -> int:
    """How many members orbit_bits(field, bits, m) lists: D/gcd(m, D)."""
    _, D = stabilizer(field, bits)
    return D // gcd(m, D)


def min_member(field: FieldSpec, bits: int, m: int = 1) -> tuple:
    """The smallest member of bits' m-quasi orbit and a shift s reaching it.

    s is a multiple of m in [0, q^n-1) with rotate_bits(bits, s, q^n-1)
    equal to the member; m must divide q^n - 1.  The smallest member has a
    set bit below m, or rotating it down by m would make it smaller, so it
    is the rotation of bits down by e - e % m for an exponent e of bits:
    one shift of the doubled bitset per distinct e - e % m, not one per
    member.
    """
    N = field.group_order
    doubled = bits | bits << N
    mask = (1 << N) - 1
    best, down = bits, 0
    rest = bits
    while rest:
        e = (rest & -rest).bit_length() - 1
        s = e - e % m
        member = (doubled >> s) & mask
        if member < best:
            best, down = member, s
        rest &= -1 << (s + m)       # drop the exponents with the same e - e % m
    return best, -down % N


def min_member_of_exponents(exps, N: int) -> int:
    """The smallest member of the cyclic orbit of a set of exponents mod N.

    exps must be sorted.  Rotating the set down to its exponent e puts the
    highest bit at N - G, G the cyclic gap that ends at e, so the smallest
    member is the rotation down to an exponent that ends a largest gap;
    when several largest gaps tie, the least of those rotations.  One
    shift per tied gap, with no test of the other exponents.
    """
    gaps = list(map(sub, exps, (exps[-1] - N, *exps)))     # gaps[i] ends at exps[i]
    widest = max(gaps)
    bits = sum(map((1).__lshift__, exps))
    doubled = bits | bits << N
    mask = (1 << N) - 1
    return min((doubled >> e) & mask for e, gap in zip(exps, gaps) if gap == widest)


def is_min_member(field: FieldSpec, bits: int) -> bool:
    """Whether bits is the smallest member of its cyclic orbit.

    The same shifts as min_member with m = 1, stopped at the first smaller
    rotation.  A member without gamma^0 is never the smallest (it halves
    when rotated down by one).  With gamma^0 in V, top its highest exponent
    and N = q^n-1, the rotation of V down by e has its highest bit at
    N - (e - e'), e' the exponent of V below e; that exceeds top unless
    e - e' >= N - top, so only the exponents e >= N - top are tried.  The
    first of them whose rotation is V itself is the orbit length D, and the
    rotation by any later e is that by e mod D, one tried already or one
    whose highest bit exceeds top, so the test stops there.
    """
    if not bits & 1:
        return bits == 0
    N = field.group_order
    doubled = bits | bits << N
    mask = (1 << N) - 1
    rest = bits & -1 << (N - bits.bit_length() + 1)
    while rest:
        low = rest & -rest
        member = (doubled >> (low.bit_length() - 1)) & mask
        if member <= bits:
            return member == bits
        rest ^= low
    return True


_BITS_TO_LANES = bytes.maketrans(b"01", b"\x00\x01")
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _lanes(bits: int, N: int, W: int, order: str) -> int:
    """bits spread into N lanes of W bytes.

    order "big" puts bit i in lane i; "little" puts it in lane N-1-i.
    """
    digits = format(bits, f"0{N}b").encode().translate(_BITS_TO_LANES)
    if W > 1:
        lanes = bytearray(W * N)
        lanes[W - 1 if order == "big" else 0::W] = digits
        digits = lanes
    return int.from_bytes(digits, order)


def cyclic_overlaps(field: FieldSpec, a: int, b: int):
    """All q^n - 1 overlaps |a & rot(b, j)|, indexed by the shift j.

    One product of a's lanes with b's reversed lanes gives the linear
    correlation; lane N-1+j holds the overlaps that do not wrap and lane
    j-1 those that do, and one shift adds the two.  A lane is W bytes,
    the fewest of 1, 2, 4 and 8 that hold min(|a|, |b|).  The result is
    bytes when W = 1, else a memoryview of W-byte ints.
    """
    N = field.group_order
    top = min(a.bit_count(), b.bit_count())
    W = next(w for w in _LANE_FORMATS if top < 1 << 8 * w)
    lane = 8 * W
    linear = _lanes(a, N, W, "big") * _lanes(b, N, W, "little")
    cyclic = (linear >> lane * (N - 1)) + ((linear << lane) & ((1 << lane * N) - 1))
    if W == 1:
        return cyclic.to_bytes(N, "little")
    lanes = memoryview(cyclic.to_bytes(W * N, sys.byteorder)).cast(_LANE_FORMATS[W])
    return lanes if sys.byteorder == "little" else lanes[::-1]


def meet_dim(q: int, overlaps, top: int) -> int:
    """Largest w <= top with q^w - 1 among the overlaps of two subspaces.

    Every such overlap is the size of a meet, q^w - 1, so the largest one
    is found by membership tests, which run in C; overlaps must not be
    empty.
    """
    for w in range(top, 0, -1):
        if q ** w - 1 in overlaps:
            return w
    return 0


def divisors(n: int) -> list:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


@lru_cache(maxsize=None)
def _steps(D: int) -> tuple:
    """The steps g | D with g < D of a cyclic orbit of length D.

    A census meets only the few lengths (q^n-1)/(q^t-1), t | n, of its field.
    """
    return tuple(g for g in divisors(D) if g < D)


class CyclicOrbitRecord(Record):
    """Raw m=1 orbit data from which every quasi census is derived."""

    __slots__ = _fields = ("rep_bits", "length", "stab_degree", "min_by_step")

    def __init__(self, rep_bits: int, length: int, stab_degree: int, min_by_step: dict):
        self.rep_bits = rep_bits
        self.length = length            # D, the cyclic orbit length
        self.stab_degree = stab_degree  # t with D = (q^n-1)/(q^t-1)
        self.min_by_step = min_by_step  # g | D, g < D -> min d(V, gamma^j V) over g | j

    def min_dist_for_step(self, g: int) -> int:
        """Internal minimum distance of a quasi orbit stepping by g (g | D)."""
        return 0 if g >= self.length else self.min_by_step[g]


def orbit_record(field: FieldSpec, bits: int, k: int, m: int = None) -> CyclicOrbitRecord:
    """The record of the cyclic orbit of the k-subspace bits, with bits as rep_bits.

    The orbit is walked without listing its D members.  Its overlaps
    |V & gamma^j V| for every j come from one correlation product
    (cyclic_overlaps).  A quasi orbit stepping by g | D holds the members
    j = g, 2g, ... of the cyclic orbit, so its internal minimum distance
    comes from the largest overlap among them, overlap[g:D:g].  min_by_step
    keeps that distance for every g | D with g < D, and an m-quasi orbit
    reads it at g = gcd(m, D).  Given m, min_by_step keeps only that step,
    the one an m-quasi orbit reads.
    """
    t, D = stabilizer(field, bits)
    min_by_step = {}
    if D > 1:           # D = 1 (the zero subspace and the full space) has no steps
        overlap = cyclic_overlaps(field, bits, bits)
        steps = _steps(D)
        if m is not None:
            steps = [g for g in steps if g == gcd(m, D)]
        min_by_step = {g: 2 * k - 2 * meet_dim(field.q, overlap[g:D:g], k) for g in steps}
    return CyclicOrbitRecord(bits, D, t, min_by_step)


def orbit_distance(field: FieldSpec, a: int, k_a: int, b: int, k_b: int, m: int) -> int:
    """Minimum distance from the k_a-subspace a to the m-quasi orbit of the
    k_b-subspace b.

    b's members are its rotations by multiples of m, so their overlaps with
    a are every m-th entry of one correlation, and the nearest member is
    the one with the largest overlap.  m must divide q^n - 1.
    """
    overlap = cyclic_overlaps(field, a, b)
    return k_a + k_b - 2 * meet_dim(field.q, overlap[::m], min(k_a, k_b))


def exponents_of(bits: int) -> tuple:
    """The set bits of a bitset, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


class Subspace(namedtuple("Subspace", "field bits dim")):
    """A subspace of F_{q^n} as a characteristic bitset over exponents."""

    __slots__ = ()

    def __new__(cls, field: FieldSpec, bits: int, dim: int):
        pc = bits.bit_count()
        if dimension_from_popcount(pc, field.q) != dim:
            raise NotASubspace(f"popcount {pc} inconsistent with dim {dim}")
        return tuple.__new__(cls, (field, bits, dim))

    @property
    def exponents(self) -> tuple:
        """Sorted exponents of the nonzero elements."""
        return exponents_of(self.bits)

    def __contains__(self, e) -> bool:
        """Whether gamma^e is in the subspace; only 0 <= e < q^n - 1 can be."""
        if not isinstance(e, int):
            raise TypeError(f"a subspace holds exponents (int), not {type(e).__name__}")
        return 0 <= e < self.field.group_order and bool(self.bits >> e & 1)

    def __repr__(self) -> str:
        exps = self.exponents
        body = ",".join(map(str, exps)) if len(exps) <= 16 else f"{len(exps)} elements"
        return f"Subspace(dim={self.dim}, [{body}])"


# -- construction ------------------------------------------------------------


def _span_step(field: FieldSpec, elts: list, v: int) -> list:
    """The packed vectors c*v + e, c = 1..q-1 (c outermost), for each e of elts.

    When elts is a span without v, listed from 0, these are the vectors the
    span gains by adjoining v.  Over q > 2 none of the sums is 0, so each
    is gamma^w (1 + gamma^(log e - w)) for c*v = gamma^w: a Zech-logarithm
    lookup and an antilog lookup, the logs of elts taken once for every c
    and negative indexes standing in for the reductions mod q^n - 1.
    """
    if field.q == 2:
        return [e ^ v for e in elts]
    log, antilog, zech, N = field.log, field.antilog, field.zech, field.group_order
    logs = [log[e] for e in elts[1:]]
    new = []
    for c in range(1, field.q):
        w = (log[c] + log[v]) % N
        new.append(antilog[w])
        new += [antilog[w - N + zech[x - w]] for x in logs]
    return new


def _basis_span(field: FieldSpec, bits: int, limit: int | None = None) -> tuple:
    """(basis, vectors, span bits) for the span of the exponents in bits.

    Each basis vector is the lowest exponent of bits outside the span of the
    ones before it; _span_step adds what it brings, their bits (exp_bits,
    as _walk_rows reads them) join the span's, and the exponents the span
    now covers are dropped.  vectors is the span in packed coordinates,
    sum c_i b_i at index sum c_i q^i, starting with 0.  At most limit basis
    vectors are taken, so a set that is not closed costs at most q^limit
    vectors however large the span it generates.
    """
    antilog, get = field.antilog, field.exp_bits.__getitem__
    basis, vectors, have = [], [0], 0
    rest = bits
    while rest and len(basis) != limit:
        v = antilog[(rest & -rest).bit_length() - 1]
        new = _span_step(field, vectors, v)
        basis.append(v)
        vectors += new
        have |= sum(map(get, new))
        rest &= ~have
    return basis, vectors, have


def _echelon_rows(q: int, pivots, ncols: int) -> list:
    """The choices of each row of a reduced echelon matrix with these pivots.

    Row i is q^pivot plus any digits in the non-pivot columns above its
    pivot, as packed base-q integers (column c is digit c), its choices in
    increasing value.
    """
    rows = []
    for p in pivots:
        row = [q ** p]
        for c in range(p + 1, ncols):
            if c not in pivots:
                row = [r + d * q ** c for d in range(q) for r in row]
        rows.append(row)
    return rows


def _walk_rows(field: FieldSpec, rows: list, cap: int | None = None, index: int = 0):
    """(index, bitset) of the span of one choice from each of rows, for every
    choice whose bitset is below cap, the last row outermost.

    index numbers every choice in this order from the given start, those
    skipped included.  Each choice of the last row extends the span of the
    rows after it once for every choice of the rows before it; a bitset only
    grows as rows are added, so a choice whose partial bitset is not below
    cap skips every choice of the rows before it, and the index moves past
    them.  The exponents a step adds are distinct from those before it, so
    the sum of their bits is their OR.
    """
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


def subspaces_of(field: FieldSpec, bits: int, t: int):
    """The bitsets of the t-dimensional subspaces of the subspace bits, each once.

    They are the row spaces of the reduced echelon t x k matrices over the
    subspace's own basis b_0..b_{k-1}: the span of that basis, listed by
    _basis_span, holds sum c_i b_i at the packed index sum c_i q^i, so an
    echelon row in those coordinates indexes its vector.  No t-subspace is
    met twice, and there are none when t > k.
    """
    basis, vectors, _ = _basis_span(field, bits)
    for pivots in itertools.combinations(range(len(basis)), t):
        rows = [[vectors[c] for c in row]
                for row in _echelon_rows(field.q, pivots, len(basis))]
        yield from map(itemgetter(1), _walk_rows(field, rows))


def from_exponents(field: FieldSpec, exps) -> Subspace:
    """Build a Subspace from the exponents of its nonzero elements, validating closure."""
    seen = set()
    bits = 0
    for e in exps:
        if not 0 <= e < field.group_order:
            raise ExponentOutOfRange(f"exponent {e} out of [0, {field.group_order})")
        if e in seen:
            raise DuplicateExponent(f"exponent {e} repeated")
        seen.add(e)
        bits |= 1 << e
    pc = bits.bit_count()
    try:
        k = dimension_from_popcount(pc, field.q)
    except NotASubspace:
        raise NotASubspace(
            f"{pc} nonzero elements is not q^k-1 for q={field.q}") from None
    # bits holds q^k - 1 exponents, so it is closed exactly when the span
    # of its first k independent ones is bits itself
    if _basis_span(field, bits, limit=k)[2] != bits:
        raise NotASubspace("element set is not closed under addition")
    return Subspace(field, bits, k)


def from_bits(field: FieldSpec, bits: int) -> Subspace:
    """Wrap a bitset already known to be a subspace (no closure check)."""
    return Subspace(field, bits, dimension_from_popcount(bits.bit_count(), field.q))


def span(field: FieldSpec, exps) -> Subspace:
    """Smallest subspace containing gamma^e for each exponent e of exps."""
    bits = 0
    for e in exps:
        if not 0 <= e < field.group_order:
            raise ExponentOutOfRange(f"exponent {e} out of range")
        bits |= 1 << e
    if not bits:
        raise AllZero("span needs at least one nonzero vector")
    basis, _, bits = _basis_span(field, bits)
    return Subspace(field, bits, len(basis))


# -- operations ---------------------------------------------------------------


def _check_field(U: Subspace, V: Subspace) -> None:
    if U.field != V.field:
        raise FieldMismatch("subspaces live in different fields")


def distance(U: Subspace, V: Subspace) -> int:
    """Subspace distance dim U + dim V - 2 dim(U inter V)."""
    _check_field(U, V)
    both = U.bits & V.bits
    kw = dimension_from_popcount(both.bit_count(), U.field.q)
    return U.dim + V.dim - 2 * kw


def shift(V: Subspace, e: int) -> Subspace:
    """Multiply every element by gamma^e (rotate the characteristic vector)."""
    return Subspace(V.field, rotate_bits(V.bits, e, V.field.group_order), V.dim)


def orthogonal_complement(V: Subspace) -> Subspace:
    """V-perp under the coordinate dot product in the polynomial basis.

    perp[r] is the bitset of exponents e with antilog[e] . r = 0 (mod q).
    V-perp is the AND of perp[antilog[e]] over the set bits e of V, in
    increasing order, stopped as soon as dim V of them have shrunk it: the
    AND over the elements taken so far is their complement, which shrinks
    exactly when the next element is outside their span.  The masks come
    from FieldSpec.perp_masks, made on the first complement in a field and
    memoised on it; a field with more than PERP_TABLE_MAX_ORDER vectors
    keeps no table and computes each mask with FieldSpec.perp_mask instead.
    """
    field = V.field
    return Subspace(field, complement_bits(field, V.bits, V.dim), field.n - V.dim)


def _complement_scan(field: FieldSpec, bits: int, dim: int) -> tuple:
    """(basis exponents, complement bits) of the dim-dimensional subspace bits.

    The basis is the exponents, in increasing order, whose masks shrank the
    AND; the scan stops after dim of them.
    """
    out = (1 << field.group_order) - 1
    basis = []
    if dim == 0:
        return basis, out
    masks, antilog = field.perp_masks, field.antilog
    while bits:
        low = bits & -bits
        e = low.bit_length() - 1
        cut = out & (masks[e] if masks is not None else field.perp_mask(antilog[e]))
        if cut != out:
            out = cut
            basis.append(e)
            if len(basis) == dim:
                break
        bits ^= low
    return basis, out


def complement_bits(field: FieldSpec, bits: int, dim: int) -> int:
    """orthogonal_complement on raw bitsets."""
    return _complement_scan(field, bits, dim)[1]


def _masks_from(field: FieldSpec, b: int, D: int) -> list:
    """The perp masks of the exponents b, b+1, ..., b+D-1 (mod q^n-1)."""
    masks = field.perp_masks
    if masks is not None:
        return masks[b:b + D]
    N, antilog = field.group_order, field.antilog
    return [field.perp_mask(antilog[(b + j) % N]) for j in range(D)]


def orbit_complements(field: FieldSpec, bits: int, dim: int, D: int) -> list:
    """complement_bits of the rotations of bits by 0, 1, ..., D-1, in order.

    The scan complement_bits runs finds a basis of bits once; the rotation
    by j has the basis exponents b + j, so its complement is the AND of
    their masks.  Each basis exponent is one map(and_, ...) over a slice of
    the doubled, exponent-indexed perp_masks, D members at a time.
    """
    basis, out = _complement_scan(field, bits, dim)
    if not basis:
        return [out] * D
    comps = _masks_from(field, basis[0], D)
    for b in basis[1:]:
        comps = list(map(and_, comps, _masks_from(field, b, D)))
    return comps

