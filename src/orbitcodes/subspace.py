"""Characteristic-bitvector subspaces of F_{q^n} and the coordinate-matrix bridge.

A subspace V is stored as an integer bitset over exponents 0..q^n-2: bit j
is set iff gamma^j lies in V (the zero vector is implicit).  Intersection is
a bitwise AND, multiplying every element by gamma^e rotates the bitset by e
positions, and the dimension k is recovered from popcount = q^k - 1.

The orthogonal complement (under the coordinate dot product in the
polynomial basis) needs no elimination.  perp[r] is the bitset of exponents
e with antilog[e] . r = 0 (mod q), the hyperplane orthogonal to the packed
vector r, and V-perp is the AND of perp[antilog[e]] over the set bits e of
V, taken in increasing order.  The loop stops once the popcount reaches
q^(n-dim V) - 1: the AND over any subset S of V is S-perp, which contains
V-perp, and the two are equal exactly when their sizes match.  The masks
are FieldSpec.perp_mask: each is a rotation of the one bitset of exponents
with trace 0, so a field's masks cost one pass over its exponents, made on
the first complement and memoised on the FieldSpec.  Fields with at most
PERP_TABLE_MAX_ORDER vectors keep all q^n masks (about 2 MB at the cap);
larger ones rotate each mask when it is needed.

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
keeps exactly one candidate per orbit.

Every basis, closure check and span comes from _span_step, which adds one
vector to a span; src/ does no elimination.  _basis_span takes the lowest
exponent not yet spanned as the next basis vector, so from_exponents checks
closure in at most k steps, and span and subspaces_of get a basis and its
span in one pass.  The subspaces are spanned by walking the rows of reduced
echelon matrices (_echelon_rows, _walk_rows): each choice of a row extends
the span of the rows after it once for every choice of the rows before it.
The census walks them over the coordinates of F_q^n, and
subspaces_of(field, bits, t) over a subspace's own basis, listing each of
its t-subspaces once.

Every orbit distance comes from one correlation kernel.
cyclic_overlaps(field, a, b) returns all N = q^n-1 overlaps
|a & rot(b, j)|, j = 0..N-1, from a single big-int product (Kronecker
substitution): a is spread into N lanes of W bytes, lane i holding bit i,
b into N lanes in reverse order, and lane N-1+j of the product is the
linear correlation at shift j; the wrapped part, lane j-1, is added back
in with one shift.  No lane can carry into the next, because every lane
is at most min(|a|, |b|), so W is the smallest of 1, 2, 4 and 8 bytes that
holds that bound, q^k - 1 for k-dimensional subspaces.  The lanes come out
with to_bytes, as bytes when W = 1 and as a memoryview cast to W-byte
ints otherwise, so the slices callers take (overlap[::m], overlap[g:D:g])
and the searches over them run in C.  A distance between a subspace and
an orbit is read from the largest overlap: d = dim U + dim V -
2 dim(U meet V) is smallest where the popcount of U & V is largest.  Every
overlap of two subspaces is the size q^w - 1 of their meet, so
meet_dim(q, overlaps, top) finds the largest w by testing q^w - 1, w = top,
top-1, ..., for membership in the slice.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from math import gcd

from .errors import (
    AllZero,
    BadModulus,
    DuplicateExponent,
    ExponentOutOfRange,
    FieldMismatch,
    NotASubspace,
)
from .gfext import FieldElement, FieldSpec


def dimension_from_popcount(popcount: int, q: int) -> int:
    """Return k with q^k - 1 = popcount, or raise NotASubspace."""
    if q == 2:
        k = popcount.bit_length()
        if (1 << k) - 1 != popcount:
            raise NotASubspace(f"popcount {popcount} is not of the form 2^k-1")
        return k
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
    j-1 those that do, and one shift adds the two.  The result is bytes
    when every overlap fits in a byte, else a memoryview of W-byte ints.
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


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_{q^n} as a characteristic bitset over exponents."""

    field: FieldSpec
    bits: int
    dim: int

    def __post_init__(self):
        pc = self.bits.bit_count()
        if dimension_from_popcount(pc, self.field.q) != self.dim:
            raise NotASubspace(f"popcount {pc} inconsistent with dim {self.dim}")

    @property
    def exponents(self) -> tuple:
        """Sorted exponents of the nonzero elements."""
        bits, out, j = self.bits, [], 0
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    def contains_exp(self, e: int) -> bool:
        return bool((self.bits >> e) & 1)

    def __contains__(self, elt: FieldElement) -> bool:
        if elt.is_zero:
            return True
        return self.contains_exp(elt.exp)

    def __repr__(self) -> str:
        exps = self.exponents
        body = ",".join(map(str, exps)) if len(exps) <= 16 else f"{len(exps)} elements"
        return f"Subspace(dim={self.dim}, [{body}])"


# -- construction ------------------------------------------------------------


def _span_step(field: FieldSpec, elts: list, v: int) -> list:
    """The packed vectors c*v + e, c = 1..q-1 (c outermost), for each e of elts.

    When elts is a span without v, these are the vectors the span gains by
    adjoining v.
    """
    if field.q == 2:
        return [e ^ v for e in elts]
    new = []
    for c in range(1, field.q):
        cv = field.coord_scale(v, c)
        new += [field.coord_add(e, cv) for e in elts]
    return new


def _bits_from_packed(field: FieldSpec, packed_elts) -> int:
    log = field.log
    bits = 0
    for p in packed_elts:
        if p:
            bits |= 1 << log[p]
    return bits


def _basis_span(field: FieldSpec, bits: int, limit: int | None = None) -> tuple:
    """(basis, vectors, span bits) for the span of the exponents in bits.

    Each basis vector is the lowest exponent of bits outside the span of the
    ones before it; _span_step adds what it brings, and the exponents the
    span now covers are dropped.  vectors is the span in packed coordinates,
    sum c_i b_i at index sum c_i q^i, starting with 0.  At most limit basis
    vectors are taken, so a set that is not closed costs at most q^limit
    vectors however large the span it generates.
    """
    antilog = field.antilog
    basis, vectors, have = [], [0], 0
    rest = bits
    while rest and len(basis) != limit:
        v = antilog[(rest & -rest).bit_length() - 1]
        new = _span_step(field, vectors, v)
        basis.append(v)
        vectors += new
        have |= _bits_from_packed(field, new)
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


def _walk_rows(field: FieldSpec, rows: list, elts: list, bits: int):
    """The bitset of the span of elts and one choice from each of rows, for
    every choice, the last row outermost.

    elts is a span and bits its bitset; each choice of the last row extends
    them once for every choice of the rows before it.
    """
    if not rows:
        yield bits
        return
    for v in rows[-1]:
        new = _span_step(field, elts, v)
        yield from _walk_rows(field, rows[:-1], elts + new,
                              bits | _bits_from_packed(field, new))


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
        yield from _walk_rows(field, rows, [0], 0)


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


def span(field: FieldSpec, vectors) -> Subspace:
    """Smallest subspace containing the given field elements."""
    bits = 0
    for v in vectors:
        if isinstance(v, FieldElement):
            if v.is_zero:
                continue
            v = v.exp
        elif not 0 <= v < field.group_order:
            raise ExponentOutOfRange(f"exponent {v} out of range")
        bits |= 1 << v
    if not bits:
        raise AllZero("span needs at least one nonzero vector")
    basis, _, bits = _basis_span(field, bits)
    return Subspace(field, bits, len(basis))


def zero_subspace(field: FieldSpec) -> Subspace:
    return Subspace(field, 0, 0)


def full_space(field: FieldSpec) -> Subspace:
    return Subspace(field, (1 << field.group_order) - 1, field.n)


# -- operations ---------------------------------------------------------------


def dimension(V: Subspace) -> int:
    return V.dim


def _check_field(U: Subspace, V: Subspace) -> None:
    if U.field != V.field:
        raise FieldMismatch("subspaces live in different fields")


def intersect(U: Subspace, V: Subspace) -> Subspace:
    _check_field(U, V)
    return from_bits(U.field, U.bits & V.bits)


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
    increasing order, stopped as soon as its popcount is q^(n-dim V) - 1:
    the AND over the elements taken so far is their complement, which
    contains V-perp and equals it exactly when the sizes match.  The masks
    come from FieldSpec.perp_masks, made on the first complement in a field
    and memoised on it; a field with more than PERP_TABLE_MAX_ORDER vectors
    keeps no table and computes each mask with FieldSpec.perp_mask instead.
    """
    field = V.field
    return Subspace(field, complement_bits(field, V.bits, V.dim), field.n - V.dim)


def complement_bits(field: FieldSpec, bits: int, dim: int) -> int:
    """orthogonal_complement on raw bitsets (hot path for the duality search)."""
    out = (1 << field.group_order) - 1
    if dim == 0:
        return out
    target = field.q ** (field.n - dim) - 1
    perp = field.perp_masks
    antilog = field.antilog
    while bits:
        low = bits & -bits
        r = antilog[low.bit_length() - 1]
        out &= perp[r] if perp is not None else field.perp_mask(r)
        if out.bit_count() == target:
            break
        bits ^= low
    return out


def canonical_rotation(V: Subspace, m: int = 1) -> tuple:
    """Canonical representative of V's m-quasi orbit and the rotation reaching it.

    The representative is the rotation of V by a multiple of m with the
    smallest bitset integer value; it is shared by every orbit member.  The
    rotation is the least one, so it is below lcm(m, D), the span of the
    orbit's m-steps, D its cyclic orbit length.
    """
    field = V.field
    check_modulus(field, m)
    best, s = min_member(field, V.bits, m)
    _, D = stabilizer(field, V.bits)
    return Subspace(field, best, V.dim), s % (m * D // gcd(m, D))
