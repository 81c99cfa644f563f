"""Subspace codes: parameters, bounds, spreads, duality and file verification."""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property
from itertools import repeat
from math import gcd

from .errors import (
    FieldMismatch,
    NotADivisor,
    OddDistance,
    OrbitCodesError,
    ParseError,
    TooSmall,
    VerificationFailed,
)
from .gfext import FieldSpec, gaussian_coefficient, make_field
from .records import Record, write_json
from .subspace import (
    check_modulus,
    dimension_from_popcount,
    exponents_of,
    from_bits,
    from_exponents,
    min_member,
    orbit_bits,
    orbit_distance,
    orbit_length,
    orbit_record,
    rotate_bits,
)


# -- exact counting and bounds --------------------------------------------------


def etzion_vardy_bound(n: int, d: int, k: int, q: int) -> int:
    """Upper bound on the size of a constant-dimension code of min distance d.

    q is any prime power; only q >= 2 is checked, with n >= 1 and 0 <= k <= n.
    The bound is at least 1, the size of a one-word code: two k-subspaces
    are at distance at most 2 min(k, n - k), so a larger d admits one word,
    where the quotient can read 0.
    """
    if q < 2 or n < 1:
        raise OrbitCodesError(f"the bound needs q >= 2 and n >= 1, not q={q}, n={n}")
    if not 0 <= k <= n:
        raise OrbitCodesError(f"subspace dimension k={k} is outside 0..{n}")
    if d % 2 != 0 or d < 2:
        raise OddDistance(f"minimum distance {d} must be even and >= 2")
    delta = (d - 2) // 2
    return max(1, gaussian_coefficient(n, k, q) // gaussian_coefficient(n - k + delta, delta, q))


# -- code objects ----------------------------------------------------------------


def word_dims(field: FieldSpec, bitsets) -> tuple:
    """The distinct dimensions of the words with these bitsets, ascending."""
    return tuple(sorted(dimension_from_popcount(c, field.q)
                        for c in {b.bit_count() for b in bitsets}))


class SubspaceCode(Record):
    """A set of subspaces, possibly of mixed dimension, held as their bitsets.

    words, the same set as Subspace objects, is built the first time it is
    read; size, dims, the distances and the duality checks read bitsets.
    is_self_dual and is_quasi_cyclic read a code through word_keys,
    complement_keys and shifted_keys, which name its words by bitset.
    """

    _fields = ("field", "words", "provenance", "duplicate_generators")

    def __init__(self, field: FieldSpec, bitsets, provenance: tuple = None,
                 duplicate_generators: tuple = ()):
        self.field = field
        self.bitsets = frozenset(bitsets)          # of word bitsets
        self.provenance = provenance               # ((generator Subspace, m), ...) or None
        self.duplicate_generators = duplicate_generators  # generators whose orbit repeated

    def _astuple(self) -> tuple:
        # the bitsets stand for the words, which need not be built to compare
        return (self.field, self.bitsets, self.provenance, self.duplicate_generators)

    def __hash__(self) -> int:
        return hash(self._astuple())

    @cached_property
    def words(self) -> frozenset:
        """The words as Subspace objects."""
        field = self.field
        return frozenset(from_bits(field, b) for b in self.bitsets)

    @property
    def size(self) -> int:
        return len(self.bitsets)

    @cached_property
    def dims(self) -> tuple:
        return word_dims(self.field, self.bitsets)

    @property
    def constant_dimension(self) -> bool:
        return len(self.dims) == 1

    def params(self) -> tuple:
        """[n, k, size, d] for constant dimension, else [n, size, d]."""
        n = self.field.n
        d = min_distance(self) if self.size >= 2 else None
        if self.constant_dimension:
            return (n, self.dims[0], self.size, d)
        return (n, self.size, d)

    def word_keys(self) -> frozenset:
        """The word bitsets."""
        return self.bitsets

    def complement_keys(self):
        """The bitset of each word's orthogonal complement, computed afresh."""
        from .subspace import complement_bits
        field, q = self.field, self.field.q
        return (complement_bits(field, b, dimension_from_popcount(b.bit_count(), q))
                for b in self.bitsets)

    def shifted_keys(self, m: int):
        """The bitset of each word times gamma^m."""
        return map(rotate_bits, self.bitsets, repeat(m), repeat(self.field.group_order))


def code_from_generators(field: FieldSpec, m: int, generators) -> SubspaceCode:
    """Union of the m-quasi orbits of the generators; duplicate orbits are merged."""
    check_modulus(field, m)
    bitsets = set()
    duplicates = []
    provenance = []
    for idx, gen in enumerate(generators):
        if gen.field != field:
            raise FieldMismatch("generator belongs to a different field")
        members = orbit_bits(field, gen.bits, m)
        if not bitsets.isdisjoint(members):
            duplicates.append(idx)
        bitsets.update(members)
        provenance.append((gen, m))
    return SubspaceCode(field, bitsets, tuple(provenance), tuple(duplicates))


def code_from_words(field: FieldSpec, words) -> SubspaceCode:
    """The code of these Subspace words."""
    return SubspaceCode(field, (w.bits for w in words))


def spread_code(field: FieldSpec, t: int) -> SubspaceCode:
    """The orbit of the subfield F_{q^t}: a spread of F_q^n (requires t | n)."""
    if t < 1 or field.n % t != 0:
        raise NotADivisor(f"t={t} is not a positive divisor of n={field.n}")
    N = field.group_order
    step = N // (field.q ** t - 1)
    subfield = from_exponents(field, range(0, N, step))
    code = code_from_generators(field, 1, [subfield])
    # spread properties: trivial pairwise intersections, exact cover; a word
    # that meets the union of the words before it meets one of them
    union = 0
    for b in code.bitsets:
        if union & b:
            raise VerificationFailed("spread members intersect nontrivially")
        union |= b
    if union != (1 << N) - 1:
        raise VerificationFailed("spread cover property failed")
    return code


# -- minimum distance -------------------------------------------------------------


def min_distance(C: SubspaceCode) -> int:
    """Exact minimum distance; orbit-based when provenance is available."""
    if C.size < 2:
        raise TooSmall("minimum distance needs at least two codewords")
    if C.provenance:
        return _min_distance_orbits(C)
    return _min_distance_all_pairs(C)


def _min_distance_all_pairs(C: SubspaceCode) -> int:
    q = C.field.q
    ws = [(dimension_from_popcount(b.bit_count(), q), b) for b in C.bitsets]
    best = None
    for i in range(len(ws)):
        ka, a = ws[i]
        for j in range(i + 1, len(ws)):
            kb, b = ws[j]
            d = ka + kb - 2 * dimension_from_popcount((a & b).bit_count(), q)
            if best is None or d < best:
                best = d
                if best == 0:
                    return 0
    return best


def _min_distance_orbits(C: SubspaceCode) -> int:
    """Shift identity: only orbit-vs-shifted-orbit comparisons are needed.

    Each orbit's internal distance is its cyclic orbit record's at step
    gcd(m, D) (orbit_record), and each pair of orbits is compared by
    orbit_distance from one generator to the other's orbit.
    """
    field = C.field
    orbits = []
    seen = set()
    for gen, m in C.provenance:
        name = min_member(field, gen.bits, m)[0]
        if name in seen:
            continue  # duplicate orbit
        seen.add(name)
        orbits.append((gen.dim, gen.bits, m))
    dists = []
    for i, (ka, a, m) in enumerate(orbits):
        rec = orbit_record(field, a, ka, m)
        g = gcd(m, rec.length)
        if g < rec.length:
            dists.append(rec.min_dist_for_step(g))
        # generators of one code share a modulus
        for kb, b, _ in orbits[i + 1:]:
            dists.append(orbit_distance(field, a, ka, b, kb, m))
    if not dists:
        raise TooSmall("code has a single orbit of length 1")
    return min(dists)


# -- duality and cyclicity ----------------------------------------------------------


def dualize(C: SubspaceCode) -> SubspaceCode:
    """The code of orthogonal complements (provenance does not survive)."""
    return SubspaceCode(C.field, C.complement_keys())


def is_quasi_cyclic(C, m: int) -> bool:
    """True iff the word set is closed under the shift by gamma^m.

    C is a SubspaceCode or a SelfDualHit: anything with a field that names
    its words by keys, word_keys() the set of them and shifted_keys(m) the
    key of each word times gamma^m.
    """
    check_modulus(C.field, m)
    return C.word_keys().issuperset(C.shifted_keys(m))


def is_cyclic(C: SubspaceCode) -> bool:
    return is_quasi_cyclic(C, 1)


def is_self_dual(C) -> bool:
    """True iff the orthogonal complement of every word is a word.

    C is read as in is_quasi_cyclic, complement_keys() giving the key of
    each word's complement.
    """
    return C.word_keys().issuperset(C.complement_keys())


# -- code files -----------------------------------------------------------------


class CodeFile(namedtuple("CodeFile", "field m generators claimed")):
    """Parsed code file: field, shift modulus, generators (a list of Subspace)
    and the claim, a dict or None."""

    __slots__ = ()


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, int) for x in value)


def load_code_file(path) -> CodeFile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes and malformed JSON alike
        raise ParseError(f"cannot read code file {path}: {exc}") from None
    try:
        fspec = doc["field"]
        q, n, poly = fspec["q"], fspec["n"], fspec["poly"]
        m = doc.get("m", 1)
        exps_list = doc["generators"]
        claimed = doc.get("claimed")
    except KeyError as exc:
        raise ParseError(f"code file {path} missing key {exc}") from exc
    except TypeError:
        raise ParseError(f"code file {path}: the document and its field "
                         "must be JSON objects") from None
    if not (isinstance(q, int) and isinstance(n, int) and isinstance(m, int)
            and (poly is None or isinstance(poly, str) or _is_int_list(poly))
            and isinstance(exps_list, list) and all(map(_is_int_list, exps_list))
            and (claimed is None or isinstance(claimed, dict))):
        raise ParseError(
            f"code file {path}: q, n and m must be integers, poly a list of "
            "integers or a string, each generator a list of integer exponents "
            "and claimed an object")
    field = make_field(q, n, poly)
    generators = [from_exponents(field, exps) for exps in exps_list]
    return CodeFile(field, m, generators, claimed)


def dump_code_file(path, field: FieldSpec, m: int, generators,
                   claimed: dict | None = None) -> None:
    """Write a code file through records.write_json, plus a newline.

    generators are Subspaces or their bitsets; their exponent lists, nearly
    all of the file, are written one at a time.
    """
    doc = {"field": {"q": field.q, "n": field.n, "poly": list(field.poly)}, "m": m,
           "generators": (exponents_of(g) if isinstance(g, int) else g.exponents
                          for g in generators)}
    if claimed:
        doc["claimed"] = claimed
    with open(path, "w") as fh:
        write_json(fh.write, doc)
        fh.write("\n")


def verify_code_file(path) -> dict:
    """Full verification report for a code file (computed vs claimed parameters)."""
    cf = load_code_file(path)
    field = cf.field
    code = code_from_generators(field, cf.m, cf.generators)
    orbit_sizes = [orbit_length(field, g.bits, cf.m) for g in cf.generators]
    d = min_distance(code) if code.size >= 2 else None
    report = {
        "field": {"q": field.q, "n": field.n, "poly": list(field.poly)},
        "m": cf.m,
        "generators": len(cf.generators),
        "duplicate_generators": list(code.duplicate_generators),
        "orbit_sizes": orbit_sizes,
        "size": code.size,
        "dims": list(code.dims),
        "min_dist": d,
        "claimed": cf.claimed,
        "matches_claim": None,
        "bound": None,
        "optimal": None,
        "notes": [],
    }
    if code.duplicate_generators:
        report["notes"].append(
            "duplicate generators at indices %s: their orbits repeat earlier ones"
            % list(code.duplicate_generators))
    if code.constant_dimension and d is not None:
        k = code.dims[0]
        bound = etzion_vardy_bound(field.n, d, k, field.q)
        report["bound"] = bound
        report["optimal"] = code.size == bound
        if code.size > bound:
            report["notes"].append("size exceeds the packing bound: internal error")
    if cf.claimed:
        ok = True
        for key, computed in (("n", field.n), ("size", code.size), ("d", d)):
            if key in cf.claimed and cf.claimed[key] != computed:
                ok = False
                report["notes"].append(
                    f"claimed {key}={cf.claimed[key]} but computed {computed}")
        if "k" in cf.claimed:
            if not (code.constant_dimension and code.dims[0] == cf.claimed["k"]):
                ok = False
                report["notes"].append(
                    f"claimed k={cf.claimed['k']} but dims are {list(code.dims)}")
        report["matches_claim"] = ok
    return report
