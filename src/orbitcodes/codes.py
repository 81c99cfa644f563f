"""Subspace codes: parameters, bounds, spreads, duality and file verification."""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from functools import cached_property
from itertools import chain, combinations, repeat
from math import gcd, log10

from .errors import OrbitCodesError, ParseError, VerificationFailed
from .gfext import FieldSpec, gaussian_coefficient, make_field
from .records import Record, write_json
from .subspace import (
    check_modulus,
    dimension_from_popcount,
    exponents_of,
    from_bits,
    from_exponents,
    min_member,
    orbit_complements,
    orbit_distance,
    orbit_record,
    rotate_bits,
    stabilizer,
)


# -- exact counting and bounds --------------------------------------------------


def etzion_vardy_bound(n: int, d: int, k: int, q: int) -> int:
    """Upper bound on the size of a constant-dimension code of min distance d.

    [n, k]_q // [n - k + delta, delta]_q, delta = d/2 - 1; q is any prime
    power, only q >= 2 is checked, with n >= 1 and 0 <= k <= n.  Two
    k-subspaces are at most 2 min(k, n - k) apart, so above that distance
    only one word fits and the bound is 1.  Otherwise, with s = k - delta
    and a = n - k, the quotient's a factors (q^(k+i) - 1) / (q^(delta+i) - 1)
    are each q^s plus less than q^(s-delta-i+1), and it is formed as
    [n, m]_q / [n - max(a, s), m]_q, m = min(a, s).  A bound of more digits
    than the interpreter prints is refused (exit 3), before it is formed
    when q^(s a) is already too long.
    """
    if q < 2 or n < 1:
        raise OrbitCodesError(f"the bound needs q >= 2 and n >= 1, not q={q}, n={n}")
    if not 0 <= k <= n:
        raise OrbitCodesError(f"subspace dimension k={k} is outside 0..{n}")
    if d % 2 != 0 or d < 2:
        raise OrbitCodesError(f"minimum distance {d} must be even and >= 2")
    if d > 2 * min(k, n - k):
        return 1
    delta = (d - 2) // 2
    s, a = k - delta, n - k
    limit = getattr(sys, "get_int_max_str_digits", int)()      # 0: no limit
    if not limit or s * a * log10(q) <= limit + 1:
        m = min(a, s)       # [n, a] / [n - s, a] and [n, s] / [n - a, s] are the quotient
        bound = gaussian_coefficient(n, m, q) // gaussian_coefficient(n - max(a, s), m, q)
        if not limit or bound < 10 ** limit:
            return bound
    raise OrbitCodesError(f"the bound for n={n}, k={k}, d={d}, q={q} has more than {limit} digits")


# -- code objects ----------------------------------------------------------------


class SubspaceCode(Record):
    """A set of subspaces, possibly of mixed dimension, held as its distinct orbits.

    m divides q^n - 1, and each orbit is (representative bits, dimension,
    size), its members the representative rotated by 0, m, ..., (size - 1) m.
    A code from code_from_generators holds its generators' distinct orbits
    under their m.  The constructor, and so code_from_words, holds each
    word bitset it is given as a one-word orbit under m = q^n - 1, as a
    code file dualize writes does, and so does the code dualize returns.
    size, dims, min_distance and dualize read the orbits.  bitsets, one
    rotation per word (none for a one-word orbit), and words, the same set
    as Subspace objects, are built the first time they are read; equality,
    hashing and the duality and cyclicity checks read bitsets.  provenance, from code_from_generators,
    is (m, ((generator, orbit size), ...)), one entry per generator,
    duplicates included.
    """

    _fields = ("field", "words", "provenance", "duplicate_generators")

    def __init__(self, field: FieldSpec, bitsets, provenance: tuple = None,
                 duplicate_generators: tuple = ()):
        words = set(bitsets)
        dim = {c: dimension_from_popcount(c, field.q) for c in {b.bit_count() for b in words}}
        self.field = field
        self.m = field.group_order                 # the orbits' shift, a divisor of q^n - 1
        self._orbits = tuple((b, dim[b.bit_count()], 1) for b in words)  # (bits, dim, size)
        self.provenance = provenance               # (m, ((generator, orbit size), ...)) or None
        self.duplicate_generators = duplicate_generators  # generators whose orbit repeated

    @classmethod
    def _from_orbits(cls, field: FieldSpec, m: int, orbits, provenance: tuple = None,
                     duplicate_generators: tuple = ()):
        """The code of these distinct orbits under m: an empty code given them."""
        code = cls(field, (), provenance, duplicate_generators)
        code.m, code._orbits = m, tuple(orbits)
        return code

    def _astuple(self) -> tuple:
        # the bitsets stand for the words, which need not be built to compare
        return (self.field, self.bitsets, self.provenance, self.duplicate_generators)

    def __hash__(self) -> int:
        return hash(self._astuple())

    @cached_property
    def bitsets(self) -> frozenset:
        """The word bitsets, member j of each orbit its representative rotated by j m."""
        N, m = self.field.group_order, self.m
        return frozenset(rotate_bits(bits, j * m, N)
                         for bits, _, size in self._orbits for j in range(size))

    @cached_property
    def words(self) -> frozenset:
        """The words as Subspace objects."""
        field = self.field
        return frozenset(from_bits(field, b) for b in self.bitsets)

    @property
    def size(self) -> int:
        return sum(size for _, _, size in self._orbits)

    @cached_property
    def dims(self) -> tuple:
        return tuple(sorted({dim for _, dim, _ in self._orbits}))

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


def code_from_generators(field: FieldSpec, m: int, generators) -> SubspaceCode:
    """Union of the m-quasi orbits of the generators; duplicate orbits are merged.

    Each orbit's size is D/gcd(m, D) with D from stabilizer, and no word
    set is built.  Two orbits are equal or disjoint, so a generator's orbit
    repeats an earlier one exactly when their smallest members (min_member)
    are equal.
    """
    check_modulus(field, m)
    reps = set()
    duplicates = []
    provenance = []
    orbits = []
    for idx, gen in enumerate(generators):
        if gen.field != field:
            raise OrbitCodesError("generator belongs to a different field")
        _, D = stabilizer(field, gen.bits)
        provenance.append((gen, D // gcd(m, D)))
        rep = min_member(field, gen.bits, m)
        if rep in reps:
            duplicates.append(idx)
        else:
            reps.add(rep)
            orbits.append((gen.bits, gen.dim, D // gcd(m, D)))
    return SubspaceCode._from_orbits(field, m, orbits, (m, tuple(provenance)), tuple(duplicates))


def code_from_words(field: FieldSpec, words) -> SubspaceCode:
    """The code of these Subspace words."""
    return SubspaceCode(field, (w.bits for w in words))


def spread_code(field: FieldSpec, t: int) -> SubspaceCode:
    """The orbit of the subfield F_{q^t}: a spread of F_q^n (requires t | n)."""
    if t < 1 or field.n % t != 0:
        raise OrbitCodesError(f"t={t} is not a positive divisor of n={field.n}")
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
    """Exact minimum distance: orbit by orbit when an orbit of C has two or
    more words, else word by word, one AND per pair of words (as for a code
    built from words and the one-word orbits of every code file dualize
    writes)."""
    if C.size < 2:
        raise OrbitCodesError("minimum distance needs at least two codewords")
    if any(size > 1 for _, _, size in C._orbits):
        return _min_distance_orbits(C)
    return _min_distance_all_pairs(C)


def _min_distance_all_pairs(C: SubspaceCode) -> int:
    meet = {C.field.q ** k - 1: 2 * k for k in range(C.field.n + 1)}   # popcount -> 2 dim
    best = None
    for (a, ka, _), (b, kb, _) in combinations(C._orbits, 2):
        d = ka + kb - meet[(a & b).bit_count()]
        if best is None or d < best:
            best = d
            if best == 0:
                return 0
    return best


def _min_distance_orbits(C: SubspaceCode) -> int:
    """Shift identity: only orbit-vs-shifted-orbit comparisons are needed.

    The internal distance of an orbit of two or more words is its cyclic
    orbit record's at step gcd(m, D) (orbit_record), and each pair of
    orbits is compared by orbit_distance from one representative to the
    other's orbit, both under the code's m.
    """
    field, m, orbits = C.field, C.m, C._orbits
    dists = []
    for i, (a, ka, size) in enumerate(orbits):
        if size > 1:
            rec = orbit_record(field, a, ka, m)
            dists.append(rec.min_dist_for_step(gcd(m, rec.length)))
        for b, kb, _ in orbits[i + 1:]:
            dists.append(orbit_distance(field, a, ka, b, kb, m))
    return min(dists)


# -- duality and cyclicity ----------------------------------------------------------


def dualize(C: SubspaceCode) -> SubspaceCode:
    """The code of orthogonal complements (provenance does not survive).

    Each orbit is complemented in one pass (orbit_complements, with the
    code's m), and each complement, of dimension n - dim, is a one-word
    orbit of the dual under m = q^n - 1: complementing does not commute
    with the shift, so the complements of an orbit need not form one.
    Distinct words have distinct complements, so these orbits are distinct.
    """
    field, m, n = C.field, C.m, C.field.n
    return SubspaceCode._from_orbits(field, field.group_order, chain.from_iterable(
        zip(orbit_complements(field, bits, dim, size, m), repeat(n - dim), repeat(1))
        for bits, dim, size in C._orbits))


def is_quasi_cyclic(C: SubspaceCode, m: int) -> bool:
    """True iff the word set is closed under the shift by gamma^m."""
    check_modulus(C.field, m)
    return C.bitsets.issuperset(map(rotate_bits, C.bitsets, repeat(m),
                                    repeat(C.field.group_order)))


def is_cyclic(C: SubspaceCode) -> bool:
    return is_quasi_cyclic(C, 1)


def is_self_dual(C: SubspaceCode) -> bool:
    """True iff the orthogonal complement of every word is a word: complementing
    is a bijection, so iff the dual's word set is the code's."""
    return dualize(C).bitsets == C.bitsets


# -- code files -----------------------------------------------------------------


class CodeFile(namedtuple("CodeFile", "field m generators claimed")):
    """Parsed code file: field, shift modulus, generators (a list of Subspace)
    and the claim, a dict or None."""

    __slots__ = ()


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)    # no bools


def _is_claim(claimed) -> bool:
    """True for an object of some of n, k, size and d: integers, d also null."""
    return (isinstance(claimed, dict) and set(claimed) <= {"n", "k", "size", "d"}
            and _is_int_list([value for key, value in claimed.items() if key != "d"])
            and (claimed.get("d") is None or type(claimed["d"]) is int))


def load_code_file(path) -> CodeFile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes and malformed JSON alike
        raise ParseError(f"cannot read code file {path}: {exc}") from None
    try:
        fspec = doc["field"]
        q, n, poly = fspec["q"], fspec["n"], fspec.get("poly")
        m = doc.get("m", 1)
        exps_list = doc["generators"]
        claimed = doc.get("claimed")
    except KeyError as exc:
        raise ParseError(f"code file {path} missing key {exc}") from exc
    except TypeError:
        raise ParseError(f"code file {path}: the document and its field "
                         "must be JSON objects") from None
    if not (_is_int_list([q, n, m])
            and (poly is None or isinstance(poly, str) or _is_int_list(poly))
            and isinstance(exps_list, list) and all(map(_is_int_list, exps_list))
            and (claimed is None or _is_claim(claimed))):
        raise ParseError(
            f"code file {path}: q, n and m must be integers, poly a list of "
            "integers or a string, each generator a list of integer exponents "
            "and claimed an object of only n, k and size, integers, and d, an "
            "integer or null")
    field = make_field(q, n, poly)
    generators = [from_exponents(field, exps) for exps in exps_list]
    return CodeFile(field, m, generators, claimed)


def dump_code_file(path, field: FieldSpec, m: int, generators,
                   claimed: dict | None = None) -> None:
    """Write a code file through records.write_json, plus a newline.

    generators are bitsets, as the CLI's dualize and spread pass them, or
    Subspaces, as perfbench/traced_job.py passes the dual's words.  Their
    exponent lists, nearly all of the file, are laid out one join each.
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
    orbit_sizes = [size for _, size in code.provenance[1]]
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
