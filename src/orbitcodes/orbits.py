"""Enumeration and classification of cyclic and m-quasi-cyclic orbits.

The multiplicative group acts on subspaces by rotation of their
characteristic bitsets, and every orbit is named by its smallest member as
an integer.  Cyclic (m=1) orbits are enumerated once per (field, k) by
orderly generation: the candidates are the subspaces that contain gamma^0
(the smallest member of every cyclic orbit is one of them), and a candidate
is kept exactly when it is its own orbit's smallest member
(is_min_member, from subspace).  The records come in the candidate order of
their representatives.  The Frobenius map x -> x^q carries each cyclic orbit
onto one with the same record but its representative, so only the first
orbit met of each Frobenius class is walked (orbit_record, from subspace),
and the others reuse its record (cyclic_orbit_data).  A checkpoint stores
each orbit's representative and candidate index alone, and a resumed run
rebuilds the records from them.  An m-quasi census is then derived without
re-enumeration: a cyclic orbit of length D splits into g = gcd(m, D) quasi
orbits of length D/g, all sharing the same internal minimum distance
profile.  Every full cyclic census is checked against the closed-form
orbit count per stabilizer degree (stabilizer_counts).

The candidates come in one order for every q (_iter_candidates).  Each is
gamma^0 plus the rows of a reduced echelon matrix over coordinates 1..n-1:
the pivot patterns go in lexicographic order, and within one pattern row 0
varies fastest, then row 1, and so on, each row's choices in increasing
value as packed base-q digits.  So the span of gamma^0 and the later rows is
built once for every choice of the rows below them, and over F_2 row 0's
choices under one such span, a leaf, are expanded together when there are
enough of them (subspace._walk_rows): in one C-level pass, handing on the
kept candidates as one iterator, which chain.from_iterable joins over the
leaves and pivot patterns, so the census loop takes them from C, not up a
chain of generator frames.  A checkpoint counts candidates in this order.

Most candidates are ruled out before they are spanned in full, by the
wrap-gap bound.  A k-dim subspace has s = q^k - 1 exponents, and its s
cyclic gaps sum to N = q^n - 1.  If a candidate's highest exponent top has
s (N - top) < N, its wrap gap N - top is below the mean gap, so some gap G
is larger; rotating down to the exponent that ends G gives a member whose
highest exponent is N - G < top, a smaller integer, so the candidate is not
its orbit's smallest member.  A partial span's top only grows as rows are
added, so once a walk node fails the bound the walk skips its subtree, and
is_min_member never sees a leaf that fails it.  The skipped candidates keep
their place in the order: a candidate's index, in checkpoints and budgets,
is the one it had when every candidate was walked.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import Counter, namedtuple
from itertools import chain
from math import gcd, prod

from .errors import OrbitCodesError, ParseError, ResourceLimit, VerificationFailed
from .gfext import FieldSpec, gaussian_coefficient, make_field
from .records import Record
from .subspace import (
    CyclicOrbitRecord,
    Subspace,
    _basis_span,
    _echelon_rows,
    _walk_rows,
    check_modulus,
    divisors,
    exponents_of,
    from_bits,
    from_exponents,
    is_min_member,
    min_member,
    min_member_of_exponents,
    orbit_bits,
    orbit_record,
    rotate_bits,
)


class Orbit(namedtuple("Orbit", "field m rep length k min_dist stab_degree")):
    """One m-quasi orbit: canonical representative (a Subspace) plus derived
    parameters."""

    __slots__ = ()


class RunBudget(Record):
    """Work limits of every search; one exceeded raises ResourceLimit.

    A step is one census candidate, skipped ones included, one node of the
    exact clique search, or one vertex a greedy clique start scans.  The
    clock starts with the search, after a resumed census has rebuilt the
    orbits its checkpoint stores.  It is read on a run's first step and
    each time the step count passes a multiple of 1024, so a budget bounds
    short runs too.
    """

    _fields = ("max_seconds", "max_steps")

    def __init__(self, max_seconds: float | None = None, max_steps: int | None = None):
        self.max_seconds = max_seconds
        self.max_steps = max_steps

    def start(self):
        return _BudgetClock(self)


class _BudgetClock:
    def __init__(self, budget: RunBudget):
        self.budget = budget
        self.t0 = time.monotonic()
        self.steps = 0

    def tick(self, n: int = 1):
        """Count n more steps; the clock is read if these hold the first step
        or the count passes a multiple of 1024."""
        before = self.steps
        self.steps += n
        b = self.budget
        if b.max_steps is not None and self.steps > b.max_steps:
            raise ResourceLimit(f"step budget {b.max_steps} exceeded")
        first_step = before == 0 < n
        if b.max_seconds is not None and (first_step or before >> 10 != self.steps >> 10):
            if time.monotonic() - self.t0 > b.max_seconds:
                raise ResourceLimit(f"time budget {b.max_seconds}s exceeded")


# -- candidate enumeration -----------------------------------------------------


def _iter_candidates(field: FieldSpec, k: int, start: int = 0):
    """(index, bitset) of the k-dim subspaces containing gamma^0 that pass the
    wrap-gap bound, each once; the index counts the skipped ones too.

    With gamma^0 = 1 = (1,0,...,0) in the polynomial basis, such a subspace
    is gamma^0 plus the rows of one reduced echelon (k-1) x (n-1) matrix over
    coordinates 1..n-1, rows packed as base-q vectors.  The pivot patterns
    come in lexicographic order.  For each, row i is its pivot digit plus
    any digits in the non-pivot coordinates above it, its choices in
    increasing packed value, and row 0 varies fastest, then row 1, and so
    on.  The index is the position in this order.  Pivot patterns whose
    indices all lie below start are not walked.

    The bound: with s = q^k - 1 exponents and N = q^n - 1, a candidate whose
    highest exponent top has s (N - top) < N has a wrap gap N - top below
    the mean of its s cyclic gaps, so rotating it down past a larger gap G
    gives a member with highest exponent N - G < top, a smaller integer.
    So a kept candidate has top <= N - ceil(N/s), that is
    bits < 1 << N - (N-1)//s, and since a partial span's top only grows
    with its rows, a walk node above that skips its subtree (_walk_rows).
    k = 0 gives the zero subspace, the one candidate without gamma^0, and
    k = n the full space.

    Each pattern's walk is an iterator over its leaves' kept candidates,
    and chain.from_iterable joins the patterns, so no candidate passes
    through a generator frame here.
    """
    n, q, N = field.n, field.q, field.group_order
    if k == 0:
        return iter([(0, 0)])
    cap = 1 << N - (N - 1) // (q ** k - 1)

    def walks():
        index = 0
        for pivots in itertools.combinations(range(1, n), k - 1):
            rows = _echelon_rows(q, pivots, n)
            size = prod(map(len, rows))
            if index + size > start:
                yield _walk_rows(field, [*rows, [1]], cap, index)   # gamma^0 outermost
            index += size

    return chain.from_iterable(walks())


def candidate_count(field: FieldSpec, k: int) -> int:
    """How many candidates _iter_candidates numbers: [n-1, k-1]_q, 1 at k = 0."""
    return 1 if k == 0 else gaussian_coefficient(field.n - 1, k - 1, field.q)


# -- cyclic orbit data ----------------------------------------------------------


def _frobenius_conjugates(field: FieldSpec, rep: int) -> list:
    """The smallest members of the other orbits in rep's Frobenius class.

    sigma(x) = x^q maps the exponent e to q e mod N, so each image is found
    from the exponent list, not from the bitset's N bits, and its smallest
    member from its gaps (min_member_of_exponents).  The
    images sigma(V), sigma^2(V), ... run through the class and come back to
    V's orbit after d | n steps, where the list ends.
    """
    q, N = field.q, field.group_order
    exps, out = exponents_of(rep), []
    for _ in range(field.n - 1):
        exps = sorted([q * e % N for e in exps])
        image = min_member_of_exponents(exps, N)
        if image == rep:
            break
        out.append(image)
    return out


def stabilizer_counts(q: int, n: int, k: int) -> dict:
    """t -> how many cyclic orbits of G_q(n, k) have stabilizer degree t.

    The stabilizer of V in <gamma> is F_{q^t}^* for the largest subfield
    F_{q^t} over which V is a vector space (Gluesing-Luerssen, Morrison and
    Troha, Cyclic orbit codes and stabilizer subfields, 2015).  For
    t | gcd(n, k), A(t) = [n/t, k/t]_{q^t} k-subspaces are F_{q^t}-spaces,
    and E(t) of them have F_{q^t} as their largest such subfield, so
    A(t) = sum of E(s) over t | s | gcd(n, k): E(t) is A(t) less the E(s)
    of the proper multiples s, the Moebius inversion sum of mu(s/t) A(s).
    Their orbits have (q^n - 1)/(q^t - 1) members each.  Degrees without
    orbits are left out.
    """
    E = {}
    for t in reversed(divisors(gcd(n, k))):
        E[t] = gaussian_coefficient(n // t, k // t, q ** t) - sum(
            E[s] for s in E if s % t == 0)
    return {t: e * (q ** t - 1) // (q ** n - 1) for t, e in sorted(E.items()) if e}


_CYCLIC_CACHE: dict = {}


def cyclic_orbit_data(field: FieldSpec, k: int, budget: RunBudget | None = None,
                      checkpoint=None) -> list:
    """All m=1 orbit records for G_q(n,k), in the candidate order of their reps.

    Only the first orbit the walk meets of each Frobenius class is walked
    (orbit_record); every other one reuses its length, stabilizer degree
    and min_by_step dict, with its own rep_bits.  sigma(x) = x^q is
    F_q-linear with sigma(gamma^j V) = gamma^(qj) sigma(V), and
    gcd(q, q^n - 1) = 1, so j -> qj permutes the multiples of each step g
    modulo D: sigma maps V's orbit onto one with the same length, the same
    stabilizer and the same distances d(V, gamma^j V) over the multiples of
    each step.  When the first orbit of a class is walked, the smallest
    members of the others go into a map to its record, and each is popped
    when the walk meets it, so the map is empty after a run, and a run that
    leaves it otherwise raises VerificationFailed.  A resumed run first
    passes the representatives its checkpoint stores through the same step
    (_cyclic_record), in their order, so every record is rebuilt and the map
    holds what a run from the first candidate would hold at the start.
    The budget's clock starts after that rebuild, so it bounds the walk
    only.  The checkpoint's buffered lines are written even when the walk
    stops early.  Nothing mutates min_by_step, so records may share it.
    A whole census whose orbit count for some stabilizer degree is not the
    closed form's (stabilizer_counts) raises VerificationFailed.  That
    catches, for every caller, a lost or doubled orbit the conjugate map
    does not cover, such as one that is its own Frobenius class, and beyond
    classify's mass check a loss that orbits of another length make up
    for, or a record with a wrong stab_degree.
    """
    if not 0 <= k <= field.n:
        raise OrbitCodesError(f"subspace dimension k={k} is outside 0..{field.n}")
    key = (field, k)
    # a checkpointed run must write its file, so it never reads the cache
    if budget is None and checkpoint is None and key in _CYCLIC_CACHE:
        return _CYCLIC_CACHE[key]
    stored, start = checkpoint.load(field, k) if checkpoint is not None else ((), 0)
    conjugates = {}     # smallest member of an orbit not met yet -> its class's record
    records = [_cyclic_record(field, k, bits, conjugates) for bits in stored]
    clock = (budget or RunBudget()).start()     # after the rebuild: the budget bounds the walk
    last = start - 1
    try:
        for idx, bits in _iter_candidates(field, k, start):
            if idx < start:
                continue
            clock.tick(idx - last)      # the candidates the bound skipped count too
            last = idx
            if bits in conjugates or is_min_member(field, bits):
                records.append(_cyclic_record(field, k, bits, conjugates))
                if checkpoint is not None:
                    checkpoint.record(idx, bits)
        clock.tick(candidate_count(field, k) - 1 - last)   # and those after the last one yielded
    finally:
        if checkpoint is not None:
            checkpoint.flush()
    if conjugates:
        raise VerificationFailed(
            f"{len(conjugates)} Frobenius conjugates of (q={field.q}, n={field.n}, "
            f"k={k}) orbits were never met by the census walk")
    got = Counter(rec.stab_degree for rec in records)
    expected = stabilizer_counts(field.q, field.n, k)
    if got != expected:
        raise VerificationFailed(
            f"the census of (q={field.q}, n={field.n}, k={k}) has {dict(sorted(got.items()))} "
            f"orbits by stabilizer degree, the closed form {expected}")
    _CYCLIC_CACHE[key] = records
    return records


def _cyclic_record(field: FieldSpec, k: int, bits: int, conjugates: dict) -> CyclicOrbitRecord:
    """The record of the orbit whose smallest member is bits.

    An orbit in conjugates takes its class's record and leaves the map;
    any other is walked, and its Frobenius conjugates are mapped to it.
    """
    first = conjugates.pop(bits, None)
    if first is not None:
        return CyclicOrbitRecord(bits, first.length, first.stab_degree, first.min_by_step)
    rec = orbit_record(field, bits, k)
    if rec.length > 1:      # not the zero subspace or the full space
        for image in _frobenius_conjugates(field, bits):
            conjugates[image] = rec
    return rec


CHECKPOINT_FORMAT = 4

# A checkpoint appends its records to the file this many at a time.
CHECKPOINT_FLUSH_EVERY = 256


class Checkpoint:
    """Append-only JSONL checkpoint for long enumerations (n=10 scale).

    The first line is a header naming the format (4), the field (q, n, poly)
    and k; a file written for any other field, polynomial or k, or in an
    older format, is refused, never mixed in.  Each further line is one
    cyclic orbit: its representative, the orbit's smallest member, as hex
    bits, and the representative's candidate index, in strictly increasing
    order and below candidate_count, so a resumed run starts after the
    last index.  Nothing the census computes from a representative is
    stored: cyclic_orbit_data rebuilds each record.  Format 3 also stored
    each orbit's walk data, format 2 numbered the candidates of q > 2 in
    another order, and format 1 listed the orbits in another order.  A torn
    last line, left by a run stopped mid-write, is cut off on load, but only
    after the header matches; a file that does not start with a checkpoint
    header is refused and left as it is.
    """

    def __init__(self, path):
        self.path = path
        self._buf = []

    def load(self, field: FieldSpec, k: int) -> tuple:
        """(the stored representatives, index of the first candidate still to test).

        Each representative is checked to be the smallest member of the
        cyclic orbit of a k-subspace: q^k - 1 exponents below q^n - 1, closed
        under addition.
        """
        header = {"checkpoint": CHECKPOINT_FORMAT, "q": field.q, "n": field.n,
                  "poly": list(field.poly), "k": k}
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        except OSError as exc:
            raise ParseError(f"cannot read checkpoint {self.path}: {exc}") from None
        where = f"checkpoint {self.path}"
        line_1, newline, _ = data.partition(b"\n")
        # the file is checked before any of it is cut: only an empty or torn
        # header, or the torn tail after a matching one, is dropped
        first = header
        if newline or not json.dumps(header).encode().startswith(line_1):
            first = _json_line(line_1.decode(errors="replace"), f"{where} line 1")
        if first != header:
            if not isinstance(first, dict) or not {"checkpoint", "min_by_class"} & set(first):
                raise ParseError(f"{where} is not a checkpoint: line 1 is no checkpoint header")
            old = first.get("checkpoint")
            if "min_by_class" in first:
                what = "holds records in the older min_by_class format"
            elif type(old) is int and 0 < old < CHECKPOINT_FORMAT:
                what = f"is in the older checkpoint format {old}, which is not resumed"
            else:
                what = (f"was written for another field, polynomial or k, not for (q={field.q}, "
                        f"n={field.n}, poly={list(field.poly)}, k={k})")
            raise OrbitCodesError(f"{where} {what}; delete it to start over")
        complete = data[:data.rfind(b"\n") + 1]
        if len(complete) < len(data):
            os.truncate(self.path, len(complete))
        lines = complete.decode(errors="replace").splitlines()
        if not lines:
            self._buf.append(json.dumps(header))
            return [], 0
        reps, last_idx, end = [], -1, candidate_count(field, k)
        for lineno, line in enumerate(lines[1:], 2):
            rec = _json_line(line, f"{where} line {lineno}")
            try:
                cand, bits = rec["cand"], int(rec["rep_bits"], 16)
            except (KeyError, TypeError, ValueError):
                cand = None
            if type(cand) is not int:
                raise ParseError(f"{where} line {lineno} is not an orbit record")
            if cand <= last_idx:
                raise ParseError(f"{where} line {lineno}: candidate index {cand} is "
                                 "negative or not above the previous record's")
            if cand >= end:
                raise ParseError(f"{where} line {lineno}: candidate index {cand} is "
                                 f"past the last candidate, {end - 1}")
            if not (0 <= bits < 1 << field.group_order
                    and bits.bit_count() == field.q ** k - 1
                    and is_min_member(field, bits)
                    and _basis_span(field, bits, limit=k)[2] == bits):
                raise ParseError(f"{where} line {lineno} does not name a {k}-subspace of "
                                 "this field that is its cyclic orbit's smallest member")
            reps.append(bits)
            last_idx = cand
        return reps, last_idx + 1

    def record(self, cand_idx: int, rep_bits: int):
        self._buf.append(json.dumps({"cand": cand_idx, "rep_bits": format(rep_bits, "x")}))
        if len(self._buf) >= CHECKPOINT_FLUSH_EVERY:
            self.flush()

    def flush(self):
        if not self._buf:
            return
        with open(self.path, "a") as fh:
            fh.write("\n".join(self._buf) + "\n")
        self._buf = []


def _json_line(line: str, where: str):
    try:
        return json.loads(line)
    except (ValueError, RecursionError):
        raise ParseError(f"{where} is not JSON") from None


# -- public operations -----------------------------------------------------------


def orbit_of(V: Subspace, m: int = 1) -> Orbit:
    """The m-quasi orbit of V."""
    field = V.field
    check_modulus(field, m)
    rec = orbit_record(field, V.bits, V.dim, m)
    g = gcd(m, rec.length)
    L = rec.length // g
    # L steps of m must close the walk -- sanity-check the formula
    if rotate_bits(V.bits, L * m, field.group_order) != V.bits:
        raise VerificationFailed("orbit length formula disagrees with iteration")
    rep = min_member(field, V.bits, m)
    return Orbit(field, m, from_bits(field, rep), L, V.dim, rec.min_dist_for_step(g),
                 rec.stab_degree)


def enumerate_orbits(field: FieldSpec, k: int, m: int = 1):
    """Yield every m-quasi orbit of G_q(n,k) exactly once."""
    check_modulus(field, m)
    for rec in cyclic_orbit_data(field, k):
        g = gcd(m, rec.length)
        md = rec.min_dist_for_step(g)
        # quasi orbit s holds the cyclic orbit's members s, s+g, s+2g, ...
        rots = orbit_bits(field, rec.rep_bits) if g > 1 else [rec.rep_bits]
        for s in range(g):
            yield Orbit(field, m, from_bits(field, min(rots[s::g])), rec.length // g,
                        k, md, rec.stab_degree)


# -- census ---------------------------------------------------------------------


class CensusTable(Record):
    """Aggregated orbit counts for one (q, n, k, m), keyed by (length, min_dist)."""

    _fields = ("q", "n", "k", "m", "counts", "diffs")

    def __init__(self, q: int, n: int, k: int, m: int, counts: dict,
                 diffs: list | None = None):
        self.q, self.n, self.k, self.m = q, n, k, m
        self.counts = counts                               # (length, min_dist) -> orbits
        self.diffs = [] if diffs is None else diffs        # vs the embedded reference tables

    @property
    def full_length(self) -> int:
        return (self.q ** self.n - 1) // (self.m * (self.q - 1))

    @property
    def mass(self) -> int:
        return sum(length * c for (length, _), c in self.counts.items())

    @property
    def expected_mass(self) -> int:
        return gaussian_coefficient(self.n, self.k, self.q)

    def total_orbits(self) -> int:
        return sum(self.counts.values())

    def by_distance(self, length=None) -> dict:
        out = {}
        for (ln, d), c in self.counts.items():
            if length is None or ln == length:
                out[d] = out.get(d, 0) + c
        return out

    def lengths(self) -> list:
        return sorted({ln for (ln, _) in self.counts}, reverse=True)


def classify(field: FieldSpec, k: int, m: int = 1,
             budget: RunBudget | None = None, checkpoint=None) -> CensusTable:
    """Census of all m-quasi orbits of G_q(n,k); the mass check is enforced."""
    check_modulus(field, m)
    counts = {}
    for rec in cyclic_orbit_data(field, k, budget=budget, checkpoint=checkpoint):
        g = gcd(m, rec.length)
        key = (rec.length // g, rec.min_dist_for_step(g))
        counts[key] = counts.get(key, 0) + g
    table = CensusTable(field.q, field.n, k, m, counts)
    if table.mass != table.expected_mass:
        raise VerificationFailed(
            f"mass check failed for (q={field.q}, n={field.n}, k={k}, m={m}): "
            f"{table.mass} != {table.expected_mass}")
    from .reference_tables import compare_census
    table.diffs = compare_census(table)
    return table


# -- length-law and conjecture checks ---------------------------------------------


class ConjectureVerdict(namedtuple("ConjectureVerdict", (
        "n", "k", "applicable", "satisfied", "full_length_count_at_target"))):
    """Existence of a full-length orbit at distance >= 2k-2 for (n, k).

    applicable: the statement is posed for k < n/2.
    """

    __slots__ = ()

    @property
    def target_distance(self) -> int:
        return 2 * self.k - 2


def conjecture_check(field: FieldSpec, k: int,
                     budget: RunBudget | None = None) -> ConjectureVerdict:
    table = classify(field, k, 1, budget=budget)
    target = 2 * k - 2
    full = field.group_order // (field.q - 1)
    count = sum(c for (ln, d), c in table.counts.items()
                if ln == full and d >= target)
    return ConjectureVerdict(field.n, k, k < field.n / 2, count > 0, count)


# -- orbit database ---------------------------------------------------------------


def write_orbit_db(orbits, path) -> int:
    """Write orbits as line-delimited JSON; returns the number of records."""
    count = 0
    with open(path, "w") as fh:
        for o in orbits:
            fh.write(json.dumps({
                "q": o.field.q, "n": o.field.n, "poly": list(o.field.poly),
                "m": o.m, "k": o.k, "length": o.length,
                "min_dist": o.min_dist, "stab_degree": o.stab_degree,
                "rep": list(o.rep.exponents),
            }) + "\n")
            count += 1
    return count


def numbered_lines(path, what: str):
    """(number from 1, line) of each line of a text file, read one at a time;
    a file that cannot be opened or decoded is a ParseError naming it as what."""
    try:
        with open(path) as fh:
            yield from enumerate(fh, 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None


def read_orbit_db(path) -> list:
    """Read an orbit database, line by line; all records must share one field spec.

    An unreadable file, a line that is not an orbit record, or a record from
    another field than the first is a ParseError.  So is a record whose rep
    is not a subspace, is not the canonical representative of its orbit, or
    disagrees with orbit_of on the orbit's k, length, min_dist or
    stab_degree: every record is recomputed.
    """
    field, out = None, []
    for lineno, line in numbered_lines(path, "orbit db"):
        line = line.strip()
        if not line:
            continue
        where = f"orbit db {path} line {lineno}"
        rec = _json_line(line, where)
        try:
            q, n, m, length, k, min_dist, stab_degree = (rec[key] for key in (
                "q", "n", "m", "length", "k", "min_dist", "stab_degree"))
            poly, rep = tuple(rec["poly"]), list(rec["rep"])
        except (KeyError, TypeError):
            raise ParseError(f"{where} is not an orbit record") from None
        if not all(type(x) is int for x in (
                q, n, m, length, k, min_dist, stab_degree, *poly, *rep)):
            raise ParseError(f"{where}: every field of an orbit record "
                             "must be an integer or a list of integers")
        if field is None:
            field = make_field(q, n, poly)
        if (q, n, poly) != (field.q, field.n, field.poly):
            raise ParseError(f"{where} is from another field than the first record")
        check_modulus(field, m)
        try:
            V = from_exponents(field, rep)
        except OrbitCodesError as exc:
            raise ParseError(f"{where}: rep is not a subspace: {exc}") from None
        orbit = orbit_of(V, m)
        if orbit.rep.bits != V.bits:
            raise ParseError(f"{where}: rep is not its orbit's canonical representative")
        for key, value in (("k", k), ("length", length), ("min_dist", min_dist),
                           ("stab_degree", stab_degree)):
            if getattr(orbit, key) != value:
                raise ParseError(f"{where}: stored {key}={value} but the orbit "
                                 f"has {key}={getattr(orbit, key)}")
        out.append(orbit)
    return out
