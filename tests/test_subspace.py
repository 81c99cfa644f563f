"""Bitset subspaces: construction, metric axioms, shifts, complements."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import (
    distance,
    from_bits,
    from_exponents,
    make_field,
    orbit_of,
    orthogonal_complement,
    shift,
    span,
)
from orbitcodes import subspace
from orbitcodes.codes import gaussian_coefficient
from orbitcodes.errors import (
    AllZero,
    BadModulus,
    DuplicateExponent,
    ExponentOutOfRange,
    FieldMismatch,
    NotASubspace,
)
from orbitcodes.subspace import (
    _basis_span,
    dimension_from_popcount,
    min_member,
    rotate_bits,
    subspaces_of,
)
from tests.complement_oracle import (
    basis_matrix,
    basis_of,
    exponents_of,
    rank_of_packed,
    span_bits,
    span_vectors,
)


def all_subspaces(field, k):
    """Exhaustive k-subspaces by brute force over element subsets via spans."""
    seen = set()
    N = field.group_order
    for combo in itertools.combinations(range(N), k):
        V = span(field, combo)
        if V.dim == k:
            seen.add(V.bits)
    return [from_bits(field, b) for b in seen]


def test_dimension_from_popcount():
    """Every k with q^k - 1 <= 2^24, and the popcounts q^k - 2 and q^k next
    to it; over F_2 they take the same loop as over larger q."""
    assert dimension_from_popcount(7, 2) == 3
    assert dimension_from_popcount(8, 3) == 2
    with pytest.raises(NotASubspace):
        dimension_from_popcount(5, 2)
    for q in (2, 3, 5, 7):
        assert dimension_from_popcount(0, q) == 0
        k = 1
        while q ** k - 1 <= 1 << 24:
            assert dimension_from_popcount(q ** k - 1, q) == k
            # q^1 - 2 is 0, the zero subspace's popcount, over F_2
            for wrong in (q ** k - 2, q ** k) if k > 1 else (q ** k,):
                with pytest.raises(NotASubspace):
                    dimension_from_popcount(wrong, q)
            k += 1


def test_from_exponents_validation(f16):
    V = from_exponents(f16, [0, 1, 4])  # 1 + gamma = gamma^4
    assert V.dim == 2
    with pytest.raises(NotASubspace):
        from_exponents(f16, [0, 1, 2])  # not closed
    with pytest.raises(NotASubspace):
        from_exponents(f16, [0, 1])     # 2 elements is not 2^k - 1
    with pytest.raises(DuplicateExponent):
        from_exponents(f16, [0, 0, 4])
    with pytest.raises(ExponentOutOfRange):
        from_exponents(f16, [0, 1, 15])


def test_span_matches_from_exponents(f16):
    V = span(f16, [0, 1])
    assert sorted(V.exponents) == [0, 1, 4]
    with pytest.raises(AllZero):
        span(f16, [])


def test_zero_and_full_space(f16):
    z, f = from_bits(f16, 0), from_bits(f16, (1 << 15) - 1)
    assert z.dim == 0 and f.dim == 4
    assert distance(z, f) == 4
    assert orthogonal_complement(z).bits == f.bits
    assert orthogonal_complement(f).bits == 0


def test_in_tests_exponent_membership(f16):
    V = from_exponents(f16, [0, 1, 4])
    assert 4 in V and 0 in V and 1 in V
    assert 2 not in V           # V.dim, which tuple membership would find
    assert 0 not in from_bits(f16, 0)
    assert -1 not in V and 15 not in V and 15 not in from_bits(f16, (1 << 15) - 1)
    assert -1 not in from_bits(f16, (1 << 15) - 1)
    with pytest.raises(TypeError):
        f16 in V
    with pytest.raises(TypeError):
        "4" in V


def test_grassmannian_sizes_small():
    f = make_field(2, 4)
    for k in range(5):
        assert len(all_subspaces(f, k) if k else [0]) == gaussian_coefficient(4, k, 2)


def test_metric_axioms_exhaustive_g24():
    """All pairs in G_2(4,2): symmetry, identity, triangle inequality, evenness."""
    f = make_field(2, 4)
    subs = all_subspaces(f, 2)
    assert len(subs) == 35
    for U, V in itertools.combinations(subs, 2):
        d = distance(U, V)
        assert d == distance(V, U)
        assert d in (2, 4)
    for U in subs:
        assert distance(U, U) == 0
    for U, V, W in itertools.islice(itertools.combinations(subs, 3), 2000):
        assert distance(U, W) <= distance(U, V) + distance(V, W)


def test_distance_against_rank_oracle(f32):
    """d(U,V) = rank[U;V] * 2 - dim U - dim V via coordinate matrices."""
    subs = all_subspaces(f32, 2)[:40]
    for U, V in itertools.combinations(subs, 2):
        rows = basis_of(f32, U.bits) + basis_of(f32, V.bits)
        r = rank_of_packed(f32, rows)
        assert distance(U, V) == 2 * r - U.dim - V.dim


def test_intersection_is_and(f16):
    U = from_exponents(f16, [0, 1, 4])
    V = from_exponents(f16, [1, 2, 5])
    W = from_bits(f16, U.bits & V.bits)
    assert W.dim == 1 and W.exponents == (1,)


def test_shift_rotates_exponents(f16):
    U = from_exponents(f16, [0, 1, 4])
    V = shift(U, 3)
    assert sorted(V.exponents) == [3, 4, 7]
    assert shift(V, 12).bits == U.bits  # 15 - 3
    assert shift(U, 15).bits == U.bits


def test_shift_is_linear_isomorphism(f64):
    subs = all_subspaces(f64, 2)[:25]
    for U in subs:
        for e in (1, 5, 9):
            V = shift(U, e)
            assert V.dim == U.dim
            assert distance(U, V) == distance(shift(U, 7), shift(V, 7))


def test_field_mismatch_rejected(f16, f32):
    U = from_exponents(f16, [0, 1, 4])
    V = from_exponents(f32, [0, 13, 14])
    with pytest.raises(FieldMismatch):
        distance(U, V)


def test_basis_matrix_rref(f16):
    U = from_exponents(f16, [0, 1, 4])
    rows = basis_matrix(U)
    assert len(rows) == 2
    # rows span U: every nonzero combination is a member
    packed = [f16.pack_coords(r) for r in rows]
    members = {packed[0], packed[1], packed[0] ^ packed[1]}
    assert {f16.log[p] for p in members} == set(U.exponents)


def test_orthogonal_complement_properties(f32):
    subs = all_subspaces(f32, 2)[:40]
    for U in subs:
        C = orthogonal_complement(U)
        assert C.dim == f32.n - U.dim
        assert orthogonal_complement(C).bits == U.bits  # involution
        # complementarity of the bilinear form: every pair is orthogonal
        for u in basis_of(f32, U.bits):
            for c in basis_of(f32, C.bits):
                assert (u & c).bit_count() % 2 == 0


def test_orthogonal_complement_nonbinary(f9):
    subs = all_subspaces(f9, 1)
    assert len(subs) == 4
    for U in subs:
        C = orthogonal_complement(U)
        assert C.dim == 1
        assert orthogonal_complement(C).bits == U.bits


@pytest.mark.parametrize("q,n,poly", [
    pytest.param(q, n, poly, id=f"{q}-{n}")
    for q, n, poly in [(2, 4, None), (2, 5, None), (3, 3, None), (5, 2, None),
                       (5, 3, (2, 0, 1, 1))]])    # x^3 + x^2 + 2: F_5^3 has no default
def test_subspaces_of_lists_every_t_subspace_once(q, n, poly):
    """Against the spans of every t elements: [k, t]_q distinct t-subspaces."""
    field = make_field(q, n, poly)
    rng = random.Random(q * 100 + n)
    for size in range(n + 1):
        V = span(field, rng.sample(range(field.group_order), size)) if size \
            else from_bits(field, 0)
        k, exps = V.dim, V.exponents
        for t in range(k + 2):
            listed = list(subspaces_of(field, V.bits, t))
            assert len(listed) == len(set(listed)) == gaussian_coefficient(k, t, q)
            if 0 < t < k:
                spans = {span(field, c).bits for c in itertools.combinations(exps, t)}
                assert set(listed) == {b for b in spans
                                       if dimension_from_popcount(b.bit_count(), q) == t}
            else:
                assert listed == ([0] if t == 0 else [V.bits] if t == k else [])


def echelon_row_spaces(field, basis, t):
    """The bitsets of the row spaces of the reduced echelon t x k matrices
    over basis, k = len(basis), each spanned from scratch.

    The pivot patterns come in lexicographic order, and for each one base-q
    counter runs over the free digits (row i, column c > pivot i, c not a
    pivot), row 0's lowest column least significant.
    """
    q, k = field.q, len(basis)
    vectors = span_vectors(field, basis)        # sum c_i b_i at index sum c_i q^i
    for pivots in itertools.combinations(range(k), t):
        free = [(i, c) for i in range(t)
                for c in range(pivots[i] + 1, k) if c not in pivots]
        for count in range(q ** len(free)):
            rows = [q ** p for p in pivots]
            for i, c in free:
                count, digit = divmod(count, q)
                rows[i] += digit * q ** c
            yield span_bits(field, [vectors[r] for r in rows])


@pytest.mark.parametrize("q,n,poly", [
    pytest.param(q, n, poly, id=f"{q}-{n}")
    for q, n, poly in [(2, 5, None), (3, 3, None), (5, 3, (2, 0, 1, 1))]])
def test_subspaces_of_order_matches_echelon_oracle(q, n, poly):
    """The walker lists the t-subspaces in the echelon counter's order."""
    field = make_field(q, n, poly)
    rng = random.Random(q * 1000 + n)
    for size in range(1, n + 1):
        exps = rng.sample(range(field.group_order), size)
        V = span(field, exps)
        basis = _basis_span(field, V.bits)[0]
        assert span_bits(field, basis) == V.bits
        for t in range(V.dim + 1):
            assert list(subspaces_of(field, V.bits, t)) == \
                list(echelon_row_spaces(field, basis, t))


def test_canonical_rotation(f16):
    """The smallest member of an orbit, and a shift by a multiple of m reaching it."""
    U = from_exponents(f16, [3, 4, 7])
    rep1, off1 = min_member(f16, U.bits, 1)
    assert shift(U, off1).bits == rep1
    assert rep1 == min(shift(U, j).bits for j in range(15))
    rep3, off3 = min_member(f16, U.bits, 3)
    assert off3 % 3 == 0 and shift(U, off3).bits == rep3
    assert rep3 == min(shift(U, j).bits for j in range(0, 15, 3))


def test_canonical_rotation_bad_modulus(f16):
    U = from_exponents(f16, [3, 4, 7])
    for m in (0, 4, 16):
        with pytest.raises(BadModulus):
            orbit_of(U, m)


@given(st.integers(0, (1 << 15) - 1), st.integers(-40, 40))
def test_rotate_bits_round_trip(bits, e):
    assert rotate_bits(rotate_bits(bits, e, 15), -e, 15) == bits
    assert rotate_bits(bits, 15, 15) == bits


@settings(max_examples=60)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=4))
def test_span_idempotent_f32(exps):
    f = make_field(2, 5)
    V = span(f, exps)
    assert span(f, V.exponents).bits == V.bits
    assert all(V.bits >> e & 1 for e in exps)


# -- _basis_span and its callers against the RREF oracle ---------------------


def oracle_greedy_basis(field, exps):
    """The lowest exponent that raises the rank, one after another."""
    basis = []
    for e in sorted(exps):
        v = field.antilog[e]
        if rank_of_packed(field, basis + [v]) > len(basis):
            basis.append(v)
    return basis


@pytest.mark.parametrize("q,n", [(2, 5), (2, 6), (3, 3), (3, 4), (5, 2)])
def test_basis_span_and_its_callers_match_rref_oracle(q, n):
    field = make_field(q, n)
    N = field.group_order
    rng = random.Random(q * 100 + n)
    for _ in range(60):
        exps = rng.sample(range(N), rng.randint(1, n + 1))
        basis = oracle_greedy_basis(field, exps)
        expected = span_bits(field, basis)
        got = _basis_span(field, sum(1 << e for e in exps))
        assert got == (basis, span_vectors(field, basis), expected)
        V = span(field, exps)
        assert (V.bits, V.dim) == (expected, len(basis))
        members = exponents_of(expected)
        rng.shuffle(members)
        W = from_exponents(field, members)
        assert (W.bits, W.dim) == (expected, len(basis))
        t = rng.randint(0, len(basis))
        listed = list(subspaces_of(field, expected, t))
        assert len(set(listed)) == len(listed) == gaussian_coefficient(len(basis), t, q)
        for T in listed:
            rows = basis_of(field, T)
            assert len(rows) == t and span_bits(field, rows) == T and not T & ~expected
    # sets of q^k - 1 exponents that are not closed are refused
    refused = 0
    for k in range(1, n):
        for _ in range(40):
            exps = rng.sample(range(N), q ** k - 1)
            bits = sum(1 << e for e in exps)
            if span_bits(field, basis_of(field, bits)) == bits:
                continue
            with pytest.raises(NotASubspace,
                               match="^element set is not closed under addition$"):
                from_exponents(field, exps)
            refused += 1
    assert refused > 0


def test_from_exponents_spans_at_most_k_vectors(monkeypatch):
    """7 = 2^3 - 1 exponents of F_2^16 that are not closed cost three span
    steps, not the up to 2^7 vectors their span could hold."""
    field = make_field(2, 16)
    step, calls = subspace._span_step, []

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(subspace, "_span_step", counting)
    with pytest.raises(NotASubspace):
        from_exponents(field, [0, 1, 2, 3, 4, 5, 6])
    assert 0 < len(calls) <= 3
