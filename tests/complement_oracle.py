"""The elimination complement that the perp-mask routine replaced, as an oracle.

V-perp is found the old way: a basis of V by greedy row reduction, the
nullspace of that basis under the coordinate dot product by Gaussian
elimination, and the span of the nullspace turned back into a bitset.
The rank and RREF helpers, which only tests use, live here as well.
"""

from orbitcodes.subspace import (
    _bits_from_packed,
    _greedy_basis_packed,
    _normalize_row,
    _reduce_against,
    _span_packed,
)


def nullspace_packed(field, rows: list) -> list:
    """Basis (packed) of {x : row . x = 0 for all rows} under the coordinate dot product."""
    q, n = field.q, field.n
    if q == 2:
        return _nullspace_gf2(rows, n)
    # general q: gaussian elimination on digit matrices
    mat = [list(field.unpack_coords(r)) for r in rows]
    pivots = []
    ri = 0
    for col in range(n):
        pr = next((i for i in range(ri, len(mat)) if mat[i][col]), None)
        if pr is None:
            continue
        mat[ri], mat[pr] = mat[pr], mat[ri]
        inv = pow(mat[ri][col], q - 2, q)
        mat[ri] = [(x * inv) % q for x in mat[ri]]
        for i in range(len(mat)):
            if i != ri and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % q for a, b in zip(mat[i], mat[ri])]
        pivots.append(col)
        ri += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-mat[i][fc]) % q
        basis.append(field.pack_coords(vec))
    return basis


def _nullspace_gf2(rows: list, n: int) -> list:
    mat = list(rows)
    pivots = []
    ri = 0
    for col in range(n):
        pr = next((i for i in range(ri, len(mat)) if (mat[i] >> col) & 1), None)
        if pr is None:
            continue
        mat[ri], mat[pr] = mat[pr], mat[ri]
        for i in range(len(mat)):
            if i != ri and (mat[i] >> col) & 1:
                mat[i] ^= mat[ri]
        pivots.append(col)
        ri += 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        vec = 1 << fc
        for i, pc in enumerate(pivots):
            if (mat[i] >> fc) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def oracle_complement_bits(field, bits: int, dim: int) -> int:
    """V-perp as a bitset, by greedy basis -> nullspace -> span."""
    if dim == 0:
        return (1 << field.group_order) - 1
    if dim == field.n:
        return 0
    rows = _greedy_basis_packed(field, bits, k_hint=dim)
    return _bits_from_packed(field, _span_packed(field, nullspace_packed(field, rows)))


def rank_of_packed(field, vectors) -> int:
    """Rank of a set of packed coordinate vectors over F_q."""
    echelon = []
    for v in vectors:
        red = _reduce_against(field, v, echelon)
        if red:
            echelon.append(_normalize_row(field, red))
    return len(echelon)


def basis_matrix(V) -> list:
    """RREF basis of V as a list of coordinate tuples (rows)."""
    field = V.field
    rows = rref(field, _greedy_basis_packed(field, V.bits, k_hint=V.dim))
    return [field.unpack_coords(r) for r in rows]


def rref(field, rows: list) -> list:
    """Row-reduce packed vectors to the unique RREF (packed rows, by pivot)."""
    q, n = field.q, field.n
    mat = [list(field.unpack_coords(r)) for r in rows]
    ri = 0
    for col in range(n):
        pr = next((i for i in range(ri, len(mat)) if mat[i][col]), None)
        if pr is None:
            continue
        mat[ri], mat[pr] = mat[pr], mat[ri]
        inv = pow(mat[ri][col], q - 2, q) if q != 2 else 1
        if inv != 1:
            mat[ri] = [(x * inv) % q for x in mat[ri]]
        for i in range(len(mat)):
            if i != ri and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % q for a, b in zip(mat[i], mat[ri])]
        ri += 1
    return [field.pack_coords(row) for row in mat[:ri] if any(row)]
