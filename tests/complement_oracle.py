"""The elimination complement that the perp-mask routine replaced, as an oracle.

V-perp is found the old way: a basis of V as the RREF of all of V's
vectors, the nullspace of that basis under the coordinate dot product by
Gaussian elimination, and the span of the nullspace turned back into a
bitset.  The rank and RREF helpers, which only tests use, live here as
well.  They work on coordinate digits and use nothing from
orbitcodes.subspace, so they stay independent of the spans they check.
"""


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


def exponents_of(bits: int) -> list:
    return [e for e in range(bits.bit_length()) if bits >> e & 1]


def basis_of(field, bits: int) -> list:
    """The RREF basis (packed rows) of the subspace with these bits."""
    return rref(field, [field.antilog[e] for e in exponents_of(bits)])


def span_vectors(field, basis: list) -> list:
    """The span of packed vectors b_i, sum c_i b_i at index sum c_i q^i."""
    q = field.q
    elts = [(0,) * field.n]
    for b in basis:
        digits = field.unpack_coords(b)
        elts = [tuple((x + c * y) % q for x, y in zip(e, digits))
                for c in range(q) for e in elts]
    return [field.pack_coords(e) for e in elts]


def span_bits(field, basis: list) -> int:
    """The bitset of the span of packed vectors."""
    bits = 0
    for v in span_vectors(field, basis):
        if v:
            bits |= 1 << field.log[v]
    return bits


def oracle_complement_bits(field, bits: int, dim: int) -> int:
    """V-perp as a bitset, by RREF basis -> nullspace -> span."""
    if dim == 0:
        return (1 << field.group_order) - 1
    if dim == field.n:
        return 0
    return span_bits(field, nullspace_packed(field, basis_of(field, bits)))


def rank_of_packed(field, vectors) -> int:
    """Rank of a set of packed coordinate vectors over F_q."""
    return len(rref(field, vectors))


def basis_matrix(V) -> list:
    """RREF basis of V as a list of coordinate tuples (rows)."""
    return [V.field.unpack_coords(r) for r in basis_of(V.field, V.bits)]


def rref(field, rows: list) -> list:
    """Row-reduce packed vectors to the unique RREF (packed rows, by pivot).

    Rows that reduce to the same digits span nothing new, so the rows still
    without a pivot are kept as a set, and each pivot divides their number
    by up to q: reducing all of a subspace's vectors costs about q/(q-1)
    row operations per vector.
    """
    q, n = field.q, field.n
    zero = (0,) * n
    done, rest = [], {field.unpack_coords(r) for r in rows} - {zero}
    for col in range(n):
        pivot = next((row for row in rest if row[col]), None)
        if pivot is None:
            continue
        inv = pow(pivot[col], q - 2, q)
        pivot = tuple(x * inv % q for x in pivot)

        def reduce(row):
            c = row[col]
            return tuple((a - c * b) % q for a, b in zip(row, pivot)) if c else row
        done = [reduce(row) for row in done] + [pivot]
        rest = {reduce(row) for row in rest} - {zero}
    return [field.pack_coords(row) for row in done]
