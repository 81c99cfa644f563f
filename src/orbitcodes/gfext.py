"""Exact arithmetic in F_{q^n} with a primitive-element exponent representation.

A field is fixed by a prime q, a degree n and a monic degree-n polynomial
p(x) over F_q whose root x generates the multiplicative group (a primitive
polynomial).  Nonzero elements are stored as exponents e, meaning gamma^e
where gamma is the class of x; coordinate vectors in the polynomial basis
{1, x, ..., x^{n-1}} are packed into a single integer with digit i holding
the coefficient of x^i (base-q digits, so plain bits when q = 2).
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache

from .errors import (
    DegreeMismatch,
    NoDefault,
    NotPrime,
    NotPrimitive,
    ParseError,
    TooLarge,
)

# Largest supported multiplicative group; log/antilog tables are dense.
DEFAULT_MAX_GROUP_ORDER = 1 << 24

# Fields with at most this many vectors keep every perp mask once the first
# orthogonal complement asks for one: q^n - 1 masks of q^n - 1 bits, about
# 2 MB at the cap.  Larger fields compute each mask when it is needed.
PERP_TABLE_MAX_ORDER = 1 << 12

# Primitive polynomials, constant term first.  The (2,4), (2,5), (2,6),
# (2,8) and (2,10) entries are the ones the shipped example codes and the
# duality tables are stated against; changing them changes those results.
DEFAULT_POLYS = {
    (2, 1): (1, 1),                                  # x + 1
    (2, 2): (1, 1, 1),                               # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),                            # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),                         # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),                      # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 1, 1, 0, 1),                   # x^6 + x^4 + x^3 + x + 1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),                # x^7 + x + 1
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),             # x^8 + x^4 + x^3 + x^2 + 1
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),          # x^9 + x^4 + 1
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),      # x^10 + x^6 + x^5 + x^3 + x^2 + x + 1
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),   # x^11 + x^2 + 1
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),                                  # x + 1
    (3, 2): (2, 1, 1),                               # x^2 + x + 2
    (3, 3): (1, 2, 0, 1),                            # x^3 + 2x + 1
    (3, 4): (2, 1, 0, 0, 1),                         # x^4 + x + 2
    (5, 1): (2, 1),                                  # x + 2
    (5, 2): (2, 1, 1),                               # x^2 + x + 2
    (7, 1): (4, 1),                                  # x + 4
    (7, 2): (3, 1, 1),                               # x^2 + x + 3
}


@lru_cache(maxsize=None)
def gaussian_coefficient(n: int, k: int, q: int) -> int:
    """Number of k-dim subspaces of F_q^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _field_order(q: int, n: int) -> int:
    """q^n, or TooLarge once q^n - 1 passes DEFAULT_MAX_GROUP_ORDER.

    The power is built one factor at a time, so a huge q or n is refused
    before it costs anything (and before q is tested for primality).
    """
    if n < 1:
        raise DegreeMismatch(f"n={n} must be >= 1")
    if q < 2:
        raise NotPrime(f"q={q} is not prime")
    order = 1
    for _ in range(n):
        order *= q
        if order - 1 > DEFAULT_MAX_GROUP_ORDER:
            raise TooLarge(f"q^{n}-1 exceeds limit {DEFAULT_MAX_GROUP_ORDER}")
    return order


def default_poly(q: int, n: int) -> tuple:
    """Return the built-in primitive polynomial for F_{q^n}, constant term first."""
    try:
        return DEFAULT_POLYS[(q, n)]
    except KeyError:
        raise NoDefault(f"no built-in primitive polynomial for q={q}, n={n}") from None


def parse_poly(text: str, q: int, max_degree: int | None = None) -> tuple:
    """Parse a polynomial given as coefficients "1,1,0,0,1" or terms "x^4+x+1".

    A term above max_degree, when given, raises DegreeMismatch before a
    coefficient tuple of that length is built.
    """
    text = text.strip()
    try:
        if "," in text or text.lstrip("-").isdigit():
            return tuple(int(c) % q for c in text.split(","))
        coeffs = {}
        for term in text.replace("-", "+").split("+"):
            term = term.strip()
            if not term:
                continue
            if "x" not in term:
                coeffs[0] = coeffs.get(0, 0) + int(term)
            else:
                c, _, rest = term.partition("x")
                c = int(c.rstrip("*")) if c.strip() else 1
                e = int(rest.lstrip("^")) if rest.strip() else 1
                coeffs[e] = coeffs.get(e, 0) + c
        deg = max(coeffs)
    except ValueError as exc:
        raise ParseError(f"cannot parse polynomial {text!r}: {exc}") from None
    if max_degree is not None and deg > max_degree:
        raise DegreeMismatch(f"polynomial has degree {deg}, expected {max_degree}")
    return tuple(coeffs.get(i, 0) % q for i in range(deg + 1))


def poly_str(poly: tuple) -> str:
    """Render a coefficient tuple (constant first) as "x^4+x+1"."""
    terms = []
    for e in range(len(poly) - 1, -1, -1):
        c = poly[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            x = "x" if e == 1 else f"x^{e}"
            terms.append(x if c == 1 else f"{c}{x}")
    return "+".join(terms) if terms else "0"


class _ExpBits(dict):
    """Packed vector -> 1 << its exponent, each entry made on first lookup."""

    __slots__ = ("log",)

    def __init__(self, log: list):
        super().__init__()
        self.log = log

    def __missing__(self, v: int) -> int:
        bit = self[v] = 1 << self.log[v]
        return bit


class FieldSpec:
    """F_{q^n} with full log/antilog tables; immutable once built.

    The dot-product hyperplane masks (perp_mask, perp_masks) are derived
    from the tables on first use and memoised on the instance.
    """

    def __init__(self, q: int, n: int, poly: tuple):
        order = _field_order(q, n)
        if not is_prime(q):
            raise NotPrime(f"q={q} is not prime")
        poly = tuple(int(c) for c in poly)
        if len(poly) != n + 1:
            raise DegreeMismatch(f"polynomial has degree {len(poly) - 1}, expected {n}")
        if poly[-1] != 1:
            raise DegreeMismatch("polynomial must be monic")
        if any(c < 0 or c >= q for c in poly):
            raise DegreeMismatch(f"coefficients must lie in [0, {q})")

        self.q = q
        self.n = n
        self.poly = poly
        self.order = order
        self.group_order = order - 1
        self._poly_low = self.pack_coords(poly[:n])

        # antilog[e] = packed coordinates of gamma^e; log[packed] = e.
        antilog = [0] * self.group_order
        log = [-1] * order
        val = 1  # packed coords of 1
        for e in range(self.group_order):
            if log[val] != -1:
                raise NotPrimitive(
                    f"{poly_str(poly)} is not primitive over F_{q} "
                    f"(x has order {e})")
            antilog[e] = val
            log[val] = e
            val = self._mul_by_x(val)
        if val != 1:
            raise NotPrimitive(f"{poly_str(poly)} is not primitive over F_{q}")
        self.antilog = antilog
        self.log = log
        self._hash = hash((q, n, poly))

    def _mul_by_x(self, packed: int) -> int:
        """Multiply a packed coordinate vector by x, reducing mod poly.

        Scaling by q shifts the digits up one place; the digit pushed out,
        top, stands for top * x^n = -top * (p_0 + ... + p_{n-1} x^{n-1}).
        """
        top, rest = divmod(packed * self.q, self.order)
        return self.coord_add(rest, self.coord_scale(self._poly_low, -top % self.q))

    # -- coordinate packing ------------------------------------------------

    def pack_coords(self, digits) -> int:
        q = self.q
        val = 0
        for d in reversed(list(digits)):
            val = val * q + d
        return val

    def unpack_coords(self, packed: int) -> tuple:
        q = self.q
        out = []
        for _ in range(self.n):
            packed, d = divmod(packed, q)
            out.append(d)
        return tuple(out)

    def coord_add(self, a: int, b: int) -> int:
        """Add two packed coordinate vectors."""
        if self.q == 2:
            return a ^ b
        return self.pack_coords(
            (x + y) % self.q
            for x, y in zip(self.unpack_coords(a), self.unpack_coords(b)))

    def coord_scale(self, a: int, s: int) -> int:
        if self.q == 2:
            return a if s & 1 else 0
        return self.pack_coords((x * s) % self.q for x in self.unpack_coords(a))

    @cached_property
    def zech(self) -> list:
        """zech[i] = log(1 + gamma^i), the Zech logarithm; -1 where 1 + gamma^i = 0.

        gamma^a + gamma^b = gamma^(b + zech[a - b]) whenever the sum is not
        zero, so one lookup adds two elements given by their exponents.
        Adding 1 to a packed vector changes only its digit 0.
        """
        q, log = self.q, self.log
        return [log[a - a % q + (a + 1) % q] for a in self.antilog]

    @cached_property
    def exp_bits(self) -> dict:
        """exp_bits[v] = 1 << log[v], the bit of a nonzero packed vector v in
        a bitset of exponents.

        Filled on first lookup of each vector, so it holds only the vectors
        looked up, not one int per field element.
        """
        return _ExpBits(self.log)

    # -- dot-product hyperplanes ------------------------------------------

    @cached_property
    def _trace_form(self) -> tuple:
        """(zeros, dual_log) for the trace form Tr(x) = x + x^q + ... + x^(q^(n-1)).

        zeros is the bitset of exponents e with Tr(gamma^e) = 0.  dual_log[r],
        for a packed vector r != 0, is the exponent s with r . x = Tr(gamma^s x)
        for every x; each linear functional is x -> Tr(a x) for exactly one a.
        """
        q, n, N, antilog = self.q, self.n, self.group_order, self.antilog
        # t[j] = Tr(gamma^j): the first n as sums of Frobenius conjugates, the
        # rest from gamma^n = -(p_0 + p_1 gamma + ... + p_{n-1} gamma^{n-1})
        t = []
        for j in range(n):
            acc = 0
            for i in range(n):
                acc = self.coord_add(acc, antilog[j * q ** i % N])
            t.append(acc)
        taps = [(i, -c % q) for i, c in enumerate(self.poly[:n]) if c]
        for j in range(N - n):
            t.append(sum(c * t[j + i] for i, c in taps) % q)
        zeros = int("".join("0" if v else "1" for v in reversed(t)), 2)
        # x -> Tr(gamma^s x) has coefficient vector (t[s], ..., t[s+n-1])
        dual_log = array("l", [0]) * self.order
        window, top = self.pack_coords(t[:n]), q ** (n - 1)
        for s in range(N):
            dual_log[window] = s
            window = window // q + t[(s + n) % N] * top
        return zeros, dual_log

    def perp_mask(self, r: int) -> int:
        """Bitset of the exponents e with antilog[e] . r = 0 (mod q).

        This is the hyperplane orthogonal to the packed vector r under the
        coordinate dot product, and a rotation of the trace-0 bitset.
        """
        N = self.group_order
        full = (1 << N) - 1
        if r == 0:
            return full
        zeros, dual_log = self._trace_form
        # r . gamma^e = Tr(gamma^(s+e)): rotate zeros right by s
        s = dual_log[r]
        return ((zeros >> s) | (zeros << (N - s))) & full

    @cached_property
    def perp_masks(self):
        """perp_mask(antilog[e mod (q^n-1)]) for each exponent e < 2(q^n-1).

        Indexed by exponent and doubled, so that the masks of the exponents
        b, b+1, ..., b+D-1 are one slice for any b < q^n-1 and D <= q^n-1;
        both halves hold the same ints.  None above PERP_TABLE_MAX_ORDER.
        """
        if self.order > PERP_TABLE_MAX_ORDER:
            return None
        masks = [self.perp_mask(r) for r in self.antilog]
        return masks + masks

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.q == other.q and self.n == other.n
                and self.poly == other.poly)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.q}, n={self.n}, poly={poly_str(self.poly)})"


def make_field(q: int, n: int, poly=None) -> FieldSpec:
    """Build and validate a FieldSpec; poly defaults to the built-in table."""
    _field_order(q, n)
    if poly is None:
        poly = default_poly(q, n)
    elif isinstance(poly, str):
        poly = parse_poly(poly, q, n)
    return FieldSpec(q, n, tuple(poly))
