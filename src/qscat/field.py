"""Arithmetic in GF(2^e) for the tower F_q < F_{q^2} < F_{q^6}, q = 2^h.

A field is named by h alone (and optionally its modulus): its degree is
e = 6h, never a setting of its own.

Field elements are plain ints: bit k is the coefficient of x^k in the
polynomial representative (constant term first).  A `BinaryField` keeps
exp/log tables (degree <= 20) and the Frobenius column images at every q.
Scalar callers call its methods on raw ints; numpy batches call its
`mul_array`, a gather on views of the same tables, or the carryless
`poly_mulmod_array` where there are none (GF(2^30)).  That product also
builds the GF(2^18) exp table by doubling (exp[n:2n] = g^n * exp[0:n]).
numpy loads on first use, so the q = 2 set-up (GF(64), U_s) never
imports it.

`elem_bits` writes z over the F_2-basis {s_i x^j}, s_i in `fq_basis`, so
bits j*h .. j*h + h - 1 are its F_q-coordinate j over {1, x, ..., x^5};
`bits_elem` inverts it (both the identity at h = 1).
"""

from array import array
from functools import lru_cache

from .errors import (
    ConfigError,
    DegreeMismatch,
    EvenH,
    InvariantViolation,
    ReducibleModulus,
    ZeroInverse,
)
from . import gf2

# defaults per degree; any user-supplied irreducible is accepted too.
# 6:  x^6+x^4+x^3+x+1      18: x^18+x^5+x^2+x+1     30: x^30+x^6+x^4+x+1
DEFAULT_MODULI = {6: 0x5B, 18: 0x40027, 30: 0x40000053}

_TABLE_LIMIT = 20  # build exp/log tables up to this degree
_WALK = 64  # exp entries taken one poly_mulmod at a time: all 63 of GF(64)


def poly_degree(p):
    return p.bit_length() - 1


def poly_mulmod(a, b, mod):
    """Carryless multiply then reduce modulo `mod` over GF(2)."""
    top = 1 << (mod.bit_length() - 1)
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
        if b & top:
            b ^= mod
    return r


def poly_mulmod_array(a, b, mod):
    """Elementwise poly_mulmod of two broadcastable int64 arrays.

    A carryless shift-xor product whose bits above e = deg(mod) are
    folded back with x^e = mod - x^e; the 2e - 1 product bits must fit
    in an int64, so GF(2^42) and up are a ConfigError.
    """
    import numpy as np

    e = poly_degree(mod)
    if 2 * e - 1 > 63:
        raise ConfigError("numpy GF(2^%d) products do not fit in an int64" % e)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    prod = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    for i in range(e):
        prod ^= (a << i) & -((b >> i) & 1)
    fold = [j for j in range(e) if mod >> j & 1]
    high = prod >> e
    while high.any():
        prod &= (1 << e) - 1
        for j in fold:
            prod ^= high << j
        high = prod >> e
    return prod


def nibble_hex(v, width):
    """Little-endian nibble hex of `width` chars: the first covers bits 0-3."""
    return "".join("%x" % ((v >> (4 * k)) & 15) for k in range(width))


def from_nibble_hex(s):
    """The int that nibble_hex writes as `s`; ValueError on a bad digit."""
    return sum(int(ch, 16) << (4 * k) for k, ch in enumerate(s))


def _doubled_tables(walk, g, mod):
    """(exp, log) C-int arrays of GF(2^e)^* from its first powers of g.

    exp[k] = g^k for k < 2^e - 1 grows from `walk` by doubling,
    exp[m:2m] = g^m * exp[0:m]; log is one scatter, log[exp[k]] = k.
    """
    import numpy as np

    order = 1 << poly_degree(mod)
    n = order - 1
    exp = np.empty(n, dtype=np.int64)
    m = len(walk)
    exp[:m] = walk
    while m < n:
        gm = poly_mulmod(g, int(exp[m - 1]), mod)  # g^m
        take = min(m, n - m)
        exp[m : m + take] = poly_mulmod_array(exp[:take], gm, mod)
        m += take
    exp = exp.astype(np.intc)
    log = np.zeros(order, dtype=np.intc)
    log[exp] = np.arange(n, dtype=np.intc)
    tables = array("i"), array("i")
    for table, values in zip(tables, (exp, log)):
        table.frombytes(memoryview(values).cast("B"))
    return tables


def poly_gcd(a, b):
    while b:
        while a and poly_degree(a) >= poly_degree(b):
            a ^= b << (poly_degree(a) - poly_degree(b))
        a, b = b, a
    return a


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def poly_is_irreducible(f):
    """Rabin test: x^(2^e) = x mod f and gcd(x^(2^(e/p)) - x, f) = 1."""
    e = poly_degree(f)
    if e < 1 or not f & 1:
        return False
    frob_chain = {}
    t = 2  # the polynomial x
    for i in range(1, e + 1):
        t = poly_mulmod(t, t, f)
        frob_chain[i] = t
    if frob_chain[e] != 2:
        return False
    for p in _prime_factors(e):
        if poly_gcd(frob_chain[e // p] ^ 2, f) != 1:
            return False
    return True


def _span_elements(basis):
    """Every GF(2)-combination of `basis`: bit i of an element's index
    selects basis[i]."""
    elems = [0]
    for s in basis:
        elems += [v ^ s for v in elems]
    return elems


class BinaryField:
    """GF(2^e), e = 6h, named by the odd h (q = 2^h) and an optional
    irreducible modulus of degree e (DEFAULT_MODULI[e] when omitted)."""

    def __init__(self, h_exp, modulus=None):
        if h_exp % 2 == 0 or h_exp < 1:
            raise EvenH("h must be a positive odd integer, got %d" % h_exp)
        e = 6 * h_exp
        if modulus is None:
            modulus = DEFAULT_MODULI.get(e)
            if modulus is None:
                raise DegreeMismatch("no default modulus for degree %d" % e)
        if poly_degree(modulus) != e:
            raise DegreeMismatch(
                "modulus degree %d, expected %d" % (poly_degree(modulus), e)
            )
        if not poly_is_irreducible(modulus):
            raise ReducibleModulus("0x%x is reducible over GF(2)" % modulus)

        self.e = e
        self.h = h_exp
        self.m = 6
        self.modulus = modulus
        self.q = 1 << h_exp
        self.order = 1 << e  # field size
        self.mult_order = self.order - 1

        self._exp = None
        self._log = None
        if e <= _TABLE_LIMIT:
            self._build_tables()
        self._build_frobenius()
        self._build_fq_basis()
        self._trace_kernel = None
        self._subfield_elems = {}

    # -- construction helpers -------------------------------------------

    def _find_generator(self):
        n = self.mult_order
        primes = _prime_factors(n)
        cand = 2
        while True:
            if all(self._pow_raw(cand, n // p) != 1 for p in primes):
                return cand
            cand += 1

    def _pow_raw(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = poly_mulmod(r, a, self.modulus)
            a = poly_mulmod(a, a, self.modulus)
            n >>= 1
        return r

    def _build_tables(self):
        # C-int arrays, not lists: 3 MB instead of ~30 MB at GF(2^18), and
        # mul_array views them without a copy
        n = self.mult_order
        g = self._find_generator()
        walk = array("i", [1])
        for _ in range(min(n, _WALK) - 1):
            # the small generator first: poly_mulmod loops over its bits
            walk.append(poly_mulmod(g, walk[-1], self.modulus))
        if n > _WALK:
            exp, log = _doubled_tables(walk, g, self.modulus)
        else:
            exp, log = walk, array("i", [0]) * self.order
            for k, v in enumerate(exp):
                log[v] = k
        exp.extend(exp)  # exp[k + n] = exp[k]
        self._exp = exp
        self._log = log

    def _build_frobenius(self):
        e = self.e
        sq_cols = [poly_mulmod(1 << b, 1 << b, self.modulus) for b in range(e)]
        frob1 = sq_cols
        for _ in range(self.h - 1):
            frob1 = [gf2.apply_cols(sq_cols, c) for c in frob1]
        cols = [[1 << b for b in range(e)]]  # identity
        for _ in range(5):
            cols.append([gf2.apply_cols(frob1, c) for c in cols[-1]])
        self._frob_cols = cols

    def _build_fq_basis(self):
        e = self.e
        # F_q = kernel of z -> z^q + z
        fc = self._frob_cols[1]
        cols = [fc[b] ^ (1 << b) for b in range(e)]
        basis = gf2.left_kernel_combos(cols, e)
        if len(basis) != self.h:
            raise InvariantViolation(
                "F_q has F_2-dimension %d, expected h = %d" % (len(basis), self.h)
            )
        _, basis, _ = gf2.rref_bits(basis, e)
        self.fq_basis = tuple(basis)
        # GF(2)-basis {s_i * x^j} of the whole field; column t = j*h + i
        bcols = [self.mul(s, 1 << j) for j in range(6) for s in self.fq_basis]
        self.f2_basis = tuple(bcols)
        self._coord_cols = gf2.inv_cols(bcols, e)
        self._bits_identity = bcols == [1 << t for t in range(e)]
        elems = _span_elements(self.fq_basis)
        self._fq_of_mask = tuple(elems)  # bit i of the index selects fq_basis[i]
        self.one_bits = elems.index(1)  # 1 written over fq_basis
        self.fq_elements = tuple(sorted(elems))

    # -- arithmetic ------------------------------------------------------

    def mul(self, a, b):
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return poly_mulmod(a, b, self.modulus)

    def mul_array(self, a, b):
        """Elementwise product of two broadcastable integer arrays, int64.

        With exp/log tables (e <= 20) a gather on numpy views of them (no
        copy); without them (GF(2^30)) poly_mulmod_array.
        """
        if self._exp is None:
            return poly_mulmod_array(a, b, self.modulus)
        import numpy as np

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        exp = np.frombuffer(self._exp, dtype=np.intc)
        log = np.frombuffer(self._log, dtype=np.intc)
        return np.where((a != 0) & (b != 0), exp[log[a] + log[b]], np.int64(0))

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[self.mult_order - self._log[a]]
        return self._pow_raw(a, self.mult_order - 1)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self._exp is not None and a != 0:
            return self._exp[(self._log[a] * n) % self.mult_order]
        return self._pow_raw(a, n)

    def frob(self, a, i=1):
        """a^(q^i); the Galois group is cyclic of order 6."""
        return gf2.apply_cols(self._frob_cols[i % 6], a)

    def rel_trace(self, a):
        """Tr_{q^6/q^2}(a) = a + a^(q^2) + a^(q^4), onto F_{q^2}."""
        return a ^ self.frob(a, 2) ^ self.frob(a, 4)

    def in_subfield(self, a, d):
        """Membership in F_{q^d} decided by a^(q^d) == a."""
        return self.frob(a, d) == a

    def trace_kernel_basis(self):
        """F_q-basis (t1,t2,t3,t4) of T = ker Tr_{q^6/q^2}."""
        if self._trace_kernel is not None:
            return self._trace_kernel
        e = self.e
        cols = [
            (1 << b) ^ self._frob_cols[2][b] ^ self._frob_cols[4][b]
            for b in range(e)
        ]
        kernel = gf2.left_kernel_combos(cols, e)
        if len(kernel) != 4 * self.h:
            raise InvariantViolation(
                "trace kernel has F_2-dimension %d, expected %d"
                % (len(kernel), 4 * self.h)
            )
        _, kernel, _ = gf2.rref_bits(kernel, e)
        basis = []
        span_rows = []
        for t in kernel:
            cand = span_rows + [self.mul(s, t) for s in self.fq_basis]
            if gf2.rank_bits(cand) == len(cand):
                span_rows = cand
                basis.append(t)
                if len(basis) == 4:
                    break
        if len(basis) != 4:
            raise InvariantViolation(
                "trace kernel has F_q-dimension %d, expected 4" % len(basis)
            )
        self._trace_kernel = tuple(basis)
        return self._trace_kernel

    def subfield_elements(self, d):
        """All elements of F_{q^d} (small d only)."""
        if d in self._subfield_elems:
            return self._subfield_elems[d]
        fc = self._frob_cols[d % 6]
        cols = [fc[b] ^ (1 << b) for b in range(self.e)]
        out = tuple(sorted(_span_elements(gf2.left_kernel_combos(cols, self.e))))
        self._subfield_elems[d] = out
        return out

    # -- coordinates -----------------------------------------------------

    def elem_bits(self, z):
        """e-bit coordinate vector of z over the basis {s_i x^j}.

        Bit j*h + i is the coefficient of s_i * x^j; for h = 1 this is
        the identity on the int representation.
        """
        if self._bits_identity:
            return z
        return gf2.apply_cols(self._coord_cols, z)

    def bits_elem(self, bits):
        """The element whose coordinate vector over {s_i x^j} is `bits`:
        the inverse of elem_bits."""
        if self._bits_identity:
            return bits
        return gf2.apply_cols(self.f2_basis, bits)

    def fq_coords(self, z):
        """The 6 F_q-coordinates of z over the basis {1, x, ..., x^5}."""
        bits, h, mask = self.elem_bits(z), self.h, self.q - 1
        return tuple(self._fq_of_mask[(bits >> (j * h)) & mask] for j in range(6))

    # -- wire format -----------------------------------------------------

    @property
    def hex_width(self):
        return (self.e + 3) // 4

    def to_hex(self, a):
        return nibble_hex(a, self.hex_width)

    def from_hex(self, s):
        if len(s) != self.hex_width:
            raise ValueError(
                "expected %d hex chars, got %d" % (self.hex_width, len(s))
            )
        v = from_nibble_hex(s)
        if v >> self.e:
            raise ValueError("element out of range for degree %d" % self.e)
        return v

    def modulus_hex(self):
        return nibble_hex(self.modulus, (self.e + 4) // 4)

    # -- misc --------------------------------------------------------------

    def random_element(self, rng):
        return rng.randbits(self.e)

    def same_as(self, other):
        return self.modulus == other.modulus and self.h == other.h

    def __repr__(self):
        return "BinaryField(h=%d, modulus=0x%x)" % (self.h, self.modulus)


@lru_cache(maxsize=None)
def default_field(h_exp):
    """The tower field F_{q^6}, q = 2^h, with the shipped default modulus."""
    return BinaryField(h_exp)
