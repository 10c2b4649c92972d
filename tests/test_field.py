import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from qscat.errors import (
    DegreeMismatch,
    EvenH,
    ReducibleModulus,
    ZeroInverse,
)
from qscat.field import (
    BinaryField,
    DEFAULT_MODULI,
    default_field,
    poly_is_irreducible,
    poly_mulmod,
)
from qscat.rng import XorShift64Star

ROOT = Path(__file__).resolve().parents[1]
MOD6 = 0x5B  # x^6 + x^4 + x^3 + x + 1


def brute_force_irreducible(f):
    """Factor search over all divisors of degree <= deg(f)/2."""
    deg = f.bit_length() - 1
    for d in range(1, deg // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            # polynomial long division of f by g over GF(2)
            rem = f
            while rem and rem.bit_length() >= g.bit_length():
                rem ^= g << (rem.bit_length() - g.bit_length())
            if rem == 0:
                return False
    return True


def schoolbook_mul(a, b, mod):
    """Carryless multiply then long-divide; independent of field tables."""
    prod = 0
    i = 0
    while a >> i:
        if (a >> i) & 1:
            prod ^= b << i
        i += 1
    while prod and prod.bit_length() >= mod.bit_length():
        prod ^= mod << (prod.bit_length() - mod.bit_length())
    return prod


def test_make_field_accepts_default_modulus():
    f = BinaryField(1, MOD6)
    assert f.e == 6 and f.q == 2
    assert brute_force_irreducible(MOD6)


def test_make_field_rejects_reducible():
    with pytest.raises(ReducibleModulus):
        BinaryField(1, (1 << 6) | (1 << 2))  # x^6 + x^2 = x^2(x^4 + 1)
    assert not brute_force_irreducible((1 << 6) | (1 << 2))


def test_make_field_rejects_even_h():
    with pytest.raises(EvenH):
        BinaryField(2)


def test_make_field_rejects_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        BinaryField(1, (1 << 12) | (1 << 3) | 1)  # x^12 + x^3 + 1 for h = 1


def test_default_moduli_all_irreducible():
    for deg, mod in DEFAULT_MODULI.items():
        assert mod.bit_length() - 1 == deg
        assert poly_is_irreducible(mod)
    # cross-check the Rabin test against the factor-search oracle
    assert poly_is_irreducible(MOD6) == brute_force_irreducible(MOD6)
    for f in range(1 << 6, 1 << 7):
        assert poly_is_irreducible(f) == brute_force_irreducible(f), f


def test_char2_addition(F):
    """XOR of representatives is the field's addition: a + a = 0, and
    multiplication distributes over it."""
    rng = XorShift64Star(1)
    for _ in range(100):
        a, b, c = (F.random_element(rng) for _ in range(3))
        assert a ^ a == 0
        assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)


def test_stated_reduction_example(F):
    # x^5 * x reduces to x^4 + x^3 + x + 1 modulo x^6 + x^4 + x^3 + x + 1
    assert F.mul(1 << 5, 1 << 1) == 0b011011


def test_mul_against_schoolbook_oracle(F):
    rng = XorShift64Star(2)
    for _ in range(10_000):
        a = F.random_element(rng)
        b = F.random_element(rng)
        assert F.mul(a, b) == schoolbook_mul(a, b, F.modulus)


def test_mul_against_schoolbook_oracle_q8(F8):
    rng = XorShift64Star(3)
    for _ in range(2_000):
        a = F8.random_element(rng)
        b = F8.random_element(rng)
        assert F8.mul(a, b) == schoolbook_mul(a, b, F8.modulus)


def test_gf2_18_tables(F8):
    """The compact exp/log tables of GF(2^18): exp steps by the generator
    g = exp[1] (checked on a stride, with g as the second operand), and
    log o exp is the identity on every exponent, so exp runs through all
    2^18 - 1 nonzero elements."""
    n = F8.mult_order
    exp, log = F8._exp, F8._log
    assert isinstance(exp, array) and isinstance(log, array)
    assert len(exp) == 2 * n and len(log) == F8.order
    g = exp[1]
    for k in range(0, n, 1021):
        assert exp[k + 1] == poly_mulmod(exp[k], g, F8.modulus)
        assert exp[k + n] == exp[k]
    assert exp[0] == 1 and exp[n] == 1
    assert all(log[exp[k]] == k for k in range(n))


def scalar_tables(F):
    """exp/log lists from a one-step-at-a-time poly_mulmod walk."""
    n, g = F.mult_order, F._find_generator()
    exp, log = [0] * (2 * n), [0] * F.order
    v = 1
    for k in range(n):
        exp[k] = exp[k + n] = v
        log[v] = k
        v = poly_mulmod(g, v, F.modulus)
    return exp, log


@pytest.mark.parametrize("degree,h,modulus", [
    pytest.param(6, 1, None, id="gf64-default"),
    pytest.param(6, 1, 0b1000011, id="gf64-x6+x+1"),
    pytest.param(18, 3, None, id="gf2_18-default"),
    pytest.param(18, 3, 0x40081, id="gf2_18-x18+x7+1"),
])
def test_tables_equal_the_scalar_walk(degree, h, modulus):
    """The exp/log tables (walked for GF(64), doubled for GF(2^18)) equal
    the scalar walk entry for entry, for two moduli of each degree."""
    F = BinaryField(h, modulus)
    assert F.e == degree
    exp, log = scalar_tables(F)
    assert F._exp.typecode == F._log.typecode == "i"
    assert F._exp.tolist() == exp
    assert F._log.tolist() == log


def test_q2_setup_does_not_load_numpy():
    """GF(64), U_s and scalar draws stay pure Python: numpy (~0.15 s to
    import) loads only with the first batch, block draw or big table."""
    code = (
        "import sys; from qscat.field import default_field; "
        "from qscat.rng import XorShift64Star; from qscat.scatter import build_Us; "
        "build_Us(default_field(1), 1); XorShift64Star(1).randrange(64); "
        "print('numpy' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_inverse(F):
    rng = XorShift64Star(4)
    for _ in range(200):
        a = F.random_element(rng) or 1
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroInverse):
        F.inv(0)


def test_frobenius_properties(F):
    rng = XorShift64Star(5)
    x = 1 << 1
    assert F.frob(x, 0) == x
    for _ in range(1000):
        a = F.random_element(rng)
        b = F.random_element(rng)
        assert F.frob(a, 6) == a
        assert F.frob(a ^ b, 3) == F.frob(a, 3) ^ F.frob(b, 3)
        assert F.frob(a, 1) == F.pow(a, F.q)
        assert F.frob(F.frob(a, 1), 2) == F.frob(a, 3)


def test_frobenius_q8(F8):
    rng = XorShift64Star(6)
    for _ in range(200):
        a = F8.random_element(rng)
        assert F8.frob(a, 6) == a
        assert F8.frob(a, 1) == F8.pow(a, 8)


def test_rel_trace(F):
    rng = XorShift64Star(7)
    assert F.rel_trace(0) == 0
    for _ in range(500):
        x = F.random_element(rng)
        t = F.rel_trace(x)
        assert t == x ^ F.frob(x, 2) ^ F.frob(x, 4)
        assert F.in_subfield(t, 2)  # lands in F_{q^2}
        # trace is invariant under the defining Frobenius
        assert F.rel_trace(F.frob(x, 2)) == t


def test_trace_kernel_basis(F):
    T = F.trace_kernel_basis()
    assert len(T) == 4
    span = [0]
    for t in T:
        span += [v ^ t for v in span]
    assert len(set(span)) == 16
    for v in span:
        assert F.rel_trace(v) == 0
    assert 0 in span and 1 not in span
    # Tr(1) = 1 + 1 + 1 = 1 in characteristic 2
    assert F.rel_trace(1) == 1
    # Frobenius permutes the kernel setwise
    for i in range(6):
        assert all(F.frob(v, i) in set(span) for v in span)
    # F_{q^2}-closed: dim over F_{q^2} is 2
    for w in F.subfield_elements(2):
        assert all(F.mul(w, v) in set(span) for v in span)


def test_trace_kernel_basis_q8(F8):
    T = F8.trace_kernel_basis()
    assert len(T) == 4
    for t in T:
        assert F8.rel_trace(t) == 0
    # F_q-independence via greedy bit rank of subfield multiples
    from qscat import gf2

    rows = [F8.mul(s, t) for t in T for s in F8.fq_basis]
    assert gf2.rank_bits(rows) == 12


def test_subfield_membership(F):
    assert len(F.subfield_elements(1)) == 2
    assert len(F.subfield_elements(2)) == 4
    assert len(F.subfield_elements(3)) == 8
    for z in F.subfield_elements(2):
        assert F.in_subfield(z, 2)


def test_fq_coords_roundtrip(F, F8):
    """bits_elem inverts elem_bits, and z = sum_j fq_coords(z)[j] x^j."""
    rng = XorShift64Star(8)
    for fld in (F, F8):
        for _ in range(300):
            z = fld.random_element(rng)
            assert fld.bits_elem(fld.elem_bits(z)) == z
            again = 0
            for j, c in enumerate(fld.fq_coords(z)):
                again ^= fld.mul(c, 1 << j)
            assert again == z
        for c in fld.fq_coords(fld.random_element(rng)):
            assert fld.in_subfield(c, 1)


def test_hex_wire_format(F, F8):
    rng = XorShift64Star(9)
    assert F.hex_width == 2
    assert F.to_hex(0) == "00"
    for fld in (F, F8):
        for _ in range(100):
            z = fld.random_element(rng)
            assert fld.from_hex(fld.to_hex(z)) == z
    with pytest.raises(ValueError):
        F.from_hex("f")  # wrong width


def test_degree30_tower_table_free_path():
    # q = 32 exceeds the exp/log table limit; arithmetic is polynomial-based
    f = default_field(5)
    assert f.q == 32 and f.e == 30
    rng = XorShift64Star(30)
    for _ in range(50):
        a = f.random_element(rng)
        b = f.random_element(rng)
        assert f.mul(a, b) == schoolbook_mul(a, b, f.modulus)
        assert f.frob(a, 6) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
    assert len(f.trace_kernel_basis()) == 4
    assert f._exp is None and f._log is None


def test_user_supplied_irreducible_accepted():
    # x^6 + x + 1 is a different irreducible; any such modulus is valid
    f = BinaryField(1, 0b1000011)
    rng = XorShift64Star(10)
    for _ in range(100):
        a = f.random_element(rng) or 1
        assert f.mul(a, f.inv(a)) == 1
        assert f.frob(a, 6) == a
