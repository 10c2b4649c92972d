"""Seeded xorshift64* generator.

All sampled verdicts are reproduced from a 64-bit seed; the generator is
fixed here (not Python's Mersenne twister) so certificates are stable
across interpreter versions and platforms.

`next_u64` is the scalar draw.  `draws` takes a block of masked draws
at numpy speed with the same output and end state: the state update is
a GF(2)-linear map T of the 64 state bits, so the states [n, 2n) are
T^n applied to the states [0, n), and the block grows by doubling.
numpy loads on the first block, so scalar users never import it.
"""

from functools import lru_cache

_MASK = (1 << 64) - 1
_SCRAMBLE = 0x2545F4914F6CDD1D


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class XorShift64Star:
    """xorshift64* stream; state seeded via splitmix64 (never zero)."""

    def __init__(self, seed):
        self.state = _splitmix64(seed & _MASK)
        if self.state == 0:
            self.state = 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _SCRAMBLE) & _MASK

    def draws(self, count, mask):
        """[next_u64() & mask for _ in range(count)] as an int64 array.

        Leaves `state` where that loop leaves it; mask < 2^63.
        """
        import numpy as np

        states = np.empty(count + 1, dtype=np.uint64)
        states[0] = self.state
        n, k = 1, 0
        while n <= count:
            take = min(n, count + 1 - n)
            states[n : n + take] = _apply(_jump_tables(k), states[:take])
            n, k = 2 * n, k + 1
        self.state = int(states[count])
        out = states[1:]
        out *= _SCRAMBLE  # uint64: wraps mod 2^64
        out &= mask
        return out.astype(np.int64)

    def randbits(self, k):
        out = 0
        got = 0
        while got < k:
            out |= self.next_u64() << got
            got += 64
        return out & ((1 << k) - 1)

    def randrange(self, n):
        # rejection sampling keeps the distribution exactly uniform
        k = max(1, (n - 1).bit_length())
        while True:
            v = self.randbits(k)
            if v < n:
                return v


def _apply(tables, x):
    """The GF(2) map whose byte-sliced tables are `tables`, on uint64 x.

    tables[j][b] is the image of the word with byte j equal to b and
    every other byte zero.
    """
    out = tables[0][x & 255]
    for j in range(1, 8):
        out ^= tables[j][(x >> 8 * j) & 255]
    return out


def _byte_tables(cols):
    """Byte-sliced [8, 256] tables of the map with column images `cols`."""
    import numpy as np

    from .gfbatch import subset_sums

    tables = subset_sums(np.asarray(cols, dtype=np.uint64).reshape(8, 8))
    tables.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _jump_tables(k):
    """Byte-sliced tables of T^(2^k), T the xorshift64* state update."""
    if k == 0:
        # column b of T is the state one next_u64() step after 1 << b
        probe = XorShift64Star(0)
        cols = []
        for b in range(64):
            probe.state = 1 << b
            probe.next_u64()
            cols.append(probe.state)
        return _byte_tables(cols)
    half = _jump_tables(k - 1)
    # the columns of T^(2^k) are T^(2^(k-1)) applied to its own columns
    units = [1 << i for i in range(8)]
    return _byte_tables(_apply(half, half[:, units].ravel()))
