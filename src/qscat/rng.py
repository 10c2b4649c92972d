"""Seeded xorshift64* generator.

All sampled verdicts are reproduced from a 64-bit seed; the generator is
fixed here (not Python's Mersenne twister) so certificates are stable
across interpreter versions and platforms.
"""

_MASK = (1 << 64) - 1


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
        return (x * 0x2545F4914F6CDD1D) & _MASK

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
