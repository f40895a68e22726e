"""`numpy.random.default_rng(seed)` for an int seed >= 0, bit for bit, without
importing numpy.random: numpy's `SeedSequence` hash seeds PCG64 (XSL-RR 128/64;
O'Neill, HMC-CS-2014-0905), and `random()` and `integers(n)` turn its words
into values as numpy's `Generator` does. Only the k-means baselines use it.
"""

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _hasher(const: int, mult: int):
    """SeedSequence's word hash; each call advances the shared constant."""

    def hash_word(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hash_word


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def seed_words(seed: int, count: int) -> list[int]:
    """`SeedSequence(seed).generate_state(count)`: `count` uint32 words."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]  # a 4-word pool
    for src, dst in [(src, dst) for src in range(4) for dst in range(4) if src != dst]:
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in [(word, dst) for word in entropy[4:] for dst in range(4)]:
        pool[dst] = _mix(pool[dst], hashmix(word))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    return [draw(pool[i % 4]) for i in range(count)]


class PCG64:
    """The `random()` and `integers(n)` draws of `default_rng(seed)`."""

    def __init__(self, seed: int):
        w = seed_words(seed, 8)  # generate_state(4, uint64): little-endian halves
        v = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = (v[2] << 65 | v[3] << 1 | 1) & _M128
        self._state = self._inc + (v[0] << 64 | v[1])  # one step from 0, plus the seed
        self._next64()  # the second seeding step
        self._half = None  # upper half of the word `_next32` took the lower half of

    def _next64(self) -> int:
        state = self._state = (self._state * _MULT + self._inc) & _M128
        rot, x = state >> 122, (state >> 64 ^ state) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            x = self._next64()
            half, self._half = x & _M32, x >> 32
        return half

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """Uniform in [0, n), 1 <= n <= 2**63, by Lemire's multiply and reject
        on 32-bit draws up to n = 2**32 and on 64-bit words above."""
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        bits, draw = (32, self._next32) if n <= 2**32 else (64, self._next64)
        threshold, m = (1 << bits) % n, draw() * n
        while m & ((1 << bits) - 1) < threshold:
            m = draw() * n
        return m >> bits
