"""The slice of ``numpy.random.default_rng`` that scenario generation
draws from, in pure Python and equal to numpy's stream draw for draw.

``Generator(seed)`` mixes ``seed`` (an int or a list of ints) through
numpy's ``SeedSequence`` into a PCG64 state (O'Neill, "PCG", 2014:
128-bit LCG, XSL-RR output) and offers ``integers(low, high)``,
``random()`` and ``choice(seq)`` as numpy's ``Generator`` implements
them: 32-bit draws are buffered halves of a 64-bit output, and bounded
integers use Lemire's nearly-divisionless rejection.  Owning the
stream pins every generated case and golden digest against changes to
numpy's ``Generator`` methods, whose streams NEP 19 does not freeze,
and keeps numpy out of the governed stack's imports.
``tests/workloads/test_rng.py`` compares it with numpy.
"""

from __future__ import annotations

__all__ = ["Generator"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _words(seed) -> list:
    """``seed``'s 32-bit words, least significant first; a list
    concatenates its elements' words."""
    if isinstance(seed, list):
        return [word for part in seed for word in _words(part)]
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _seed_state(words: list) -> list:
    """``SeedSequence(words).generate_state(8, uint32)``: hash the
    entropy into a four-word pool, then draw eight words from it."""
    multiplier = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal multiplier
        value ^= multiplier
        multiplier = multiplier * 0x931E8875 & _MASK32
        value = value * multiplier & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    multiplier = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ multiplier
        multiplier = multiplier * 0x58F38DED & _MASK32
        value = value * multiplier & _MASK32
        state.append(value ^ value >> 16)
    return state


class Generator:
    """``numpy.random.default_rng(seed)``, for the three methods the
    scenario factories call."""

    def __init__(self, seed) -> None:
        words = _seed_state(_words(seed))
        s0, s1, s2, s3 = (
            words[2 * k] | words[2 * k + 1] << 32 for k in range(4)
        )
        # PCG64 seeding: one step from state 0 lands on the increment;
        # add the initial state and step once more.
        self._increment = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._state = (self._increment + (s0 << 64 | s1)) & _MASK128
        self._next64()
        # The high half of the last 64-bit output, owed to the next
        # 32-bit draw; ``random`` neither uses nor clears it.
        self._kept = None

    def _next64(self) -> int:
        state = (self._state * _PCG_MULTIPLIER + self._increment) \
            & _MASK128
        self._state = state
        value = (state >> 64 ^ state) & _MASK64
        rotation = state >> 122
        return (value >> rotation | value << (64 - rotation)) & _MASK64

    def _next32(self) -> int:
        if self._kept is not None:
            value, self._kept = self._kept, None
            return value
        value = self._next64()
        self._kept = value >> 32
        return value & _MASK32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int) -> int:
        """An int in ``[low, high)``; ranges wider than 2**32 raise."""
        span = high - low - 1
        if not 0 <= span <= _MASK32:
            raise ValueError(
                f"integers({low}, {high}) needs 0 < high - low <= 2**32"
            )
        if span == 0:
            return low
        if span == _MASK32:
            return low + self._next32()
        bound = span + 1
        product = self._next32() * bound
        if product & _MASK32 < bound:
            threshold = (_MASK32 - span) % bound
            while product & _MASK32 < threshold:
                product = self._next32() * bound
        return low + (product >> 32)

    def choice(self, seq):
        """One element of ``seq``, uniformly."""
        return seq[self.integers(0, len(seq))]
