"""The pure-Python stream equals ``numpy.random.default_rng`` draw for
draw, on every method and range the scenario factories use and at the
edges of the 32-bit draw paths."""

import random

import numpy as np
import pytest

from repro.workloads.rng import Generator

#: Range widths: zero-width, small, and both sides of the 32-bit path
#: boundaries (2**32 - 1 takes a raw 32-bit draw, 2**32 the full one).
WIDTHS = (1, 2, 3, 5, 7, 100, 1_000, 2**31, 2**32 - 1, 2**32)
SEQUENCES = ((2, 4), ("static", "slack", "occupancy_pi"), tuple(range(13)))


def _seed(meta: random.Random):
    """An int seed (one or two 32-bit words) or a ``[seed, index]``
    pair, as the scenario factories and ``generate_scenario`` seed."""
    if meta.random() < 0.5:
        return meta.randrange(2**40)
    return [meta.randrange(2**40), meta.randrange(150)]


def test_stream_equals_numpy_over_mixed_calls():
    """120,000 calls in 3,000 streams: ``integers`` over every width
    from offsets -5..9, ``random`` interleaved so the buffered high
    half of a 32-bit draw must survive it, and ``choice``."""
    meta = random.Random(2004)
    calls = 0
    for _ in range(3_000):
        seed = _seed(meta)
        ours, numpys = Generator(seed), np.random.default_rng(seed)
        for _ in range(40):
            kind = meta.randrange(3)
            if kind == 0:
                low = meta.randrange(-5, 10)
                high = low + meta.choice(WIDTHS)
                got = ours.integers(low, high)
                want = numpys.integers(low, high)
            elif kind == 1:
                got, want = ours.random(), numpys.random()
            else:
                seq = meta.choice(SEQUENCES)
                got, want = ours.choice(seq), numpys.choice(seq)
            assert got == want, (seed, kind, got, want)
            calls += 1
    assert calls >= 100_000


@pytest.mark.parametrize("seed", [
    0, 7, 2**32, [2**32 - 1, 5], [11, 0], [0, 2**33, 5, 6, 7],
])
def test_seed_words_match_numpy(seed):
    """Zero, one- and two-word ints, and lists longer than the
    four-word pool mix their entropy as numpy's ``SeedSequence`` does
    (``2**32 - 1`` is one word, so ``5`` lands in the second)."""
    ours, numpys = Generator(seed), np.random.default_rng(seed)
    assert [ours.integers(0, 2**32) for _ in range(8)] == \
        [numpys.integers(0, 2**32) for _ in range(8)]


def test_zero_width_range_does_not_draw():
    drawn, fresh = Generator([11, 3]), Generator([11, 3])
    drawn.integers(0, 2**32 - 1)  # leaves a buffered high half
    fresh.integers(0, 2**32 - 1)
    assert drawn.integers(42, 43) == 42
    assert drawn.integers(0, 2**32 - 1) == fresh.integers(0, 2**32 - 1)
    assert drawn.choice(("only",)) == "only"
    assert drawn.random() == fresh.random()


def test_draws_are_python_values():
    """Scenarios hold the drawn values as they are, so their ``repr``
    and digests carry plain ints and strings."""
    rng = Generator(5)
    assert type(rng.choice(SEQUENCES[1])) is str
    assert type(rng.integers(0, 10)) is int
    assert type(rng.random()) is float


@pytest.mark.parametrize("seed", [-1, [3, -1]])
def test_negative_seed_raises(seed):
    with pytest.raises(ValueError):
        Generator(seed)
    with pytest.raises(ValueError):
        np.random.default_rng(seed)


@pytest.mark.parametrize("low, high", [(3, 3), (5, 2), (0, 2**32 + 1)])
def test_empty_and_wider_ranges_raise(low, high):
    with pytest.raises(ValueError):
        Generator(1).integers(low, high)
