import pytest

from qscat.rng import XorShift64Star

# the first 8 next_u64() outputs of seeds 0 and 1, recorded from the
# scalar generator; every golden sampled certificate rests on this stream
FIRST_OUTPUTS = {
    0: [
        0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD, 0xB3C638353C668C91,
        0xE073AFC0949195FC, 0x7F2F9E2EB34937F6, 0x6EF86054C4731F4F,
        0x410926D7BB410255, 0x0CF75540849D9C3B,
    ],
    1: [
        0x4B46A55DF3611B9B, 0xD7E1F1410E763EF4, 0x5F14EC66975F9B06,
        0x3B2C74FAD44D6CDB, 0xDBEA40D60760F050, 0x008645CA872E0CD2,
        0x203E7E0C16E8A44F, 0x966DF4A811C53476,
    ],
}

MASKS = [(1 << 6) - 1, (1 << 18) - 1, (1 << 30) - 1]


def scalar_draws(rng, count, mask):
    return [rng.next_u64() & mask for _ in range(count)]


@pytest.mark.parametrize("seed", sorted(FIRST_OUTPUTS))
def test_first_outputs_pinned(seed):
    rng = XorShift64Star(seed)
    assert [rng.next_u64() for _ in range(8)] == FIRST_OUTPUTS[seed]


@pytest.mark.parametrize("count", [1, 2, 3, 1000, 73_728])
@pytest.mark.parametrize("seed", [0, 1, 42, (1 << 64) - 1])
def test_draws_equal_scalar_stream(seed, count):
    ref = XorShift64Star(seed)
    raw = scalar_draws(ref, count, (1 << 64) - 1)
    for mask in MASKS:
        rng = XorShift64Star(seed)
        got = rng.draws(count, mask)
        assert got.dtype == "int64" and got.shape == (count,)
        assert got.tolist() == [x & mask for x in raw]
        assert rng.state == ref.state


def test_draws_of_nothing_keep_the_state():
    rng = XorShift64Star(3)
    state = rng.state
    assert rng.draws(0, MASKS[0]).tolist() == []
    assert rng.state == state


def test_mixed_scalar_and_block_draws():
    """Scalar draws, a block, then scalar draws again follow one stream."""
    ref, rng = XorShift64Star(9), XorShift64Star(9)
    expect = scalar_draws(ref, 5, MASKS[1])
    expect += scalar_draws(ref, 777, MASKS[0])
    expect += [ref.randrange(1000) for _ in range(5)]
    got = [rng.next_u64() & MASKS[1] for _ in range(5)]
    got += rng.draws(777, MASKS[0]).tolist()
    got += [rng.randrange(1000) for _ in range(5)]
    assert got == expect
    assert rng.state == ref.state
