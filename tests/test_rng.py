import numpy as np
import pytest

from ginet.rng import SplitMix64, stream_floats


def scalar_floats(rng, shape):
    """The scalar stream floats() must reproduce: one next_u64 per value."""
    count = int(np.prod(shape))
    vals = [(rng.next_u64() >> 11) * 2.0**-53 for _ in range(count)]
    return np.array(vals, dtype=np.float64).reshape(shape)


def test_floats_bit_identical_to_scalar_stream():
    for seed in (0, 1, 7, 2**63 + 5, 2**64 - 1):
        for shape in ((), (0,), (1,), (5,), (3, 4), (2, 0, 3), (257,)):
            vec, ref = SplitMix64(seed), SplitMix64(seed)
            got, want = vec.floats(*shape), scalar_floats(ref, shape)
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.array_equal(got, want), (seed, shape)
            assert vec.state == ref.state
            assert [vec.next_u64() for _ in range(3)] == [ref.next_u64() for _ in range(3)]


def test_uniforms_bit_identical_to_scalar_uniform():
    for seed in (3, 11, 2**40):
        vec, ref = SplitMix64(seed), SplitMix64(seed)
        got = vec.uniforms(-2.0, 0.5, 4, 6)
        want = np.array([ref.uniform(-2.0, 0.5) for _ in range(24)]).reshape(4, 6)
        assert np.array_equal(got, want)
        assert vec.spawn("next").next_u64() == ref.spawn("next").next_u64()


def test_floats_rejects_negative_dimension():
    rng = SplitMix64(0)
    with pytest.raises(ValueError, match="negative"):
        rng.floats(2, -1)
    assert rng.state == 0


def test_stream_floats_rows_are_each_streams_floats():
    seeds = [0, 1, 7, 2**63 + 5, 2**64 - 1]
    for count in (0, 1, 6, 257):
        states = np.array(seeds, dtype=np.uint64)
        got = stream_floats(states, count)
        assert got.shape == (len(seeds), count) and got.dtype == np.float64
        for row, seed, state in zip(got, seeds, states.tolist()):
            ref = SplitMix64(seed)
            assert np.array_equal(row, ref.floats(count))
            assert state == ref.state
