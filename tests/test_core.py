
import numpy as np
import pytest

from spikezero.core import LearningRateSchedule, RngStream, as_vector


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="one-dimensional"):
        as_vector([[1.0, 2.0]])


@pytest.mark.parametrize("k,expected", [(1, 0.1), (7, 0.1), (1000, 0.1)])
def test_constant_schedule(k, expected):
    assert LearningRateSchedule.constant(0.1).rate(k) == expected


def test_power_schedule():
    s = LearningRateSchedule.power_decay(1.0, 1.0)
    assert s.rate(4) == 0.25
    assert LearningRateSchedule.power_decay(1.0, 0.0).rate(9) == 1.0


def test_schedule_nonincreasing():
    s = LearningRateSchedule.power_decay(2.0, 0.7)
    rates = [s.rate(k) for k in range(1, 200)]
    assert all(a >= b > 0 for a, b in zip(rates, rates[1:]))


def test_schedule_rejects_k_zero():
    with pytest.raises(ValueError):
        LearningRateSchedule.constant(1.0).rate(0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        LearningRateSchedule.constant(-0.1)
    with pytest.raises(ValueError):
        LearningRateSchedule("power", 1.0, -1.0)
    with pytest.raises(ValueError):
        LearningRateSchedule("cosine", 1.0)
    # the degenerate frozen schedule is allowed as a control
    assert LearningRateSchedule.constant(0.0).rate(3) == 0.0


def test_rng_stream_bitwise_reproducible():
    a = RngStream(123, (4, 5)).generator().uniform(size=1000)
    b = RngStream(123, (4, 5)).generator().uniform(size=1000)
    np.testing.assert_array_equal(a, b)


def test_rng_substreams_differ():
    base = RngStream(9)
    x = base.substream(0).generator().uniform(size=100)
    y = base.substream(1).generator().uniform(size=100)
    assert not np.array_equal(x, y)


def test_rng_stream_int_id_normalized():
    assert RngStream(1, 3).stream == (3,)
    assert RngStream(1).substream(2, 7).stream == (2, 7)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1, (-2,))
