import numpy as np
import pytest

from lifshitzlab import anderson as am
from lifshitzlab.density import DensitySpec
from lifshitzlab.rng import substream


def first_draws(rng):
    return rng.random(4).tolist()


@pytest.mark.parametrize("seed, index", [(1.7, 0), (1.0, 0), (1, 0.5), (np.float64(2.0), 0),
                                         (1, np.True_), ("1", 0), (None, 0)])
def test_substream_rejects_non_integer_seed_and_index(seed, index):
    # int() would read 1.7 as seed 1 and 0.5 as index 0
    with pytest.raises(ValueError, match="must be integers"):
        substream(seed, "x", index)


def test_substream_reads_python_and_numpy_integers():
    expected = first_draws(substream(3, "x", 2))
    assert first_draws(substream(np.int64(3), "x", np.int32(2))) == expected
    assert first_draws(substream(np.uint8(3), "x", np.int16(2))) == expected
    # a Python bool is an int: True reads as 1, as operator.index has it
    assert first_draws(substream(True, "x", False)) == first_draws(substream(1, "x", 0))
    assert first_draws(substream(4, "x", 2)) != expected


def test_sample_potential_rejects_fractional_seed():
    box = am.Box(3)
    with pytest.raises(ValueError, match=r"seed 2.9 and index 0 must be integers"):
        am.sample_potential(box, DensitySpec(), seed=2.9, index=0)
    with pytest.raises(ValueError, match=r"seed 2 and index 0.0 must be integers"):
        am.sample_potential(box, DensitySpec(), seed=2, index=0.0)
    np.testing.assert_array_equal(am.sample_potential(box, DensitySpec(), np.int64(2), 0),
                                  am.sample_potential(box, DensitySpec(), 2, 0))
