import numpy as np
import pytest

from vecproc.reports import tail_check
from vecproc.rng import BLOCK_SIZE


def test_tail_check_counts_finite_statistics():
    rep = tail_check(lambda rng, size: np.arange(size, dtype=float),
                     [2.0, 5.0], [0.5, 1.0], [1.0, 1.0], 10, 1, 0)
    assert list(rep.freqs) == [0.8, 0.5]
    assert rep.all_ok


def nan_in_block(block):
    """A statistic of zeros with one NaN in block `block`."""
    def stat(rng, size):
        out = np.zeros(size)
        if size == (BLOCK_SIZE if block == 0 else 5):
            out[size // 2] = np.nan
        return out
    return stat


@pytest.mark.parametrize("stat", [
    lambda rng, size: np.full(size, np.nan),
    nan_in_block(0),
    nan_in_block(1),
], ids=["all", "first block", "last block"])
def test_a_nan_statistic_fails_every_row(stat):
    # bounds above 1 would pass even if every NaN counted as an exceedance
    rep = tail_check(stat, [0.5, 1.0], [0.5, 1.0], [2.0, 1.2],
                     BLOCK_SIZE + 5, 1, 0)
    assert np.all(np.isnan(rep.freqs))
    assert not np.any(rep.ok)
    assert not rep.all_ok
