import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecproc import hilbert as hb


def test_non_orthonormal_basis_rejected():
    with pytest.raises(ValueError):
        hb.OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gram_schmidt_rejects_dependent_columns():
    with pytest.raises(ValueError):
        hb.gram_schmidt(np.array([[1.0, 2.0], [2.0, 4.0]]))


@settings(max_examples=300, deadline=None)
@given(width=st.integers(0, 10),
       lead=st.lists(st.integers(1, 4), min_size=0, max_size=3),
       other=st.sampled_from(["full", "row", "zero"]),
       stride=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_distances_is_bitwise_linalg_norm(width, lead, other, stride, seed):
    rng = np.random.default_rng(seed)

    def draw(shape):
        # magnitudes over 16 decades, so every summation order rounds
        # differently; the last axis is strided when stride > 1
        full = shape[:-1] + (shape[-1] * stride,)
        vals = rng.standard_normal(full) * 10.0 ** rng.uniform(-8, 8, full)
        return vals[..., ::stride]

    a = draw(tuple(lead) + (width,))
    b = {"full": lambda: draw(tuple(lead) + (width,)),
         "row": lambda: draw((width,)),
         "zero": lambda: 0.0}[other]()
    want = np.linalg.norm(a - b, axis=-1)
    got = hb.distances(a, b)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
