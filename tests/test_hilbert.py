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


def einsum_sup_sign_norms(subscripts, signs, values):
    """The statistic as the norm complexity ("cn,knd->ckd") and the chained
    sign tail ("bn,tnd->btd") once contracted it."""
    sums = np.einsum(subscripts, signs, values) / values.shape[1]
    return hb.distances(sums, 0.0).max(axis=1)


@pytest.mark.parametrize("subscripts", ["cn,knd->ckd", "bn,tnd->btd"])
@pytest.mark.parametrize("d_y", [1, 3, 8])
def test_sup_sign_norms_matches_the_einsum_forms(subscripts, d_y):
    eps = np.finfo(float).eps
    for k in (1, 2, 7, 15):
        for n in (1, 5, 12, 16, 20):
            rng = np.random.default_rng([k, n, d_y])
            values = rng.standard_normal((k, n, d_y))
            signs = np.where(rng.random((300, n)) < 0.5, -1.0, 1.0)
            got = hb.sup_sign_norms(signs, values)
            ref = einsum_sup_sign_norms(subscripts, signs, values)
            if d_y == 8:
                assert np.array_equal(got, ref)
            # +-1 products are exact; two summation orders of n terms differ
            # by at most 2 (n - 1) eps sum_i |v_ij| per coordinate, so the
            # norms by 2 (n - 1) eps max_k sum_i ||v_ki|| / n, plus the
            # rounding of squares, sum and root (8 eps relative)
            spread = np.linalg.norm(values, axis=2).sum(axis=1).max() / n
            assert np.all(np.abs(got - ref)
                          <= 2 * (n - 1) * eps * spread + 8 * eps * ref)


@pytest.mark.parametrize("k", [1, 2, 10])
def test_sup_sign_norms_at_one_coordinate_is_the_absolute_value(k):
    # the ERM loss class: loss[:, :, None] flattens to the loss.T view
    rng = np.random.default_rng(k)
    for n in (1, 9, 40, 100):
        loss = np.minimum(np.abs(rng.standard_normal((k, n))), 1.0)
        signs = np.where(rng.random((2048, n)) < 0.5, -1.0, 1.0)
        assert np.array_equal(hb.sup_sign_norms(signs, loss[:, :, None]),
                              np.abs(signs @ loss.T / n).max(axis=1))
