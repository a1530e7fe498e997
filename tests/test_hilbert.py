import numpy as np
import pytest

from vecproc import hilbert as hb


def test_non_orthonormal_basis_rejected():
    with pytest.raises(ValueError):
        hb.OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gram_schmidt_rejects_dependent_columns():
    with pytest.raises(ValueError):
        hb.gram_schmidt(np.array([[1.0, 2.0], [2.0, 4.0]]))
