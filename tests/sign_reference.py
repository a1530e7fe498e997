"""The one-shot sign draw that the tiled and chunked sign paths are tested
against."""

import numpy as np

from vecproc.rng import sign_bytes, unpack_signs


def rademacher_signs(gen, shape):
    """Independent +-1.0 float64 signs of the given shape: N signs are
    unpack_signs(sign_bytes(gen, N), 0, N), so they consume the stream as
    sign_bytes does."""
    count = int(np.prod(shape, dtype=np.int64))
    return unpack_signs(sign_bytes(gen, count), 0, count).reshape(shape)
