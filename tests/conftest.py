import numpy as np
import pytest

from mbkit.hypercomplex import _MUL_TERMS


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def table_mul():
    """Term-by-term unit-table product of two 8-tuples, the reference for tc_mul."""
    def mul(xa, xb):
        out = [0.0] * 8
        for i, j, s, k in _MUL_TERMS:
            out[k] += s * xa[i] * xb[j]
        return tuple(out)
    return mul
