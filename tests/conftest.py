import numpy as np
import pytest

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

# the dims on which leg permutations are checked against frozen references
_REFERENCE_DIMS = [(2, 2), (2, 3, 2), (3, 3), (4, 4), (2,) * 6]


@pytest.fixture
def pauli():
    return {"I": I2, "X": X, "Y": Y, "Z": Z}


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
