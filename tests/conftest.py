import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torusgas.kernels import TransitionKernel, validate_kernel
from torusgas.packed import TruncationParams


@pytest.fixture(scope="session")
def kernel_d3_asym():
    """The asymmetric d=3 test kernel used across the acceptance suite."""
    k = TransitionKernel(3, np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                      [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
                         np.array([1 / 2, 1 / 6, 1 / 12, 1 / 12, 1 / 12, 1 / 12]))
    return validate_kernel(k)


@pytest.fixture(scope="session")
def kernel_d2_asym():
    k = TransitionKernel(2, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                         np.array([0.4, 0.2, 0.3, 0.1]))
    return validate_kernel(k)


@pytest.fixture(scope="session")
def kernel_d1_nn():
    k = TransitionKernel(1, np.array([[1], [-1]]), np.array([0.5, 0.5]))
    return validate_kernel(k)


@pytest.fixture(scope="session")
def kernel_d2_spec():
    """The two-dimensional example kernel with drift (1/4, 1/4)."""
    k = TransitionKernel(2, np.array([[1, 0], [-1, 0], [0, 1]]),
                         np.array([0.5, 0.25, 0.25]))
    return validate_kernel(k)


@pytest.fixture(scope="session")
def kernel_d3_diag_tasep():
    """Diagonal TASEP: p(1, +-1, 0) = p(0, 0, +-1) = 1/4; drift (1/2, 0, 0),
    and the currents of directions 1 and 2 are both live."""
    k = TransitionKernel(3, np.array([[1, 1, 0], [1, -1, 0], [0, 0, 1], [0, 0, -1]]),
                         np.array([0.25] * 4))
    return validate_kernel(k)


@pytest.fixture(scope="session")
def heavy_diffusion(kernel_d3_asym):
    """Shared criterion-2/4/5 computation at truncation (3, 3).

    One full density-grid solve of the asymmetric d=3 kernel; reused by the
    acceptance tests and by the hydrodynamic comparison (criterion 9).
    """
    from torusgas.resolvent import compute_diffusion

    trunc = TruncationParams(radius=3, max_degree=3)
    alphas = [round(0.1 * i, 10) for i in range(1, 10)]
    vectors = {"e1": [1.0, 0.0, 0.0],
               "diag12": [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0]}
    return compute_diffusion(kernel_d3_asym, alphas, trunc,
                             mobility_vectors=vectors)
