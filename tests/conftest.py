import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tgflow import build_basis, validate_params
from tgflow.spectral import norm_weights
from tgflow.trajectory import random_field, random_traj  # noqa: F401  (shared by the tests)


def sup_w(traj):
    """Largest W norm over the nodes of a trajectory, by one norm_weights reduction."""
    w = norm_weights(traj.basis, "W")
    return float(np.sqrt(np.max(np.sum(traj.coeffs ** 2 * w, axis=1))))


@pytest.fixture
def params():
    return validate_params(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4)


@pytest.fixture
def basis(params):
    return build_basis(4, params.alpha1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
