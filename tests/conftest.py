import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tgflow import build_basis, validate_params
from tgflow.spectral import norm_weights
from tgflow.storage import FORMAT_VERSION, MAGIC
from tgflow.trajectory import random_field, random_traj  # noqa: F401  (shared by the tests)


def sup_w(traj):
    """Largest W norm over the nodes of a trajectory, by one norm_weights reduction."""
    w = norm_weights(traj.basis, "W")
    return float(np.sqrt(np.max(np.sum(traj.coeffs ** 2 * w, axis=1))))


def crafted_trajectory(path, max_mode, grid_size, alpha1, dt, n_steps=3, kind=0):
    """Write a trajectory file of zero coefficients under this header with a valid CRC."""
    header = struct.pack(
        "<IIIIB3xdd", FORMAT_VERSION, max_mode, grid_size, n_steps, kind, alpha1, dt
    )
    body = MAGIC + header + np.zeros((n_steps + 1) * max_mode ** 2, dtype="<f8").tobytes()
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return str(path)


@pytest.fixture
def params():
    return validate_params(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4)


@pytest.fixture
def basis(params):
    return build_basis(4, params.alpha1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
