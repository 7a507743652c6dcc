"""Spectral-Galerkin solver and verification suite for tracking control of
2D incompressible third grade fluid flows with Navier-slip boundaries."""

__version__ = "0.1.0"

from .params import ModelParams, validate_params
from .spectral import (
    Field,
    SpectralBasis,
    build_basis,
    invert_modified_stokes,
    norms,
    to_coeffs,
    to_grid,
    trilinear_b,
)
from .trajectory import Trajectory

__all__ = [
    "ModelParams",
    "validate_params",
    "Field",
    "SpectralBasis",
    "build_basis",
    "invert_modified_stokes",
    "norms",
    "to_coeffs",
    "to_grid",
    "trilinear_b",
    "Trajectory",
    "__version__",
]
