"""Divergence-free trigonometric basis on the square and pseudo-spectral operators.

Domain and basis
----------------
The flow domain is the square D = [0, pi]^2 with free-slip (Navier) walls:
no penetration, y . eta = 0, and zero tangential stress, (eta . D(y)) . tau = 0.
Each basis velocity comes from a stream function psi_mn = sin(m x) sin(n y),

    h_mn = (d psi/dy, -d psi/dx) = s_mn (n sin(m x) cos(n y), -m cos(m x) sin(n y)),

so it is exactly divergence-free and satisfies both wall conditions on all four
edges.  The modes are eigenfunctions of the (vector) Laplacian with eigenvalue
lambda = m^2 + n^2, which makes every constant-coefficient operator used here
mode-diagonal.  The scale s_mn normalizes each mode to unit V-norm, where

    (u, z)_V = (u, z) + 2 alpha1 (Du, Dz),        D = symmetric gradient,
    (u, z)_W = (u, z)_V + (P v(u), P v(z)),       v(u) = u - alpha1 Lap u,

P being the Leray projection.  On a mode, v acts as multiplication by
D_mn = 1 + alpha1 lambda, hence (h, h)_W = mu (h, h)_V with mu = 2 + alpha1 lambda.

Grids and transforms
--------------------
All pointwise work happens on the even/odd periodic extension of the square to
[0, 2pi)^2, sampled on P x P points with P = 2 * grid_size.  Each mode is a
product of one sin/cos in x and one in y, so the basis stores only per-axis
tables: sin(k x_j) and cos(k x_j) for k = 1..M with their first and second
derivatives, each (M, P).  Three sum-factorised kernels work on them:

- synthesis: d_x^a d_y^b of a velocity component is X^T (C * amp) Y, two
  matrix products of the (M, M) coefficient matrix C with the tables of the
  component's parity (sin x cos for u1, cos x sin for u2).  Velocities,
  Jacobians and the strain partials of y . grad A are all synthesised, so no
  derivative is ever taken of grid data;
- projection (to_coeffs), the transpose of synthesis:
  c_i = (1 + alpha1 lam_i) (u, h_i)_{L2(D)} by grid quadrature;
- divergence projection (project_div): the coefficients of P div T by
  summation by parts, c_i = -(1 + alpha1 lam_i) quad(T : grad h_i).

Every quantity in the pipeline extends to a trigonometric polynomial on the
torus, and integrals over D of parity-matched products are exactly
(pi^2 / P^2) * sum over the extended grid.  Summation by parts is exact on the
grid for any tensor: the modes carry no content at the Nyquist wavenumber
P / 2, so pairing h_i with the spectral divergence of T equals minus pairing
grad h_i with T.  Content that no mode carries never reaches a coefficient,
so both projections are alias-free by construction.  For the cubic stress to be
alias-free, grid_size >= 2M + 2 is recommended; the default 4M matches that
comfortably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, UnknownKind
from .params import ModelParams

__all__ = [
    "SpectralBasis",
    "Field",
    "ConstitutiveTerms",
    "build_basis",
    "default_grid_size",
    "min_grid_size",
    "synthesize",
    "to_grid",
    "jacobian",
    "strain_partials",
    "to_coeffs",
    "project_div",
    "invert_modified_stokes",
    "apply_modified_stokes",
    "trilinear_b",
    "constitutive_terms",
    "norms",
]

NORM_KINDS = ("L2", "V", "W", "H1", "H2", "H3", "W14")


def min_grid_size(max_mode: int) -> int:
    """Smallest legal collocation resolution: the 2/3-rule bound ceil(3M/2)."""
    return math.ceil(1.5 * max_mode)


def default_grid_size(max_mode: int) -> int:
    """Default resolution 4M: alias-free for the cubic stress (needs >= 2M + 2)."""
    return 4 * max_mode


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Divergence-free free-slip basis truncated at max_mode per axis.

    modes, lam and mu are aligned arrays over the M^2 modes in lexicographic
    (m, n) order, so a coefficient vector reshaped to (M, M) is indexed by
    (m - 1, n - 1).  sin[d] / cos[d] hold the d-th x-derivative of sin(k x)
    / cos(k x), k = 1..M, on the P extended-grid points (P = 2 * grid_size);
    amp holds the (M, M) factors s_mn n and -s_mn m of the two velocity
    components.  These back synthesis and both projections.
    """

    max_mode: int
    alpha1: float
    grid_size: int
    modes: np.ndarray          # (n_modes, 2) int
    lam: np.ndarray            # (n_modes,) Stokes eigenvalue m^2 + n^2
    mu: np.ndarray             # (n_modes,) W/V eigenratio 2 + alpha1 lam
    vmult: np.ndarray          # (n_modes,) 1 + alpha1 lam, the action of v
    sin: np.ndarray = field(repr=False)   # (3, M, P) derivatives 0..2 of sin(k x_j)
    cos: np.ndarray = field(repr=False)   # (3, M, P) derivatives 0..2 of cos(k x_j)
    amp: np.ndarray = field(repr=False)   # (2, M, M) component factors of each mode

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def n_ext(self) -> int:
        """Points per axis of the extended periodic grid."""
        return 2 * self.grid_size

    @property
    def quad_weight(self) -> float:
        """Weight turning an extended-grid sum into an integral over [0, pi]^2."""
        return math.pi ** 2 / self.n_ext ** 2

    def compatible(self, other: "SpectralBasis") -> bool:
        return (
            self.max_mode == other.max_mode
            and self.grid_size == other.grid_size
            and self.alpha1 == other.alpha1
        )

    def quad(self, g: np.ndarray) -> float:
        """Integral over [0, pi]^2 of a parity-even scalar grid field."""
        return float(np.sum(g) * self.quad_weight)

    def pair_velocity(self, g: np.ndarray, w: np.ndarray) -> float:
        """L2 inner product over D of two (2, P, P) velocity grids."""
        return float(np.sum(g * w) * self.quad_weight)


@dataclass(frozen=True, eq=False)
class Field:
    """A divergence-free velocity as coefficients in a SpectralBasis.

    Coefficients refer to the unit-V-norm modes, so the V inner product of two
    fields is the plain dot product of their coefficient vectors.
    """

    coeffs: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeffs.shape != (self.basis.n_modes,):
            raise ShapeMismatch(
                f"expected {self.basis.n_modes} coefficients, got {self.coeffs.shape}"
            )

    def _check(self, other: "Field") -> None:
        if self.basis is not other.basis and not self.basis.compatible(other.basis):
            raise ShapeMismatch("fields live on incompatible bases")

    def __add__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.coeffs + other.coeffs, self.basis)

    def __sub__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.coeffs - other.coeffs, self.basis)

    def __mul__(self, a: float) -> "Field":
        return Field(self.coeffs * float(a), self.basis)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(-self.coeffs, self.basis)


@dataclass(frozen=True)
class ConstitutiveTerms:
    """Strain and stress quantities of a state y on the extended grid.

    a      : A(y) = grad y + (grad y)^T, shape (2, 2, P, P)
    a_sq   : |A|^2 pointwise
    s      : cubic stress beta |A|^2 A
    n      : alpha1 (y . grad A + J^T A + A J) + alpha2 A^2
    div_s  : Leray-projected divergence of s, as a Field
    div_n  : Leray-projected divergence of n, as a Field
    curl_v : scalar curl of the modified velocity v(y)
    """

    a: np.ndarray
    a_sq: np.ndarray
    s: np.ndarray
    n: np.ndarray
    div_s: Field
    div_n: Field
    curl_v: np.ndarray


def build_basis(max_mode: int, alpha1: float, grid_size: int | None = None) -> SpectralBasis:
    """Construct the basis with M^2 modes, 1 <= m, n <= max_mode.

    grid_size defaults to 4 * max_mode and must be at least ceil(3M/2).
    """
    if max_mode < 1:
        raise ValueError("max_mode must be >= 1")
    if alpha1 < 0:
        raise ValueError("alpha1 must be >= 0")
    if grid_size is None:
        grid_size = default_grid_size(max_mode)
    if grid_size < min_grid_size(max_mode):
        raise ValueError(
            f"grid_size {grid_size} below the 2/3-rule minimum {min_grid_size(max_mode)}"
        )

    P = 2 * grid_size
    x = 2.0 * math.pi * np.arange(P) / P
    k = np.arange(1, max_mode + 1)[:, None]
    sin_kx, cos_kx = np.sin(k * x), np.cos(k * x)

    modes = np.array([(m, n) for m in range(1, max_mode + 1) for n in range(1, max_mode + 1)])
    lam = (modes[:, 0] ** 2 + modes[:, 1] ** 2).astype(float)
    vmult = 1.0 + alpha1 * lam
    mu = 1.0 + vmult
    # unit V-norm: ||h_raw||_V^2 = (1 + alpha1 lam) lam pi^2 / 4
    scale = 1.0 / np.sqrt(vmult * lam * math.pi ** 2 / 4.0)
    amp = np.stack([scale * modes[:, 1], -scale * modes[:, 0]]).reshape(2, max_mode, max_mode)

    return SpectralBasis(
        max_mode=int(max_mode),
        alpha1=float(alpha1),
        grid_size=int(grid_size),
        modes=modes,
        lam=lam,
        mu=mu,
        vmult=vmult,
        sin=np.stack([sin_kx, k * cos_kx, -(k * k) * sin_kx]),
        cos=np.stack([cos_kx, -k * sin_kx, -(k * k) * cos_kx]),
        amp=amp,
    )


def synthesize(f: Field, orders) -> np.ndarray:
    """Grid values of d_x^a d_y^b f for each (a, b) in orders, a, b <= 2.

    Returns shape (len(orders), 2, P, P).  Component u1 = sum c s n sin cos is
    sin[a]^T (C * amp[0]) cos[b] with C the (M, M) coefficient matrix, and u2
    likewise with the cos x sin tables.
    """
    b = f.basis
    ax, ay = (list(o) for o in zip(*orders))
    c = f.coeffs.reshape(b.max_mode, b.max_mode)
    out = np.empty((len(ax), 2, b.n_ext, b.n_ext))
    np.matmul(np.swapaxes(b.sin[ax], 1, 2) @ (c * b.amp[0]), b.cos[ay], out=out[:, 0])
    np.matmul(np.swapaxes(b.cos[ax], 1, 2) @ (c * b.amp[1]), b.sin[ay], out=out[:, 1])
    return out


def to_grid(f: Field) -> np.ndarray:
    """Synthesize a Field to its (2, P, P) extended-grid velocity values."""
    return synthesize(f, ((0, 0),))[0]


def jacobian(f: Field) -> np.ndarray:
    """J[i, j] = d_j f_i on the grid, shape (2, 2, P, P)."""
    return np.swapaxes(synthesize(f, ((1, 0), (0, 1))), 0, 1)


def strain_partials(f: Field) -> np.ndarray:
    """(d_x A, d_y A) of A(f) = J + J^T on the grid, shape (2, 2, 2, P, P)."""
    P = f.basis.n_ext
    # d[k, j, i] = d_k d_j f_i
    d = synthesize(f, ((2, 0), (1, 1), (1, 1), (0, 2))).reshape(2, 2, 2, P, P)
    return d + np.swapaxes(d, 1, 2)


def to_coeffs(basis: SpectralBasis, vel: np.ndarray) -> Field:
    """Project a (2, P, P) velocity grid onto the div-free basis.

    This is the L2-orthogonal (equivalently V-orthogonal) projection onto the
    span: c_i = (1 + alpha1 lam_i) (vel, h_i)_{L2(D)}, evaluated by exact grid
    quadrature as the transpose of synthesis.
    """
    b, P = basis, basis.n_ext
    if vel.shape != (2, P, P):
        raise ShapeMismatch(f"expected velocity grid of shape (2, {P}, {P}), got {vel.shape}")
    pair = b.amp[0] * (b.sin[0] @ vel[0] @ b.cos[0].T) + b.amp[1] * (b.cos[0] @ vel[1] @ b.sin[0].T)
    return Field(b.vmult * b.quad_weight * pair.ravel(), b)


def project_div(basis: SpectralBasis, t: np.ndarray) -> Field:
    """Project (div T)_i = sum_j d_j T[i, j] of a (2, 2, P, P) grid tensor onto the basis.

    Summation by parts gives c_i = -(1 + alpha1 lam_i) quad(T : grad h_i), so
    T itself is never differentiated.
    """
    b = basis
    # [j] pairs T[i, j] with d_j h_i: x-order 1 - j, y-order j
    d1 = b.sin[[1, 0]] @ t[0] @ np.swapaxes(b.cos[[0, 1]], 1, 2)
    d2 = b.cos[[1, 0]] @ t[1] @ np.swapaxes(b.sin[[0, 1]], 1, 2)
    pair = b.amp[0] * (d1[0] + d1[1]) + b.amp[1] * (d2[0] + d2[1])
    return Field(-b.vmult * b.quad_weight * pair.ravel(), b)


def apply_modified_stokes(f: Field, alpha1: float) -> Field:
    """Apply (I - alpha1 P Lap): multiply mode i by 1 + alpha1 lam_i."""
    return Field(f.coeffs * (1.0 + alpha1 * f.basis.lam), f.basis)


def invert_modified_stokes(f: Field, alpha1: float) -> Field:
    """Solve h - alpha1 Lap h + grad pi = f on the span: divide by 1 + alpha1 lam."""
    if alpha1 < 0:
        raise ValueError("alpha1 must be >= 0")
    return Field(f.coeffs / (1.0 + alpha1 * f.basis.lam), f.basis)


def trilinear_b(phi: Field, z: Field, y: Field) -> float:
    """Convective form b(phi, z, y) = integral of (phi . grad z) . y over D."""
    phi._check(z)
    phi._check(y)
    adv = np.einsum("jxy,ijxy->ixy", to_grid(phi), jacobian(z))
    return phi.basis.pair_velocity(adv, to_grid(y))


def strain(jac: np.ndarray) -> np.ndarray:
    """A = J + J^T on the grid, shape (2, 2, P, P)."""
    return jac + np.swapaxes(jac, 0, 1)


def advect_tensor(vel: np.ndarray, partials: np.ndarray) -> np.ndarray:
    """(vel . grad) T componentwise, from the stacked partials (d_x T, d_y T)."""
    return vel[0] * partials[0] + vel[1] * partials[1]


def matmul_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise 2x2 matrix product of (2, 2, P, P) tensors."""
    return np.einsum("ikxy,kjxy->ijxy", a, b)


def tensor_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise Frobenius contraction A : B of (2, 2, P, P) tensors."""
    return np.einsum("ijxy,ijxy->xy", a, b)


def nonnewtonian_tensor(
    params: ModelParams,
    vel: np.ndarray,
    jac: np.ndarray,
    a: np.ndarray,
    a_partials: np.ndarray,
) -> np.ndarray:
    """N(y) = alpha1 (y . grad A + J^T A + A J) + alpha2 A^2."""
    jt_a = matmul_grid(np.swapaxes(jac, 0, 1), a)
    a_j = matmul_grid(a, jac)
    out = params.alpha1 * (advect_tensor(vel, a_partials) + jt_a + a_j)
    if params.alpha2 != 0.0:
        out = out + params.alpha2 * matmul_grid(a, a)
    return out


def constitutive_terms(y: Field, params: ModelParams) -> ConstitutiveTerms:
    """Evaluate A, S, N, their projected divergences and curl v(y) for a state."""
    b = y.basis
    vel, jac = to_grid(y), jacobian(y)
    a = strain(jac)
    a_sq = tensor_dot(a, a)
    s = params.beta * a_sq * a
    n = nonnewtonian_tensor(params, vel, jac, a, strain_partials(y))
    jac_v = jacobian(Field(y.coeffs * b.vmult, b))
    return ConstitutiveTerms(
        a=a,
        a_sq=a_sq,
        s=s,
        n=n,
        div_s=project_div(b, s),
        div_n=project_div(b, n),
        curl_v=jac_v[1, 0] - jac_v[0, 1],
    )


def _h_multiplier(lam: np.ndarray, order: int) -> np.ndarray:
    out = np.ones_like(lam)
    p = np.ones_like(lam)
    for _ in range(order):
        p = p * lam
        out = out + p
    return out


def norms(y: Field, kind: str) -> float:
    """Norm of a Field.

    Sobolev kinds use per-mode multipliers (modes are Laplacian
    eigenfunctions); W14 uses grid quadrature with the componentwise
    convention ||u||_{W14}^2 = sum_i ||u_i||_{W14}^2 and
    ||f||_{W14}^4 = int f^4 + (|grad f|^2)^2 dx.
    """
    b = y.basis
    c2 = y.coeffs ** 2
    if kind == "V":
        return math.sqrt(float(np.sum(c2)))
    if kind == "L2":
        return math.sqrt(float(np.sum(c2 / b.vmult)))
    if kind == "W":
        return math.sqrt(float(np.sum(c2 * b.mu)))
    if kind in ("H1", "H2", "H3"):
        order = int(kind[1])
        mult = _h_multiplier(b.lam, order) / b.vmult
        return math.sqrt(float(np.sum(c2 * mult)))
    if kind == "W14":
        vel = to_grid(y)
        jac = jacobian(y)
        total = 0.0
        for i in range(2):
            grad_sq = jac[i, 0] ** 2 + jac[i, 1] ** 2
            fourth = b.quad(vel[i] ** 4) + b.quad(grad_sq ** 2)
            total += math.sqrt(fourth)
        return math.sqrt(total)
    raise UnknownKind(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
