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
All pointwise work happens on the (G + 1) x (G + 1) tensor grid x_j = pi j / G,
j = 0..G, over the square itself (G = grid_size, both walls included).  Each
mode is a product of one sin/cos in x and one in y (sin x cos for u1, cos x
sin for u2), so the basis stores per-axis tables only: for both components,
the x- and y-factors of the six partials 1, d_x, d_y, d_xx, d_xy, d_yy,
stacked and contiguous.  Every right-hand side makes one pass through three
kernels:

- synthesis (to_grid): with C the (M, M) coefficient matrix, all partials of
  both components up to the requested order come out of two batched matrix
  products, X_p^T (C * amp) Y_p, as one (2, n, G + 1, G + 1) grid.  No
  derivative is ever taken of grid data;
- pointwise algebra on named components: in 2D A(y) = [[a, b], [b, -a]], so
  A^2 = (a^2 + b^2) I and A B + B A = (A : B) I are pressures, which no
  projection sees, and are never formed; each stress is a traceless triple
  (t11, t12, -t11) of plain ufunc expressions in a, b and the spin w
  (strain_spin, advect_strain, stress, tangent_stress);
- projection (project), the transpose of synthesis: one stacked grid is paired
  slot by slot with the test partials 1, d_x, d_y of every mode in one batched
  product, c_i = (1 + alpha1 lam_i) quad(g . d^s h_i).  A force F fills the
  value slot and a stress T, by summation by parts for P div T, the d_x and
  d_y slots as -T[:, 0] and -T[:, 1]; to_coeffs and project_div are the one-
  and two-slot cases.  The trapezoid weights sit in the test tables, so no
  pass over the grid applies them.

Quadrature is the trapezoid rule per axis, weights h (1/2, 1, ..., 1, 1/2)
with h = pi / G (quad, pair_velocity).  Every field and derivative here is
even or odd about both walls of each axis, so every integrand the solver forms
(a parity-matched product) is even about x = 0 and x = pi, that is a cosine
polynomial sum_k c_k cos(k x) per axis.  The trapezoid rule on G intervals
integrates cos(k x) over [0, pi] exactly for 0 <= k < 2G, so quadrature of
products of degree below 2G per axis is exact; it equals the plain sum over
the even/odd periodic extension to 2G x 2G points of [0, 2pi)^2, at a quarter
of the points.  Summation by parts is exact on the grid for any tensor: the
modes carry no content at the Nyquist wavenumber G, so pairing h_i with the
spectral divergence of T equals minus pairing grad h_i with T.  Content that
no mode carries never reaches a coefficient, so the projection is alias-free
by construction.  Every quadrature the package forms (the rhs kernels, the
|A|^4 energy term, the W14 norm) has per-axis degree at most 4M, so it is
exact once grid_size >= 2M + 1, the smallest resolution accepted; the default
4M has margin.
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
    "build_basis",
    "default_grid_size",
    "min_grid_size",
    "to_grid",
    "project",
    "to_coeffs",
    "project_div",
    "invert_modified_stokes",
    "apply_modified_stokes",
    "advect",
    "trilinear_b",
    "strain",
    "frobenius",
    "strain_spin",
    "advect_strain",
    "tangent_stress",
    "stress",
    "norm_weights",
    "norms",
]

NORM_KINDS = ("L2", "V", "W", "H1", "H2", "H3", "W14")

# (a, b) of the synthesis slots d_x^a d_y^b: 1, d_x, d_y, d_xx, d_xy, d_yy
PARTIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_N_PARTIALS = (1, 3, 6)  # slots holding the partials up to order 0, 1, 2
# Test partials of the projection slots: 1, d_x, d_y and 1 again, so that one
# product also carries a second value-tested grid that keeps its own weight.
_TESTS = PARTIALS[:3] + PARTIALS[:1]


def min_grid_size(max_mode: int) -> int:
    """Smallest legal collocation resolution 2M + 1, where every quadrature is exact."""
    return 2 * max_mode + 1


def default_grid_size(max_mode: int) -> int:
    """Default resolution 4M, above the exactness floor 2M + 1."""
    return 4 * max_mode


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Divergence-free free-slip basis truncated at max_mode per axis.

    modes, lam and mu are aligned arrays over the M^2 modes in lexicographic
    (m, n) order, so a coefficient vector reshaped to (M, M) is indexed by
    (m - 1, n - 1).  For component c (u1: sin x cos, u2: cos x sin) the tables
    hold the x- and y-factors of each PARTIALS slot p on the Q = grid_size + 1
    grid points of [0, pi]: synth_x[c] stacks the (Q, M) x-factors of the six
    slots row-wise, synth_y[c, p] is the (M, Q) y-factor; test_x and test_y are
    the same factors, transposed and multiplied by the trapezoid weights, for
    the projection slots.  amp holds the (M, M) factors s_mn n and -s_mn m of
    the two components, and weights the (Q,) trapezoid weights of one axis.
    """

    max_mode: int
    alpha1: float
    grid_size: int
    modes: np.ndarray          # (n_modes, 2) int
    lam: np.ndarray            # (n_modes,) Stokes eigenvalue m^2 + n^2
    mu: np.ndarray             # (n_modes,) W/V eigenratio 2 + alpha1 lam
    vmult: np.ndarray          # (n_modes,) 1 + alpha1 lam, the action of v
    synth_x: np.ndarray = field(repr=False)  # (2, 6 Q, M)
    synth_y: np.ndarray = field(repr=False)  # (2, 6, M, Q)
    test_x: np.ndarray = field(repr=False)   # (2, 4, M, Q), weighted
    test_y: np.ndarray = field(repr=False)   # (2, 4, Q, M), weighted
    amp: np.ndarray = field(repr=False)      # (2, M, M) component factors of each mode
    weights: np.ndarray = field(repr=False)  # (Q,) trapezoid weights on [0, pi]

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def n_points(self) -> int:
        """Grid points per axis, both walls included."""
        return self.grid_size + 1

    def compatible(self, other: "SpectralBasis") -> bool:
        return (
            self.max_mode == other.max_mode
            and self.grid_size == other.grid_size
            and self.alpha1 == other.alpha1
        )

    def quad(self, g: np.ndarray) -> float:
        """Integral over [0, pi]^2 of a parity-even scalar grid field (trapezoid rule)."""
        return float(self.weights @ g @ self.weights)

    def pair_velocity(self, g: np.ndarray, w: np.ndarray) -> float:
        """L2 inner product over D of two (2, Q, Q) velocity grids."""
        return self.quad(g[0] * w[0] + g[1] * w[1])


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


def build_basis(max_mode: int, alpha1: float, grid_size: int | None = None) -> SpectralBasis:
    """Construct the basis with M^2 modes, 1 <= m, n <= max_mode.

    grid_size defaults to 4 * max_mode and must be at least 2 * max_mode + 1.
    """
    if max_mode < 1:
        raise ValueError("max_mode must be >= 1")
    if not 0.0 <= alpha1 < math.inf:
        raise ValueError("alpha1 must be finite and >= 0")
    if grid_size is None:
        grid_size = default_grid_size(max_mode)
    if grid_size < min_grid_size(max_mode):
        raise ValueError(
            f"grid_size {grid_size} below the exact-quadrature minimum {min_grid_size(max_mode)}"
        )

    Q = grid_size + 1
    x = math.pi * np.arange(Q) / grid_size
    weights = np.full(Q, math.pi / grid_size)  # trapezoid rule: h (1/2, 1, ..., 1, 1/2)
    weights[[0, -1]] *= 0.5
    k = np.arange(1, max_mode + 1)[:, None]
    sin_kx, cos_kx = np.sin(k * x), np.cos(k * x)
    # d-th derivatives, d = 0..2, of sin(k x) and cos(k x), each (M, Q)
    sin = (sin_kx, k * cos_kx, -(k * k) * sin_kx)
    cos = (cos_kx, -k * sin_kx, -(k * k) * cos_kx)
    factors = ((sin, cos), (cos, sin))  # (x, y) factors of u1 and u2

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
        synth_x=np.array([[fx[a].T for a, _ in PARTIALS] for fx, _ in factors]).reshape(
            2, len(PARTIALS) * Q, max_mode
        ),
        synth_y=np.array([[fy[b] for _, b in PARTIALS] for _, fy in factors]),
        test_x=np.array([[fx[a] * weights for a, _ in _TESTS] for fx, _ in factors]),
        test_y=np.array([[(fy[b] * weights).T for _, b in _TESTS] for _, fy in factors]),
        amp=amp,
        weights=weights,
    )


def to_grid(f: Field, order: int = 0) -> np.ndarray:
    """Synthesize a Field and its partials up to order (0, 1 or 2) on the grid.

    order 0 gives the (2, Q, Q) velocity.  Orders 1 and 2 give the (2, n, Q, Q)
    grid g[i, p] = d^p f_i over the first n = 3 or 6 PARTIALS slots, so
    g[:, 1:3] is the Jacobian J[i, j] = d_j f_i.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    b = f.basis
    M, Q, n = b.max_mode, b.n_points, _N_PARTIALS[order]
    coef = f.coeffs.reshape(M, M) * b.amp
    g = (b.synth_x[:, : n * Q] @ coef).reshape(2, n, Q, M) @ b.synth_y[:, :n]
    return g[:, 0] if order == 0 else g


def project(basis: SpectralBasis, g: np.ndarray, first: int = 0) -> np.ndarray:
    """Pair a (2, k, Q, Q) grid slot by slot with the test partials of every mode.

    Slot s is tested against partial first + s of the sequence 1, d_x, d_y, 1;
    row s of the (k, n_modes) result is (1 + alpha1 lam_i) quad(g[:, s] . d h_i),
    all k slots in one batched product.
    """
    b = basis
    k = g.shape[1]
    tests = slice(first, first + k)
    r = b.test_x[:, tests] @ (g @ b.test_y[:, tests])
    vmult = b.vmult.reshape(b.max_mode, b.max_mode)
    return ((r[0] * b.amp[0] + r[1] * b.amp[1]) * vmult).reshape(k, b.n_modes)


def to_coeffs(basis: SpectralBasis, vel: np.ndarray) -> Field:
    """Project a (2, Q, Q) velocity grid onto the div-free basis.

    This is the L2-orthogonal (equivalently V-orthogonal) projection onto the
    span: c_i = (1 + alpha1 lam_i) (vel, h_i)_{L2(D)}, evaluated by exact grid
    quadrature as the transpose of synthesis.
    """
    Q = basis.n_points
    if vel.shape != (2, Q, Q):
        raise ShapeMismatch(f"expected velocity grid of shape (2, {Q}, {Q}), got {vel.shape}")
    return Field(project(basis, vel[:, None])[0], basis)


def project_div(basis: SpectralBasis, t: np.ndarray) -> Field:
    """Project (div T)_i = sum_j d_j T[i, j] of a (2, 2, Q, Q) grid tensor onto the basis.

    Summation by parts gives c_i = -(1 + alpha1 lam_i) quad(T : grad h_i), so
    T itself is never differentiated.
    """
    return Field(-project(basis, t, first=1).sum(axis=0), basis)


def apply_modified_stokes(f: Field, alpha1: float) -> Field:
    """Apply (I - alpha1 P Lap): multiply mode i by 1 + alpha1 lam_i."""
    return Field(f.coeffs * (1.0 + alpha1 * f.basis.lam), f.basis)


def invert_modified_stokes(f: Field, alpha1: float) -> Field:
    """Solve h - alpha1 Lap h + grad pi = f on the span: divide by 1 + alpha1 lam."""
    if alpha1 < 0:
        raise ValueError("alpha1 must be >= 0")
    return Field(f.coeffs / (1.0 + alpha1 * f.basis.lam), f.basis)


def advect(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(w . grad) x, shape (2, Q, Q), from synthesised grids of order >= 1."""
    return w[0, 0] * x[:, 1] + w[1, 0] * x[:, 2]


def trilinear_b(phi: Field, z: Field, y: Field) -> float:
    """Convective form b(phi, z, y) = integral of (phi . grad z) . y over D."""
    phi._check(z)
    phi._check(y)
    adv = advect(to_grid(phi, 1), to_grid(z, 1))
    return phi.basis.pair_velocity(adv, to_grid(y))


# -- pointwise algebra: symmetric tensors as (t11, t12, t22) --------------------


def strain(g: np.ndarray) -> tuple:
    """A = grad y + (grad y)^T from a synthesised grid of y of order >= 1."""
    return 2.0 * g[0, 1], g[0, 2] + g[1, 1], 2.0 * g[1, 2]


def frobenius(a, b) -> np.ndarray:
    """Pointwise A : B of two symmetric tensors."""
    return a[0] * b[0] + 2.0 * (a[1] * b[1]) + a[2] * b[2]


def strain_spin(g: np.ndarray) -> tuple:
    """(a, b, w), A(y) = [[a, b], [b, -a]] and spin w = d_y y1 - d_x y2, from g of order >= 1.

    The difference form of a keeps A exactly traceless under roundoff.
    """
    return g[0, 1] - g[1, 2], g[0, 2] + g[1, 1], g[0, 2] - g[1, 1]


def advect_strain(w: np.ndarray, x: np.ndarray) -> tuple:
    """((w . grad) a, (w . grad) b) of A(x) = [[a, b], [b, -a]], x of order 2."""
    d = w[0, 0] * x[:, 3:5] + w[1, 0] * x[:, 4:6]  # d[i, j] = (w . grad) d_j x_i
    return d[0, 0] - d[1, 1], d[0, 1] + d[1, 0]


def tangent_stress(a, b, a_sq: np.ndarray, a_z, b_z, beta: float) -> tuple:
    """(t11, t12) of beta (|A|^2 B + 2 (A : B) A), t22 = -t11, with a_sq = |A|^2.

    At A = A(y) = [[a, b], [b, -a]] and B = A(z) = [[a_z, b_z], [b_z, -a_z]] this is
    S'(y)[z]; the (alpha1 + alpha2)(A B + B A) = (alpha1 + alpha2)(A : B) I term
    of the weak forms is a pressure, so it is their whole tangent stress.
    """
    cubic = beta * a_sq
    cross = (4.0 * beta) * (a * a_z + b * b_z)  # 2 beta A : B
    return cubic * a_z + cross * a, cubic * b_z + cross * b


def stress(params: ModelParams, g: np.ndarray) -> tuple:
    """Deviatoric part of N(y) + S(y) from the order-2 synthesised grid g of y.

    N(y) = alpha1 (y . grad A + J^T A + A J) + alpha2 A^2 and S(y) = beta |A|^2 A.
    With J = grad y, A J + J^T A = A^2 + w [[-b, a], [a, b]], and A^2 = (a^2 + b^2) I
    is a pressure: only the convected and spin terms and S = 2 beta (a^2 + b^2) A remain.
    """
    a, b, w = strain_spin(g)
    cubic = (2.0 * params.beta) * (a * a + b * b)
    t11, t12 = cubic * a, cubic * b
    if params.alpha1 != 0.0:
        ga, gb = advect_strain(g, g)
        t11 = t11 + params.alpha1 * (ga - w * b)
        t12 = t12 + params.alpha1 * (gb + w * a)
    return t11, t12, -t11


def _h_multiplier(lam: np.ndarray, order: int) -> np.ndarray:
    out = np.ones_like(lam)
    p = np.ones_like(lam)
    for _ in range(order):
        p = p * lam
        out = out + p
    return out


def norm_weights(basis: SpectralBasis, kind: str) -> np.ndarray:
    """Per-mode weights w with ||y||^2 = sum_i w_i c_i^2 for the kinds L2, V, W, H1-H3.

    Applied to a coefficient array over nodes, np.sum(c ** 2 * w, axis=-1)
    gives every node's squared norm in one reduction.
    """
    b = basis
    if kind == "V":
        return np.ones_like(b.lam)
    if kind == "L2":
        return 1.0 / b.vmult
    if kind == "W":
        return b.mu
    if kind in ("H1", "H2", "H3"):
        return _h_multiplier(b.lam, int(kind[1])) / b.vmult
    raise UnknownKind(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def norms(y: Field, kind: str) -> float:
    """Norm of a Field.

    Sobolev kinds use per-mode multipliers (modes are Laplacian
    eigenfunctions); W14 uses grid quadrature with the componentwise
    convention ||u||_{W14}^2 = sum_i ||u_i||_{W14}^2 and
    ||f||_{W14}^4 = int f^4 + (|grad f|^2)^2 dx.
    """
    b = y.basis
    if kind == "W14":
        g = to_grid(y, 1)
        fourth = [b.quad(u ** 4) + b.quad((ux ** 2 + uy ** 2) ** 2) for u, ux, uy in g]
        return math.sqrt(sum(math.sqrt(f) for f in fourth))
    return math.sqrt(float(np.sum(y.coeffs ** 2 * norm_weights(b, kind))))
