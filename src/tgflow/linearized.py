"""Linearized state equation around a stored trajectory.

The solver integrates the Frechet derivative of the state dynamics at frozen
coefficients,

    d/dt v(z) = P [ nu Lap z - (y . grad) z - (z . grad) y
                    + div N'(y)[z] + div S'(y)[z] + psi ],    z(0) = 0,

with the same Crank-Nicolson/midpoint scheme (`state.march`), frozen midpoint
states taken by averaging adjacent stored nodes.  Since the divergence-form
Jacobian and the weak formulation of the linearized equation differ only by a
pressure gradient, which projects to zero, the coefficient ODEs here are
exactly the Galerkin system of the weak form, and the adjoint module's system
is its transpose (the test suite assembles both weak forms term by term to
check this).  In 2D A(y) and A(z) are symmetric and traceless, so
A(y)A(z) + A(z)A(y) = (A(y):A(z)) I: the alpha2 part of N'(y)[z], the
matching part of its alpha1 term and the (alpha1 + alpha2) term of the weak
form are pressures too, and the rhs kernel does not form them.

Because the scheme's midpoint is the average of the step endpoints, this
discrete solve is also the exact derivative of the discrete state solve, which
is what the Taylor (Gateaux) test measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .params import ModelParams
from .spectral import Field, SpectralBasis, Workspace, synthesize
from .spectral import to_grid  # noqa: F401 -- perfbench traces it in every solver's namespace
from .state import _FIELDS, _SLOTS, march, midpoint_gain, solve_state
from .trajectory import Trajectory, check_same_grid

__all__ = [
    "solve_linearized",
    "gateaux_taylor_test",
    "TaylorResult",
    "LinearizedWork",
]

# (1, -1) against a stacked pair: _SIGNS * w = (w, -w)
_SIGNS = np.array([1.0, -1.0])[:, None, None]


def cubic_tangent(ab: np.ndarray, coef: float, out: np.ndarray, diag: np.ndarray) -> None:
    """coef times the cubic tangent |A|^2 I + 4 (a, b) (a, b)^T of the pairs ab, into out.

    ab is (..., 2, Q, Q), out a (..., 2, 2, Q, Q) symmetric array and diag a (..., Q, Q)
    scratch grid; beta times the tangent along (a_z, b_z) is S'(y)[z], |A|^2 = 2 (a^2 + b^2).
    """
    np.multiply(ab[..., :, None, :, :], ab[..., None, :, :, :], out=out)
    np.add(out[..., 0, 0, :, :], out[..., 1, 1, :, :], out=diag)
    out *= 4.0 * coef
    diag *= 2.0 * coef
    on_diag = out.reshape(*out.shape[:-4], 4, *diag.shape[-2:])[..., ::3, :, :]
    np.add(on_diag, diag[..., None, :, :], out=on_diag)


class LinearizedWork(Workspace):
    """Buffers, weight grids and ops of `linearized_rhs_coeffs`.

    The slot grids that project to F'(y)[z] are sums of the fields of z times
    weight grids of y: grad_w times (a_x, b_x) and (a_y, b_y) and pair_w times w, a, b, u1
    and u2 in the a and b slots, conv_w times w and (u2, u1) in the u1 and u2
    slots.  freeze builds the weights of a window of frozen states, y's fields
    synthesized into synth, which the next call overwrites.
    """

    def __init__(self, basis: SpectralBasis, params: ModelParams, scale=None, frozen=()):
        # per step, 16 weight grids and 16 grids of products
        super().__init__(basis, _FIELDS, _SLOTS, scale, frozen=frozen, extra=32)
        c, Q = self.window, basis.n_points
        self.params = params
        self.grad_w = np.empty((c, 2, 1, Q, Q))
        self.pair_w = np.empty((c, 5, 2, Q, Q))
        self.conv_w = np.empty((c, 2, 2, Q, Q))
        self.conv, self.products = np.empty((c, 2, Q, Q)), np.empty((c, 7, 2, Q, Q))

    def kernel_ops(self, n: int) -> tuple:
        Q = self.basis.n_points
        z, p, out, conv_w = self.synth[:n], self.products[:n], self.slots[:n], self.conv_w[:n]
        return (
            partial(np.multiply, self.grad_w[:n], z[:, 0:4].reshape(n, 2, 2, Q, Q), p[:, 0:2]),
            partial(np.multiply, self.pair_w[:n], z[:, 4:9, None], p[:, 2:7]),
            partial(np.add.reduce, p, 1, None, out[:, 0:2]),
            partial(np.multiply, conv_w[:, 0], z[:, 4, None], out[:, 2:4]),
            partial(np.multiply, conv_w[:, 1], z[:, 8:6:-1], self.conv[:n]),
            partial(np.add, out[:, 2:4], self.conv[:n], out[:, 2:4]),
        )

    def freeze(self, stack: np.ndarray) -> None:
        al, n, Q = self.params.alpha1, len(stack), self.basis.n_points
        y = synthesize(self.basis, stack, _FIELDS, out=self.synth[:n])
        w, ab, u = y[:, 4, None], y[:, 5:7], y[:, 7:9]
        pair_w = self.pair_w[:n]
        # F' pairs minus the stress with (a, b)(h_i), so every weight carries a minus
        # sign: alpha1 (y.grad A(z) + z.grad A(y)) + beta tangent (a_z, b_z) and the
        # spin terms of the convected derivative, -w_z (b, -a) - w (b_z, -a_z)
        np.multiply(-al, u, out=self.grad_w[:n, :, 0])
        np.multiply(_SIGNS * al, ab[:, ::-1], out=pair_w[:, 0])
        np.multiply(-al, y[:, 0:4].reshape(n, 2, 2, Q, Q), out=pair_w[:, 3:5])
        # y's gradient fields are spent: their grids are scratch from here on
        cubic_tangent(ab, -self.params.beta, pair_w[:, 1:3], y[:, 2])
        np.multiply(_SIGNS * -al, w, out=y[:, 0:2])
        off_diag = pair_w[:, 1:3].reshape(n, 4, Q, Q)[:, 1:3]
        np.add(off_diag, y[:, 0:2], out=off_diag)
        # (y.grad)z + (z.grad)y in Lamb form, w_z (y2, -y1) + w (z2, -z1), plus a pressure
        np.multiply(_SIGNS[::-1], u[:, ::-1], out=self.conv_w[:n, 0])
        np.multiply(_SIGNS[::-1], w, out=self.conv_w[:n, 1])


def linearized_rhs_coeffs(
    basis: SpectralBasis,
    params: ModelParams,
    y_coeffs: np.ndarray,
    z_coeffs: np.ndarray,
    work: LinearizedWork | None = None,
) -> np.ndarray:
    """Projection coefficients of F'(y)[z] at the frozen state y, F the state rhs.

    With work (a LinearizedWork for this basis and params, reused through a
    solve, which builds y's weights as `spectral.Workspace` says) the result,
    F'(y)[z] times work's scale per mode, is work.out, valid until the next call.
    """
    work = work or LinearizedWork(basis, params, frozen=np.reshape(y_coeffs, (-1, basis.n_modes)))
    return work(z_coeffs, y_coeffs)


def solve_linearized(y_traj: Trajectory, psi: Trajectory, params: ModelParams) -> Trajectory:
    """Solve the linearized equation driven by psi around the stored state."""
    check_same_grid(y_traj, psi)
    basis, dt = y_traj.basis, y_traj.dt
    scale = midpoint_gain(basis, params, dt) / basis.vmult
    work = LinearizedWork(basis, params, scale, y_traj.midpoints())
    coeffs = march(
        basis, params, dt, np.zeros(basis.n_modes), psi.midpoints() / basis.vmult,
        lambda k, m: linearized_rhs_coeffs(basis, params, work.steps[k // work.window], m, work),
        work.window,
    )
    return Trajectory(y_traj.times.copy(), coeffs, basis, "linearized")


@dataclass(frozen=True)
class TaylorResult:
    """Remainder decay of the Gateaux representation y_rho = y + rho z + rho delta."""

    rhos: np.ndarray
    remainders: np.ndarray   # r(rho) = sup_t || (y_rho - y)/rho - z ||_V
    slopes: np.ndarray       # log-log slopes between consecutive rhos


def gateaux_taylor_test(
    control: Trajectory,
    psi: Trajectory,
    y0: Field,
    rhos,
    params: ModelParams,
) -> TaylorResult:
    """Compare finite-difference state sensitivities with the linearized solve."""
    check_same_grid(control, psi)
    rhos = np.asarray(sorted(rhos, reverse=True), dtype=float)
    if np.any(rhos <= 0):
        raise ValueError("rhos must be positive")
    base = solve_state(y0, control, params)
    z = solve_linearized(base, psi, params)
    remainders = np.empty(rhos.size)
    for i, rho in enumerate(rhos):
        perturbed = Trajectory(
            control.times, control.coeffs + rho * psi.coeffs, control.basis, "control"
        )
        y_rho = solve_state(y0, perturbed, params)
        delta = (y_rho.coeffs - base.coeffs) / rho - z.coeffs
        remainders[i] = float(np.max(np.sqrt(np.sum(delta ** 2, axis=1))))
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.diff(np.log(remainders)) / np.diff(np.log(rhos))
    return TaylorResult(rhos=rhos, remainders=remainders, slopes=slopes)
