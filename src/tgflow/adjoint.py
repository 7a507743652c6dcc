"""Backward adjoint equation solved through its time-reversed weak form.

The adjoint state p carries terminal data p(T) = 0 and satisfies, for every
test function phi in the basis span,

    (-d/dt v(p), phi) + 2 nu (Dp, Dphi) - b(phi, p, v(y)) + b(p, phi, v(y))
      + b(p, y, v(phi)) - b(y, p, v(phi))
      + (alpha1 + alpha2)(A(y)A(p) + A(p)A(y), grad phi)
      + beta (|A(y)|^2 A(p), grad phi)
      + 2 beta ((A(p):A(y)) A(y), grad phi) = (f, phi).

Substituting q(t) = p(T - t) gives a forward problem with reversed
coefficients ybar(t) = y(T - t), advanced by the same Crank-Nicolson/midpoint
scheme as the other solvers (`state.march`) and re-reversed.  The spatial form
above is the exact transpose of the linearized form, term by term, under the
grid quadrature pairing.  Its (alpha1 + alpha2) term pairs (A(y):A(p)) I, a
pressure, with grad phi, so it vanishes and only the beta terms are formed.
The discrete duality

    sum_k dt (psi_mid, p_mid) = sum_k dt (f_mid, z_mid)

holds to fixed-point tolerance; `check_duality` reports both sides.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .linearized import cubic_tangent, solve_linearized
from .params import ModelParams
from .spectral import SpectralBasis, Workspace, fields, signed_rows, slots, synthesize
from .spectral import to_grid  # noqa: F401 -- perfbench traces it in every solver's namespace
from .state import march, midpoint_gain
from .trajectory import Trajectory, check_same_grid, pair_l2l2_mid

__all__ = ["solve_adjoint", "check_duality", "AdjointWork"]

# the named fields of q the adjoint rhs reads, and the slots it writes: the
# stream function of the terms tested against v(phi), the stress and the force
_FIELDS = fields("a", "b", "u1", "u2")
_SLOTS = slots("w", "a", "b", "u1", "u2")
# the frozen state's grids the weights take as they are, signs folded into the synthesis
_FROZEN = ("u2", "-u1", "w_v", "-w_v", "a", "b")


class AdjointWork(Workspace):
    """Buffers, the weight grids and the ops of `adjoint_rhs_terms`.

    The slot grids are sums of the fields of q times weight grids of ybar:
    (ybar2, -ybar1) times (q1, q2) in the w slot, -beta times the cubic tangent
    times (a, b) in the a and b slots, and (w_v, -w_v) times (q2, q1) in the
    u1 and u2 slots.  freeze builds the weights of a window of frozen states:
    the six grids of _FROZEN and the tangent.  scale (None for none) is per
    mode, for the slots tested against phi; the w slot, tested against v(phi),
    enters the time derivative undivided by vmult, so it carries scale times
    -vmult.
    """

    def __init__(self, basis: SpectralBasis, params: ModelParams, scale=None, frozen=()):
        scale = np.tile(np.ones(basis.n_modes) if scale is None else scale, (5, 1))
        scale[0] *= -basis.vmult
        # per step, ten weight grids and six grids of products
        super().__init__(basis, _FIELDS, _SLOTS, scale, frozen=frozen, extra=16)
        c, Q = self.window, basis.n_points
        self.params = params
        self.tables = signed_rows(basis, *_FROZEN)
        self.weights = np.empty((c, 10, Q, Q))
        self.products = np.empty((c, 3, 2, Q, Q))

    def kernel_ops(self, n: int) -> tuple:
        Q = self.basis.n_points
        q, p, out, wt = self.synth[:n], self.products[:n], self.slots[:n], self.weights[:n]
        return (
            # +b(q, ybar, v(phi)) - b(ybar, q, v(phi)) pairs (ybar.grad)q - (q.grad)ybar =
            # curl(psi), psi = q1 ybar2 - q2 ybar1, with v(phi); psi vanishes on the walls,
            # so by parts that is -(psi, w(v(phi))), the w slot carrying the v-weight
            partial(np.multiply, wt[:, 0:2], q[:, 2:4], p[:, 0]),
            # -(S'(ybar)[q], grad phi), by summation by parts tested against (a, b)(phi)
            partial(np.multiply, wt[:, 6:10].reshape(n, 2, 2, Q, Q), q[:, None, 0:2], p[:, 1:3]),
            partial(np.add, p[:, :, 0], p[:, :, 1], out[:, 0:3]),
            # -b(phi, q, v(ybar)) and +b(q, phi, v(ybar)) move to the right-hand side as
            # ((grad q)^T v + (q . grad) v, phi): in Lamb form w_v (q2, -q1) plus a pressure
            partial(np.multiply, wt[:, 2:4], q[:, 3:1:-1], out[:, 3:5]),
        )

    def freeze(self, stack: np.ndarray) -> None:
        n, Q = len(stack), self.basis.n_points
        y = synthesize(self.basis, stack, self.tables, out=self.weights[:n, 0:6])
        tangent = self.weights[:n, 6:10].reshape(n, 2, 2, Q, Q)
        cubic_tangent(y[:, 4:6], -self.params.beta, tangent, self.synth[:n, 0])


def adjoint_rhs_terms(
    basis: SpectralBasis,
    params: ModelParams,
    y_coeffs: np.ndarray,
    q_coeffs: np.ndarray,
    work: AdjointWork | None = None,
) -> np.ndarray:
    """Explicit terms of the reversed adjoint ODE at the frozen state ybar.

    The coefficient ODE reads ds/dt = (-nu lam s + inner + c(f)) / vmult + outer,
    where inner collects the terms tested against phi and outer the two tested
    against v(phi); this returns inner + vmult outer.  With work (an
    AdjointWork for this basis and params, reused through a solve, which builds
    ybar's weights as `spectral.Workspace` says) the result, times work's scale
    per mode, is work.out, valid until the next call.
    """
    work = work or AdjointWork(basis, params, frozen=np.reshape(y_coeffs, (-1, basis.n_modes)))
    return work(q_coeffs, y_coeffs)


def solve_adjoint(y_traj: Trajectory, f: Trajectory, params: ModelParams) -> Trajectory:
    """Solve the adjoint equation with source f; returns p with p(T) = 0.

    The march runs in reversed time, so the `step` of a FixedPointDiverged
    raised here counts intervals back from T: step k is [t_{N-k-1}, t_{N-k}].
    """
    check_same_grid(y_traj, f)
    basis, dt = y_traj.basis, y_traj.dt
    y_rev, f_rev = y_traj.coeffs[::-1], f.coeffs[::-1]
    scale = midpoint_gain(basis, params, dt) / basis.vmult
    work = AdjointWork(basis, params, scale, 0.5 * (y_rev[:-1] + y_rev[1:]))
    q = march(
        basis, params, dt, np.zeros(basis.n_modes), 0.5 * (f_rev[:-1] + f_rev[1:]) / basis.vmult,
        lambda k, m: adjoint_rhs_terms(basis, params, work.steps[k // work.window], m, work),
        work.window,
    )
    return Trajectory(y_traj.times.copy(), q[::-1].copy(), basis, "adjoint")


def check_duality(
    y_traj: Trajectory, psi: Trajectory, f: Trajectory, params: ModelParams
) -> tuple[float, float, float]:
    """Evaluate both sides of int (psi, p) dt = int (f, z) dt and their gap.

    z is solved from psi by the linearized module, p from f here; the
    integrals use the scheme's midpoint quadrature.  Returns (lhs, rhs, gap)
    with gap relative to the larger magnitude.
    """
    check_same_grid(y_traj, psi)
    check_same_grid(y_traj, f)
    z = solve_linearized(y_traj, psi, params)
    p = solve_adjoint(y_traj, f, params)
    lhs = pair_l2l2_mid(psi, p)
    rhs = pair_l2l2_mid(f, z)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, gap
