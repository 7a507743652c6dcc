"""Independent reference computations for the test suite.

Everything here evaluates the analytic mode formulas directly, bypassing the
package's synthesis/projection pipeline entirely.  The Gram, norm and
trilinear oracles use inclusive [0, pi]^2 tensor grids and composite
trapezoid quadrature, which is exact for the trigonometric integrands
involved, so they serve as high-precision oracles at whatever resolution the
caller picks.  The right-hand-side references at the end use a grid of their
own: the full periodic grid of 2 * grid_size points per axis on [0, 2pi)^2,
where the plain grid sum is the exact quadrature.  The solver uses only the
grid_size + 1 of those points per axis that lie in [0, pi], with trapezoid
weights, so these references check its quadrature independently.
Four exceptions sit at the end.  `stress` is the deviator of the state kernel
in plain pair algebra, read from a synthesised grid, with `strain` and the
pointwise `frobenius` product of its tensors, for the constitutive identity
tests.  `march_endpoint` is the time stepper in its endpoint form,
which iterates a_{k+1} instead of the midpoint, and the `*_endpoint` solvers
drive it with the package's rhs kernels called without a workspace, as the
reference for the solvers' midpoint iteration and folded scales.
`adjoint_kernel_terms` splits the package's adjoint kernel into the two terms
`adjoint_rhs_oracle` returns.  `linearized_form` and `adjoint_form` assemble
the spatial weak forms of the linearized and adjoint equations term by term
from the package's `trilinear_b` and synthesis, for the checks that the rhs
kernel realizes the first and that the second is its exact transpose.
"""

import math

import numpy as np

from tgflow.adjoint import AdjointWork, adjoint_rhs_terms
from tgflow.errors import FixedPointDiverged
from tgflow.linearized import linearized_rhs_coeffs
from tgflow.spectral import Field, project, slots, to_grid, trilinear_b
from tgflow.state import _STRAIN, FP_MAX_ITER, FP_TOL, PREDICTOR_ORDER, state_rhs_coeffs


def trapezoid_grid(res):
    """Inclusive tensor grid on [0, pi]^2 with trapezoid weights."""
    x = np.linspace(0.0, math.pi, res)
    w1 = np.full(res, x[1] - x[0])
    w1[0] *= 0.5
    w1[-1] *= 0.5
    return x, np.outer(w1, w1)


def mode_scale(m, n, alpha1):
    lam = m * m + n * n
    return 1.0 / math.sqrt((1.0 + alpha1 * lam) * lam * math.pi ** 2 / 4.0)


def mode_velocity(m, n, alpha1, x):
    """Analytic velocity components of the unit-V-norm mode on a tensor grid."""
    s = mode_scale(m, n, alpha1)
    X, Y = x[:, None], x[None, :]
    h1 = s * n * np.sin(m * X) * np.cos(n * Y)
    h2 = -s * m * np.cos(m * X) * np.sin(n * Y)
    return h1, h2


def mode_jacobian(m, n, alpha1, x):
    """Analytic first derivatives d_j h_i, shape (2, 2, res, res)."""
    s = mode_scale(m, n, alpha1)
    X, Y = x[:, None], x[None, :]
    d1h1 = s * n * m * np.cos(m * X) * np.cos(n * Y)
    d2h1 = -s * n * n * np.sin(m * X) * np.sin(n * Y)
    d1h2 = s * m * m * np.sin(m * X) * np.sin(n * Y)
    d2h2 = -s * m * n * np.cos(m * X) * np.cos(n * Y)
    return np.array([[d1h1, d2h1], [d1h2, d2h2]])


def mode_hessian(m, n, alpha1, x):
    """Analytic second derivatives d_k d_j h_i, shape (2, 2, 2, res, res) indexed [k, i, j]."""
    s = mode_scale(m, n, alpha1)
    X, Y = x[:, None], x[None, :]
    sc = np.sin(m * X) * np.cos(n * Y)
    cs = np.cos(m * X) * np.sin(n * Y)
    dxx = [-s * n * m * m * sc, s * m ** 3 * cs]
    dxy = [-s * n * n * m * cs, s * m * m * n * sc]
    dyy = [-s * n ** 3 * sc, s * m * n * n * cs]
    return np.array([[[dxx[i], dxy[i]] for i in range(2)], [[dxy[i], dyy[i]] for i in range(2)]])


def field_velocity(modes, coeffs, alpha1, x):
    """Analytic evaluation of a coefficient vector on the oracle grid."""
    g1 = np.zeros((x.size, x.size))
    g2 = np.zeros_like(g1)
    for (m, n), c in zip(modes, coeffs):
        h1, h2 = mode_velocity(m, n, alpha1, x)
        g1 += c * h1
        g2 += c * h2
    return g1, g2


def field_jacobian(modes, coeffs, alpha1, x):
    jac = np.zeros((2, 2, x.size, x.size))
    for (m, n), c in zip(modes, coeffs):
        jac += c * mode_jacobian(m, n, alpha1, x)
    return jac


def gram_matrices(modes, alpha1, res):
    """Dense V and W Gram matrices of the normalized modes by quadrature.

    Uses (u, z)_V = (u, z) + 2 alpha1 (Du, Dz) and, since v(h) is already
    divergence-free, (h_i, h_j)_W = (h_i, h_j)_V + D_i D_j (h_i, h_j)_L2 with
    D = 1 + alpha1 lam.
    """
    x, w = trapezoid_grid(res)
    k = len(modes)
    vels = [mode_velocity(m, n, alpha1, x) for (m, n) in modes]
    jacs = [mode_jacobian(m, n, alpha1, x) for (m, n) in modes]
    dmults = [1.0 + alpha1 * (m * m + n * n) for (m, n) in modes]
    gram_l2 = np.empty((k, k))
    gram_v = np.empty((k, k))
    gram_w = np.empty((k, k))
    for i in range(k):
        di = 0.5 * (jacs[i] + np.transpose(jacs[i], (1, 0, 2, 3)))
        for j in range(i, k):
            dj = 0.5 * (jacs[j] + np.transpose(jacs[j], (1, 0, 2, 3)))
            l2 = np.sum((vels[i][0] * vels[j][0] + vels[i][1] * vels[j][1]) * w)
            dd = np.sum(np.einsum("abxy,abxy->xy", di, dj) * w)
            gram_l2[i, j] = gram_l2[j, i] = l2
            gram_v[i, j] = gram_v[j, i] = l2 + 2.0 * alpha1 * dd
            gram_w[i, j] = gram_w[j, i] = gram_v[i, j] + dmults[i] * dmults[j] * l2
    return gram_l2, gram_v, gram_w


def trilinear_oracle(modes, c_phi, c_z, c_y, alpha1, res):
    """b(phi, z, y) by analytic evaluation and dense trapezoid quadrature."""
    x, w = trapezoid_grid(res)
    p1, p2 = field_velocity(modes, c_phi, alpha1, x)
    y1, y2 = field_velocity(modes, c_y, alpha1, x)
    jz = field_jacobian(modes, c_z, alpha1, x)
    adv1 = p1 * jz[0, 0] + p2 * jz[0, 1]
    adv2 = p1 * jz[1, 0] + p2 * jz[1, 1]
    return float(np.sum((adv1 * y1 + adv2 * y2) * w))


def l2_norm_oracle(modes, coeffs, alpha1, res):
    x, w = trapezoid_grid(res)
    g1, g2 = field_velocity(modes, coeffs, alpha1, x)
    return math.sqrt(float(np.sum((g1 ** 2 + g2 ** 2) * w)))


def strain_quartic_oracle(modes, coeffs, alpha1, res):
    """int |A(y)|^4 from analytic derivatives and trapezoid quadrature."""
    x, w = trapezoid_grid(res)
    jac = field_jacobian(modes, coeffs, alpha1, x)
    a = jac + np.transpose(jac, (1, 0, 2, 3))
    a_sq = np.einsum("abxy,abxy->xy", a, a)
    return float(np.sum(a_sq ** 2 * w))


# -- reference assembly of the solver right-hand sides --------------------------
#
# The package fuses synthesis, the symmetric-component stress algebra and one
# projection per right-hand side.  These references assemble the same terms as
# plain full-tensor code: fields by summing the analytic modes on the periodic
# grid of [0, 2pi)^2, 2x2 tensor algebra by einsum, and projection by one
# plain-sum quadrature per mode.  Each takes the basis only for its mode list,
# alpha1 and grid size.


def _ext_grid(basis):
    P = 2 * basis.grid_size
    return 2.0 * math.pi * np.arange(P) / P


def _fields(basis, coeffs):
    """Velocity (2, P, P), Jacobian [i, j] = d_j y_i and strain partials [k, i, j] = d_k A_ij.

    All on the periodic grid of _ext_grid.
    """
    x = _ext_grid(basis)
    vel = np.zeros((2, x.size, x.size))
    jac = np.zeros((2, 2, x.size, x.size))
    hess = np.zeros((2, 2, 2, x.size, x.size))
    for (m, n), c in zip(basis.modes, coeffs):
        vel += c * np.array(mode_velocity(m, n, basis.alpha1, x))
        jac += c * mode_jacobian(m, n, basis.alpha1, x)
        hess += c * mode_hessian(m, n, basis.alpha1, x)
    return vel, jac, hess + np.swapaxes(hess, 1, 2)


def _matmul(a, b):
    return np.einsum("ikxy,kjxy->ijxy", a, b)


def _ddot(a, b):
    return np.einsum("ijxy,ijxy->xy", a, b)


def _advect(vel, jac):
    return np.einsum("jxy,ijxy->ixy", vel, jac)


def _transpose(t):
    return np.swapaxes(t, 0, 1)


def _project(basis, value, stress=None):
    """c_i = (1 + alpha1 lam_i) quad(value . h_i - stress : grad h_i), mode by mode."""
    x = _ext_grid(basis)
    weight = math.pi ** 2 / x.size ** 2
    out = np.empty(len(basis.modes))
    for i, (m, n) in enumerate(basis.modes):
        pair = np.sum(value * np.array(mode_velocity(m, n, basis.alpha1, x)))
        if stress is not None:
            pair -= np.sum(_ddot(stress, mode_jacobian(m, n, basis.alpha1, x)))
        out[i] = (1.0 + basis.alpha1 * (m * m + n * n)) * weight * pair
    return out


def _tangent(a, b, coef, beta):
    """coef (A B + B A) + beta |A|^2 B + 2 beta (A : B) A."""
    return coef * (_matmul(a, b) + _matmul(b, a)) + beta * (
        _ddot(a, a) * b + 2.0 * _ddot(a, b) * a
    )


def state_rhs_oracle(basis, params, y):
    """Coefficients of F(y) = -(y.grad)y + div N(y) + div S(y)."""
    vel, jac, a_partials = _fields(basis, y)
    a = jac + _transpose(jac)
    n = params.alpha1 * (
        vel[0] * a_partials[0] + vel[1] * a_partials[1]
        + _matmul(_transpose(jac), a) + _matmul(a, jac)
    ) + params.alpha2 * _matmul(a, a)
    s = params.beta * _ddot(a, a) * a
    return _project(basis, -_advect(vel, jac), n + s)


def linearized_rhs_oracle(basis, params, y, z):
    """Coefficients of F'(y)[z]."""
    vel, jac, a_partials = _fields(basis, y)
    vel_z, jac_z, a_partials_z = _fields(basis, z)
    a, a_z = jac + _transpose(jac), jac_z + _transpose(jac_z)
    stress = params.alpha1 * (
        vel[0] * a_partials_z[0] + vel[1] * a_partials_z[1]
        + vel_z[0] * a_partials[0] + vel_z[1] * a_partials[1]
        + _matmul(_transpose(jac_z), a) + _matmul(_transpose(jac), a_z)
        + _matmul(a, jac_z) + _matmul(a_z, jac)
    ) + _tangent(a, a_z, params.alpha2, params.beta)
    conv = _advect(vel, jac_z) + _advect(vel_z, jac)
    return _project(basis, -conv, stress)


def adjoint_rhs_oracle(basis, params, y, q):
    """(inner, outer) terms of the reversed adjoint ODE at the frozen state y."""
    vel, jac, _ = _fields(basis, y)
    v_vel, v_jac, _ = _fields(basis, y * (1.0 + basis.alpha1 * basis.lam))
    vel_q, jac_q, _ = _fields(basis, q)
    a, a_q = jac + _transpose(jac), jac_q + _transpose(jac_q)
    force = np.einsum("ljxy,lxy->jxy", jac_q, v_vel) + _advect(vel_q, v_jac)
    inner = _project(basis, force, _tangent(a, a_q, params.alpha_sum, params.beta))
    outer = _project(basis, _advect(vel, jac_q) - _advect(vel_q, jac))
    return inner, outer


# -- the strain and the state deviator on a synthesised grid ------------------------


def strain(g):
    """A = grad y + (grad y)^T as (A11, A12, A22) from a synthesised grid of y of order >= 1."""
    return 2.0 * g[0, 1], g[0, 2] + g[1, 1], 2.0 * g[1, 2]


def frobenius(a, b):
    """Pointwise A : B of two symmetric tensors given as (t11, t12, t22)."""
    return a[0] * b[0] + 2.0 * (a[1] * b[1]) + a[2] * b[2]


_SIGNS = np.array([1.0, -1.0])[:, None, None]


def turn(w):
    """(w, -w) stacked, so that turn(w) * p[::-1] = w (p2, -p1) for a stacked pair p."""
    return w * _SIGNS


def deviator(params, u, w_turn, ab, ab_x, ab_y):
    """(t11, t12) of the deviator of N(y) + S(y) from the named fields of y.

    u = (u1, u2), ab = (a, b), ab_x and ab_y their partials, w_turn = turn(w)
    of the spin w.
    N(y) = alpha1 (y . grad A + J^T A + A J) + alpha2 A^2 and S(y) = beta |A|^2 A.
    With J = grad y, A J + J^T A = A^2 + w [[-b, a], [a, b]], and A^2 = (a^2 + b^2) I
    is a pressure: only the convected and spin terms and S = 2 beta (a^2 + b^2) A remain.
    """
    a, b = ab
    cubic = (2.0 * params.beta) * (a * a + b * b)
    return cubic * ab + params.alpha1 * (u[0] * ab_x + u[1] * ab_y - w_turn * ab[::-1])


def stress(params, g):
    """Deviatoric (t11, t12, -t11) of N(y) + S(y) from the order-2 grid g = to_grid(y, 2)."""

    def pair(p, q):  # (d_p u1 - d_q u2, d_q u1 + d_p u2) from the partial slots p, q of g
        return np.array([g[0, p] - g[1, q], g[0, q] + g[1, p]])

    w_turn = turn(g[0, 2] - g[1, 1])
    t11, t12 = deviator(params, g[:, 0], w_turn, pair(1, 2), pair(3, 4), pair(4, 5))
    return t11, t12, -t11


# -- the endpoint-form time stepper and the solvers on it ---------------------------

def march_endpoint(basis, params, dt, a0, src, rhs_at, calls=None, tol=FP_TOL):
    """Advance a0 by len(src) Crank-Nicolson/midpoint steps; return all len(src) + 1 nodes.

    Step k solves a_{k+1} = decay a_k + gain (src[k] + rhs(mid)), mid = (a_k + a_{k+1}) / 2,
    with decay = (1 - imp) / (1 + imp), gain = dt / (1 + imp) and imp = dt nu lam / (2 vmult),
    for rhs = rhs_at(k), the time derivative the kernel contributes, by fixed-point
    iteration with the stopping test and failures of `state.march`.  Step k starts from
    decay a_k + gain src[k] plus the explicit terms gain rhs(mid) of the last
    q = min(k, PREDICTOR_ORDER) steps extrapolated to step k by Newton's backward
    differences, e_{k-1} + del e_{k-1} + ... + del^(q-1) e_{k-1}, none at step 0, whose
    first midpoint is then c_0 = (a_0 + decay a_0 + gain src[0]) / 2.  calls, when given,
    collects the rhs evaluations of each step; tol, when given, replaces FP_TOL.
    """
    imp = 0.5 * dt * params.nu * basis.lam / basis.vmult
    decay, gain = (1.0 - imp) / (1.0 + imp), dt / (1.0 + imp)
    n_steps = len(src)
    nodes = np.empty((n_steps + 1, basis.n_modes))
    nodes[0] = a0
    terms = np.empty((n_steps, basis.n_modes))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            rhs = rhs_at(k)
            a_prev = nodes[k]
            base = decay * a_prev + gain * src[k]
            last = terms[k - min(k, PREDICTOR_ORDER) : k]
            predicted = sum(np.diff(last, n, axis=0)[-1] for n in range(len(last)))
            a_new = base + predicted
            residuals = []
            for _ in range(FP_MAX_ITER):
                term = gain * rhs(0.5 * (a_prev + a_new))
                a_next = base + term
                scale = max(float(np.max(np.abs(a_next))), 1e-30)
                if not math.isfinite(scale):
                    raise FixedPointDiverged("non-finite values", step=k, residuals=residuals)
                residuals.append(float(np.max(np.abs(a_next - a_new))) / scale)
                a_new = a_next
                if residuals[-1] <= tol:
                    break
            else:
                raise FixedPointDiverged("did not converge", step=k, residuals=residuals)
            if calls is not None:
                calls.append(len(residuals))
            nodes[k + 1], terms[k] = a_new, term
    return nodes


def solve_state_endpoint(y0, control, params, calls=None, tol=FP_TOL):
    """Coefficients of `solve_state` by the endpoint-form stepper."""
    basis = y0.basis
    u_term = control.midpoints() / basis.vmult

    def rhs_at(k):
        return lambda mid: state_rhs_coeffs(basis, params, mid) / basis.vmult

    return march_endpoint(basis, params, control.dt, y0.coeffs, u_term, rhs_at, calls, tol)


def solve_linearized_endpoint(y_traj, psi, params, calls=None, tol=FP_TOL):
    """Coefficients of `solve_linearized` by the endpoint-form stepper."""
    basis = y_traj.basis
    y_mid, psi_mid = y_traj.midpoints(), psi.midpoints()

    def rhs_at(k):
        return lambda mid: linearized_rhs_coeffs(basis, params, y_mid[k], mid) / basis.vmult

    zero = np.zeros(basis.n_modes)
    return march_endpoint(basis, params, y_traj.dt, zero, psi_mid / basis.vmult, rhs_at, calls, tol)


def solve_adjoint_endpoint(y_traj, f, params, calls=None, tol=FP_TOL):
    """Coefficients of `solve_adjoint`, in reversed time, by the endpoint-form stepper."""
    basis = y_traj.basis
    y_mid, f_mid = y_traj.midpoints()[::-1], f.midpoints()[::-1]

    def rhs_at(k):
        return lambda mid: adjoint_rhs_terms(basis, params, y_mid[k], mid) / basis.vmult

    zero = np.zeros(basis.n_modes)
    return march_endpoint(basis, params, y_traj.dt, zero, f_mid / basis.vmult, rhs_at, calls, tol)


def adjoint_kernel_terms(basis, params, y, q):
    """(inner, outer) of `adjoint_rhs_terms` at the frozen state y: the slot grids
    of one AdjointWork call, projected slot by slot; the w slot is -outer."""
    work = AdjointWork(basis, params)
    adjoint_rhs_terms(basis, params, y, q, work)
    r = project(basis, work.slots[:, 0], slots("w", "a", "b", "u1", "u2"))  # its one step
    return r[1:].sum(axis=0), -r[0]


# -- the spatial weak forms of the linearized and adjoint equations ----------------

def linearized_form(y, z, phi, params):
    """Spatial weak form a(z, phi) of the linearized equation at frozen y.

    a(z, phi) = 2 nu (Dz, Dphi) + b(y, v(z), phi) + b(z, v(y), phi)
              + b(phi, y, v(z)) + b(phi, z, v(y))
              + (alpha1 + alpha2)(A(y)A(z) + A(z)A(y), grad phi)
              + beta (|A(y)|^2 A(z), grad phi)
              + 2 beta ((A(z):A(y)) A(y), grad phi).
    """
    basis = y.basis
    v_y = Field(y.coeffs * basis.vmult, basis)
    v_z = Field(z.coeffs * basis.vmult, basis)
    # 2 nu (Dz, Dphi) = nu (grad z, grad phi) = nu sum lam c_z c_phi / vmult
    visc = params.nu * float(np.sum(z.coeffs * phi.coeffs * basis.lam / basis.vmult))
    conv = (
        trilinear_b(y, v_z, phi)
        + trilinear_b(z, v_y, phi)
        + trilinear_b(phi, y, v_z)
        + trilinear_b(phi, z, v_y)
    )
    return visc + conv + _stress_pairing(y, z, phi, params)


def adjoint_form(y, p, phi, params):
    """Spatial weak form a*(p, phi) of the adjoint equation at frozen y.

    Transposition check: a*(p, z) equals linearized_form's a(z, p).
    """
    basis = y.basis
    v_y = Field(y.coeffs * basis.vmult, basis)
    v_phi = Field(phi.coeffs * basis.vmult, basis)
    visc = params.nu * float(np.sum(p.coeffs * phi.coeffs * basis.lam / basis.vmult))
    conv = (
        -trilinear_b(phi, p, v_y)
        + trilinear_b(p, phi, v_y)
        + trilinear_b(p, y, v_phi)
        - trilinear_b(y, p, v_phi)
    )
    return visc + conv + _stress_pairing(y, p, phi, params)


def _stress_pairing(y, z, phi, params):
    """(T, grad phi), T the cubic tangent stress of A(y) along A(z).

    The stress term of linearized_form and adjoint_form, whose (alpha1 + alpha2) part vanishes.
    """
    ab, ab_z, ab_phi = (to_grid(f, rows=_STRAIN) for f in (y, z, phi))
    # S'(y)[z] = beta (|A|^2 A(z) + 2 (A(y) : A(z)) A(y)), |A|^2 = 2 (a^2 + b^2)
    t = params.beta * (2.0 * np.sum(ab * ab, axis=0) * ab_z + 4.0 * np.sum(ab * ab_z, axis=0) * ab)
    # T : grad phi = T : A(phi) / 2 = t11 a_phi + t12 b_phi for traceless symmetric T
    return y.basis.quad(np.sum(t * ab_phi, axis=0))
