"""Independent reference computations for the test suite.

Everything here evaluates the analytic mode formulas directly on inclusive
[0, pi]^2 tensor grids and integrates by composite trapezoid, bypassing the
package's synthesis/projection pipeline entirely.  Trapezoid quadrature is exact
for the trigonometric integrands involved, so these serve as high-precision
oracles at whatever resolution the caller picks.
"""

import math

import numpy as np


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
