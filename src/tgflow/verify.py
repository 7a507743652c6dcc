"""One-command property harness: every proved identity becomes a pass/fail check.

`run_suite` executes the full battery (basis invariants, transforms, discrete
energy identity and inequality, duality gap, Taylor test, stability scaling,
adjoint gradient check, optimizer contract) at a size set by the level, and
returns a JSON-serializable report that is bitwise reproducible for a fixed
seed.  Every check records its measured value and the tolerance it was held
to; failures are collected, never raised.

`stability_check` measures the control-to-state stability ratio across
perturbation sizes, and `uniqueness_diagnostics` estimates the constants
entering the large-cost uniqueness condition (kappa, Gamma, gamma,
lambda-tilde, all reported as lower bounds from randomized maximization with
local ascent) next to an empirical multi-start agreement test.  The stability
and adjoint constants that the theory leaves abstract are never asserted
numerically, only reported.

Both optimizer runs stop on the gradient mapping measured in the admissible
ball's own norm, the trapezoidal L2(0,T; H1) norm ||.||_W, in which the radial
retraction is the exact projection.  Their tolerances are derived for that
mapping: the optimizer contract's certifies the sampled VI floor, and the
multi-start test's keeps each minimizer within a tenth of the agreement bound.

Reordering floating-point operations, as the midpoint form of `state.march`
and the scales folded into its kernels do, moves report values by about 1e-12
relative or less.  Defects, small differences of O(1) quantities (the
`state_energy` identity error, the `duality_gap`, the `adjoint_gradient` error,
the `manufactured_convergence` errors), move by the roundoff of what they
difference: by O(1) of their own size where they are near roundoff themselves.
Values that amplify it are compared by `passed` flags and the optimizer's
iteration count: the `gateaux_taylor` slope and remainders, the
`optimizer_contract` costs and `vi_min`, and the `stability_scaling` spread.
A new first midpoint iterate moves each step within FP_TOL.  Predicting it from
the explicit terms moved the fast seed-0 `manufactured_convergence` errors by up
to 1.1e-7 relative, `duality_gap` from 1.4e-14 to 3.6e-14, `adjoint_gradient`
from 8.7e-12 to 1.1e-11 and the Taylor slope and stability spread by 7e-6
relative; the optimizer may stop at another iteration (no fast or full seed did).
Starting step 0 from c_0, iterating on the explicit term and building the
manufactured control from two kernel calls moved, at seed 0, the fast (full)
`manufactured_convergence` errors by up to 6.5e-10 (2.8e-9) relative,
`adjoint_gradient` from 1.10e-11 to 1.27e-11 and the Taylor slope by 5.5e-6.
The grid floor 2M + 1 in place of 4M moved `trilinear_skew_symmetry` from 4.8e-15
to 2.1e-15, the basis and transform defects by O(1) of their 1e-16 size and the
optimizer costs by 7e-13 relative; no optimizer iteration count changed.
Windowed linearized and adjoint solves moved, at fast seed 0, `duality_gap` from
3.5e-14 to 1.6e-14, `adjoint_gradient` by 2e-4 and the Taylor slope by 5e-8
relative; the state checks stay byte-identical and no iteration count changed.
Windowed state sweeps moved, at fast seed 0, the `state_energy` identity error from
9.3e-14 to 6.4e-16, the `manufactured_convergence` errors by up to 3.4e-8 relative,
`adjoint_gradient` from 1.27e-11 to 1.31e-11, the Taylor slope and the stability spread
by 2e-6 relative and the optimizer costs by 2e-10 relative; `duality_gap` moved by 2e-16
relative, and no iteration count changed.  The kernels' field-major buffers move nothing.
The basis check's one synthesis of every mode and pairwise quadrature reproduce the
per-mode `basis_invariants` values bit for bit, `orthonormality` and `mu` included.
`optimizer_contract` lists each of its criteria, `control_norm` (the returned
control's ball norm against the radius times 1 + 1e-12) among them.
"""

from __future__ import annotations

import math

import numpy as np

from .adjoint import check_duality, solve_adjoint
from .control import (
    CostConfig,
    OptimizeOptions,
    eval_cost,
    gradient_direction,
    optimize,
    random_admissible,
)
from .errors import TgflowError
from .linearized import gateaux_taylor_test
from .params import ModelParams, validate_params
from .spectral import (
    Field,
    build_basis,
    fields,
    invert_modified_stokes,
    apply_modified_stokes,
    norm_weights,
    norms,
    project_div,
    to_coeffs,
    to_grid,
    trilinear_b,
)
from .state import energy_balance_residuals, energy_report, manufactured_control, solve_state
from .trajectory import (
    ControlSpace,
    Trajectory,
    norm_l2h1_trap,
    pair_l2l2_mid,
    random_field,
    random_traj,
    time_grid,
)

__all__ = ["run_suite", "stability_check", "uniqueness_diagnostics", "LEVELS"]

LEVELS = ("fast", "full")

_SIZES = {
    "fast": dict(max_mode=3, n_steps=32, horizon=0.5, draws=4, grad_draws=2, opt_iters=80),
    "full": dict(max_mode=4, n_steps=64, horizon=0.5, draws=10, grad_draws=5, opt_iters=100),
}

_PARAMS = dict(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4)
_GRADIENT = fields("u1", "u2", "u1_x", "u2_x", "u1_y", "u2_y")


def _check(name, passed, measured, tolerance, details=None):
    return {
        "name": name,
        "passed": bool(passed),
        "measured": measured,
        "tolerance": tolerance,
        "details": details or {},
    }


# -- individual checks --------------------------------------------------------


def _check_basis(basis):
    edges = [0, basis.grid_size]  # grid rows/columns lying on x = 0 and x = pi
    # every unit mode in one synthesis, each field (n_modes, Q, Q)
    grids = to_grid(Field(np.eye(basis.n_modes), basis), rows=_GRADIENT).swapaxes(0, 1)
    u1, u2, u1_x, u2_x, u1_y, u2_y = grids
    div_max = float(np.max(np.abs(u1_x + u2_y)))
    d12 = 0.5 * (u1_y + u2_x)
    # y . eta on the x- and y-walls, then the tangential stress on both
    walls = (u1[:, edges], u2[:, :, edges], d12[:, edges], d12[:, :, edges])
    bc_max = max(float(np.max(np.abs(g))) for g in walls)
    # the L2 and V Gram matrices by quadrature of the products of all pairs of modes,
    # (Du, Dz) = (A(u), A(z)) / 4 with A = (A11, A12, A22) = (2 u1_x, u1_y + u2_x, 2 u2_y);
    # np.dot ends each pair's quadrature in the vector dot that SpectralBasis.quad ends in
    pairs = lambda g: g[:, None] * g[None, :]
    quad = lambda g: np.dot(basis.weights @ g, basis.weights)
    l2 = quad(pairs(u1) + pairs(u2))
    frob = pairs(2.0 * u1_x) + 2.0 * pairs(u1_y + u2_x) + pairs(2.0 * u2_y)
    vv = l2 + 2.0 * basis.alpha1 * (0.25 * quad(frob))
    ortho_err = float(np.max(np.abs(vv - np.eye(basis.n_modes))))
    # eigenratio mu against the quadrature Gram of the W inner product
    v_sq = np.diag(vv)
    w_sq = v_sq + basis.vmult ** 2 * np.diag(l2)
    mu_err = float(np.max(np.abs(w_sq / v_sq - basis.mu) / basis.mu))
    return _check(
        "basis_invariants",
        div_max <= 1e-12 and bc_max <= 1e-12 and ortho_err <= 1e-10 and mu_err <= 1e-10,
        {"divergence": div_max, "boundary": bc_max, "orthonormality": ortho_err, "mu": mu_err},
        {"divergence": 1e-12, "boundary": 1e-12, "orthonormality": 1e-10, "mu": 1e-10},
    )


def _check_transforms(basis, rng):
    f = random_field(basis, rng)
    g = to_grid(f)
    round_err = float(np.max(np.abs(to_coeffs(basis, g).coeffs - f.coeffs)))
    scale = float(np.max(np.abs(f.coeffs)) + 1e-30)
    l2_coef = norms(f, "L2")
    l2_quad = math.sqrt(basis.quad(g[0] ** 2 + g[1] ** 2))
    parseval = abs(l2_coef - l2_quad) / max(l2_quad, 1e-30)
    back = apply_modified_stokes(invert_modified_stokes(f))
    sto_err = float(np.max(np.abs(back.coeffs - f.coeffs))) / scale
    return _check(
        "transforms",
        round_err / scale <= 1e-12 and parseval <= 1e-10 and sto_err <= 1e-12,
        {"roundtrip": round_err / scale, "parseval": parseval, "stokes_inverse": sto_err},
        {"roundtrip": 1e-12, "parseval": 1e-10, "stokes_inverse": 1e-12},
    )


def _check_skew(basis, rng, draws):
    worst = 0.0
    for _ in range(draws):
        y = random_field(basis, rng)
        z = random_field(basis, rng)
        phi = random_field(basis, rng)
        b = trilinear_b(y, z, phi)
        worst = max(worst, abs(b + trilinear_b(y, phi, z)) / max(abs(b), 1e-10))
    return _check("trilinear_skew_symmetry", worst <= 1e-10, worst, 1e-10)


def _check_dissipativity(basis, params, rng, draws):
    worst_rel = 0.0
    worst_sign = -np.inf
    for _ in range(draws):
        y = random_field(basis, rng, amp=0.6)
        a, b = to_grid(y, rows=fields("a", "b"))  # A(y) = [[a, b], [b, -a]]
        a_sq = 2.0 * (a * a + b * b)
        s11, s12 = params.beta * a_sq * a, params.beta * a_sq * b  # S(y) = beta |A|^2 A
        div_s = project_div(basis, np.array([[s11, s12], [s12, -s11]]))
        lhs = float(np.sum(div_s.coeffs * y.coeffs / basis.vmult))
        rhs = -0.5 * params.beta * basis.quad(a_sq ** 2)
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(abs(rhs), 1e-30))
        worst_sign = max(worst_sign, lhs)
    return _check(
        "cubic_dissipativity",
        worst_rel <= 1e-8 and worst_sign <= 1e-12,
        {"identity_rel_err": worst_rel, "max_pairing": worst_sign},
        {"identity_rel_err": 1e-8, "max_pairing": 1e-12},
    )


def _check_energy(basis, params, times, rng):
    y0 = random_field(basis, rng, amp=0.4)
    control = random_traj(basis, times, rng, amp=0.3)
    traj = solve_state(y0, control, params)
    res = energy_balance_residuals(traj, control, params)
    scale = float(np.max(np.sum(traj.coeffs ** 2, axis=1)))
    identity_err = float(np.max(np.abs(res))) / max(scale, 1e-30)
    # inequality form: total quadratic growth bounded by data plus control work
    v_sq = np.sum(traj.coeffs ** 2, axis=1)
    u_mid, y_mid = control.midpoints(), traj.midpoints()
    work = 2.0 * traj.dt * np.cumsum(np.sum(u_mid * y_mid / basis.vmult, axis=1))
    slack = float(np.min(v_sq[0] + work - v_sq[1:])) / max(scale, 1e-30)
    return _check(
        "state_energy",
        identity_err <= 1e-8 and slack >= -1e-6,
        {"identity_rel_err": identity_err, "inequality_slack": slack},
        {"identity_rel_err": 1e-8, "inequality_slack": -1e-6},
    )


def _check_convergence(basis, params, horizon, refinements):
    g = lambda t: 0.4 * (1.0 + 0.5 * math.sin(3.0 * t))
    gp = lambda t: 0.6 * math.cos(3.0 * t)
    errs = []
    steps = [32 * 2 ** j for j in range(refinements + 1)]
    for n_steps in steps:
        times = time_grid(horizon, n_steps)
        control, ystar = manufactured_control(basis, params, times, 0, g, gp)
        traj = solve_state(Field(ystar.coeffs[0].copy(), basis), control, params)
        errs.append(float(np.max(np.sqrt(np.sum((traj.coeffs - ystar.coeffs) ** 2, axis=1)))))
    log_e = np.log(errs)
    log_h = np.log([horizon / s for s in steps])
    order = float(np.polyfit(log_h, log_e, 1)[0])
    return _check(
        "manufactured_convergence", order >= 1.8, order, 1.8, {"errors": errs, "steps": steps}
    )


def _check_duality(basis, params, times, rng, draws):
    y0 = random_field(basis, rng, amp=0.4)
    control = random_traj(basis, times, rng, amp=0.3)
    traj = solve_state(y0, control, params)
    worst = 0.0
    for _ in range(draws):
        psi = random_traj(basis, times, rng, amp=0.5)
        f = random_traj(basis, times, rng, amp=0.5)
        _, _, gap = check_duality(traj, psi, f, params)
        worst = max(worst, gap)
    return _check("duality_gap", worst <= 1e-6, worst, 1e-6)


def _check_taylor(basis, params, times, rng, rhos):
    y0 = random_field(basis, rng, amp=0.3)
    control = random_traj(basis, times, rng, amp=0.3)
    psi = random_traj(basis, times, rng, amp=0.5)
    result = gateaux_taylor_test(control, psi, y0, rhos, params)
    min_slope = float(np.min(result.slopes))
    return _check(
        "gateaux_taylor",
        min_slope >= 0.9,
        min_slope,
        0.9,
        {"rhos": list(result.rhos), "remainders": list(result.remainders)},
    )


def _check_stability(basis, params, times, rng):
    y0 = random_field(basis, rng, amp=0.3)
    u1 = random_traj(basis, times, rng, amp=0.3)
    psi = random_traj(basis, times, rng, amp=0.3)
    u2 = Trajectory(times, u1.coeffs + psi.coeffs, basis, "control")
    table = stability_check(u1, u2, y0, params)
    ratios = [row["ratio"] for row in table["sweep"]]
    spread = max(ratios) / max(min(ratios), 1e-30) - 1.0
    return _check("stability_scaling", spread <= 0.25, spread, 0.25, {"ratios": ratios})


def _check_gradient(basis, params, times, rng, draws):
    y0 = random_field(basis, rng, amp=0.2)
    u_true = random_traj(basis, times, rng, amp=0.4)
    target = solve_state(y0, u_true, params)
    cfg = CostConfig(y_d=target.with_kind("target"), lam=1e-3, radius=10.0)
    control = random_traj(basis, times, rng, amp=0.2)
    g, _, _ = gradient_direction(control, y0, cfg, params)
    rho = 1e-4
    worst = 0.0
    for _ in range(draws):
        psi = random_traj(basis, times, rng, amp=0.5)
        pred = pair_l2l2_mid(g, psi)
        up = Trajectory(times, control.coeffs + rho * psi.coeffs, basis, "control")
        um = Trajectory(times, control.coeffs - rho * psi.coeffs, basis, "control")
        jp, _ = eval_cost(up, y0, cfg, params)
        jm, _ = eval_cost(um, y0, cfg, params)
        fd = (jp - jm) / (2.0 * rho)
        worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-30))
    return _check("adjoint_gradient", worst <= 1e-4, worst, 1e-4)


def _check_optimizer(basis, params, times, rng, max_iter, vi_tol=1e-6):
    y0 = random_field(basis, rng, amp=0.2)
    u_true = random_traj(basis, times, rng, amp=0.5)
    target = solve_state(y0, u_true, params)
    radius = 2.0 * norm_l2h1_trap(u_true)
    cfg = CostConfig(y_d=target.with_kind("target"), lam=1e-6, radius=radius)
    u0 = Trajectory(times, np.zeros_like(u_true.coeffs), basis, "control")
    # An inner tolerance small enough that convergence certifies the VI floor.
    # With G the W gradient, s0 = 1 the mapping step, V = proj(U - s0 G) and
    # m = (U - V) / s0, the exact projection gives <U - s0 G - V, psi - V>_W <= 0
    # for every admissible psi, so
    #   (psi - U, g) = <G, psi - V>_W - <G, U - V>_W
    #                >= <m, psi - V>_W - s0 <G, m>_W >= -||m||_W (2K + s0 ||G||_W),
    # as psi and V both lie in the ball of radius K.  With ||m||_W <= tol =
    # vi_tol / (4 (1 + K)) the residual is >= -vi_tol >= -vi_tol (1 + |J|)
    # whenever ||G||_W <= 4 + 2K; at convergence ||G||_W is near 1e-7 here.
    opts = OptimizeOptions(max_iter=max_iter, tol=vi_tol / (4.0 * (1.0 + radius)))
    u_star, report = optimize(u0, y0, cfg, params, opts, rng)
    reduction = report.cost[-1] / max(report.cost[0], 1e-30)
    monotone = all(b < a for a, b in zip(report.cost, report.cost[1:]))
    vi_floor = -vi_tol * (1.0 + abs(report.cost[-1]))
    vi_min = min(report.vi_residuals)
    control_norm, bound = norm_l2h1_trap(u_star), radius * (1.0 + 1e-12)
    return _check(
        "optimizer_contract",
        reduction <= 0.05 and monotone and vi_min >= vi_floor and control_norm <= bound,
        {"cost_reduction": reduction, "vi_min": vi_min, "monotone": monotone,
         "control_norm": control_norm},
        {"cost_reduction": 0.05, "vi_min": vi_floor, "monotone": True, "control_norm": bound},
        {
            "iterations": report.n_iter,
            "final_cost": report.cost[-1],
            "initial_cost": report.cost[0],
            "converged": report.converged,
        },
    )


# -- public operations ---------------------------------------------------------


def run_suite(level: str = "fast", seed: int = 0) -> dict:
    """Run every check at the chosen level; never raises on check failure."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    size = _SIZES[level]
    params = validate_params(**_PARAMS)
    basis = build_basis(size["max_mode"], params.alpha1)
    times = time_grid(size["horizon"], size["n_steps"])
    rng = np.random.default_rng(seed)
    rhos = (1e-1, 1e-2, 1e-3) if level == "fast" else (1e-1, 1e-2, 1e-3, 1e-4)
    refinements = 2 if level == "fast" else 3

    plan = [
        lambda: _check_basis(basis),
        lambda: _check_transforms(basis, rng),
        lambda: _check_skew(basis, rng, size["draws"]),
        lambda: _check_dissipativity(basis, params, rng, size["draws"]),
        lambda: _check_energy(basis, params, times, rng),
        lambda: _check_convergence(basis, params, size["horizon"], refinements),
        lambda: _check_duality(basis, params, times, rng, size["draws"]),
        lambda: _check_taylor(basis, params, times, rng, rhos),
        lambda: _check_stability(basis, params, times, rng),
        lambda: _check_gradient(basis, params, times, rng, size["grad_draws"]),
        lambda: _check_optimizer(basis, params, times, rng, size["opt_iters"]),
    ]
    checks = []
    for job in plan:
        try:
            checks.append(job())
        except TgflowError as exc:  # collect, never abort the suite
            checks.append(_check(type(exc).__name__, False, str(exc), None))
    return {
        "suite": "tgflow-verify",
        "level": level,
        "seed": int(seed),
        "model": dict(_PARAMS),
        "sizes": size,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def stability_check(
    u1: Trajectory,
    u2: Trajectory,
    y0: Field,
    params: ModelParams,
    eps=(1e-1, 1e-2, 1e-3),
    y0_2: Field | None = None,
) -> dict:
    """Control-to-state stability table.

    For each perturbation size e the control u1 + e (u2 - u1) is solved and
    sup_t ||y_e - y_1||_W^2 / e^2 reported; the ratio is asymptotically the
    squared linearized response, so it plateaus as e shrinks.  When y0_2 is
    given the initial-data variant is also reported (same controls, different
    initial states).  eps is one or more positive finite sizes (ValueError otherwise).
    """
    eps = tuple(eps)
    if not eps or not all(0.0 < e < math.inf for e in eps):
        raise ValueError(f"eps must be one or more positive finite values, got {eps}")
    base = solve_state(y0, u1, params)

    def w_dist(traj):  # ||y(t_k) - y_1(t_k)||_W at every node
        diff_sq = (traj.coeffs - base.coeffs) ** 2
        return np.sqrt(np.sum(diff_sq * norm_weights(u1.basis, "W"), axis=1))

    direction = u2.coeffs - u1.coeffs
    d_norm_sq = ControlSpace(u1.times, u1.basis).mid(direction, direction)
    sweep = []
    for e in eps:
        pert = Trajectory(u1.times, u1.coeffs + e * direction, u1.basis, "control")
        traj = solve_state(y0, pert, params)
        sup_sq = float(np.max(w_dist(traj))) ** 2
        sweep.append(
            {
                "eps": float(e),
                "sup_w_sq": sup_sq,
                "ratio": sup_sq / (e ** 2 * max(d_norm_sq, 1e-30)),
            }
        )
    out = {"sweep": sweep, "control_direction_l2l2_sq": d_norm_sq}
    if y0_2 is not None:
        traj2 = solve_state(y0_2, u1, params)
        dw = w_dist(traj2)
        out["initial_data"] = {
            "y0_diff_w_sq": norms(Field(y0_2.coeffs - y0.coeffs, y0.basis), "W") ** 2,
            "sup_w_sq": float(np.max(dw)) ** 2,
            "final_w_sq": float(dw[-1]) ** 2,
        }
    return out


def _maximize(ratio, basis, rng, n_samples, n_ascent):
    """Lower bound for the sup of a 0-homogeneous ratio of coefficient vectors.

    The best of n_samples normal draws starts a normalized finite-difference
    ascent of at most n_ascent steps.
    """
    best_c, best = None, -np.inf
    for _ in range(n_samples):
        c = rng.normal(size=basis.n_modes)
        val = ratio(c)
        if val > best:
            best, best_c = val, c
    c = best_c / np.linalg.norm(best_c)
    ascent = ratio(c)
    step = 0.3
    h = 1e-6
    for _ in range(n_ascent):
        grad = np.zeros_like(c)
        for i in range(c.size):
            e = np.zeros_like(c)
            e[i] = h
            grad[i] = (ratio(c + e) - ratio(c - e)) / (2.0 * h)
        g_norm = np.linalg.norm(grad)
        if g_norm < 1e-14:
            break
        cand = c + step * grad / g_norm
        cand /= np.linalg.norm(cand)
        val = ratio(cand)
        if val > ascent:
            ascent, c = val, cand
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return max(best, ascent)


def estimate_kappa(basis, rng, n_samples=200, n_ascent=50) -> float:
    """Lower bound for the embedding constant ||u||_{W14}^2 <= kappa ||u||_W^2."""

    def ratio(c):
        f = Field(c, basis)
        return norms(f, "W14") ** 2 / max(norms(f, "W") ** 2, 1e-30)

    return _maximize(ratio, basis, rng, n_samples, n_ascent)


def estimate_gamma_curl(basis, rng, n_samples=200, n_ascent=50) -> float:
    """Lower bound for Gamma in |(curl v(z) x z, phi)| <= Gamma ||phi||_H2 ||z||_H2^2.

    For fixed z the optimal test function is the H2 Riesz representative, so
    only the maximization over z is randomized.
    """
    h2 = norm_weights(basis, "H2")

    def ratio(c):
        z = Field(c, basis)
        vel = to_grid(z)
        v = to_grid(Field(c * basis.vmult, basis), 1)
        curl_v = v[1, 1] - v[0, 2]
        g = np.stack([-curl_v * vel[1], curl_v * vel[0]])
        d = to_coeffs(basis, g).coeffs / basis.vmult
        dual = math.sqrt(float(np.sum(d ** 2 / h2)))
        return dual / max(norms(z, "H2") ** 2, 1e-30)

    return _maximize(ratio, basis, rng, n_samples, n_ascent)


def uniqueness_diagnostics(
    cfg: CostConfig,
    params: ModelParams,
    n_starts: int = 3,
    seed: int = 0,
    opt_max_iter: int = 60,
    y0: Field | None = None,
) -> dict:
    """Estimate the large-cost uniqueness constants and test multi-start agreement.

    Estimates kappa, Gamma (randomized maximization, lower bounds), gamma
    (sup_t H3 norm of the reference solve under U = 0) and lambda_tilde
    (sup_t W norm of the adjoint driven by y - y_d).  Then projected L-BFGS
    runs from n_starts random admissible controls at
    lam = 10 * (Gamma + 4 kappa (alpha1 + alpha2) + 12 kappa beta gamma) * lambda_tilde
    and the max pairwise midpoint L2 distance of the minimizers is reported.  The
    stability constant of the theory is not computable, so the threshold and
    the empirical outcome are presented side by side without asserting the
    theoretical inequality.
    """
    if n_starts < 2:
        raise ValueError("n_starts must be >= 2")
    basis = cfg.y_d.basis
    times = cfg.y_d.times
    rng = np.random.default_rng(seed)

    kappa = estimate_kappa(basis, rng)
    gamma_curl = estimate_gamma_curl(basis, rng)

    if y0 is None:
        y0 = Field(np.zeros(basis.n_modes), basis)
    u_zero = Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "control")
    ref = solve_state(y0, u_zero, params)
    gamma_sup = energy_report(ref, params).gamma
    f = Trajectory(ref.times, ref.coeffs - cfg.y_d.coeffs, basis, "state")
    p_ref = solve_adjoint(ref, f, params)
    lam_tilde = float(np.sqrt(np.max(np.sum(p_ref.coeffs ** 2 * norm_weights(basis, "W"), axis=1))))

    proxy = (
        gamma_curl + 4.0 * kappa * params.alpha_sum + 12.0 * kappa * params.beta * gamma_sup
    ) * lam_tilde
    lam_big = 10.0 * max(proxy, 1e-12)

    cfg_big = CostConfig(y_d=cfg.y_d, lam=lam_big, radius=cfg.radius)
    # The cost is lam_big-strongly convex in the midpoint pairing, so a start
    # that stops with adjoint gradient g lies within ||g||_mid / lam_big of the
    # minimizer, and 5e-6 K per start keeps the pairwise distance 10x below
    # 1e-4 K.  The optimizer stops on the W mapping, ||G||_W at interior
    # points, and ||g||_mid = sqrt((1 + lam_i) / mu) ||G||_W for a component in
    # Stokes mode i whose midpoint averages shrink it by sqrt(mu) in time.
    # Dividing by 1 + max lam_i once for the spatial factor and once for 1 / mu
    # covers every time component with sqrt(mu) >= 1 / sqrt(1 + max lam_i)
    # (a period above 2.25 steps at M = 4); the near-zigzag rest is nearly
    # invisible to the midpoint cost.
    opts = OptimizeOptions(
        max_iter=opt_max_iter, tol=5e-6 * lam_big * cfg.radius / (1.0 + float(np.max(basis.lam)))
    )
    space = ControlSpace(times, basis)
    minimizers = []
    for _ in range(n_starts):
        u_init = random_admissible(space, cfg.radius, rng, fill=float(rng.uniform(0.3, 0.9)))
        start = Trajectory(times, u_init, basis, "control")
        minimizers.append(optimize(start, y0, cfg_big, params, opts, rng)[0])
    dist = 0.0
    for i in range(n_starts):
        for j in range(i + 1, n_starts):
            diff = minimizers[i].coeffs - minimizers[j].coeffs
            dist = max(dist, float(np.sqrt(space.mid(diff, diff))))

    return {
        "kappa_lower_bound": kappa,
        "gamma_curl_lower_bound": gamma_curl,
        "gamma_sup_h3": gamma_sup,
        "lambda_tilde": lam_tilde,
        "threshold_proxy": proxy,
        "lambda_used": lam_big,
        "n_starts": n_starts,
        "max_pairwise_distance": dist,
        "radius": cfg.radius,
        "agreement_tolerance": 1e-4 * cfg.radius,
        "agrees": bool(dist <= 1e-4 * cfg.radius),
        "note": "kappa and Gamma are randomized lower bounds; the stability "
        "constant is abstract, so the threshold is a proxy and the theoretical "
        "inequality is reported, not asserted.",
    }
