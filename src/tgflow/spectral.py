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
j = 0..G, over the square itself (G = grid_size, both walls included).  Every
scalar field the package forms from a mode is one product sin/cos(m x) times
sin/cos(n y) with its own (M, M) amplitude over the modes: the velocity
components and their partials, and, with s = s_mn and lam = m^2 + n^2, the
components of the strain A(u) = [[a, b], [b, -a]] and the spin w,

    a = d_x u1 - d_y u2 = 2 s m n cos cos,     b = d_y u1 + d_x u2 = s (m^2 - n^2) sin sin,
    w = d_y u1 - d_x u2 = -s lam sin sin,

the partials of a and b, and the spin w_v = (1 + alpha1 lam) w of v(u).  The
basis stores one table of these named fields (FIELDS; `fields` names a run of
its rows) and, for the fields anything is tested against, one projection table
(SLOTS; `slots` names a run).  Every right-hand side makes one pass through
three kernels:

- synthesis (to_grid with rows, on one coefficient vector or a stack): with C
  the (M, M) coefficient matrix, the K fields a kernel reads come out of one
  multiply and two batched matrix products, X_k^T (C * amp_k) Y_k, as one
  (K, G + 1, G + 1) grid per vector.  No derivative is ever taken of grid data;
- a few broadcast products of those grids with each other or with weight grids
  of a frozen state.  In 2D, A^2 = (a^2 + b^2) I and A B + B A = (A : B) I are
  pressures, which no projection sees, and are never formed; each stress is the
  pair (t11, t12) of the traceless (t11, t12, -t11).  Convection is taken in
  Lamb form, (u . grad) u = grad(|u|^2 / 2) + w (u2, -u1), and so is its
  linearization (y . grad) z + (z . grad) y = grad(y . z) + w_z (y2, -y1) + w_y (z2, -z1)
  and the adjoint force (grad q)^T v + (q . grad) v = grad(q . v) + w_v (q2, -q1):
  the gradients are pressures too, so the kernels form the w terms from fields
  they already hold.  The adjoint's (y . grad) q - (q . grad) y is the curl of
  psi = q1 y2 - q2 y1, which vanishes on the walls, so it pairs with h as
  -(psi, w(h)): one scalar grid tested against w;
- projection (project), the transpose of synthesis: grid k is paired with
  slot row k of every mode in one batched product,
  c_i = (1 + alpha1 lam_i) quad(g_k f_k(h_i)).  A force fills the u1 and u2
  slots and a deviatoric stress, by summation by parts for P div T, the a and
  b slots, since T : grad h = t11 a(h) + t12 b(h).  The trapezoid weights sit
  in the projection tables, so no pass over the grid applies them.

Each rhs kernel is a Workspace, and one call of it is the whole pass above; it
refuses a model whose alpha1 is not the basis's, which vmult holds.  A solver
runs its kernel hundreds of times on one basis, so it makes one workspace per
solve: the grids live in buffers allocated once, and the per-mode factor the
time stepper applies to the kernel's result is folded into the projection
amplitudes.  Every kernel evaluates a window of steps per call, the pass above
over a stack: the state a step per coefficient row, a linearized or adjoint
kernel a step per frozen state, against weight grids built from one synthesis.
Its buffers are field-major, each field's grids of the window's steps next to
each other, so each pointwise op runs once over n Q^2 contiguous values; the
synthesis writes, and the state's mixing product reads, through views with the
steps first.  Every synthesis and projection item is the product it is on one
step, so each row of a window has the bytes of that row alone.

to_grid by order, to_coeffs and project_div are the velocity cases of the two
transforms; the modified Stokes operators apply and invert vmult.

Quadrature is the trapezoid rule per axis, weights h (1/2, 1, ..., 1, 1/2)
with h = pi / G (quad).  Every field and derivative here is
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
exact once grid_size >= 2M + 1, the smallest resolution accepted and the
default: a finer grid, up to MAX_GRID_SIZE, changes results only by roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import GridMismatch, ShapeMismatch, UnknownKind

__all__ = [
    "SpectralBasis",
    "Field",
    "Workspace",
    "FIELDS",
    "SLOTS",
    "fields",
    "slots",
    "build_basis",
    "min_grid_size",
    "project",
    "signed_rows",
    "steps_first",
    "to_grid",
    "window_at",
    "to_coeffs",
    "project_div",
    "invert_modified_stokes",
    "apply_modified_stokes",
    "advect",
    "trilinear_b",
    "norm_weights",
    "norms",
]

NORM_KINDS = ("L2", "V", "W", "H1", "H2", "H3", "W14")
MAX_GRID_SIZE = 1024  # the finest grid accepted, 8.4 MB a grid; configs and perfbench run <= 49

# Base fields as sums of velocity partials (sign, component, x order, y order).
_BASE_FIELDS = {
    "u1": ((1, 0, 0, 0),),
    "u2": ((1, 1, 0, 0),),
    "a": ((1, 0, 1, 0), (-1, 1, 0, 1)),  # d_x u1 - d_y u2
    "b": ((1, 0, 0, 1), (1, 1, 1, 0)),  # d_y u1 + d_x u2
    "w": ((1, 0, 0, 1), (-1, 1, 1, 0)),  # d_y u1 - d_x u2
}
# The rows of the field table: a base field, then "_" and one letter per partial
# (u1_xy = d_x d_y u1, a_x = d_x a); w_v is the spin of v(u) = u - alpha1 Lap u.
# A kernel reads, and projection writes, one contiguous run of rows, so this order
# is what every kernel rests on; `fields` and `slots` raise at import when a run a
# module asks for does not exist.  The runs: the state and linearized rhs (and the
# linearized rhs's frozen state) read a_x .. u2, the adjoint a .. u2; to_grid's
# orders 0, 1 and 2 are the velocity partials u1 .. u2 (partial-major, _PARTIALS),
# u1 .. u2_y and u1 .. u2_yy.  The adjoint's frozen state takes any rows, w_v among
# them, with signs, through `signed_rows`.
_PARTIALS = tuple(f"u{c}{d}" for d in ("", "_x", "_y", "_xx", "_xy", "_yy") for c in (1, 2))
FIELDS = ("w_v", "a_x", "b_x", "a_y", "b_y", "w", "a", "b") + _PARTIALS
# The rows that are ever projected, a run of FIELDS: the adjoint writes w .. u2,
# the state and linearized rhs a .. u2, to_coeffs u1, u2 and project_div the
# velocity gradient u1_x .. u2_y.
SLOTS = ("w", "a", "b", "u1", "u2", "u1_x", "u2_x", "u1_y", "u2_y")


def _run(table: tuple, names: tuple) -> slice:
    k = len(names)
    for start in range(len(table) - k + 1):
        if table[start : start + k] == names:
            return slice(start, start + k)
    raise ValueError(f"no run of rows reads {names}")


def fields(*names: str) -> slice:
    """The rows of the field table holding exactly these named fields, in this order."""
    return _run(FIELDS, names)


def slots(*names: str) -> slice:
    """The rows of the projection tables testing against exactly these named fields, in order."""
    return _run(SLOTS, names)


def _derivative(kind: int, order: int) -> tuple:
    """(kind', sign): d^order of sin(k x) (kind 0) or cos(k x) (kind 1) is sign k^order kind'."""
    sign = 1
    for _ in range(order):  # d sin(k x) = k cos(k x), d cos(k x) = -k sin(k x)
        sign, kind = (-sign if kind else sign), 1 - kind
    return kind, sign


def _field_table() -> tuple:
    """Per row of FIELDS: the sin (0) or cos (1) kind of its x- and y-factor, its
    terms (coef, m power, n power), amplitude s_mn sum coef m^m_power n^n_power,
    and whether it is a field of v(u)."""
    kinds, terms = [], []
    for name in FIELDS:
        base, _, partial = name.partition("_")
        row = [(0, 0, 0)] * 2
        for t, (sign, c, i, j) in enumerate(_BASE_FIELDS[base]):
            # u1 = s n sin(m x) cos(n y), u2 = -s m cos(m x) sin(n y): component
            # c has x-factor kind c and y-factor kind 1 - c
            i, j = i + partial.count("x"), j + partial.count("y")
            kx, sign_x = _derivative(c, i)
            ky, sign_y = _derivative(1 - c, j)
            row[t] = (sign * sign_x * sign_y * (-1) ** c, i + c, j + 1 - c)
        kinds.append((kx, ky))  # equal for every term of a base field
        terms.append(row)
    return np.array(kinds), np.array(terms), np.array([name.endswith("_v") for name in FIELDS])


_KINDS, _TERMS, _OF_V = _field_table()
_VELOCITY = tuple(fields(*_PARTIALS[:n]) for n in (2, 6, 12))  # to_grid orders 0, 1, 2
_PROJECTED = fields(*SLOTS)
_VELOCITY_SLOTS = slots("u1", "u2")
_GRADIENT_SLOTS = slots("u1_x", "u2_x", "u1_y", "u2_y")


def min_grid_size(max_mode: int) -> int:
    """Smallest legal collocation resolution 2M + 1, where every quadrature is exact."""
    return 2 * max_mode + 1


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Divergence-free free-slip basis truncated at max_mode per axis.

    modes, lam and mu are aligned arrays over the M^2 modes in lexicographic
    (m, n) order, so a coefficient vector reshaped to (M, M) is indexed by
    (m - 1, n - 1).  Row f of the field tables is the named field FIELDS[f] on
    the Q = grid_size + 1 grid points of [0, pi]: field_x[f] (Q, M) and
    field_y[f] (M, Q) hold its x- and y-factors, sin or cos of k x, and
    field_amp[f] its (M, M) amplitude over the modes.  Row k of proj_x, proj_y
    and proj_amp is the same for the field SLOTS[k], transposed, multiplied by
    the trapezoid weights and by 1 + alpha1 lam, for the projection.  weights
    holds the (Q,) trapezoid weights of one axis.
    """

    max_mode: int
    alpha1: float
    grid_size: int
    modes: np.ndarray          # (n_modes, 2) int
    lam: np.ndarray            # (n_modes,) Stokes eigenvalue m^2 + n^2
    mu: np.ndarray             # (n_modes,) W/V eigenratio 2 + alpha1 lam
    vmult: np.ndarray          # (n_modes,) 1 + alpha1 lam, the action of v
    field_x: np.ndarray = field(repr=False)    # (F, Q, M)
    field_y: np.ndarray = field(repr=False)    # (F, M, Q)
    field_amp: np.ndarray = field(repr=False)  # (F, M, M)
    proj_x: np.ndarray = field(repr=False)     # (S, M, Q), weighted
    proj_y: np.ndarray = field(repr=False)     # (S, Q, M), weighted
    proj_amp: np.ndarray = field(repr=False)   # (S, M, M), times 1 + alpha1 lam
    weights: np.ndarray = field(repr=False)    # (Q,) trapezoid weights on [0, pi]

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


@dataclass(frozen=True, eq=False)
class Field:
    """A divergence-free velocity as coefficients in a SpectralBasis, or a stack of them.

    Coefficients refer to the unit-V-norm modes, so the V inner product of two
    fields is the plain dot product of their coefficient vectors.  coeffs is a row or
    a (..., n_modes) stack; what takes one field (`norms`, `to_grid` by order and so
    `trilinear_b`, `state.solve_state`'s y0) refuses a stack with ShapeMismatch.
    """

    coeffs: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeffs.shape[-1:] != (self.basis.n_modes,):
            raise ShapeMismatch(
                f"expected (..., {self.basis.n_modes}) coefficients, got {self.coeffs.shape}"
            )


def build_basis(max_mode: int, alpha1: float, grid_size: int | None = None) -> SpectralBasis:
    """Construct the basis with M^2 modes, 1 <= m, n <= max_mode.

    grid_size defaults to the exactness floor 2 * max_mode + 1 (`min_grid_size`),
    the smallest accepted, and at most MAX_GRID_SIZE; a finer grid changes results
    only by roundoff.  The arguments are checked before anything is allocated.
    """
    if max_mode < 1:
        raise ValueError("max_mode must be >= 1")
    if not 0.0 <= alpha1 < math.inf:
        raise ValueError("alpha1 must be finite and >= 0")
    if grid_size is None:
        grid_size = min_grid_size(max_mode)
    if grid_size < min_grid_size(max_mode):
        raise ValueError(
            f"grid_size {grid_size} below the exact-quadrature minimum {min_grid_size(max_mode)}"
        )
    if grid_size > MAX_GRID_SIZE:
        raise ValueError(f"grid_size {grid_size} above the maximum {MAX_GRID_SIZE}")

    M, Q = max_mode, grid_size + 1
    x = math.pi * np.arange(Q) / grid_size
    weights = np.full(Q, math.pi / grid_size)  # trapezoid rule: h (1/2, 1, ..., 1, 1/2)
    weights[[0, -1]] *= 0.5
    k = np.arange(1, M + 1, dtype=float)
    tables = np.array([np.sin(k[:, None] * x), np.cos(k[:, None] * x)])  # (2, M, Q)

    modes = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2).astype(int)
    lam = (modes[:, 0] ** 2 + modes[:, 1] ** 2).astype(float)
    vmult = 1.0 + alpha1 * lam
    mu = 1.0 + vmult
    # unit V-norm: ||h_raw||_V^2 = (1 + alpha1 lam) lam pi^2 / 4
    scale = (1.0 / np.sqrt(vmult * lam * math.pi ** 2 / 4.0)).reshape(M, M)
    # amplitude of row f: scale * sum over its terms of coef m^m_power n^n_power
    powers = k ** np.arange(_TERMS[..., 1:].max() + 1)[:, None]  # powers[p] = k^p
    coef, m_factor, n_factor = _TERMS[..., 0], powers[_TERMS[..., 1]], powers[_TERMS[..., 2]]
    terms = coef[..., None, None] * m_factor[..., :, None] * n_factor[..., None, :]
    amp = scale * terms.sum(axis=1)
    amp[_OF_V] *= vmult.reshape(M, M)
    x_tables, y_tables = tables[_KINDS[:, 0]], tables[_KINDS[:, 1]]  # (F, M, Q)
    p = _PROJECTED

    return SpectralBasis(
        max_mode=int(max_mode),
        alpha1=float(alpha1),
        grid_size=int(grid_size),
        modes=modes,
        lam=lam,
        mu=mu,
        vmult=vmult,
        field_x=np.ascontiguousarray(x_tables.transpose(0, 2, 1)),
        field_y=y_tables,
        field_amp=amp,
        proj_x=x_tables[p] * weights,
        proj_y=np.ascontiguousarray((y_tables[p] * weights).transpose(0, 2, 1)),
        proj_amp=amp[p] * vmult.reshape(M, M),
        weights=weights,
    )


def signed_rows(basis: SpectralBasis, *names: str) -> tuple:
    """The (x, amp, y) table rows of the named fields, rows for `to_grid`; '-' negates one."""
    index = [FIELDS.index(name.lstrip("-")) for name in names]
    sign = np.array([-1.0 if name[0] == "-" else 1.0 for name in names])[:, None, None]
    return basis.field_x[index], basis.field_amp[index] * sign, basis.field_y[index]


def to_grid(
    f: Field, order: int = 0, rows: slice | tuple | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Synthesize a Field on the grid: the named fields in rows, or its partials up to order.

    rows, a `fields` slice or a `signed_rows` tuple, selects K named fields of each
    coefficient vector of f, a row or a (..., n_modes) stack, returned as one
    (..., K, Q, Q) grid from one multiply and two batched products, written into
    out when given; this is how every rhs kernel and every frozen state reads its
    fields.  Otherwise f is one field: order 0 gives the (2, Q, Q) velocity, and
    orders 1 and 2 the (2, n, Q, Q) grid g[i, p] = d^p f_i over the first n = 3 or
    6 partials 1, d_x, d_y, d_xx, d_xy, d_yy, so g[:, 1:3] is the Jacobian
    J[i, j] = d_j f_i.
    """
    b, c = f.basis, f.coeffs
    if rows is None:
        if c.ndim != 1:
            raise ShapeMismatch(f"partials by order take one field, got shape {c.shape}")
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        rows = _VELOCITY[order]
    else:
        order = 0
    if not isinstance(rows, tuple):
        rows = b.field_x[rows], b.field_amp[rows], b.field_y[rows]
    x, amp, y = rows
    g = np.matmul(x @ (c.reshape(*c.shape[:-1], 1, b.max_mode, b.max_mode) * amp), y, out=out)
    return g if order == 0 else g.reshape(-1, 2, *g.shape[1:]).swapaxes(0, 1)


def steps_first(grids: np.ndarray) -> np.ndarray:
    """The view of field-major (K, n, Q, Q) grids as (n, K, Q, Q); (K, Q, Q) as it is."""
    return grids.swapaxes(0, 1) if grids.ndim == 4 else grids


def project(basis: SpectralBasis, grids: np.ndarray, rows: slice) -> np.ndarray:
    """Pair (K, Q, Q) grids slot by slot with the K fields in rows (see `slots`) of every mode.

    Row k of the (K, n_modes) result is (1 + alpha1 lam_i) quad(grids[k] f_k(h_i)),
    all K slots in one batched product.
    """
    b = basis
    r = b.proj_x[rows] @ grids @ b.proj_y[rows]
    return (r * b.proj_amp[rows]).reshape(-1, b.n_modes)


WINDOW_BYTES = 1 << 19  # what a sweep over a window of steps touches fits in this
MAX_WINDOW = 16
MIN_WINDOW = 4  # shorter windows cost more than they save: below this, windows of one


def window_at(n: int) -> slice | int:
    """The view of n steps along a window axis: slice(n), or 0 at one step, where views
    have no window axis (a step runs on rows and single grids: it is faster)."""
    return slice(n) if n > 1 else 0


class Workspace:
    """One rhs kernel: the buffers it reuses through a solve, its ops and its scaled projection.

    A kernel class declares the K fields it reads (rows, see `fields`), the S slots it
    writes (slot_rows, see `slots`), spare grids per step beyond the K, and buffers, the
    per-step shape in (Q, Q) grids of each array of its own, which the base allocates
    field-major, (*shape, window, Q, Q), as the attribute of that name; kernel_ops(at)
    forms its calls on the views buf[..., at, :, :] of the buffers at the window view
    `bind` chooses (`window_at`).  Every buffer holds a field's steps next to each other,
    so one op on a field covers a window's n Q^2 values in one contiguous run: grid is
    (K + spare, window, Q, Q), slots (S, window, Q, Q), and the projection's scratch has
    the slot axis first too.  A call work(coeffs, frozen) is the kernel's whole pass over
    n steps, coeffs a row or an (n, n_modes) stack: it is copied into field, the Field
    bound for n steps, whose fields `to_grid` writes into synth, the first K grids of
    grid, through a view with the steps first; ops, the kernel's calls and the
    projection's, bound once per n, form the S grids in slots, which are paired as
    `project` does, item by item, times scale (one (n_modes,) row or one per slot; None
    for none), and summed over the slot axis into out, valid until the next call; a row
    in gives a row out, a stack a stack.  The state kernel (freeze None) takes a step
    per row of coeffs, a linear kernel a step per frozen state: when frozen is not the
    array of the call before, as at its first call, freeze(stack) builds their weights
    from one `to_grid` of the stack.  Calls check no shapes; `evaluate` does.  frozen,
    the (N, n_modes) stack a workspace is made for (a solve's frozen states, or the
    state's controls), sizes window, the steps one call evaluates: as many as
    WINDOW_BYTES holds of the grids a step touches, a power of two from MIN_WINDOW to
    MAX_WINDOW, else one, and at most N; `window_of` hands out its windows.  The kernel
    reads alpha1 from params, the model it evaluates, and the basis has its own in vmult
    and the projection amplitudes: GridMismatch unless the two are equal.
    """

    spare, buffers, freeze = 0, {}, None  # rows and slot_rows: each kernel sets its own

    def __init__(self, basis: SpectralBasis, params, scale=None, frozen=()):
        if params.alpha1 != basis.alpha1:
            raise GridMismatch(f"model alpha1 = {params.alpha1}, basis alpha1 = {basis.alpha1}")
        M, Q = basis.max_mode, basis.n_points
        rows, slot_rows = self.rows, self.slot_rows
        n_fields, n_slots = rows.stop - rows.start, slot_rows.stop - slot_rows.start
        own = sum(map(math.prod, self.buffers.values()))
        fit = WINDOW_BYTES // ((n_fields + self.spare + n_slots + own) * Q * Q * 8)
        c = min(MAX_WINDOW, 1 << fit.bit_length() >> 1) if fit >= MIN_WINDOW else 1
        self.window = c = max(1, min(c, len(frozen)))
        self.basis, self.params, self.n = basis, params, 0
        self._stack, self._key = frozen, None
        self.frozen = None if self.freeze is None else ()  # a linear kernel's first call freezes
        self.tables = basis.field_x[rows], basis.field_amp[rows], basis.field_y[rows]
        self.grid = np.empty((n_fields + self.spare, c, Q, Q))
        self.synth = self.grid[:n_fields]
        self.slots = np.empty((n_slots, c, Q, Q))
        self.out = np.empty((c, basis.n_modes))
        amp = basis.proj_amp[slot_rows]
        if scale is not None:
            amp = amp * np.reshape(scale, (-1, M, M))
        self._projection = basis.proj_x[slot_rows], basis.proj_y[slot_rows], amp
        self._half, self._paired = np.empty((n_slots, c, M, Q)), np.empty((n_slots, c, M, M))
        for name, shape in self.buffers.items():
            setattr(self, name, np.empty((*shape, c, Q, Q)))

    def window_of(self, k: int, mids: np.ndarray) -> np.ndarray:
        """The frozen states of the window of mids (a row, or a stack of n) from step k:
        the same array while k and n repeat, so that a window's sweeps freeze it once."""
        key = k, len(mids) if mids.ndim == 2 else 1
        if key != self._key:
            self._key, self._steps = key, self._stack[k : k + key[1]]
        return self._steps

    def bind(self, n: int) -> None:
        """Bind field, the kernel's ops formed on the first n steps, and the projection to them."""
        at, (x, y, amp) = window_at(n), self._projection
        if n > 1:  # the tables broadcast over the window axis, after the slot axis
            x, y, amp = x[:, None], y[:, None], amp[:, None]
        slots, half, paired = self.slots[:, at], self._half[:, at], self._paired[:, at]
        self.field = Field(np.empty((n, self.basis.n_modes))[at], self.basis)
        self._field_grids = steps_first(self.synth[:, at])
        self.n, self.ops = n, self.kernel_ops(at) + (
            partial(np.matmul, x, slots, half),
            partial(np.matmul, half, y, paired),
            partial(np.multiply, paired, amp, paired),
            partial(np.add.reduce, paired.reshape(*paired.shape[:-2], -1), 0, None, self.out[at]),
        )

    def __call__(self, coeffs: np.ndarray, frozen: np.ndarray | None = None) -> np.ndarray:
        """The kernel's scaled coefficients at coeffs, in out."""
        n = self.n
        if frozen is not self.frozen:  # a linear kernel: a step per frozen state
            stack = np.reshape(frozen, (-1, self.basis.n_modes))
            self.freeze(stack)
            self.frozen, n = frozen, len(stack)
        elif frozen is None:  # the state kernel: a step per row
            n = len(coeffs) if coeffs.ndim == 2 else 1
        if n != self.n:
            self.bind(n)
        self.field.coeffs[...] = coeffs
        to_grid(self.field, rows=self.tables, out=self._field_grids)
        for op in self.ops:
            op()
        return self.out[: self.n] if coeffs.ndim == 2 else self.out[0]

    @classmethod
    def evaluate(cls, basis: SpectralBasis, params, coeffs, frozen=None) -> np.ndarray:
        """The unscaled kernel at coeffs (and frozen, for a linear kernel) in a new workspace.

        coeffs, and a linear kernel's frozen, are one row or one (n, n_modes) stack, of
        the same shape (ShapeMismatch otherwise).  The workspace is sized from the stack,
        as a solve sizes its own; a stack longer than one window is evaluated a window at
        a time into a new array.
        """
        coeffs, n_modes = np.asarray(coeffs, dtype=float), basis.n_modes
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != n_modes:
            raise ShapeMismatch(
                f"expected a row or a stack of {n_modes} coefficients, got {coeffs.shape}"
            )
        if cls.freeze is not None:  # a linear kernel: a frozen state per step
            frozen = np.asarray(frozen, dtype=float)
            if frozen.shape != coeffs.shape:
                raise ShapeMismatch(
                    f"expected frozen states of shape {coeffs.shape}, got {frozen.shape}"
                )
        steps = np.reshape(coeffs if frozen is None else frozen, (-1, n_modes))
        work = cls(basis, params, frozen=steps)
        if coeffs.ndim == 1:
            return work(coeffs, frozen)
        out, c = np.empty(coeffs.shape), work.window
        for k in range(0, len(coeffs), c):
            out[k : k + c] = work(coeffs[k : k + c], None if frozen is None else steps[k : k + c])
        return out


def to_coeffs(basis: SpectralBasis, vel: np.ndarray) -> Field:
    """Project a (2, Q, Q) velocity grid onto the div-free basis.

    This is the L2-orthogonal (equivalently V-orthogonal) projection onto the
    span: c_i = (1 + alpha1 lam_i) (vel, h_i)_{L2(D)}, evaluated by exact grid
    quadrature as the transpose of synthesis.
    """
    Q = basis.n_points
    if vel.shape != (2, Q, Q):
        raise ShapeMismatch(f"expected velocity grid of shape (2, {Q}, {Q}), got {vel.shape}")
    return Field(project(basis, vel, _VELOCITY_SLOTS).sum(axis=0), basis)


def project_div(basis: SpectralBasis, t: np.ndarray) -> Field:
    """Project (div T)_i = sum_j d_j T[i, j] of a (2, 2, Q, Q) grid tensor onto the basis.

    Summation by parts gives c_i = -(1 + alpha1 lam_i) quad(T : grad h_i), so
    T itself is never differentiated.
    """
    grids = np.swapaxes(t, 0, 1).reshape(4, *t.shape[2:])  # T[i, j] tests d_j h_i
    return Field(-project(basis, grids, _GRADIENT_SLOTS).sum(axis=0), basis)


def apply_modified_stokes(f: Field) -> Field:
    """Apply (I - alpha1 P Lap) of f's basis: multiply mode i by vmult_i = 1 + alpha1 lam_i."""
    return Field(f.coeffs * f.basis.vmult, f.basis)


def invert_modified_stokes(f: Field) -> Field:
    """Solve h - alpha1 Lap h + grad pi = f on f's basis span: divide by vmult."""
    return Field(f.coeffs / f.basis.vmult, f.basis)


def advect(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(w . grad) x, shape (2, Q, Q), from synthesised grids of order >= 1."""
    return w[0, 0] * x[:, 1] + w[1, 0] * x[:, 2]


def trilinear_b(phi: Field, z: Field, y: Field) -> float:
    """Convective form b(phi, z, y) = integral of (phi . grad z) . y over D."""
    if not all(f.basis is phi.basis or f.basis.compatible(phi.basis) for f in (z, y)):
        raise ShapeMismatch("fields live on incompatible bases")
    adv, vel = advect(to_grid(phi, 1), to_grid(z, 1)), to_grid(y)
    return phi.basis.quad(adv[0] * vel[0] + adv[1] * vel[1])


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
    """Norm of one field (ShapeMismatch for a stack).

    Sobolev kinds use per-mode multipliers (modes are Laplacian
    eigenfunctions); W14 uses grid quadrature with the componentwise
    convention ||u||_{W14}^2 = sum_i ||u_i||_{W14}^2 and
    ||f||_{W14}^4 = int f^4 + (|grad f|^2)^2 dx.
    """
    b = y.basis
    if y.coeffs.ndim != 1:
        raise ShapeMismatch(f"norms take one field, got shape {y.coeffs.shape}")
    if kind == "W14":
        g = to_grid(y, 1)
        fourth = [b.quad(u ** 4) + b.quad((ux ** 2 + uy ** 2) ** 2) for u, ux, uy in g]
        return math.sqrt(sum(math.sqrt(f) for f in fourth))
    return math.sqrt(float(np.sum(y.coeffs ** 2 * norm_weights(b, kind))))
