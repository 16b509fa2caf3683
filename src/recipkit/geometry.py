"""Christoffel coefficients and variational duality along trajectories.

Christoffel symbols of a metric come from one central-difference stencil of its
rows; for Hessian metrics they reduce to weighted third derivatives of the
generating function, and both routes are exposed so they can act as
cross-oracles.  external_reciprocity_test linearizes an input-affine
system along a nominal trajectory, once, into matrix stacks for the variational
system and its metric dual, and runs both by one implicit-midpoint recurrence; for
reciprocal systems their input-output responses coincide and p = G(x) delta_x is
the state-space isomorphism between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    METRIC_STEP,
    AffineNonlinearSystem,
    DimensionMismatchError,
    MetricField,
    ScalarField,
    SignatureMatrix,
    _checked_metric_rows,
    _checked_stack,
    _stack_checked_system,
    as_vector,
    finite_difference_jacobian,
)
from .dynamics import Trajectory

__all__ = [
    "VariationalMatchReport",
    "third_partial_tensor",
    "levi_civita",
    "hessian_christoffel",
    "flatness_check",
    "external_reciprocity_test",
    "default_probes",
]

THIRD_PARTIAL_STEP = 1e-4


def _christoffel_rows(G: MetricField, xs: np.ndarray) -> Optional[np.ndarray]:
    """levi_civita at each row of xs, (N, n, n, n), or None when it is exactly 0."""
    Gs = _checked_metric_rows(G.rows(xs), xs)
    J = finite_difference_jacobian(G.rows, xs, METRIC_STEP)  # J[..., a, b, c] = dG_ab/dx_c
    lower = 0.5 * (J + np.swapaxes(J, -1, -2) - np.moveaxis(J, -1, -3))  # [..., l, i, j]
    return np.einsum("nkl,nlij->nkij", np.linalg.inv(Gs), lower) if lower.any() else None


def levi_civita(G: MetricField, x) -> np.ndarray:
    """Levi-Civita coefficients Gamma[k, i, j] = Gamma^k_{ij} of a metric at x.

    Gamma_{lij} = (dG_{li}/dx_j + dG_{lj}/dx_i - dG_{ij}/dx_l) / 2 raised by
    the inverse of G(x), once G(x) passes the symmetry and determinant tests of
    core._checked_metric_rows.  The derivatives of G are central differences with step
    core.METRIC_STEP, exact zeros for MetricField.constant.  Torsion-free by construction.
    """
    gam = _christoffel_rows(G, as_vector(x, G.dim)[None])
    return np.zeros((G.dim,) * 3) if gam is None else gam[0]


def third_partial_tensor(K: ScalarField, x) -> np.ndarray:
    """T[l, i, j] = d^3 K / dx_l dx_i dx_j by nested central differences.

    Differentiates the best available derivative level of K and symmetrizes
    over all index permutations.  A stack x (N, n) gives (N, n, n, n) from one stencil.
    """
    v = np.asarray(x, dtype=float) if np.ndim(x) == 2 else as_vector(x, K.dim)
    T = finite_difference_jacobian(K.hess_rows, v, THIRD_PARTIAL_STEP)
    T = T.reshape((-1,) + T.shape[-3:]).transpose(0, 3, 1, 2)  # T[n, l, i, j], a point is n = 0
    T = (T + T.transpose(0, 2, 1, 3) + T.transpose(0, 3, 2, 1) + T.transpose(0, 1, 3, 2)
         + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)) / 6.0
    return T if v.ndim == 2 else T[0]


def hessian_christoffel(K: ScalarField, x) -> np.ndarray:
    """Christoffel coefficients of the Hessian metric of K.

    Gamma^k_{ij} = (1/2) sum_l [hess K(x)^-1]_{kl} d^3K/dx_l dx_i dx_j,
    using that the inverse Hessian equals the Hessian of the conjugate at
    the transformed point.
    """
    xv = as_vector(x, K.dim)
    return 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(K.hess(xv)), third_partial_tensor(K, xv))


def flatness_check(K: ScalarField, tol: float = 1e-8, n_samples: int = 30,
                   seed: int = 0) -> bool:
    """True when all third derivatives of K vanish on the sampled domain.

    Cross-checked against the Christoffel coefficients themselves, which
    must vanish simultaneously; flat generating functions are exactly the
    quadratic-plus-affine ones.
    """
    xs = K.domain.shrink(0.9).sample(n_samples, seed=seed)
    T = third_partial_tensor(K, xs)
    # hessian_christoffel's formula on this T, so the stencil runs once
    gam = 0.5 * np.einsum("nkl,nlij->nkij", np.linalg.inv(K.hess_rows(xs)), T)
    return bool(np.max(np.abs([T, gam]), initial=0.0) <= tol)


def _linearization(sys: AffineNonlinearSystem, nominal: Trajectory, u_signal,
                   G: MetricField):
    """The variational system along a nominal and its metric dual, as matrix stacks.

    Primal d/dt dx = A dx + B du, dy = C dx: A = dF/dx and B = dF/du of
    sys.to_general() at the step midpoints, C = dH/dx on the grid.  Dual
    d/dt p = (A^T + 2 Gamma(x).xdot) p + C^T u^d, y^d = B^T p, with (Gamma.xdot)_{ba} =
    Gamma^a_{bc} xdot_c, Gamma = levi_civita(G, x) and xdot = F(x, u): its state matrix
    and C^T at the midpoints, B^T on the grid.  At a step midpoint x is the average of
    the step's two grid states, the point at which the implicit-midpoint rule evaluates
    its field (second order for a nominal from another method), and u is u_signal at the
    midpoint time or the average of the step's two input rows; on the grid x and u are
    the nominal's rows, so u_signal is called at the N - 1 midpoints only.  Each stack is
    one row call; where the lower-index coefficients vanish (MetricField.constant) the
    connection term is exactly 0 and xdot is not evaluated.
    Returns ((A, B, C), (dual A, dual B, dual C)), time axis first.
    """
    times, xg, ug = nominal.times, nominal.states, nominal.inputs
    tm = times[:-1] + 0.5 * np.diff(times)
    um = (0.5 * (ug[1:] + ug[:-1]) if u_signal is None
          else _checked_stack([u_signal(t) for t in tm], (len(tm), sys.nu)))
    xm = 0.5 * (xg[1:] + xg[:-1])
    gen = _stack_checked_system(sys).to_general()  # A, B, C: its dF/dx, dF/du, dH/dx
    A = gen.jac_F_x(xm, um)
    dual_A, gam = A.transpose(0, 2, 1), _christoffel_rows(G, xm)
    if gam is not None:
        dual_A = dual_A + 2.0 * np.einsum("nabc,nc->nba", gam, gen.F_rows(xm, um))
    return ((A, gen.jac_F_u(xm, um), gen.jac_H_x(xg, ug)),
            (dual_A, gen.jac_H_x(xm, um).transpose(0, 2, 1),
             gen.jac_F_u(xg, ug).transpose(0, 2, 1)))


def _ltv_recurrence(A, B, C, X, U, times: np.ndarray):
    """Implicit-midpoint run of a linear time-varying system on the grid times.

    Step k solves (I - h/2 A_k) x_{k+1} = (I + h/2 A_k) x_k + h B_k U_k, with A (N - 1,
    nx, nx), B (N - 1, nx, nu) and the inputs U (N - 1, nu, p) at the step midpoints and
    C (N, ny, nx) on the grid.  One batched solve factors every step map
    x_{k+1} = M_k x_k + c_k, and one recurrence carries the p probes as the columns of
    X (nx, p).  Returns states (N, nx, p) and outputs (N, ny, p) on the grid.
    """
    nx, h = X.shape[0], np.diff(times)
    half = 0.5 * h[:, None, None] * A
    drive = h[:, None, None] * np.einsum("kij,kjp->kip", B, U)
    eye = np.eye(nx)
    step = np.linalg.solve(eye - half, np.concatenate([eye + half, drive], axis=2))
    M, c = step[..., :nx].copy(), step[..., nx:].copy()  # contiguous, for the loop
    states = np.empty((len(times), nx, X.shape[1]))
    states[0] = X
    for k in range(len(times) - 1):
        X = M[k] @ X + c[k]
        states[k + 1] = X
    return states, np.einsum("kij,kjp->kip", C, states)


def default_probes(nu: int, t_span) -> list:
    """One-hot Gaussian pulses and sinusoids, one pair per input channel."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    width = 0.08 * (t1 - t0)
    center = t0 + 0.25 * (t1 - t0)
    omega = 2.0 * np.pi / (t1 - t0)
    probes = []
    for j in range(nu):
        e = np.zeros(nu)
        e[j] = 1.0
        probes.append(lambda t, e=e: e * np.exp(-((t - center) / width) ** 2))
        probes.append(lambda t, e=e: e * np.sin(omega * (t - t0)))
    return probes


@dataclass(frozen=True)
class VariationalMatchReport:
    match: bool
    max_output_gap: float
    max_state_gap: float
    probes: int
    per_probe: tuple


def external_reciprocity_test(sys: AffineNonlinearSystem, G: MetricField,
                              nominal: Trajectory, probe_inputs=None,
                              tol: float = 1e-6, delta_x0=None, u_signal=None,
                              sigma: Optional[SignatureMatrix] = None) -> VariationalMatchReport:
    """Input-output comparison of the variational system and its metric dual.

    For each probe du the variational system starts at delta_x(0) = xi and
    the dual at p(0) = G(x(0)) xi with sigma du as its input; the dual output
    matching sigma dy (and p(t) = G(x(t)) delta_x(t) along the way) witnesses
    external reciprocity of the nonlinear system along the nominal; match holds when both
    the output gap and that isomorphism gap are at most tol.  The arguments are
    checked first; then one call linearizes once, evaluates the probes once for both
    systems and runs them as the columns of one implicit-midpoint recurrence per system.
    Each probe's dy, yd and gaps are in per_probe.
    """
    times = nominal.times
    if G.dim != sys.nx:
        raise DimensionMismatchError("metric dimension must match state dimension")
    if len(times) < 2:
        raise DimensionMismatchError("the nominal trajectory needs at least two times")
    xi = np.zeros(sys.nx) if delta_x0 is None else as_vector(delta_x0, sys.nx)
    probes = probe_inputs if probe_inputs is not None else default_probes(
        sys.nu, (times[0], times[-1]))
    if len(probes) == 0:
        raise DimensionMismatchError("the variational test needs at least one probe input")
    sig = sigma if sigma is not None else SignatureMatrix.identity(sys.nu)
    sig.check_inputs(sys.nu)
    p, tm = len(probes), times[:-1] + 0.5 * np.diff(times)
    # the probes at the midpoints, (N - 1, nu, p), evaluated once for both systems
    dU = _checked_stack([[pr(t) for pr in probes] for t in tm], (len(tm), p, sys.nu)
                        ).transpose(0, 2, 1)
    primal, dual = _linearization(sys, nominal, u_signal, G)
    Gs = G.rows(nominal.states)
    X0 = np.repeat(xi[:, None], p, axis=1)
    dst, dy = _ltv_recurrence(*primal, X0, dU, times)
    pst, yd = _ltv_recurrence(*dual, Gs[0] @ X0, sig.signs[:, None] * dU, times)
    dy = sig.signs[:, None] * dy
    gaps = np.max(np.abs(dy - yd), axis=(0, 1), initial=0.0)
    isos = np.max(np.abs(pst - np.einsum("kij,kjp->kip", Gs, dst)), axis=(0, 1), initial=0.0)
    rows = [{"times": times, "dy": dy[..., j], "yd": yd[..., j], "gap": float(gaps[j]),
             "state_gap": float(isos[j])} for j in range(p)]
    max_gap = float(np.max(gaps, initial=0.0))
    max_iso = float(np.max(isos, initial=0.0))
    return VariationalMatchReport(
        match=bool(max_gap <= tol and max_iso <= tol), max_output_gap=max_gap,
        max_state_gap=max_iso, probes=p, per_probe=tuple(rows))
