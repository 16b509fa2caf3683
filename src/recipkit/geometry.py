"""Christoffel coefficients and variational duality along trajectories.

Christoffel symbols of a metric come from its closed-form partials or from
central differences; for Hessian metrics they reduce to weighted third
partials of the generating function, and both routes are exposed so they
can act as cross-oracles.  The variational system of an input-affine system
along a nominal trajectory and its metric-dual are assembled as time-varying
linear systems; for reciprocal systems their input-output responses coincide
and p = G(x) delta_x is the state-space isomorphism between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    AffineNonlinearSystem,
    DimensionMismatchError,
    MetricField,
    ScalarField,
    SignatureMatrix,
    _checked_metric_rows,
    _checked_stack,
    as_matrix,
    as_vector,
    finite_difference_jacobian,
)
from .dynamics import Trajectory

__all__ = [
    "TimeVaryingLinearSystem",
    "VariationalMatchReport",
    "third_partial_tensor",
    "levi_civita",
    "hessian_christoffel",
    "flatness_check",
    "variational_system",
    "dual_variational_system",
    "external_reciprocity_test",
    "default_probes",
    "simulate_ltv",
]

THIRD_PARTIAL_STEP = 1e-4
METRIC_STEP = 1e-5


def _christoffel_rows(G: MetricField, xs: np.ndarray) -> Optional[np.ndarray]:
    """levi_civita at each row of xs, (N, n, n, n), or None when it is exactly 0."""
    Gs = _checked_metric_rows(G.rows(xs), xs)
    J = (finite_difference_jacobian(G.rows, xs, METRIC_STEP) if G.partials is None
         else G.partial_rows(xs))  # J[..., a, b, c] = dG_ab/dx_c
    lower = 0.5 * (J + np.swapaxes(J, -1, -2) - np.moveaxis(J, -1, -3))  # [..., l, i, j]
    return np.einsum("nkl,nlij->nkij", np.linalg.inv(Gs), lower) if lower.any() else None


def levi_civita(G: MetricField, x) -> np.ndarray:
    """Levi-Civita coefficients Gamma[k, i, j] = Gamma^k_{ij} of a metric at x.

    Gamma_{lij} = (dG_{li}/dx_j + dG_{lj}/dx_i - dG_{ij}/dx_l) / 2 raised by
    the inverse of G.checked(x).  The partials are G.partials in closed form
    when given (exact zeros for MetricField.constant), central differences
    otherwise.  Torsion-free by construction.
    """
    gam = _christoffel_rows(G, as_vector(x, G.dim)[None])
    return np.zeros((G.dim,) * 3) if gam is None else gam[0]


def third_partial_tensor(K: ScalarField, x) -> np.ndarray:
    """T[l, i, j] = d^3 K / dx_l dx_i dx_j by nested central differences.

    Differentiates the best available derivative level of K and symmetrizes
    over all index permutations.  A stack x (N, n) gives (N, n, n, n) from one stencil.
    """
    v = np.asarray(x, dtype=float) if np.ndim(x) == 2 else as_vector(x, K.dim)
    T = finite_difference_jacobian(K.hess_rows if v.ndim == 2 else K.hess, v, THIRD_PARTIAL_STEP)
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
    """True when all third partials of K vanish on the sampled domain.

    Cross-checked against the Christoffel coefficients themselves, which
    must vanish simultaneously; flat generating functions are exactly the
    quadratic-plus-affine ones.
    """
    xs = K.domain.shrink(0.9).sample(n_samples, seed=seed)
    T = third_partial_tensor(K, xs)
    # hessian_christoffel's formula on this T, so the stencil runs once
    gam = 0.5 * np.einsum("nkl,nlij->nkij", np.linalg.inv(K.hess_rows(xs)), T)
    return bool(np.max(np.abs([T, gam]), initial=0.0) <= tol)


@dataclass(frozen=True)
class TimeVaryingLinearSystem:
    """Evaluators for a linear time-varying system on whole time arrays.

    A, B and C take times of shape (N,) and return matrices stacked with
    the time axis first: (N, nx, nx), (N, nx, nu) and (N, ny, nx).
    """

    nx: int
    nu: int
    A: Callable[[np.ndarray], np.ndarray]
    B: Callable[[np.ndarray], np.ndarray]
    C: Callable[[np.ndarray], np.ndarray]


def _interpolant(times: np.ndarray, values: np.ndarray):
    """ts of shape (N,) -> rows of values interpolated at ts, shape (N, k).

    A cubic spline from four samples on, piecewise linear below that.
    """
    if values.shape[1] == 0:
        return lambda s: np.zeros((len(s), 0))
    if len(times) >= 4:
        from scipy.interpolate import CubicSpline  # deferred to keep cold start fast
        return CubicSpline(times, values, axis=0)
    return lambda s: np.stack([np.interp(s, times, v) for v in values.T], axis=-1)


def _linearization(sys: AffineNonlinearSystem, nominal: Trajectory, u_signal=None,
                   G: Optional[MetricField] = None):
    """(primal, dual) views of one linearization along a nominal; each stack is built by
    one row call per time array from one x(t) and u(t) interpolant, read-only and shared."""
    if G is not None and G.dim != sys.nx:
        raise DimensionMismatchError("metric dimension must match state dimension")

    def once(build):
        memo = {}

        def rows(ts):
            key = np.asarray(ts, dtype=float).tobytes()
            if key not in memo:
                memo[key] = build(ts)
                memo[key].setflags(write=False)
            return memo[key]
        return rows

    x = once(_interpolant(nominal.times, nominal.states))
    u = once(_interpolant(nominal.times, nominal.inputs) if u_signal is None else lambda s:
             _checked_stack([u_signal(si) for si in s], (len(s), sys.nu)))
    gen = sys.to_general()  # A, B and C are its dF/dx, dF/du and dH/dx
    A = once(lambda ts: gen.jac_F_x(x(ts), u(ts)))
    B = once(lambda ts: gen.jac_F_u(x(ts), u(ts)))
    C = once(lambda ts: gen.jac_H_x(x(ts), u(ts)))

    def dual_A(ts):
        At, gam = A(ts).transpose(0, 2, 1), _christoffel_rows(G, x(ts))
        if gam is None:
            return At
        return At + 2.0 * np.einsum("nabc,nc->nba", gam, gen.F_rows(x(ts), u(ts)))

    return (TimeVaryingLinearSystem(sys.nx, sys.nu, A, B, C),
            TimeVaryingLinearSystem(sys.nx, sys.nu, dual_A, lambda ts: C(ts).transpose(0, 2, 1),
                                    lambda ts: B(ts).transpose(0, 2, 1)))


def variational_system(sys: AffineNonlinearSystem, nominal: Trajectory
                       ) -> TimeVaryingLinearSystem:
    """Linearization along a nominal trajectory.

    d/dt dx = (df/dx + sum_j u_j dg_j/dx) dx + g(x) du,   dy = (dh/dx) dx,
    with x(t), u(t) interpolated from the nominal trajectory (cubic spline).
    """
    return _linearization(sys, nominal)[0]


def dual_variational_system(sys: AffineNonlinearSystem, G: MetricField,
                            nominal: Trajectory) -> TimeVaryingLinearSystem:
    """Metric-dual of the variational system along the same nominal.

    The adjoint (A^T, C^T, B^T) of variational_system's matrices, from the
    same evaluations, plus the connection term of G along xdot = f + g u:

    d/dt p = (A^T + 2 Gamma(x).xdot) p + C^T u^d,   y^d = B^T p,

    with (Gamma.xdot)_{ba} = Gamma^a_{bc} xdot_c, Gamma = levi_civita(G, x).
    A(ts) checks G at all times in one stack and takes one set of partials
    per time; where the lower-index coefficients vanish (MetricField.constant)
    the term is exactly 0 and xdot is not evaluated.
    """
    return _linearization(sys, nominal, G=G)[1]


def simulate_ltv(ltv: TimeVaryingLinearSystem, x0, u: Callable[[float], np.ndarray],
                 times: np.ndarray):
    """Implicit-midpoint integration of a linear time-varying system.

    Each step solves (I - h/2 A(tm)) x_{k+1} = (I + h/2 A(tm)) x_k + h B(tm) u(tm).
    A and B are evaluated once on the step midpoints and C once on the grid;
    one batched solve factors every step map x_{k+1} = M_k x_k + c_k, and one
    recurrence carries p probes as the columns of x0 (nx, p) and u(t) (nu, p).
    A 1-D x0 and u(t) are one probe.  u is called once per midpoint.  Returns
    (states, outputs) on the time grid, time axis first: (N, nx) and (N, ny),
    or (N, nx, p) and (N, ny, p).
    """
    times = np.asarray(times, dtype=float)
    cols = np.ndim(x0) == 2
    X = as_matrix(x0, (ltv.nx, np.shape(x0)[1])) if cols else as_vector(x0, ltv.nx)[:, None]
    p, tm = X.shape[1], times[:-1] + 0.5 * np.diff(times)
    U = np.array([as_matrix(u(t), (ltv.nu, p)) if cols else as_vector(u(t), ltv.nu)
                  for t in tm]).reshape(len(tm), ltv.nu, p)
    states, outputs = _simulate_ltv_rows(ltv, X, U, times, tm)
    return (states, outputs) if cols else (states[..., 0], outputs[..., 0])


def _simulate_ltv_rows(ltv: TimeVaryingLinearSystem, X, U, times: np.ndarray, tm):
    """simulate_ltv's recurrence for probes X (nx, p) and inputs U (N - 1, nu, p) at tm."""
    h = np.diff(times)
    half = 0.5 * h[:, None, None] * ltv.A(tm)
    drive = h[:, None, None] * np.einsum("kij,kjp->kip", ltv.B(tm), U)
    eye = np.eye(ltv.nx)
    step = np.linalg.solve(eye - half, np.concatenate([eye + half, drive], axis=2))
    M, c = step[..., :ltv.nx].copy(), step[..., ltv.nx:].copy()  # contiguous, for the loop
    states = np.empty((len(times), ltv.nx, X.shape[1]))
    states[0] = X
    for k in range(len(times) - 1):
        X = M[k] @ X + c[k]
        states[k + 1] = X
    return states, np.einsum("kij,kjp->kip", ltv.C(times), states)


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
    external reciprocity of the nonlinear system along the nominal.  One call linearizes
    once, evaluates the probes once for both systems and runs them as the columns of one
    simulate_ltv recurrence per system.
    """
    var, dual = _linearization(sys, nominal, u_signal, G)
    times = nominal.times
    if len(times) < 2:
        raise DimensionMismatchError("the nominal trajectory needs at least two times")
    xi = np.zeros(sys.nx) if delta_x0 is None else as_vector(delta_x0, sys.nx)
    probes = probe_inputs if probe_inputs is not None else default_probes(
        sys.nu, (times[0], times[-1]))
    sig = sigma if sigma is not None else SignatureMatrix.identity(sys.nu)
    sig.check_inputs(sys.nu)
    p, tm = len(probes), times[:-1] + 0.5 * np.diff(times)
    # the probes at the midpoints, (N - 1, nu, p), evaluated once for both systems
    dU = _checked_stack([[pr(t) for pr in probes] for t in tm], (len(tm), p, sys.nu)
                        ).transpose(0, 2, 1)
    Gs = G.rows(nominal.states)
    X0 = np.repeat(xi[:, None], p, axis=1)
    dst, dy = _simulate_ltv_rows(var, X0, dU, times, tm)
    pst, yd = _simulate_ltv_rows(dual, Gs[0] @ X0, sig.signs[:, None] * dU, times, tm)
    dy = sig.signs[:, None] * dy
    gaps = np.max(np.abs(dy - yd), axis=(0, 1), initial=0.0)
    isos = np.max(np.abs(pst - np.einsum("kij,kjp->kip", Gs, dst)), axis=(0, 1), initial=0.0)
    rows = [{"times": times, "dy": dy[..., j], "yd": yd[..., j], "gap": float(gaps[j]),
             "state_gap": float(isos[j])} for j in range(p)]
    max_gap = float(np.max(gaps, initial=0.0))
    return VariationalMatchReport(
        match=bool(max_gap <= tol), max_output_gap=max_gap,
        max_state_gap=float(np.max(isos, initial=0.0)), probes=p, per_probe=tuple(rows))
