"""Christoffel coefficients and variational duality along trajectories.

Christoffel symbols of a metric are obtained from central differences of
the metric; for Hessian metrics they reduce to weighted third partials of
the generating function, and both routes are exposed so they can act as
cross-oracles.  The variational system of an input-affine system along a
nominal trajectory and its metric-dual are assembled as time-varying linear
systems; for reciprocal systems their input-output responses coincide and
p = G(x) delta_x is the state-space isomorphism between them.
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


def levi_civita(G: MetricField, x) -> np.ndarray:
    """Levi-Civita coefficients of a metric by central differences.

    Gamma_{lij} = (dG_{li}/dx_j + dG_{lj}/dx_i - dG_{ij}/dx_l) / 2 raised by
    the inverse metric.  Torsion-free by construction.
    """
    xv = as_vector(x, G.dim)
    J = finite_difference_jacobian(G, xv, METRIC_STEP)  # J[a, b, c] = dG_ab/dx_c
    lower = 0.5 * (J + J.transpose(0, 2, 1) - J.transpose(2, 0, 1))  # lower[l, i, j]
    Ginv = np.linalg.inv(G.checked(xv))
    return np.einsum("kl,lij->kij", Ginv, lower)


def third_partial_tensor(K: ScalarField, x) -> np.ndarray:
    """T[l, i, j] = d^3 K / dx_l dx_i dx_j by nested central differences.

    Differentiates the best available derivative level of K and symmetrizes
    over all index permutations.
    """
    T = finite_difference_jacobian(K.hess, as_vector(x, K.dim),
                                   THIRD_PARTIAL_STEP).transpose(2, 0, 1)
    T = (T + T.transpose(1, 0, 2) + T.transpose(2, 1, 0)
         + T.transpose(0, 2, 1) + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)) / 6.0
    return T


def hessian_christoffel(K: ScalarField, x) -> np.ndarray:
    """Christoffel coefficients of the Hessian metric of K.

    Gamma^k_{ij} = (1/2) sum_l [hess K(x)^-1]_{kl} d^3K/dx_l dx_i dx_j,
    using that the inverse Hessian equals the Hessian of the conjugate at
    the transformed point.
    """
    xv = as_vector(x, K.dim)
    T = third_partial_tensor(K, xv)
    Hinv = np.linalg.inv(K.hess(xv))
    return 0.5 * np.einsum("kl,lij->kij", Hinv, T)


def flatness_check(K: ScalarField, tol: float = 1e-8, n_samples: int = 30,
                   seed: int = 0) -> bool:
    """True when all third partials of K vanish on the sampled domain.

    Cross-checked against the Christoffel coefficients themselves, which
    must vanish simultaneously; flat generating functions are exactly the
    quadratic-plus-affine ones.
    """
    worst_t = 0.0
    worst_g = 0.0
    for x in K.domain.shrink(0.9).sample(n_samples, seed=seed):
        T = third_partial_tensor(K, x)
        # hessian_christoffel's formula on this T, so the stencil runs once per point
        gam = 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(K.hess(x)), T)
        worst_t = max(worst_t, float(np.max(np.abs(T))))
        worst_g = max(worst_g, float(np.max(np.abs(gam))))
    return bool(worst_t <= tol and worst_g <= tol)


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


def _input_interpolant(nominal: Trajectory, u_signal, nu: int):
    """ts of shape (N,) -> inputs of shape (N, nu)."""
    if u_signal is None:
        return _interpolant(nominal.times, nominal.inputs)
    return lambda s: np.array([as_vector(u_signal(si), nu) for si in s]).reshape(len(s), nu)


def variational_system(sys: AffineNonlinearSystem, nominal: Trajectory,
                       u_signal=None) -> TimeVaryingLinearSystem:
    """Linearization along a nominal trajectory.

    d/dt dx = (df/dx + sum_j u_j dg_j/dx) dx + g(x) du,   dy = (dh/dx) dx,
    with x(t), u(t) interpolated from the nominal trajectory (cubic spline)
    unless an explicit input signal is supplied.
    """
    xof = _interpolant(nominal.times, nominal.states)
    uof = _input_interpolant(nominal, u_signal, sys.nu)

    def A(ts):
        return np.stack([sys.jac_f(x) + np.einsum("j,jab->ab", u, sys.jac_g(x))
                         for x, u in zip(xof(ts), uof(ts))])

    def B(ts):
        return np.stack([as_matrix(sys.g(x), (sys.nx, sys.nu)) for x in xof(ts)])

    def C(ts):
        return np.stack([sys.jac_h(x) for x in xof(ts)])

    return TimeVaryingLinearSystem(sys.nx, sys.nu, A, B, C)


def dual_variational_system(sys: AffineNonlinearSystem, G: MetricField,
                            nominal: Trajectory, u_signal=None) -> TimeVaryingLinearSystem:
    """Metric-dual of the variational system along the same nominal.

    The adjoint (A^T, C^T, B^T) of variational_system plus the connection
    term of G along the nominal velocity xdot = f(x) + g(x) u:

    d/dt p = (A^T + 2 Gamma(x).xdot) p + C^T u^d,   y^d = B^T p,

    with (Gamma.xdot)_{ba} = Gamma^a_{bc} xdot_c the Levi-Civita
    coefficients of G.
    """
    if G.dim != sys.nx:
        raise DimensionMismatchError("metric dimension must match state dimension")
    var = variational_system(sys, nominal, u_signal)
    xof = _interpolant(nominal.times, nominal.states)
    uof = _input_interpolant(nominal, u_signal, sys.nu)

    def connection(x, u):
        xdot = as_vector(sys.f(x), sys.nx) + as_matrix(sys.g(x), (sys.nx, sys.nu)) @ u
        return 2.0 * np.einsum("abc,c->ba", levi_civita(G, x), xdot)

    def A(ts):
        conn = np.stack([connection(x, u) for x, u in zip(xof(ts), uof(ts))])
        return var.A(ts).transpose(0, 2, 1) + conn

    return TimeVaryingLinearSystem(sys.nx, sys.nu, A,
                                   lambda ts: var.C(ts).transpose(0, 2, 1),
                                   lambda ts: var.B(ts).transpose(0, 2, 1))


def simulate_ltv(ltv: TimeVaryingLinearSystem, x0, u: Callable[[float], np.ndarray],
                 times: np.ndarray):
    """Implicit-midpoint integration of a linear time-varying system.

    Each step solves (I - h/2 A(tm)) x_{k+1} = (I + h/2 A(tm)) x_k + h B(tm) u(tm).
    A and B are evaluated once on the array of step midpoints and C once on
    the grid; one batched solve gives every step as x_{k+1} = M_k x_k + c_k.
    The input u is called per midpoint.  Returns (states, outputs) sampled
    on the given time grid, time axis first.
    """
    times = np.asarray(times, dtype=float)
    x = as_vector(x0, ltv.nx)
    h = np.diff(times)
    tm = times[:-1] + 0.5 * h
    half = 0.5 * h[:, None, None] * ltv.A(tm)
    U = np.array([as_vector(u(t), ltv.nu) for t in tm]).reshape(len(tm), ltv.nu)
    drive = h[:, None] * np.einsum("kij,kj->ki", ltv.B(tm), U)
    eye = np.eye(ltv.nx)
    step = np.linalg.solve(eye - half, np.concatenate([eye + half, drive[:, :, None]], axis=2))
    states = np.empty((len(times), ltv.nx))
    states[0] = x
    for k in range(len(tm)):
        x = step[k, :, :-1] @ x + step[k, :, -1]
        states[k + 1] = x
    outputs = np.einsum("kij,kj->ki", ltv.C(times), states)
    return states, outputs


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
    external reciprocity of the nonlinear system along the nominal.
    """
    var = variational_system(sys, nominal, u_signal)
    dual = dual_variational_system(sys, G, nominal, u_signal)
    times = nominal.times
    if len(times) < 2:
        raise DimensionMismatchError("the nominal trajectory needs at least two times")
    xi = np.zeros(sys.nx) if delta_x0 is None else as_vector(delta_x0, sys.nx)
    probes = probe_inputs if probe_inputs is not None else default_probes(
        sys.nu, (times[0], times[-1]))
    sig = sigma if sigma is not None else SignatureMatrix.identity(sys.nu)

    Gs = np.stack([G(x) for x in nominal.states])
    max_gap = 0.0
    max_state = 0.0
    rows = []
    for probe in probes:
        dst, dy = simulate_ltv(var, xi, probe, times)
        pst, yd = simulate_ltv(dual, Gs[0] @ xi,
                               lambda t, probe=probe: sig.apply(probe(t)), times)
        dy = sig.conjugate_rows(dy.T).T if dy.size else dy
        gap = float(np.max(np.abs(dy - yd))) if dy.size else 0.0
        iso = float(np.max(np.abs(pst - np.einsum("kij,kj->ki", Gs, dst))))
        max_gap = max(max_gap, gap)
        max_state = max(max_state, iso)
        rows.append({"times": times, "dy": dy, "yd": yd, "gap": gap, "state_gap": iso})
    return VariationalMatchReport(
        match=bool(max_gap <= tol), max_output_gap=max_gap,
        max_state_gap=max_state, probes=len(probes), per_probe=tuple(rows))
