"""Simulation and certification of pseudo-gradient and port-Hamiltonian systems.

The integrator is implicit midpoint with a Newton inner solve that assembles
the state-dependent mass matrix at the midpoint, so trajectories of
G(x) x_dot = -dV/dx are produced without ever forming G^-1 explicitly.
Trajectory-level monitors check dissipation inequalities; structural
converters move between the port-Hamiltonian and Hessian pseudo-gradient
representations through Legendre transforms of the split Hamiltonian.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    AssumptionError,
    BoxDomain,
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    RecipkitError,
    ScalarField,
    SignatureMatrix,
    _mv,
    as_matrix,
    as_vector,
    finite_difference_jacobian,
)
from .legendre import make_legendre_pair
from .reciprocity import _state_input_stacks

__all__ = [
    "Trajectory",
    "HessianPseudoGradientSystem",
    "PortHamiltonianSystem",
    "ConversionSplit",
    "ConversionResult",
    "DissipationReport",
    "RelaxationCertificate",
    "NotRelaxationError",
    "affine_input_potential",
    "integrate_implicit_midpoint",
    "simulate_pseudo_gradient",
    "simulate_port_hamiltonian",
    "dissipation_monitor",
    "ph_to_hessian_pseudo_gradient",
    "certify_relaxation",
]

MIDPOINT_NEWTON_TOL = 1e-11  # bound on the Newton error estimate, relative to 1 + |x_k|
MIDPOINT_NEWTON_KAPPA = 0.1  # share of MIDPOINT_NEWTON_TOL the increment test may use
MIDPOINT_REFRESH_RATE = 0.1  # theta at which a kept Newton matrix is formed again
MIDPOINT_MAX_NEWTON = 40
UROUND = np.finfo(float).eps
PD_FLOOR = 1e-10  # sampled eigenvalues of hess K at or below it are not positive
STRUCTURE_TOL = 1e-10  # |J + J^T| and sampled -x.R(x) that PortHamiltonianSystem.validate accepts
STRUCTURE_SAMPLES = 20  # points at which PortHamiltonianSystem.validate samples x.R(x)
CONVERSION_SAMPLES = 40  # points at which ph_to_hessian_pseudo_gradient tests II and III


class NotRelaxationError(RecipkitError):
    """The generating function fails positive definiteness on the domain."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory with named monitor channels."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    monitors: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.atleast_2d(np.asarray(self.states, dtype=float))
        u = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if not (len(t) == x.shape[0] == u.shape[0] == y.shape[0]):
            raise DimensionMismatchError("trajectory channels have mismatched lengths")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise DimensionMismatchError("trajectory times must be strictly increasing")
        for name, ch in self.monitors.items():
            if len(np.asarray(ch)) != len(t):
                raise DimensionMismatchError(f"monitor {name} has wrong length")
        for name, v in zip(("times", "states", "inputs", "outputs"), (t, x, u, y)):
            object.__setattr__(self, name, v)

    def to_csv(self, path):
        """Write t, x_1..x_n, u_1..u_m, y_1..y_m, then monitor columns."""
        names = [k for k in ("S", "supply") if k in self.monitors]
        names += sorted(k for k in self.monitors if k not in ("S", "supply"))
        blocks = dict(x=self.states, u=self.inputs, y=self.outputs)
        table = np.column_stack([self.times, *blocks.values()]
                                + [np.asarray(self.monitors[k], dtype=float) for k in names])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"{c}_{i+1}" for c, block in blocks.items()
                                for i in range(block.shape[1])] + names)
            w.writerows(map(repr, row) for row in table.tolist())


def integrate_implicit_midpoint(rhs: Callable, x0, t_span, step: float,
                                mass: Optional[Callable] = None,
                                rhs_jac: Optional[Callable] = None,
                                domain: Optional[BoxDomain] = None):
    """Implicit midpoint for mass(x) x_dot = rhs(t, x).

    Each step solves r(y) = M(m)(y - x_k) - h rhs(t_m, m) = 0 with
    m = (x_k + y)/2 by simplified Newton on the matrix M(m) - (h/2) d rhs/dx
    (central differences when no rhs_jac is given), held as its inverse
    (Hairer & Wanner, Solving ODEs II, 2nd ed., 1996, IV.8).

    - Starting value: explicit Euler through the mass matrix on the first
      step; then the polynomial through the last min(k, 3) + 1 states on the
      uniform grid (Hairer, Norsett & Wanner, Solving ODEs I, III.1):
      linear on the second step, w = x_k + (h_k/h_{k-1})(x_k - x_{k-1}),
      quadratic on the third, w = 3(x_k - x_{k-1}) + x_{k-2}, and cubic from
      the fourth on, w = 4(x_k + x_{k-2}) - 6 x_{k-1} - x_{k-3}, whose
      error is O(h^4).
    - Stopping rule: with increments D_j, theta = |D_j|/|D_{j-1}| and
      eta = theta/(1 - theta), the step accepts w - D_j once
      eta |D_j| <= MIDPOINT_NEWTON_KAPPA MIDPOINT_NEWTON_TOL (1 + |x_k|).  On a
      step's first iteration eta comes from the last step as
      max(eta, uround)^0.8 (1 on the first step), so a step that starts close
      enough accepts after one iteration.
    - Kept matrix: the matrix is formed at a step's starting value and kept
      for the following steps until a step needs more than two iterations.
      When a kept matrix contracts badly (theta not below
      MIDPOINT_REFRESH_RATE), it is formed again at the current iterate.
    - When the increments on a matrix formed in the step stop contracting
      (theta >= 1), the last Newton step is halved, down to 1/64, until the
      residual falls below the one it started from, and the Newton matrix is
      formed again there.

    Work per step: per iteration one residual (rhs and mass) and one product
    with the inverse, with no evaluation at the accepted point; one rhs
    Jacobian and one np.linalg.inv per formed matrix, which on a uniform grid
    serves many steps.  A singular Newton matrix, stalled damping or
    MIDPOINT_MAX_NEWTON iterations raise ConvergenceError naming the step
    time, the iteration, the last increment and residual norms and the
    starting value.  With a domain, every step must stay in the box
    (DomainError otherwise).

    Returns (times, states) on the uniform grid.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if step <= 0 or t1 <= t0:
        raise DimensionMismatchError("need positive step and forward time span")
    x = as_vector(x0)
    n = x.shape[0]
    eye = np.eye(n)

    def mass_at(v):
        return eye if mass is None else as_matrix(mass(v), (n, n))

    def jac_rhs(t, v):
        if rhs_jac is not None:
            return as_matrix(rhs_jac(t, v), (n, n))
        return finite_difference_jacobian(lambda w: rhs(t, w), v)

    def single_step(t, xk, h, w, start, eta, J_inv):
        tm = t + 0.5 * h
        goal = MIDPOINT_NEWTON_KAPPA * MIDPOINT_NEWTON_TOL * (1.0 + float(np.linalg.norm(xk)))
        w0, dn = w, None

        def residual(y):
            m = 0.5 * (xk + y)
            M = mass_at(m)
            r = M @ (y - xk) - h * as_vector(rhs(tm, m), n)
            return m, M, r, float(np.linalg.norm(r))

        def failure(what):
            inc = "none" if dn is None else f"{dn:.3e}"
            return ConvergenceError(
                f"implicit midpoint Newton {what} at t={t:.6g} "
                f"(last increment {inc}, residual {rn:.3e}, start {start} {w0})")

        m, M, r, rn = residual(w)
        eta = max(eta, UROUND) ** 0.8
        fresh = False  # whether the Newton matrix in use was formed in this step
        last = None  # the previous iterate, its residual norm and its increment
        for it in range(1, MIDPOINT_MAX_NEWTON + 1):
            if J_inv is None:
                try:
                    J_inv = np.linalg.inv(M - 0.5 * h * jac_rhs(tm, m))
                except np.linalg.LinAlgError as exc:
                    raise failure(f"met a singular Newton matrix in iteration {it}") from exc
                fresh = True
            delta = J_inv @ r
            dn = float(np.linalg.norm(delta))
            if last is not None:
                lw, lrn, ldelta, ldn = last
                theta = dn / ldn
                if not fresh and not theta < MIDPOINT_REFRESH_RATE:
                    # a kept matrix contracts badly: form it again at this iterate
                    J_inv, last = None, None
                    continue
                if theta < 1.0:
                    eta = theta / (1.0 - theta)
                else:
                    # the increments stopped contracting: damp the last step until
                    # the residual falls, then restart Newton there with a new matrix
                    lam, eta, last, J_inv = 1.0, 1.0, None, None
                    while not rn < lrn:
                        lam *= 0.5
                        if lam < 1.0 / 64.0:
                            raise failure(f"damping stalled in iteration {it}")
                        w = lw - lam * ldelta
                        m, M, r, rn = residual(w)
                    continue
            if eta * dn <= goal:
                return w - delta, eta, J_inv if it <= 2 else None
            last = (w, rn, delta, dn)
            w = w - delta
            m, M, r, rn = residual(w)
        raise failure(f"did not converge in {MIDPOINT_MAX_NEWTON} iterations")

    n_steps = max(1, int(round((t1 - t0) / step)))
    times = t0 + (t1 - t0) * np.arange(n_steps + 1) / n_steps
    states = [x]
    eta, J_inv = 1.0, None
    for k in range(n_steps):
        t, h = times[k], times[k + 1] - times[k]
        if k == 0:
            try:
                v = np.linalg.solve(mass_at(x), as_vector(rhs(t, x), n))
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"singular mass matrix at t={t:.6g} "
                                       f"(explicit Euler start)") from exc
            w, start = x + h * v, "explicit Euler"
        elif k == 1:
            w, start = x + (h / (t - times[k - 1])) * (x - states[-2]), "extrapolated"
        elif k == 2:
            w, start = 3.0 * (x - states[-2]) + states[-3], "extrapolated"
        else:
            w, start = 4.0 * (x + states[-3]) - 6.0 * states[-2] - states[-4], "extrapolated"
        x, eta, J_inv = single_step(t, x, h, w, start, eta, J_inv)
        if domain is not None and not domain.contains(x):
            raise DomainError(f"trajectory left the state box at t={times[k+1]:.6g}: x={x}")
        states.append(x)
    return times, np.stack(states)


def affine_input_potential(P: ScalarField, g, u_box: BoxDomain) -> ScalarField:
    """Joint potential V(x, u) = P(x) - x^T g u with analytic derivatives."""
    gm = as_matrix(g)
    nx, nu = gm.shape
    if P.dim != nx or u_box.dim != nu:
        raise DimensionMismatchError("P/g/u_box dimensions are inconsistent")

    def value(w):
        x, u = w[:nx], w[nx:]
        return P(x) - float(x @ gm @ u)

    def gradient(w):
        x, u = w[:nx], w[nx:]
        return np.concatenate([P.grad(x) - gm @ u, -(gm.T @ x)])

    def hessian(w):
        x = w[:nx]
        top = np.hstack([P.hess(x), -gm])
        bot = np.hstack([-gm.T, np.zeros((nu, nu))])
        return np.vstack([top, bot])

    return ScalarField(nx + nu, value, BoxDomain.product(P.domain, u_box),
                       gradient=gradient, hessian=hessian)


@dataclass(frozen=True)
class HessianPseudoGradientSystem:
    """hess K(x) x_dot = -dV/dx(x, u), sigma y = -dV/du(x, u)."""

    K: ScalarField
    V: ScalarField
    sigma: SignatureMatrix
    P: Optional[ScalarField] = None
    g: Optional[np.ndarray] = None
    storage: Optional[ScalarField] = None

    def __post_init__(self):
        if self.V.dim != self.K.dim + self.sigma.m:
            raise DimensionMismatchError(
                f"V lives on dim {self.V.dim}, expected {self.K.dim}+{self.sigma.m}")
        if self.g is not None:
            object.__setattr__(self, "g", as_matrix(self.g, (self.K.dim, self.sigma.m)))

    @property
    def nx(self) -> int:
        return self.K.dim

    @property
    def nu(self) -> int:
        return self.sigma.m

    @property
    def domain(self) -> BoxDomain:
        return self.K.domain

    def metric(self, x) -> np.ndarray:
        return self.K.hess(x)

    def split_grad(self, x, u):
        w = np.concatenate([as_vector(x, self.nx), as_vector(u, self.nu)])
        grad = self.V.grad(w)
        return grad[:self.nx], grad[self.nx:]

    def V_x(self, x, u):
        return self.split_grad(x, u)[0]

    def V_u(self, x, u):
        return self.split_grad(x, u)[1]

    def V_xx(self, x, u):
        w = np.concatenate([as_vector(x, self.nx), as_vector(u, self.nu)])
        return self.V.hess(w)[:self.nx, :self.nx]

    def output(self, x, u):
        return self.sigma.apply(-self.V_u(x, u))

    def output_rows(self, X, U) -> np.ndarray:
        """output on stacks X, U: sigma g^T x for the internal form, else from V.grad_rows."""
        if self.g is not None:
            return self.sigma.signs * _mv(self.g.T, X)
        return self.sigma.signs * -self.V.grad_rows(np.hstack([X, U]))[:, self.nx:]

    @staticmethod
    def from_internal_potential(K: ScalarField, P: ScalarField, g,
                                sigma: SignatureMatrix,
                                u_box: Optional[BoxDomain] = None,
                                storage: Optional[ScalarField] = None
                                ) -> "HessianPseudoGradientSystem":
        gm = as_matrix(g, (K.dim, sigma.m))
        if u_box is None:
            u_box = BoxDomain.cube(sigma.m, 1.0)
        V = affine_input_potential(P, gm, u_box)
        return HessianPseudoGradientSystem(K=K, V=V, sigma=sigma, P=P, g=gm,
                                           storage=storage)


@dataclass(frozen=True)
class PortHamiltonianSystem:
    """z_dot = J grad H(z) - R(grad H(z)) + g u, y = g^T grad H(z).

    J (n, n) and g (n, nu) are constant matrices, shape-checked at
    construction; R maps the co-state x = grad H(z) to a vector with
    x . R(x) >= 0.
    """

    H: ScalarField
    J: np.ndarray
    g: np.ndarray
    nu: int
    R: Optional[Callable] = None
    R_jac: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "J", as_matrix(self.J, (self.n, self.n)))
        object.__setattr__(self, "g", as_matrix(self.g, (self.n, self.nu)))

    @property
    def n(self) -> int:
        return self.H.dim

    @property
    def domain(self) -> BoxDomain:
        return self.H.domain

    def R_at(self, x) -> np.ndarray:
        if self.R is None:
            return np.zeros(self.n)
        return as_vector(self.R(x), self.n)

    def rhs(self, z, u):
        grad = self.H.grad(z)
        return self.J @ grad - self.R_at(grad) + self.g @ as_vector(u, self.nu)

    def rhs_jac(self, z, u):
        """State Jacobian of rhs.

        (J - dR/dx) hess H when R is absent or has R_jac; central differences
        of rhs otherwise.
        """
        if self.R is not None and self.R_jac is None:
            return finite_difference_jacobian(lambda w: self.rhs(w, u), z)
        shape = (self.n, self.n)
        Rj = np.zeros(shape) if self.R_jac is None else as_matrix(self.R_jac(self.H.grad(z)), shape)
        return (self.J - Rj) @ self.H.hess(z)

    def output(self, z, u):
        return self.g.T @ self.H.grad(z)

    def output_rows(self, Z, U) -> np.ndarray:
        """output on a stack Z (N, n), from one H.grad_rows call."""
        return _mv(self.g.T, self.H.grad_rows(Z))

    def validate(self):
        """Skewness of J, and nonnegativity of the dissipation pairing at sampled points."""
        zs = self.domain.shrink(0.9).sample(STRUCTURE_SAMPLES)
        worst_skew = float(np.max(np.abs(self.J + self.J.T)))
        worst_diss = float(np.min([x @ self.R_at(x) for x in self.H.grad_rows(zs)], initial=0.0))
        if not worst_skew <= STRUCTURE_TOL:
            raise AssumptionError("J-skew", f"max |J + J^T| = {worst_skew:.3e}")
        if not worst_diss >= -STRUCTURE_TOL:
            raise AssumptionError("R-dissipation", f"x.R(x) as low as {worst_diss:.3e}")
        return {"max_skew": worst_skew, "min_dissipation_pairing": worst_diss}


def _record(sys, states, times, u_signal, storage):
    """Inputs, outputs and monitors of a run: one output_rows, vecdot and value_rows call each."""
    inputs = np.stack([as_vector(u_signal(t), sys.nu) if sys.nu else np.zeros(0) for t in times])
    outputs = sys.output_rows(states, inputs)
    monitors = {"supply": np.vecdot(inputs, outputs)}
    if storage is not None:
        monitors["S"] = storage.value_rows(states)
    return inputs, outputs, monitors


def simulate_pseudo_gradient(sys, x0, u_signal: Callable, t_span, step: float,
                             enforce_domain: bool = True,
                             storage: Optional[ScalarField] = None) -> Trajectory:
    """Simulate a (Hessian) pseudo-gradient system with implicit midpoint.

    The mass matrix is the metric assembled at the Newton midpoint.  The
    returned trajectory always carries the supply-rate monitor u.y and, when
    a storage field is attached to the system or passed here, the channel S.
    """
    nu = sys.nu

    def rhs(t, x):
        return -sys.V_x(x, as_vector(u_signal(t), nu))

    def rhs_jac(t, x):
        return -sys.V_xx(x, as_vector(u_signal(t), nu))

    times, states = integrate_implicit_midpoint(
        rhs, x0, t_span, step, mass=sys.metric, rhs_jac=rhs_jac,
        domain=sys.domain if enforce_domain else None)
    S = storage if storage is not None else getattr(sys, "storage", None)
    inputs, outputs, monitors = _record(sys, states, times, u_signal, S)
    return Trajectory(times, states, inputs, outputs, monitors)


def simulate_port_hamiltonian(sys: PortHamiltonianSystem, z0, u_signal: Callable,
                              t_span, step: float) -> Trajectory:
    """Simulate a port-Hamiltonian system inside its domain; monitor S is the Hamiltonian."""
    nu = sys.nu

    def rhs(t, z):
        return sys.rhs(z, u_signal(t))

    def rhs_jac(t, z):
        return sys.rhs_jac(z, u_signal(t))

    times, states = integrate_implicit_midpoint(
        rhs, z0, t_span, step, mass=None, rhs_jac=rhs_jac, domain=sys.domain)
    inputs, outputs, monitors = _record(sys, states, times, u_signal, sys.H)
    return Trajectory(times, states, inputs, outputs, monitors)


@dataclass(frozen=True)
class DissipationReport:
    max_violation: float
    passive_along: bool
    supply_scale: float
    steps: int


def dissipation_monitor(traj: Trajectory, tol: float = 1e-8) -> DissipationReport:
    """Per-step dissipation inequality S(x_{k+1}) - S(x_k) <= trapezoid(u.y) + tol dt.

    S is the trajectory's recorded storage channel 'S'.  The supply integral is the
    trapezoid rule on u.y, recomputed from the recorded inputs and outputs.
    supply_scale reports max(1, |cumulative supply|, |S - S(0)|) for use in
    relative acceptance thresholds.
    """
    if "S" not in traj.monitors:
        raise DimensionMismatchError("no storage available: record monitor 'S'")
    svals = np.asarray(traj.monitors["S"], dtype=float)
    rate = np.vecdot(traj.inputs, traj.outputs)
    dt = np.diff(traj.times)
    supply = 0.5 * (rate[:-1] + rate[1:]) * dt
    ds = np.diff(svals)
    violations = ds - supply
    max_violation = float(np.max(violations)) if len(violations) else 0.0
    passive = bool(np.all(violations <= tol * dt))
    cum = np.concatenate([[0.0], np.cumsum(supply)])
    scale = max(1.0, float(np.max(np.abs(cum))), float(np.max(np.abs(svals - svals[0]))))
    return DissipationReport(max_violation=max_violation, passive_along=passive,
                             supply_scale=scale, steps=len(violations))


@dataclass(frozen=True)
class ConversionSplit:
    """Coordinate split and potentials for the conversion to pseudo-gradient form.

    idx1/idx2 index the two state blocks inside z; H1/H2 are the additive
    Hamiltonian blocks, P1/P2 the Rayleigh potentials generating the
    dissipation (R1 = dP1/dx1, R2 = -dP2/dx2), Pc the constant coupling and
    g1 the input matrix acting on the first block.
    """

    idx1: tuple
    idx2: tuple
    H1: ScalarField
    H2: ScalarField
    P1: ScalarField
    P2: ScalarField
    Pc: np.ndarray
    g1: np.ndarray


def _block_field(A: ScalarField, B: ScalarField, sign: float, C: np.ndarray,
                 box: BoxDomain) -> ScalarField:
    """x = (x1, x2) -> A(x1) + sign B(x2) + x1.C x2 on box, with block derivatives."""
    k = A.dim

    def gradient(x):
        return np.concatenate([A.grad(x[:k]) + C @ x[k:], sign * B.grad(x[k:]) + C.T @ x[:k]])

    def hessian(x):
        H = np.empty((box.dim, box.dim))
        H[:k, :k], H[:k, k:], H[k:, :k], H[k:, k:] = A.hess(x[:k]), C, C.T, sign * B.hess(x[k:])
        return H

    return ScalarField(box.dim, lambda x: A(x[:k]) + sign * B(x[k:]) + float(x[:k] @ C @ x[k:]),
                       box, gradient=gradient, hessian=hessian)


@dataclass(frozen=True)
class ConversionResult:
    system: HessianPseudoGradientSystem
    report: dict
    split: ConversionSplit


def ph_to_hessian_pseudo_gradient(sys: PortHamiltonianSystem, split: ConversionSplit,
                                  seed: int = 0, tol: float = 1e-8,
                                  u_box: Optional[BoxDomain] = None) -> ConversionResult:
    """Convert a structured port-Hamiltonian system to Hessian pseudo-gradient form.

    Checks the four structural assumptions, II and III at CONVERSION_SAMPLES
    sampled points:

    I    J = [[0, -Pc], [Pc^T, 0]] and g = [g1; 0] in the split ordering;
    II   the Hamiltonian splits additively across the two blocks;
    III  the dissipation derives from the Rayleigh potentials;
    IV   the Hamiltonian blocks are bounded below (sampled minima only).

    On success the co-energy system has generating function
    K(x) = H1*(x1) - H2*(x2), mixed potential P1 + P2 + x1.Pc x2 and storage
    H1(grad H1*(x1)) + H2(grad H2*(x2)).  Raises AssumptionError naming the
    first failed assumption.
    """
    i1 = tuple(int(i) for i in split.idx1)
    i2 = tuple(int(i) for i in split.idx2)
    if sorted(i1 + i2) != list(range(sys.n)):
        raise DimensionMismatchError("idx1 and idx2 must partition the state indices")
    k1, k2 = len(i1), len(i2)
    Pc = as_matrix(split.Pc, (k1, k2))
    g1 = as_matrix(split.g1, (k1, sys.nu))
    report: dict = {}

    zs = sys.domain.shrink(0.9).sample(CONVERSION_SAMPLES, seed=seed)
    perm = np.array(i1 + i2)

    # assumption I: structured J and g, compared as one block [J | g]
    Sexp = np.block([[np.zeros((k1, k1)), -Pc, g1], [Pc.T, np.zeros((k2, k2 + sys.nu))]])
    report["I_structure_gap"] = float(np.max(
        np.abs(np.hstack([sys.J[:, perm], sys.g])[perm] - Sexp)))
    if not report["I_structure_gap"] <= tol:
        raise AssumptionError("I", f"J/g structure gap {report['I_structure_gap']:.3e}",
                              report)

    # assumption II: additive Hamiltonian split (up to a constant offset)
    gaps = np.array([sys.H(z) - split.H1(z[perm][:k1]) - split.H2(z[perm][k1:]) for z in zs])
    offset = gaps[0] if len(gaps) else 0.0
    report["II_additive_gap"] = float(np.max(np.abs(gaps - offset), initial=0.0))
    if not report["II_additive_gap"] <= tol * (1.0 + abs(offset)):
        raise AssumptionError("II", f"Hamiltonian split gap {report['II_additive_gap']:.3e}",
                              report)

    # assumption III: Rayleigh dissipation in the co-state variables
    W = BoxDomain.product(split.P1.domain, split.P2.domain).shrink(0.9).sample(
        CONVERSION_SAMPLES, seed=seed + 1)
    R = np.array([sys.R_at(x) for x in W[:, np.argsort(perm)]]).reshape(len(W), sys.n)
    expected = np.hstack([split.P1.grad_rows(W[:, :k1]), -split.P2.grad_rows(W[:, k1:])])
    report["III_rayleigh_gap"] = float(np.max(np.abs(R[:, perm] - expected), initial=0.0))
    if not report["III_rayleigh_gap"] <= tol:
        raise AssumptionError("III", f"Rayleigh structure gap {report['III_rayleigh_gap']:.3e}",
                              report)

    # assumption IV: sampled lower bounds (a caveat, not a proof)
    for key, H in (("IV_sampled_min_H1", split.H1), ("IV_sampled_min_H2", split.H2)):
        report[key] = float(np.min(H.value_rows(H.domain.sample(64, seed))))

    pair1 = make_legendre_pair(split.H1, verify=False)
    pair2 = make_legendre_pair(split.H2, verify=False)
    xbox = BoxDomain.product(pair1.Kstar.domain, pair2.Kstar.domain)

    K = _block_field(pair1.Kstar, pair2.Kstar, -1.0, np.zeros((k1, k2)), xbox)
    Pfield = _block_field(split.P1, split.P2, 1.0, Pc, xbox)

    def storage_rows(X):  # each block inverted by its pair, in closed form or lockstep Newton
        return (split.H1.value_rows(pair1.inverse(X[:, :k1]))
                + split.H2.value_rows(pair2.inverse(X[:, k1:])))

    def storage_grad_rows(X):
        # grad of H_i(grad H_i*(.)) is hess H_i* times the argument
        return np.hstack([_mv(pair1.Kstar.hess_rows(X[:, :k1]), X[:, :k1]),
                          _mv(pair2.Kstar.hess_rows(X[:, k1:]), X[:, k1:])])

    storage = ScalarField(k1 + k2, _stacked(storage_rows), xbox,
                          gradient=_stacked(storage_grad_rows), batched=True)

    g_full = np.vstack([g1, np.zeros((k2, sys.nu))])
    system = HessianPseudoGradientSystem.from_internal_potential(
        K, Pfield, g_full, SignatureMatrix.identity(sys.nu), u_box=u_box,
        storage=storage)
    return ConversionResult(system=system, report=report,
                            split=ConversionSplit(i1, i2, split.H1, split.H2,
                                                  split.P1, split.P2, Pc, g1))


@dataclass(frozen=True)
class RelaxationCertificate:
    relaxation: bool
    mode: str
    min_metric_eigenvalue: float
    worst_inequality: float
    storage: Optional[ScalarField]
    storage_floor_ok: Optional[bool]
    details: dict


def _stacked(rows: Callable) -> Callable:
    """A map of stacks (N, n) applied to a point (n,) or to a stack, as a batched field's."""
    return lambda x: rows(x) if np.ndim(x) == 2 else rows(x[None])[0]


def _conjugate_storage(K: ScalarField) -> ScalarField:
    """S(x) = K*(grad K(x)) = x.grad K(x) - K(x), with analytic gradient, from K's rows."""
    return ScalarField(K.dim, _stacked(lambda X: np.vecdot(X, K.grad_rows(X)) - K.value_rows(X)),
                       K.domain, gradient=_stacked(lambda X: _mv(K.hess_rows(X), X)), batched=True)


def certify_relaxation(sys: HessianPseudoGradientSystem, tol: float = 1e-9,
                       u_box: Optional[BoxDomain] = None, n_samples: int = 200,
                       seed: int = 0) -> RelaxationCertificate:
    """Certify relaxation structure of a Hessian pseudo-gradient system.

    Requires a definite sign pattern: with sigma = +I the sampled inequality
    is x.dV/dx - u.dV/du >= 0, with sigma = -I it is x.dV/dx + u.dV/du >= 0.
    For the internal form V = P(x) - x^T g u (sigma = +I) the specialized
    condition x.grad P(x) >= 0 is used instead; its input couplings x -> g_j.x
    are degree-1 homogeneous by construction.  On success the storage
    K*(grad K) is returned and its floor at the origin is verified on the
    sampled set.
    """
    if sys.sigma.is_identity:
        mode = "+I"
    elif bool(np.all(sys.sigma.signs == -1)):
        mode = "-I"
    else:
        raise DimensionMismatchError("relaxation certification needs sigma = +I or sigma = -I")

    xs = sys.K.domain.shrink(0.95).sample(n_samples, seed=seed)
    H = sys.K.hess_rows(xs)
    # eigvalsh does not propagate NaN, so a non-finite Hessian gets a NaN eigenvalue
    eigs = np.where(np.isfinite(H).all(axis=(1, 2)), np.linalg.eigvalsh(H).min(axis=1), np.nan)
    for i in np.flatnonzero(~(eigs > PD_FLOOR))[:1]:
        raise NotRelaxationError(
            f"hess K has eigenvalue {eigs[i]:.3e} <= {PD_FLOOR} at x={xs[i]}; "
            "not a relaxation candidate")

    details: dict = {"points": len(xs)}
    if mode == "+I" and sys.P is not None and sys.g is not None:
        vals = np.vecdot(xs, sys.P.grad_rows(xs))
        # x -> g_j.x is linear for the constant matrix g, hence degree-1 homogeneous
        details["input_couplings_degree_one"] = True
    else:
        X, U = _state_input_stacks(sys.K.domain, u_box or BoxDomain.cube(sys.nu, 1.0),
                                   n_samples, seed)
        G, sign = sys.V.grad_rows(np.hstack([X, U])), 1.0 if mode == "-I" else -1.0
        vals = np.vecdot(X, G[:, :sys.nx]) + sign * np.vecdot(U, G[:, sys.nx:])
        details["points"] = len(X)
    worst = float(np.min(vals, initial=np.inf))
    ok = worst >= -tol

    storage = None
    floor_ok = None
    if ok:
        storage = _conjugate_storage(sys.K)
        if sys.K.domain.contains(np.zeros(sys.nx)):
            s0 = storage(np.zeros(sys.nx))
            floor_ok = bool(np.all(storage.value_rows(xs) >= s0 - 1e-10))
        details["storage_is_conjugate_pullback"] = True
    return RelaxationCertificate(
        relaxation=bool(ok), mode=mode, min_metric_eigenvalue=float(np.min(eigs, initial=np.inf)),
        worst_inequality=worst, storage=storage, storage_floor_ok=floor_ok,
        details=details)
