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
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    AssumptionError,
    BoxDomain,
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    NonlinearSystem,
    RecipkitError,
    ScalarField,
    SignatureMatrix,
    _box_test,
    _constant_rows,
    _evaluators,
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
MIDPOINT_MAX_STEPS = 10**7  # bound on a run's step count, checked before the grid is built
UROUND = np.finfo(float).eps
PD_FLOOR = 1e-10  # sampled eigenvalues of hess K at or below it are not positive
STRUCTURE_TOL = 1e-10  # max |J + J^T| and -lambda_min((R + R^T)/2) that validate accepts
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
    serves many steps.  Each residual checks rhs against length n and mass
    against (n, n) (DimensionMismatchError), a fast path for float arrays;
    norms are sqrt(v @ v).  A singular Newton matrix, stalled damping or
    MIDPOINT_MAX_NEWTON iterations raise ConvergenceError naming the step
    time, the iteration, the last increment and residual norms and the
    starting value.  With a domain, every step must stay in the box
    (DomainError otherwise), tested on Python floats against bounds bound once
    (core._box_test); a domain of another dimension than x0 raises
    DimensionMismatchError before the first step.

    Returns (times, states) on the uniform grid.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (np.isfinite([t0, t1, step]).all() and step > 0 and t1 > t0
            and (t1 - t0) / float(step) <= MIDPOINT_MAX_STEPS):
        raise DimensionMismatchError("need a finite positive step and a finite forward time span "
                                     f"with at most {MIDPOINT_MAX_STEPS} steps")
    x = as_vector(x0)
    n = x.shape[0]
    eye = np.eye(n)
    inside = None
    if domain is not None:
        if domain.dim != n:
            raise DimensionMismatchError(f"expected length {domain.dim}, got {n}")
        inside = _box_test(domain.lower, domain.upper)

    def mass_at(v):
        return eye if mass is None else as_matrix(mass(v), (n, n))

    def jac_rhs(t, v):
        if rhs_jac is not None:
            return as_matrix(rhs_jac(t, v), (n, n))
        return finite_difference_jacobian(lambda w: rhs(t, w), v)

    def single_step(t, xk, h, w, start, eta, J_inv):
        tm = t + 0.5 * h
        goal = MIDPOINT_NEWTON_KAPPA * MIDPOINT_NEWTON_TOL * (1.0 + math.sqrt(xk @ xk))
        w0, dn = w, None

        def residual(y):
            m = 0.5 * (xk + y)
            M = mass_at(m)
            r = M @ (y - xk) - h * as_vector(rhs(tm, m), n)
            return m, M, r, math.sqrt(r @ r)

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
            dn = math.sqrt(delta @ delta)
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
        if inside is not None and not inside(x):
            raise DomainError(f"trajectory left the state box at t={times[k+1]:.6g}: x={x}")
        states.append(x)
    return times, np.stack(states)


@dataclass(frozen=True)
class HessianPseudoGradientSystem:
    """hess K(x) x_dot = -dV/dx(x, u), sigma y = -dV/du(x, u)."""

    K: ScalarField
    V: ScalarField
    sigma: SignatureMatrix
    storage: Optional[ScalarField] = None

    def __post_init__(self):
        if self.V.dim != self.K.dim + self.sigma.m:
            raise DimensionMismatchError(
                f"V lives on dim {self.V.dim}, expected {self.K.dim}+{self.sigma.m}")

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

    def V_x(self, x, u):
        return self.V.grad(np.concatenate([as_vector(x, self.nx), as_vector(u, self.nu)]))[:self.nx]

    def output(self, x, u) -> np.ndarray:
        """y = -sigma dV/du at a point (x, u) or at the rows of stacks X (N, nx), U (N, nu),
        from one V.grad_rows call: one call when V is batched."""
        if np.ndim(x) < 2:
            x, u = as_vector(x, self.nx), as_vector(u, self.nu)
        return self.sigma.signs * -self.V.grad_rows(np.concatenate([x, u], axis=-1))[..., self.nx:]

    def to_general(self) -> NonlinearSystem:
        """The same system as x_dot = F(x, u) = -(hess K)^-1 dV/dx, y = output, batched:
        F is one solve over K.hess_rows and one V.grad_rows call, at a point or on stacks.
        No Jacobians are supplied, so each is the stencil of F_rows or H_rows."""
        def F(x, u):
            dV_dx = self.V.grad_rows(np.concatenate([x, u], axis=-1))[..., :self.nx]
            return np.linalg.solve(self.K.hess_rows(x), -dV_dx[..., None])[..., 0]

        return NonlinearSystem(self.nx, self.nu, F, self.output, self.domain, batched=True)

    @staticmethod
    def from_internal_potential(K: ScalarField, P: ScalarField, g,
                                sigma: SignatureMatrix,
                                u_box: Optional[BoxDomain] = None,
                                storage: Optional[ScalarField] = None
                                ) -> "HessianPseudoGradientSystem":
        """The internal form: V(x, u) = P(x) - x^T g u, a block field of P and the zero field
        on u_box, batched when P is."""
        gm = as_matrix(g, (K.dim, sigma.m))
        u_box = u_box or BoxDomain.cube(sigma.m, 1.0)
        if P.dim != K.dim or u_box.dim != sigma.m:
            raise DimensionMismatchError("P/g/u_box dimensions are inconsistent")
        zero = ScalarField(sigma.m, _constant_rows(np.zeros(())), u_box,
                           gradient=lambda u: np.zeros(np.shape(u)),
                           hessian=_constant_rows(np.zeros((sigma.m, sigma.m))), batched=True)
        V = _block_field(P, zero, 1.0, -gm, BoxDomain.product(P.domain, u_box))
        return HessianPseudoGradientSystem(K=K, V=V, sigma=sigma, storage=storage)


@dataclass(frozen=True)
class PortHamiltonianSystem:
    """z_dot = (J - R) grad H(z) + g u, y = g^T grad H(z).

    J (n, n), g (n, nu) and R (n, n) are constant matrices, R zero by default.  Each is
    shape- and finiteness-checked once at construction (DimensionMismatchError); validate
    checks the structure J = -J^T and R + R^T >= 0.
    """

    H: ScalarField
    J: np.ndarray
    g: np.ndarray
    R: Optional[np.ndarray] = None

    def __post_init__(self):
        n, g = self.n, as_matrix(self.g)
        R = np.zeros((n, n)) if self.R is None else self.R
        for name, M in (("J", as_matrix(self.J, (n, n))), ("g", as_matrix(g, (n, g.shape[1]))),
                        ("R", as_matrix(R, (n, n)))):
            if not np.isfinite(M).all():
                raise DimensionMismatchError(f"port-Hamiltonian {name} must be finite")
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.H.dim

    @property
    def nu(self) -> int:
        return self.g.shape[1]

    @property
    def domain(self) -> BoxDomain:
        return self.H.domain

    def rhs(self, z, u):
        grad = self.H.grad(z)
        return self.J @ grad - self.R @ grad + self.g @ as_vector(u, self.nu)

    def rhs_jac(self, z, u):
        """State Jacobian of rhs: (J - R) hess H."""
        return (self.J - self.R) @ self.H.hess(z)

    def output(self, z, u) -> np.ndarray:
        """y at a point z or at the rows of a stack Z (N, n), from one H.grad_rows call."""
        return _mv(self.g.T, self.H.grad_rows(z if np.ndim(z) == 2 else as_vector(z, self.n)))

    def validate(self):
        """Exact structure checks of the constant matrices: max |J + J^T| (key max_skew) and
        lambda_min((R + R^T)/2), the least x.R x over unit x (key min_dissipation_pairing),
        each within STRUCTURE_TOL."""
        worst_skew = float(np.max(np.abs(self.J + self.J.T)))
        worst_diss = float(np.linalg.eigvalsh(0.5 * (self.R + self.R.T))[0])
        if not worst_skew <= STRUCTURE_TOL:
            raise AssumptionError("J-skew", f"max |J + J^T| = {worst_skew:.3e}")
        if not worst_diss >= -STRUCTURE_TOL:
            raise AssumptionError("R-dissipation", f"(R + R^T)/2 has eigenvalue {worst_diss:.3e}")
        return {"max_skew": worst_skew, "min_dissipation_pairing": worst_diss}


def _run(sys, rhs: Callable, rhs_jac: Callable, x0, u_signal: Callable, t_span, step: float,
         mass: Optional[Callable], domain: Optional[BoxDomain],
         storage: Optional[ScalarField]) -> Trajectory:
    """Implicit midpoint of mass(x) x_dot = rhs(x, u(t)), then the recorded channels: one
    output, vecdot and value_rows call each."""
    def u(t):
        return as_vector(u_signal(t), sys.nu)

    times, states = integrate_implicit_midpoint(
        lambda t, x: rhs(x, u(t)), x0, t_span, step, mass=mass,
        rhs_jac=lambda t, x: rhs_jac(x, u(t)), domain=domain)
    inputs = np.stack([u(t) for t in times])
    outputs = sys.output(states, inputs)
    monitors = {"supply": np.vecdot(inputs, outputs)}
    if storage is not None:
        monitors["S"] = storage.value_rows(states)
    return Trajectory(times, states, inputs, outputs, monitors)


def simulate_pseudo_gradient(sys, x0, u_signal: Callable, t_span, step: float,
                             enforce_domain: bool = True,
                             storage: Optional[ScalarField] = None) -> Trajectory:
    """Simulate a (Hessian) pseudo-gradient system with implicit midpoint.

    The mass matrix is the metric assembled at the Newton midpoint.  The
    returned trajectory always carries the supply-rate monitor u.y and, when
    a storage field is attached to the system or passed here, the channel S.
    x0 is checked here; the run calls V's and K's evaluators (core._evaluators), bound once.
    """
    nx, (_, grad_V, hess_V), hess_K = sys.nx, _evaluators(sys.V), _evaluators(sys.K)[2]
    return _run(sys, lambda x, u: -grad_V(np.concatenate([x, u]))[:nx],
                lambda x, u: -hess_V(np.concatenate([x, u]))[:nx, :nx], as_vector(x0, nx),
                u_signal, t_span, step, hess_K, sys.domain if enforce_domain else None,
                storage if storage is not None else getattr(sys, "storage", None))


def simulate_port_hamiltonian(sys: PortHamiltonianSystem, z0, u_signal: Callable,
                              t_span, step: float) -> Trajectory:
    """Simulate a port-Hamiltonian system inside its domain; monitor S is the Hamiltonian."""
    return _run(sys, sys.rhs, sys.rhs_jac, z0, u_signal, t_span, step, None, sys.domain, sys.H)


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
    g1 the input matrix acting on the first block.  With the system's constant R,
    assumption III holds only when grad P1 and -grad P2 are the linear maps given by
    R's diagonal blocks in the split ordering, and its off-diagonal blocks vanish.
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
    """x = (x1, x2) -> A(x1) + sign B(x2) + x1.C x2 on box, with block derivatives, at a point
    or on a stack; batched."""
    k, n = A.dim, box.dim
    (a, grad_a, hess_a), (b, grad_b, hess_b) = _evaluators(A), _evaluators(B)
    coupling = np.zeros((n, n))  # the Hessian of x1.C x2, whose gradient is coupling x
    coupling[:k, k:], coupling[k:, :k] = C, C.T

    def value(x):
        x1, x2 = x[..., :k], x[..., k:]
        return a(x1) + sign * b(x2) + np.vecdot(x1, _mv(C, x2))

    def gradient(x):
        return np.concatenate([grad_a(x[..., :k]), sign * grad_b(x[..., k:])],
                              axis=-1) + _mv(coupling, x)

    def hessian(x):
        H = np.empty(np.shape(x)[:-1] + (n, n))
        H[..., :k, :k], H[..., :k, k:] = hess_a(x[..., :k]), C
        H[..., k:, :k], H[..., k:, k:] = C.T, sign * hess_b(x[..., k:])
        return H

    return ScalarField(n, value, box, gradient=gradient, hessian=hessian, batched=True)


@dataclass(frozen=True)
class ConversionResult:
    system: HessianPseudoGradientSystem
    report: dict
    split: ConversionSplit


def ph_to_hessian_pseudo_gradient(sys: PortHamiltonianSystem, split: ConversionSplit,
                                  seed: int = 0, tol: float = 1e-8,
                                  u_box: Optional[BoxDomain] = None) -> ConversionResult:
    """Convert a structured port-Hamiltonian system to Hessian pseudo-gradient form.

    Checks the five assumptions, II and III at CONVERSION_SAMPLES sampled points:

    I    J = [[0, -Pc], [Pc^T, 0]] and g = [g1; 0] in the split ordering;
    II   the Hamiltonian splits additively across the two blocks;
    III  the dissipation derives from the Rayleigh potentials;
    IV   the Hamiltonian blocks are bounded below (sampled minima only);
    V    both Legendre pairs (H1, H1*) and (H2, H2*) are verified by
         make_legendre_pair: its round-trip, Hessian-inverse and biconjugate
         gaps on samples of each block's box.

    On success the co-energy system has generating function
    K(x) = H1*(x1) - H2*(x2), mixed potential P1 + P2 + x1.Pc x2 and storage
    H1(grad H1*(x1)) + H2(grad H2*(x2)).  Raises AssumptionError naming the
    first failed assumption, for V the failed gap ("round-trip",
    "hessian-inverse" or "biconjugation") with the pair's margins as its report.
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

    # assumption II: additive Hamiltonian split (up to a constant offset), on one stack
    Zs = zs[:, perm]
    gaps = (sys.H.value_rows(zs) - split.H1.value_rows(Zs[:, :k1])
            - split.H2.value_rows(Zs[:, k1:]))
    offset = gaps[0]
    report["II_additive_gap"] = float(np.max(np.abs(gaps - offset), initial=0.0))
    if not report["II_additive_gap"] <= tol * (1.0 + abs(offset)):
        raise AssumptionError("II", f"Hamiltonian split gap {report['II_additive_gap']:.3e}",
                              report)

    # assumption III: Rayleigh dissipation in the co-state variables
    W = BoxDomain.product(split.P1.domain, split.P2.domain).shrink(0.9).sample(
        CONVERSION_SAMPLES, seed=seed + 1)
    R = _mv(sys.R, W[:, np.argsort(perm)])
    expected = np.hstack([split.P1.grad_rows(W[:, :k1]), -split.P2.grad_rows(W[:, k1:])])
    report["III_rayleigh_gap"] = float(np.max(np.abs(R[:, perm] - expected), initial=0.0))
    if not report["III_rayleigh_gap"] <= tol:
        raise AssumptionError("III", f"Rayleigh structure gap {report['III_rayleigh_gap']:.3e}",
                              report)

    # assumption IV: sampled lower bounds (a caveat, not a proof)
    for key, H in (("IV_sampled_min_H1", split.H1), ("IV_sampled_min_H2", split.H2)):
        report[key] = float(np.min(H.value_rows(H.domain.sample(64, seed))))

    # assumption V: each Hamiltonian block has a verified Legendre pair
    pair1, pair2 = make_legendre_pair(split.H1), make_legendre_pair(split.H2)
    xbox = BoxDomain.product(pair1.Kstar.domain, pair2.Kstar.domain)

    K = _block_field(pair1.Kstar, pair2.Kstar, -1.0, np.zeros((k1, k2)), xbox)
    Pfield = _block_field(split.P1, split.P2, 1.0, Pc, xbox)

    def storage_value(x):  # each block inverted by its pair, in closed form or lockstep Newton
        return (split.H1.value_rows(pair1.inverse(x[..., :k1]))
                + split.H2.value_rows(pair2.inverse(x[..., k1:])))

    def storage_grad(x):
        # grad of H_i(grad H_i*(.)) is hess H_i* times the argument
        return np.concatenate([_mv(pair1.Kstar.hess_rows(x[..., :k1]), x[..., :k1]),
                               _mv(pair2.Kstar.hess_rows(x[..., k1:]), x[..., k1:])], axis=-1)

    storage = ScalarField(k1 + k2, storage_value, xbox, gradient=storage_grad, batched=True)

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


def _conjugate_storage(K: ScalarField) -> ScalarField:
    """S(x) = K*(grad K(x)) = x.grad K(x) - K(x), with analytic gradient, from K's rows."""
    return ScalarField(K.dim, lambda x: np.vecdot(x, K.grad_rows(x)) - K.value_rows(x),
                       K.domain, gradient=lambda x: _mv(K.hess_rows(x), x), batched=True)


def certify_relaxation(sys: HessianPseudoGradientSystem, tol: float = 1e-9,
                       u_box: Optional[BoxDomain] = None, n_samples: int = 200,
                       seed: int = 0) -> RelaxationCertificate:
    """Certify relaxation structure of a Hessian pseudo-gradient system.

    Requires a definite sign pattern: with sigma = +I the sampled inequality
    is x.dV/dx - u.dV/du >= 0, with sigma = -I it is x.dV/dx + u.dV/du >= 0
    (for the internal form V = P(x) - x^T g u, sigma = +I, the u terms cancel
    and it reads x.grad P(x) >= 0).  One (x, u) stack over the shrunk state box
    times u_box serves the metric check, the inequality and the storage floor.
    On success the storage K*(grad K) is returned and its floor at the origin
    is verified on the sampled states.
    """
    if sys.sigma.is_identity:
        mode = "+I"
    elif bool(np.all(sys.sigma.signs == -1)):
        mode = "-I"
    else:
        raise DimensionMismatchError("relaxation certification needs sigma = +I or sigma = -I")

    X, U = _state_input_stacks(sys, u_box, n_samples, seed)
    H = sys.K.hess_rows(X)
    # eigvalsh does not propagate NaN, so a non-finite Hessian gets a NaN eigenvalue
    eigs = np.where(np.isfinite(H).all(axis=(1, 2)), np.linalg.eigvalsh(H).min(axis=1), np.nan)
    for i in np.flatnonzero(~(eigs > PD_FLOOR))[:1]:
        raise NotRelaxationError(
            f"hess K has eigenvalue {eigs[i]:.3e} <= {PD_FLOOR} at x={X[i]}; "
            "not a relaxation candidate")

    G, sign = sys.V.grad_rows(np.hstack([X, U])), 1.0 if mode == "-I" else -1.0
    worst = float(np.min(np.vecdot(X, G[:, :sys.nx]) + sign * np.vecdot(U, G[:, sys.nx:]),
                         initial=np.inf))
    ok = worst >= -tol

    storage = None
    floor_ok = None
    if ok:
        storage = _conjugate_storage(sys.K)
        if sys.K.domain.contains(np.zeros(sys.nx)):
            s0 = storage(np.zeros(sys.nx))
            floor_ok = bool(np.all(storage.value_rows(X) >= s0 - 1e-10))
    return RelaxationCertificate(
        relaxation=bool(ok), mode=mode, min_metric_eigenvalue=float(np.min(eigs, initial=np.inf)),
        worst_inequality=worst, storage=storage, storage_floor_ok=floor_ok)
