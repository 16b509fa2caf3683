"""Reciprocity checks and potential reconstruction for nonlinear systems.

The full check verifies, at sampled state-input points, symmetry of the
metric-weighted state Jacobian, signature-symmetry of the output map in the
input, and the cross condition tying the input matrix to the output
state-Jacobian.  When the three hold, the drift and output assemble into a
single potential which is reconstructed here by line integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    METRIC_STEP,
    AffineNonlinearSystem,
    AssumptionError,
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    NonlinearSystem,
    ScalarField,
    SignatureMatrix,
    _checked_metric_rows,
    _mv,
    _stack_checked_system,
    as_vector,
    finite_difference_jacobian,
    integrate_segment,
)

__all__ = [
    "ReciprocityReport",
    "PotentialFunction",
    "check_reciprocity",
    "check_reciprocity_affine",
    "check_reciprocity_hessian",
    "is_hessian_metric",
    "reconstruct_K",
    "reconstruct_potential",
]


@dataclass(frozen=True)
class ReciprocityReport:
    residual_state: float
    residual_output: float
    residual_cross: float
    reciprocal: bool
    points_tested: int

    @property
    def max_residual(self) -> float:
        return float(np.max([self.residual_state, self.residual_output, self.residual_cross]))


def _state_input_stacks(sys, u_box: Optional[BoxDomain], n: int, seed: int):
    """Low-discrepancy (x, u) samples over sys.domain x u_box (the unit input cube when
    None), as stacks (n, nx) and (n, nu); sys is any system with domain, nx and nu."""
    u_box = u_box or BoxDomain.cube(sys.nu, 1.0)
    if u_box.dim != sys.nu:
        raise DimensionMismatchError(f"input box dimension {u_box.dim} != input dimension "
                                     f"{sys.nu}")
    pts = BoxDomain.product(sys.domain.shrink(0.95), u_box).sample(n, seed=seed)
    return pts[:, :sys.nx], pts[:, sys.nx:]


def _report(sys: NonlinearSystem, G: MetricField, sigma: SignatureMatrix, X, U, state,
            tol: float) -> ReciprocityReport:
    """Report at the samples X (N, nx), U (N, nu): state(G rows) gives the state residuals,
    sys's Jacobian stacks the others; one fold each, so a non-finite residual fails it."""
    if G.dim != sys.nx:
        raise DimensionMismatchError(f"metric dimension {G.dim} != state dimension {sys.nx}")
    sigma.check_inputs(sys.nu)
    sm = sigma.matrix
    Gs = _checked_metric_rows(G.rows(X), X)
    SHu = sm @ sys.jac_H_u(X, U)
    worst = np.array([np.max(np.abs(r), initial=0.0) for r in (
        state(Gs), SHu - np.swapaxes(SHu, 1, 2),
        Gs @ sys.jac_F_u(X, U) - np.swapaxes(sys.jac_H_x(X, U), 1, 2) @ sm)])
    return ReciprocityReport(*map(float, worst), reciprocal=bool(np.max(worst) <= tol),
                             points_tested=len(X))


def check_reciprocity(sys: NonlinearSystem, G: MetricField, sigma: SignatureMatrix,
                      tol: float = 1e-6, u_box: Optional[BoxDomain] = None,
                      n_samples: int = 200, seed: int = 0) -> ReciprocityReport:
    """Sampled residuals of the three reciprocity conditions.

    residual_state  : asymmetry of d(G(x) F(x,u))/dx,
    residual_output : asymmetry of sigma dH/du,
    residual_cross  : max |G(x) dF/du - (dH/dx)^T sigma|.

    The metric is validated (symmetry, determinant floor) at every point.
    """
    X, U = _state_input_stacks(sys, u_box, n_samples, seed)

    def state(Gs):
        J = finite_difference_jacobian(lambda Y: _mv(G.rows(Y), sys.F_rows(Y, U)), X)
        return J - np.swapaxes(J, 1, 2)

    return _report(sys, G, sigma, X, U, state, tol)


def check_reciprocity_affine(sys: AffineNonlinearSystem, G: MetricField,
                             sigma: SignatureMatrix, tol: float = 1e-6,
                             n_samples: int = 200, seed: int = 0) -> ReciprocityReport:
    """Input-affine specialization: the conditions no longer involve u.

    residual_state  : asymmetry of d(G f)/dx and of every d(G g_j)/dx,
    residual_output : max |sigma k(x) - k(x)^T sigma|,
    residual_cross  : max |G(x) g(x) - (dh/dx)^T sigma|.

    f, g, h or k that works per point only raises DimensionMismatchError naming it.
    """
    sys = _stack_checked_system(sys)
    X = sys.domain.shrink(0.95).sample(n_samples, seed=seed)

    def state(Gs):  # one stencil over all points: J[n, :, j, :] = d(G [f | g]_j)/dx at X[n]
        J = finite_difference_jacobian(lambda Y: G.rows(Y) @ np.concatenate(
            [sys.f(Y)[..., None], sys.g(Y)], axis=-1), X)
        return J - J.transpose(0, 3, 2, 1)

    return _report(sys.to_general(), G, sigma, X, np.zeros((len(X), sys.nu)), state, tol)


def check_reciprocity_hessian(sys: NonlinearSystem, K: ScalarField,
                              sigma: SignatureMatrix, tol: float = 1e-6,
                              u_box: Optional[BoxDomain] = None, n_samples: int = 200,
                              seed: int = 0) -> ReciprocityReport:
    """Reciprocity for a Hessian metric G = hess K.

    The state condition simplifies to G-self-adjointness of the state
    Jacobian, G dF/dx = (dF/dx)^T G; output and cross conditions are as in
    the general check, all points stacked.  For a HessianPseudoGradientSystem
    pass its to_general() with its K.
    """
    X, U = _state_input_stacks(sys, u_box, n_samples, seed)

    def state(Gs):
        Fx = sys.jac_F_x(X, U)
        return Gs @ Fx - np.swapaxes(Fx, 1, 2) @ Gs

    return _report(sys, MetricField.from_hessian(K), sigma, X, U, state, tol)


LINE_QUAD_TOL = 1e-8  # line integrals of reconstruct_K and reconstruct_potential
CLOSEDNESS_TOL = 1e-6  # is_hessian_metric residual below which a metric is Hessian
CLOSEDNESS_SAMPLES = 50  # points is_hessian_metric tests
POTENTIAL_RECIPROCITY_TOL = 1e-5  # check_reciprocity residual reconstruct_potential accepts


def is_hessian_metric(G: MetricField, seed: int = 0) -> dict:
    """Closedness test dG_jk/dx_i = dG_ik/dx_j at CLOSEDNESS_SAMPLES points."""
    xs = G.domain.shrink(0.9).sample(CLOSEDNESS_SAMPLES, seed=seed)
    J = finite_difference_jacobian(G.rows, xs, METRIC_STEP)  # [n, i, j, k] = dG_ij/dx_k
    worst = float(np.max(np.abs(J - J.transpose(0, 3, 2, 1)), initial=0.0))
    return {"hessian": bool(worst <= CLOSEDNESS_TOL), "residual": worst}


def reconstruct_K(G: MetricField, base_point, seed: int = 0) -> ScalarField:
    """Rebuild a generating function whose Hessian is the given metric.

    Uses the homotopy construction along the straight segment from the base
    point, with d = x - x0: the gradient is chi(x) = int_0^1 G(x0 + t d) d dt
    and the value is Taylor's integral remainder
    K(x) = int_0^1 (1 - t) d^T G(x0 + t d) d dt, so K and its gradient vanish
    at x0.  Both are single adaptive composite Gauss-Kronrod integrals.
    Raises DimensionMismatchError when the sampled closedness residual
    exceeds CLOSEDNESS_TOL, since the line integral would be path dependent.
    """
    x0 = as_vector(base_point, G.dim)
    rep = is_hessian_metric(G, seed=seed)
    if not rep["hessian"]:
        raise DimensionMismatchError(
            f"metric is not a Hessian metric (closedness residual {rep['residual']:.3e}); "
            "the line integral would be path dependent")

    def chi(x):
        d = as_vector(x, G.dim) - x0
        return integrate_segment(lambda ts: G.rows(x0 + ts[:, None] * d) @ d,
                                 0.0, 1.0, tol=LINE_QUAD_TOL)

    def value(x):
        d = as_vector(x, G.dim) - x0
        return float(integrate_segment(
            lambda ts: (1.0 - ts) * (G.rows(x0 + ts[:, None] * d) @ d @ d),
            0.0, 1.0, tol=LINE_QUAD_TOL))

    return ScalarField(G.dim, value, G.domain, gradient=chi)


@dataclass(frozen=True)
class PotentialFunction:
    """Joint potential V(x, u) with -dV/dx = G F and -dV/du = sigma H."""

    V: ScalarField


def reconstruct_potential(sys: NonlinearSystem, G: MetricField, sigma: SignatureMatrix,
                          base_point, n_samples: int = 60, seed: int = 0) -> PotentialFunction:
    """Line-integral reconstruction of the potential of a reciprocal system.

    V(x,u) = -int_0^1 [ (G F)(gamma(t)) . (x-x0) + (sigma H)(gamma(t)) . (u-u0) ] dt
    along the straight segment gamma from (x0,u0) to (x,u), with u in the unit cube.
    Requires the sampled reciprocity residuals to sit below POTENTIAL_RECIPROCITY_TOL,
    otherwise the integral is path dependent and AssumptionError is raised.
    """
    x0 = as_vector(base_point[0], sys.nx)
    u0 = as_vector(base_point[1], sys.nu)
    u_box = BoxDomain.cube(sys.nu)
    rep = check_reciprocity(sys, G, sigma, tol=POTENTIAL_RECIPROCITY_TOL, u_box=u_box,
                            n_samples=n_samples, seed=seed)
    if not rep.reciprocal:
        raise AssumptionError(
            "reciprocity", "system fails the reciprocity check "
            f"(residuals {rep.residual_state:.2e}/{rep.residual_output:.2e}/"
            f"{rep.residual_cross:.2e} > {POTENTIAL_RECIPROCITY_TOL}); "
            "potential is path dependent", report=rep)

    n, w0 = sys.nx + sys.nu, np.concatenate([x0, u0])

    def minus_grad(w):  # (G F, sigma H) = -grad V at a point or the rows of a stack, one call each
        x, u = w[..., :sys.nx], w[..., sys.nx:]
        return np.concatenate([_mv(G.rows(x), sys.F_rows(x, u)), sigma.signs * sys.H_rows(x, u)],
                              axis=-1)

    def value(w):
        d = as_vector(w, n) - w0
        return -float(integrate_segment(lambda ts: minus_grad(w0 + ts[:, None] * d) @ d,
                                        0.0, 1.0, tol=LINE_QUAD_TOL))

    field = ScalarField(n, value, BoxDomain.product(sys.domain, u_box),
                        gradient=lambda w: -minus_grad(as_vector(w, n)))
    return PotentialFunction(V=field)
