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
    AffineNonlinearSystem,
    AssumptionError,
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    NonlinearSystem,
    ScalarField,
    SignatureMatrix,
    _mv,
    finite_difference_jacobian,
    integrate_segment,
    symmetry_residual,
    as_vector,
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
    "sample_state_input_points",
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


def _reciprocity_report(rows, tol: float) -> ReciprocityReport:
    """Fold per-point (state, output, cross) residual rows into a report; a
    non-finite residual fails it."""
    worst = np.max(np.reshape(rows, (-1, 3)), axis=0, initial=0.0)
    return ReciprocityReport(*map(float, worst), reciprocal=bool(np.max(worst) <= tol),
                             points_tested=len(rows))


def sample_state_input_points(domain: BoxDomain, u_box: BoxDomain, n: int = 200,
                              seed: int = 0):
    """Low-discrepancy (x, u) pairs over the product box."""
    prod = BoxDomain.product(domain.shrink(0.95), u_box)
    pts = prod.sample(n, seed=seed)
    nx = domain.dim
    return [(p[:nx], p[nx:]) for p in pts]


def check_reciprocity(sys: NonlinearSystem, G: MetricField, sigma: SignatureMatrix,
                      tol: float = 1e-6, u_box: Optional[BoxDomain] = None,
                      n_samples: int = 200, seed: int = 0) -> ReciprocityReport:
    """Sampled residuals of the three reciprocity conditions.

    residual_state  : asymmetry of d(G(x) F(x,u))/dx,
    residual_output : asymmetry of sigma dH/du,
    residual_cross  : max |G(x) dF/du - (dH/dx)^T sigma|.

    The metric is validated (symmetry, determinant floor) at every point.
    """
    sigma.check_inputs(sys.nu)
    pts = sample_state_input_points(sys.domain, u_box or BoxDomain.cube(sys.nu, 1.0),
                                    n_samples, seed)
    sm = sigma.matrix

    def residuals(x, u):
        Gx = G.checked(x)
        J = finite_difference_jacobian(lambda xx: G(xx) @ sys.F(xx, u), x)
        Hu = sys.jac_H_u(x, u)
        gap = Gx @ sys.jac_F_u(x, u) - sys.jac_H_x(x, u).T @ sm
        return symmetry_residual(J), symmetry_residual(sm @ Hu), np.max(np.abs(gap))

    return _reciprocity_report([residuals(x, u) for x, u in pts], tol)


def check_reciprocity_affine(sys: AffineNonlinearSystem, G: MetricField,
                             sigma: SignatureMatrix, tol: float = 1e-6,
                             n_samples: int = 200, seed: int = 0) -> ReciprocityReport:
    """Input-affine specialization: the conditions no longer involve u.

    residual_state  : asymmetry of d(G f)/dx and of every d(G g_j)/dx,
    residual_output : max |sigma k(x) - k(x)^T sigma|,
    residual_cross  : max |G(x) g(x) - (dh/dx)^T sigma|.
    """
    sigma.check_inputs(sys.nu)
    xs = sys.domain.shrink(0.95).sample(n_samples, seed=seed)
    sm = sigma.matrix

    def G_fg(xx):
        # G [f | g], so one stencil gives d(G f)/dx and every d(G g_j)/dx
        fg = np.column_stack([as_vector(sys.f(xx), sys.nx),
                              np.asarray(sys.g(xx), dtype=float).reshape(sys.nx, sys.nu)])
        return G(xx) @ fg

    def residuals(x):
        Gx = G.checked(x)
        J = finite_difference_jacobian(G_fg, x)  # J[:, j, :] = d(G [f | g]_j)/dx
        kx = np.asarray(sys.k(x), dtype=float).reshape(sys.nu, sys.nu)
        gap = Gx @ np.asarray(sys.g(x), dtype=float).reshape(sys.nx, sys.nu) - sys.jac_h(x).T @ sm
        return (np.max(np.abs(J - J.transpose(2, 1, 0))),
                np.max(np.abs(sm @ kx - kx.T @ sm)), np.max(np.abs(gap)))

    return _reciprocity_report([residuals(x) for x in xs], tol)


def check_reciprocity_hessian(sys: NonlinearSystem, K: ScalarField,
                              sigma: SignatureMatrix, tol: float = 1e-6,
                              u_box: Optional[BoxDomain] = None, n_samples: int = 200,
                              seed: int = 0) -> ReciprocityReport:
    """Reciprocity for a Hessian metric G = hess K.

    The state condition simplifies to G-self-adjointness of the state
    Jacobian, G dF/dx = (dF/dx)^T G; output and cross conditions are as in
    the general check.
    """
    sigma.check_inputs(sys.nu)
    G = MetricField.from_hessian(K)
    pts = sample_state_input_points(sys.domain, u_box or BoxDomain.cube(sys.nu, 1.0),
                                    n_samples, seed)
    sm = sigma.matrix

    def residuals(x, u):
        Gx = G.checked(x)
        Fx, Hu = sys.jac_F_x(x, u), sys.jac_H_u(x, u)
        gap = Gx @ sys.jac_F_u(x, u) - sys.jac_H_x(x, u).T @ sm
        return (np.max(np.abs(Gx @ Fx - Fx.T @ Gx)), symmetry_residual(sm @ Hu),
                np.max(np.abs(gap)))

    return _reciprocity_report([residuals(x, u) for x, u in pts], tol)


METRIC_PARTIAL_STEP = 1e-5
LINE_QUAD_TOL = 1e-8  # line integrals of reconstruct_K and reconstruct_potential
CLOSEDNESS_TOL = 1e-6  # is_hessian_metric residual that reconstruct_K accepts
POTENTIAL_RECIPROCITY_TOL = 1e-5  # check_reciprocity residual reconstruct_potential accepts


def is_hessian_metric(G: MetricField, tol: float = 1e-6, n_samples: int = 50,
                      seed: int = 0) -> dict:
    """Closedness test dG_jk/dx_i = dG_ik/dx_j at sampled points."""
    Js = (finite_difference_jacobian(G, x, METRIC_PARTIAL_STEP)  # J[i, j, k] = dG_ij/dx_k
          for x in G.domain.shrink(0.9).sample(n_samples, seed=seed))
    worst = float(np.max([np.max(np.abs(J - J.transpose(2, 1, 0))) for J in Js], initial=0.0))
    return {"hessian": bool(worst <= tol), "residual": worst}


def reconstruct_K(G: MetricField, base_point, seed: int = 0) -> ScalarField:
    """Rebuild a generating function whose Hessian is the given metric.

    Uses the homotopy construction along the straight segment from the base
    point, with d = x - x0: the gradient is chi(x) = int_0^1 G(x0 + t d) d dt
    and the value is Taylor's integral remainder
    K(x) = int_0^1 (1 - t) d^T G(x0 + t d) d dt, so K and its gradient vanish
    at x0.  Both are single adaptive composite Gauss-Legendre integrals.
    Raises DimensionMismatchError when the sampled closedness residual
    exceeds CLOSEDNESS_TOL, since the line integral would be path dependent.
    """
    x0 = as_vector(base_point, G.dim)
    rep = is_hessian_metric(G, tol=CLOSEDNESS_TOL, seed=seed)
    if not rep["hessian"]:
        raise DimensionMismatchError(
            f"metric is not a Hessian metric (closedness residual {rep['residual']:.3e}); "
            "the line integral would be path dependent")

    def chi(x):
        d = as_vector(x, G.dim) - x0
        if not np.any(d):
            return np.zeros(G.dim)
        return integrate_segment(lambda ts: G.rows(x0 + ts[:, None] * d) @ d,
                                 0.0, 1.0, tol=LINE_QUAD_TOL)

    def value(x):
        d = as_vector(x, G.dim) - x0
        if not np.any(d):
            return 0.0
        return float(integrate_segment(
            lambda ts: (1.0 - ts) * (G.rows(x0 + ts[:, None] * d) @ d @ d),
            0.0, 1.0, tol=LINE_QUAD_TOL))

    return ScalarField(G.dim, value, G.domain, gradient=chi)


@dataclass(frozen=True)
class PotentialFunction:
    """Joint potential V(x, u) with -dV/dx = G F and -dV/du = sigma H."""

    V: ScalarField
    base_point: tuple
    nx: int
    nu: int

    def split_grad(self, x, u):
        g = self.V.grad(np.concatenate([as_vector(x, self.nx), as_vector(u, self.nu)]))
        return g[:self.nx], g[self.nx:]


def reconstruct_potential(sys: NonlinearSystem, G: MetricField, sigma: SignatureMatrix,
                          base_point, u_box: Optional[BoxDomain] = None,
                          n_samples: int = 60, seed: int = 0) -> PotentialFunction:
    """Line-integral reconstruction of the potential of a reciprocal system.

    V(x,u) = -int_0^1 [ (G F)(gamma(t)) . (x-x0) + (sigma H)(gamma(t)) . (u-u0) ] dt
    along the straight segment gamma from (x0,u0) to (x,u).  Requires the
    sampled reciprocity residuals to sit below POTENTIAL_RECIPROCITY_TOL,
    otherwise the integral is path dependent and AssumptionError is raised.
    """
    x0 = as_vector(base_point[0], sys.nx)
    u0 = as_vector(base_point[1], sys.nu)
    if u_box is None:
        u_box = BoxDomain.cube(sys.nu, 1.0)
    rep = check_reciprocity(sys, G, sigma, tol=POTENTIAL_RECIPROCITY_TOL, u_box=u_box,
                            n_samples=n_samples, seed=seed)
    if not rep.reciprocal:
        raise AssumptionError(
            "reciprocity", "system fails the reciprocity check "
            f"(residuals {rep.residual_state:.2e}/{rep.residual_output:.2e}/"
            f"{rep.residual_cross:.2e} > {POTENTIAL_RECIPROCITY_TOL}); "
            "potential is path dependent", report=rep)

    n, w0 = sys.nx + sys.nu, np.concatenate([x0, u0])

    def minus_grad_rows(W):  # rows (G F, sigma H) = -grad V at the rows of W, one call each
        X, U = W[:, :sys.nx], W[:, sys.nx:]
        return np.hstack([_mv(G.rows(X), sys.F_rows(X, U)), sigma.signs * sys.H_rows(X, U)])

    def value(w):
        d = as_vector(w, n) - w0
        if not np.any(d):
            return 0.0
        return -float(integrate_segment(lambda ts: minus_grad_rows(w0 + ts[:, None] * d) @ d,
                                        0.0, 1.0, tol=LINE_QUAD_TOL))

    field = ScalarField(n, value, BoxDomain.product(sys.domain, u_box),
                        gradient=lambda w: -minus_grad_rows(as_vector(w, n)[None])[0])
    return PotentialFunction(V=field, base_point=(x0, u0), nx=sys.nx, nu=sys.nu)
