"""Legendre transforms of nondegenerate generating functions.

The conjugate K*(z) = z.x - K(x) is evaluated pointwise by solving
grad K(x) = z with a damped Newton iteration; the co-domain is represented
implicitly (a point z belongs to it exactly when Newton converges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    AssumptionError,
    BoxDomain,
    ConvergenceError,
    DomainError,
    ScalarField,
    SingularMatrixError,
    as_vector,
)

__all__ = [
    "LegendrePair",
    "HomogeneityReport",
    "legendre_transform",
    "make_legendre_pair",
    "tilde_function",
    "homogeneity_check",
    "euler_degree_check",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 80
# Iterates may leave the nominal box slightly; reject only beyond this inflation.
BOX_INFLATE = 0.25


def _solve_gradient_equation(K: ScalarField, z: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Damped Newton solve of grad K(x) = z starting from x0.

    Convergence is measured relative to 1 + |z|; a line search that stalls
    within a small factor of that target returns the current iterate rather
    than failing on rounding noise.
    """
    box = K.domain
    lo = box.lower - BOX_INFLATE * box.width
    hi = box.upper + BOX_INFLATE * box.width
    goal = NEWTON_TOL * (1.0 + float(np.linalg.norm(z)))
    x = np.array(x0, dtype=float)
    r = K.grad(x) - z
    rn = np.linalg.norm(r)
    for _ in range(NEWTON_MAX_ITER):
        if rn <= goal:
            return x
        H = K.hess(x)
        try:
            step = np.linalg.solve(H, r)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"singular Hessian at x={x}") from exc
        lam = 1.0
        while True:
            cand = x - lam * step
            inside = np.all(cand >= lo) and np.all(cand <= hi)
            if inside:
                rc = K.grad(cand) - z
                rcn = np.linalg.norm(rc)
                if rcn < rn or rcn <= goal:
                    x, r, rn = cand, rc, rcn
                    break
            lam *= 0.5
            if lam < 1e-8:
                if rn <= 100.0 * goal:
                    return x
                raise ConvergenceError(
                    f"Newton stalled solving grad K = z at z={z} (residual {rn:.3e})")
    if rn <= goal:
        return x
    raise ConvergenceError(
        f"Newton did not reach residual {NEWTON_TOL} for z={z} (got {rn:.3e}); "
        "z may lie outside the co-domain")


def legendre_transform(K: ScalarField, z, x_init=None):
    """Pointwise conjugate: returns (x, K*(z)) with grad K(x) = z.

    Parameters
    ----------
    K : ScalarField
        Generating function with invertible Hessian along the Newton path.
    z : array_like
        Co-vector at which to evaluate the conjugate.
    x_init : array_like, optional
        Newton starting point; defaults to the domain center.
    """
    zz = as_vector(z, K.dim)
    x0 = K.domain.center if x_init is None else as_vector(x_init, K.dim)
    x = _solve_gradient_equation(K, zz, x0)
    return x, float(zz @ x - K(x))


@dataclass(frozen=True)
class LegendrePair:
    """Generating function K together with its conjugate K*.

    forward maps x to z = grad K(x); inverse maps z back via Newton.
    margins holds the worst round_trip_gap, hessian_inverse_gap and
    biconjugate_gap the verification measured (empty when not verified).
    """

    K: ScalarField
    Kstar: ScalarField
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    margins: dict


def make_legendre_pair(K: ScalarField, samples: int = 200, seed: int = 0,
                       verify: bool = True, round_trip_tol: float = 1e-8,
                       biconjugate_tol: float = 1e-8,
                       hessian_tol: float = 1e-6) -> LegendrePair:
    """Construct K* by Newton inversion from the domain center; verify the pair.

    inverse is deterministic in z: the same co-vector gives a bit-identical x
    whatever was queried before.

    Verification samples x in the domain of K, pushes z = grad K(x) (always a
    valid co-domain point), solves xb = inverse(z) once and checks

    * grad K*(grad K(x)) = x          within round_trip_tol,
    * hess K*(grad K(x)) = hess K(x)^-1  within hessian_tol,
    * (K*)*(x) = K(x)                 within biconjugate_tol,

    where the biconjugate is the closed form (K*)*(x) = x.z - (z.xb - K(xb)):
    z solves grad K* = x up to the round-trip gap, and this is the value
    legendre_transform(Kstar, x, x_init=z) returns when its Newton accepts
    that start.  The worst gaps become the pair's margins.  A Newton solve
    that fails raises ConvergenceError or SingularMatrixError; a gap above its
    tolerance raises AssumptionError with the margins as its report.
    """
    def inverse(z):
        zz = as_vector(z, K.dim)
        c, w = K.domain.center, K.domain.width
        # offset restarts cover centers where the Hessian degenerates
        starts = (c, c + 0.1 * w * np.sign(zz), c - 0.1 * w)
        err = None
        for s in starts:
            try:
                x = _solve_gradient_equation(K, zz, s)
            except (ConvergenceError, SingularMatrixError) as exc:
                err = exc
                continue
            return x
        raise err

    def star_value(z):
        zz = as_vector(z, K.dim)
        x = inverse(zz)
        return float(zz @ x - K(x))

    def star_hess(z):
        x = inverse(z)
        return np.linalg.inv(K.hess(x))

    # Best-effort box for the conjugate: bounding box of pushed-forward samples.
    push = np.array([K.grad(x) for x in K.domain.sample(max(64, samples), seed=seed)])
    zlo, zhi = push.min(axis=0), push.max(axis=0)
    spread = np.maximum(zhi - zlo, 1e-6)
    zbox = BoxDomain(zlo - 0.05 * spread, zhi + 0.05 * spread).shrink(0.95)

    Kstar = ScalarField(K.dim, star_value, zbox, gradient=inverse, hessian=star_hess)
    margins: dict = {}
    if verify:
        worst_rt = worst_hess = worst_bi = 0.0
        for x in K.domain.shrink(0.98).sample(samples, seed=seed + 1):
            z = K.grad(x)
            xb = inverse(z)
            worst_rt = max(worst_rt, float(np.max(np.abs(xb - x))))
            Hgap = K.hess(x) @ np.linalg.inv(K.hess(xb)) - np.eye(K.dim)
            worst_hess = max(worst_hess, float(np.max(np.abs(Hgap))))
            kx, kss = K(x), float(x @ z - float(z @ xb - K(xb)))
            worst_bi = max(worst_bi, abs(kss - kx) / (1.0 + abs(kx)))
        margins = {"round_trip_gap": worst_rt, "hessian_inverse_gap": worst_hess,
                   "biconjugate_gap": worst_bi}
        if worst_rt > round_trip_tol:
            raise AssumptionError("round-trip", f"grad K* o grad K gap {worst_rt:.3e} "
                                  f"> {round_trip_tol:g}", margins)
        if worst_hess > hessian_tol:
            raise AssumptionError("hessian-inverse", f"identity gap {worst_hess:.3e} "
                                  f"> {hessian_tol:g}", margins)
        if worst_bi > biconjugate_tol:
            raise AssumptionError("biconjugation", f"gap {worst_bi:.3e} > {biconjugate_tol:g}",
                                  margins)
    return LegendrePair(K=K, Kstar=Kstar, forward=lambda x: K.grad(x), inverse=inverse,
                        margins=margins)


def tilde_function(S: ScalarField, pair: Optional[LegendrePair] = None,
                   samples: int = 60, seed: int = 0) -> ScalarField:
    """Pullback of S through the inverse gradient map: z -> S(grad S*(z)).

    The returned field carries the analytic gradient z -> hess S*(z) z, which
    vanishes at z = 0.  S~(z) = z.grad S*(z) - S*(z) holds by construction,
    since S*(z) = z.grad S*(z) - S(grad S*(z)).  When S has positive
    semidefinite Hessian on the sampled domain and 0 lies in the co-domain,
    the floor S~(0) <= S(x) = S~(grad S(x)) is checked at sampled points;
    S~(0) is the only Newton solve this makes.
    """
    p = pair if pair is not None else make_legendre_pair(S, samples=max(64, samples),
                                                         seed=seed, verify=False)

    def value(z):
        return S(p.inverse(z))

    def gradient(z):
        zz = as_vector(z, S.dim)
        return p.Kstar.hess(zz) @ zz

    tilde = ScalarField(S.dim, value, p.Kstar.domain, gradient=gradient)
    xs = S.domain.shrink(0.95).sample(samples, seed=seed + 2)
    if any(np.linalg.eigvalsh(S.hess(x)).min() < -1e-10 for x in xs):
        return tilde
    try:
        v0 = tilde(np.zeros(S.dim))
    except (ConvergenceError, SingularMatrixError):
        # 0 outside the co-domain: the floor check is not applicable
        return tilde
    floor = min((S(x) for x in xs), default=v0)
    if floor < v0 - 1e-10:
        raise ConvergenceError(
            f"tilde floor violated: min sample {floor:.6e} < value at 0 {v0:.6e}")
    return tilde


@dataclass(frozen=True)
class HomogeneityReport:
    equal: bool
    degree2: bool
    max_conjugacy_gap: float
    max_scaling_gap: float


def homogeneity_check(K: ScalarField, tol: float = 1e-8, samples: int = 200,
                      seed: int = 0) -> HomogeneityReport:
    """Test K*(grad K(x)) = K(x) against quadratic homogeneity of K - K(0).

    Both properties are sampled on a sub-box chosen so that 2x stays inside
    the domain; the two booleans agree for fields with exact structure.
    Raises DomainError when the origin is not available for the K(0) offset.
    """
    box = K.domain
    if not (np.all(box.lower <= 0) and np.all(box.upper >= 0)):
        raise DomainError("homogeneity check needs 0 in the closed domain box")
    half = BoxDomain(0.5 * box.lower, 0.5 * box.upper)

    k0 = K(np.clip(np.zeros(K.dim), box.lower, box.upper))
    worst_eq = 0.0
    worst_deg = 0.0
    for x in half.shrink(0.98).sample(samples, seed=seed):
        # K*(grad K(x)) = x.grad K(x) - K(x): x is already the preimage
        ks = float(K.grad(x) @ x) - K(x)
        worst_eq = max(worst_eq, abs(ks - K(x)) / (1.0 + abs(K(x))))
        base = K(x) - k0
        for t in (0.5, 2.0):
            gap = abs(K(t * x) - k0 - t * t * base)
            worst_deg = max(worst_deg, gap / (1.0 + abs(base)))
    return HomogeneityReport(
        equal=bool(worst_eq <= tol),
        degree2=bool(worst_deg <= tol),
        max_conjugacy_gap=float(worst_eq),
        max_scaling_gap=float(worst_deg),
    )


def euler_degree_check(f: ScalarField, degree: float, tol: float = 1e-8,
                       samples: int = 200, seed: int = 0) -> bool:
    """Euler identity grad f(x).x = degree * f(x) at sampled points."""
    for x in f.domain.shrink(0.98).sample(samples, seed=seed):
        lhs = float(f.grad(x) @ x)
        rhs = degree * f(x)
        if abs(lhs - rhs) > tol * (1.0 + abs(f(x))):
            return False
    return True
