"""Legendre transforms of nondegenerate generating functions.

The conjugate K*(z) = z.x - K(x) is evaluated pointwise by solving grad K(x) = z,
in closed form for a verified declared conjugate gradient (ScalarField.conjugate_gradient,
which core.quadratic_field and a degree-2 core.Polynomial field declare), and by damped
Newton otherwise; the co-domain is implicit (a point z belongs to it exactly when the
closed form lands in the box or Newton converges).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    AssumptionError,
    BoxDomain,
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    ScalarField,
    SingularMatrixError,
    _box_test,
    _evaluators,
    _lapack,
    _rows,
    _umath_linalg,
    as_vector,
)

__all__ = [
    "LegendrePair",
    "HomogeneityReport",
    "legendre_transform",
    "make_legendre_pair",
    "homogeneity_check",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 80
# Iterates may leave the nominal box slightly; reject only beyond this inflation.
BOX_INFLATE = 0.25


def _newton_error(kind: str, z, x0, x, it: int, rn: float) -> Exception:
    """The error a failed per-point solve of grad K(x) = z raises."""
    what = {"singular": f"met a singular Hessian at x={x} in iteration {it}",
            "stalled": f"stalled in iteration {it}",
            "budget": f"did not reach residual {NEWTON_TOL} in {it} iterations"}[kind]
    return (SingularMatrixError if kind == "singular" else ConvergenceError)(
        f"Newton {what} solving grad K = z at z={z} (residual {rn:.3e}, start {x0})")


def _inflated(box: BoxDomain) -> tuple:
    return box.lower - BOX_INFLATE * box.width, box.upper + BOX_INFLATE * box.width


def _shaped(A: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """A once it has the shape asked for: a batched callable's output is unchecked."""
    if A.shape != shape:
        raise DimensionMismatchError(f"{name} has shape {A.shape}, expected {shape}")
    return A


def _point_solver(K: ScalarField) -> Callable:
    """The damped Newton solve of grad K(x) = z for one co-vector, as solve(z, x0), with the
    setup that depends on K alone done here once: the inflated box's test and K's evaluators.

    Convergence is measured relative to 1 + |z|; a line search that stalls
    within a small factor of that target returns the current iterate rather
    than failing on rounding noise.  z and x0 arrive checked: each iteration
    calls K's evaluators (core._evaluators) at the point, takes every norm as
    sqrt(r @ r), np.linalg.norm bit for bit, solves for the step through
    core._lapack, np.linalg.solve bit for bit, and tests each line-search candidate
    against the inflated box on Python floats (core._box_test).
    """
    inside = _box_test(*_inflated(K.domain))
    _, grad, hess = _evaluators(K)
    square, solve1 = (K.dim, K.dim), _umath_linalg.solve1

    def solve(z: np.ndarray, x0: np.ndarray) -> np.ndarray:
        goal = NEWTON_TOL * (1.0 + math.sqrt(z @ z))
        x = np.array(x0, dtype=float)
        r = grad(x) - z
        rn = math.sqrt(r @ r)
        for it in range(1, NEWTON_MAX_ITER + 1):
            if rn <= goal:
                return x
            H = _shaped(hess(x), square, "hessian")
            try:
                step = _lapack(solve1, H, r)
            except np.linalg.LinAlgError as exc:
                raise _newton_error("singular", z, x0, x, it, rn) from exc
            lam, cand = 1.0, x - step
            while True:
                if inside(cand):
                    rc = grad(cand) - z
                    rcn = math.sqrt(rc @ rc)
                    if rcn < rn or rcn <= goal:
                        x, r, rn = cand, rc, rcn
                        break
                lam *= 0.5
                if lam < 1e-8:
                    if rn <= 100.0 * goal:
                        return x
                    raise _newton_error("stalled", z, x0, x, it, rn)
                cand = x - lam * step
        if rn <= goal:
            return x
        raise _newton_error("budget", z, x0, x, NEWTON_MAX_ITER, rn)

    return solve


def _solve_gradient_equations(K: ScalarField, Z: np.ndarray, X0: np.ndarray):
    """_point_solver's solve for each row of Z, all rows advancing in lockstep.

    Each row keeps the per-point rules and gets the per-point x bit for bit.
    Returns X and the indices of the failed rows, ascending.
    """
    lo, hi = _inflated(K.domain)
    goal = NEWTON_TOL * (1.0 + np.sqrt(np.vecdot(Z, Z)))  # np.linalg.norm, row by row
    X, S = np.array(X0, dtype=float), np.zeros(Z.shape)
    R = K.grad_rows(X) - Z
    RN = np.sqrt(np.vecdot(R, R))
    live, failed = ~(RN <= goal), np.zeros(len(Z), dtype=bool)

    def stop(rows, fail=False):
        live[rows] = False
        failed[rows] |= fail

    for _ in range(NEWTON_MAX_ITER):
        rows = np.flatnonzero(live)
        if not rows.size:
            return X, np.flatnonzero(failed)
        H = _shaped(K.hess_rows(X[rows]), (rows.size, K.dim, K.dim), "hessian")
        try:
            S[rows] = np.linalg.solve(H, R[rows, :, None])[..., 0]
        except np.linalg.LinAlgError:  # some Hessians are singular: each such row fails alone
            for j, i in enumerate(rows):
                try:
                    S[i] = np.linalg.solve(H[j], R[i])
                except np.linalg.LinAlgError:
                    stop([i], True)
        lam, todo = 1.0, np.flatnonzero(live)  # rows still backtracking
        while todo.size and lam >= 1e-8:
            cand = X[todo] - lam * S[todo]
            inside = np.all((cand >= lo) & (cand <= hi), axis=1)
            rows, cand = todo[inside], cand[inside]
            Rc = K.grad_rows(cand) - Z[rows]
            RCN = np.sqrt(np.vecdot(Rc, Rc))
            took = (RCN < RN[rows]) | (RCN <= goal[rows])
            rows = rows[took]
            X[rows], R[rows], RN[rows] = cand[took], Rc[took], RCN[took]
            todo = todo[~np.isin(todo, rows)]
            lam *= 0.5
        stop(todo[RN[todo] <= 100.0 * goal[todo]])
        stop(todo[live[todo]], True)
        stop(np.flatnonzero(RN <= goal))
    stop(np.flatnonzero(live), True)
    return X, np.flatnonzero(failed)


def _point_inverse(K: ScalarField) -> Callable:
    """z -> x solving grad K(x) = z for one checked co-vector by the per-point solver, bound
    here once with the starts' fixed parts: the domain center, then offsets of 0.1 * width
    that cover a degenerate Hessian there.  Each start is built and tried only if the last
    failed; if all fail, the last error is raised, naming the starts tried.  This is the
    one restart policy: _invert hands it the rows its lockstep solve failed, with the
    center start already tried, so invert(z, 1) goes on from the first offset."""
    solve, center, offset = _point_solver(K), K.domain.center, 0.1 * K.domain.width

    def starts(z):
        yield center
        yield center + offset * np.sign(z)
        yield center - offset

    def invert(z: np.ndarray, tried: int = 0) -> np.ndarray:
        for s in itertools.islice(starts(z), tried, None):
            try:
                return solve(z, s)
            except (ConvergenceError, SingularMatrixError) as exc:
                err = exc
        tried = ", ".join(map(str, starts(z)))
        raise type(err)(f"{err}; starts tried: {tried}") from err

    return invert


def _invert(K: ScalarField, Z: np.ndarray) -> np.ndarray:
    """Solve grad K(x) = z for each row of a stack Z: one lockstep solve from the domain
    center, then each row it failed by _point_inverse, which owns the restarts, from the
    start after the center, so a row gets the x its co-vector gets alone.  The first row
    that fails from every start raises _point_inverse's error, prefixed "row i of N: ".
    """
    X, failed = _solve_gradient_equations(K, Z, np.broadcast_to(K.domain.center, Z.shape))
    if failed.size:
        invert = _point_inverse(K)
        for i in failed:
            try:
                X[i] = invert(Z[i], 1)
            except (ConvergenceError, SingularMatrixError) as err:
                raise type(err)(f"row {i} of {len(Z)}: {err}") from err
    return X


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
    x = _point_solver(K)(zz, x0)
    return x, float(zz @ x - K(x))


@dataclass(frozen=True)
class LegendrePair:
    """Generating function K together with its conjugate K*.

    forward maps x to z = grad K(x); inverse maps z back, in closed form or by Newton.
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
    """Construct K* in closed form for a declared conjugate gradient, else by Newton
    inversion; verify the pair.

    inverse takes a co-vector or a stack of them; it is deterministic in z:
    the same co-vector gives a bit-identical x whatever was queried before.

    Verification samples x in the domain of K, pushes z = grad K(x) (always a
    valid co-domain point), solves xb = inverse(z) once and checks

    * grad K*(grad K(x)) = x          within round_trip_tol,
    * hess K*(grad K(x)) = hess K(x)^-1  within hessian_tol,
    * (K*)*(x) = K(x)                 within biconjugate_tol,

    where the biconjugate is the closed form (K*)*(x) = x.z - (z.xb - K(xb)):
    z solves grad K* = x up to the round-trip gap, and this is the value
    legendre_transform(Kstar, x, x_init=z) returns when its Newton accepts
    that start.  The worst gaps become the pair's margins.  The samples are
    the pair's one design, one stack evaluated row-stacked (a gradient stack
    not shaped like it raises DimensionMismatchError) and inverted by _invert
    (row for row equal to inverse); a failed solve raises ConvergenceError or
    SingularMatrixError naming the first failing row; a gap above its
    tolerance, or a non-finite one, raises AssumptionError with the margins
    as its report.  The co-vectors z also give Kstar its box: their bounding
    box, widened by 5% of their spread.

    Closed form: a declared K.conjugate_gradient gives xb at z, and the three gaps
    must pass on the samples, verify or not, or AssumptionError is raised; its value
    at a point is taken as a float vector of length dim (as_vector), so a list is an
    array and a wrong length raises DimensionMismatchError.  inverse(z) then takes
    the closed-form x with no Newton solve; an x outside the box inflated by
    BOX_INFLATE (or NaN, no preimage) goes on to Newton.  Kstar.hess is hess K
    inverted (core._lapack) at inverse(z), so it refuses the co-vectors inverse
    refuses.  The per-point solver, its starts, K's evaluators and the inflated box's
    point test (core._box_test) are bound here once, for inverse, Kstar.hess and every
    Newton iteration; a stack keeps numpy's test.  Kstar is batched: its value,
    gradient (inverse) and Hessian take a point, by the per-point solver, or a
    stack, inverted at once (the closed form or one lockstep _invert) with its
    Hessians inverted in one gufunc call, row for row the per-point bits.  A stack
    whose rows are not co-vectors of K raises DimensionMismatchError.
    """
    box = K.domain
    lo, hi = _inflated(box)
    invert, hess, square = _point_inverse(K), _evaluators(K)[2], (K.dim, K.dim)
    inside = _box_test(lo, hi)
    X = box.shrink(0.98).sample(samples, seed=seed + 1)
    Z = _shaped(K.grad_rows(X), X.shape, "gradient")

    declared, closed = K.conjugate_gradient, None  # closed: z -> x in closed form
    if declared is not None:
        point = lambda zz: as_vector(declared(zz), K.dim)  # a point's x, checked as a row is
        closed = lambda zz: point(zz) if zz.ndim == 1 else _rows(
            K.batched, declared, point, (K.dim,), zz)
    if verify or closed is not None:  # the margins of xb = inverse(z) on the samples
        XB = _invert(K, Z) if closed is None else _shaped(closed(Z), X.shape, "conjugate gradient")
        Hgap = K.hess_rows(X) @ np.linalg.inv(K.hess_rows(XB)) - np.eye(K.dim)
        kx, kss = K.value_rows(X), np.vecdot(X, Z) - (np.vecdot(Z, XB) - K.value_rows(XB))
        found = (np.abs(XB - X), np.abs(Hgap), np.abs(kss - kx) / (1.0 + np.abs(kx)))
        checks = (("round-trip", "round_trip_gap", "grad K* o grad K gap", round_trip_tol),
                  ("hessian-inverse", "hessian_inverse_gap", "identity gap", hessian_tol),
                  ("biconjugation", "biconjugate_gap", "gap", biconjugate_tol))
        margins = {c[1]: float(np.max(gap, initial=0.0)) for c, gap in zip(checks, found)}
        for name, key, what, tol in checks:
            if not margins[key] <= tol:
                raise AssumptionError(name, f"{what} {margins[key]:.3e} > {tol:g}", margins)

    def solve(zz):  # a checked co-vector or stack: the closed form if it lands in the box
        if closed is not None:
            x = closed(zz)
            if inside(x) if zz.ndim == 1 else ((x >= lo) & (x <= hi)).all():  # False on NaN
                return x
        return invert(zz) if zz.ndim == 1 else _invert(K, zz)

    def checked(z):  # a stack's width is checked here, a point's by as_vector
        if np.ndim(z) == 2:
            return _shaped(np.asarray(z, dtype=float), (len(z), K.dim), "co-vector stack")
        return as_vector(z, K.dim)

    def inverse(z):
        return solve(checked(z))

    def star_value(z):
        zz = checked(z)
        x = solve(zz)
        return float(zz @ x - K(x)) if zz.ndim == 1 else np.vecdot(zz, x) - K.value_rows(x)

    def star_hess(z):  # a point from ScalarField.hess arrives checked
        zz = z if np.ndim(z) == 1 else checked(z)
        return _lapack(_umath_linalg.inv, _shaped(hess(solve(zz)), zz.shape[:-1] + square,
                                                  "hessian"))

    # Best-effort box for the conjugate: bounding box of the verification co-vectors.
    zlo, zhi = Z.min(axis=0), Z.max(axis=0)
    spread = np.maximum(zhi - zlo, 1e-6)
    zbox = BoxDomain(zlo - 0.05 * spread, zhi + 0.05 * spread).shrink(0.95)

    Kstar = ScalarField(K.dim, star_value, zbox, gradient=inverse, hessian=star_hess,
                        batched=True)
    return LegendrePair(K=K, Kstar=Kstar, forward=lambda x: K.grad(x), inverse=inverse,
                        margins=margins if verify else {})


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
    the domain; the two booleans agree for fields with exact structure.  The
    samples are one stack, evaluated row-stacked, and need no Newton solve:
    K*(grad K(x)) = x.grad K(x) - K(x).  Raises DomainError when the origin
    is not available for the K(0) offset, and DimensionMismatchError when the
    gradient stack is not shaped like the samples.
    """
    box = K.domain
    if not (np.all(box.lower <= 0) and np.all(box.upper >= 0)):
        raise DomainError("homogeneity check needs 0 in the closed domain box")
    half = BoxDomain(0.5 * box.lower, 0.5 * box.upper)

    k0 = K(np.zeros(K.dim))
    X = half.shrink(0.98).sample(samples, seed=seed)
    kx = K.value_rows(X)
    ks = np.vecdot(_shaped(K.grad_rows(X), X.shape, "gradient"), X) - kx
    worst_eq = float(np.max(np.abs(ks - kx) / (1.0 + np.abs(kx)), initial=0.0))
    base = kx - k0
    worst_deg = float(np.max([np.abs(K.value_rows(t * X) - k0 - t * t * base)
                              / (1.0 + np.abs(base)) for t in (0.5, 2.0)], initial=0.0))
    return HomogeneityReport(
        equal=bool(worst_eq <= tol),
        degree2=bool(worst_deg <= tol),
        max_conjugacy_gap=worst_eq,
        max_scaling_gap=worst_deg,
    )
