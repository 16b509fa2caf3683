"""Core numerical vocabulary shared by the rest of the toolkit.

Box domains, scalar and metric fields with finite-difference fallbacks,
signature matrices, and input-state-output system containers.  Objects are
immutable after construction and their evaluation maps are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj  # what np.errstate sets
from numpy.linalg import _umath_linalg  # the LAPACK gufuncs np.linalg.solve and inv call

__all__ = [
    "RecipkitError",
    "DimensionMismatchError",
    "DomainError",
    "SingularMatrixError",
    "ConvergenceError",
    "AssumptionError",
    "SchemaError",
    "BoxDomain",
    "ScalarField",
    "MetricField",
    "SignatureMatrix",
    "NonlinearSystem",
    "AffineNonlinearSystem",
    "Polynomial",
    "quadratic_field",
    "finite_difference_jacobian",
    "hessian_from_value",
    "symmetry_residual",
    "integrate_segment",
    "validate_scalar_field",
    "validate_metric_field",
]

# Central-difference step floor; relative scaling keeps the step meaningful
# for components far from the origin.
GRAD_STEP = 1e-6
# Second differences of raw values need a larger step to beat rounding noise.
HESS_VALUE_STEP = 1e-4
DET_FLOOR = 1e-12
SYM_TOL = 1e-10  # max |M - M^T| of a metric or of a supplied Hessian
# relative gaps of supplied derivatives to central differences
GRAD_TOL = 1e-5
HESS_TOL = 1e-4
# central-difference step of a metric's derivatives: Christoffel coefficients, Hessian closedness
METRIC_STEP = 1e-5
VALIDATE_SAMPLES = 20  # points validate_scalar_field and validate_metric_field test
# composite Gauss-Kronrod: Gauss nodes per panel, whose 2 * QUAD_NODES + 1 Kronrod nodes
# the G32/K65 table below fixes; doublings of the panel count
QUAD_NODES = 32
QUAD_MAX_DOUBLINGS = 10
# Halton designs kept per process, and the largest n * dim kept: at most 1 MiB of tables
HALTON_MEMO_ENTRIES = 128
HALTON_MEMO_POINTS = 1024


class RecipkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(RecipkitError):
    pass


class DomainError(RecipkitError):
    pass


class SingularMatrixError(RecipkitError):
    pass


class ConvergenceError(RecipkitError):
    pass


class AssumptionError(RecipkitError):
    """A named structural assumption failed a numerical check."""

    def __init__(self, name: str, message: str, report=None):
        super().__init__(f"assumption {name}: {message}")
        self.name = name
        self.report = report


class SchemaError(RecipkitError):
    pass


_FLOAT = np.dtype(float)


def as_vector(x, n: Optional[int] = None) -> np.ndarray:
    # a valid float64 vector passes as itself, which the general path returns too
    if (type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim == 1
            and (n is None or x.shape[0] == n)):
        return x
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatchError(f"expected length {n}, got {v.shape[0]}")
    return v


def as_matrix(M, shape=None) -> np.ndarray:
    if (type(M) is np.ndarray and M.dtype is _FLOAT and M.ndim == 2
            and (shape is None or M.shape == shape)):
        return M
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if shape is not None and A.shape != tuple(shape):
        raise DimensionMismatchError(f"expected shape {tuple(shape)}, got {A.shape}")
    return A


def symmetry_residual(M) -> float:
    """Max-abs deviation of a square matrix from its transpose.

    Returns 0.0 exactly for symmetrized inputs such as ``M + M.T``.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"symmetry_residual needs a square matrix, got {A.shape}")
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A - A.T)))


def _checked_stack(values, shape: tuple) -> np.ndarray:
    """values, nested lists of vectors of length shape[-1] (scalars when that length is 1),
    as one float array of the given shape, built and checked once."""
    try:
        V = np.array(values, dtype=float)
    except ValueError as exc:  # ragged entries
        raise DimensionMismatchError(f"expected entries of length {shape[-1]}: {exc}") from exc
    if V.shape not in (shape, shape[:-1]) or V.size != np.prod(shape):
        raise DimensionMismatchError(f"expected shape {shape}, got {V.shape}")
    return V.reshape(shape)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with strictly ordered bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower)
        hi = as_vector(self.upper, lo.shape[0])
        if not np.all(lo < hi):
            raise DomainError("box bounds must satisfy lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x) -> bool:
        v = as_vector(x, self.dim)
        return bool((v >= self.lower).all() and (v <= self.upper).all())

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        """n low-discrepancy points strictly inside the box.

        The points are Owen-scrambled Halton points (Owen, "A randomized
        Halton algorithm in R", arXiv:1706.02808), equal bit for bit to
        scipy's ``qmc.Halton(d=dim, scramble=True, seed=seed).random(n)``,
        mapped into the box with a relative margin of 1e-9.  n must be an
        integer >= 1 (not a bool), so that no sampled check passes on zero points.

        The design in [0, 1)^dim is pure in (n, dim, seed) and the default
        seeds and counts repeat, so it is memoized per process as a read-only
        table (bounded: HALTON_MEMO_ENTRIES designs of n * dim <=
        HALTON_MEMO_POINTS, see _halton); that memo is the sampler's only
        cache.  The points returned are mapped into a fresh, writable array
        on every call.
        """
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise DimensionMismatchError(f"sample count must be an integer >= 1, got {n!r}")
        pts = _halton(n, self.dim, seed)
        shrink = 1e-9 * self.width
        return (self.lower + shrink) + pts * (self.width - 2 * shrink)

    def grid(self, resolution: int) -> np.ndarray:
        """Cell-center grid of resolution**dim points, strictly inside."""
        axes = [
            self.lower[i] + (np.arange(resolution) + 0.5) / resolution * self.width[i]
            for i in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def shrink(self, factor: float) -> "BoxDomain":
        c, w = self.center, self.width
        return BoxDomain(c - 0.5 * factor * w, c + 0.5 * factor * w)

    @staticmethod
    def product(a: "BoxDomain", b: "BoxDomain") -> "BoxDomain":
        return BoxDomain(np.concatenate([a.lower, b.lower]), np.concatenate([a.upper, b.upper]))

    @staticmethod
    def cube(dim: int, halfwidth: float = 1.0) -> "BoxDomain":
        half = np.full(dim, float(halfwidth))
        return BoxDomain(-half, half)


def _box_test(lower: np.ndarray, upper: np.ndarray) -> Callable:
    """x -> ((x >= lower) & (x <= upper)).all() for a float vector x of the bounds' length,
    False on NaN alike, with the bounds bound here once as Python floats: the test of a
    per-point loop without numpy's per-call wrappers.  zip truncates, so the caller
    checks the length."""
    bounds = tuple(zip(lower.tolist(), upper.tolist()))

    def inside(x: np.ndarray) -> bool:
        for (a, b), c in zip(bounds, x.tolist()):
            if not a <= c <= b:
                return False
        return True

    return inside


def _first_primes(count: int) -> list:
    primes: list = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return primes


def _halton(n: int, dim: int, seed) -> np.ndarray:
    """First n points of the scrambled Halton sequence in [0, 1)^dim, read-only.

    The design is pure in (n, dim, seed), and the default seeds and sample
    counts of the sampled checks repeat, so a process keeps the designs it
    draws: n is an integer (sample checks it), and with an integer seed (int
    or np.integer) the draw is keyed as (int(n), dim, int(seed)) in
    _halton_memo, which keeps the HALTON_MEMO_ENTRIES most recently used
    tables of at most HALTON_MEMO_POINTS = n * dim numbers each.  Any other
    seed, and any larger draw, is drawn afresh by _halton_draw.
    """
    if isinstance(seed, (int, np.integer)) and n * dim <= HALTON_MEMO_POINTS:
        return _halton_memo(int(n), dim, int(seed))
    return _halton_draw(n, dim, seed)


def _halton_draw(n: int, dim: int, seed) -> np.ndarray:
    """One scrambled Halton draw, read-only: _halton on a miss.

    Owen's random digit permutations, drawn from default_rng(seed) in the
    order scipy draws them: per base (the first dim primes), one shuffled
    arange(base) for each of the ceil(54/log2(base)) - 1 digits a double
    can resolve.  Digit k of index i adds perm[k, digit] * base**-(k+1),
    with the scale built by repeated division and the terms summed in
    order of k (cumsum, not the pairwise np.sum), so the result equals
    scipy's qmc.Halton bit for bit without importing scipy.stats.  Every
    digit of every index is expanded; a keyed design is drawn once per
    process, by _halton_memo.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    out = np.empty((n, dim))
    for d, base in enumerate(_first_primes(dim)):
        count = math.ceil(54 / math.log2(base)) - 1
        perm = rng.permuted(np.repeat(np.arange(base)[None], count, axis=0), axis=1)
        scale = np.empty(count)
        s = 1.0
        for k in range(count):
            s /= base
            scale[k] = s
        digits = idx[:, None] // base ** np.arange(count) % base
        out[:, d] = np.cumsum(perm[np.arange(count), digits] * scale, axis=1)[:, -1]
    out.flags.writeable = False
    return out


_halton_memo = lru_cache(maxsize=HALTON_MEMO_ENTRIES)(_halton_draw)


def _rows(batched: bool, stacked: Optional[Callable], one: Callable, shape: tuple, *stacks):
    """The quantity at a point, or at the rows of stacks as an (N,) + shape array: one call
    of `stacked` on either if batched, else `one` at the point or once per row."""
    if batched and stacked is not None:
        return np.asarray(stacked(*stacks), dtype=float)
    if np.ndim(stacks[0]) < 2:
        return one(*stacks)
    rows = [one(*row) for row in zip(*stacks)]
    return np.array(rows, dtype=float).reshape((len(stacks[0]),) + shape)


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x at a point, or row by row on stacks: per row the BLAS call of one point."""
    return (M @ x[..., None])[..., 0]


def _constant_rows(A: np.ndarray) -> Callable:
    """x -> A at a point, and A repeated along the leading axes of a stack of points."""
    return lambda x: A if np.ndim(x) == 1 else np.broadcast_to(A, np.shape(x)[:-1] + A.shape)


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# np.linalg.solve/inv's errstate(all="ignore", invalid="call", call=_singular), built once
_LAPACK_ERRSTATE = _make_extobj(all="ignore", invalid="call", call=_singular)


def _lapack(gufunc, *arrays: np.ndarray) -> np.ndarray:
    """A LAPACK gufunc of np.linalg.solve/inv on float64 arrays, in their errstate: their
    bits and their LinAlgError on a singular matrix, without their per-call wrapper.

    The errstate is set and reset around the gufunc call alone, as np.errstate's
    decorator does, but from _LAPACK_ERRSTATE, built once at import rather than per call;
    the caller's floating-point settings and callback hold again on return or raise.
    """
    token = _extobj_contextvar.set(_LAPACK_ERRSTATE)
    try:
        return gufunc(*arrays)
    finally:
        _extobj_contextvar.reset(token)


def _default_steps(x: np.ndarray, base: float) -> np.ndarray:
    return np.maximum(base, base * np.abs(x))


def finite_difference_jacobian(F: Callable, x, step: float = GRAD_STEP) -> np.ndarray:
    """Central-difference derivative of a scalar, vector or matrix map.

    The toolkit's one first-difference stencil.  The result has the shape of
    F(x) plus a last axis indexing x, so a vector map gives rows indexing
    outputs.  Component i moves by max(step, step*|x_i|).  A stack x (N, n), for
    an F mapping stacks row for row, gives each row bit for bit from 2n calls of F.
    """
    v = np.asarray(x, dtype=float) if np.ndim(x) == 2 else as_vector(x)
    steps = _default_steps(v, step)
    cols = []
    for i in range(v.shape[-1]):
        e = np.zeros_like(v)
        e.T[i] = steps.T[i]  # .T: the component axis first, for a point or a stack
        diff = np.asarray(F(v + e), dtype=float) - np.asarray(F(v - e), dtype=float)
        cols.append((diff.T / (2 * steps.T[i])).T)
    return np.stack(cols, axis=-1)


def hessian_from_value(f: Callable, x) -> np.ndarray:
    """Second central differences of a scalar map; symmetrized.

    Component i moves by max(HESS_VALUE_STEP, HESS_VALUE_STEP*|x_i|).
    """
    v = as_vector(x)
    steps = _default_steps(v, HESS_VALUE_STEP)
    n = v.shape[0]
    H = np.empty((n, n))
    f0 = f(v)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        H[i, i] = (f(v + ei) - 2 * f0 + f(v - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            H[i, j] = (f(v + ei + ej) - f(v + ei - ej) - f(v - ei + ej) + f(v - ei - ej)) \
                / (4 * steps[i] * steps[j])
            H[j, i] = H[i, j]
    return H


@dataclass(frozen=True)
class ScalarField:
    """Scalar map on a box with optional analytic gradient/Hessian.

    Missing derivative callables fall back to central finite differences.
    The domain governs sampling and validation; plain evaluation outside
    the box is permitted whenever the underlying callable allows it.

    value_rows, grad_rows and hess_rows evaluate a point (dim,) or a stack of points
    (N, dim), in one call when batched: the callables then take a point or map stacks
    row for row.

    conjugate_gradient, when given, declares the inverse of the gradient in closed form:
    z -> x with grad F(x) = z, NaN where z has no preimage, on the same point/stack terms.
    legendre.make_legendre_pair verifies it before it uses it.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    domain: BoxDomain
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batched: bool = False
    conjugate_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, kw_only=True)

    def __post_init__(self):
        if self.domain.dim != self.dim:
            raise DimensionMismatchError(
                f"field dim {self.dim} vs domain dim {self.domain.dim}")

    def __call__(self, x) -> float:
        return float(self.value(as_vector(x, self.dim)))

    def grad(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        if self.gradient is not None:
            return as_vector(self.gradient(v), self.dim)
        return finite_difference_jacobian(self.value, v)

    def hess(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        if self.hessian is not None:
            return as_matrix(self.hessian(v), (self.dim, self.dim))
        if self.gradient is not None:
            J = finite_difference_jacobian(self.gradient, v)
            return 0.5 * (J + J.T)
        return hessian_from_value(self.value, v)

    def value_rows(self, X) -> np.ndarray:
        return _rows(self.batched, self.value, self, (), X)

    def grad_rows(self, X) -> np.ndarray:
        return _rows(self.batched, self.gradient, self.grad, (self.dim,), X)

    def hess_rows(self, X) -> np.ndarray:
        return _rows(self.batched, self.hessian, self.hess, (self.dim, self.dim), X)


def _evaluators(F: ScalarField) -> tuple:
    """(value, gradient, hessian) at a point or on a stack, for callers that bind them once:
    F's own callables when F is batched and supplies both derivatives, else its row
    evaluators.  A batched callable's output is unchecked, as in _rows."""
    if F.batched and F.gradient is not None and F.hessian is not None:
        return F.value, F.gradient, F.hessian
    return F.value_rows, F.grad_rows, F.hess_rows


@dataclass(frozen=True)
class MetricField:
    """Symmetric invertible matrix field x -> G(x) on a box.  rows maps a point (dim,) to
    (dim, dim) and a stack (N, dim) to (N, dim, dim), one call when batched: eval then takes
    a point or maps stacks.  Its derivatives, for `geometry.levi_civita` and
    `reciprocity.is_hessian_metric`, are central differences of rows with step METRIC_STEP."""

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    domain: BoxDomain
    batched: bool = field(default=False, kw_only=True)

    def __call__(self, x) -> np.ndarray:
        return as_matrix(self.eval(as_vector(x, self.dim)), (self.dim, self.dim))

    def rows(self, X) -> np.ndarray:
        return _rows(self.batched, self.eval, self, (self.dim, self.dim), X)

    @staticmethod
    def constant(M, domain: BoxDomain) -> "MetricField":
        A = as_matrix(M)
        return MetricField(A.shape[0], _constant_rows(A), domain, batched=True)

    @staticmethod
    def from_hessian(K: ScalarField) -> "MetricField":
        return MetricField(K.dim, K.hess_rows, K.domain, batched=True)


def _checked_metric_rows(Gs: np.ndarray, xs) -> np.ndarray:
    """Gs, the metric stacked (N, n, n) at the points xs, after the metric tests on every
    row: symmetric within SYM_TOL and |det| above DET_FLOOR.  Raises at the first failing
    row, asymmetry (NaN included) checked first."""
    asym = np.max(np.abs(Gs - np.swapaxes(Gs, 1, 2)), axis=(1, 2), initial=0.0)
    for i in np.flatnonzero(~(asym <= SYM_TOL) | ~(np.abs(np.linalg.det(Gs)) > DET_FLOOR))[:1]:
        x = as_vector(xs[i])
        if not asym[i] <= SYM_TOL:
            raise AssumptionError("metric-symmetry", f"asymmetry {asym[i]:.3e} at x={x}")
        raise SingularMatrixError(f"metric determinant below floor {DET_FLOOR} at x={x}")
    return Gs


@dataclass(frozen=True)
class SignatureMatrix:
    """Diagonal matrix with entries in {+1, -1}; its own inverse."""

    signs: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.signs, dtype=float))
        if s.ndim != 1 or not np.all(np.abs(s) == 1):  # before the int cast, which takes 1.7 for 1
            raise DimensionMismatchError("signature entries must be +1 or -1")
        object.__setattr__(self, "signs", s.astype(int))

    @property
    def m(self) -> int:
        return self.signs.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.signs.astype(float))

    def check_inputs(self, m: int) -> None:
        """Raise DimensionMismatchError unless the signature has m entries."""
        if self.m != m:
            raise DimensionMismatchError("signature size must match input count")

    def conjugate_rows(self, M) -> np.ndarray:
        return self.signs[:, None] * as_matrix(M)

    @property
    def is_identity(self) -> bool:
        return bool(np.all(self.signs == 1))

    @staticmethod
    def identity(m: int) -> "SignatureMatrix":
        return SignatureMatrix(np.ones(m, dtype=int))

    @staticmethod
    def minus_identity(m: int) -> "SignatureMatrix":
        return SignatureMatrix(-np.ones(m, dtype=int))


@dataclass(frozen=True)
class NonlinearSystem:
    """Input-state-output system x_dot = F(x,u), y = H(x,u); F_rows, H_rows and jac_* take
    a point x (nx,), u (nu,) or stacks X (N, nx), U (N, nu).  Batched: F, H, dF_dx, ... take
    a point or map stacks."""

    nx: int
    nu: int
    F: Callable[[np.ndarray, np.ndarray], np.ndarray]
    H: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: BoxDomain
    dF_dx: Optional[Callable] = None
    dF_du: Optional[Callable] = None
    dH_dx: Optional[Callable] = None
    dH_du: Optional[Callable] = None
    batched: bool = False

    def __post_init__(self):
        if self.domain.dim != self.nx:
            raise DimensionMismatchError("state domain dimension mismatch")

    def F_rows(self, X, U) -> np.ndarray:
        return _rows(self.batched, self.F, self.F, (self.nx,), X, U)

    def H_rows(self, X, U) -> np.ndarray:
        return _rows(self.batched, self.H, self.H, (self.nu,), X, U)

    def jac_F_x(self, x, u) -> np.ndarray:
        return self._jac(self.dF_dx, self.F_rows, x, u, False, (self.nx, self.nx))

    def jac_F_u(self, x, u) -> np.ndarray:
        return self._jac(self.dF_du, self.F_rows, x, u, True, (self.nx, self.nu))

    def jac_H_x(self, x, u) -> np.ndarray:
        return self._jac(self.dH_dx, self.H_rows, x, u, False, (self.nu, self.nx))

    def jac_H_u(self, x, u) -> np.ndarray:
        return self._jac(self.dH_du, self.H_rows, x, u, True, (self.nu, self.nu))

    def _jac(self, d, rows, x, u, wrt_u: bool, shape: tuple) -> np.ndarray:
        """A Jacobian at (x, u), or at the rows of stacks x (N, nx) and u (N, nu): the supplied
        derivative d (one call if batched, else per point or row), or one central-difference
        stencil."""
        if np.ndim(x) < 2:
            x, u = as_vector(x, self.nx), as_vector(u, self.nu)
        if d is not None:
            return _rows(self.batched, d, lambda *p: as_matrix(d(*p), shape), shape, x, u)
        if wrt_u:
            return finite_difference_jacobian(lambda V: rows(x, V), u)
        return finite_difference_jacobian(lambda Y: rows(Y, u), x)


@dataclass(frozen=True)
class AffineNonlinearSystem:
    """Input-affine system x_dot = f(x) + g(x)u, y = h(x) + k(x)u.  f, g, h, k and d*_dx take
    a point (nx,) or map a stack (N, nx), and so do to_general's F, H and derivatives."""

    nx: int
    nu: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]          # (nx, nu)
    h: Callable[[np.ndarray], np.ndarray]
    k: Callable[[np.ndarray], np.ndarray]          # (nu, nu)
    domain: BoxDomain
    df_dx: Optional[Callable] = None               # (nx, nx)
    dg_dx: Optional[Callable] = None               # (nu, nx, nx): [j] = d g_j / dx
    dh_dx: Optional[Callable] = None               # (nu, nx)

    def to_general(self) -> NonlinearSystem:
        """The same system as F(x, u), H(x, u).  dF/dx = df_dx + sum_j u_j dg_dx[j] when both
        are supplied and dH/dx = dh_dx when supplied; a missing one is left to the stencil."""
        def affine(a, b, n):  # x, u -> a(x) + b(x) u
            def out(x, u):
                if np.ndim(x) > 1:
                    return a(x) + _mv(b(x), u)
                return as_vector(a(x), n) + as_matrix(b(x), (n, self.nu)) @ as_vector(u, self.nu)
            return out

        def dF_dx(x, u):
            J = np.asarray(self.dg_dx(x), dtype=float)
            if J.shape != np.shape(x)[:-1] + (self.nu, self.nx, self.nx):
                raise DimensionMismatchError(f"dg_dx shape {J.shape}")
            return self.df_dx(x) + np.einsum("...j,...jab->...ab", u, J)

        return NonlinearSystem(
            self.nx, self.nu, affine(self.f, self.g, self.nx), affine(self.h, self.k, self.nu),
            self.domain, batched=True,
            dF_dx=dF_dx if self.df_dx is not None and self.dg_dx is not None else None,
            dF_du=lambda x, u: self.g(x),
            dH_dx=None if self.dh_dx is None else lambda x, u: self.dh_dx(x),
            dH_du=lambda x, u: self.k(x))


def _stack_checked(fn: Callable, name: str, shape: tuple) -> Callable:
    """fn at a point, and on a stack X (N, n) its output once that has shape (N,) + shape.
    Another shape, or a TypeError, ValueError or IndexError (not a LinAlgError) that fn
    raises on the stack, is a DimensionMismatchError naming fn: fn works per point only."""
    def checked(x):
        if getattr(x, "ndim", 1) < 2:  # a point, which may be a list
            return fn(x)
        try:
            out = fn(x)
        except np.linalg.LinAlgError:
            raise
        except (TypeError, ValueError, IndexError) as exc:
            raise DimensionMismatchError(
                f"{name} fails on a stack of shape {x.shape}: {exc}") from exc
        want = x.shape[:-1] + shape
        if np.shape(out) != want:
            raise DimensionMismatchError(f"{name} has shape {np.shape(out)} on a stack of shape "
                                         f"{x.shape}, expected {want}")
        return out
    return checked


def _stack_checked_system(sys: AffineNonlinearSystem) -> AffineNonlinearSystem:
    """sys with f, g, h and k checked on every stack they meet (_stack_checked), so that a
    system whose callables work per point only fails where its first stack enters, at no
    extra evaluation."""
    nx, nu = sys.nx, sys.nu
    return replace(sys, f=_stack_checked(sys.f, "f", (nx,)),
                   g=_stack_checked(sys.g, "g", (nx, nu)), h=_stack_checked(sys.h, "h", (nu,)),
                   k=_stack_checked(sys.k, "k", (nu, nu)))


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial sum_t c_t * prod_i x_i**e_ti with analytic derivatives;
    value, grad and hess take a point (dim,) or a stack of points (N, dim)."""

    dim: int
    terms: tuple

    def __post_init__(self):
        norm = []
        for k, (exps, coeff) in enumerate(self.terms):
            e = tuple(int(v) for v in exps)  # a boolean or a fractional exponent is refused
            if len(e) != self.dim or any(v < 0 or isinstance(w, (bool, np.bool_)) or v != w
                                         for v, w in zip(e, exps)):
                raise DimensionMismatchError(
                    f"term {k}: exponents {exps} must be {self.dim} nonnegative integers")
            norm.append((e, float(coeff)))
        object.__setattr__(self, "terms", tuple(norm))

    def _sum(self, x, order: int, entries) -> np.ndarray:
        """Sum c * prod(x**e) into out[..., idx] for each entry (idx, c, e)."""
        v = np.asarray(x, dtype=float)
        v = v if v.ndim == 2 and v.shape[1] == self.dim else as_vector(v, self.dim)
        out = np.zeros(v.shape[:-1] + (self.dim,) * order)
        for idx, c, e in entries:
            # a contiguous exponent array: a stride-0 one may take another power kernel
            e = np.broadcast_to(np.array(e), v.shape).copy()
            out[(...,) + idx] += c * np.prod(v ** e, axis=-1)
        return out

    def value(self, x):
        total = self._sum(x, 0, [((), c, e) for e, c in self.terms])
        return float(total) if total.ndim == 0 else total

    def grad(self, x) -> np.ndarray:
        d = np.eye(self.dim, dtype=int)
        return self._sum(x, 1, [((i,), c * e[i], np.subtract(e, d[i]))
                                for e, c in self.terms for i in range(self.dim) if e[i]])

    def hess(self, x) -> np.ndarray:
        d = np.eye(self.dim, dtype=int)
        H = self._sum(x, 2, [((i, j), c * (e[i] * (e[j] - d[i, j])), np.subtract(e, d[i] + d[j]))
                             for e, c in self.terms for i in range(self.dim)
                             for j in range(self.dim) if e[i] * (e[j] - d[i, j])])
        return 0.5 * (H + np.swapaxes(H, -1, -2))

    def to_field(self, domain: BoxDomain) -> ScalarField:
        """The polynomial as a batched field on domain; of degree <= 2, with Q = hess(0) and
        b = grad(0), it declares its conjugate gradient as quadratic_field does."""
        zero = np.zeros(self.dim)
        conjugate = (_affine_conjugate(self.hess(zero), self.grad(zero))
                     if all(sum(e) <= 2 for e, _ in self.terms) else None)
        return ScalarField(self.dim, self.value, domain, self.grad, self.hess, batched=True,
                           conjugate_gradient=conjugate)


def _affine_conjugate(Q: np.ndarray, b: np.ndarray) -> Optional[Callable]:
    """z -> Q^-1 (z - b), the inverse of the gradient Q x + b, at a point (solve1) or row by
    row on a stack (solve), through _lapack: np.linalg.solve's bits.  None when Q is
    singular (LinAlgError on inverting it): such a field declares no conjugate."""
    try:
        _lapack(_umath_linalg.inv, Q)
    except np.linalg.LinAlgError:
        return None
    solve1, solve = _umath_linalg.solve1, _umath_linalg.solve
    return lambda z: (_lapack(solve1, Q, z - b) if np.ndim(z) == 1
                      else _lapack(solve, Q, (z - b)[..., None])[..., 0])


def quadratic_field(Q, domain: BoxDomain, lin=None, const: float = 0.0) -> ScalarField:
    """Field (1/2) x^T Q x + lin^T x + const with analytic derivatives; batched.  It declares
    its conjugate gradient z -> Qs^-1 (z - lin), Qs = (Q + Q^T)/2, unless Qs is singular."""
    Qm = as_matrix(Q)
    n = Qm.shape[0]
    Qs = 0.5 * (Qm + Qm.T)
    b = np.zeros(n) if lin is None else as_vector(lin, n)

    return ScalarField(  # x[..., None, :] @ Qs and _mv: per row the BLAS call of one point
        n,
        lambda x: 0.5 * np.vecdot((x[..., None, :] @ Qs)[..., 0, :], x) + np.vecdot(b, x) + const,
        domain,
        gradient=lambda x: _mv(Qs, x) + b,
        hessian=_constant_rows(Qs),
        batched=True,
        conjugate_gradient=_affine_conjugate(Qs, b),
    )


# The Gauss-Kronrod pair G32/K65 on [-1, 1] (Kronrod 1965; Laurie, Math. Comp. 66, 1997),
# computed once in 80-digit arithmetic and rounded to nearest.  The 2 * QUAD_NODES + 1
# Kronrod nodes are symmetric about 0: the table holds the 33 nodes >= 0 in decreasing
# order with their Kronrod weights.  The QUAD_NODES Gauss nodes sit at the odd positions;
# the Gauss weights are those of the 16 positive ones, in the same order.
_GK_HALF_NODES = (
    0.9995459021243644, 0.9972638618494816, 0.9926280352629719, 0.9856115115452684,
    0.9763102836146638, 0.9647622555875064, 0.9509546848486612, 0.9349060759377397,
    0.9166772666513643, 0.8963211557660521, 0.8738697689453107, 0.84936761373257,
    0.8228829501360513, 0.7944837959679424, 0.7642282519978038, 0.7321821187402897,
    0.6984265577952105, 0.6630442669302152, 0.626112937701824, 0.5877157572407623,
    0.5479463141991525, 0.5068999089322294, 0.4646693084819922, 0.42135127613063533,
    0.3770494211541211, 0.33186860228212767, 0.28591245858945974, 0.23928736225213706,
    0.1921036089831425, 0.1444719615827965, 0.09650269687689436, 0.04830766568773832, 0.0,
)
_GK_HALF_KRONROD = (
    0.001223360817951472, 0.003426818775772371, 0.005841737079166694, 0.008172504038531668,
    0.010423987398806818, 0.012676054806654402, 0.014936103606086028, 0.017149805209784253,
    0.01929877143032681, 0.021408913184821916, 0.023486659672163325, 0.025505695480894652,
    0.027452098422210403, 0.02933695668962066, 0.031163325561973737, 0.0329150776439036,
    0.03458212274473303, 0.0361697694756423, 0.0376791306456134, 0.03909942013330661,
    0.0404234923703731, 0.041654019985643054, 0.042791115596446744, 0.04382754403013975,
    0.04475863874976694, 0.04558582656454707, 0.046308756738025716, 0.046922968281703614,
    0.04742606187388238, 0.04781890873698847, 0.04810096918545775, 0.04827019307577739,
    0.04832638398656776,
)
_GK_HALF_GAUSS = (
    0.007018610009470096, 0.01627439473090567, 0.02539206530926206, 0.03427386291302143,
    0.04283589802222668, 0.050998059262376175, 0.058684093478535544, 0.06582222277636185,
    0.0723457941088485, 0.07819389578707031, 0.08331192422694675, 0.08765209300440381,
    0.09117387869576389, 0.09384439908080457, 0.09563872007927486, 0.0965400885147278,
)


def _gauss_kronrod_table() -> tuple:
    """The 65 nodes on [-1, 1] in increasing order and their (2, 65) weights: the Kronrod
    row, then the Gauss row, which is zero off the Gauss nodes."""
    def mirrored(half, sign):
        half = np.asarray(half, dtype=float)
        return np.concatenate([sign * half[:-1], half[::-1]])

    gauss = np.zeros(len(_GK_HALF_NODES))
    gauss[1::2] = _GK_HALF_GAUSS
    nodes = mirrored(_GK_HALF_NODES, -1.0)
    weights = np.stack([mirrored(_GK_HALF_KRONROD, 1.0), mirrored(gauss, 1.0)])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


_GK_NODES, _GK_WEIGHTS = _gauss_kronrod_table()


def integrate_segment(f: Callable, a: float = 0.0, b: float = 1.0, tol: float = 1e-8):
    """Adaptive composite Gauss-Kronrod G32/K65: double the panel count until G and K agree.

    f takes an array of nodes, shape (N,), and returns its values with the
    node axis first, shape (N, ...).  Each pass calls f once, on the
    2 * QUAD_NODES + 1 Kronrod nodes of every panel, and takes from those
    values both the Kronrod sum K and the sum G of the embedded QUAD_NODES-point
    Gauss rule.  It returns K once |K - G| <= tol*(1+|K|) (maxima over the
    components); otherwise the panel count doubles, from 1 up to
    2**QUAD_MAX_DOUBLINGS, after which ConvergenceError is raised.
    """
    for k in range(QUAD_MAX_DOUBLINGS + 1):
        panels = 2 ** k
        h = (b - a) / panels
        mid = a + np.arange(panels) * h + 0.5 * h
        ts = (mid[:, None] + 0.5 * h * _GK_NODES).ravel()
        weights = np.tile(_GK_WEIGHTS * (0.5 * h), panels)
        kron, gauss = np.tensordot(weights, np.asarray(f(ts), dtype=float), axes=1)
        gap = float(np.max(np.abs(np.atleast_1d(kron - gauss))))
        bound = tol * (1.0 + float(np.max(np.abs(np.atleast_1d(kron)))))
        if gap <= bound:
            return kron
    raise ConvergenceError(
        f"quadrature on [{a},{b}] did not converge within {QUAD_MAX_DOUBLINGS} doublings: "
        f"at {panels} panels the Kronrod-Gauss gap was {gap:.3e} > {bound:.3e} (tol {tol})")


def _check_row_contract(name: str, pts, pairs) -> None:
    """AssumptionError(name) unless rows(pts) == [one(x) for x in pts] for each (rows, one)."""
    for rows, one in pairs:
        want = [one(x) for x in pts]
        try:
            same = np.array_equal(rows(pts), want, equal_nan=True)
        except (TypeError, ValueError, IndexError):  # a per-point callable rejects the stack
            same = False
        if not same:
            raise AssumptionError(name, f"{rows.__name__} differs from per point")


def validate_scalar_field(field: ScalarField) -> dict:
    """Spot-check analytic derivatives of a field against finite differences
    at VALIDATE_SAMPLES points.

    Returns a dict of worst-case residuals; raises AssumptionError when a
    supplied derivative disagrees with its finite-difference counterpart, or
    when a batched field's row-stacked evaluation is not exactly per point.
    """
    pts = field.domain.shrink(0.9).sample(VALIDATE_SAMPLES)
    _check_row_contract("field-batched", pts, ((field.value_rows, field), (
        field.grad_rows, field.grad), (field.hess_rows, field.hess)) if field.batched else ())

    def rel_gap(a, b):
        return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)))

    Ha = [field.hess(x) for x in pts] if field.hessian is not None else []
    Hf = [finite_difference_jacobian(field.gradient, x) if field.gradient is not None
          else hessian_from_value(field.value, x) for x in pts[:len(Ha)]]
    rows = {
        "grad_gap": [rel_gap(field.grad(x), finite_difference_jacobian(field.value, x))
                     for x in (pts if field.gradient is not None else ())],
        "hess_asym": [symmetry_residual(H) for H in Ha],
        "hess_gap": [rel_gap(H, 0.5 * (F + F.T)) for H, F in zip(Ha, Hf)],
    }
    out = {key: float(np.max(r, initial=0.0)) for key, r in rows.items()}
    for key, name, what, tol in (
            ("grad_gap", "field-gradient", "gradient disagrees with FD:", GRAD_TOL),
            ("hess_asym", "field-hessian-symmetry", "asymmetry", SYM_TOL),
            ("hess_gap", "field-hessian", "hessian disagrees with FD:", HESS_TOL)):
        if not out[key] <= tol:
            raise AssumptionError(name, f"{what} {out[key]:.3e}")
    return out


def validate_metric_field(G: MetricField) -> float:
    """Check that a batched G's rows are exact, then symmetry and invertibility at
    VALIDATE_SAMPLES points; the first failing point names the failure.  Returns the worst
    asymmetry."""
    xs = G.domain.shrink(0.9).sample(VALIDATE_SAMPLES)
    _check_row_contract("metric-batched", xs, ((G.rows, G),) if G.batched else ())
    Gs = _checked_metric_rows(G.rows(xs), xs)
    return float(np.max(np.abs(Gs - np.swapaxes(Gs, 1, 2)), initial=0.0))
