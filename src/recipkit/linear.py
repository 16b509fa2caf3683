"""Linear input-state-output systems: reciprocity, passivity, compatibility.

Covers the symmetry test for reciprocity with respect to a constant metric
and a signature, the pseudo-gradient rewrite, impulse response symmetry,
metric recovery from input-output energy experiments, the passivity
linear matrix inequality (verification only, no solving),
the geometric-mean compatibility iteration, and the split normal form that
exposes a port-Hamiltonian structure with indefinite metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AssumptionError,
    ConvergenceError,
    DimensionMismatchError,
    SignatureMatrix,
    SingularMatrixError,
    _checked_metric_rows,
    _checked_stack,
    as_matrix,
    integrate_segment,
    symmetry_residual,
)

__all__ = [
    "LinearSystem",
    "LinearPseudoGradientForm",
    "LmiReport",
    "ReciprocityCheck",
    "ImpulseSymmetryCheck",
    "PastInput",
    "SplitPortHamiltonianForm",
    "check_linear_reciprocity",
    "to_pseudo_gradient",
    "impulse_response_symmetry",
    "recover_metric_hankel",
    "lmi_residual",
    "kernel_invariance_check",
    "compatible_storage_fixed_point",
    "split_port_hamiltonian_form",
    "spd_sqrt",
    "spd_geometric_mean",
]

HANKEL_QUAD_TOL = 1e-10
HURWITZ_MARGIN = 1e-3  # least decay rate -max Re eig(A) that Hankel recovery accepts
KERNEL_FLOOR = 1e-10  # |eigenvalue| of Q below which its eigenvector is in ker Q
COMPATIBLE_MAX_ITER = 100
PSEUDO_GRADIENT_TOL = 1e-8  # reciprocity residual that to_pseudo_gradient accepts
KERNEL_INVARIANCE_TOL = 1e-8  # relative |Q A v| and |C v| on ker Q taken as 0
# split normal form: snapping of eig(G^-1 Q) to +/-1, relative |C2| taken as 0,
# sign slack of the P1 and P2 blocks
SNAP_TOL = 1e-6
C2_TOL = 1e-8
SIGN_TOL = 1e-10


@dataclass(frozen=True)
class LinearSystem:
    """x_dot = A x + B u, y = C x + D u with dense real matrices."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatchError("A must be square")
        B = np.asarray(self.B, dtype=float).reshape(n, -1)
        m = B.shape[1]
        C = np.asarray(self.C, dtype=float).reshape(-1, n)
        if C.shape[0] != m:
            raise DimensionMismatchError(f"C has {C.shape[0]} outputs, B has {m} inputs")
        D = np.asarray(self.D, dtype=float).reshape(m, m)
        for name, M in zip("ABCD", (A, B, C, D)):
            if not np.all(np.isfinite(M)):
                raise DimensionMismatchError("system matrices must be finite")
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ReciprocityCheck:
    reciprocal: bool
    residual: float


def _check_metric(G, n) -> np.ndarray:
    """G as an n x n matrix after the metric tests of MetricField.checked."""
    return _checked_metric_rows(as_matrix(G, (n, n))[None], [np.zeros(n)])[0]


def check_linear_reciprocity(sys: LinearSystem, G, sigma: SignatureMatrix,
                             tol: float = 1e-8) -> ReciprocityCheck:
    """Symmetry residual of the stacked matrix [[G A, G B], [s C, s D]].

    The system is reciprocal with respect to (G, sigma) exactly when that
    matrix is symmetric.
    """
    Gm = _check_metric(G, sys.n)
    sigma.check_inputs(sys.m)
    top = np.hstack([Gm @ sys.A, Gm @ sys.B])
    bot = np.hstack([sigma.conjugate_rows(sys.C), sigma.conjugate_rows(sys.D)])
    residual = symmetry_residual(np.vstack([top, bot]))
    return ReciprocityCheck(reciprocal=bool(residual <= tol), residual=residual)


@dataclass(frozen=True)
class LinearPseudoGradientForm:
    """G x_dot = -P x + C^T sigma u, sigma y = C x + sigma D u with P = -G A symmetric."""

    G: np.ndarray
    P: np.ndarray
    C: np.ndarray
    D: np.ndarray
    sigma: SignatureMatrix

    def __post_init__(self):
        G = _check_metric(self.G, as_matrix(self.G).shape[0])
        n = G.shape[0]
        P = as_matrix(self.P, (n, n))
        if not symmetry_residual(P) <= 1e-8:
            raise DimensionMismatchError(f"P must be symmetric (residual {symmetry_residual(P)})")
        C = np.asarray(self.C, dtype=float).reshape(-1, n)
        D = np.asarray(self.D, dtype=float).reshape(C.shape[0], C.shape[0])
        if not symmetry_residual(self.sigma.conjugate_rows(D)) <= 1e-8:
            raise DimensionMismatchError("sigma D must be symmetric")
        for name, M in zip("GPCD", (G, 0.5 * (P + P.T), C, D)):
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def to_linear_system(self) -> LinearSystem:
        A = -np.linalg.solve(self.G, self.P)
        B = np.linalg.solve(self.G, self.C.T @ self.sigma.matrix)
        return LinearSystem(A, B, self.C, self.D)


def to_pseudo_gradient(sys: LinearSystem, G, sigma: SignatureMatrix) -> LinearPseudoGradientForm:
    """Rewrite a reciprocal system as G x_dot = -P x + C^T sigma u."""
    chk = check_linear_reciprocity(sys, G, sigma, PSEUDO_GRADIENT_TOL)
    if not chk.reciprocal:
        raise AssumptionError(
            "reciprocity", f"system is not reciprocal for the given (G, sigma): "
            f"residual {chk.residual:.3e}", chk)
    Gm = _check_metric(G, sys.n)
    P = -(Gm @ sys.A)
    return LinearPseudoGradientForm(Gm, 0.5 * (P + P.T), sys.C, sys.D, sigma)


@dataclass(frozen=True)
class ImpulseSymmetryCheck:
    symmetric: bool
    max_residual: float


def impulse_response_symmetry(sys: LinearSystem, sigma: SignatureMatrix,
                              times: Sequence[float], tol: float = 1e-8) -> ImpulseSymmetryCheck:
    """Check sigma W(t) = W(t)^T sigma for W(t) = C e^{At} B, plus the D term.

    One stacked expm covers every time; the residual is the max-abs asymmetry
    over the stack with D, and a non-finite entry fails the check.
    """
    sigma.check_inputs(sys.m)
    from scipy.linalg import expm  # deferred to keep cold start fast
    ts = np.asarray(times, dtype=float)
    Ws = sys.C @ expm(sys.A[None] * ts[:, None, None]) @ sys.B
    S = sigma.signs[:, None] * np.concatenate([sys.D[None], Ws])
    worst = float(np.max(np.abs(S - np.swapaxes(S, 1, 2)), initial=0.0))
    return ImpulseSymmetryCheck(symmetric=bool(worst <= tol), max_residual=worst)


@dataclass(frozen=True)
class PastInput:
    """Input signal supported on (-duration, 0], evaluated at s <= 0."""

    signal: Callable[[float], np.ndarray]
    duration: float


def _check_hurwitz(A: np.ndarray) -> None:
    alpha = -float(np.max(np.real(np.linalg.eigvals(A))))
    if alpha <= HURWITZ_MARGIN:
        raise ConvergenceError(
            f"A is not Hurwitz with margin {HURWITZ_MARGIN} (decay rate {alpha:.3e})")


def recover_metric_hankel(sys: LinearSystem, sigma: SignatureMatrix,
                          horizon: float, past_inputs: Sequence[PastInput]) -> np.ndarray:
    """Recover the reciprocity metric from input-output energy pairings.

    The experiment has length L = min(horizon, longest past-input duration):
    each past input u_j is cut to (-L, 0] and drives the state from rest to

        x_j = int_0^L e^{At} B u_j(-t) dt,

    after which the output y_i(t) = C e^{At} x_i is paired with the inputs
    over the same [0, L]:

        H_ij = int_0^L (sigma y_i)(t) . u_j(-t) dt = x_i^T w_j,
        w_j  = int_0^L e^{A^T t} C^T sigma u_j(-t) dt.

    One quadrature yields X = [x_1 ... x_k] and W = [w_1 ... w_k] together.
    For a reciprocal system G e^{At} B = e^{A^T t} C^T sigma, so W = G X and
    H = X^T G X hold exactly for the cut inputs, whatever L is.  G is the
    symmetrized least-squares fit of W = G X over all k inputs, which equals
    X^+T sym(H) X^+.  Requires a Hurwitz A and reachable states spanning R^n.
    """
    n, m, k = sys.n, sys.m, len(past_inputs)
    if not (np.isfinite(horizon) and horizon > 0):
        raise DimensionMismatchError(f"horizon must be positive and finite, got {horizon}")
    sigma.check_inputs(m)
    if k < n:
        raise DimensionMismatchError(f"need at least {n} past inputs, got {k}")
    _check_hurwitz(sys.A)
    L = min(float(horizon), max(float(p.duration) for p in past_inputs))
    CtS = sys.C.T * sigma.signs

    def inputs_at(ts: np.ndarray) -> np.ndarray:
        """U(t), shape (N, m, k): column j is u_j(-t), zero off its support."""
        U = np.zeros((len(ts), m, k))
        for j, p in enumerate(past_inputs):
            on = ts <= p.duration
            U[on, :, j] = _checked_stack([p.signal(-t) for t in ts[on]], (int(on.sum()), m))
        return U

    def f(ts: np.ndarray) -> np.ndarray:
        from scipy.linalg import expm  # deferred to keep cold start fast
        E = expm(sys.A[None] * ts[:, None, None])
        U = inputs_at(ts)
        return np.concatenate([E @ (sys.B @ U), np.swapaxes(E, 1, 2) @ (CtS @ U)], axis=2)

    XW = integrate_segment(f, 0.0, L, tol=HANKEL_QUAD_TOL)
    X, W = XW[:, :k], XW[:, k:]
    if np.linalg.matrix_rank(X, tol=1e-8 * max(1.0, float(np.max(np.abs(X))))) < n:
        raise SingularMatrixError("past inputs produce rank-deficient reachable states")
    G = np.linalg.lstsq(X.T, W.T, rcond=None)[0].T
    return 0.5 * (G + G.T)


@dataclass(frozen=True)
class LmiReport:
    """Verification of the passivity linear matrix inequality for a given Q."""

    Pi: np.ndarray
    min_eigenvalue: float
    passive: bool
    kernel_basis: tuple

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel_basis)


def lmi_residual(sys: LinearSystem, Q, tol: float = 1e-9) -> LmiReport:
    """Assemble Pi = [[-QA - A^T Q, -QB + C^T], [-B^T Q + C, D + D^T]] and verify it.

    passive is true when the smallest eigenvalue of Pi is >= -tol and Q is
    positive semidefinite to the same tolerance.  No semidefinite program is
    solved; Q is supplied by the caller.
    """
    Qm = as_matrix(Q, (sys.n, sys.n))
    if not symmetry_residual(Qm) <= 1e-10:
        raise DimensionMismatchError("Q must be symmetric")
    top = np.hstack([-(Qm @ sys.A) - sys.A.T @ Qm, -(Qm @ sys.B) + sys.C.T])
    bot = np.hstack([-(sys.B.T @ Qm) + sys.C, sys.D + sys.D.T])
    Pi = np.vstack([top, bot])
    Pi = 0.5 * (Pi + Pi.T)
    min_eig = float(np.linalg.eigvalsh(Pi).min())
    q_eigs = np.linalg.eigvalsh(Qm)
    passive = bool(min_eig >= -tol and q_eigs.min() >= -tol)
    # kernel of Q from its eigendecomposition
    w, V = np.linalg.eigh(Qm)
    kernel = tuple(V[:, i].copy() for i in range(len(w)) if abs(w[i]) < KERNEL_FLOOR)
    return LmiReport(Pi=Pi, min_eigenvalue=min_eig, passive=passive, kernel_basis=kernel)


def kernel_invariance_check(sys: LinearSystem, Q, report: LmiReport) -> dict:
    """For a storage candidate Q passing the LMI, ker Q is A-invariant and inside ker C.

    report is lmi_residual(sys, Q) at the caller's LMI tolerance; its kernel
    basis is the one tested.  Raises AssumptionError when the report says Q
    fails the LMI.
    """
    if not report.passive:
        raise AssumptionError(
            "passivity", f"Q fails the passivity LMI (min eig {report.min_eigenvalue:.3e}); "
            "kernel invariance is not guaranteed", report)
    Qm = as_matrix(Q, (sys.n, sys.n))
    scale = 1.0 + float(np.max(np.abs(Qm))) * float(np.max(np.abs(sys.A)))
    tol = KERNEL_INVARIANCE_TOL
    a_inv = True
    in_ker_c = True
    for v in report.kernel_basis:
        if not float(np.linalg.norm(Qm @ (sys.A @ v))) <= tol * scale:
            a_inv = False
        if not float(np.linalg.norm(sys.C @ v)) <= tol * (1.0 + float(np.max(np.abs(sys.C)))):
            in_ker_c = False
    return {"A_invariant": a_inv, "inside_ker_C": in_ker_c,
            "kernel_dimension": report.kernel_dimension}


def spd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min() <= 0:
        raise SingularMatrixError(f"matrix not positive definite (min eig {w.min():.3e})")
    return (V * np.sqrt(w)) @ V.T


def spd_geometric_mean(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Geometric mean A # B = A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2)."""
    R = spd_sqrt(A)
    Ri = np.linalg.inv(R)
    inner = spd_sqrt(Ri @ B @ Ri)
    out = R @ inner @ R
    return 0.5 * (out + out.T)


def compatible_storage_fixed_point(sys: LinearSystem, G, Q0, tol: float = 1e-11,
                                   lmi_tol: float = 1e-8,
                                   sigma: Optional[SignatureMatrix] = None) -> dict:
    """Iterate Q <- Q # (G Q^-1 G) to a storage compatible with the metric.

    Fixed points satisfy Q = G Q^-1 G.  For positive definite G the unique
    compatible storage is Q = G and the iteration lands there in one step.
    For indefinite G the limit depends on Q0; the returned Q is the limit of
    the iteration started from the supplied Q0 (no canonical choice is made).
    Raises AssumptionError when the system is not reciprocal for (G, sigma)
    or Q0 fails the passivity LMI.
    """
    Gm = _check_metric(G, sys.n)
    if sigma is not None:
        chk = check_linear_reciprocity(sys, Gm, sigma)
        if not chk.reciprocal:
            raise AssumptionError(
                "reciprocity", f"system not reciprocal for (G, sigma): residual {chk.residual:.3e}",
                chk)
    Q = as_matrix(Q0, (sys.n, sys.n))
    if not symmetry_residual(Q) <= 1e-10:
        raise DimensionMismatchError("Q0 must be symmetric")
    if np.linalg.eigvalsh(Q).min() <= 0:
        raise SingularMatrixError("Q0 must be positive definite")
    start = lmi_residual(sys, Q, tol=lmi_tol)
    if not start.passive:
        raise AssumptionError(
            "passivity", f"Q0 fails the passivity LMI (min eig {start.min_eigenvalue:.3e})",
            start)

    iterations = 0
    image = Gm @ np.linalg.solve(Q, Gm)  # G Q^-1 G: the gap and the next target
    gap = float(np.max(np.abs(Q - image)))
    while not gap <= tol:
        if iterations >= COMPATIBLE_MAX_ITER:
            raise ConvergenceError(f"compatibility iteration exceeded {COMPATIBLE_MAX_ITER} "
                                   f"steps (gap {gap:.3e})")
        Q = spd_geometric_mean(Q, 0.5 * (image + image.T))
        iterations += 1
        image = Gm @ np.linalg.solve(Q, Gm)
        gap = float(np.max(np.abs(Q - image)))
    final = lmi_residual(sys, Q, tol=lmi_tol)
    if not final.min_eigenvalue >= -lmi_tol:
        raise ConvergenceError(
            f"compatibility limit violates the LMI (min eig {final.min_eigenvalue:.3e})")
    return {"Q": Q, "iterations": iterations, "compatibility_gap": gap,
            "lmi_min_eigenvalue": final.min_eigenvalue}


def _block_diag(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[[A, 0], [0, B]] for square A and B, either of which may be empty."""
    return np.block([[A, np.zeros((len(A), len(B)))], [np.zeros((len(B), len(A))), B]])


@dataclass(frozen=True)
class SplitPortHamiltonianForm:
    """Split coordinates exposing z_dot = (J - R) grad H(z) + [C1^T; 0] u.

    z = blkdiag(Q1, Q2) T^-1 x, H(z) = z1.Q1^-1 z1 / 2 + z2.Q2^-1 z2 / 2,
    J = [[0, -Pc], [Pc^T, 0]] skew, R = blkdiag(P1, -P2) >= 0.
    """

    T: np.ndarray                # x = T x_tilde
    z_from_x: np.ndarray
    x_from_z: np.ndarray
    J: np.ndarray
    R: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    Pc: np.ndarray
    C1: np.ndarray
    D: np.ndarray
    k: int

    @property
    def n(self) -> int:
        return self.J.shape[0]

    def to_linear_system(self) -> LinearSystem:
        Qinv = np.linalg.inv(_block_diag(self.Q1, self.Q2))
        m = self.C1.shape[0]
        Bz = np.vstack([self.C1.T, np.zeros((self.n - self.k, m))])
        Cz = np.hstack([self.C1, np.zeros((m, self.n - self.k))]) @ Qinv
        return LinearSystem((self.J - self.R) @ Qinv, Bz, Cz, self.D)


def _sign_normalize_columns(V: np.ndarray) -> np.ndarray:
    W = V.copy()
    for j in range(W.shape[1]):
        i = int(np.argmax(np.abs(W[:, j])))
        if W[i, j] < 0:
            W[:, j] = -W[:, j]
    return W


def split_port_hamiltonian_form(pg: LinearPseudoGradientForm, Q) -> SplitPortHamiltonianForm:
    """Diagonalize a compatible pair (G, Q) into the split normal form.

    Requires sigma = I, Q symmetric positive definite and compatible with the
    metric (Q = G Q^-1 G); the involution G^-1 Q then has eigenvalues +/-1,
    which are snapped within SNAP_TOL.  In the adapted basis Q and G are
    block diagonal, the internal potential splits into blocks P1 >= 0,
    P2 <= 0 and a coupling Pc, and the output matrix concentrates on the
    first block.
    """
    if not pg.sigma.is_identity:
        raise DimensionMismatchError("split normal form requires sigma = I")
    n = pg.n
    Qm = as_matrix(Q, (n, n))
    if not symmetry_residual(Qm) <= 1e-10:
        raise DimensionMismatchError("Q must be symmetric")
    if np.linalg.eigvalsh(Qm).min() <= 0:
        raise SingularMatrixError("Q must be positive definite")
    compat = float(np.max(np.abs(Qm - pg.G @ np.linalg.solve(Qm, pg.G))))
    if not compat <= 1e-7 * (1.0 + float(np.max(np.abs(Qm)))):
        raise ConvergenceError(f"Q is not compatible with G (gap {compat:.3e})")

    R = spd_sqrt(Qm)
    Ri = np.linalg.inv(R)
    N = R @ np.linalg.solve(pg.G, R)
    N = 0.5 * (N + N.T)
    w, V = np.linalg.eigh(N)
    if not np.max(np.abs(np.abs(w) - 1.0)) <= SNAP_TOL:
        raise ConvergenceError(
            f"eigenvalues of G^-1 Q do not snap to +/-1: {w}")
    order = np.argsort(-w)  # +1 block first
    w = w[order]
    V = _sign_normalize_columns(V[:, order])
    k = int(np.sum(w > 0))

    if k == n or k == 0:
        # G = +/-Q already; no basis change, z = Q x
        T = np.eye(n)
        Q1 = Qm if k == n else np.zeros((0, 0))
        Q2 = Qm if k == 0 else np.zeros((0, 0))
        P1 = pg.P if k == n else np.zeros((0, 0))
        P2 = pg.P if k == 0 else np.zeros((0, 0))
        Pc = np.zeros((k, n - k))
        C1 = pg.C if k == n else np.zeros((pg.m, 0))
        C2 = pg.C if k == 0 else np.zeros((pg.m, 0))
        z_from_x = Qm
    else:
        T = Ri @ V
        Q1 = np.eye(k)
        Q2 = np.eye(n - k)
        Pt = T.T @ pg.P @ T
        Pt = 0.5 * (Pt + Pt.T)
        P1 = Pt[:k, :k]
        Pc = Pt[:k, k:]
        P2 = Pt[k:, k:]
        Ct = pg.C @ T
        C1 = Ct[:, :k]
        C2 = Ct[:, k:]
        z_from_x = np.linalg.inv(T)  # Q_tilde = I, so z = T^-1 x

    # structural verifications
    gap = float(np.max(np.abs(T.T @ pg.G @ T - _block_diag(Q1, -Q2))))
    if not gap <= 1e-8 * (1.0 + float(np.max(np.abs(pg.G)))):
        raise ConvergenceError("adapted basis failed to block-diagonalize the metric")
    if k and not np.linalg.eigvalsh(P1).min() >= -SIGN_TOL:
        raise ConvergenceError(
            f"P1 block not positive semidefinite (min eig {np.linalg.eigvalsh(P1).min():.3e}); "
            "system is not passive in split form")
    if (n - k) and not np.linalg.eigvalsh(P2).max() <= SIGN_TOL:
        raise ConvergenceError(
            f"P2 block not negative semidefinite (max eig {np.linalg.eigvalsh(P2).max():.3e})")
    if C2.size and not float(np.max(np.abs(C2))) <= C2_TOL * (1.0 + float(np.max(np.abs(pg.C)))):
        raise ConvergenceError(
            f"output matrix does not vanish on the second block (|C2| = {np.max(np.abs(C2)):.3e})")

    J = np.block([[np.zeros((k, k)), -Pc], [Pc.T, np.zeros((n - k, n - k))]])
    return SplitPortHamiltonianForm(
        T=T, z_from_x=z_from_x, x_from_z=np.linalg.inv(z_from_x),
        J=J, R=_block_diag(P1, -P2), Q1=Q1, Q2=Q2, P1=P1, P2=P2, Pc=Pc, C1=C1, D=pg.D, k=k)
