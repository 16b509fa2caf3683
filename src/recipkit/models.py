"""Built-in models, fixtures and randomized generators.

Three physical families are provided: a Brayton-Moser style circuit on
(currents, voltages) with an indefinite constant metric, a network swing
model in both port-Hamiltonian and co-energy coordinates, and an RC
conductance network posed as a relaxation system.  The registries at the
bottom back the command line tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    AffineNonlinearSystem,
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    ScalarField,
    SignatureMatrix,
    _constant_rows,
    _mv,
    as_vector,
    quadratic_field,
)
from .dynamics import (
    ConversionSplit,
    HessianPseudoGradientSystem,
    PortHamiltonianSystem,
    _block_field,
    _conjugate_storage,
)
from .linear import LinearSystem

__all__ = [
    "BraytonMoserModel",
    "SwingModel",
    "RcCircuitModel",
    "ModelBundle",
    "random_reciprocal_system",
    "random_orthogonal",
    "well_conditioned_transform",
    "field_registry",
    "model_registry",
]

BRAYTON_MOSER_HALFWIDTH = 1.5  # half-width of the Brayton-Moser state cube
RC_HALFWIDTH = 1.5  # half-width of the RC capacitor-potential cube
RC_U_HALFWIDTH = 1.0  # half-width of the RC terminal-potential cube
STABILITY_FLOOR = 0.4  # least eigenvalue of the P1 and -P2 blocks of a random system
LOG_SPREAD = 0.3  # log range of the singular values of a random change of coordinates


# ---------------------------------------------------------------------------
# Brayton-Moser circuit


@dataclass(frozen=True)
class BraytonMoserModel:
    """Circuit on x = (I, V) with metric diag(L, -C) and a mixed potential.

    The content of the resistors is quadratic plus an optional quartic term
    (a nonlinear series resistor), the co-content carries the sign
    `co_content_sign`: +1 gives the textbook reciprocity example, -1 the
    passive convention where shunt conductances dissipate.
    """

    L: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    C: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    lam: np.ndarray = field(default_factory=lambda: np.array([[1.0]]))
    R: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    Gc: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    quartic: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    co_content_sign: float = 1.0

    def __post_init__(self):
        for name in ("L", "C", "lam", "R", "Gc", "quartic"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.lam.shape != (self.nL, self.nC):
            raise DimensionMismatchError("coupling matrix must be (nL, nC)")
        # the content, with resistor law R.I + quartic.I^3, and the co-content V.Gc V/2
        R, q = self.R, self.quartic
        content = ScalarField(
            self.nL, lambda I: 0.5 * np.vecdot(I, R * I) + 0.25 * np.vecdot(q, I ** 4),
            BoxDomain.cube(self.nL, BRAYTON_MOSER_HALFWIDTH),
            gradient=lambda I: R * I + q * I ** 3,
            hessian=lambda I: _diag(R + 3.0 * q * I ** 2), batched=True)
        co_content = quadratic_field(np.diag(self.Gc),
                                     BoxDomain.cube(self.nC, BRAYTON_MOSER_HALFWIDTH))
        object.__setattr__(self, "_potential", _block_field(
            content, co_content, self.co_content_sign, self.lam, self.domain))

    @property
    def nL(self) -> int:
        return len(self.L)

    @property
    def nC(self) -> int:
        return len(self.C)

    @property
    def n(self) -> int:
        return self.nL + self.nC

    @property
    def m(self) -> int:
        return 1

    @property
    def input_columns(self) -> np.ndarray:
        gcols = np.zeros((self.n, 1))
        gcols[0, 0] = 1.0  # source in series with the first inductor
        return gcols

    @property
    def domain(self) -> BoxDomain:
        return BoxDomain.cube(self.n, BRAYTON_MOSER_HALFWIDTH)

    @property
    def metric_matrix(self) -> np.ndarray:
        return np.diag(np.concatenate([self.L, -self.C]))

    def metric_field(self) -> MetricField:
        return MetricField.constant(self.metric_matrix, self.domain)

    def potential(self) -> ScalarField:
        """Mixed potential P(I, V) = content + sign * co-content + I.lam V, the block field
        built once with the model; batched."""
        return self._potential

    def as_affine(self) -> AffineNonlinearSystem:
        """x_dot = Ginv(-grad P + g u), y = g^T x, with analytic Jacobians."""
        Ginv = np.linalg.inv(self.metric_matrix)
        P = self.potential()
        gcols = self.input_columns
        m = self.m

        return AffineNonlinearSystem(
            nx=self.n, nu=m,
            f=lambda x: _mv(Ginv, -P.gradient(np.asarray(x, dtype=float))),
            g=_constant_rows(Ginv @ gcols),
            h=lambda x: _mv(gcols.T, np.asarray(x, dtype=float)),
            k=_constant_rows(np.zeros((m, m))),
            domain=self.domain,
            df_dx=lambda x: Ginv @ (-P.hessian(np.asarray(x, dtype=float))),
            dg_dx=_constant_rows(np.zeros((m, self.n, self.n))),
            dh_dx=_constant_rows(gcols.T),
        )

    def sigma(self) -> SignatureMatrix:
        return SignatureMatrix.identity(self.m)


# ---------------------------------------------------------------------------
# Swing network


def _branch_angle(pi: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """q = arcsin(pi/gamma) on the principal branch, NaN where |pi| > gamma has no preimage:
    swing's one arcsin, for H2's declared conjugate and the co-energy's value and gradient."""
    r = pi / gamma
    return np.arcsin(np.where(np.abs(r) <= 1.0, r, np.nan))


def _read_only(values) -> np.ndarray:
    """A float array that cannot be written, for data every instance of a class shares."""
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SwingModel:
    """Coupled machines with momenta p and branch angles q.

    Port-Hamiltonian form on z = (p, q): H = p.Minv p / 2 - sum gamma_j cos q_j,
    structure J = [[0, -D], [D^T, 0]], dissipation R grad H = (A Minv p, 0).
    The co-energy form lives on (omega, pi) with pi_j = gamma_j sin q_j and is
    restricted to |pi_j| <= pi_frac * gamma_j so the branch conjugate stays on
    the principal branch.  The network is one fixed two-machine, one-branch case:
    M, D, gamma, the source on the first machine and the box half-widths are
    read-only class constants, and only the damping A is a field, which
    lossless() zeroes.
    """

    M = _read_only([1.0, 1.5])
    D = _read_only([[1.0], [-1.0]])
    gamma = _read_only([1.0])
    input_columns = _read_only([[1.0], [0.0]])
    omega_max = 2.0
    q_max = 1.1
    pi_frac = 0.9
    A: np.ndarray = field(default_factory=lambda: np.array([0.4, 0.3]))

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))

    @property
    def n_machines(self) -> int:
        return len(self.M)

    @property
    def n_branches(self) -> int:
        return len(self.gamma)

    @property
    def m(self) -> int:
        return self.input_columns.shape[1]

    def lossless(self) -> "SwingModel":
        return SwingModel(A=np.zeros_like(self.A))

    # -- port-Hamiltonian side -------------------------------------------

    def momentum_box(self) -> BoxDomain:
        half = self.M * self.omega_max
        return BoxDomain(-half, half)

    def angle_box(self) -> BoxDomain:
        half = np.full(self.n_branches, self.q_max)
        return BoxDomain(-half, half)

    def hamiltonian(self) -> ScalarField:
        """H(p, q) = p.Minv p/2 - sum_j gamma_j cos q_j; batched."""
        n, b = self.n_machines, self.n_branches
        Minv = 1.0 / self.M
        dom = BoxDomain.product(self.momentum_box(), self.angle_box())

        def value(z):
            p, q = z[..., :n], z[..., n:]
            return 0.5 * np.vecdot(p, Minv * p) - np.vecdot(self.gamma, np.cos(q))

        def gradient(z):
            p, q = z[..., :n], z[..., n:]
            return np.concatenate([Minv * p, self.gamma * np.sin(q)], axis=-1)

        def hessian(z):
            return _diag(np.concatenate([np.broadcast_to(Minv, z.shape[:-1] + (n,)),
                                         self.gamma * np.cos(z[..., n:])], axis=-1))

        return ScalarField(n + b, value, dom, gradient=gradient, hessian=hessian, batched=True)

    def as_port_hamiltonian(self) -> PortHamiltonianSystem:
        n, b = self.n_machines, self.n_branches
        J = np.zeros((n + b, n + b))
        J[:n, n:] = -self.D
        J[n:, :n] = self.D.T
        R = np.zeros((n + b, n + b))
        R[:n, :n] = np.diag(self.A)
        g = np.vstack([self.input_columns, np.zeros((b, self.m))])
        return PortHamiltonianSystem(H=self.hamiltonian(), J=J, g=g, R=R)

    # -- co-energy (Hessian pseudo-gradient) side ------------------------

    def omega_box(self) -> BoxDomain:
        half = np.full(self.n_machines, self.omega_max)
        return BoxDomain(-half, half)

    def pi_box(self) -> BoxDomain:
        half = self.pi_frac * self.gamma
        return BoxDomain(-half, half)

    def co_energy(self) -> ScalarField:
        """K(omega, pi) = omega.M omega/2 - sum_j conj(-gamma cos)(pi_j); batched.  The value
        and gradient are NaN where |pi_j| > gamma_j, the Hessian where |pi_j| >= gamma_j."""
        n, dim = self.n_machines, self.n_machines + self.n_branches
        dom = BoxDomain.product(self.omega_box(), self.pi_box())

        def value(x):
            w, pi = x[..., :n], x[..., n:]
            s = _branch_angle(pi, self.gamma)
            branch = pi * s + self.gamma * np.cos(s)
            return 0.5 * np.vecdot(w, self.M * w) - np.sum(branch, axis=-1)

        def gradient(x):
            w, pi = x[..., :n], x[..., n:]
            return np.concatenate([self.M * w, -_branch_angle(pi, self.gamma)], axis=-1)

        def hessian(x):  # the diagonal filled in place: np.broadcast_to of M costs per point
            d = self.gamma ** 2 - x[..., n:] ** 2
            H = np.zeros(x.shape[:-1] + (dim, dim))
            diagonal = H.reshape(x.shape[:-1] + (-1,))[..., ::dim + 1]
            diagonal[..., :n], diagonal[..., n:] = self.M, -1.0 / np.sqrt(
                np.where(d > 0.0, d, np.nan))
            return H

        return ScalarField(dim, value, dom, gradient=gradient, hessian=hessian, batched=True)

    def mixed_potential(self) -> ScalarField:
        n = self.n_machines
        Q = np.zeros((n + self.n_branches,) * 2)
        Q[:n, :n] = np.diag(self.A)
        Q[:n, n:] = self.D
        Q[n:, :n] = self.D.T
        dom = BoxDomain.product(self.omega_box(), self.pi_box())
        return quadratic_field(Q, dom)

    def storage(self) -> ScalarField:
        """Kinetic energy plus the branch potential expressed through pi; batched.  The value
        is NaN where |pi_j| > gamma_j, the gradient where |pi_j| >= gamma_j."""
        n = self.n_machines
        dom = BoxDomain.product(self.omega_box(), self.pi_box())

        def value(x):
            w, d = x[..., :n], self.gamma ** 2 - x[..., n:] ** 2
            return 0.5 * np.vecdot(w, self.M * w) - np.sum(
                np.sqrt(np.where(d >= 0.0, d, np.nan)), axis=-1)

        def gradient(x):
            w, pi = x[..., :n], x[..., n:]
            d = self.gamma ** 2 - pi ** 2
            return np.concatenate([self.M * w, pi / np.sqrt(np.where(d > 0.0, d, np.nan))],
                                  axis=-1)

        return ScalarField(n + self.n_branches, value, dom, gradient=gradient, batched=True)

    def as_hessian_pseudo_gradient(self, u_box: Optional[BoxDomain] = None
                                   ) -> HessianPseudoGradientSystem:
        g = np.vstack([self.input_columns, np.zeros((self.n_branches, self.m))])
        return HessianPseudoGradientSystem.from_internal_potential(
            self.co_energy(), self.mixed_potential(), g,
            SignatureMatrix.identity(self.m), u_box=u_box, storage=self.storage())

    def conversion_split(self) -> ConversionSplit:
        n, b = self.n_machines, self.n_branches
        Minv = 1.0 / self.M

        H1 = quadratic_field(np.diag(Minv), self.momentum_box())
        H2 = ScalarField(
            b, lambda q: -np.vecdot(self.gamma, np.cos(q)), self.angle_box(),
            gradient=lambda q: self.gamma * np.sin(q),
            hessian=lambda q: _diag(self.gamma * np.cos(q)), batched=True,
            conjugate_gradient=lambda pi: _branch_angle(pi, self.gamma))
        P1 = quadratic_field(np.diag(self.A), self.omega_box())
        P2 = quadratic_field(np.zeros((b, b)), self.pi_box())
        return ConversionSplit(idx1=tuple(range(n)), idx2=tuple(range(n, n + b)),
                               H1=H1, H2=H2, P1=P1, P2=P2, Pc=self.D.copy(),
                               g1=self.input_columns.copy())

    def ph_state_to_co_energy(self, z) -> np.ndarray:
        """(p, q) -> (omega, pi) = (Minv p, gamma sin q)."""
        n = self.n_machines
        z = as_vector(z, n + self.n_branches)
        return np.concatenate([z[:n] / self.M, self.gamma * np.sin(z[n:])])


# ---------------------------------------------------------------------------
# RC conductance network


def _branch_characteristic(kind: str, param: float):
    """Return (primitive, derivative, second derivative) of a conductor law."""
    if kind == "linear":
        return (lambda v: 0.5 * param * v * v,
                lambda v: param * v,
                lambda v: np.full_like(v, param))
    if kind == "tanh":
        return (lambda v: np.log(np.cosh(param * v)) / param,
                lambda v: np.tanh(param * v),
                lambda v: param / np.square(np.cosh(param * v)))
    raise DimensionMismatchError(f"unknown conductor kind {kind!r}")


@dataclass(frozen=True)
class RcCircuitModel:
    """Capacitor nodes psi_c driven through a resistive conductance network.

    Branch voltages are v = Dc^T psi_c + Dt^T psi_t with psi_t the terminal
    potentials acting as input.  The co-content of the conductors is the
    joint potential; outputs are terminal currents and the sign convention
    is sigma = -I.
    """

    Dc: np.ndarray = field(default_factory=lambda: np.array([[1.0]]))
    Dt: np.ndarray = field(default_factory=lambda: np.array([[-1.0]]))
    conductors: tuple = (("linear", 1.0),)
    cap: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    cap_quartic: np.ndarray = field(default_factory=lambda: np.array([0.0]))

    def __post_init__(self):
        for name in ("Dc", "Dt", "cap", "cap_quartic"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.Dc.shape[1] != self.Dt.shape[1] or self.Dc.shape[1] != len(self.conductors):
            raise DimensionMismatchError("incidence columns must match the branch count")

    @property
    def nc(self) -> int:
        return self.Dc.shape[0]

    @property
    def nt(self) -> int:
        return self.Dt.shape[0]

    @property
    def domain(self) -> BoxDomain:
        return BoxDomain.cube(self.nc, RC_HALFWIDTH)

    @property
    def u_box(self) -> BoxDomain:
        return BoxDomain.cube(self.nt, RC_U_HALFWIDTH)

    def co_energy(self) -> ScalarField:
        """Capacitor co-energy sum_j c_j psi_j^2/2 + a_j psi_j^4/4; batched."""
        c, a = self.cap, self.cap_quartic

        def value(x):
            return 0.5 * np.vecdot(c, x ** 2) + 0.25 * np.vecdot(a, x ** 4)

        return ScalarField(self.nc, value, self.domain,
                           gradient=lambda x: c * x + a * x ** 3,
                           hessian=lambda x: _diag(c + 3.0 * a * x ** 2), batched=True)

    def co_content(self) -> ScalarField:
        """Joint potential W(psi_c, psi_t) with analytic derivatives; batched."""
        prim = [_branch_characteristic(k, p) for k, p in self.conductors]
        Dfull = np.vstack([self.Dc, self.Dt])
        nc = self.nc

        def branch(w, order):  # the order-th derivative of each branch primitive
            v = _mv(Dfull.T, w)
            return np.stack([prim[j][order](v[..., j]) for j in range(len(prim))], axis=-1)

        dom = BoxDomain.product(self.domain, self.u_box)
        return ScalarField(nc + self.nt, lambda w: np.sum(branch(w, 0), axis=-1), dom,
                           gradient=lambda w: _mv(Dfull, branch(w, 1)),
                           hessian=lambda w: (Dfull * branch(w, 2)[..., None, :]) @ Dfull.T,
                           batched=True)

    def as_relaxation(self) -> HessianPseudoGradientSystem:
        K = self.co_energy()
        # relaxation storage is the conjugate pulled back through grad K
        return HessianPseudoGradientSystem(
            K=K, V=self.co_content(),
            sigma=SignatureMatrix.minus_identity(self.nt), storage=_conjugate_storage(K))

    @staticmethod
    def scalar_fixture() -> "RcCircuitModel":
        """One capacitor, one linear unit conductor to a single terminal."""
        return RcCircuitModel()

    @staticmethod
    def tanh_fixture() -> "RcCircuitModel":
        """Two capacitors, two tanh conductors and a grounding resistor."""
        return RcCircuitModel(
            Dc=np.array([[1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]]),
            Dt=np.array([[0.0, -1.0, 0.0]]),
            conductors=(("tanh", 1.0), ("tanh", 1.0), ("linear", 0.5)),
            cap=np.array([1.0, 2.0]),
            cap_quartic=np.array([0.2, 0.0]),
        )


# ---------------------------------------------------------------------------
# Linear helpers and randomized generators


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def well_conditioned_transform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random invertible matrix with condition number at most exp(2*LOG_SPREAD)."""
    scales = np.exp(rng.uniform(-LOG_SPREAD, LOG_SPREAD, size=n))
    return random_orthogonal(rng, n) @ np.diag(scales) @ random_orthogonal(rng, n)


def _random_spd(rng: np.random.Generator, n: int, floor: float) -> np.ndarray:
    W = rng.standard_normal((n, n))
    return W @ W.T / max(n, 1) + floor * np.eye(n)


def random_reciprocal_system(rng: np.random.Generator, n: int, m: int,
                             sigma: Optional[SignatureMatrix] = None,
                             k: Optional[int] = None):
    """Random internally stable reciprocal system.

    Built in signature coordinates where G = diag(I_k, -I_{n-k}) and
    A = -G P with P = [[P1, Pc], [Pc^T, P2]], P1 > 0, P2 < 0; then
    A + A^T = -2 diag(P1, -P2) < 0, so A is Hurwitz.  A random
    well-conditioned change of coordinates hides the structure.

    Returns (LinearSystem, G, sigma).
    """
    if sigma is None:
        sigma = SignatureMatrix.identity(m)
    if k is None:
        k = int(rng.integers(0, n + 1))
    P = np.zeros((n, n))
    P[:k, :k] = _random_spd(rng, k, STABILITY_FLOOR)
    P[k:, k:] = -_random_spd(rng, n - k, STABILITY_FLOOR)
    Pc = rng.standard_normal((k, n - k)) * 0.7
    P[:k, k:] = Pc
    P[k:, :k] = Pc.T
    G = np.diag(np.concatenate([np.ones(k), -np.ones(n - k)]))
    A = -G @ P  # G inverse equals G here
    C = rng.standard_normal((m, n)) * 0.8
    B = G @ C.T @ sigma.matrix
    D = sigma.matrix @ _random_spd(rng, m, 0.0)

    T = well_conditioned_transform(rng, n)
    Tinv = np.linalg.inv(T)
    A = T @ A @ Tinv
    B = T @ B
    C = C @ Tinv
    G = Tinv.T @ G @ Tinv
    G = 0.5 * (G + G.T)
    return LinearSystem(A, B, C, D), G, sigma


# ---------------------------------------------------------------------------
# Registries


@dataclass(frozen=True)
class ModelBundle:
    """Everything the command line needs to know about one named model."""

    name: str
    kind: str  # linear | affine | hessian_pg | port_hamiltonian
    description: str
    linear: Optional[LinearSystem] = None
    G_lin: Optional[np.ndarray] = None
    sigma: Optional[SignatureMatrix] = None
    Q0: Optional[np.ndarray] = None
    affine: Optional[AffineNonlinearSystem] = None
    metric: Optional[MetricField] = None
    hpg: Optional[HessianPseudoGradientSystem] = None
    ph: Optional[PortHamiltonianSystem] = None
    split: Optional[ConversionSplit] = None
    u_box: Optional[BoxDomain] = None


def _scalar_relaxation_bundle() -> ModelBundle:
    xbox = BoxDomain.cube(1, 2.0)
    ubox = BoxDomain.cube(1, 2.0)
    K = quadratic_field(np.array([[1.0]]), xbox)

    V = quadratic_field(np.array([[1.0, -1.0], [-1.0, 1.0]]), BoxDomain.product(xbox, ubox))
    hpg = HessianPseudoGradientSystem(K=K, V=V, sigma=SignatureMatrix.minus_identity(1))
    return ModelBundle(
        name="scalar-relaxation", kind="hessian_pg",
        description="first order lag x' = u - x as a relaxation system",
        hpg=hpg, sigma=hpg.sigma, u_box=ubox)


def _gyrator_bundle() -> ModelBundle:
    sig = SignatureMatrix(np.array([1, -1]))
    sys = LinearSystem(A=-np.eye(2), B=np.eye(2), C=np.diag([1.0, -1.0]),
                       D=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return ModelBundle(
        name="gyrator", kind="linear",
        description="two-port with gyrator feedthrough, mixed signature",
        linear=sys, G_lin=np.eye(2), sigma=sig)


def _indefinite_metric_bundle() -> ModelBundle:
    sys = LinearSystem(A=np.array([[-1.0, -2.0], [2.0, -1.0]]),
                       B=np.array([[1.0], [0.0]]),
                       C=np.array([[1.0, 0.0]]),
                       D=np.array([[0.0]]))
    return ModelBundle(
        name="indefinite-g", kind="linear",
        description="passive oscillator reciprocal for diag(1, -1)",
        linear=sys, G_lin=np.diag([1.0, -1.0]), sigma=SignatureMatrix.identity(1),
        Q0=np.diag([1.0, 2.0]))


def _brayton_moser_bundle() -> ModelBundle:
    # passive co-content sign so trajectories stay bounded
    model = BraytonMoserModel(quartic=np.array([0.5]), co_content_sign=-1.0)
    ubox = BoxDomain.cube(model.m, 1.0)
    return ModelBundle(
        name="brayton-moser", kind="affine",
        description="passive LC circuit with nonlinear series resistor, indefinite metric",
        affine=model.as_affine(), metric=model.metric_field(), sigma=model.sigma(), u_box=ubox)


def _swing_bundle() -> ModelBundle:
    model = SwingModel()
    ubox = BoxDomain.cube(model.m, 0.5)
    hpg = model.as_hessian_pseudo_gradient(ubox)
    return ModelBundle(
        name="swing", kind="port_hamiltonian",
        description="two-machine swing network, co-energy coordinates available",
        ph=model.as_port_hamiltonian(), split=model.conversion_split(),
        hpg=hpg, sigma=hpg.sigma, u_box=ubox)


def _rc_bundle(fixture: RcCircuitModel, name: str, description: str) -> ModelBundle:
    hpg = fixture.as_relaxation()
    return ModelBundle(
        name=name, kind="hessian_pg", description=description,
        hpg=hpg, sigma=hpg.sigma, u_box=fixture.u_box)


def model_registry() -> dict:
    bundles = [
        _brayton_moser_bundle(),
        _swing_bundle(),
        _rc_bundle(RcCircuitModel.scalar_fixture(), "rc-relaxation",
                   "single RC cell driven by a terminal potential"),
        _rc_bundle(RcCircuitModel.tanh_fixture(), "rc-tanh",
                   "two-capacitor network with tanh conductors"),
        _scalar_relaxation_bundle(),
        _gyrator_bundle(),
        _indefinite_metric_bundle(),
    ]
    return {b.name: b for b in bundles}


def _diag(d: np.ndarray) -> np.ndarray:
    """np.diag over the last axis: (..., n) -> (..., n, n)."""
    out = np.zeros(d.shape + d.shape[-1:])
    out.reshape(d.shape[:-1] + (-1,))[..., ::d.shape[-1] + 1] = d
    return out


def _separable(dim: int, halfwidth: float, phi, dphi, d2phi) -> ScalarField:
    """sum_i phi(x_i) on the cube of that half-width, with gradient dphi(x) and Hessian
    diag(d2phi(x)), at a point or on a stack; batched."""
    return ScalarField(dim, lambda x: np.sum(phi(x), axis=-1), BoxDomain.cube(dim, halfwidth),
                       gradient=dphi, hessian=lambda x: _diag(d2phi(x)), batched=True)


def field_registry() -> dict:
    """Named convex (or at least smooth) generating functions for the CLI; all batched."""
    # quartic's small quadratic term mu keeps its conjugate twice differentiable at 0;
    # the pure quartic conjugate 3/4 |z|^(4/3) is only C^1 there
    mu = 0.1
    return {
        "quadratic": quadratic_field(np.array([[2.0, 0.5], [0.5, 1.0]]), BoxDomain.cube(2, 2.0)),
        "cosh": _separable(2, 1.5, lambda x: np.cosh(x) - 1.0, np.sinh, np.cosh),
        "log-cosh": _separable(2, 1.5, lambda x: np.log(np.cosh(x)), np.tanh,
                               lambda x: 1.0 / np.cosh(x) ** 2),
        "exp-sum": _separable(2, 1.2, np.exp, np.exp, np.exp),
        "quartic": _separable(1, 1.5, lambda x: 0.25 * x ** 4 + 0.5 * mu * (x * x),
                              lambda x: x ** 3 + mu * x, lambda x: 3.0 * x ** 2 + mu),
        "quartic-quadratic": _separable(2, 1.5, lambda x: 0.25 * x ** 4 + 0.5 * x ** 2,
                                        lambda x: x ** 3 + x, lambda x: 3.0 * x ** 2 + 1.0),
        "swing-branch": _separable(1, 1.2, lambda q: -np.cos(q), np.sin, np.cos),
    }
