import numpy as np
import pytest

from recipkit.core import (
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    finite_difference_jacobian,
    validate_scalar_field,
)
from recipkit.linear import check_linear_reciprocity
from recipkit.schema import _checked
from recipkit.models import (
    BraytonMoserModel,
    RcCircuitModel,
    SwingModel,
    field_registry,
    model_registry,
    random_orthogonal,
    random_reciprocal_system,
    well_conditioned_transform,
)


def textbook_bm() -> BraytonMoserModel:
    return BraytonMoserModel(L=np.array([1.0]), C=np.array([0.5]),
                             lam=np.array([[1.0]]), R=np.array([0.7]),
                             Gc=np.array([0.4]), quartic=np.array([0.5]))


def test_brayton_moser_metric_and_co_energy():
    bm = textbook_bm()
    assert np.array_equal(bm.metric_matrix, np.diag([1.0, -0.5]))
    K = bm.co_energy()
    x = np.array([1.0, 2.0])
    assert K(x) == pytest.approx(0.5 * (1.0 - 0.5 * 4.0))
    assert np.allclose(K.grad(x), bm.metric_matrix @ x)
    Gf = bm.metric_field()
    assert np.array_equal(Gf(x), bm.metric_matrix)


def test_brayton_moser_potential_value_and_derivatives():
    bm = textbook_bm()
    P = bm.potential()
    x = np.array([1.0, 1.0])
    # content + co-content + coupling, all scalars
    assert P(x) == pytest.approx(0.5 * 0.7 + 0.25 * 0.5 + 0.5 * 0.4 + 1.0)
    gaps = validate_scalar_field(P)
    assert gaps["grad_gap"] < 1e-6
    assert gaps["hess_gap"] < 1e-4


def test_brayton_moser_co_content_sign():
    plus = textbook_bm().potential()
    minus = BraytonMoserModel(L=np.array([1.0]), C=np.array([0.5]),
                              lam=np.array([[1.0]]), R=np.array([0.7]),
                              Gc=np.array([0.4]), quartic=np.array([0.5]),
                              co_content_sign=-1.0).potential()
    x = np.array([0.3, 0.8])
    assert plus.hess(x)[1, 1] == pytest.approx(0.4)
    assert minus.hess(x)[1, 1] == pytest.approx(-0.4)
    # only the capacitor block flips
    assert plus.hess(x)[0, 0] == pytest.approx(minus.hess(x)[0, 0])


def test_brayton_moser_affine_consistency():
    bm = textbook_bm()
    aff = bm.as_affine()
    P = bm.potential()
    Ginv = np.linalg.inv(bm.metric_matrix)
    for x in bm.domain.sample(5, seed=3):
        assert np.allclose(aff.f(x), Ginv @ (-P.grad(x)), atol=1e-12)
        assert np.allclose(aff.h(x), bm.input_columns.T @ x, atol=1e-12)
        fd = finite_difference_jacobian(aff.f, x)
        assert np.allclose(aff.df_dx(x), fd, atol=1e-5)
    assert aff.g(np.zeros(2)).shape == (2, 1)


def test_brayton_moser_validation():
    with pytest.raises(DimensionMismatchError):
        BraytonMoserModel(lam=np.array([[1.0, 0.0]]))
    assert textbook_bm().sigma().is_identity


def test_swing_field_derivatives():
    sw = SwingModel()
    for f in (sw.hamiltonian(), sw.co_energy(), sw.mixed_potential()):
        gaps = validate_scalar_field(f)
        assert gaps["grad_gap"] < 1e-5
        assert gaps["hess_gap"] < 1e-3
    S = sw.storage()
    for x in S.domain.shrink(0.9).sample(5, seed=11):
        fd = finite_difference_jacobian(S, x)
        assert np.allclose(S.grad(x), fd, atol=1e-5)


def test_swing_state_maps_round_trip():
    sw = SwingModel()
    ps = sw.momentum_box().sample(10, seed=4)
    qs = sw.angle_box().sample(10, seed=5)
    for p, q in zip(ps, qs):
        z = np.concatenate([p, q])
        x = sw.ph_state_to_co_energy(z)
        assert np.allclose(x[:2], p / sw.M)
        assert np.allclose(x[2:], sw.gamma * np.sin(q))
        # co-energy gradient recovers the port-Hamiltonian state up to sign
        gk = sw.co_energy().grad(x)
        assert np.allclose(gk[:2], p, atol=1e-12)
        assert np.allclose(gk[2:], -q, atol=1e-12)


def test_swing_port_hamiltonian_and_lossless():
    sw = SwingModel()
    report = sw.as_port_hamiltonian().validate()
    assert report["max_skew"] == 0.0
    assert report["min_dissipation_pairing"] >= 0.0
    ll = sw.lossless()
    assert np.array_equal(ll.A, np.zeros(2))
    z = np.array([0.5, -0.3, 0.2])
    assert np.allclose(ll.as_port_hamiltonian().R(z), 0.0)


def test_swing_boxes():
    sw = SwingModel()
    assert np.allclose(sw.momentum_box().upper, sw.M * sw.omega_max)
    assert np.allclose(sw.pi_box().upper, 0.9 * sw.gamma)
    assert sw.m == 1 and sw.n_machines == 2 and sw.n_branches == 1
    with pytest.raises(DimensionMismatchError):
        SwingModel(D=np.array([[1.0, 0.0]]))


def test_rc_scalar_fixture_fields():
    rc = RcCircuitModel.scalar_fixture()
    K = rc.co_energy()
    assert K(np.array([0.8])) == pytest.approx(0.32)
    W = rc.co_content()
    w = np.array([0.7, 0.2])
    # single unit branch sees psi - u
    assert W(w) == pytest.approx(0.5 * 0.25)
    assert np.allclose(W.grad(w), [0.5, -0.5])
    assert np.allclose(W.hess(w), [[1.0, -1.0], [-1.0, 1.0]])


def test_rc_tanh_fixture_fields():
    rc = RcCircuitModel.tanh_fixture()
    assert rc.nc == 2 and rc.nt == 1
    for f in (rc.co_energy(), rc.co_content()):
        gaps = validate_scalar_field(f)
        assert gaps["grad_gap"] < 1e-5
        assert gaps["hess_gap"] < 1e-3


def test_rc_relaxation_storage_is_conjugate():
    rc = RcCircuitModel.tanh_fixture()
    hpg = rc.as_relaxation()
    K, S = hpg.K, hpg.storage
    for x in K.domain.sample(5, seed=2):
        assert S(x) == pytest.approx(float(x @ K.grad(x)) - K(x), abs=1e-12)
        assert np.allclose(S.grad(x), K.hess(x) @ x, atol=1e-12)
    assert not hpg.sigma.is_identity


def test_rc_incidence_validation():
    with pytest.raises(DimensionMismatchError):
        RcCircuitModel(Dc=np.array([[1.0, 0.0]]))


def test_random_orthogonal_property():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 6):
        Q = random_orthogonal(rng, n)
        assert np.allclose(Q.T @ Q, np.eye(n), atol=1e-12)


def test_well_conditioned_transform_bound():
    rng = np.random.default_rng(8)
    for _ in range(20):
        T = well_conditioned_transform(rng, 4)
        assert np.linalg.cond(T) <= np.exp(0.6) + 1e-9


def test_random_reciprocal_signature_of_g():
    rng = np.random.default_rng(13)
    sys_pos, G_pos, sig = random_reciprocal_system(rng, 3, 1, k=3)
    assert np.all(np.linalg.eigvalsh(G_pos) > 0)
    sys_neg, G_neg, _ = random_reciprocal_system(rng, 3, 1, k=0)
    assert np.all(np.linalg.eigvalsh(G_neg) < 0)
    for sys, G in ((sys_pos, G_pos), (sys_neg, G_neg)):
        assert check_linear_reciprocity(sys, G, sig).residual < 1e-10


def test_model_registry_contents():
    reg = model_registry()
    assert set(reg) == {"brayton-moser", "swing", "rc-relaxation", "rc-tanh",
                        "scalar-relaxation", "gyrator", "indefinite-g"}
    for name, bundle in reg.items():
        assert bundle.name == name
        assert bundle.description
        # the structure checks a JSON model passes at load: metric, G_lin, then J and R
        assert _checked(bundle, name) is bundle
    assert reg["gyrator"].kind == "linear"
    assert reg["gyrator"].linear is not None and reg["gyrator"].G_lin is not None
    assert reg["indefinite-g"].Q0 is not None
    assert reg["brayton-moser"].kind == "affine"
    assert reg["brayton-moser"].affine is not None
    assert reg["brayton-moser"].metric is not None
    # brayton-moser is batched: its stacked F and H are the per-point values, bit for bit
    bm = reg["brayton-moser"]
    general = bm.affine.to_general()
    assert bm.affine.batched and general.batched and bm.metric.batched
    X, U = bm.affine.domain.sample(32, seed=4), bm.u_box.sample(32, seed=5)
    assert np.array_equal(general.F_rows(X, U), [general.F(x, u) for x, u in zip(X, U)])
    assert np.array_equal(general.H_rows(X, U), [general.H(x, u) for x, u in zip(X, U)])
    assert reg["swing"].kind == "port_hamiltonian"
    assert reg["swing"].ph is not None and reg["swing"].split is not None
    for name in ("rc-relaxation", "rc-tanh", "scalar-relaxation"):
        assert reg[name].kind == "hessian_pg"
        assert reg[name].hpg is not None
        assert not reg[name].sigma.is_identity


def test_field_registry_contents():
    fields = field_registry()
    assert set(fields) == {"quadratic", "cosh", "log-cosh", "exp-sum",
                           "quartic", "quartic-quadratic", "swing-branch"}
    for name, f in fields.items():
        assert f.domain.dim == f.dim
        gaps = validate_scalar_field(f)
        assert gaps["grad_gap"] < 1e-5, name
        assert gaps["hess_gap"] < 1e-3, name
