import dataclasses

import numpy as np
import pytest

from recipkit import models
from recipkit.core import (
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    NonlinearSystem,
    ScalarField,
    finite_difference_jacobian,
    validate_scalar_field,
)
from recipkit.dynamics import ph_to_hessian_pseudo_gradient
from recipkit.legendre import make_legendre_pair
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


def test_brayton_moser_metric():
    bm = textbook_bm()
    assert np.array_equal(bm.metric_matrix, np.diag([1.0, -0.5]))
    x = np.array([1.0, 2.0])
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


def test_brayton_moser_potential_is_built_once_per_model(monkeypatch):
    built = []
    block_field = models._block_field
    monkeypatch.setattr(models, "_block_field", lambda *a: built.append(a) or block_field(*a))
    bm = textbook_bm()
    P = bm.potential()
    bm.as_affine()
    bm.as_affine()
    assert bm.potential() is P and len(built) == 1
    # a replaced model builds its own
    flipped = dataclasses.replace(bm, co_content_sign=-1.0)
    assert len(built) == 2 and flipped.potential() is not P
    assert flipped.potential().hess(np.zeros(2))[1, 1] == -P.hess(np.zeros(2))[1, 1]


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


def test_swing_co_energy_side_is_nan_off_the_branch():
    # |pi| = 1.2 > gamma = 1 has no branch angle: the co-energy's Hessian and the storage's
    # value and gradient read NaN there, as the co-energy's value and gradient do, with no
    # RuntimeWarning (an error under this suite's filter); at |pi| = gamma the values stay
    # finite and the curvature is NaN
    sw = SwingModel()
    K, S = sw.co_energy(), sw.storage()
    x, edge = np.array([0.1, 0.2, 1.2]), np.array([0.1, 0.2, 1.0])
    assert np.isnan(K(x)) and np.isnan(K.grad(x)[2])
    assert np.isnan(K.hess(x)[2, 2]) and np.isnan(S(x)) and np.isnan(S.grad(x)[2])
    assert np.isfinite(K(edge)) and np.isfinite(S(edge))
    assert np.isnan(K.hess(edge)[2, 2]) and np.isnan(S.grad(edge)[2])
    H = K.hess_rows(np.array([[0.3, -0.1, 0.5], x, [-0.2, 0.4, -0.8]]))
    assert np.isnan(H).any(axis=(1, 2)).tolist() == [False, True, False]
    assert np.array_equal(H[0], np.diag([1.0, 1.5, -1.0 / np.sqrt(1.0 - 0.5 ** 2)]))


def test_swing_boxes():
    sw = SwingModel()
    assert np.allclose(sw.momentum_box().upper, sw.M * sw.omega_max)
    assert np.allclose(sw.pi_box().upper, 0.9 * sw.gamma)
    assert sw.m == 1 and sw.n_machines == 2 and sw.n_branches == 1
    # the network's data are shared read-only constants; only the damping A is a field
    assert [f.name for f in dataclasses.fields(SwingModel)] == ["A"]
    for name in ("M", "D", "gamma", "input_columns"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sw, name)[0] = 0.0


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
    assert general.batched and bm.metric.batched
    X, U = bm.affine.domain.sample(32, seed=4), bm.u_box.sample(32, seed=5)
    assert np.array_equal(general.F_rows(X, U), [general.F(x, u) for x, u in zip(X, U)])
    assert np.array_equal(general.H_rows(X, U), [general.H(x, u) for x, u in zip(X, U)])
    # and so are the Jacobians of a stack that the linearization takes
    for jac in (general.jac_F_x, general.jac_F_u, general.jac_H_x):
        assert np.array_equal(jac(X, U), [jac(x, u) for x, u in zip(X, U)])
    aff = bm.affine
    assert np.array_equal(aff.g(X), [aff.g(x) for x in X])
    assert reg["swing"].kind == "port_hamiltonian"
    assert reg["swing"].ph is not None and reg["swing"].split is not None
    for name in ("rc-relaxation", "rc-tanh", "scalar-relaxation"):
        assert reg[name].kind == "hessian_pg"
        assert reg[name].hpg is not None
        assert not reg[name].sigma.is_identity
    # the batched forms a recorded trajectory evaluates: rows are the per-point values
    swing, tanh = reg["swing"], reg["rc-tanh"]
    for field in (swing.ph.H, swing.hpg.K, swing.hpg.storage, swing.split.H1, swing.split.H2,
                  tanh.hpg.K, tanh.hpg.V, tanh.hpg.storage, reg["rc-relaxation"].hpg.V,
                  reg["rc-relaxation"].hpg.storage, reg["scalar-relaxation"].hpg.V):
        X = field.domain.sample(64, seed=6)
        assert field.batched
        assert np.array_equal(field.value_rows(X), [field(x) for x in X])
        assert np.array_equal(field.grad_rows(X), [field.grad(x) for x in X])
        assert np.array_equal(field.hess_rows(X), [field.hess(x) for x in X])


def _fields_metrics_and_systems(obj, path: str):
    """(path, object) for each ScalarField, MetricField and NonlinearSystem reachable from
    obj through dataclass fields and to_general()."""
    if isinstance(obj, (ScalarField, MetricField, NonlinearSystem)):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _fields_metrics_and_systems(getattr(obj, f.name), f"{path}.{f.name}")
        if hasattr(obj, "to_general"):
            yield from _fields_metrics_and_systems(obj.to_general(), f"{path}.to_general()")


def test_every_registry_field_metric_and_system_is_batched():
    # one stack-native contract, with no exception: every object the registries build, each
    # registry field's conjugate and swing's converted system map stacks
    fields, swing = field_registry(), model_registry()["swing"]
    roots = {**model_registry(), **fields,
             **{f"{name}.Kstar": make_legendre_pair(f).Kstar for name, f in fields.items()},
             "swing.converted": ph_to_hessian_pseudo_gradient(swing.ph, swing.split).system}
    found = dict(pair for name, obj in roots.items()
                 for pair in _fields_metrics_and_systems(obj, name))
    # 22 in the 7 model bundles, 7 registry fields, their 7 conjugates and 4 converted
    assert len(found) == 40
    assert [path for path, obj in found.items() if not obj.batched] == []


def test_field_registry_contents():
    fields = field_registry()
    assert set(fields) == {"quadratic", "cosh", "log-cosh", "exp-sum",
                           "quartic", "quartic-quadratic", "swing-branch"}
    for name, f in fields.items():
        assert f.domain.dim == f.dim
        gaps = validate_scalar_field(f)
        assert gaps["grad_gap"] < 1e-5, name
        assert gaps["hess_gap"] < 1e-3, name
