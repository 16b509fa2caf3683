import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipkit import reciprocity
from recipkit.core import (
    AffineNonlinearSystem,
    AssumptionError,
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    NonlinearSystem,
    ScalarField,
    SignatureMatrix,
    _constant_rows,
    quadratic_field,
)
from recipkit.models import BraytonMoserModel, SwingModel, model_registry
from recipkit.reciprocity import (
    _state_input_stacks,
    check_reciprocity,
    check_reciprocity_affine,
    check_reciprocity_hessian,
    is_hessian_metric,
    reconstruct_K,
    reconstruct_potential,
)


def scalar_linear_system():
    # x_dot = -x + u, y = x is reciprocal for G = 1, sigma = +1
    box = BoxDomain.cube(1, halfwidth=1.5)
    return NonlinearSystem(
        1, 1,
        F=lambda x, u: np.array([-x[0] + u[0]]),
        H=lambda x, u: np.array([x[0]]),
        domain=box,
    )


def test_state_input_stacks():
    sys = NonlinearSystem(2, 1, F=lambda x, u: -x, H=lambda x, u: x[:1], domain=BoxDomain.cube(2))
    X, U = _state_input_stacks(sys, BoxDomain.cube(1, 0.5), 30, 0)
    assert X.shape == (30, 2) and U.shape == (30, 1)
    assert np.all(np.abs(X) <= 0.95) and np.all(np.abs(U) <= 0.5)


def test_check_reciprocity_scalar_linear():
    sys = scalar_linear_system()
    G = MetricField.constant([[1.0]], sys.domain)
    rep = check_reciprocity(sys, G, SignatureMatrix.identity(1), n_samples=25)
    assert rep.reciprocal
    assert rep.max_residual < 1e-7
    assert rep.points_tested == 25


def test_check_reciprocity_detects_scaled_output():
    box = BoxDomain.cube(1, halfwidth=1.5)
    sys = NonlinearSystem(
        1, 1,
        F=lambda x, u: np.array([-x[0] + u[0]]),
        H=lambda x, u: np.array([2.0 * x[0]]),
        domain=box,
    )
    rep = check_reciprocity(sys, MetricField.constant([[1.0]], box),
                            SignatureMatrix.identity(1), n_samples=25)
    assert not rep.reciprocal
    assert rep.residual_cross == pytest.approx(1.0, abs=1e-6)


def test_check_reciprocity_signature_size_mismatch():
    sys = scalar_linear_system()
    G = MetricField.constant([[1.0]], sys.domain)
    with pytest.raises(DimensionMismatchError):
        check_reciprocity(sys, G, SignatureMatrix.identity(2))


@pytest.mark.parametrize("check", ["general", "affine", "hessian"])
def test_a_metric_of_another_dimension_is_refused(check):
    bm = model_registry()["brayton-moser"]
    box = BoxDomain.cube(3)
    G, gen = MetricField.constant(np.eye(3), box), bm.affine.to_general()
    run = {"general": lambda: check_reciprocity(gen, G, bm.sigma),
           "affine": lambda: check_reciprocity_affine(bm.affine, G, bm.sigma),
           "hessian": lambda: check_reciprocity_hessian(gen, quadratic_field(np.eye(3), box),
                                                        bm.sigma)}[check]
    with pytest.raises(DimensionMismatchError, match="metric dimension 3"):
        run()


@pytest.mark.parametrize("check", ["general", "hessian"])
def test_an_input_box_of_another_dimension_is_refused(check):
    bm = model_registry()["brayton-moser"]
    gen, box = bm.affine.to_general(), BoxDomain.cube(2)
    K = quadratic_field(np.eye(gen.nx), gen.domain)
    run = {"general": lambda: check_reciprocity(gen, bm.metric, bm.sigma, u_box=box),
           "hessian": lambda: check_reciprocity_hessian(gen, K, bm.sigma, u_box=box)}[check]
    with pytest.raises(DimensionMismatchError, match="input box dimension 2"):
        run()


def test_check_reciprocity_affine_brayton_moser():
    # textbook sign convention satisfies reciprocity for diag(L, -C)
    bm = BraytonMoserModel(
        L=np.array([1.0]), C=np.array([0.5]), lam=np.array([[1.0]]),
        R=np.array([0.7]), Gc=np.array([0.4]), quartic=np.array([0.5]),
        co_content_sign=1.0,
    )
    rep = check_reciprocity_affine(bm.as_affine(), bm.metric_field(), bm.sigma(),
                                   n_samples=60)
    assert rep.reciprocal
    assert rep.max_residual < 1e-6


def test_check_reciprocity_affine_one_stencil_per_point():
    bm = BraytonMoserModel(
        L=np.array([1.0]), C=np.array([0.5]), lam=np.array([[1.0]]),
        R=np.array([0.7]), Gc=np.array([0.4]), quartic=np.array([0.5]),
        co_content_sign=1.0,
    )
    G = bm.metric_field()
    calls = []

    def counted(x):
        calls.append(1)
        return G.eval(x)

    sys = bm.as_affine()
    rep = check_reciprocity_affine(sys, MetricField(G.dim, counted, G.domain), bm.sigma(),
                                   n_samples=20)
    assert rep.reciprocal
    # one stencil over G [f | g] plus the checked center value
    assert len(calls) <= 20 * (2 * sys.nx + 1)


def test_check_reciprocity_evaluates_the_metric_once_at_the_centre():
    bm = BraytonMoserModel(
        L=np.array([1.0]), C=np.array([0.5]), lam=np.array([[1.0]]),
        R=np.array([0.7]), Gc=np.array([0.4]), quartic=np.array([0.5]),
        co_content_sign=1.0,
    )
    G = bm.metric_field()
    calls = []

    def counted(x):
        calls.append(1)
        return G.eval(x)

    sys = bm.as_affine().to_general()
    rep = check_reciprocity(sys, MetricField(G.dim, counted, G.domain), bm.sigma(),
                            n_samples=20)
    assert rep.reciprocal
    # one stencil over G F plus the checked centre value, reused for the cross gap
    assert len(calls) == 20 * (2 * sys.nx + 1)


@pytest.mark.parametrize("n_samples", [7, 60])
def test_check_reciprocity_affine_stacks_its_points(n_samples):
    bm = model_registry()["brayton-moser"]
    calls = {"f": 0, "g": 0, "G": 0}

    def counted(name, fn):
        def evaluate(x):
            calls[name] += 1
            return fn(x)
        return evaluate

    sys = dataclasses.replace(bm.affine, f=counted("f", bm.affine.f),
                              g=counted("g", bm.affine.g))
    G = dataclasses.replace(bm.metric, eval=counted("G", bm.metric.eval))
    rep = check_reciprocity_affine(sys, G, bm.sigma, n_samples=n_samples)
    assert rep.reciprocal and rep.points_tested == n_samples
    # one stencil of G [f | g] over all points, then g and G once more at the points
    n = sys.nx
    assert calls == {"f": 2 * n, "g": 2 * n + 1, "G": 2 * n + 1}


def test_check_reciprocity_affine_detects_metric_perturbation():
    bm = BraytonMoserModel(
        L=np.array([1.0]), C=np.array([0.5]), lam=np.array([[1.0]]),
        R=np.array([0.7]), Gc=np.array([0.4]), quartic=np.array([0.5]),
        co_content_sign=1.0,
    )
    E = np.array([[0.0, 1e-2], [1e-2, 0.0]])
    Gbad = MetricField.constant(bm.metric_matrix + E, bm.domain)
    rep = check_reciprocity_affine(bm.as_affine(), Gbad, bm.sigma(), n_samples=60)
    assert not rep.reciprocal
    assert rep.max_residual > 1e-3


def test_check_reciprocity_hessian_swing():
    swing = SwingModel()
    hpg = swing.as_hessian_pseudo_gradient()
    rep = check_reciprocity_hessian(hpg.to_general(), hpg.K, hpg.sigma, n_samples=40)
    assert rep.reciprocal
    assert rep.max_residual < 1e-5


def test_is_hessian_metric_closed_and_non_closed():
    box = BoxDomain.cube(2)
    K = ScalarField(
        2,
        lambda x: float(np.sum(np.cosh(x))),
        box,
        gradient=lambda x: np.sinh(x),
        hessian=lambda x: np.diag(np.cosh(x)),
    )
    ok = is_hessian_metric(MetricField.from_hessian(K))
    assert ok["hessian"]

    # dG11/dx2 = 2 x2 but dG21/dx1 = 0: not closed, not a Hessian
    Gbad = MetricField(2, lambda x: np.diag([1.0 + x[1] ** 2, 1.0]), box)
    bad = is_hessian_metric(Gbad)
    assert not bad["hessian"]
    assert bad["residual"] > 0.5


def two_input_affine(box, broken):
    """nx=3, nu=2 with G = diag(2, 1, 1) and sigma = I.

    G g_1 = grad(x0 x1 + cosh x2) and G g_2 = grad(x0 x2) make the system
    reciprocal with h = (x0 x1 + cosh x2, x0 x2); the broken variant drops
    the last entry of G g_2, so only d(G g_2)/dx is asymmetric.
    """
    Ginv = np.array([0.5, 1.0, 1.0])
    last = 0.0 if broken else 1.0

    def g(x):
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        Gg = np.stack([np.stack([x1, x2], axis=-1), np.stack([x0, 0.0 * x0], axis=-1),
                       np.stack([np.sinh(x2), last * x0], axis=-1)], axis=-2)
        return Ginv[:, None] * Gg

    def dg_dx(x):
        dGg1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, np.cosh(x[2])]])
        dGg2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [last, 0.0, 0.0]])
        return Ginv[None, :, None] * np.stack([dGg1, dGg2])

    sys = AffineNonlinearSystem(
        3, 2,
        f=lambda x: -x,
        g=g,
        h=lambda x: np.stack([x[..., 0] * x[..., 1] + np.cosh(x[..., 2]),
                              x[..., 0] * x[..., 2]], axis=-1),
        k=_constant_rows(np.zeros((2, 2))),
        domain=box,
    )
    return sys, dg_dx


def test_check_reciprocity_affine_two_inputs():
    box = BoxDomain.cube(3, halfwidth=0.8)
    G = MetricField.constant(np.diag([2.0, 1.0, 1.0]), box)
    for broken in (False, True):
        sys, dg_dx = two_input_affine(box, broken)
        gen = sys.to_general()
        for x in box.sample(6, seed=2):  # dF/dx is affine in u with slopes dg_j/dx
            J = np.stack([gen.jac_F_x(x, e) - gen.jac_F_x(x, np.zeros(2)) for e in np.eye(2)])
            assert J.shape == (2, 3, 3)
            np.testing.assert_allclose(J, dg_dx(x), atol=1e-8)
        rep = check_reciprocity_affine(sys, G, SignatureMatrix.identity(2), n_samples=20)
        assert rep.reciprocal is not broken
    # d(G g_2)/dx has a single off-diagonal 1 in the broken variant
    assert rep.residual_state == pytest.approx(1.0, abs=1e-6)


def test_reconstruct_K_matches_generating_function():
    box = BoxDomain.cube(2)
    K = ScalarField(
        2,
        lambda x: float(np.sum(np.cosh(x))) + 0.25 * float(x[0] * x[1]),
        box,
        gradient=lambda x: np.sinh(x) + 0.25 * np.array([x[1], x[0]]),
        hessian=lambda x: np.diag(np.cosh(x)) + 0.25 * np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    G = MetricField.from_hessian(K)
    rec = reconstruct_K(G, base_point=np.zeros(2))
    # reconstruction is gauged to value 0 and gradient 0 at the base point
    k0 = K(np.zeros(2))
    for x in box.shrink(0.8).sample(15, seed=2):
        expected = K(x) - k0 - float(K.grad(np.zeros(2)) @ x)
        assert rec(x) == pytest.approx(expected, abs=1e-7)
        np.testing.assert_allclose(rec.grad(x), K.grad(x) - K.grad(np.zeros(2)),
                                   atol=1e-7)


def test_reconstruct_K_rejects_non_hessian_metric():
    box = BoxDomain.cube(2)
    Gbad = MetricField(2, lambda x: np.diag([1.0 + x[1] ** 2, 1.0]), box)
    with pytest.raises(DimensionMismatchError):
        reconstruct_K(Gbad, base_point=np.zeros(2))


def test_reconstruct_potential_scalar_linear():
    sys = scalar_linear_system()
    G = MetricField.constant([[1.0]], sys.domain)
    pot = reconstruct_potential(sys, G, SignatureMatrix.identity(1),
                                base_point=(np.zeros(1), np.zeros(1)))
    # V(x, u) = x^2/2 - x u for x_dot = -x + u, y = x
    for xv, uv in [(1.0, 0.5), (0.8, -0.3), (-0.6, 0.9), (0.2, 0.0)]:
        w = np.array([xv, uv])
        assert pot.V(w) == pytest.approx(0.5 * xv ** 2 - xv * uv, abs=1e-9)
    gx, gu = pot.V.grad(np.array([0.7, 0.2]))
    assert gx == pytest.approx(0.7 - 0.2, abs=1e-12)
    assert gu == pytest.approx(-0.7, abs=1e-12)


def test_reconstruct_potential_brayton_moser_grid():
    bm = BraytonMoserModel(
        L=np.array([1.0]), C=np.array([0.5]), lam=np.array([[1.0]]),
        R=np.array([0.7]), Gc=np.array([0.4]), quartic=np.array([0.5]),
        co_content_sign=1.0,
    )
    sys = bm.as_affine().to_general()
    pot = reconstruct_potential(sys, bm.metric_field(), bm.sigma(),
                                base_point=(np.zeros(2), np.zeros(1)),
                                n_samples=40)
    P = bm.potential()
    g = bm.as_affine().g(np.zeros(2))
    for x in bm.domain.shrink(0.7).grid(4):
        for uv in (-0.5, 0.4):
            w = np.concatenate([x, [uv]])
            expected = P(x) - P(np.zeros(2)) - float(x @ g[:, 0]) * uv
            assert pot.V(w) == pytest.approx(expected, abs=1e-6)


def test_line_integrals_vanish_at_the_base_point():
    # d = 0 makes every integrand identically 0, which the quadrature integrates to 0
    reg = model_registry()["brayton-moser"]
    x0, u0 = np.array([0.3, -0.2]), np.array([0.1])
    pot = reconstruct_potential(reg.affine.to_general(), reg.metric, reg.sigma,
                                base_point=(x0, u0), n_samples=20)
    rec = reconstruct_K(reg.metric, base_point=x0)
    assert rec(x0) == 0.0 and pot.V(np.concatenate([x0, u0])) == 0.0
    assert np.array_equal(rec.grad(x0), np.zeros(2))


def test_line_integrals_make_one_row_call_per_quadrature_pass(monkeypatch):
    reg = model_registry()["brayton-moser"]
    pot = reconstruct_potential(reg.affine.to_general(), reg.metric, reg.sigma,
                                base_point=(np.zeros(2), np.zeros(1)), n_samples=20)
    rec = reconstruct_K(reg.metric, base_point=np.zeros(2))
    calls = {"passes": 0, "F_rows": 0, "H_rows": 0, "rows": 0}
    integrate = reciprocity.integrate_segment

    def counting(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    # a pass is one call of the node function that integrate_segment is given
    monkeypatch.setattr(reciprocity, "integrate_segment",
                        lambda f, *args, **kw: integrate(counting("passes", f), *args, **kw))
    for owner, name in ((NonlinearSystem, "F_rows"), (NonlinearSystem, "H_rows"),
                        (MetricField, "rows")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for w in BoxDomain.product(reg.affine.domain, reg.u_box).sample(4, seed=1):
        pot.V(w)
    # each smooth line integral converges in its first pass
    assert calls["F_rows"] == calls["H_rows"] == calls["rows"] == calls["passes"] == 4
    calls.update(passes=0, rows=0)
    for x in reg.affine.domain.sample(4, seed=2):
        rec(x), rec.grad(x)
    assert calls["passes"] == 8 and calls["rows"] == calls["passes"]


@st.composite
def brayton_moser_models(draw):
    """A BraytonMoserModel with one or two inductors and capacitors and random parameters."""
    nL, nC = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def vec(n, lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    return BraytonMoserModel(L=vec(nL, 0.2, 3.0), C=vec(nC, 0.2, 3.0),
                             lam=vec(nL * nC, -1.0, 1.0).reshape(nL, nC),
                             R=vec(nL, 0.1, 2.0), Gc=vec(nC, 0.1, 2.0),
                             quartic=vec(nL, 0.0, 1.0),
                             co_content_sign=draw(st.sampled_from([1.0, -1.0])))


@settings(max_examples=50)
@given(brayton_moser_models())
def test_reconstructed_potential_is_the_mixed_potential(bm):
    pot = reconstruct_potential(bm.as_affine().to_general(), bm.metric_field(), bm.sigma(),
                                base_point=(np.zeros(bm.n), np.zeros(bm.m)), n_samples=20)
    P = bm.potential()
    for x in bm.domain.shrink(0.7).sample(6, seed=bm.n):
        # criterion 7's tolerance on the potential
        assert abs(pot.V(np.concatenate([x, np.zeros(bm.m)])) - (P(x) - P(np.zeros(bm.n)))) <= 1e-4


def test_reconstruct_potential_rejects_non_reciprocal():
    box = BoxDomain.cube(1, halfwidth=1.5)
    sys = NonlinearSystem(
        1, 1,
        F=lambda x, u: np.array([-x[0] + u[0]]),
        H=lambda x, u: np.array([2.0 * x[0]]),
        domain=box,
    )
    with pytest.raises(AssumptionError):
        reconstruct_potential(sys, MetricField.constant([[1.0]], box),
                              SignatureMatrix.identity(1),
                              base_point=(np.zeros(1), np.zeros(1)))
