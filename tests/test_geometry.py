import numpy as np
import pytest

from recipkit.core import (
    AffineNonlinearSystem,
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    ScalarField,
    quadratic_field,
)
from recipkit.dynamics import Trajectory, integrate_implicit_midpoint
from recipkit.geometry import (
    TimeVaryingLinearSystem,
    default_probes,
    external_reciprocity_test,
    flatness_check,
    hessian_christoffel,
    levi_civita,
    simulate_ltv,
    third_partial_tensor,
    variational_system,
)


def exp_field_1d():
    # K = e^x has K'' = e^x and Christoffel coefficient exactly 1/2
    box = BoxDomain.cube(1, halfwidth=1.0)
    return ScalarField(1, lambda x: float(np.exp(x[0])), box,
                       gradient=lambda x: np.exp(x),
                       hessian=lambda x: np.array([[np.exp(x[0])]]))


def test_levi_civita_constant_metric_vanishes():
    G = MetricField.constant(np.diag([2.0, -1.0]), BoxDomain.cube(2))
    gam = levi_civita(G, np.array([0.3, -0.4]))
    np.testing.assert_allclose(gam, np.zeros((2, 2, 2)), atol=1e-12)


def test_christoffel_exponential_metric_oracle():
    K = exp_field_1d()
    G = MetricField.from_hessian(K)
    for xv in (-0.5, 0.0, 0.7):
        gam = levi_civita(G, np.array([xv]))
        assert gam[0, 0, 0] == pytest.approx(0.5, abs=1e-6)
        gam2 = hessian_christoffel(K, np.array([xv]))
        assert gam2[0, 0, 0] == pytest.approx(0.5, abs=1e-6)


def test_third_partial_tensor():
    box = BoxDomain.cube(2)
    # K = x^3/6 + x y^2 has constant third partials
    K = ScalarField(
        2,
        lambda x: x[0] ** 3 / 6.0 + x[0] * x[1] ** 2,
        box,
        gradient=lambda x: np.array([0.5 * x[0] ** 2 + x[1] ** 2, 2.0 * x[0] * x[1]]),
        hessian=lambda x: np.array([[x[0], 2.0 * x[1]], [2.0 * x[1], 2.0 * x[0]]]),
    )
    T = third_partial_tensor(K, np.array([0.2, -0.3]))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[0, 1, 1] = expected[1, 0, 1] = expected[1, 1, 0] = 2.0
    np.testing.assert_allclose(T, expected, atol=1e-7)
    # quadratic fields have exactly zero third partials (constant Hessian)
    Q = quadratic_field(np.array([[2.0, 0.5], [0.5, 1.0]]), box)
    np.testing.assert_array_equal(third_partial_tensor(Q, np.zeros(2)),
                                  np.zeros((2, 2, 2)))


def test_cross_oracle_levi_civita_vs_hessian():
    rng = np.random.default_rng(5)
    box = BoxDomain.cube(3, halfwidth=0.8)
    # convex polynomial generating function with known-symmetric metric
    W = rng.normal(size=(3, 3))
    Q = W @ W.T + 3.0 * np.eye(3)
    c = rng.uniform(0.1, 0.4, size=3)

    def value(x):
        return 0.5 * float(x @ Q @ x) + float(c @ x ** 4) / 12.0

    def gradient(x):
        return Q @ x + c * x ** 3 / 3.0

    def hessian(x):
        return Q + np.diag(c * x ** 2)

    K = ScalarField(3, value, box, gradient=gradient, hessian=hessian)
    G = MetricField.from_hessian(K)
    for x in box.shrink(0.8).sample(5, seed=1):
        a = levi_civita(G, x)
        b = hessian_christoffel(K, x)
        np.testing.assert_allclose(a, b, atol=1e-7)


def test_flatness_check():
    box = BoxDomain.cube(2)
    flat = quadratic_field(np.array([[2.0, 0.5], [0.5, 1.0]]), box,
                           lin=np.array([0.3, -0.1]))
    assert flatness_check(flat)
    curved = ScalarField(2, lambda x: float(np.sum(np.cosh(x))), box,
                         gradient=lambda x: np.sinh(x),
                         hessian=lambda x: np.diag(np.cosh(x)))
    assert not flatness_check(curved)


def test_flatness_check_takes_one_stencil_per_point():
    calls = []

    def hessian(x):
        calls.append(1)
        return np.diag(np.cosh(x))

    box = BoxDomain.cube(2)
    curved = ScalarField(2, lambda x: float(np.sum(np.cosh(x))), box,
                         gradient=lambda x: np.sinh(x), hessian=hessian)
    assert not flatness_check(curved, n_samples=30)
    # 2n Hessians for the third-partial stencil plus one to raise its index
    assert len(calls) == 30 * (2 * 2 + 1)


def scalar_affine():
    box = BoxDomain.cube(1, halfwidth=2.0)
    return AffineNonlinearSystem(
        1, 1,
        f=lambda x: np.array([-x[0]]),
        g=lambda x: np.array([[1.0]]),
        h=lambda x: np.array([x[0]]),
        k=lambda x: np.array([[0.0]]),
        domain=box,
    )


def test_simulate_ltv_scalar_closed_form():
    # x_dot = -x + e^{-t} from x0 has solution (x0 + t) e^{-t}
    ltv = TimeVaryingLinearSystem(
        1, 1,
        A=lambda t: np.full((len(t), 1, 1), -1.0),
        B=lambda t: np.ones((len(t), 1, 1)),
        C=lambda t: np.ones((len(t), 1, 1)),
    )
    times = np.linspace(0.0, 2.0, 2001)
    states, outputs = simulate_ltv(ltv, [0.5], lambda t: np.array([np.exp(-t)]), times)
    exact = (0.5 + times) * np.exp(-times)
    assert np.max(np.abs(states[:, 0] - exact)) < 1e-7
    np.testing.assert_allclose(outputs[:, 0], states[:, 0])


def test_simulate_ltv_assembles_each_matrix_once():
    calls = {"A": [], "B": [], "C": []}

    def counted(name, value):
        def evaluate(ts):
            calls[name].append(len(ts))
            return np.full((len(ts), 1, 1), value)
        return evaluate

    ltv = TimeVaryingLinearSystem(1, 1, A=counted("A", -1.0), B=counted("B", 1.0),
                                  C=counted("C", 1.0))
    times = np.linspace(0.0, 2.0, 201)
    simulate_ltv(ltv, [0.5], lambda t: np.array([np.exp(-t)]), times)
    # A and B on the 200 step midpoints, C on the 201 grid times
    assert calls == {"A": [200], "B": [200], "C": [201]}


def test_simulate_ltv_matches_stepwise_solve():
    # reference: one solve of (I - h/2 A) x' = (I + h/2 A) x + h B u per step
    rng = np.random.default_rng(3)
    A0, A1 = rng.standard_normal((2, 3, 3))
    B0 = rng.standard_normal((3, 2))
    C0 = rng.standard_normal((2, 3))
    A = lambda t: A0 + np.sin(t) * A1
    u = lambda t: np.array([np.cos(t), t])
    ltv = TimeVaryingLinearSystem(
        3, 2, A=lambda ts: np.stack([A(t) for t in ts]),
        B=lambda ts: np.broadcast_to(B0, (len(ts), 3, 2)),
        C=lambda ts: np.broadcast_to(C0, (len(ts), 2, 3)))
    times = np.sort(rng.uniform(0.0, 2.0, 300))
    x = rng.standard_normal(3)
    states, outputs = simulate_ltv(ltv, x, u, times)
    ref = [x]
    for t0, t1 in zip(times[:-1], times[1:]):
        h, tm = t1 - t0, 0.5 * (t0 + t1)
        ref.append(np.linalg.solve(np.eye(3) - 0.5 * h * A(tm),
                                   (np.eye(3) + 0.5 * h * A(tm)) @ ref[-1] + h * B0 @ u(tm)))
    ref = np.stack(ref)
    # the two orders of operations differ by rounding, amplified over 300 steps
    scale = 1.0 + np.max(np.abs(ref))
    np.testing.assert_allclose(states, ref, rtol=0, atol=1e3 * np.finfo(float).eps * scale)
    np.testing.assert_allclose(outputs, states @ C0.T, rtol=1e-13, atol=1e-13)


def test_variational_system_of_linear_system_is_itself():
    sys = scalar_affine()
    times = np.linspace(0.0, 1.0, 11)
    states = 0.5 * np.exp(-times)[:, None]
    nominal = Trajectory(times, states, np.zeros((11, 1)), states)
    var = variational_system(sys, nominal)
    t = np.array([0.3])
    assert var.A(t)[0, 0, 0] == pytest.approx(-1.0, abs=1e-8)
    assert var.B(t)[0, 0, 0] == pytest.approx(1.0)
    assert var.C(t)[0, 0, 0] == pytest.approx(1.0, abs=1e-8)


def test_default_probes():
    probes = default_probes(2, (0.0, 4.0))
    assert len(probes) == 4
    for p in probes:
        v = p(1.0)
        assert v.shape == (2,)
    # pulses are one-hot per channel
    assert probes[0](1.0)[1] == 0.0
    assert probes[2](1.0)[0] == 0.0


def test_external_reciprocity_scalar_linear():
    sys = scalar_affine()
    G = MetricField.constant([[1.0]], sys.domain)
    times = np.linspace(0.0, 2.0, 201)
    states = 0.5 * np.exp(-times)[:, None]
    nominal = Trajectory(times, states, np.zeros((201, 1)), states)
    rep = external_reciprocity_test(sys, G, nominal, delta_x0=[0.3])
    assert rep.match
    assert rep.max_output_gap < 1e-8
    assert rep.max_state_gap < 1e-8
    assert rep.probes == 2


def test_external_reciprocity_rejects_single_time_nominal():
    sys = scalar_affine()
    nominal = Trajectory(np.array([0.0]), np.array([[0.5]]), np.zeros((1, 1)), np.array([[0.5]]))
    with pytest.raises(DimensionMismatchError):
        external_reciprocity_test(sys, MetricField.constant([[1.0]], sys.domain), nominal)


def gyrator_affine():
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    box = BoxDomain.cube(2, halfwidth=3.0)
    return AffineNonlinearSystem(
        2, 1,
        f=lambda x: A @ x,
        g=lambda x: B,
        h=lambda x: C @ x,
        k=lambda x: np.array([[0.0]]),
        domain=box,
    )


def test_external_reciprocity_indefinite_metric():
    sys = gyrator_affine()
    G = MetricField.constant(np.diag([1.0, -1.0]), sys.domain)
    traj = integrate_implicit_midpoint(
        lambda t, x: sys.f(x), np.array([1.0, 0.5]), (0.0, 2.0), step=1e-2)
    times, states = traj
    nominal = Trajectory(times, states, np.zeros((len(times), 1)),
                         states[:, :1])
    rep = external_reciprocity_test(sys, G, nominal, delta_x0=[0.2, -0.1])
    assert rep.match
    assert rep.max_state_gap < 1e-6


def test_external_reciprocity_detects_wrong_metric():
    sys = gyrator_affine()
    Gbad = MetricField.constant(np.array([[1.0, 0.3], [0.3, -1.0]]), sys.domain)
    traj = integrate_implicit_midpoint(
        lambda t, x: sys.f(x), np.array([1.0, 0.5]), (0.0, 2.0), step=1e-2)
    times, states = traj
    nominal = Trajectory(times, states, np.zeros((len(times), 1)),
                         states[:, :1])
    rep = external_reciprocity_test(sys, Gbad, nominal, delta_x0=[0.2, -0.1])
    assert not rep.match
    assert max(rep.max_output_gap, rep.max_state_gap) > 1e-3


def test_external_reciprocity_evaluates_metric_once_per_grid_point():
    from recipkit.models import model_registry

    bundle = model_registry()["brayton-moser"]
    sys, metric = bundle.affine, bundle.metric
    evals = []

    def counting(x):
        evals.append(1)
        return metric.eval(x)

    G = MetricField(metric.dim, counting, metric.domain)
    times = np.linspace(0.0, 2.0, 2001)
    states = np.column_stack([0.3 * np.cos(times), -0.2 * np.sin(times)])
    nominal = Trajectory(times, states, np.zeros((2001, 1)), states[:, :1])
    rep = external_reciprocity_test(sys, G, nominal, delta_x0=[0.1, -0.05], sigma=bundle.sigma)
    assert rep.probes == 2
    # per probe: one Levi-Civita stencil (2 nx + 1 metrics) at each of the 2000
    # midpoints; once per call: G(x(t)) on the 2001 grid points, G(x(0)) among them
    assert len(evals) == 2 * 2000 * 5 + 2001
