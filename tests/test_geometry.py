import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recipkit.core import (
    AffineNonlinearSystem,
    AssumptionError,
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    ScalarField,
    SignatureMatrix,
    SingularMatrixError,
    _constant_rows,
    _mv,
    quadratic_field,
)
from recipkit.dynamics import Trajectory, integrate_implicit_midpoint
from recipkit.linear import check_linear_reciprocity
from recipkit.models import model_registry, random_reciprocal_system
from recipkit.reciprocity import check_reciprocity_affine
from recipkit.geometry import (
    _linearization,
    _ltv_recurrence,
    default_probes,
    external_reciprocity_test,
    flatness_check,
    hessian_christoffel,
    levi_civita,
    third_partial_tensor,
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


@pytest.mark.parametrize("n_samples", [5, 30])
def test_flatness_check_stacks_its_points_on_a_batched_field(n_samples):
    calls = []

    def hessian(x):
        calls.append(1)
        return _diag_rows(np.cosh(x))

    box = BoxDomain.cube(2)
    curved = ScalarField(2, lambda x: np.sum(np.cosh(x), axis=-1), box,
                         gradient=np.sinh, hessian=hessian, batched=True)
    assert not flatness_check(curved, n_samples=n_samples)
    # one stacked stencil, 2n Hessian calls, plus one to raise the index
    assert len(calls) == 2 * 2 + 1
    xs = box.shrink(0.9).sample(n_samples)
    assert np.array_equal(third_partial_tensor(curved, xs),
                          [third_partial_tensor(curved, x) for x in xs])


def _diag_rows(d):
    return d[..., :, None] * np.eye(d.shape[-1])


def scalar_affine():
    box = BoxDomain.cube(1, halfwidth=2.0)
    return AffineNonlinearSystem(
        1, 1,
        f=lambda x: -x,
        g=_constant_rows(np.array([[1.0]])),
        h=lambda x: x[..., :1],
        k=_constant_rows(np.array([[0.0]])),
        domain=box,
    )


def midpoints(times):
    return times[:-1] + 0.5 * np.diff(times)


def test_simulate_ltv_scalar_closed_form():
    # x_dot = -x + e^{-t} from x0 has solution (x0 + t) e^{-t}
    times = np.linspace(0.0, 2.0, 2001)
    tm = midpoints(times)
    states, outputs = _ltv_recurrence(np.full((2000, 1, 1), -1.0), np.ones((2000, 1, 1)),
                                      np.ones((2001, 1, 1)), np.array([[0.5]]),
                                      np.exp(-tm)[:, None, None], times)
    exact = (0.5 + times) * np.exp(-times)
    assert np.max(np.abs(states[:, 0, 0] - exact)) < 1e-7
    np.testing.assert_allclose(outputs[:, 0, 0], states[:, 0, 0])


def test_simulate_ltv_matches_stepwise_solve():
    # reference: one solve of (I - h/2 A) x' = (I + h/2 A) x + h B u per step
    rng = np.random.default_rng(3)
    A0, A1 = rng.standard_normal((2, 3, 3))
    B0 = rng.standard_normal((3, 2))
    C0 = rng.standard_normal((2, 3))
    A = lambda t: A0 + np.sin(t) * A1
    u = lambda t: np.array([np.cos(t), t])
    times = np.sort(rng.uniform(0.0, 2.0, 300))
    tm = midpoints(times)
    x = rng.standard_normal(3)
    states, outputs = _ltv_recurrence(
        np.stack([A(t) for t in tm]), np.broadcast_to(B0, (299, 3, 2)),
        np.broadcast_to(C0, (300, 2, 3)), x[:, None], np.stack([u(t) for t in tm])[..., None],
        times)
    states, outputs = states[..., 0], outputs[..., 0]
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
    G = MetricField.constant([[1.0]], sys.domain)
    (A, B, C), (dual_A, dual_B, dual_C) = _linearization(sys, nominal, None, G)
    assert A.shape == B.shape == (10, 1, 1) and C.shape == (11, 1, 1)
    np.testing.assert_allclose(A[:, 0, 0], -1.0, rtol=0, atol=1e-8)
    assert B[:, 0, 0] == pytest.approx(np.ones(10))
    np.testing.assert_allclose(C[:, 0, 0], 1.0, rtol=0, atol=1e-8)
    # a constant metric adds no connection term: the dual is the adjoint
    assert np.array_equal(dual_A, A)
    assert dual_B.shape == (10, 1, 1) and dual_C.shape == (11, 1, 1)


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


def test_external_reciprocity_refuses_an_empty_probe_list():
    bundle, nominal = _bm_case(201)
    Gbad = MetricField.constant(np.array([[1.0, 0.3], [0.3, -1.0]]), bundle.metric.domain)
    with pytest.raises(DimensionMismatchError):
        external_reciprocity_test(bundle.affine, Gbad, nominal, probe_inputs=[],
                                  sigma=bundle.sigma)


def gyrator_affine():
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    box = BoxDomain.cube(2, halfwidth=3.0)
    return AffineNonlinearSystem(
        2, 1,
        f=lambda x: _mv(A, x),
        g=_constant_rows(B),
        h=lambda x: _mv(C, x),
        k=_constant_rows(np.array([[0.0]])),
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


def per_point_scalar_affine():
    # scalar_affine written for one point: on a stack each callable returns one point's shape
    return AffineNonlinearSystem(
        1, 1,
        f=lambda x: np.array([-x[0]]),
        g=lambda x: np.array([[1.0]]),
        h=lambda x: np.array([x[0]]),
        k=lambda x: np.array([[0.0]]),
        domain=BoxDomain.cube(1, halfwidth=2.0),
    )


def per_point_gyrator_affine():
    # gyrator_affine written for one point: on a stack f's and h's matmul fails, g and k
    # return one point's shape
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    return AffineNonlinearSystem(
        2, 1,
        f=lambda x: A @ x,
        g=lambda x: B,
        h=lambda x: C @ x,
        k=lambda x: np.array([[0.0]]),
        domain=BoxDomain.cube(2, halfwidth=3.0),
    )


def _both_checks(sys):
    """check_reciprocity_affine and external_reciprocity_test on sys, each as a thunk."""
    G = MetricField.constant(np.eye(sys.nx), sys.domain)
    times = np.linspace(0.0, 1.0, 11)
    states = np.full((11, sys.nx), 0.5)
    nominal = Trajectory(times, states, np.zeros((11, 1)), states[:, :1])
    return (lambda: check_reciprocity_affine(sys, G, SignatureMatrix.identity(1), n_samples=10),
            lambda: external_reciprocity_test(sys, G, nominal))


@pytest.mark.parametrize("names", ["f", "g", "h", "k", "fghk"])
@pytest.mark.parametrize("fixtures", [(scalar_affine, per_point_scalar_affine),
                                      (gyrator_affine, per_point_gyrator_affine)],
                         ids=["scalar", "gyrator"])
def test_a_per_point_affine_callable_is_a_dimension_mismatch_naming_it(fixtures, names):
    # per-point callables in a stack-native system ("fghk": the per-point fixture itself):
    # both checks name one where its first stack enters, in place of numpy's matmul error
    stacked, per_point = fixtures
    sys = dataclasses.replace(stacked(), **{n: getattr(per_point(), n) for n in names})
    for check in _both_checks(sys):
        with pytest.raises(DimensionMismatchError,
                           match=rf"^[{names}] (has shape .* on a stack|fails on a stack)"):
            check()


@pytest.mark.parametrize("error", [TypeError, IndexError, ValueError])
def test_an_error_an_affine_callable_raises_on_a_stack_names_it(error):
    def fails(x):
        raise error("written for one point")

    sys = dataclasses.replace(scalar_affine(), h=fails)
    for check in _both_checks(sys):
        with pytest.raises(DimensionMismatchError, match=r"^h fails on a stack of shape "
                                                         r"\(\d+, 1\): written for one point$"):
            check()


def test_a_singular_solve_in_an_affine_callable_stays_a_linalg_error():
    # a stack-native f that meets a singular matrix is a numerical failure, not a shape error
    def f(x):
        return np.linalg.solve(np.zeros(np.shape(x) + (1,)), x[..., None])[..., 0]

    sys = dataclasses.replace(scalar_affine(), f=f)
    for check in _both_checks(sys):
        with pytest.raises(np.linalg.LinAlgError):
            check()


def test_match_judges_the_isomorphism_gap():
    # G x_dot = -x + g u with G = I and y = g^T x; a symmetric candidate metric off G
    # leaves the outputs equal and shows only in p = G delta_x
    box = BoxDomain.cube(2)
    sys = AffineNonlinearSystem(2, 1, f=lambda x: -x, g=_constant_rows(np.array([[1.0], [0.0]])),
                                h=lambda x: x[..., :1], k=_constant_rows(np.zeros((1, 1))),
                                domain=box)
    gen = sys.to_general()

    def u(t):
        return np.array([0.3 * np.sin(0.5 * t)])

    times, x = integrate_implicit_midpoint(lambda t, v: gen.F(v, u(t)), np.array([0.2, -0.1]),
                                           (0.0, 2.0), step=1e-2)
    inputs = np.stack([u(t) for t in times])
    nominal = Trajectory(times, x, inputs, gen.H_rows(x, inputs))
    candidate = MetricField.constant(np.array([[1.0, 1e-2], [1e-2, 1.0]]), box)
    rep = external_reciprocity_test(sys, candidate, nominal, tol=1e-6, u_signal=u)
    assert rep.max_output_gap <= 1e-6 and rep.max_state_gap > 1e-3
    assert not rep.match
    rep = external_reciprocity_test(sys, MetricField.constant(np.eye(2), box), nominal,
                                    tol=1e-6, u_signal=u)
    assert rep.match


def test_external_reciprocity_evaluates_metric_once_per_grid_point():
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
    # once per call, whatever the probe count: one Levi-Civita stencil (2 nx + 1
    # metrics) at each of the 2000 midpoints and G(x(t)) on the 2001 grid points
    assert len(evals) == 2000 * 5 + 2001


def _bm_case(n_times=2001):
    bundle = model_registry()["brayton-moser"]
    times = np.linspace(0.0, 2.0, n_times)
    states = np.column_stack([0.3 * np.cos(times), -0.2 * np.sin(times)])
    nominal = Trajectory(times, states, np.zeros((n_times, 1)), states[:, :1])
    return bundle, nominal


def test_external_reciprocity_constant_metric_skips_the_connection_term():
    bundle, nominal = _bm_case()
    metric = bundle.metric
    calls = []

    def counting(X):
        calls.append(len(X))
        return metric.eval(X)

    def never(x):
        raise AssertionError("xdot is evaluated although the connection term is 0")

    G = MetricField(metric.dim, counting, metric.domain, batched=True)
    sys = dataclasses.replace(bundle.affine, f=never)  # f enters only xdot = F(x, u)
    rep = external_reciprocity_test(sys, G, nominal, delta_x0=[0.1, -0.05], sigma=bundle.sigma)
    assert rep.probes == 2 and rep.max_output_gap == 0.0
    # 2 + 2 dim rows calls: the metric check at the 2000 midpoints, the stencil around
    # them, whose exact zeros leave the connection term out, and G(x(t)) on the 2001
    # grid points
    assert calls == [2000] * (1 + 2 * metric.dim) + [2001]


@pytest.mark.parametrize("n_probes", [1, 3])
def test_external_reciprocity_linearizes_once_per_call(n_probes):
    bundle, nominal = _bm_case()
    sys = bundle.affine
    calls = {"df_dx": 0, "dh_dx": 0}

    def counted(name, fn):
        def evaluate(x):
            calls[name] += 1
            return fn(x)
        return evaluate

    sys = dataclasses.replace(sys, df_dx=counted("df_dx", sys.df_dx),
                              dh_dx=counted("dh_dx", sys.dh_dx))
    probes = default_probes(1, (0.0, 2.0))[:2] + [lambda t: np.array([np.cos(t)])]
    rep = external_reciprocity_test(sys, bundle.metric, nominal, probe_inputs=probes[:n_probes],
                                    delta_x0=[0.1, -0.05], sigma=bundle.sigma)
    assert rep.probes == n_probes
    # one row call per time array: jac_f at the midpoints; jac_h at the midpoints (dual B)
    # and at the grid times (C)
    assert calls == {"df_dx": 1, "dh_dx": 2}


def test_dual_input_and_output_matrices_are_the_transposed_jacobians():
    bundle, nominal = _bm_case(201)

    def G_of(x):
        return np.diag([1.0 + x[1] ** 2, -1.0 - 0.5 * x[0] ** 2])

    primal, dual = _linearization(bundle.affine, nominal, None,
                                  MetricField(2, G_of, bundle.metric.domain))
    gen, x, u = bundle.affine.to_general(), nominal.states, nominal.inputs
    xm, um = 0.5 * (x[1:] + x[:-1]), 0.5 * (u[1:] + u[:-1])
    # the dual state matrix A^T + 2 Gamma.xdot, against Gamma from the closed-form partials
    J = np.zeros((len(xm), 2, 2, 2))  # dG_ab/dx_c
    J[:, 0, 0, 1], J[:, 1, 1, 0] = 2.0 * xm[:, 1], -xm[:, 0]
    lower = 0.5 * (J + J.transpose(0, 1, 3, 2) - J.transpose(0, 3, 1, 2))
    gam = np.linalg.inv([G_of(v) for v in xm]) @ lower.reshape(-1, 2, 4)
    want = primal[0].transpose(0, 2, 1) + 2.0 * np.einsum(
        "nabc,nc->nba", gam.reshape(-1, 2, 2, 2), gen.F_rows(xm, um))
    np.testing.assert_allclose(dual[0], want, rtol=0, atol=1e-8)
    assert not np.allclose(dual[0], primal[0].transpose(0, 2, 1))
    # dual B = C^T at the midpoints and dual C = B^T on the grid, each against the
    # Jacobian at its own points
    assert np.array_equal(primal[1], gen.jac_F_u(xm, um))
    assert np.array_equal(primal[2], gen.jac_H_x(x, u))
    assert np.array_equal(dual[1], gen.jac_H_x(xm, um).transpose(0, 2, 1))
    assert np.array_equal(dual[2], gen.jac_F_u(x, u).transpose(0, 2, 1))


def test_linearization_takes_the_integrators_own_midpoints():
    bundle = model_registry()["brayton-moser"]
    gen = bundle.affine.to_general()

    def u(t):
        return np.array([0.2 * np.sin(1.5 * t)])

    times, x = integrate_implicit_midpoint(lambda t, v: gen.F(v, u(t)), np.array([-0.4, 0.3]),
                                           (0.0, 1.0), step=1e-2)
    inputs = np.stack([u(t) for t in times])
    nominal = Trajectory(times, x, inputs, gen.H_rows(x, inputs))
    (A, _, _), _ = _linearization(bundle.affine, nominal, u, bundle.metric)
    um = np.stack([u(t) for t in midpoints(times)])
    # the points the integrator evaluated its field at, not a fit through the grid
    assert np.array_equal(A, gen.jac_F_x(0.5 * (x[1:] + x[:-1]), um))


def test_variational_test_calls_u_signal_at_the_midpoints_only():
    bundle, nominal = _bm_case(201)
    times = []

    def u(t):
        times.append(t)
        return np.zeros(1)

    external_reciprocity_test(bundle.affine, bundle.metric, nominal, u_signal=u,
                              sigma=bundle.sigma)
    # u on the grid is the nominal's own input rows
    assert np.array_equal(times, midpoints(nominal.times))


def test_simulate_ltv_probe_columns_match_single_probes():
    rng = np.random.default_rng(5)
    A0, A1 = rng.standard_normal((2, 3, 3))
    B0 = rng.standard_normal((3, 2))
    C0 = rng.standard_normal((2, 3))
    times = np.sort(rng.uniform(0.0, 2.0, 300))
    tm = midpoints(times)
    A = A0 + np.sin(tm)[:, None, None] * A1
    B, C = np.broadcast_to(B0, (299, 3, 2)), np.broadcast_to(C0, (300, 2, 3))
    X0 = rng.standard_normal((3, 4))
    W = rng.standard_normal((2, 4))
    U = np.cos(tm[:, None, None] * W)
    states, outputs = _ltv_recurrence(A, B, C, X0, U, times)
    assert states.shape == (300, 3, 4) and outputs.shape == (300, 2, 4)
    for j in range(4):
        xs, ys = _ltv_recurrence(A, B, C, X0[:, j:j + 1], U[..., j:j + 1], times)
        assert xs.shape == (300, 3, 1) and ys.shape == (300, 2, 1)
        np.testing.assert_allclose(states[:, :, j], xs[..., 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(outputs[:, :, j], ys[..., 0], rtol=0, atol=1e-12)


def _first_x(exc):
    return np.array([float(v) for v in re.search(r"x=\[([^\]]*)\]", str(exc)).group(1).split()])


@pytest.mark.parametrize("M, error", [
    (np.array([[1.0, 0.0], [0.0, 0.0]]), SingularMatrixError),
    (np.array([[1.0, 0.5], [0.0, -1.0]]), AssumptionError),
])
def test_bad_constant_metric_raises_on_the_closed_form_path(M, error):
    bundle, nominal = _bm_case(201)
    G = MetricField.constant(M, bundle.metric.domain)
    x = np.array([0.2, -0.1])
    with pytest.raises(error) as lc:
        levi_civita(G, x)
    np.testing.assert_array_equal(_first_x(lc.value), x)
    with pytest.raises(error) as ert:
        external_reciprocity_test(bundle.affine, G, nominal, sigma=bundle.sigma)
    # the first midpoint, the average of the first two states, is the first failing point
    np.testing.assert_allclose(_first_x(ert.value),
                               [0.15 * (1.0 + np.cos(0.01)), -0.1 * np.sin(0.01)],
                               rtol=0, atol=1e-8)
    if error is AssumptionError:
        assert lc.value.name == ert.value.name == "metric-symmetry"


def test_metric_check_names_the_first_failing_midpoint():
    # symmetric for x0 < 0.25, so the check first fails at the first midpoint past it
    bundle, _ = _bm_case()
    times = np.linspace(0.0, 1.0, 101)
    states = np.column_stack([0.5 * times, np.zeros(101)])
    nominal = Trajectory(times, states, np.zeros((101, 1)), states[:, :1])
    G = MetricField(2, lambda x: np.array([[1.0, float(x[0] > 0.25)], [0.0, -1.0]]),
                    bundle.metric.domain)
    with pytest.raises(AssumptionError) as exc:
        external_reciprocity_test(bundle.affine, G, nominal, sigma=bundle.sigma)
    assert _first_x(exc.value)[0] == pytest.approx(0.5 * 0.505, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(1, 2))
def test_random_reciprocal_systems_pass_both_duality_tests(seed, n, m):
    rng = np.random.default_rng(seed)
    sigma = SignatureMatrix(rng.choice([-1, 1], size=m))
    lin, G, sigma = random_reciprocal_system(rng, n, m, sigma=sigma)
    assert check_linear_reciprocity(lin, G, sigma).reciprocal
    box = BoxDomain.cube(n, halfwidth=5.0)
    sys = AffineNonlinearSystem(
        n, m, f=lambda x: _mv(lin.A, x), g=_constant_rows(lin.B), h=lambda x: _mv(lin.C, x),
        k=_constant_rows(lin.D), domain=box, df_dx=_constant_rows(lin.A),
        dg_dx=_constant_rows(np.zeros((m, n, n))), dh_dx=_constant_rows(lin.C))
    times = np.linspace(0.0, 2.0, 201)
    nominal = Trajectory(times, np.zeros((201, n)), np.zeros((201, m)), np.zeros((201, m)))
    rep = external_reciprocity_test(sys, MetricField.constant(G, box), nominal,
                                    delta_x0=rng.standard_normal(n), sigma=sigma)
    assert rep.probes == 2 * m
    assert rep.max_output_gap <= 1e-8 and rep.max_state_gap <= 1e-8


def test_non_finite_response_fails_the_match():
    bundle, nominal = _bm_case(201)
    rep = external_reciprocity_test(bundle.affine, bundle.metric, nominal,
                                    probe_inputs=[lambda t: np.array([np.nan])],
                                    sigma=bundle.sigma)
    assert not rep.match
    assert np.isnan(rep.max_output_gap) and np.isnan(rep.max_state_gap)


@pytest.mark.parametrize("probe, u_signal", [
    (lambda t: np.array([1.0, 0.0]), None),  # a probe of the wrong length
    (lambda t: np.array([[1.0]]), None),  # a probe that is not a vector
    (lambda t: [1.0] if t < 1.0 else [1.0, 2.0], None),  # ragged probes
    (lambda t: 1.0, lambda t: np.zeros(2)),  # an input signal of the wrong length
])
def test_stacked_probes_and_inputs_check_their_shape(probe, u_signal):
    bundle, nominal = _bm_case(201)
    with pytest.raises(DimensionMismatchError):
        external_reciprocity_test(bundle.affine, bundle.metric, nominal, probe_inputs=[probe],
                                  u_signal=u_signal, sigma=bundle.sigma)


def test_scalar_probes_and_inputs_are_one_channel():
    # with one input channel, scalars stand for length-1 vectors, as in as_vector
    bundle, nominal = _bm_case(201)
    runs = [external_reciprocity_test(bundle.affine, bundle.metric, nominal,
                                      probe_inputs=[lambda t, w=wrap: w(np.sin(t))],
                                      u_signal=lambda t, w=wrap: w(0.0), sigma=bundle.sigma)
            for wrap in (float, lambda v: np.array([v]))]
    assert runs[0].max_output_gap == runs[1].max_output_gap
    assert runs[0].max_state_gap == runs[1].max_state_gap
