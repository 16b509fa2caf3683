import numpy as np
import pytest

from recipkit.core import (
    AssumptionError,
    ConvergenceError,
    DimensionMismatchError,
    SignatureMatrix,
    SingularMatrixError,
    symmetry_residual,
)
from recipkit.linear import (
    LinearPseudoGradientForm,
    LinearSystem,
    check_linear_reciprocity,
    compatible_storage_fixed_point,
    impulse_response_symmetry,
    kernel_invariance_check,
    lmi_residual,
    PastInput,
    recover_metric_hankel,
    spd_geometric_mean,
    spd_sqrt,
    split_port_hamiltonian_form,
    to_pseudo_gradient,
)
from recipkit.models import random_reciprocal_system, well_conditioned_transform


def gyrator_fixture():
    # planar system reciprocal for the indefinite metric diag(1, -1)
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    D = np.array([[0.0]])
    G = np.diag([1.0, -1.0])
    return LinearSystem(A, B, C, D), G, SignatureMatrix.identity(1)


def test_linear_system_validation():
    with pytest.raises(DimensionMismatchError):
        LinearSystem(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
    with pytest.raises(DimensionMismatchError):
        LinearSystem(np.eye(2), np.ones((2, 1)), np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        LinearSystem(np.array([[np.nan]]), [[1.0]], [[1.0]], [[0.0]])


def test_check_linear_reciprocity_rc_cell():
    sys = LinearSystem([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    chk = check_linear_reciprocity(sys, [[1.0]], SignatureMatrix.identity(1))
    assert chk.reciprocal
    assert chk.residual == 0.0


def test_check_linear_reciprocity_indefinite_fixture():
    sys, G, sigma = gyrator_fixture()
    chk = check_linear_reciprocity(sys, G, sigma)
    assert chk.reciprocal
    # breaking one entry of A is detected
    A2 = sys.A.copy()
    A2[0, 1] += 0.1
    chk2 = check_linear_reciprocity(LinearSystem(A2, sys.B, sys.C, sys.D), G, sigma)
    assert not chk2.reciprocal
    assert chk2.residual == pytest.approx(0.1, abs=1e-14)


def test_to_pseudo_gradient_round_trip():
    sys, G, sigma = gyrator_fixture()
    pg = to_pseudo_gradient(sys, G, sigma)
    np.testing.assert_allclose(pg.P, [[1.0, 2.0], [2.0, -1.0]])
    back = pg.to_linear_system()
    np.testing.assert_allclose(back.A, sys.A, atol=1e-14)
    np.testing.assert_allclose(back.B, sys.B, atol=1e-14)
    np.testing.assert_allclose(back.C, sys.C, atol=1e-14)
    np.testing.assert_allclose(back.D, sys.D, atol=1e-14)


def test_to_pseudo_gradient_rejects_non_reciprocal():
    sys = LinearSystem([[-1.0]], [[1.0]], [[2.0]], [[0.0]])
    with pytest.raises(AssumptionError):
        to_pseudo_gradient(sys, [[1.0]], SignatureMatrix.identity(1))


def test_pseudo_gradient_form_validation():
    sig = SignatureMatrix.identity(1)
    with pytest.raises(DimensionMismatchError):
        LinearPseudoGradientForm(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
                                 np.array([[1.0, 0.0]]), np.array([[0.0]]), sig)


def test_impulse_response_symmetry_random_reciprocal():
    rng = np.random.default_rng(3)
    times = np.linspace(0.1, 4.0, 17)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        signs = rng.choice([-1, 1], size=m)
        sys, G, sig = random_reciprocal_system(rng, n, m, sigma=SignatureMatrix(signs))
        chk = impulse_response_symmetry(sys, sig, times)
        assert chk.symmetric
        assert chk.max_residual < 1e-10


def test_impulse_response_symmetry_detects_asymmetry():
    rng = np.random.default_rng(9)
    sys, G, sig = random_reciprocal_system(rng, 3, 2, sigma=SignatureMatrix(np.array([1, -1])))
    B2 = sys.B.copy()
    B2[0, 0] += 5e-2
    chk = impulse_response_symmetry(LinearSystem(sys.A, B2, sys.C, sys.D), sig,
                                    np.linspace(0.05, 5.0, 50))
    assert not chk.symmetric
    assert chk.max_residual > 1e-3


def test_impulse_response_symmetry_stack_equals_the_per_time_loop():
    # one stacked expm and matmul over the times gives, bit for bit, the residual of one
    # expm and one symmetry_residual per time node, D included
    from scipy.linalg import expm

    rng = np.random.default_rng(21)
    times = np.linspace(0.05, 6.0, 40)
    for i in range(24):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        sys, _, sig = random_reciprocal_system(
            rng, n, m, sigma=SignatureMatrix(rng.choice([-1, 1], size=m)))
        if i % 2:  # an asymmetric perturbation, so the residual is not rounding alone
            sys = LinearSystem(sys.A, sys.B + 1e-3 * rng.standard_normal((n, m)), sys.C, sys.D)
        loop = max(symmetry_residual(sig.conjugate_rows(W))
                   for W in [sys.D] + [sys.C @ expm(sys.A * t) @ sys.B for t in times])
        assert impulse_response_symmetry(sys, sig, times).max_residual == loop


def test_recover_metric_hankel_scalar_oracle():
    # A = -1, B = C = 1 with past input e^s: x(0) = 1/2, pairing = 1/4, G = 1
    sys = LinearSystem([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    sig = SignatureMatrix.identity(1)
    past = [PastInput(lambda s: np.array([np.exp(s)]), duration=14.0)]
    G = recover_metric_hankel(sys, sig, horizon=14.0, past_inputs=past)
    assert G[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_recover_metric_hankel_one_expm_per_quadrature_pass(monkeypatch):
    import scipy.linalg

    from recipkit import core
    from recipkit.cli import default_past_inputs
    from recipkit.models import model_registry

    expm_calls = []
    real_expm, real_panels = scipy.linalg.expm, core.gauss_legendre_panels
    passes = set()

    def counting_expm(A, *args, **kwargs):
        expm_calls.append(np.shape(A))
        return real_expm(A, *args, **kwargs)

    def counting_panels(f, a, b, panels):
        passes.add((a, b, panels))
        return real_panels(f, a, b, panels)

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    monkeypatch.setattr(core, "gauss_legendre_panels", counting_panels)
    bundle = model_registry()["gyrator"]
    G = recover_metric_hankel(bundle.linear, bundle.sigma, horizon=30.0,
                              past_inputs=default_past_inputs(bundle.linear,
                                                              np.random.default_rng(0)))
    np.testing.assert_allclose(G, bundle.G_lin, atol=1e-8)
    # reach states and pairings share each pass's stacked propagator
    assert 0 < len(expm_calls) <= len(passes)


def test_recover_metric_hankel_random_single_input_accuracy():
    # single-input n = 4, 5 systems: the regime where polarization lost digits
    from recipkit.cli import default_past_inputs

    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(40):
        sys, G, sig = random_reciprocal_system(rng, 4 + i % 2, 1)
        G_hat = recover_metric_hankel(sys, sig, horizon=30.0,
                                      past_inputs=default_past_inputs(sys, rng))
        worst = max(worst, float(np.linalg.norm(G_hat - G) / np.linalg.norm(G)))
    assert worst <= 1e-8


def test_recover_metric_hankel_one_quadrature_per_recovery(monkeypatch):
    import recipkit.linear
    from recipkit.cli import default_past_inputs

    calls = []
    real = recipkit.linear.integrate_segment

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(recipkit.linear, "integrate_segment", counting)
    rng = np.random.default_rng(8)
    for n, m in ((2, 1), (3, 2), (5, 1)):
        sys, G, sig = random_reciprocal_system(rng, n, m)
        past = default_past_inputs(sys, rng)
        calls.clear()
        G_hat = recover_metric_hankel(sys, sig, horizon=30.0, past_inputs=past)
        np.testing.assert_allclose(G_hat, G, atol=1e-8 * np.max(np.abs(G)))
        assert calls == [(0.0, 30.0)]


def test_recover_metric_hankel_horizon_is_experiment_length():
    # inputs and pairings are cut at the same L, so every horizon is exact
    from recipkit.cli import default_past_inputs

    rng = np.random.default_rng(1)
    for n, m in ((3, 2), (4, 1), (2, 1)):
        sys, G, sig = random_reciprocal_system(rng, n, m)
        past = default_past_inputs(sys, rng)
        for horizon in (5.0, 10.0, 30.0, 200.0):
            G_hat = recover_metric_hankel(sys, sig, horizon=horizon, past_inputs=past)
            assert np.linalg.norm(G_hat - G) / np.linalg.norm(G) <= 1e-10


@pytest.mark.parametrize("horizon, sigma_size",
                         [(0.0, 1), (-1.0, 1), (float("nan"), 1), (5.0, 2)])
def test_recover_metric_hankel_rejects_bad_input(horizon, sigma_size):
    sys = LinearSystem([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(DimensionMismatchError):
        recover_metric_hankel(sys, SignatureMatrix.identity(sigma_size), horizon=horizon,
                              past_inputs=[PastInput(lambda s: np.array([np.exp(s)]), 5.0)])


def test_recover_metric_hankel_requires_hurwitz():
    sys = LinearSystem([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ConvergenceError):
        recover_metric_hankel(sys, SignatureMatrix.identity(1), horizon=5.0,
                              past_inputs=[PastInput(lambda s: np.array([np.exp(s)]), 5.0)])


def test_recover_metric_hankel_checks_the_past_input_values():
    # a scalar signal is the length-1 vector of a single-input system; a signal of the
    # wrong length is refused
    sys = LinearSystem([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    sig = SignatureMatrix.identity(1)

    def recover(signal):
        return recover_metric_hankel(sys, sig, horizon=14.0,
                                     past_inputs=[PastInput(signal, duration=14.0)])

    np.testing.assert_array_equal(recover(lambda s: np.exp(s)),
                                  recover(lambda s: np.array([np.exp(s)])))
    with pytest.raises(DimensionMismatchError, match="expected shape"):
        recover(lambda s: np.array([np.exp(s), 0.0]))
    with pytest.raises(DimensionMismatchError, match="expected shape"):
        recover(lambda s: np.array([[np.exp(s)]]))
    with pytest.raises(DimensionMismatchError, match="expected entries of length 1"):
        recover(lambda s: np.exp(s) if s > -1.0 else np.array([np.exp(s), 0.0]))


def test_recover_metric_hankel_needs_enough_inputs():
    sys = LinearSystem([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]],
                       [[1.0, 1.0]], [[0.0]])
    with pytest.raises(DimensionMismatchError):
        recover_metric_hankel(sys, SignatureMatrix.identity(1), horizon=5.0,
                              past_inputs=[PastInput(lambda s: np.array([np.exp(s)]), 5.0)])


def test_lmi_residual_passive_scalar():
    sys = LinearSystem([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    rep = lmi_residual(sys, [[1.0]])
    np.testing.assert_allclose(rep.Pi, [[2.0, 0.0], [0.0, 2.0]])
    assert rep.passive
    assert rep.min_eigenvalue == pytest.approx(2.0)
    assert rep.kernel_dimension == 0


def test_lmi_residual_indefinite_fixture_storage():
    sys, G, sigma = gyrator_fixture()
    rep = lmi_residual(sys, np.diag([1.0, 2.0]))
    np.testing.assert_allclose(rep.Pi, [[2.0, -2.0, 0.0], [-2.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    assert rep.passive
    assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_lmi_residual_detects_active_system():
    sys = LinearSystem([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    rep = lmi_residual(sys, [[1.0]])
    assert not rep.passive
    assert rep.min_eigenvalue < -1.0


def test_kernel_invariance_check():
    # x2 is unobservable and outside the storage: ker Q = span(e2)
    A = np.array([[-1.0, 0.0], [0.0, -2.0]])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    sys = LinearSystem(A, B, C, [[1.0]])
    Q = np.diag([1.0, 0.0])
    out = kernel_invariance_check(sys, Q, lmi_residual(sys, Q))
    assert out == {"A_invariant": True, "inside_ker_C": True, "kernel_dimension": 1}


def test_kernel_invariance_needs_passive_q():
    sys = LinearSystem([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(AssumptionError):
        kernel_invariance_check(sys, [[1.0]], lmi_residual(sys, [[1.0]]))


def test_spd_sqrt_and_geometric_mean():
    np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    A = np.diag([1.0, 4.0])
    B = np.diag([4.0, 1.0])
    np.testing.assert_allclose(spd_geometric_mean(A, B), np.diag([2.0, 2.0]), atol=1e-12)
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(spd_geometric_mean(M, M), M, atol=1e-12)
    S = spd_sqrt(M)
    np.testing.assert_allclose(S @ S, M, atol=1e-12)
    with pytest.raises(SingularMatrixError):
        spd_sqrt(np.diag([1.0, -1.0]))


def test_compatible_storage_positive_definite_metric_one_step():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        sys, G, sig = random_reciprocal_system(rng, n, 2,
                                               sigma=SignatureMatrix.identity(2), k=n)
        # start from a perturbation of G small enough to stay inside the LMI
        W = rng.normal(size=(n, n))
        Q0 = G + 1e-3 * (W + W.T)
        out = compatible_storage_fixed_point(sys, G, Q0, sigma=sig)
        # for positive definite G the iteration lands on Q = G in one step
        assert out["iterations"] == 1
        np.testing.assert_allclose(out["Q"], G, atol=1e-10 * np.max(np.abs(G)))
        assert out["compatibility_gap"] < 1e-10


def test_compatible_storage_indefinite_fixture():
    sys, G, sigma = gyrator_fixture()
    out = compatible_storage_fixed_point(sys, G, np.diag([1.0, 2.0]), sigma=sigma)
    np.testing.assert_allclose(out["Q"], np.eye(2), atol=1e-12)
    assert out["compatibility_gap"] <= 1e-10
    assert out["lmi_min_eigenvalue"] >= -1e-8


def test_compatible_storage_rejects_non_reciprocal():
    sys, G, sigma = gyrator_fixture()
    B2 = sys.B.copy()
    B2[1, 0] = 0.3
    with pytest.raises(AssumptionError):
        compatible_storage_fixed_point(LinearSystem(sys.A, B2, sys.C, sys.D), G,
                                       np.eye(2), sigma=sigma)


def test_split_port_hamiltonian_fixture_frozen_values():
    sys, G, sigma = gyrator_fixture()
    pg = to_pseudo_gradient(sys, G, sigma)
    form = split_port_hamiltonian_form(pg, np.eye(2))
    assert form.k == 1
    np.testing.assert_allclose(form.J, [[0.0, -2.0], [2.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(form.R, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(form.P1, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(form.Pc, [[2.0]], atol=1e-12)
    np.testing.assert_allclose(form.P2, [[-1.0]], atol=1e-12)
    np.testing.assert_allclose(form.C1, [[1.0]], atol=1e-12)
    # J skew, R symmetric positive semidefinite
    np.testing.assert_allclose(form.J, -form.J.T, atol=1e-14)
    assert np.linalg.eigvalsh(form.R).min() >= -1e-12
    back = form.to_linear_system()
    np.testing.assert_allclose(back.A, sys.A, atol=1e-12)
    np.testing.assert_allclose(back.B, sys.B, atol=1e-12)
    np.testing.assert_allclose(back.C, sys.C, atol=1e-12)


def test_split_port_hamiltonian_transformed_coordinates():
    # same fixture in scrambled coordinates: split recovers an equivalent system
    rng = np.random.default_rng(8)
    sys, G, sigma = gyrator_fixture()
    T = well_conditioned_transform(rng, 2)
    Ti = np.linalg.inv(T)  # state coordinates x = T x_new
    sys2 = LinearSystem(Ti @ sys.A @ T, Ti @ sys.B, sys.C @ T, sys.D)
    G2 = T.T @ G @ T
    Q2 = T.T @ np.eye(2) @ T
    pg = to_pseudo_gradient(sys2, G2, sigma)
    form = split_port_hamiltonian_form(pg, Q2)
    np.testing.assert_allclose(form.J, -form.J.T, atol=1e-12)
    assert np.linalg.eigvalsh(0.5 * (form.R + form.R.T)).min() >= -1e-10
    back = form.to_linear_system()
    # realizations agree after mapping back through z_from_x
    times = np.linspace(0.0, 3.0, 7)
    from scipy.linalg import expm
    for t in times:
        W1 = sys2.C @ expm(sys2.A * t) @ sys2.B
        W2 = back.C @ expm(back.A * t) @ back.B
        np.testing.assert_allclose(W2, W1, atol=1e-9)


def test_random_reciprocal_system_properties():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        signs = rng.choice([-1, 1], size=m)
        sys, G, sig = random_reciprocal_system(rng, n, m, sigma=SignatureMatrix(signs))
        assert check_linear_reciprocity(sys, G, sig).reciprocal
        assert np.max(np.real(np.linalg.eigvals(sys.A))) < 0.0
