"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured margins so the
suite output doubles as a certification transcript.  Tolerances are pinned;
loosening them is an interface change, not a test fix.
"""

import time

import numpy as np
from scipy.integrate import solve_ivp

from recipkit.cli import default_past_inputs
from recipkit.core import (
    BoxDomain,
    MetricField,
    NonlinearSystem,
    ScalarField,
    SignatureMatrix,
    as_vector,
    quadratic_field,
)
from recipkit.dynamics import (
    Trajectory,
    certify_relaxation,
    dissipation_monitor,
    integrate_implicit_midpoint,
    simulate_port_hamiltonian,
    simulate_pseudo_gradient,
)
from recipkit.geometry import (
    external_reciprocity_test,
    flatness_check,
    hessian_christoffel,
    levi_civita,
)
from recipkit.legendre import (
    homogeneity_check,
    legendre_transform,
    make_legendre_pair,
)
from recipkit.linear import (
    LinearSystem,
    compatible_storage_fixed_point,
    impulse_response_symmetry,
    recover_metric_hankel,
    split_port_hamiltonian_form,
    to_pseudo_gradient,
)
from recipkit.models import (
    BraytonMoserModel,
    SwingModel,
    field_registry,
    model_registry,
    random_reciprocal_system,
)
from recipkit.reciprocity import (
    check_reciprocity_affine,
    check_reciprocity_hessian,
    reconstruct_potential,
)


def _verdict(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _battery() -> dict:
    """Generating functions exercised by the conjugacy criteria."""
    fields = dict(field_registry())
    fields["indefinite-quadratic"] = quadratic_field(
        np.array([[2.0, 0.0], [0.0, -1.0]]), BoxDomain.cube(2, 1.5))
    return fields


def _indefinite_fixture():
    sys = LinearSystem(A=np.array([[-1.0, -2.0], [2.0, -1.0]]),
                       B=np.array([[1.0], [0.0]]),
                       C=np.array([[1.0, 0.0]]),
                       D=np.array([[0.0]]))
    return sys, np.diag([1.0, -1.0]), SignatureMatrix.identity(1)


def _textbook_bm() -> BraytonMoserModel:
    return BraytonMoserModel(L=np.array([1.0]), C=np.array([0.5]),
                             lam=np.array([[1.0]]), R=np.array([0.7]),
                             Gc=np.array([0.4]), quartic=np.array([0.5]))


def test_criterion_01_conjugate_pair_identities(capsys):
    fields = _battery()
    t0 = time.perf_counter()
    worst_rt = worst_bi = worst_hi = 0.0
    for K in fields.values():
        pair = make_legendre_pair(K, samples=200, seed=0, verify=False)
        for x in K.domain.shrink(0.98).sample(200, seed=1):
            z = pair.forward(x)
            worst_rt = max(worst_rt, float(np.max(np.abs(pair.inverse(z) - x))))
            gap = K.hess(x) @ pair.Kstar.hess(z) - np.eye(K.dim)
            worst_hi = max(worst_hi, float(np.max(np.abs(gap))))
            _, kss = legendre_transform(pair.Kstar, x, x_init=z)
            worst_bi = max(worst_bi, abs(kss - K(x)) / (1.0 + abs(K(x))))
    elapsed = time.perf_counter() - t0
    ok = (len(fields) >= 6 and worst_rt <= 1e-8 and worst_bi <= 1e-8
          and worst_hi <= 1e-6 and elapsed < 5.0)
    _verdict(capsys, 1, ok,
             f"{len(fields)} fields x 200 points: round-trip {worst_rt:.1e} <= 1e-8, "
             f"biconjugation {worst_bi:.1e} <= 1e-8, hessian-inverse {worst_hi:.1e}"
             f" <= 1e-6, {elapsed:.1f}s < 5s")


def test_criterion_02_homogeneity_theorem(capsys):
    disagreements = []
    quad_gap = quartic_gap = -1.0
    for name, K in _battery().items():
        rep = homogeneity_check(K, samples=100, seed=0)
        if rep.degree2 != rep.equal:
            disagreements.append(name)
        if name == "quadratic":
            quad_gap = homogeneity_check(K, samples=200, seed=0).max_conjugacy_gap
    # degree-4 scaling away from the flat point
    K4 = ScalarField(1, lambda x: 0.25 * float(np.sum(x ** 4)),
                     BoxDomain.cube(1, 1.5),
                     gradient=lambda x: x ** 3,
                     hessian=lambda x: np.diag(3.0 * x ** 2))
    quartic_gap = 0.0
    for x in K4.domain.shrink(0.9).sample(80, seed=2):
        if abs(x[0]) < 0.2:
            continue
        _, val = legendre_transform(K4, K4.grad(x), x_init=x)
        quartic_gap = max(quartic_gap, abs(val - 3.0 * K4(x)))
    ok = not disagreements and quad_gap <= 1e-12 and quartic_gap <= 1e-10
    _verdict(capsys, 2, ok,
             f"booleans agree on all battery fields (disagreements={disagreements}), "
             f"quadratic conjugacy gap {quad_gap:.1e} <= 1e-12, "
             f"quartic 3K gap {quartic_gap:.1e} <= 1e-10")


def test_criterion_03_impulse_symmetry_detection(capsys):
    times = np.linspace(0.05, 5.0, 50)
    rng = np.random.default_rng(7)
    worst_clean = 0.0
    for _ in range(50):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        sys, _, sig = random_reciprocal_system(rng, n, m)
        chk = impulse_response_symmetry(sys, sig, times)
        worst_clean = max(worst_clean, chk.max_residual)
    rng = np.random.default_rng(7)
    best_pert = np.inf
    for _ in range(50):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        sys, _, sig = random_reciprocal_system(rng, n, m)
        Bp = sys.B.copy()
        Bp[0, 0] += 5e-2
        chk = impulse_response_symmetry(LinearSystem(sys.A, Bp, sys.C, sys.D),
                                        sig, times)
        best_pert = min(best_pert, chk.max_residual)
    ok = worst_clean <= 1e-8 and best_pert > 1e-3
    _verdict(capsys, 3, ok,
             f"50 reciprocal systems residual {worst_clean:.1e} <= 1e-8 at 50 times; "
             f"50 perturbed systems residual {best_pert:.1e} > 1e-3")


def test_criterion_04_hankel_metric_recovery(capsys):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        sys, G, sig = random_reciprocal_system(rng, n, m)
        past = default_past_inputs(sys, rng)
        G_hat = recover_metric_hankel(sys, sig, horizon=30.0, past_inputs=past)
        worst = max(worst, float(np.linalg.norm(G_hat - G) / np.linalg.norm(G)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict(capsys, 4, ok,
             f"10 systems (n <= 5): relative error {worst:.1e} <= 1e-4, "
             f"{elapsed:.1f}s < 10s")


def test_criterion_05_compatibility_fixed_point(capsys):
    rng = np.random.default_rng(5)
    worst_gap, worst_iter = 0.0, 0
    for _ in range(5):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        sys, G, sig = random_reciprocal_system(rng, n, m, k=n)
        W = rng.standard_normal((n, n))
        res = compatible_storage_fixed_point(sys, G, G + 1e-3 * (W + W.T), sigma=sig)
        worst_gap = max(worst_gap, float(np.max(np.abs(res["Q"] - G))))
        worst_iter = max(worst_iter, res["iterations"])
    sys, G, sig = _indefinite_fixture()
    res = compatible_storage_fixed_point(sys, G, np.diag([1.0, 2.0]), sigma=sig)
    Q = res["Q"]
    compat = float(np.max(np.abs(Q - G @ np.linalg.solve(Q, G))))
    lmi_min = res["lmi_min_eigenvalue"]
    ok = (worst_gap <= 1e-10 and worst_iter <= 100
          and compat <= 1e-10 and lmi_min >= -1e-8)
    _verdict(capsys, 5, ok,
             f"definite fixtures |Q - G| {worst_gap:.1e} <= 1e-10 in <= {worst_iter} "
             f"iterations; indefinite fixture compatibility {compat:.1e} <= 1e-10, "
             f"LMI min eig {lmi_min:.1e} >= -1e-8")


def test_criterion_06_split_normal_form(capsys):
    sys, G, sig = _indefinite_fixture()
    pg = to_pseudo_gradient(sys, G, sig)
    Q = compatible_storage_fixed_point(sys, G, np.diag([1.0, 2.0]), sigma=sig)["Q"]
    split = split_port_hamiltonian_form(pg, Q)
    skew = float(np.max(np.abs(split.J + split.J.T)))
    r_min = float(np.linalg.eigvalsh(0.5 * (split.R + split.R.T)).min())

    n, k = split.n, split.k  # H(z) = |z|^2 / 2, so grad H(z) = z
    g_split = np.vstack([split.C1.T, np.zeros((n - k, sys.m))])
    u = lambda t: np.array([0.3 * np.sin(2.0 * t)])
    x0 = np.array([0.5, -0.3])
    t_eval = np.linspace(0.0, 5.0, 101)
    ref = solve_ivp(lambda t, x: sys.A @ x + sys.B @ u(t), (0.0, 5.0), x0,
                    t_eval=t_eval, rtol=1e-11, atol=1e-13)
    alt = solve_ivp(lambda t, z: (split.J - split.R) @ z + g_split @ u(t),
                    (0.0, 5.0), split.z_from_x @ x0,
                    t_eval=t_eval, rtol=1e-11, atol=1e-13)
    state_gap = float(np.max(np.abs(split.T @ alt.y - ref.y)))
    u_mat = np.stack([u(t) for t in t_eval]).T
    y_ref = sys.C @ ref.y + sys.D @ u_mat
    y_alt = np.hstack([split.C1, np.zeros((sys.m, n - k))]) @ alt.y \
        + split.D @ u_mat
    out_gap = float(np.max(np.abs(y_alt - y_ref)))
    ok = (skew <= 1e-12 and r_min >= -1e-10
          and state_gap <= 1e-6 and out_gap <= 1e-6)
    _verdict(capsys, 6, ok,
             f"J skew {skew:.1e} <= 1e-12, R min eig {r_min:.1e} >= -1e-10, "
             f"trajectory gaps {state_gap:.1e}/{out_gap:.1e} <= 1e-6 on [0, 5]")


def test_criterion_07_nonlinear_reciprocity(capsys):
    bm = _textbook_bm()
    rep_bm = check_reciprocity_affine(bm.as_affine(), bm.metric_field(),
                                      bm.sigma(), n_samples=60)
    sw = SwingModel()
    hpg = sw.as_hessian_pseudo_gradient()
    facade = NonlinearSystem(
        hpg.nx, hpg.nu,
        F=lambda x, u: np.linalg.solve(hpg.metric(x), -hpg.V_x(x, u)),
        H=lambda x, u: hpg.output(x, u), domain=hpg.domain)
    rep_sw = check_reciprocity_hessian(facade, hpg.K, hpg.sigma, n_samples=40)
    E = np.array([[0.0, 1e-2], [1e-2, 0.0]])
    rep_bad = check_reciprocity_affine(
        bm.as_affine(), MetricField.constant(bm.metric_matrix + E, bm.domain),
        bm.sigma(), n_samples=60)
    pot = reconstruct_potential(bm.as_affine().to_general(), bm.metric_field(),
                                bm.sigma(), base_point=(np.zeros(2), np.zeros(1)),
                                n_samples=40)
    P = bm.potential()
    grid_gap = 0.0
    for x in bm.domain.shrink(0.7).grid(10):
        w = np.concatenate([x, [0.0]])
        grid_gap = max(grid_gap, abs(pot.V(w) - (P(x) - P(np.zeros(2)))))
    ok = (rep_bm.max_residual <= 1e-5 and rep_sw.max_residual <= 1e-5
          and rep_bad.max_residual >= 1e-3 and grid_gap <= 1e-4)
    _verdict(capsys, 7, ok,
             f"residuals {rep_bm.max_residual:.1e}/{rep_sw.max_residual:.1e} <= 1e-5 "
             f"(circuit/swing), 1e-2 perturbation flagged at "
             f"{rep_bad.max_residual:.1e} >= 1e-3, potential on 10x10 grid "
             f"{grid_gap:.1e} <= 1e-4")


def test_criterion_08_christoffel_cross_oracle(capsys):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        W = rng.standard_normal((n, n))
        Q = W @ W.T + 3.0 * np.eye(n)
        a = rng.uniform(0.0, 0.5, size=n)
        dom = BoxDomain.cube(n, 1.2)
        K = ScalarField(
            n,
            lambda x, Q=Q, a=a: 0.5 * float(x @ Q @ x) + 0.25 * float(a @ x ** 4),
            dom,
            gradient=lambda x, Q=Q, a=a: Q @ x + a * x ** 3,
            hessian=lambda x, Q=Q, a=a: Q + np.diag(3.0 * a * x ** 2))
        G = MetricField.from_hessian(K)
        for x in dom.shrink(0.8).sample(2, seed=int(rng.integers(1_000_000))):
            diff = hessian_christoffel(K, x) - levi_civita(G, x)
            worst = max(worst, float(np.max(np.abs(diff))))
    flat_ok = flatness_check(quadratic_field(
        np.array([[1.5, 0.2], [0.2, 1.0]]), BoxDomain.cube(2, 1.5),
        lin=np.array([0.3, -0.1])))
    curved = ScalarField(2, lambda x: float(np.sum(np.cosh(x))),
                         BoxDomain.cube(2, 1.2),
                         gradient=lambda x: np.sinh(x),
                         hessian=lambda x: np.diag(np.cosh(x)))
    curved_flagged = not flatness_check(curved)
    ok = worst <= 1e-4 and flat_ok and curved_flagged
    _verdict(capsys, 8, ok,
             f"50 random metrics (n <= 4) cross-oracle gap {worst:.1e} <= 1e-4; "
             f"flatness true on quadratic-affine ({flat_ok}) and false on cosh "
             f"({curved_flagged})")


def _bm_nominal(aff, x0, u, horizon=2.0, step=2e-3):
    times, states = integrate_implicit_midpoint(
        lambda t, x: aff.f(x) + np.asarray(aff.g(x)) @ u(t), np.asarray(x0),
        (0.0, horizon), step, domain=aff.domain)
    inputs = np.stack([u(t) for t in times])
    outputs = np.stack([as_vector(aff.h(states[i]), aff.nu)
                        + np.asarray(aff.k(states[i])) @ inputs[i]
                        for i in range(len(times))])
    return Trajectory(times, states, inputs, outputs)


def test_criterion_09_variational_duality(capsys):
    bundle = model_registry()["brayton-moser"]
    aff, metric, sig = bundle.affine, bundle.metric, bundle.sigma
    probes = [
        lambda t: np.array([np.exp(-((t - 0.5) / 0.15) ** 2)]),
        lambda t: np.array([np.sin(np.pi * t)]),
        lambda t: np.array([0.5 * np.exp(-t)]),
    ]
    nominals = [
        (np.array([0.5, -0.2]), lambda t: np.array([0.3])),
        (np.array([-0.4, 0.3]), lambda t: np.array([0.2 * np.sin(1.5 * t)])),
        (np.array([0.2, 0.4]), lambda t: np.array([0.0])),
    ]
    dx0 = np.array([0.1, -0.05])
    worst_out = worst_state = 0.0
    for x0, u in nominals:
        rep = external_reciprocity_test(aff, metric, _bm_nominal(aff, x0, u),
                                        probe_inputs=probes, tol=1e-5,
                                        delta_x0=dx0, u_signal=u, sigma=sig)
        worst_out = max(worst_out, rep.max_output_gap)
        worst_state = max(worst_state, rep.max_state_gap)
    G_bad = MetricField.constant(np.array([[1.0, 0.3], [0.3, -1.0]]), aff.domain)
    x0, u = nominals[0]
    bad = external_reciprocity_test(aff, G_bad, _bm_nominal(aff, x0, u),
                                    probe_inputs=probes, tol=1e-5,
                                    delta_x0=dx0, u_signal=u, sigma=sig)
    detected = max(bad.max_output_gap, bad.max_state_gap)
    ok = worst_out <= 1e-5 and worst_state <= 1e-5 and detected >= 1e-3
    _verdict(capsys, 9, ok,
             f"3 nominals x 3 probes: output gap {worst_out:.1e} <= 1e-5, "
             f"isomorphism gap {worst_state:.1e} <= 1e-5; non-reciprocal "
             f"perturbation detected at {detected:.1e} >= 1e-3")


def test_criterion_10_relaxation_certificates(capsys):
    reg = model_registry()
    certified = {}
    worst_ratio = 0.0
    steps = {}
    for name in ("rc-tanh", "scalar-relaxation"):
        b = reg[name]
        cert = certify_relaxation(b.hpg, u_box=b.u_box, n_samples=150, seed=0)
        certified[name] = cert.relaxation
        x0 = b.hpg.domain.center + 0.25 * (b.hpg.domain.upper - b.hpg.domain.center)
        u = lambda t: np.full(b.hpg.nu, 0.5 * np.sin(1.3 * t))
        traj = simulate_pseudo_gradient(b.hpg, x0, u, (0.0, 5.0), 5e-3,
                                        storage=cert.storage)
        mon = dissipation_monitor(traj)
        steps[name] = len(traj.times) - 1
        worst_ratio = max(worst_ratio, mon.max_violation / mon.supply_scale)
    sw = reg["swing"].hpg
    x0 = sw.domain.center + 0.25 * (sw.domain.upper - sw.domain.center)
    traj = simulate_pseudo_gradient(sw, x0, lambda t: np.array([0.2 * np.sin(t)]),
                                    (0.0, 5.0), 5e-3)
    mon = dissipation_monitor(traj)
    steps["swing"] = len(traj.times) - 1
    worst_ratio = max(worst_ratio, mon.max_violation / mon.supply_scale)
    ok = (all(certified.values()) and all(v == 1000 for v in steps.values())
          and worst_ratio <= 1e-6)
    _verdict(capsys, 10, ok,
             f"certified {certified}; dissipation violation over 1000-step "
             f"trajectories {worst_ratio:.1e} <= 1e-6 x supply scale "
             f"(swing storage included)")


def test_criterion_11_representation_equivalence(capsys):
    sw = SwingModel()
    ph = sw.as_port_hamiltonian()
    hpg = sw.as_hessian_pseudo_gradient()
    z0 = ph.domain.center + 0.25 * (ph.domain.upper - ph.domain.center)
    u = lambda t: np.array([0.2 * np.sin(t)])
    step = 1e-3
    ph_traj = simulate_port_hamiltonian(ph, z0, u, (0.0, 10.0), step)
    x_traj = simulate_pseudo_gradient(hpg, sw.ph_state_to_co_energy(z0), u,
                                      (0.0, 10.0), step, enforce_domain=False)
    gap = max(float(np.max(np.abs(sw.ph_state_to_co_energy(ph_traj.states[i])
                                  - x_traj.states[i])))
              for i in range(len(ph_traj.times)))
    lossless = sw.lossless().as_port_hamiltonian()
    traj = simulate_port_hamiltonian(lossless, z0, lambda t: np.zeros(1),
                                     (0.0, 2.0), 1e-3)
    H0 = lossless.H(traj.states[0])
    drift = max(abs(lossless.H(s) - H0) for s in traj.states)
    ok = gap <= 1e-6 and drift <= 1e-8
    _verdict(capsys, 11, ok,
             f"coordinate-change trajectory gap {gap:.1e} <= 1e-6 on [0, 10]; "
             f"lossless energy drift {drift:.1e} <= 1e-8")


def test_criterion_12_integrator_order(capsys):
    errs = []
    for h in (0.1, 0.05):
        _, states = integrate_implicit_midpoint(lambda t, x: -x, np.array([1.0]),
                                                (0.0, 1.0), h)
        errs.append(abs(states[-1][0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    ok = ratio >= 3.5
    _verdict(capsys, 12, ok,
             f"halving the step shrinks the endpoint error by {ratio:.2f}x >= 3.5x "
             f"({errs[0]:.2e} -> {errs[1]:.2e})")
