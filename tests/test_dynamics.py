import csv
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipkit.core import (
    AssumptionError,
    BoxDomain,
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    ScalarField,
    SignatureMatrix,
    finite_difference_jacobian,
    quadratic_field,
)
from recipkit.dynamics import (
    MIDPOINT_NEWTON_KAPPA,
    MIDPOINT_NEWTON_TOL,
    STRUCTURE_TOL,
    HessianPseudoGradientSystem,
    NotRelaxationError,
    PortHamiltonianSystem,
    Trajectory,
    _block_field,
    certify_relaxation,
    dissipation_monitor,
    integrate_implicit_midpoint,
    ph_to_hessian_pseudo_gradient,
    simulate_port_hamiltonian,
    simulate_pseudo_gradient,
)
from recipkit.models import RcCircuitModel, SwingModel, model_registry


# ---------------------------------------------------------------------------
# Trajectory container


def test_trajectory_validation():
    t = np.array([0.0, 1.0, 2.0])
    x = np.zeros((3, 1))
    with pytest.raises(DimensionMismatchError):
        Trajectory(t, np.zeros((2, 1)), x, x)
    with pytest.raises(DimensionMismatchError):
        Trajectory(np.array([0.0, 2.0, 1.0]), x, x, x)
    with pytest.raises(DimensionMismatchError):
        Trajectory(t, x, x, x, monitors={"S": np.zeros(2)})


def test_trajectory_to_csv_round_trip(tmp_path):
    t = np.array([0.0, 0.5, 1.0])
    x = np.array([[1.0], [0.7357588823428847], [0.5413411329464508]])
    u = np.zeros((3, 1))
    y = x.copy()
    traj = Trajectory(t, x, u, y, monitors={"supply": np.zeros(3), "S": 0.5 * x[:, 0] ** 2,
                                            "aux": np.array([1.0, 2.0, 3.0])})
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_1", "u_1", "y_1", "S", "supply", "aux"]
    assert len(rows) == 4
    # repr round trip restores exact float values
    assert float(rows[2][1]) == x[1, 0]
    assert float(rows[2][4]) == 0.5 * x[1, 0] ** 2


# ---------------------------------------------------------------------------
# Implicit midpoint integrator


def test_integrator_scalar_decay():
    times, states = integrate_implicit_midpoint(
        lambda t, x: -x, np.array([1.0]), (0.0, 2.0), step=1e-3)
    assert abs(states[-1, 0] - np.exp(-2.0)) < 1e-7
    assert len(times) == 2001


def test_integrator_second_order_convergence():
    def endpoint_error(h):
        _, states = integrate_implicit_midpoint(
            lambda t, x: np.array([-x[0] + np.sin(t)]), np.array([1.0]), (0.0, 1.0), step=h)
        exact = 1.5 * np.exp(-1.0) + 0.5 * (np.sin(1.0) - np.cos(1.0))
        return abs(states[-1, 0] - exact)

    e1 = endpoint_error(0.1)
    e2 = endpoint_error(0.05)
    assert e1 / e2 >= 3.5


def test_integrator_mass_matrix():
    # 2 x_dot = -x decays at half rate
    times, states = integrate_implicit_midpoint(
        lambda t, x: -x, np.array([1.0]), (0.0, 2.0), step=1e-3,
        mass=lambda x: np.array([[2.0]]))
    assert abs(states[-1, 0] - np.exp(-1.0)) < 1e-7


def test_integrator_assembles_mass_at_most_three_times_per_step():
    # predictor, first Newton residual, accepted candidate: a linear ODE
    # converges after one Newton step, and J reuses the residual's mass
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    Mconst = np.array([[2.0, 0.5], [0.5, 1.0]])
    calls = []

    def mass(x):
        calls.append(x)
        return Mconst

    n_steps = 50
    _, states = integrate_implicit_midpoint(lambda t, x: A @ x, np.array([1.0, 0.0]),
                                            (0.0, 1.0), step=1.0 / n_steps, mass=mass)
    assert np.all(np.isfinite(states))
    assert len(calls) <= 3 * n_steps


def test_integrator_domain_exit():
    with pytest.raises(DomainError):
        integrate_implicit_midpoint(lambda t, x: x, np.array([0.9]), (0.0, 2.0),
                                    step=1e-2, domain=BoxDomain.cube(1))
    # only the first coordinate leaves [-1, 1]^2, at the first grid time past log(1/0.9)
    with pytest.raises(DomainError, match=r"^trajectory left the state box at t=0\.11: "
                                          r"x=\[1\.0\d+ 0\.4\d+\]$"):
        integrate_implicit_midpoint(lambda t, x: np.array([x[0], -x[1]]), np.array([0.9, 0.5]),
                                    (0.0, 1.0), step=1e-2, domain=BoxDomain.cube(2))


def test_integrator_domain_refuses_a_nan_state():
    # |x0| > 1e154 makes the stopping goal infinite (x0 @ x0 overflows), so the first
    # step accepts inf - inf: a NaN state that even an unbounded box refuses
    rhs = lambda t, x: np.full(1, np.inf if t == 0.0 else 0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DomainError, match=r"^trajectory left the state box at t=0\.1: x=\[nan\]$"):
        integrate_implicit_midpoint(rhs, np.array([1e200]), (0.0, 1.0), step=0.1,
                                    rhs_jac=lambda t, x: np.zeros((1, 1)),
                                    domain=BoxDomain([-np.inf], [np.inf]))


def test_integrator_refuses_a_domain_of_another_dimension_up_front():
    calls = []

    def rhs(t, x):
        calls.append(t)
        return -x

    with pytest.raises(DimensionMismatchError, match=r"^expected length 2, got 1$"):
        integrate_implicit_midpoint(rhs, np.array([0.5]), (0.0, 1.0), step=0.1,
                                    domain=BoxDomain.cube(2))
    assert calls == []


def test_integrator_rejects_bad_span():
    with pytest.raises(DimensionMismatchError):
        integrate_implicit_midpoint(lambda t, x: -x, np.array([1.0]), (1.0, 0.0), step=0.1)


@pytest.mark.parametrize("step, span", [(np.nan, (0.0, 1.0)), (0.1, (0.0, np.nan)),
                                        (0.1, (0.0, np.inf)), (np.inf, (0.0, 1.0)),
                                        (1e-10, (0.0, 1e300)), (1e-10, (0.0, 1e12))])
def test_integrator_rejects_a_non_finite_step_or_span(step, span):
    with pytest.raises(DimensionMismatchError):
        integrate_implicit_midpoint(lambda t, x: -x, np.array([1.0]), span, step=step)
    box, sig = BoxDomain.cube(1), SignatureMatrix.identity(1)
    Q = quadratic_field(np.eye(1), box)
    ph = PortHamiltonianSystem(H=Q, J=[[0.0]], g=[[1.0]])
    hpg = HessianPseudoGradientSystem.from_internal_potential(Q, Q, [[1.0]], sig)
    for simulate, sys in ((simulate_port_hamiltonian, ph), (simulate_pseudo_gradient, hpg)):
        with pytest.raises(DimensionMismatchError):
            simulate(sys, np.array([0.1]), lambda t: np.zeros(1), span, step)


def _counted(fn, counts, key):
    def wrapped(*args):
        counts[key] += 1
        return fn(*args)
    return wrapped


def _swing_midpoint_problem(form):
    """rhs, rhs_jac, mass and start of swing's criterion-11 run in one of its two forms."""
    sw = SwingModel()
    ph, hpg = sw.as_port_hamiltonian(), sw.as_hessian_pseudo_gradient()
    z0 = ph.domain.center + 0.25 * (ph.domain.upper - ph.domain.center)
    u = lambda t: np.array([0.2 * np.sin(t)])
    if form == "port-hamiltonian":
        return (lambda t, z: ph.rhs(z, u(t)), lambda t, z: ph.rhs_jac(z, u(t)), None, z0)
    nx = hpg.nx
    return (lambda t, x: -hpg.V_x(x, u(t)),
            lambda t, x: -hpg.V.hess(np.concatenate([x, u(t)]))[:nx, :nx], hpg.metric,
            sw.ph_state_to_co_energy(z0))


@pytest.mark.parametrize("form, expected", [
    # 100 steps on one Newton matrix, kept from the first step and factored once; the one
    # solve is the explicit-Euler start.  From the fourth step on the cubic start is within
    # O(h^4) of the step, so its first increment already meets the goal: 1.02 residuals
    # per step in either form
    ("port-hamiltonian", {"rhs": 102, "jac": 1, "mass": 0, "solve": 1, "factor": 1}),
    ("co-energy", {"rhs": 102, "jac": 1, "mass": 102, "solve": 1, "factor": 1}),
])
def test_integrator_work_per_step_on_swing(monkeypatch, form, expected):
    rhs, rhs_jac, mass, x0 = _swing_midpoint_problem(form)
    counts = dict.fromkeys(expected, 0)
    monkeypatch.setattr(np.linalg, "solve", _counted(np.linalg.solve, counts, "solve"))
    monkeypatch.setattr(np.linalg, "inv", _counted(np.linalg.inv, counts, "factor"))
    integrate_implicit_midpoint(
        _counted(rhs, counts, "rhs"), x0, (0.0, 0.1), 1e-3,
        mass=None if mass is None else _counted(mass, counts, "mass"),
        rhs_jac=_counted(rhs_jac, counts, "jac"))
    assert counts == expected


def test_integrator_work_per_step_on_a_linear_mass_matrix_ode(monkeypatch):
    # the ODE of test_integrator_assembles_mass_at_most_three_times_per_step: the Newton
    # matrix is exact and constant, so it is formed and factored once, by one
    # finite-difference Jacobian of 2n = 4 rhs calls, and most steps accept the first
    # increment; the one solve and one mass go to the explicit-Euler start
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    Mconst = np.array([[2.0, 0.5], [0.5, 1.0]])
    counts = {"rhs": 0, "mass": 0, "solve": 0, "factor": 0}
    monkeypatch.setattr(np.linalg, "solve", _counted(np.linalg.solve, counts, "solve"))
    monkeypatch.setattr(np.linalg, "inv", _counted(np.linalg.inv, counts, "factor"))
    integrate_implicit_midpoint(_counted(lambda t, x: A @ x, counts, "rhs"),
                                np.array([1.0, 0.0]), (0.0, 1.0), step=1.0 / 50,
                                mass=_counted(lambda x: Mconst, counts, "mass"))
    assert counts == {"rhs": 68 + 4, "mass": 68, "solve": 1, "factor": 1}


def test_simulate_pseudo_gradient_refuses_a_start_of_the_wrong_length():
    Q = quadratic_field(np.eye(1), BoxDomain.cube(1))
    hpg = HessianPseudoGradientSystem.from_internal_potential(
        Q, Q, [[1.0]], SignatureMatrix.identity(1))
    with pytest.raises(DimensionMismatchError, match="expected length 1, got 2"):
        simulate_pseudo_gradient(hpg, np.zeros(2), lambda t: np.zeros(1), (0.0, 1.0), 0.1)


def test_integrator_accepts_list_returning_rhs_and_mass():
    # 2 x_dot = -x: lists are converted by the residual's checks, to the same states
    args = (np.array([1.0]), (0.0, 1.0), 0.1)
    _, listed = integrate_implicit_midpoint(lambda t, x: [-x[0]], *args, mass=lambda x: [[2.0]])
    _, arrays = integrate_implicit_midpoint(lambda t, x: -x, *args,
                                            mass=lambda x: np.array([[2.0]]))
    assert np.array_equal(listed, arrays)
    np.testing.assert_allclose(listed[-1], [0.60646746], rtol=1e-8)


def test_integrator_refuses_a_mass_that_changes_shape_mid_run():
    def mass(x):
        return np.eye(2) if x[0] < 0.9 else np.array([[2.0]])

    with pytest.raises(DimensionMismatchError, match=r"expected shape \(1, 1\), got \(2, 2\)"):
        integrate_implicit_midpoint(lambda t, x: -x, np.array([1.0]), (0.0, 1.0), 0.1, mass=mass)


def test_integrator_matches_the_cayley_recurrence_on_a_linear_ode():
    # with a constant mass M and an input b(t), x_{k+1} = (M - h/2 A)^-1 ((M + h/2 A) x_k
    # + h b(t_m)) is the midpoint step in closed form; each accepted Newton iterate is within
    # KAPPA * TOL * (1 + |x_k|) of it, and the factor 2 leaves room for the rounding of the
    # closed form.  The input that steps at t = 0.3 puts a kink in the trajectory, which the
    # extrapolated starts of the following steps must recover from
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    Mconst = np.array([[2.0, 0.5], [0.5, 1.0]])
    h = 0.01
    left = Mconst - 0.5 * h * A
    cayley = np.linalg.solve(left, Mconst + 0.5 * h * A)
    for b in (np.zeros(2), np.array([0.5, -1.0])):
        times, states = integrate_implicit_midpoint(
            lambda t, x: A @ x + (t >= 0.3) * b, np.array([1.0, -0.5]), (0.0, 2.0), h,
            mass=lambda x: Mconst)
        tm = times[:-1] + 0.5 * np.diff(times)
        forced = np.linalg.solve(left, h * np.outer(tm >= 0.3, b).T).T
        step_errors = np.linalg.norm(states[1:] - states[:-1] @ cayley.T - forced, axis=1)
        bound = 2 * MIDPOINT_NEWTON_KAPPA * MIDPOINT_NEWTON_TOL * (
            1.0 + np.linalg.norm(states[:-1], axis=1))
        assert len(states) == 201 and np.all(step_errors <= bound)


def test_integrator_start_error_is_fourth_order():
    # from the fourth step on Newton starts from the cubic through the last four states,
    # whose error is O(h^4).  On a linear ODE with the exact Newton matrix the first
    # increment is the start's distance to the accepted state, read here from the
    # midpoint of each step's first rhs call; halving h shrinks it about 2^4 = 16 times
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    Mconst = np.array([[2.0, 0.5], [0.5, 1.0]])

    def first_increments(h):
        first_midpoint = {}

        def rhs(t, x):
            first_midpoint.setdefault(t, x)
            return A @ x

        times, states = integrate_implicit_midpoint(
            rhs, np.array([1.0, -0.5]), (0.0, 1.0), h, mass=lambda x: Mconst,
            rhs_jac=lambda t, x: A)
        tm = times[:-1] + 0.5 * np.diff(times)
        starts = np.stack([2.0 * first_midpoint[t] for t in tm]) - states[:-1]
        return np.linalg.norm(starts - states[1:], axis=1)[3:]

    ratio = np.max(first_increments(0.02)) / np.max(first_increments(0.01))
    assert 13.0 < ratio < 19.0


def test_integrator_names_the_step_where_rhs_turns_nan():
    # from t = 0.5 on the residual is NaN, so no increment contracts and damping stalls
    with pytest.raises(ConvergenceError,
                       match=r"^implicit midpoint Newton damping stalled in iteration \d+ "
                             r"at t=0\.5 \(last increment nan, residual nan, start extrapolated"):
        integrate_implicit_midpoint(lambda t, x: np.full(1, np.nan) if t >= 0.5 else -x,
                                    np.array([1.0]), (0.0, 1.0), 0.1)


def test_integrator_restart_agrees_with_one_call():
    # the restart at t = 0.5 starts Newton from explicit Euler, the single call from the
    # extrapolated increment; both accept a point within KAPPA * TOL * (1 + |x_k|) of the
    # same midpoint step, so they part by at most twice that per step after the restart
    rhs, rhs_jac, _, z0 = _swing_midpoint_problem("port-hamiltonian")
    seen = {"one call": set(), "restarted": set()}

    def run(key, x0, span):
        def recorded(t, z):
            seen[key].add(t)
            return rhs(t, z)
        return integrate_implicit_midpoint(recorded, x0, span, 1e-3, rhs_jac=rhs_jac)[1]

    whole = run("one call", z0, (0.0, 1.0))
    first = run("restarted", z0, (0.0, 0.5))
    second = run("restarted", first[-1], (0.5, 1.0))
    # only the restart evaluates rhs at t = 0.5: its explicit-Euler start
    assert 0.5 in seen["restarted"] and 0.5 not in seen["one call"]
    np.testing.assert_array_equal(first, whole[:501])
    scale = 1.0 + np.max(np.linalg.norm(whole, axis=1))
    bound = 2 * 500 * MIDPOINT_NEWTON_KAPPA * MIDPOINT_NEWTON_TOL * scale
    assert np.max(np.abs(second - whole[500:])) <= bound


def test_damped_newton_reaches_the_midpoint_step():
    # the Newton matrix 1 - (h/2) 10.45 is the exact 1 + h/2 over 2.2, so every full
    # step overshoots by 1.2 and only the damped steps bring the iterate in
    h, n_steps = 0.1, 10
    _, states = integrate_implicit_midpoint(lambda t, x: -x, np.array([1.0]), (0.0, 1.0), h,
                                            rhs_jac=lambda t, x: [[10.45]])
    exact = ((1.0 - h / 2) / (1.0 + h / 2)) ** np.arange(n_steps + 1)
    # the map contracts, so step errors of at most KAPPA * TOL * (1 + |x_k|) add up
    bound = n_steps * MIDPOINT_NEWTON_KAPPA * MIDPOINT_NEWTON_TOL * 2.0
    assert np.max(np.abs(states[:, 0] - exact)) <= bound


@pytest.mark.parametrize("what, rate, jac, step", [
    # J = 1 - (h/2) jac vanishes exactly: singular in the step's first iteration
    ("met a singular Newton matrix in iteration 1 at t=0 ", lambda t: -1.0, lambda t: 16.0,
     0.125),
    # the third step, whose midpoint is 0.3125, meets the stiffer rate on the matrix kept
    # from the first step; the increments contract badly, so the matrix is formed again at
    # the iterate, where it vanishes
    ("met a singular Newton matrix in iteration 3 at t=0.25 ",
     lambda t: -20.0 if t >= 0.3 else -1.0, lambda t: 16.0 if t >= 0.3 else -1.0, 0.125),
    # J = -(exact J): every damped step raises the residual
    ("damping stalled in iteration 2 at t=0 ", lambda t: -1.0, lambda t: 41.0, 0.1),
    # J = 10 (exact J): the increments contract by 0.9 per iteration
    ("did not converge in 40 iterations at t=0 ", lambda t: -1.0, lambda t: -190.0, 0.1),
])
def test_midpoint_failures_name_their_cause(what, rate, jac, step):
    with pytest.raises(ConvergenceError) as info:
        integrate_implicit_midpoint(lambda t, x: rate(t) * x, np.array([1.0]), (0.0, 1.0),
                                    step, rhs_jac=lambda t, x: [[jac(t)]])
    msg = str(info.value)
    assert msg.startswith(f"implicit midpoint Newton {what}")
    start = "explicit Euler" if "t=0 " in what else "extrapolated"
    assert re.search(rf"\(last increment (none|\S+e[-+]\d+), residual \S+e[-+]\d+, "
                     rf"start {start} \[", msg), msg


@st.composite
def lossless_linear_ph(draw):
    """J skew, H = z.Q z / 2 with Q SPD, no input, and a start z0."""
    n = draw(st.integers(2, 4))
    A, B = (np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
            .reshape(n, n) for _ in range(2))
    Q = A @ A.T + draw(st.floats(0.2, 2.0)) * np.eye(n)
    z0 = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    # the level set of H through z0 fits inside the box
    half = 1.0 + np.sqrt(z0 @ Q @ z0 / np.linalg.eigvalsh(Q)[0])
    H = quadratic_field(Q, BoxDomain.cube(n, halfwidth=half))
    return PortHamiltonianSystem(H=H, J=B - B.T, g=np.zeros((n, 0))), Q, z0


def midpoint_energy_bound(traj, Q):
    """Bound on one step's move of H = z.Q z / 2 off its exact midpoint value: the Newton
    error KAPPA * TOL * (1 + |z_k|) times |Q z_k|."""
    zmax = np.max(np.linalg.norm(traj.states, axis=1))
    newton = MIDPOINT_NEWTON_KAPPA * MIDPOINT_NEWTON_TOL * (1.0 + zmax)
    return newton * np.linalg.norm(Q, 2) * zmax


@settings(max_examples=40)
@given(lossless_linear_ph())
def test_lossless_linear_port_hamiltonian_conserves_energy(system):
    # implicit midpoint conserves quadratic invariants exactly; each step's Newton error
    # is at most KAPPA * TOL * (1 + |z_k|) and moves H by at most |Q z_k| times that
    ph, Q, z0 = system
    assert ph.nu == 0
    traj = simulate_port_hamiltonian(ph, z0, lambda t: np.zeros(0), (0.0, 1.0), 1e-2)
    S = traj.monitors["S"]
    assert np.max(np.abs(S - S[0])) <= (len(traj.times) - 1) * midpoint_energy_bound(traj, Q)


@st.composite
def dissipative_linear_ph(draw):
    """A lossless_linear_ph system with R = L L^T, L of 0 to n columns, so R may be
    rank-deficient or zero."""
    ph, Q, z0 = draw(lossless_linear_ph())
    n, r = ph.n, draw(st.integers(0, ph.n))
    L = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * r, max_size=n * r)))
    return dataclasses.replace(ph, R=L.reshape(n, r) @ L.reshape(n, r).T), Q, z0


@settings(max_examples=40)
@given(dissipative_linear_ph(), st.floats(1e-12, 10.0))
def test_dissipative_linear_port_hamiltonian_validates_and_loses_energy(system, margin):
    # implicit midpoint moves H by -h (Q m).R(Q m) <= 0 per step, up to the Newton error
    ph, Q, z0 = system
    ph.validate()
    traj = simulate_port_hamiltonian(ph, z0, lambda t: np.zeros(0), (0.0, 1.0), 1e-2)
    assert np.max(np.diff(traj.monitors["S"])) <= midpoint_energy_bound(traj, Q)
    # a shift c that puts lambda_min below -STRUCTURE_TOL by `margin` is refused
    c = np.linalg.eigvalsh(ph.R)[0] + STRUCTURE_TOL + margin
    with pytest.raises(AssumptionError) as info:
        dataclasses.replace(ph, R=ph.R - c * np.eye(ph.n)).validate()
    assert info.value.name == "R-dissipation"


# ---------------------------------------------------------------------------
# Potentials and system containers


def internal_potential(P, g, u_box):
    """The internal form's joint potential V(x, u) = P(x) - x^T g u; K = P fixes only nx."""
    return HessianPseudoGradientSystem.from_internal_potential(
        P, P, g, SignatureMatrix.identity(u_box.dim), u_box=u_box).V


def test_affine_input_potential():
    box = BoxDomain.cube(2)
    P = quadratic_field(np.diag([2.0, 1.0]), box)
    g = np.array([[1.0], [0.0]])
    V = internal_potential(P, g, BoxDomain.cube(1))
    w = np.array([0.5, -0.3, 0.7])
    assert V(w) == pytest.approx(P(w[:2]) - w[0] * w[2])
    np.testing.assert_allclose(V.grad(w), [2 * 0.5 - 0.7, -0.3, -0.5])
    H = V.hess(w)
    np.testing.assert_allclose(H[:2, :2], np.diag([2.0, 1.0]))
    np.testing.assert_allclose(H[:2, 2:], -g)
    np.testing.assert_allclose(H[2:, 2:], [[0.0]])


def test_hessian_pseudo_gradient_from_internal_potential():
    box = BoxDomain.cube(1, halfwidth=2.0)
    K = quadratic_field([[1.0]], box)
    P = quadratic_field([[1.0]], box)
    g = np.array([[1.0]])
    sys = HessianPseudoGradientSystem.from_internal_potential(K, P, g,
                                                              SignatureMatrix.identity(1))
    x = np.array([0.8])
    u = np.array([0.3])
    np.testing.assert_allclose(sys.metric(x), [[1.0]])
    np.testing.assert_allclose(sys.V_x(x, u), [0.8 - 0.3])
    np.testing.assert_allclose(sys.output(x, u), [0.8])
    assert sys.nx == 1 and sys.nu == 1


@pytest.mark.parametrize("model", ["swing", "rc-tanh", "swing-converted"])
def test_to_general_is_the_per_point_form_bit_for_bit(model):
    # swing's K and the converted K evaluate one point per call, their V and rc-tanh's K and
    # V map stacks; the reference is x_dot = -(hess K)^-1 dV/dx and y = output(x, u), one
    # point at a time
    swing = SwingModel()
    if model == "swing":
        hpg = swing.as_hessian_pseudo_gradient()
    elif model == "swing-converted":
        hpg = ph_to_hessian_pseudo_gradient(swing.as_port_hamiltonian(),
                                            swing.conversion_split()).system
    else:
        hpg = model_registry()[model].hpg
    gen = hpg.to_general()
    X = hpg.domain.shrink(0.9).sample(16, seed=5)
    U = BoxDomain.cube(hpg.nu).sample(16, seed=6)

    def F(x, u):
        return np.linalg.solve(hpg.K.hess(x), -hpg.V_x(x, u))

    assert gen.batched and (gen.nx, gen.nu) == (hpg.nx, hpg.nu) and gen.domain is hpg.domain
    assert np.array_equal(gen.F_rows(X, U), [F(x, u) for x, u in zip(X, U)])
    assert np.array_equal(gen.H_rows(X, U), [hpg.output(x, u) for x, u in zip(X, U)])
    for x, u in zip(X[:3], U[:3]):
        assert np.array_equal(gen.F(x, u), F(x, u))
        assert np.array_equal(gen.H(x, u), hpg.output(x, u))
    # no Jacobian is supplied: each is the stencil, row for row the per-point one
    assert (gen.dF_dx, gen.dF_du, gen.dH_dx, gen.dH_du) == (None,) * 4
    assert np.array_equal(gen.jac_F_x(X, U), [finite_difference_jacobian(
        lambda y: F(y, u), x) for x, u in zip(X, U)])


def test_internal_form_rows_call_P_once_per_stack():
    box = BoxDomain.cube(2)
    Q = quadratic_field(np.diag([2.0, 1.0]), box)
    calls = []

    def gradient(x):
        calls.append(np.shape(x))
        return Q.gradient(x)

    P = ScalarField(2, Q.value, box, gradient=gradient, hessian=Q.hessian, batched=True)
    g = np.array([[1.0], [0.5]])
    hpg = HessianPseudoGradientSystem.from_internal_potential(Q, P, g,
                                                              SignatureMatrix.identity(1))
    X, U = box.sample(12, seed=3), BoxDomain.cube(1).sample(12, seed=4)
    F = hpg.to_general().F_rows(X, U)
    assert calls == [(12, 2)]
    np.testing.assert_allclose(F, np.linalg.solve(Q.hess_rows(X), -(
        Q.grad_rows(X) - U @ g.T)[..., None])[..., 0], rtol=1e-14)
    # y = -dV/du = g^T x, from the same one call of P's gradient
    assert np.array_equal(hpg.output(X, U), X @ g)
    assert calls == [(12, 2)] * 2


def test_every_block_field_is_batched_with_per_point_rows():
    swing = SwingModel()
    split = swing.conversion_split()
    res = ph_to_hessian_pseudo_gradient(swing.as_port_hamiltonian(), split)
    # the converted P of two quadratic blocks, V = P - x^T g u, the converted K of two
    # per-point Legendre conjugates, and a P with one per-point block
    xbox = res.system.domain
    P = _block_field(split.P1, split.P2, 1.0, split.Pc, xbox)
    half = _block_field(split.P1, dataclasses.replace(split.P2, batched=False), 1.0, split.Pc,
                        xbox)
    W = BoxDomain.product(xbox, BoxDomain.cube(res.system.nu)).shrink(0.9).sample(9, seed=2)
    for F, Y in ((P, W[:, :P.dim]), (res.system.V, W), (res.system.K, W[:, :P.dim]),
                 (half, W[:, :P.dim])):
        assert F.batched
        assert np.array_equal(F.value_rows(Y), [F(y) for y in Y])
        assert np.array_equal(F.grad_rows(Y), [F.grad(y) for y in Y])
        assert np.array_equal(F.hess_rows(Y), [F.hess(y) for y in Y])


def test_port_hamiltonian_system_oscillator():
    box = BoxDomain.cube(2, halfwidth=3.0)
    H = quadratic_field(np.eye(2), box)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = np.array([[1.0], [0.0]])
    ph = PortHamiltonianSystem(H=H, J=J, g=g)
    z = np.array([1.0, 2.0])
    np.testing.assert_allclose(ph.rhs(z, [0.5]), [-2.0 + 0.5, 1.0])
    np.testing.assert_allclose(ph.output(z, [0.5]), [1.0])
    out = ph.validate()
    assert out["max_skew"] == 0.0


def test_port_hamiltonian_rhs_jac_matches_the_stencil_of_rhs():
    # (J - R) hess H against central differences of rhs on swing
    ph = SwingModel().as_port_hamiltonian()
    u = np.array([0.3])
    for z in ph.domain.shrink(0.9).sample(5, seed=3):
        np.testing.assert_allclose(ph.rhs_jac(z, u),
                                   finite_difference_jacobian(lambda w: ph.rhs(w, u), z),
                                   rtol=0, atol=1e-8)


@pytest.mark.parametrize("kind", ["hessian-pseudo-gradient", "port-hamiltonian"])
def test_output_refuses_a_point_of_the_wrong_length(kind):
    swing = SwingModel()
    if kind == "port-hamiltonian":
        sys = swing.as_port_hamiltonian()
        n, m = sys.n, sys.nu
        wrong = [(np.zeros(n + 1), np.zeros(m)), (np.zeros(n - 1), np.zeros(m))]
    else:
        sys = swing.as_hessian_pseudo_gradient()
        n, m = sys.nx, sys.nu
        # the last pair has the right total length, so only the per-part checks refuse it
        wrong = [(np.zeros(n + 1), np.zeros(m)), (np.zeros(n), np.zeros(m + 1)),
                 (np.zeros(n + 1), np.zeros(m - 1))]
    for z, u in wrong:
        with pytest.raises(DimensionMismatchError):
            sys.output(z, u)
    Z, U = sys.domain.shrink(0.9).sample(5, seed=1), np.full((5, m), 0.2)
    assert np.array_equal(sys.output(Z, U), [sys.output(z, u) for z, u in zip(Z, U)])


def test_port_hamiltonian_validate_rejects_non_skew():
    box = BoxDomain.cube(2)
    ph = PortHamiltonianSystem(H=quadratic_field(np.eye(2), box),
                               J=np.array([[0.0, 1.0], [1.0, 0.0]]),
                               g=np.zeros((2, 1)))
    with pytest.raises(AssumptionError):
        ph.validate()


def test_port_hamiltonian_validate_rejects_an_R_indefinite_off_the_sampled_co_states():
    # on [0.5, 1.5]^2 every co-state grad H(z) = z has positive entries, where x.R x > 0;
    # R's eigenvalue -0.5 lies along x = (1, -1), with x.R x = -1
    H = quadratic_field(np.eye(2), BoxDomain(np.full(2, 0.5), np.full(2, 1.5)))
    ph = PortHamiltonianSystem(H=H, J=np.zeros((2, 2)), g=np.zeros((2, 1)),
                               R=[[1.0, 1.5], [1.5, 1.0]])
    with pytest.raises(AssumptionError) as info:
        ph.validate()
    assert info.value.name == "R-dissipation"


@pytest.mark.parametrize("J, g, R, what", [
    (np.zeros((2, 3)), np.zeros((2, 1)), None, "expected shape"),
    (np.zeros((2, 2)), np.zeros((3, 1)), None, "expected shape"),
    (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((3, 3)), "expected shape"),
    (np.zeros((2, 2)), np.zeros((2, 1)), [[np.nan, 0.0], [0.0, 0.0]], "R must be finite"),
], ids=["J", "g", "R", "R-nan"])
def test_port_hamiltonian_wrong_shape_is_refused_at_construction(J, g, R, what):
    with pytest.raises(DimensionMismatchError, match=what):
        PortHamiltonianSystem(H=quadratic_field(np.eye(2), BoxDomain.cube(2)), J=J, g=g, R=R)


# ---------------------------------------------------------------------------
# Simulation and dissipation monitoring


def test_simulate_pseudo_gradient_scalar_relaxation():
    rc = RcCircuitModel.scalar_fixture()
    sys = rc.as_relaxation()
    u = lambda t: np.array([0.5 * np.sin(2.0 * t)])
    traj = simulate_pseudo_gradient(sys, np.zeros(sys.nx), u, (0.0, 3.0), step=5e-3)
    assert "supply" in traj.monitors and "S" in traj.monitors
    rep = dissipation_monitor(traj)
    assert rep.passive_along
    assert rep.max_violation <= 1e-8 * rep.supply_scale


def _recorded_systems():
    swing = SwingModel()
    converted = ph_to_hessian_pseudo_gradient(swing.as_port_hamiltonian(),
                                              swing.conversion_split()).system
    return {"port-hamiltonian": (simulate_port_hamiltonian, swing.as_port_hamiltonian()),
            "internal-form": (simulate_pseudo_gradient, swing.as_hessian_pseudo_gradient()),
            "converted": (simulate_pseudo_gradient, converted),
            "joint-potential": (simulate_pseudo_gradient,
                                RcCircuitModel.tanh_fixture().as_relaxation())}


@pytest.mark.parametrize("kind", ["port-hamiltonian", "internal-form", "converted",
                                  "joint-potential"])
def test_a_trajectory_is_recorded_by_one_row_call_per_channel(monkeypatch, kind):
    simulate, sys = _recorded_systems()[kind]
    storage = sys.H if kind == "port-hamiltonian" else sys.storage
    calls = {"output": [], "storage_rows": [], "storage_point": []}

    def counted(cls, name, key, only=None):  # records the shape of each call's first argument
        original = getattr(cls, name)

        def wrapper(self, *args):
            if only is None or self is only:
                calls[key].append(np.shape(args[0]))
            return original(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(type(sys), "output", "output")
    counted(ScalarField, "value_rows", "storage_rows", only=storage)
    counted(ScalarField, "__call__", "storage_point", only=storage)
    x0 = sys.domain.center + 0.2 * (sys.domain.upper - sys.domain.center)
    traj = simulate(sys, x0, lambda t: np.full(sys.nu, 0.3 * np.sin(t)), (0.0, 0.02), 1e-3)
    # one output and one storage call, each on the (N, nx) stack of the recorded states
    stack = (len(traj.times), sys.domain.dim)
    assert calls == {"output": [stack], "storage_rows": [stack], "storage_point": []}
    monkeypatch.undo()
    # the row-stacked channels are the per-point values, bit for bit
    assert np.array_equal(traj.outputs, [sys.output(x, u)
                                         for x, u in zip(traj.states, traj.inputs)])
    assert np.array_equal(traj.monitors["S"], [storage(x) for x in traj.states])
    assert np.array_equal(traj.monitors["supply"],
                          [float(u @ y) for u, y in zip(traj.inputs, traj.outputs)])


def test_simulate_port_hamiltonian_lossless_conserves_energy():
    swing = SwingModel().lossless()
    ph = swing.as_port_hamiltonian()
    z0 = np.array([0.2, -0.1, 0.3])
    traj = simulate_port_hamiltonian(ph, z0, lambda t: np.zeros(1), (0.0, 2.0), step=1e-3)
    S = np.asarray(traj.monitors["S"], dtype=float)
    assert np.max(np.abs(S - S[0])) < 1e-9


def test_dissipation_monitor_hand_oracle():
    t = np.array([0.0, 1.0, 2.0])
    ones = np.ones((3, 1))
    # constant supply rate u.y = 1; storage climbs at half that rate
    traj = Trajectory(t, np.zeros((3, 1)), ones, ones,
                      monitors={"S": np.array([0.0, 0.5, 1.0])})
    rep = dissipation_monitor(traj)
    assert rep.passive_along
    assert rep.max_violation == pytest.approx(-0.5)
    assert rep.supply_scale == pytest.approx(2.0)
    assert rep.steps == 2

    bad = Trajectory(t, np.zeros((3, 1)), ones, ones,
                     monitors={"S": np.array([0.0, 2.0, 4.0])})
    rep2 = dissipation_monitor(bad)
    assert not rep2.passive_along
    assert rep2.max_violation == pytest.approx(1.0)


def test_dissipation_monitor_requires_storage():
    t = np.array([0.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        dissipation_monitor(Trajectory(t, np.zeros((2, 1)), np.zeros((2, 1)),
                                       np.zeros((2, 1))))


# ---------------------------------------------------------------------------
# Relaxation certification


def test_certify_relaxation_scalar_fixture():
    sys = RcCircuitModel.scalar_fixture().as_relaxation()
    cert = certify_relaxation(sys, n_samples=80)
    assert cert.relaxation
    assert cert.mode == "-I"
    assert cert.min_metric_eigenvalue > 0.0
    assert cert.worst_inequality >= -1e-9
    assert cert.storage is not None
    assert cert.storage_floor_ok


def internal_form_rc_cell():
    # RC cell in internal form: K = P = x^2/2, g = 1, sigma = +I
    box = BoxDomain.cube(1, halfwidth=2.0)
    P = quadratic_field([[1.0]], box)
    sys = HessianPseudoGradientSystem.from_internal_potential(
        quadratic_field([[1.0]], box), P, [[1.0]], SignatureMatrix.identity(1),
        u_box=BoxDomain.cube(1))
    return sys, P


def test_certify_relaxation_internal_form():
    sys, P = internal_form_rc_cell()
    cert = certify_relaxation(sys, n_samples=60)
    assert cert.relaxation
    assert cert.mode == "+I"
    # the u terms of x.dV/dx - u.dV/du cancel for V = P(x) - x^T g u: x.grad P(x) is left
    xs = sys.K.domain.shrink(0.95).sample(60, seed=0)
    assert cert.worst_inequality == pytest.approx(np.min(np.vecdot(xs, P.grad_rows(xs))),
                                                  abs=1e-14)
    # conjugate storage of K = x^2/2 is itself
    assert cert.storage(np.array([0.8])) == pytest.approx(0.32, abs=1e-12)


def test_certify_relaxation_rejects_indefinite_metric():
    box = BoxDomain.cube(2)
    K = quadratic_field(np.diag([1.0, -1.0]), box)
    V = internal_potential(quadratic_field(np.eye(2), box), np.array([[1.0], [0.0]]),
                           BoxDomain.cube(1))
    sys = HessianPseudoGradientSystem(K=K, V=V, sigma=SignatureMatrix.identity(1))
    with pytest.raises(NotRelaxationError):
        certify_relaxation(sys, n_samples=40)


def test_certify_relaxation_rejects_mixed_signature():
    box = BoxDomain.cube(2)
    K = quadratic_field(np.eye(2), box)
    V = internal_potential(quadratic_field(np.eye(2), box), np.eye(2), BoxDomain.cube(2))
    sys = HessianPseudoGradientSystem(K=K, V=V, sigma=SignatureMatrix(np.array([1, -1])))
    with pytest.raises(DimensionMismatchError):
        certify_relaxation(sys, n_samples=20)


def test_certify_relaxation_refuses_an_input_box_of_another_dimension():
    sys = RcCircuitModel.scalar_fixture().as_relaxation()
    with pytest.raises(DimensionMismatchError, match="input box dimension 2"):
        certify_relaxation(sys, u_box=BoxDomain.cube(2), n_samples=20)
    # the internal form samples the same (x, u) stack, so it refuses the box too
    sys, _ = internal_form_rc_cell()
    with pytest.raises(DimensionMismatchError, match="input box dimension 3"):
        certify_relaxation(sys, u_box=BoxDomain.cube(3), n_samples=20)


# ---------------------------------------------------------------------------
# Conversion from port-Hamiltonian form


def test_ph_conversion_swing_matches_analytic_fields():
    swing = SwingModel()
    ph = swing.as_port_hamiltonian()
    res = ph_to_hessian_pseudo_gradient(ph, swing.conversion_split())
    K_analytic = swing.co_energy()
    P_analytic = swing.mixed_potential()
    S_analytic = swing.storage()
    dom = res.system.K.domain.shrink(0.8)
    k_off = res.system.K(dom.center) - K_analytic(dom.center)
    s_off = res.system.storage(dom.center) - S_analytic(dom.center)
    for x in dom.sample(12, seed=3):
        assert res.system.K(x) - K_analytic(x) == pytest.approx(k_off, abs=1e-8)
        # at u = 0 the joint potential P(x) - x^T g u is the converted P
        w = np.concatenate([x, np.zeros(res.system.nu)])
        assert res.system.V(w) == pytest.approx(P_analytic(x), abs=1e-10)
        assert res.system.storage(x) - S_analytic(x) == pytest.approx(s_off, abs=1e-8)
    assert res.report["I_structure_gap"] == 0.0
    assert res.report["III_rayleigh_gap"] <= 1e-10


def test_converted_storage_gradient_is_the_derivative_of_its_value():
    swing = SwingModel()
    storage = ph_to_hessian_pseudo_gradient(swing.as_port_hamiltonian(),
                                            swing.conversion_split()).system.storage
    X = storage.domain.shrink(0.8).sample(8, seed=4)
    for x in X:
        assert np.max(np.abs(storage.grad(x) - finite_difference_jacobian(storage, x))) <= 1e-8
    assert np.array_equal(storage.grad_rows(X), [storage.grad(x) for x in X])


def test_ph_conversion_assumption_failures():
    swing = SwingModel()
    ph = swing.as_port_hamiltonian()
    split = swing.conversion_split()

    Jbad = np.array(ph.J, dtype=float).copy()
    Jbad[0, 2] += 0.05
    Jbad[2, 0] -= 0.05
    with pytest.raises(AssumptionError) as exc1:
        ph_to_hessian_pseudo_gradient(
            PortHamiltonianSystem(H=ph.H, J=Jbad, g=ph.g, R=ph.R), split)
    assert exc1.value.name == "I"

    H2bad = ScalarField(split.H2.dim, lambda x: 1.1 * split.H2.value(x),
                        split.H2.domain)
    with pytest.raises(AssumptionError) as exc2:
        ph_to_hessian_pseudo_gradient(ph, dataclasses.replace(split, H2=H2bad))
    assert exc2.value.name == "II"

    with pytest.raises(AssumptionError) as exc3:
        ph_to_hessian_pseudo_gradient(
            PortHamiltonianSystem(H=ph.H, J=ph.J, g=ph.g, R=2 * ph.R), split)
    assert exc3.value.name == "III"
    assert "assumption III" in str(exc3.value)
