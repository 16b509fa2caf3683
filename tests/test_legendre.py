import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipkit import core, legendre
from recipkit.core import (
    AssumptionError,
    BoxDomain,
    ConvergenceError,
    DimensionMismatchError,
    ScalarField,
    SingularMatrixError,
    quadratic_field,
    validate_scalar_field,
)
from recipkit.legendre import (
    homogeneity_check,
    legendre_transform,
    make_legendre_pair,
)
from recipkit.models import field_registry
from recipkit.schema import parse_field


def quartic_1d(halfwidth=1.5):
    box = BoxDomain.cube(1, halfwidth=halfwidth)
    return ScalarField(
        1,
        lambda x: 0.25 * float(x[0] ** 4),
        box,
        gradient=lambda x: np.array([x[0] ** 3]),
        hessian=lambda x: np.array([[3.0 * x[0] ** 2]]),
    )


def test_legendre_transform_scalar_quadratic():
    K = quadratic_field(np.array([[1.0]]), BoxDomain.cube(1, halfwidth=2.0))
    x, ks = legendre_transform(K, [0.7])
    assert x[0] == pytest.approx(0.7, abs=1e-12)
    assert ks == pytest.approx(0.5 * 0.7 ** 2, abs=1e-12)


def test_legendre_transform_quadratic_closed_form():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    K = quadratic_field(Q, BoxDomain.cube(2, halfwidth=3.0))
    Qinv = np.linalg.inv(Q)
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = rng.uniform(-1.5, 1.5, size=2)
        x, ks = legendre_transform(K, z)
        np.testing.assert_allclose(x, Qinv @ z, atol=1e-10)
        assert ks == pytest.approx(0.5 * z @ Qinv @ z, abs=1e-10)


def test_legendre_transform_unreachable_covector():
    K = quadratic_field(np.array([[1.0]]), BoxDomain.cube(1))
    # grad K on the inflated box never reaches 5
    with pytest.raises(ConvergenceError):
        legendre_transform(K, [5.0])


def test_legendre_transform_singular_hessian_at_start():
    K = quartic_1d()
    # domain center 0 has vanishing Hessian
    with pytest.raises(SingularMatrixError):
        legendre_transform(K, [0.5])


def test_make_legendre_pair_quadratic():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    K = quadratic_field(Q, BoxDomain.cube(2, halfwidth=2.0))
    pair = make_legendre_pair(K, samples=80, seed=0)
    Qinv = np.linalg.inv(Q)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=2)
        z = pair.forward(x)
        np.testing.assert_allclose(z, Q @ x, atol=1e-12)
        np.testing.assert_allclose(pair.inverse(z), x, atol=1e-9)
        assert pair.Kstar(z) == pytest.approx(0.5 * z @ Qinv @ z, abs=1e-10)
        np.testing.assert_allclose(pair.Kstar.hess(z), Qinv, atol=1e-9)


def test_quartic_conjugate_scaling():
    # K = x^4/4 gives K*(grad K(x)) = 3 K(x) and K*(z) = (3/4) |z|^(4/3)
    K = quartic_1d()
    for xv in (0.4, 0.9, 1.3, -0.7, -1.2):
        z = np.array([xv ** 3])
        _, ks = legendre_transform(K, z, x_init=[xv])
        assert ks == pytest.approx(3.0 * K([xv]), abs=1e-12)
        assert ks == pytest.approx(0.75 * abs(z[0]) ** (4.0 / 3.0), abs=1e-12)


def test_homogeneity_quadratic():
    K = quadratic_field(np.array([[2.0, 0.5], [0.5, 1.0]]), BoxDomain.cube(2))
    rep = homogeneity_check(K, tol=1e-9)
    assert rep.equal and rep.degree2
    assert rep.max_conjugacy_gap < 1e-11
    assert rep.max_scaling_gap < 1e-11


def test_homogeneity_shifted_quadratic_splits_booleans():
    # adding a constant keeps quadratic scaling (the offset is subtracted)
    # but breaks K*(grad K(x)) = K(x) by twice the offset
    K = quadratic_field(np.eye(2), BoxDomain.cube(2), const=1.0)
    rep = homogeneity_check(K, tol=1e-9)
    assert rep.degree2
    assert not rep.equal
    assert rep.max_conjugacy_gap > 0.1


def test_homogeneity_non_homogeneous_field():
    box = BoxDomain.cube(2)
    K = ScalarField(
        2,
        lambda x: float(np.sum(np.cosh(x))) - 2.0,
        box,
        gradient=lambda x: np.sinh(x),
        hessian=lambda x: np.diag(np.cosh(x)),
    )
    rep = homogeneity_check(K, tol=1e-9)
    assert not rep.equal
    assert not rep.degree2


def test_make_legendre_pair_rejects_degenerate_field():
    box = BoxDomain.cube(1, halfwidth=4.0)
    K = ScalarField(1, lambda x: float(np.sin(x[0])), box,
                    gradient=lambda x: np.cos(x),
                    hessian=lambda x: np.array([[-np.sin(x[0])]]))
    # Newton inverts cos on another branch: a failed round trip, about 2 pi off
    with pytest.raises(AssumptionError) as info:
        make_legendre_pair(K, samples=40, seed=0)
    assert info.value.name == "round-trip"
    assert sorted(info.value.report) == ["biconjugate_gap", "hessian_inverse_gap",
                                         "round_trip_gap"]
    assert 6.3 < info.value.report["round_trip_gap"] < 6.4


def test_pair_margins_are_the_verified_gaps():
    from recipkit.models import field_registry

    K = field_registry()["cosh"]
    margins = make_legendre_pair(K, samples=30, seed=0).margins
    assert sorted(margins) == ["biconjugate_gap", "hessian_inverse_gap", "round_trip_gap"]
    assert 0.0 < margins["round_trip_gap"] <= 1e-8
    assert margins["hessian_inverse_gap"] <= 1e-6 and margins["biconjugate_gap"] <= 1e-8
    assert make_legendre_pair(K, samples=30, seed=0, verify=False).margins == {}
    # a tolerance below the measured gap is a failed check, not a numerical failure
    with pytest.raises(AssumptionError) as info:
        make_legendre_pair(K, samples=30, seed=0,
                           round_trip_tol=0.5 * margins["round_trip_gap"])
    assert info.value.name == "round-trip" and info.value.report == margins


def test_pair_battery_fields_verify():
    from recipkit.models import field_registry

    fields = field_registry()
    assert len(fields) >= 6
    for name, K in fields.items():
        pair = make_legendre_pair(K, samples=50, seed=0)
        x = K.domain.shrink(0.5).sample(1, seed=7)[0]
        np.testing.assert_allclose(pair.inverse(pair.forward(x)), x, atol=1e-8,
                                   err_msg=name)


def test_pair_inverse_independent_of_query_order():
    from recipkit.models import field_registry

    K = field_registry()["exp-sum"]
    zs = [K.grad(x) for x in K.domain.shrink(0.9).sample(301, seed=3)]
    pair = make_legendre_pair(K, samples=50, seed=0, verify=False)
    first = pair.inverse(zs[0])
    forward = [pair.inverse(z) for z in zs[1:]]
    assert np.array_equal(pair.inverse(zs[0]), first)
    backward = [pair.inverse(z) for z in reversed(zs[1:])][::-1]
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)


def test_pair_inverse_outside_codomain_raises_after_all_restarts():
    box = BoxDomain.cube(1)
    evaluated = []

    def gradient(x):
        evaluated.append(float(x[0]))
        return np.array(x, dtype=float)

    K = ScalarField(1, lambda x: 0.5 * float(x[0] ** 2), box, gradient=gradient,
                    hessian=lambda x: np.eye(1))
    pair = make_legendre_pair(K, samples=20, seed=0, verify=False)
    evaluated.clear()
    # grad K on the inflated box never reaches 5
    with pytest.raises(ConvergenceError) as info:
        pair.inverse([5.0])
    c, w = box.center[0], box.width[0]
    for s in (c, c + 0.1 * w, c - 0.1 * w):
        assert s in evaluated
    # the message names the iteration, the last residual and every start tried
    assert re.fullmatch(r"Newton stalled in iteration \d+ solving grad K = z at z=\[5\.\] "
                        r"\(residual \d\.\d{3}e[+-]\d+, start \[-0\.2\]\); "
                        r"starts tried: \[0\.\], \[0\.2\], \[-0\.2\]", str(info.value))


def test_batched_inverse_names_the_row_outside_the_codomain():
    K = quadratic_field(np.eye(1), BoxDomain.cube(1))
    # grad K on the inflated box reaches 1.5 at most: only row 2 has no preimage
    with pytest.raises(ConvergenceError, match=r"^row 2 of 4: Newton stalled in iteration \d+ "
                                               r"solving grad K = z at z=\[5\.\] .*"
                                               r"starts tried: \[0\.\], \[0\.2\], \[-0\.2\]$"):
        legendre._invert(K, np.array([[0.5], [-0.2], [5.0], [1.2]]))


def test_batched_inverse_restarts_only_rows_with_a_singular_hessian(monkeypatch):
    # pure x^4/4 in each coordinate: the Hessian is singular where a coordinate is 0
    K = ScalarField(2, lambda x: 0.25 * float(np.sum(x ** 4)), BoxDomain.cube(2, 1.5),
                    gradient=lambda x: x ** 3, hessian=lambda x: np.diag(3.0 * x ** 2))
    Z = np.array([[0.5, 0.2], [0.0, 0.0], [0.3, 0.0], [-0.1, 0.4]])
    calls = count_solves(monkeypatch)
    X = legendre._invert(K, Z)
    # the lockstep solve from the center fails every row but z = 0, and each failed row
    # restarts by the per-point solver from the start after the center: c + 0.1 w sign(z),
    # which fails only row 2, whose zero component leaves it singular; c - 0.1 w solves it
    assert calls == {"point": 1 + 2 + 1, "batched": [4]}
    pair = make_legendre_pair(K, samples=20, seed=0, verify=False)
    assert np.array_equal(X, np.array([pair.inverse(z) for z in Z]))
    np.testing.assert_allclose(X, np.cbrt(Z), atol=2e-4)  # x^3 = 0 converges slowly


def count_solves(monkeypatch) -> dict:
    """Record the Newton solves of grad K(x) = z made through the module.

    "point" counts per-point solves, made by the solvers _point_solver binds
    after this hook is installed; "batched" lists the rows of each lockstep solve.
    """
    calls = {"point": 0, "batched": []}
    point_solver, solve_rows = legendre._point_solver, legendre._solve_gradient_equations

    def bind(K):
        solve = point_solver(K)

        def point(z, x0):
            calls["point"] += 1
            return solve(z, x0)
        return point

    def batched(K, Z, X0):
        calls["batched"].append(len(Z))
        return solve_rows(K, Z, X0)

    monkeypatch.setattr(legendre, "_point_solver", bind)
    monkeypatch.setattr(legendre, "_solve_gradient_equations", batched)
    return calls


def test_certificates_make_one_solve_per_legendre_sample(monkeypatch):
    from recipkit.models import field_registry

    K = field_registry()["cosh"]
    calls = count_solves(monkeypatch)
    make_legendre_pair(K, samples=30, seed=0)
    # the 30 samples are the rows of one lockstep solve
    assert calls == {"point": 0, "batched": [30]}


@pytest.mark.parametrize("name", ["cosh", "quadratic"])
def test_a_pair_draws_one_design(monkeypatch, name):
    # by Newton (cosh) and in closed form (quadratic): the verification samples are the
    # pair's only design, and their co-vectors give Kstar its box
    keys, draw = [], core._halton

    def counted(n, dim, seed):
        keys.append((n, dim, seed))
        return draw(n, dim, seed)

    monkeypatch.setattr(core, "_halton", counted)
    pair = make_legendre_pair(field_registry()[name])
    assert keys == [(200, 2, 1)]
    Z = pair.K.grad_rows(pair.K.domain.shrink(0.98).sample(200, seed=1))
    assert np.all((pair.Kstar.domain.lower < Z.min(axis=0))
                  & (Z.max(axis=0) < pair.Kstar.domain.upper))


def test_an_undeclared_field_is_evaluated_only_in_the_inflated_box(monkeypatch):
    # K = sum cosh(3 x_i) / 9 on [-1, 1]^2 declares no conjugate, so the pair inverts by
    # Newton, whose line search never leaves the inflated box [-1.5, 1.5]^2, though the
    # co-vectors reach sinh(2.94) / 3 ~ 3.1 on the samples
    seen = []

    def recorded(fn):
        def wrapped(x):
            seen.extend(np.reshape(x, (-1, 2)).tolist())
            return fn(x)
        return wrapped

    K = ScalarField(2, recorded(lambda x: np.sum(np.cosh(3.0 * x), axis=-1) / 9.0),
                    BoxDomain.cube(2), gradient=recorded(lambda x: np.sinh(3.0 * x) / 3.0),
                    hessian=recorded(lambda x: np.cosh(3.0 * x)[..., :, None] * np.eye(2)),
                    batched=True)
    pair = make_legendre_pair(K)
    assert seen and np.all(np.abs(seen) <= 1.5)
    assert pair.margins["round_trip_gap"] <= 1e-8
    Z = K.grad_rows(K.domain.shrink(0.9).sample(16, seed=3))
    assert np.abs(Z).max() > 1.5
    assert np.array_equal(pair.inverse(Z), legendre._invert(K, Z))
    # a quadratic with K(0) != 0 declares its conjugate: no Newton solve at all
    calls = count_solves(monkeypatch)
    make_legendre_pair(quadratic_field(np.eye(2), BoxDomain.cube(2), const=1.0))
    assert calls == {"point": 0, "batched": []}


@pytest.mark.parametrize("batched", [True, False])
def test_per_point_solve_work_is_pinned(batched):
    # the registry cosh field with counted derivative callables; batched=False takes the
    # per-point fallback of the row evaluators.  The counts pin the Newton iterate
    # sequence of one inverse and one Kstar.hess at two fixed co-vectors, not only its answer
    base = field_registry()["cosh"]
    counts = {"grad": 0, "hess": 0}

    def counted(fn, key):
        def wrapped(x):
            counts[key] += 1
            return fn(x)
        return wrapped

    K = dataclasses.replace(base, gradient=counted(base.gradient, "grad"),
                            hessian=counted(base.hessian, "hess"), batched=batched)
    pair = make_legendre_pair(K, verify=False)
    found = []
    for z in (np.array([0.5, -1.2]), np.array([1.8, 0.3])):
        for evaluate in (pair.inverse, pair.Kstar.hess):
            counts.update(grad=0, hess=0)
            evaluate(z)
            found.append((counts["grad"], counts["hess"]))
    assert found == [(6, 5), (6, 6), (7, 6), (7, 7)]


def test_a_candidate_outside_the_inflated_box_is_halved_before_any_evaluation():
    # sum of cosh on [-1, 1]^2, inflated to [-1.5, 1.5]^2: from the center, Newton's first
    # candidate is z itself, whose first coordinate lies outside, so grad K is next called
    # at z / 2.  The points pin the iterate sequence; the lockstep kernel, which tests the
    # box as ((cand >= lo) & (cand <= hi)).all(), lands on the same x bit for bit
    seen = []

    def grad(x):
        seen.append(x.tolist())
        return np.sinh(x)

    K = ScalarField(2, lambda x: np.sum(np.cosh(x), axis=-1), BoxDomain.cube(2), gradient=grad,
                    hessian=lambda x: np.diag(np.cosh(x)))
    z = np.array([np.sinh(1.4), 0.2])
    x, _ = legendre_transform(K, z)
    assert seen[:2] == [[0.0, 0.0], (0.5 * z).tolist()] and len(seen) == 7
    assert all(abs(c) <= 1.5 for p in seen for c in p)
    X, failed = legendre._solve_gradient_equations(K, z[None], np.zeros((1, 2)))
    assert failed.tolist() == [] and np.array_equal(X[0], x)
    np.testing.assert_allclose(np.sinh(x), z, rtol=0, atol=1e-12)


def test_a_batched_hessian_of_the_wrong_shape_is_a_dimension_mismatch():
    # np.cosh is the Hessian's diagonal, shape (2,) at a point, not the (2, 2) matrix
    def field(box):
        return ScalarField(2, lambda x: np.sum(np.cosh(x), axis=-1), box,
                           gradient=np.sinh, hessian=np.cosh, batched=True)

    # on a box that holds 0 the verification's lockstep solve meets it on the stack, and
    # without verification the first inverse meets it at the point
    with pytest.raises(DimensionMismatchError, match=r"^hessian has shape \(200, 2\), "
                                                     r"expected \(200, 2, 2\)$"):
        make_legendre_pair(field(BoxDomain.cube(2)))
    with pytest.raises(DimensionMismatchError, match=r"^hessian has shape \(2,\), "
                                                     r"expected \(2, 2\)$"):
        make_legendre_pair(field(BoxDomain.cube(2)), verify=False).inverse([0.5, -0.3])
    pair = make_legendre_pair(field(BoxDomain([0.5, 0.5], [1.5, 1.5])), verify=False)
    with pytest.raises(DimensionMismatchError, match=r"^hessian has shape \(2,\), "
                                                     r"expected \(2, 2\)$"):
        pair.inverse([0.5, -0.3])
    # two rows of two: a (2, 2) stack that np.linalg.solve would take for one matrix
    with pytest.raises(DimensionMismatchError, match=r"^hessian has shape \(2, 2\), "
                                                     r"expected \(2, 2, 2\)$"):
        pair.inverse([[0.5, -0.3], [0.2, 0.4]])
    # grad K at the center (1, 1) is solved by the start itself, so only Kstar.hess meets
    # the Hessian
    with pytest.raises(DimensionMismatchError, match=r"shape \(2,\), expected \(2, 2\)"):
        pair.Kstar.hess(np.sinh([1.0, 1.0]))


def test_a_stalled_line_search_within_100x_the_goal_returns_its_iterate():
    # grad K(x) = x + eps s(x), with s = +1 on [k h, (k + 1/2) h) and -1 on the rest, jumps
    # from -eps to +eps at each z = k h: no x solves grad K(x) = z, the residual is at
    # least eps, about 10x the goal 1e-12 (1 + |z|), and Newton stalls at x = z
    h, eps = 0.25, 2e-11
    K = ScalarField(1, lambda x: 0.5 * np.sum(x * x, axis=-1), BoxDomain.cube(1),
                    gradient=lambda x: x + eps * np.where(np.mod(x / h, 1.0) < 0.5, 1.0, -1.0),
                    hessian=lambda x: np.ones(np.shape(x) + (1,)), batched=True)
    Z = np.array([[-0.5], [0.0], [0.25], [0.5], [0.75]])
    X0 = np.zeros_like(Z)
    solve = legendre._point_solver(K)
    got = np.array([solve(z, x0) for z, x0 in zip(Z, X0)])
    lockstep, failed = legendre._solve_gradient_equations(K, Z, X0)
    assert failed.tolist() == [] and np.array_equal(got, lockstep)
    residual = np.abs(K.grad_rows(got) - Z)[:, 0]
    goal = legendre.NEWTON_TOL * (1.0 + np.abs(Z[:, 0]))
    assert np.all((goal < residual) & (residual <= 100.0 * goal))


def test_a_singular_quadratic_gives_up_the_closed_form_for_newton():
    # degree 2, but Q is singular: the field declares no conjugate, and Newton fails
    K = quadratic_field(np.diag([1.0, 0.0]), BoxDomain.cube(2))
    assert homogeneity_check(K).degree2 and K.conjugate_gradient is None
    with pytest.raises(SingularMatrixError, match="^row 0 of 200: Newton met a singular"):
        make_legendre_pair(K)
    with pytest.raises(SingularMatrixError, match="^Newton met a singular Hessian"):
        make_legendre_pair(K, verify=False).inverse([0.5, 0.0])


def test_a_singular_hessian_names_the_starts_from_inverse_and_kstar_hess():
    # Q = diag(1, 0) is singular, so the pair's bound solver meets a singular Hessian from
    # every start; inverse and Kstar.hess raise the same error, naming all three starts, and
    # no warning escapes the LAPACK call
    pair = make_legendre_pair(quadratic_field(np.diag([1.0, 0.0]), BoxDomain.cube(2)),
                              verify=False)
    for evaluate in (pair.inverse, pair.Kstar.hess):
        with warnings.catch_warnings(), pytest.raises(SingularMatrixError) as info:
            warnings.simplefilter("error")
            evaluate([0.5, 0.0])
        assert re.fullmatch(r"Newton met a singular Hessian at x=\[-0\.2 -0\.2\] in iteration 1 "
                            r"solving grad K = z at z=\[0\.5 0\. \] \(residual .*, start "
                            r"\[-0\.2 -0\.2\]\); starts tried: \[0\. 0\.\], \[0\.2 0\. \], "
                            r"\[-0\.2 -0\.2\]", str(info.value))
        assert isinstance(info.value.__cause__, SingularMatrixError)


@pytest.mark.parametrize("name", ["cosh", "quadratic"])
def test_a_stack_of_the_wrong_width_into_inverse_is_a_dimension_mismatch(name):
    # by Newton (cosh) and in closed form (quadratic): numpy's broadcast and solve errors
    # before the check
    pair = make_legendre_pair(field_registry()[name], verify=False)
    with pytest.raises(DimensionMismatchError, match=r"^co-vector stack has shape \(3, 5\), "
                                                     r"expected \(3, 2\)$"):
        pair.inverse(np.zeros((3, 5)))
    with pytest.raises(DimensionMismatchError, match=r"^expected length 2, got 5$"):
        pair.inverse(np.zeros(5))
    assert pair.inverse(np.zeros((3, 2))).shape == (3, 2)


@pytest.mark.parametrize("name", ["cosh", "quadratic", "swing-branch"])
def test_kstar_maps_a_stack_row_for_row(name):
    # by Newton (cosh), in closed form (a quadratic whose co-domain is a box, so Kstar's
    # box holds only co-vectors) and by a declared conjugate (swing's H2): Kstar is batched,
    # its stacks are its points bit for bit, and a stack of the wrong width is refused by
    # inverse's width rule
    K = {"cosh": field_registry()["cosh"],
         "quadratic": quadratic_field(np.diag([2.0, 0.5]), BoxDomain.cube(2, 2.0)),
         "swing-branch": declared_fields()["swing-branch"]}[name]
    Kstar = make_legendre_pair(K).Kstar
    assert Kstar.batched
    validate_scalar_field(Kstar)
    Z = Kstar.domain.shrink(0.9).sample(16, seed=5)
    assert np.array_equal(Kstar.value_rows(Z), [Kstar(z) for z in Z])
    assert np.array_equal(Kstar.grad_rows(Z), [Kstar.grad(z) for z in Z])
    assert np.array_equal(Kstar.hess_rows(Z), [Kstar.hess(z) for z in Z])
    wrong = np.zeros((3, K.dim + 3))
    for rows in (Kstar.value_rows, Kstar.grad_rows, Kstar.hess_rows):
        with pytest.raises(DimensionMismatchError, match=r"^co-vector stack has shape \(3, "):
            rows(wrong)


def test_converted_newton_block_hessians_on_a_stack_are_one_lockstep_solve(monkeypatch):
    # H2 = q^2/2 + q^4/12 is convex but not of degree 2, so its block inverts by Newton:
    # the converted K's Hessians at 50 rows take one lockstep solve, not one per row
    from test_registry_reports import _port_hamiltonian

    from recipkit.dynamics import ph_to_hessian_pseudo_gradient
    from recipkit.schema import load_system

    bundle = load_system(_port_hamiltonian(1 / 12))
    calls = count_solves(monkeypatch)
    K = ph_to_hessian_pseudo_gradient(bundle.ph, bundle.split).system.K
    calls.update(point=0, batched=[])
    X = K.domain.shrink(0.9).sample(50, seed=2)
    H = K.hess_rows(X)
    assert calls == {"point": 0, "batched": [50]}
    assert np.array_equal(H, [K.hess(x) for x in X])


def test_lapack_leaves_the_floating_point_state_as_it_found_it():
    gufuncs, before = core._umath_linalg, np.geterr()
    with np.errstate(divide="warn", invalid="raise"):
        inside = np.geterr()
        core._lapack(gufuncs.solve1, np.eye(2), np.ones(2))
        assert np.geterr() == inside
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            core._lapack(gufuncs.inv, np.zeros((2, 2)))
        assert np.geterr() == inside and np.geterrcall() is None
    assert np.geterr() == before
    # a caller's own invalid="call" handler is neither called nor lost
    calls = []

    def handler(err, flag):
        calls.append(err)

    with np.errstate(call=handler, invalid="call"):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            core._lapack(gufuncs.solve1, np.zeros((2, 2)), np.ones(2))
        assert np.geterrcall() is handler and np.geterr()["invalid"] == "call"
        np.sqrt(-np.ones(1))  # the caller's handler is still in force
    assert calls == ["invalid value"] and np.geterrcall() is None


def test_lapack_errstate_is_the_one_np_errstate_sets():
    # pins the private numpy._core.umath._extobj_contextvar and _make_extobj: the extobj
    # built once at import is the state np.errstate(all="ignore", invalid="call",
    # call=_singular) sets, through the context variable np.errstate itself sets
    import numpy._core._ufunc_config as ufunc_config

    assert core._extobj_contextvar is ufunc_config._extobj_contextvar
    with np.errstate(all="ignore", invalid="call", call=core._singular):
        want = np.geterr(), np.geterrcall(), np.getbufsize()
    token = core._extobj_contextvar.set(core._LAPACK_ERRSTATE)
    try:
        got = np.geterr(), np.geterrcall(), np.getbufsize()
    finally:
        core._extobj_contextvar.reset(token)
    assert got == want


def _cosh_with_summed_gradient(box):
    # the gradient sums over the coordinates: shape (N,) on a stack (N, 2), not (N, 2)
    return ScalarField(2, lambda x: np.sum(np.cosh(x), axis=-1), box,
                       gradient=lambda x: np.sum(np.sinh(x), axis=-1),
                       hessian=lambda x: np.cosh(x)[..., :, None] * np.eye(2), batched=True)


@pytest.mark.parametrize("box", [BoxDomain.cube(2), BoxDomain([0.5, 0.5], [1.5, 1.5])],
                         ids=["holds-0", "without-0"])
def test_make_legendre_pair_refuses_a_batched_gradient_of_the_wrong_shape(box):
    # raw numpy errors before the check: vecdot's with 0 in the box, solve1's without
    with pytest.raises(DimensionMismatchError, match=r"^gradient has shape \(200,\), "
                                                     r"expected \(200, 2\)$"):
        make_legendre_pair(_cosh_with_summed_gradient(box))


def test_homogeneity_check_refuses_a_batched_gradient_of_the_wrong_shape():
    with pytest.raises(DimensionMismatchError, match=r"^gradient has shape \(50,\), "
                                                     r"expected \(50, 2\)$"):
        homogeneity_check(_cosh_with_summed_gradient(BoxDomain.cube(2)), samples=50)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_direct_lapack_calls_are_numpy_linalg_bit_for_bit(n):
    # pins the private numpy.linalg._umath_linalg gufuncs the per-point kernel calls
    rng = np.random.default_rng(n)
    A = rng.standard_normal((5, n, n)) + 2.0 * n * np.eye(n)  # diagonally dominant
    b = rng.standard_normal((5, n))
    lapack, gufuncs = core._lapack, core._umath_linalg
    for got, want in (
            (lapack(gufuncs.solve1, A[0], b[0]), np.linalg.solve(A[0], b[0])),
            (lapack(gufuncs.solve, A[0], b[0, :, None]), np.linalg.solve(A[0], b[0, :, None])),
            (lapack(gufuncs.solve, A, b[..., None]), np.linalg.solve(A, b[..., None])),
            (lapack(gufuncs.inv, A[0]), np.linalg.inv(A[0])),
            (lapack(gufuncs.inv, A), np.linalg.inv(A))):
        assert got.shape == want.shape and np.array_equal(got, want)
    S = A.copy()
    S[2, :, 0] = 0.0  # one singular matrix in the stack: a zero column
    for call in (lambda: lapack(gufuncs.solve1, S[2], b[2]), lambda: np.linalg.solve(S[2], b[2]),
                 lambda: lapack(gufuncs.solve, S, b[..., None]),
                 lambda: np.linalg.solve(S, b[..., None]),
                 lambda: lapack(gufuncs.inv, S), lambda: np.linalg.inv(S)):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            call()


@st.composite
def spd_quadratics(draw):
    n = draw(st.integers(1, 3))
    M = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    lin = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    Q = M.reshape(n, n) @ M.reshape(n, n).T + draw(st.floats(0.2, 2.0)) * np.eye(n)
    return quadratic_field(Q, BoxDomain.cube(n, halfwidth=draw(st.floats(0.5, 3.0))),
                           lin=lin, const=draw(st.floats(-2.0, 2.0)))


@st.composite
def separable_convex_fields(draw):
    n = draw(st.integers(1, 3))
    a, b = (np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
            for _ in range(2))
    c = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    return ScalarField(
        n, lambda x: float(a @ np.cosh(x) + b @ np.exp(x) + 0.5 * c @ x ** 2),
        BoxDomain.cube(n, halfwidth=draw(st.floats(0.5, 2.0))),
        gradient=lambda x: a * np.sinh(x) + b * np.exp(x) + c * x,
        hessian=lambda x: np.diag(a * np.cosh(x) + b * np.exp(x) + c))


@settings(max_examples=40)
@given(st.one_of(spd_quadratics(), separable_convex_fields()), st.integers(0, 1000))
def test_closed_form_biconjugate_is_the_nested_transform(K, seed):
    samples = 12
    pair = make_legendre_pair(K, samples=samples, seed=seed)
    # the oracle: (K*)*(x) by a second Newton solve, on K*, from z = grad K(x)
    nested = 0.0
    for x in K.domain.shrink(0.98).sample(samples, seed=seed + 1):
        _, kss = legendre_transform(pair.Kstar, x, x_init=K.grad(x))
        nested = max(nested, abs(kss - K(x)) / (1.0 + abs(K(x))))
    # both gaps are relative to 1 + |K(x)|, so 1e-15 here is 1e-15 (1 + |K|) on the values
    assert abs(pair.margins["biconjugate_gap"] - nested) <= 1e-15
    assert pair.margins["round_trip_gap"] <= 1e-8
    assert pair.margins["hessian_inverse_gap"] <= 1e-6
    assert pair.margins["biconjugate_gap"] <= 1e-8


@settings(max_examples=40)
@given(st.one_of(spd_quadratics(), separable_convex_fields()), st.integers(0, 1000))
def test_lockstep_rows_are_the_per_point_inverse(K, seed):
    # spd_quadratics are batched fields, separable_convex_fields take the per-row fallback
    Z = K.grad_rows(K.domain.shrink(0.98).sample(12, seed=seed))
    X = legendre._invert(K, Z)
    pair = make_legendre_pair(K, samples=12, seed=seed, verify=False)
    np.testing.assert_array_max_ulp(X, np.array([pair.inverse(z) for z in Z]), maxulp=2)


def test_quadratic_block_conjugate_takes_no_newton_solve(monkeypatch):
    from recipkit.models import SwingModel

    split = SwingModel().conversion_split()
    calls = count_solves(monkeypatch)
    pair1 = make_legendre_pair(split.H1, verify=False)
    zs = split.H1.grad_rows(split.H1.domain.shrink(0.9).sample(8, seed=2))
    Minv = 1.0 / SwingModel().M
    for z in zs:
        # the closed form Q^-1 z with Q = diag(1/M), exact as the Newton step it replaces
        np.testing.assert_allclose(pair1.inverse(z), z / Minv, rtol=1e-15)
        assert np.array_equal(pair1.Kstar.hess(z), np.diag(1.0 / Minv))
    np.testing.assert_allclose(pair1.inverse(zs), zs / Minv, rtol=1e-15)
    assert calls == {"point": 0, "batched": []}
    # -gamma cos q declares its conjugate gradient arcsin(z/gamma), so the H2 block takes
    # no Newton solve either
    pair2 = make_legendre_pair(split.H2, verify=False)
    z = split.H2.grad(np.array([0.4]))
    np.testing.assert_allclose(pair2.inverse(z), [0.4], atol=1e-12)
    pair2.Kstar.hess(z)
    assert calls == {"point": 0, "batched": []}


def declared_fields() -> dict:
    """Fields that declare their conjugate gradient: swing's branch block -gamma cos q
    (batched) and x^4/4 with cbrt (one point per call)."""
    from recipkit.models import SwingModel

    return {"swing-branch": SwingModel().conversion_split().H2,
            "quartic": dataclasses.replace(quartic_1d(), conjugate_gradient=np.cbrt)}


@pytest.mark.parametrize("name", ["swing-branch", "quartic"])
def test_declared_conjugate_is_the_newton_pair_in_closed_form(monkeypatch, name):
    K = declared_fields()[name]
    calls = count_solves(monkeypatch)
    pair = make_legendre_pair(K)
    assert pair.margins["round_trip_gap"] <= 1e-8
    assert pair.margins["hessian_inverse_gap"] <= 1e-6
    assert pair.margins["biconjugate_gap"] <= 1e-8
    Z = K.grad_rows(K.domain.shrink(0.9).sample(16, seed=3))
    X = pair.inverse(Z)
    # a stack is its points bit for bit, and no Newton solve is made for either
    assert np.array_equal(X, [pair.inverse(z) for z in Z])
    assert np.array_equal(X, K.conjugate_gradient(Z))
    H = [pair.Kstar.hess(z) for z in Z]
    assert calls == {"point": 0, "batched": []}
    # the Newton pair of the same field, without the declaration, agrees
    newton = make_legendre_pair(dataclasses.replace(K, conjugate_gradient=None))
    np.testing.assert_allclose(X, newton.inverse(Z), atol=1e-12)
    np.testing.assert_allclose(H, [newton.Kstar.hess(z) for z in Z], rtol=1e-9)


@pytest.mark.parametrize("verify", [True, False])
def test_a_misdeclared_conjugate_fails_the_round_trip(verify):
    from recipkit.models import SwingModel

    H2 = dataclasses.replace(SwingModel().conversion_split().H2,
                             conjugate_gradient=lambda z: np.arcsin(z / (2.0 * SwingModel.gamma)))
    with pytest.raises(AssumptionError, match=r"^assumption round-trip: grad K\* o grad K gap "):
        make_legendre_pair(H2, verify=verify)


def test_declared_conjugate_outside_its_codomain_goes_on_to_newton(monkeypatch):
    # |z| > gamma has no preimage: the declared arcsin is NaN there, without a RuntimeWarning
    # (an error under this suite's filter), and Newton fails as the undeclared pair does
    calls = count_solves(monkeypatch)
    pair = make_legendre_pair(declared_fields()["swing-branch"])
    with pytest.raises(ConvergenceError, match=r"^Newton stalled .* at z=\[1\.2\] .*"
                                               r"starts tried: \[0\.\], \[0\.22\], \[-0\.22\]$"):
        pair.inverse([1.2])
    with pytest.raises(ConvergenceError, match=r"^Newton stalled .* at z=\[-1\.5\] "):
        pair.Kstar.hess([-1.5])
    with pytest.raises(ConvergenceError, match=r"^row 1 of 2: Newton stalled .* at z=\[-1\.5\] "):
        pair.inverse(np.array([[0.5], [-1.5]]))
    # three starts each for the point and Kstar.hess's point, and the two offset starts for
    # the stack's row 1, which the lockstep solve failed from the center
    assert calls == {"point": 3 + 3 + 2, "batched": [2]}


def test_a_declared_conjugate_returning_a_list_inverts_to_an_array():
    K = dataclasses.replace(quartic_1d(), conjugate_gradient=lambda z: [float(np.cbrt(z[0]))])
    pair = make_legendre_pair(K)
    x = pair.inverse([0.5])
    assert type(x) is np.ndarray and x.dtype == float and x.shape == (1,)
    assert np.array_equal(x, np.cbrt([0.5]))
    assert np.array_equal(pair.inverse(np.array([[0.5], [-0.2]])), np.cbrt([[0.5], [-0.2]]))


@pytest.mark.parametrize("batched", [False, True])
def test_a_declared_conjugate_of_the_wrong_length_is_a_dimension_mismatch(batched):
    # one point per call: rows of length 2 for a 1-D field; batched: a point's x of length 2
    from recipkit.cli import ERROR_EXITS, EXIT_INPUT

    if batched:
        K = dataclasses.replace(quadratic_field(np.eye(1), BoxDomain.cube(1)), conjugate_gradient=(
            lambda z: np.concatenate([z, z]) if np.ndim(z) == 1 else np.array(z)))
        pair = make_legendre_pair(K)
        call = lambda: pair.inverse([0.5])
    else:
        K = dataclasses.replace(quartic_1d(),
                                conjugate_gradient=lambda z: np.array([np.cbrt(z[0]), 0.0]))
        call = lambda: make_legendre_pair(K)
    with pytest.raises(DimensionMismatchError, match=r"^expected length 1, got 2$") as info:
        call()
    assert next(code for types, code, _ in ERROR_EXITS if isinstance(info.value, types)) \
        == EXIT_INPUT


def test_swing_conversion_and_its_simulation_take_no_newton_solve(monkeypatch):
    from recipkit.dynamics import ph_to_hessian_pseudo_gradient, simulate_pseudo_gradient
    from recipkit.models import SwingModel

    swing = SwingModel()
    calls = count_solves(monkeypatch)
    res = ph_to_hessian_pseudo_gradient(swing.as_port_hamiltonian(), swing.conversion_split())
    # both blocks invert in closed form: the verification, every midpoint Newton iterate's
    # mass matrix hess K and the storage channel
    x0 = 0.25 * res.system.domain.upper
    traj = simulate_pseudo_gradient(res.system, x0, lambda t: np.zeros(1), (0.0, 0.015), 1e-3,
                                    enforce_domain=False)
    assert len(traj.times) == 16
    assert calls == {"point": 0, "batched": []}


def test_closed_form_pair_margins_match_newton_on_quadratics(monkeypatch):
    K = field_registry()["quadratic"]
    pair = make_legendre_pair(K, samples=40, seed=3)
    X = K.domain.shrink(0.98).sample(40, seed=4)
    Z = K.grad_rows(X)
    # the closed form and the lockstep Newton solve agree bit for bit on this box
    assert np.array_equal(pair.inverse(Z), legendre._invert(K, Z))
    assert all(gap <= 1e-12 for gap in pair.margins.values())
    # a shifted quadratic is not homogeneous of degree 2, but declares its conjugate too
    shifted = quadratic_field(np.eye(2), BoxDomain.cube(2), lin=[0.3, -0.2])
    assert not homogeneity_check(shifted).degree2
    calls = count_solves(monkeypatch)
    assert make_legendre_pair(shifted, samples=20, seed=0).margins["round_trip_gap"] <= 1e-8
    assert calls == {"point": 0, "batched": []}


def declaring_quadratics() -> dict:
    """Quadratics with a linear term, on a box without 0, and a JSON polynomial with a
    linear term, 0.5 (2 x0^2 + x0 x1 + x1^2) + 0.3 x0 - 0.2 x1."""
    terms = [([2, 0], 1.0), ([1, 1], 0.5), ([0, 2], 0.5), ([1, 0], 0.3), ([0, 1], -0.2)]
    polynomial = {"polynomial": {
        "dim": 2, "terms": [{"exponents": e, "coeff": c} for e, c in terms],
        "domain": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]}}}
    return {"linear-term": quadratic_field(np.eye(2), BoxDomain.cube(2), lin=[0.3, -0.2]),
            "box-without-0": quadratic_field([[2.0, 0.5], [0.5, 1.0]],
                                             BoxDomain([0.5, 0.5], [1.5, 1.5])),
            "json-polynomial": parse_field(polynomial, "K")}


@pytest.mark.parametrize("name", ["linear-term", "box-without-0", "json-polynomial"])
def test_a_quadratic_declares_its_conjugate_and_takes_no_newton_solve(monkeypatch, name):
    K = declaring_quadratics()[name]
    assert K.conjugate_gradient is not None
    calls = count_solves(monkeypatch)
    pair = make_legendre_pair(K)
    Z = K.grad_rows(K.domain.shrink(0.9).sample(16, seed=3))
    X = pair.inverse(Z)
    assert np.array_equal(X, [pair.inverse(z) for z in Z])
    H = pair.Kstar.hess_rows(Z)
    assert calls == {"point": 0, "batched": []}
    np.testing.assert_allclose(X, legendre._invert(K, Z), rtol=0, atol=1e-12)
    Qinv = np.linalg.inv(K.hess(K.domain.center))
    np.testing.assert_allclose(H, np.broadcast_to(Qinv, H.shape), rtol=1e-12)


def test_a_singular_or_non_quadratic_field_declares_no_conjugate():
    assert quadratic_field(np.diag([1.0, 0.0]), BoxDomain.cube(2)).conjugate_gradient is None
    box = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    for terms in ([([1, 0], 0.3), ([0, 1], -0.2), ([0, 0], 1.0)],  # degree 1: Q = 0
                  [([2, 0], 0.5), ([0, 2], 0.5), ([0, 4], 0.1)]):  # degree 4
        spec = {"polynomial": {"dim": 2, "terms": [{"exponents": e, "coeff": c}
                                                   for e, c in terms], "domain": box}}
        assert parse_field(spec, "K").conjugate_gradient is None


def test_kstar_hess_refuses_the_covectors_inverse_refuses():
    # the registry quadratic's Kstar box holds z = (0.196, -2.648), whose Q^-1 z lies
    # outside K's inflated box: inverse, Kstar and Kstar.hess all refuse it, at a point
    # and as a stack's row
    pair = make_legendre_pair(field_registry()["quadratic"])
    z = np.array([0.196, -2.648])
    assert pair.Kstar.domain.contains(z)
    for evaluate in (pair.inverse, pair.Kstar, pair.Kstar.hess):
        with pytest.raises(ConvergenceError,
                           match=r"^Newton stalled .* at z=\[ 0\.196 -2\.648\] "):
            evaluate(z)
    for rows in (pair.Kstar.value_rows, pair.Kstar.grad_rows, pair.Kstar.hess_rows):
        with pytest.raises(ConvergenceError, match=r"^row 1 of 2: Newton stalled "):
            rows(np.array([[0.1, 0.2], z]))


@st.composite
def invertible_quadratics(draw):
    """(Q, b, box): Q symmetric with eigenvalues of modulus in [0.5, 2] and either sign,
    b in [-1, 1]^n, and a box whose sides are [lower, lower + width], which may miss 0."""
    n = draw(st.integers(1, 3))

    def floats(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    U = np.linalg.qr(floats(-1.0, 1.0, n * n).reshape(n, n))[0]  # orthogonal
    signs = np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)), 1.0, -1.0)
    Q = U @ np.diag(signs * floats(0.5, 2.0, n)) @ U.T
    lower = floats(-2.0, 1.0, n)
    return 0.5 * (Q + Q.T), floats(-1.0, 1.0, n), BoxDomain(lower, lower + floats(0.5, 3.0, n))


@settings(max_examples=40)
@given(invertible_quadratics(), st.integers(0, 1000))
def test_an_invertible_quadratic_inverts_by_its_declared_conjugate(quadratic, seed):
    Q, b, box = quadratic
    K = quadratic_field(Q, box, lin=b)
    Z = K.grad_rows(box.shrink(0.9).sample(8, seed=seed))
    with pytest.MonkeyPatch.context() as patch:
        calls = count_solves(patch)
        pair = make_legendre_pair(K, samples=12, seed=seed)
        X = [pair.inverse(z) for z in Z]
    assert calls == {"point": 0, "batched": []}
    assert np.array_equal(X, [np.linalg.solve(Q, z - b) for z in Z])


def test_newton_iteration_budget_is_enforced_by_both_kernels(monkeypatch):
    monkeypatch.setattr(legendre, "NEWTON_MAX_ITER", 1)
    fields = field_registry()
    # a quadratic converges on the one allowed iteration, so the point kernel returns
    K = fields["quadratic"]
    x, _ = legendre_transform(K, [0.3, -0.4])
    np.testing.assert_allclose(K.grad(x), [0.3, -0.4], atol=1e-12)
    with pytest.raises(ConvergenceError, match=r"^Newton did not reach residual 1e-12 in 1 "
                                               r"iterations solving grad K = z at z=\[ 1\.5 -1\. \]"):
        legendre_transform(fields["cosh"], [1.5, -1.0])
    with pytest.raises(ConvergenceError, match=r"^row 0 of 2: Newton did not reach residual "
                                               r"1e-12 in 1 iterations .*; starts tried: "
                                               r"\[0\. 0\.\], \[ 0\.3 -0\.3\], \[-0\.3 -0\.3\]$"):
        legendre._invert(fields["cosh"], np.array([[1.5, -1.0], [0.5, 0.2]]))
