import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import qmc

from recipkit import core
from recipkit.core import (
    AffineNonlinearSystem,
    AssumptionError,
    BoxDomain,
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    MetricField,
    NonlinearSystem,
    Polynomial,
    ScalarField,
    SignatureMatrix,
    SingularMatrixError,
    as_matrix,
    as_vector,
    finite_difference_jacobian,
    hessian_from_value,
    integrate_segment,
    quadratic_field,
    symmetry_residual,
    validate_metric_field,
    validate_scalar_field,
)
from recipkit.geometry import levi_civita


def test_as_vector_shapes():
    v = as_vector([1.0, 2.0])
    assert v.shape == (2,)
    assert v.dtype == float
    assert as_vector(3.0, 1).shape == (1,)
    with pytest.raises(DimensionMismatchError):
        as_vector([1.0, 2.0], 3)
    with pytest.raises(DimensionMismatchError):
        as_vector(np.eye(2))


def test_as_matrix_shape_is_exact():
    M = as_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert M.shape == (2, 2)
    # 1-D input promotes to a row
    assert as_matrix([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(DimensionMismatchError):
        as_matrix(M, (2, 3))


def test_valid_float64_arrays_pass_as_themselves():
    v = np.array([1.0, 2.0])
    assert as_vector(v) is v and as_vector(v, 2) is v
    view = np.arange(6.0)[::2]
    assert as_vector(view, 3) is view
    M = np.eye(2)
    assert as_matrix(M) is M and as_matrix(M, (2, 2)) is M
    assert as_matrix(M, [2, 2]) is M


@pytest.mark.parametrize("x", [[1, 2], 3, 2.5, np.array(4.0), np.array([1.5, 2.5], np.float32),
                               np.array([1, 2]), np.array([1.0, 2.0], ">f8"), (0.5,)])
def test_as_vector_converts_other_input_as_before(x):
    v = as_vector(x)
    assert v is not x
    assert v.dtype == np.float64 and v.dtype.isnative
    np.testing.assert_array_equal(v, np.atleast_1d(np.asarray(x, dtype=float)))


@pytest.mark.parametrize("M", [[[1, 2], [3, 4]], 3, np.array(2.0), [1.0, 2.0],
                               np.eye(2, dtype=np.float32), np.eye(2, dtype=int),
                               np.eye(2).astype(">f8")])
def test_as_matrix_converts_other_input_as_before(M):
    A = as_matrix(M)
    assert A is not M
    assert A.dtype == np.float64 and A.dtype.isnative
    np.testing.assert_array_equal(A, np.atleast_2d(np.asarray(M, dtype=float)))


def test_shape_checks_still_raise_on_float64_arrays():
    with pytest.raises(DimensionMismatchError, match="expected length 3, got 2"):
        as_vector(np.zeros(2), 3)
    with pytest.raises(DimensionMismatchError, match="expected a vector"):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError, match="expected a vector"):
        as_vector(np.zeros((1, 2)), 2)
    with pytest.raises(DimensionMismatchError, match=r"expected shape \(2, 3\)"):
        as_matrix(np.zeros((2, 2)), (2, 3))
    with pytest.raises(DimensionMismatchError, match=r"expected shape \(2, 2\)"):
        as_matrix(np.zeros(4), (2, 2))
    with pytest.raises(DimensionMismatchError, match=r"expected shape \(1, 2\)"):
        as_matrix(np.zeros((1, 1, 2)), (1, 2))


def test_symmetry_residual():
    assert symmetry_residual(np.eye(3)) == 0.0
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert symmetry_residual(M) == pytest.approx(2.0)


def test_box_domain_basics():
    box = BoxDomain(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert box.dim == 2
    np.testing.assert_allclose(box.center, [0.0, 1.0])
    np.testing.assert_allclose(box.width, [2.0, 2.0])
    assert box.contains([0.5, 1.5])
    assert not box.contains([1.5, 1.0])
    assert box.contains([1.0, 2.0])  # closed: the corners are inside
    with pytest.raises(DomainError):
        BoxDomain(np.array([1.0]), np.array([0.0]))


def test_box_test_is_the_numpy_expression():
    # random rows, rows exactly on a bound (0 among them, met by -0.0 too), and rows
    # holding NaN or an infinity, each alone or beside in-box coordinates
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([3.0, 0.75, 9.0])
    inside, rng = core._box_test(lo, hi), np.random.default_rng(11)
    rows = list(rng.uniform(lo - 1.0, hi + 1.0, (200, 3)))
    rows += [np.where(rng.random(3) < 0.5, lo, hi) for _ in range(20)]
    rows += [np.array([3.0, -0.0, 9.0]), np.array([-1.0, 0.75, 9.0 + 1e-15])]
    for special in (np.nan, np.inf, -np.inf):
        for mask in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]):
            rows.append(np.where(mask, special, 0.5 * (lo + hi)))
    found = [inside(x) for x in rows]
    assert found == [bool(((x >= lo) & (x <= hi)).all()) for x in rows]
    assert all(type(f) is bool for f in found) and True in found and False in found
    everything = core._box_test(np.full(2, -np.inf), np.full(2, np.inf))
    assert everything(np.array([np.inf, -np.inf])) and not everything(np.array([0.0, np.nan]))


def test_box_domain_sample_inside_and_deterministic():
    box = BoxDomain.cube(3, halfwidth=2.0)
    pts = box.sample(40, seed=3)
    assert pts.shape == (40, 3)
    for p in pts:
        assert box.contains(p)
    np.testing.assert_array_equal(pts, box.sample(40, seed=3))
    # a fresh, writable array: mutating it leaves the memoized design, and the next draw, as is
    ref = pts.copy()
    pts[:] = 0.0
    assert np.array_equal(box.sample(40, seed=3), ref)



@pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, True, np.True_, "4", None])
def test_box_domain_sample_needs_a_positive_integer_count(n):
    with pytest.raises(DimensionMismatchError):
        BoxDomain.cube(2).sample(n)


def test_box_domain_sample_takes_a_numpy_integer_count():
    box = BoxDomain.cube(2)
    np.testing.assert_array_equal(box.sample(np.int64(5)), box.sample(5))
    # numpy integers key the design as Python ints: one shared key, drawn once
    core._halton_memo.cache_clear()
    np.testing.assert_array_equal(box.sample(np.int64(5), seed=np.int64(3)), box.sample(5, seed=3))
    info = core._halton_memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_halton_design_is_memoized_read_only():
    core._halton_memo.cache_clear()
    design = core._halton(40, 3, 7)
    assert not design.flags.writeable
    with pytest.raises(ValueError):
        design[0, 0] = 0.5
    assert core._halton(40, 3, 7) is design
    # a hit is the miss's table, equal bit for bit to a fresh draw
    assert np.array_equal(design, core._halton_draw(40, 3, 7))
    info = core._halton_memo.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 1, core.HALTON_MEMO_ENTRIES)


def test_halton_draws_afresh_over_the_cap_and_for_other_seeds():
    n = core.HALTON_MEMO_POINTS // 2
    core._halton(n, 2, 0)  # n * dim at the cap is kept
    before = core._halton_memo.cache_info()
    big = core._halton(n + 1, 2, 0)
    assert np.array_equal(big[:n], core._halton(n, 2, 0))
    # a SeedSequence draws the int seed's design; None draws fresh entropy each time
    assert np.array_equal(core._halton(8, 2, np.random.SeedSequence(3)), core._halton_draw(8, 2, 3))
    assert not np.array_equal(core._halton(8, 2, None), core._halton(8, 2, None))
    assert core._halton(8, 2, [1, 2]).shape == (8, 2)  # unhashable, never keyed
    after = core._halton_memo.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert after.hits == before.hits + 1  # the one draw at the cap

def test_halton_equals_scipy_scrambled_halton():
    for d in range(1, 9):
        for seed in (0, 1, 7, 123, 2024, 99991):
            for n in (1, 7, 30, 257, 1000):
                ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
                assert np.array_equal(core._halton(n, d, seed), ref), (d, seed, n)
    box = BoxDomain(np.array([-1.0, 0.5, 2.0]), np.array([3.0, 0.75, 9.0]))
    shrink = 1e-9 * box.width
    ref = (box.lower + shrink) + qmc.Halton(d=3, scramble=True, seed=5).random(40) \
        * (box.width - 2 * shrink)
    assert np.array_equal(box.sample(40, seed=5), ref)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.integers(1, 1000))
def test_halton_equals_scipy_property(d, seed, n):
    ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
    assert np.array_equal(core._halton(n, d, seed), ref)
    # the draw itself, not only the memo's miss path
    assert np.array_equal(core._halton_draw(n, d, seed), ref)


def test_box_domain_grid_product_shrink():
    a = BoxDomain.cube(1, halfwidth=1.0)
    b = BoxDomain.cube(2, halfwidth=2.0)
    prod = BoxDomain.product(a, b)
    assert prod.dim == 3
    g = prod.grid(3)
    assert g.shape == (27, 3)
    s = prod.shrink(0.5)
    np.testing.assert_allclose(s.width, 0.5 * prod.width)
    np.testing.assert_allclose(s.center, prod.center)


def test_finite_difference_gradient_and_jacobian():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    for _ in range(5):
        x = rng.normal(size=3)
        g = finite_difference_jacobian(lambda v: float(np.sin(v[0]) + v[1] * v[2]), x)
        np.testing.assert_allclose(g, [np.cos(x[0]), x[2], x[1]], atol=1e-7)
        J = finite_difference_jacobian(lambda v: A @ v, x)
        np.testing.assert_allclose(J, A, atol=1e-8)


@st.composite
def quadratic_maps(draw):
    """F(v) = 0.5 Q[..., i, j] v_i v_j + A[..., i] v_i with scalar, vector or matrix values."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    coef = st.floats(-3.0, 3.0)
    Q = draw(hnp.arrays(float, shape + (n, n), elements=coef))
    A = draw(hnp.arrays(float, shape + (n,), elements=coef))
    # components far from the origin exercise the relative step
    x = np.array(draw(st.lists(st.one_of(st.floats(-2.0, 2.0), st.floats(-1e6, 1e6)),
                               min_size=n, max_size=n)))
    return Q, A, x


@given(quadratic_maps())
def test_finite_difference_jacobian_matches_quadratic_maps(case):
    Q, A, x = case
    F = lambda v: 0.5 * np.einsum("...ij,i,j->...", Q, v, v) + np.einsum("...i,i->...", A, v)
    exact = 0.5 * np.einsum("...ij,j->...i", Q + np.swapaxes(Q, -1, -2), x) + A
    J = finite_difference_jacobian(F, x)
    assert J.shape == exact.shape
    # central differences are exact on quadratics up to rounding: of F's terms
    # over the step, and of x +- step over the step itself
    steps = np.maximum(1e-6, 1e-6 * np.abs(x))
    size = 1.0 + np.max(np.abs(Q), initial=0.0) * np.sum(np.abs(x)) ** 2 \
        + np.max(np.abs(A), initial=0.0) * np.sum(np.abs(x))
    tol = 1e-14 * size / steps + 1e-10 * (1.0 + np.abs(exact))
    assert np.all(np.abs(J - exact) <= tol)


def test_hessian_from_value_quadratic():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    H = hessian_from_value(lambda v: 0.5 * v @ Q @ v, np.array([0.3, -0.2]))
    np.testing.assert_allclose(H, Q, atol=1e-6)


def test_scalar_field_fd_fallbacks_match_analytic():
    box = BoxDomain.cube(2, halfwidth=1.0)
    value = lambda x: float(np.cosh(x[0]) + x[0] * x[1] ** 2)
    analytic = ScalarField(
        2, value, box,
        gradient=lambda x: np.array([np.sinh(x[0]) + x[1] ** 2, 2 * x[0] * x[1]]),
        hessian=lambda x: np.array([[np.cosh(x[0]), 2 * x[1]], [2 * x[1], 2 * x[0]]]),
    )
    fd = ScalarField(2, value, box)
    for x in box.sample(10, seed=1):
        np.testing.assert_allclose(fd.grad(x), analytic.grad(x), atol=1e-6)
        np.testing.assert_allclose(fd.hess(x), analytic.hess(x), atol=1e-4)


def test_scalar_field_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        ScalarField(3, lambda x: 0.0, BoxDomain.cube(2))


def test_metric_field_checked():
    # levi_civita checks the metric at its point before it differentiates it
    box = BoxDomain.cube(2)
    ok = MetricField.constant(np.diag([2.0, -1.0]), box)
    assert np.array_equal(levi_civita(ok, [0.0, 0.0]), np.zeros((2, 2, 2)))

    bad_sym = MetricField(2, lambda x: np.array([[1.0, 0.5], [0.0, 1.0]]), box)
    with pytest.raises(AssumptionError, match="asymmetry 5.000e-01"):
        levi_civita(bad_sym, [0.0, 0.0])

    # metric degenerates at x1 = 1
    sing = MetricField(2, lambda x: np.diag([x[0] - 1.0, 1.0]), box)
    with pytest.raises(SingularMatrixError):
        levi_civita(sing, [1.0, 0.0])


def test_metric_field_from_hessian():
    box = BoxDomain.cube(2)
    K = quadratic_field(np.array([[3.0, 1.0], [1.0, 2.0]]), box)
    G = MetricField.from_hessian(K)
    np.testing.assert_allclose(G([0.4, -0.7]), [[3.0, 1.0], [1.0, 2.0]])


def test_signature_matrix():
    sig = SignatureMatrix(np.array([1, -1]))
    assert sig.m == 2
    assert not sig.is_identity
    np.testing.assert_allclose(sig.matrix, np.diag([1.0, -1.0]))
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(sig.conjugate_rows(M), np.diag([1.0, -1.0]) @ M)
    assert SignatureMatrix.identity(3).is_identity
    np.testing.assert_allclose(SignatureMatrix.minus_identity(2).matrix, -np.eye(2))
    with pytest.raises(DimensionMismatchError):
        SignatureMatrix(np.array([1.0, 0.5]))
    with pytest.raises(DimensionMismatchError):  # not truncated to +1 and -1
        SignatureMatrix([1.7, -1.2])


def test_nonlinear_system_fd_jacobians():
    box = BoxDomain.cube(2)
    sys = NonlinearSystem(
        2, 1,
        F=lambda x, u: np.array([-x[0] ** 3 + u[0], x[0] - x[1]]),
        H=lambda x, u: np.array([x[0] * x[1] + 2.0 * u[0]]),
        domain=box,
    )
    x = np.array([0.3, -0.4])
    u = np.array([0.2])
    np.testing.assert_allclose(sys.jac_F_x(x, u), [[-3 * x[0] ** 2, 0.0], [1.0, -1.0]], atol=1e-7)
    np.testing.assert_allclose(sys.jac_F_u(x, u), [[1.0], [0.0]], atol=1e-8)
    np.testing.assert_allclose(sys.jac_H_x(x, u), [[x[1], x[0]]], atol=1e-7)
    np.testing.assert_allclose(sys.jac_H_u(x, u), [[2.0]], atol=1e-8)


@pytest.mark.parametrize("batched", [True, False])
def test_stacked_finite_difference_jacobian_is_the_per_point_one(batched):
    box = BoxDomain.cube(3, 4.0)  # components beyond 1 move by the relative step
    p = Polynomial(3, (((2, 1, 0), 1.0), ((0, 3, 1), 3.0), ((1, 0, 2), -0.5))).to_field(box)
    f = p if batched else ScalarField(3, p.value, box, p.gradient, p.hessian)
    xs = box.sample(40, seed=3)
    for rows, one in ((f.value_rows, f), (f.grad_rows, f.grad), (f.hess_rows, f.hess)):
        calls = []
        stacked = finite_difference_jacobian(lambda X: calls.append(len(X)) or rows(X), xs)
        assert calls == [40] * 6  # 2n calls for all the points
        assert np.array_equal(stacked, [finite_difference_jacobian(one, x) for x in xs])


@pytest.mark.parametrize("batched", [True, False])
def test_nonlinear_system_jacobians_of_stacks_are_the_per_point_ones(batched):
    box = BoxDomain.cube(2)

    def F(x, u):
        return np.stack([-x[..., 0] ** 3 + u[..., 0] * x[..., 1], x[..., 0] - x[..., 1]], -1)

    def H(x, u):
        return x[..., :1] * x[..., 1:] + 2.0 * u ** 2

    stencil = NonlinearSystem(2, 1, F, H, box, batched=batched)
    supplied = NonlinearSystem(  # derivatives that map stacks too, as batched asks
        2, 1, F, H, box, dF_du=lambda x, u: np.stack([x[..., 1:], 0.0 * x[..., 1:]], -2),
        dH_dx=lambda x, u: x[..., None, ::-1], batched=batched)
    X, U = box.sample(25, seed=1), BoxDomain.cube(1).sample(25, seed=2)
    for sys in (stencil, supplied):
        for jac in (sys.jac_F_x, sys.jac_F_u, sys.jac_H_x, sys.jac_H_u):
            assert np.array_equal(jac(X, U), [jac(x, u) for x, u in zip(X, U)])
    with pytest.raises(DimensionMismatchError):
        NonlinearSystem(2, 1, F, H, box, dH_du=lambda x, u: np.eye(2)).jac_H_u(X, U)


def test_affine_system_to_general_consistent():
    box = BoxDomain.cube(2)
    aff = AffineNonlinearSystem(
        2, 2,
        f=lambda x: np.array([-x[0], -2.0 * x[1]]),
        g=lambda x: np.array([[1.0, x[1]], [0.0, 1.0]]),
        h=lambda x: np.array([x[0], x[0] + x[1]]),
        k=lambda x: 0.1 * np.eye(2),
        domain=box,
    )
    gen = aff.to_general()
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = rng.uniform(-1, 1, size=2)
        u = rng.uniform(-1, 1, size=2)
        np.testing.assert_allclose(gen.F(x, u), aff.f(x) + aff.g(x) @ u)
        np.testing.assert_allclose(gen.H(x, u), aff.h(x) + aff.k(x) @ u)
        np.testing.assert_allclose(gen.jac_F_u(x, u), aff.g(x), atol=1e-9)
        # dF/dx picks up the state dependence of g through u
        fd = finite_difference_jacobian(lambda xx: aff.f(xx) + aff.g(xx) @ u, x)
        np.testing.assert_allclose(gen.jac_F_x(x, u), fd, atol=1e-6)


@pytest.mark.parametrize("stacked", [False, True])
def test_affine_system_refuses_a_wrong_shape_dg_dx(stacked):
    # the dg_dx shape check holds at one point and on a stack of points
    aff = AffineNonlinearSystem(
        2, 1, f=lambda x: -x, g=lambda x: np.ones(np.shape(x)[:-1] + (2, 1)),
        h=lambda x: x[..., :1], k=lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)),
        domain=BoxDomain.cube(2), df_dx=lambda x: -np.ones(np.shape(x)[:-1] + (2, 2)),
        dg_dx=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 1)))
    X, U = np.zeros((3, 2)), np.ones((3, 1))
    x, u = (X, U) if stacked else (X[0], U[0])
    with pytest.raises(DimensionMismatchError, match="dg_dx shape"):
        aff.to_general().jac_F_x(x, u)
    right = dataclasses.replace(aff, dg_dx=lambda x: np.zeros(np.shape(x)[:-1] + (1, 2, 2)))
    assert np.array_equal(right.to_general().jac_F_x(x, u), -np.ones(np.shape(x)[:-1] + (2, 2)))


def test_polynomial_derivatives():
    # p = x^2 y + 3 y^3
    p = Polynomial(2, (((2, 1), 1.0), ((0, 3), 3.0)))
    x = np.array([1.5, -0.5])
    assert p.value(x) == pytest.approx(x[0] ** 2 * x[1] + 3 * x[1] ** 3)
    np.testing.assert_allclose(p.grad(x), [2 * x[0] * x[1], x[0] ** 2 + 9 * x[1] ** 2])
    np.testing.assert_allclose(p.hess(x), [[2 * x[1], 2 * x[0]], [2 * x[0], 18 * x[1]]])
    field = p.to_field(BoxDomain.cube(2))
    assert field(x) == pytest.approx(p.value(x))
    with pytest.raises(DimensionMismatchError):
        Polynomial(2, (((1,), 1.0),))


@pytest.mark.parametrize("exponent", [2.6, 0.5, True, np.True_])
def test_polynomial_refuses_a_fractional_or_boolean_exponent(exponent):
    with pytest.raises(DimensionMismatchError, match="must be 1 nonnegative integers"):
        Polynomial(1, (((exponent,), 1.0),))
    # an integral float is the integer it names
    assert Polynomial(1, (((2.0,), 1.0),)).terms == (((2,), 1.0),)


def test_quadratic_field():
    Q = np.array([[2.0, 1.0], [1.0, 4.0]])
    b = np.array([0.5, -1.0])
    f = quadratic_field(Q, BoxDomain.cube(2), lin=b, const=2.0)
    x = np.array([0.3, 0.7])
    assert f(x) == pytest.approx(0.5 * x @ Q @ x + b @ x + 2.0)
    np.testing.assert_allclose(f.grad(x), Q @ x + b)
    np.testing.assert_allclose(f.hess(x), Q)


def test_integrate_segment_exponential():
    # int_0^1 e^t dt = e - 1
    val = integrate_segment(lambda t: np.exp(t), 0.0, 1.0)
    assert float(val) == pytest.approx(np.e - 1.0, rel=1e-12)


def test_integrate_segment_vector_valued():
    val = integrate_segment(lambda t: np.stack([np.cos(t), 2.0 * t], axis=-1), 0.0, np.pi / 2)
    np.testing.assert_allclose(val, [1.0, (np.pi / 2) ** 2], atol=1e-10)


def test_integrate_segment_budget_exhausted():
    # oscillation far beyond the node resolution never stabilizes at tol 0
    with pytest.raises(ConvergenceError,
                       match=r"within 10 doublings: at 1024 panels the last change was "
                             r"\d\.\d{3}e[+-]\d+ > 0\.000e\+00 \(tol 0\.0\)"):
        integrate_segment(lambda t: np.sin(1e6 * t), 0.0, 1.0, tol=0.0)


def test_integrate_segment_calls_integrand_once_per_pass():
    sizes = []

    def f(t):
        sizes.append(np.shape(t))
        return np.sin(60.0 * t)

    val = integrate_segment(f, 0.0, 3.0, tol=1e-12)
    assert float(val) == pytest.approx((1.0 - np.cos(180.0)) / 60.0, rel=1e-10)
    # one call for the first pass and one per doubling, each on panels * QUAD_NODES nodes
    assert len(sizes) >= 3
    assert sizes == [(core.QUAD_NODES * 2 ** k,) for k in range(len(sizes))]


@st.composite
def polynomial_integrands(draw):
    """Coefficients c[j, ...] of t^j, degree <= 63, on a subinterval of [-1, 1]."""
    degree = draw(st.integers(0, 63))
    shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    c = draw(hnp.arrays(float, (degree + 1,) + shape, elements=st.floats(-1.0, 1.0)))
    a, b = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
    assume(b - a > 1e-3)
    return c, a, b


@given(polynomial_integrands())
def test_integrate_segment_exact_on_polynomials(case):
    # one 32-node Gauss-Legendre panel integrates degree <= 63 exactly, so the
    # first doubling agrees and the result is exact up to rounding
    c, a, b = case
    powers = np.arange(c.shape[0])
    val = integrate_segment(lambda t: np.tensordot(t[:, None] ** powers, c, axes=1), a, b)
    exact = np.tensordot((b ** (powers + 1) - a ** (powers + 1)) / (powers + 1), c, axes=1)
    assert np.shape(val) == c.shape[1:]
    # rounding of the node powers, weights and up-to-64-term sums, each term
    # bounded by |c_j| on [-1, 1]
    tol = 64 * np.finfo(float).eps * (b - a) * np.sum(np.abs(c), axis=0)
    assert np.all(np.abs(val - exact) <= tol)


def test_validate_scalar_field_catches_wrong_gradient():
    box = BoxDomain.cube(2)
    good = quadratic_field(np.eye(2), box)
    report = validate_scalar_field(good)
    assert report["grad_gap"] < 1e-7

    bad = ScalarField(2, lambda x: 0.5 * float(x @ x), box,
                      gradient=lambda x: 2.0 * x)
    with pytest.raises(AssumptionError):
        validate_scalar_field(bad)


def test_validate_scalar_field_checks_the_batched_contract():
    box = BoxDomain.cube(2)
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 6):
        M = rng.standard_normal((n, n))
        validate_scalar_field(quadratic_field(M @ M.T, BoxDomain.cube(n),
                                              lin=rng.standard_normal(n)))
    # np.diag of a stack is its diagonal, not a stack of diagonal matrices
    per_point_hessian = ScalarField(2, lambda x: np.sum(np.cosh(x), axis=-1), box,
                                    gradient=np.sinh, hessian=lambda x: np.diag(np.cosh(x)),
                                    batched=True)
    with pytest.raises(AssumptionError) as info:
        validate_scalar_field(per_point_hessian)
    assert info.value.name == "field-batched" and "hess_rows" in str(info.value)
    validate_scalar_field(ScalarField(2, per_point_hessian.value, box, gradient=np.sinh,
                                      hessian=per_point_hessian.hessian))
    # a per-point value flagged batched raises on the stack, which is a failed contract
    per_point_value = ScalarField(2, lambda x: float(x @ x), box, gradient=lambda x: 2.0 * x,
                                  hessian=core._constant_rows(2.0 * np.eye(2)), batched=True)
    with pytest.raises(AssumptionError) as info:
        validate_scalar_field(per_point_value)
    assert info.value.name == "field-batched" and "value_rows" in str(info.value)


def test_validate_metric_field_checks_the_batched_contract():
    box = BoxDomain.cube(2)
    rng = np.random.default_rng(6)
    M = rng.standard_normal((2, 2))
    xs = box.sample(16, seed=3)
    for G in (MetricField.constant(M + M.T, box),
              MetricField.from_hessian(quadratic_field(M @ M.T + np.eye(2), box))):
        assert G.batched
        validate_metric_field(G)
        assert np.array_equal(G.rows(xs), [G(x) for x in xs])
    # np.diag of a stack is its diagonal, not a stack of diagonal matrices
    per_point = MetricField(2, lambda x: np.diag(2.0 + np.cos(x)), box, batched=True)
    with pytest.raises(AssumptionError) as info:
        validate_metric_field(per_point)
    assert info.value.name == "metric-batched" and "rows" in str(info.value)
    validate_metric_field(MetricField(2, per_point.eval, box))
    with pytest.raises(TypeError):  # batched is keyword-only
        MetricField(2, per_point.eval, box, True)
    # the metric of a per-point field is batched too: its rows are the per-point Hessians
    per_point_K = ScalarField(2, lambda x: float(x @ x) + float(np.sum(np.cos(x))), box)
    G = MetricField.from_hessian(per_point_K)
    assert G.batched
    assert np.array_equal(G.rows(xs), [per_point_K.hess(x) for x in xs])


def test_row_evaluators_match_the_per_point_methods():
    box = BoxDomain.cube(2)
    p = Polynomial(2, (((2, 1), 1.0), ((0, 3), 3.0), ((1, 0), -0.5))).to_field(box)
    fd = ScalarField(2, p.value, box)  # per point, derivatives by finite differences
    # one variable: a stack of 64 rows runs the power kernel on 64 contiguous bases
    p1 = Polynomial(1, (((3,), 1.0), ((2,), -0.5), ((4,), 0.25))).to_field(BoxDomain.cube(1))
    for f in (p, fd, p1):
        xs = f.domain.sample(64, seed=2)
        assert np.array_equal(f.value_rows(xs), [f(x) for x in xs])
        assert np.array_equal(f.grad_rows(xs), [f.grad(x) for x in xs])
        assert np.array_equal(f.hess_rows(xs), [f.hess(x) for x in xs])
    assert fd.grad_rows(np.empty((0, 2))).shape == (0, 2)


def test_validate_metric_field():
    box = BoxDomain.cube(2)
    worst = validate_metric_field(MetricField.constant(np.diag([1.0, -2.0]), box))
    assert worst == 0.0
    with pytest.raises(AssumptionError):
        validate_metric_field(
            MetricField(2, lambda x: np.array([[1.0, x[0]], [0.0, 1.0]]), box))
