"""A sampled check never passes on a non-finite residual or on zero points.

Each case plants NaN on part of the sampled set (half of the box, the
2x-scaled homogeneity points, one input column, an overflowing impulse
response) or in one entry of a matrix argument, and expects a negative
verdict or a RecipkitError, never a pass.  A sample count of zero is a
DimensionMismatchError, never a vacuous pass.
"""

import dataclasses

import numpy as np
import pytest

from recipkit.core import (
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    NonlinearSystem,
    RecipkitError,
    ScalarField,
    SignatureMatrix,
    quadratic_field,
    validate_metric_field,
    validate_scalar_field,
)
from recipkit.dynamics import (
    HessianPseudoGradientSystem,
    certify_relaxation,
    ph_to_hessian_pseudo_gradient,
)
from recipkit.geometry import flatness_check
from recipkit.legendre import homogeneity_check, make_legendre_pair
from recipkit.linear import LinearPseudoGradientForm, LinearSystem, impulse_response_symmetry
from recipkit.models import BraytonMoserModel, SwingModel
from recipkit.reciprocity import (
    check_reciprocity,
    check_reciprocity_affine,
    check_reciprocity_hessian,
    is_hessian_metric,
)

# the planted NaNs make numpy warn on the way to each negative verdict
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def nan_where(fn, bad):
    """fn with NaN added to its value at the points x where bad(x) holds; a stack of
    points, which a batched system is given, gets its NaN per row at the same points."""
    def planted(x, *rest):
        out = np.asarray(fn(x, *rest), dtype=float)
        if np.ndim(x) == 1:
            return out + (np.nan if bad(x) else 0.0)
        rows = np.array([bad(row) for row in x], dtype=bool)
        return out + np.where(rows, np.nan, 0.0).reshape(rows.shape + (1,) * (out.ndim - 1))
    return planted


def right_half(x):
    return x[0] > 0.0


def brayton_moser():
    return BraytonMoserModel(
        L=np.array([1.0]), C=np.array([0.5]), lam=np.array([[1.0]]),
        R=np.array([0.7]), Gc=np.array([0.4]), quartic=np.array([0.5]),
        co_content_sign=1.0,
    )


def affine_case(column):
    bm = brayton_moser()
    sys = bm.as_affine()
    sys = dataclasses.replace(sys, **{column: nan_where(getattr(sys, column), right_half)})
    return check_reciprocity_affine(sys, bm.metric_field(), bm.sigma(), n_samples=40).reciprocal


def general_case():
    bm = brayton_moser()
    sys = bm.as_affine().to_general()
    sys = dataclasses.replace(sys, F=nan_where(sys.F, right_half))
    return check_reciprocity(sys, bm.metric_field(), bm.sigma(), n_samples=40).reciprocal


def hessian_case():
    box = BoxDomain.cube(1, 1.5)
    sys = NonlinearSystem(1, 1, F=nan_where(lambda x, u: -x + u, right_half),
                          H=lambda x, u: x, domain=box)
    K = quadratic_field(np.eye(1), box)
    return check_reciprocity_hessian(sys, K, SignatureMatrix.identity(1), n_samples=40).reciprocal


def nan_metric():
    return MetricField(2, nan_where(lambda x: np.diag([2.0, 1.0]), right_half),
                       BoxDomain.cube(2, 1.0))


def relaxation_case():
    box = BoxDomain.cube(1, 2.0)
    P = quadratic_field(np.eye(1), box)
    P = ScalarField(1, P.value, box, gradient=nan_where(P.gradient, right_half),
                    hessian=P.hessian)
    sys = HessianPseudoGradientSystem.from_internal_potential(
        quadratic_field(np.eye(1), box), P, np.ones((1, 1)), SignatureMatrix.identity(1))
    return certify_relaxation(sys, n_samples=40).relaxation


def nan_field(**where):
    """|x|^2/2 on [-1, 1]^2, NaN where asked in value, gradient or hessian."""
    parts = {"value": lambda x: 0.5 * float(x @ x), "gradient": lambda x: x,
             "hessian": lambda x: np.eye(2)}
    parts.update({key: nan_where(parts[key], bad) for key, bad in where.items()})
    return ScalarField(2, parts["value"], BoxDomain.cube(2, 1.0), parts["gradient"],
                       parts["hessian"])


def swing_ph_with_nan_dissipation():
    ph = SwingModel().as_port_hamiltonian()
    return dataclasses.replace(ph, R=nan_where(ph.R, right_half))


def conversion_case():
    ph_to_hessian_pseudo_gradient(swing_ph_with_nan_dissipation(),
                                  SwingModel().conversion_split())
    return True


def impulse_case():
    # e^{800 t} overflows, so C e^{At} B holds inf * 0 = NaN
    sys = LinearSystem(A=np.diag([800.0, -1.0]), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)))
    return impulse_response_symmetry(sys, SignatureMatrix.identity(2), [0.5, 1.0]).symmetric


def pseudo_gradient_form(G, P):
    return LinearPseudoGradientForm(np.array(G), np.array(P), np.array([[1.0, 0.0]]),
                                    np.zeros((1, 1)), SignatureMatrix.identity(1))


def returns(check, *args, **kwargs):
    """A check that reports by raising passes whenever it returns."""
    return lambda: check(*args, **kwargs) is not None


# case -> zero-argument callable giving the verdict (True means the check passed)
CASES = {
    "check_reciprocity_affine": lambda: affine_case("f"),
    "check_reciprocity_affine-g-only": lambda: affine_case("g"),
    "check_reciprocity": general_case,
    "check_reciprocity_hessian": hessian_case,
    "is_hessian_metric": lambda: is_hessian_metric(nan_metric())["hessian"],
    "certify_relaxation": relaxation_case,
    "flatness_check": lambda: flatness_check(nan_field(hessian=right_half), n_samples=20),
    "homogeneity_check": lambda: homogeneity_check(
        nan_field(value=lambda x: np.max(np.abs(x)) > 0.5), samples=50).degree2,
    "make_legendre_pair": returns(make_legendre_pair, nan_field(value=right_half), samples=50),
    "impulse_response_symmetry": impulse_case,
    "LinearPseudoGradientForm-P": returns(pseudo_gradient_form, np.eye(2),
                                          [[1.0, np.nan], [0.0, 1.0]]),
    "LinearPseudoGradientForm-G": returns(pseudo_gradient_form, [[1.0, np.nan], [0.0, 1.0]],
                                          np.eye(2)),
    "validate_scalar_field": returns(validate_scalar_field, nan_field(gradient=right_half)),
    "validate_metric_field": returns(validate_metric_field, nan_metric()),
    "PortHamiltonianSystem.validate": returns(
        lambda: swing_ph_with_nan_dissipation().validate()),
    "ph_to_hessian_pseudo_gradient": conversion_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_residual_never_passes(case):
    try:
        passed = CASES[case]()
    except RecipkitError:
        return
    assert not passed


def cosh_field():
    return ScalarField(2, lambda x: float(np.sum(np.cosh(x))), BoxDomain.cube(2, 1.0),
                       gradient=np.sinh, hessian=lambda x: np.diag(np.cosh(x)))


def relaxation_system():
    box = BoxDomain.cube(1, 2.0)
    return HessianPseudoGradientSystem.from_internal_potential(
        quadratic_field(np.eye(1), box), quadratic_field(np.eye(1), box), np.ones((1, 1)),
        SignatureMatrix.identity(1))


def affine_on_zero_points(bm):
    return check_reciprocity_affine(bm.as_affine(), bm.metric_field(), bm.sigma(), n_samples=0)


# sampled check -> a zero-argument call of it on zero points
ZERO_POINT_CASES = {
    "homogeneity_check": lambda: homogeneity_check(cosh_field(), samples=0),
    "check_reciprocity_affine": lambda: affine_on_zero_points(brayton_moser()),
    "certify_relaxation": lambda: certify_relaxation(relaxation_system(), n_samples=0),
    "flatness_check": lambda: flatness_check(cosh_field(), n_samples=0),
    "make_legendre_pair": lambda: make_legendre_pair(cosh_field(), samples=0),
}


@pytest.mark.parametrize("case", sorted(ZERO_POINT_CASES))
def test_zero_sample_points_are_refused(case):
    with pytest.raises(DimensionMismatchError):
        ZERO_POINT_CASES[case]()
