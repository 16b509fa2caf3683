"""recipkit: reciprocal, pseudo-gradient and port-Hamiltonian system toolkit."""

from .core import (
    AffineNonlinearSystem,
    AssumptionError,
    BoxDomain,
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    MetricField,
    NonlinearSystem,
    Polynomial,
    RecipkitError,
    ScalarField,
    SchemaError,
    SignatureMatrix,
    SingularMatrixError,
    quadratic_field,
)
from .dynamics import (
    ConversionSplit,
    HessianPseudoGradientSystem,
    NotRelaxationError,
    PortHamiltonianSystem,
    Trajectory,
    certify_relaxation,
    dissipation_monitor,
    integrate_implicit_midpoint,
    ph_to_hessian_pseudo_gradient,
    simulate_port_hamiltonian,
    simulate_pseudo_gradient,
)
from .geometry import (
    external_reciprocity_test,
    flatness_check,
    hessian_christoffel,
    levi_civita,
)
from .legendre import (
    LegendrePair,
    homogeneity_check,
    legendre_transform,
    make_legendre_pair,
)
from .linear import (
    LinearPseudoGradientForm,
    LinearSystem,
    check_linear_reciprocity,
    compatible_storage_fixed_point,
    impulse_response_symmetry,
    lmi_residual,
    recover_metric_hankel,
    split_port_hamiltonian_form,
    to_pseudo_gradient,
)
from .models import (
    BraytonMoserModel,
    RcCircuitModel,
    SwingModel,
    field_registry,
    model_registry,
    random_reciprocal_system,
)
from .reciprocity import (
    check_reciprocity,
    check_reciprocity_affine,
    check_reciprocity_hessian,
    is_hessian_metric,
    reconstruct_K,
    reconstruct_potential,
)
from .schema import load_system, load_system_file

__version__ = "0.1.0"
