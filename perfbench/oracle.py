"""Pinned tolerances every benchmark verdict is checked against.

The values are copied from the test suite, not imported from it, so the
benchmark runs without ``tests/`` on the path.  Each constant names the test
that pins it.  A check is a tuple ``(label, value, op, bound)``; ``op`` is one
of ``<=``, ``>=``, ``>`` or ``is`` (a boolean that must be true).  Must-fail
cases (perturbed systems, non-reciprocal metrics) are ``>=``/``>`` checks on
the detected residual, so a must-fail case that passes is a failed verdict.
"""

# tests/test_acceptance.py::test_criterion_01_conjugate_pair_identities
ROUND_TRIP = 1e-8
BICONJUGATE = 1e-8
HESSIAN_INVERSE = 1e-6
# tests/test_acceptance.py::test_criterion_02_homogeneity_theorem
QUADRATIC_CONJUGACY_GAP = 1e-12
# tests/test_acceptance.py::test_criterion_03_impulse_symmetry_detection
IMPULSE_CLEAN = 1e-8
IMPULSE_PERTURBED_FLOOR = 1e-3          # perturbed B must exceed this
# tests/test_acceptance.py::test_criterion_04_hankel_metric_recovery
HANKEL_RELATIVE_ERROR = 1e-4
# tests/test_acceptance.py::test_criterion_05_compatibility_fixed_point
FIXED_POINT_GAP = 1e-10
FIXED_POINT_ITERATIONS = 100
COMPATIBILITY_GAP = 1e-10
LMI_MIN_EIGENVALUE = -1e-8
# tests/test_acceptance.py::test_criterion_07_nonlinear_reciprocity
NONLINEAR_RECIPROCITY = 1e-5
PERTURBED_METRIC_FLOOR = 1e-3           # perturbed metric must reach this
POTENTIAL_GAP = 1e-4
# tests/test_acceptance.py::test_criterion_08_christoffel_cross_oracle
CROSS_ORACLE = 1e-4
# tests/test_acceptance.py::test_criterion_09_variational_duality
VARIATIONAL_GAP = 1e-5
NON_RECIPROCAL_FLOOR = 1e-3             # non-reciprocal metric must reach this
# tests/test_acceptance.py::test_criterion_10_relaxation_certificates
DISSIPATION_RATIO = 1e-6                # violation / supply scale
# tests/test_acceptance.py::test_criterion_11_representation_equivalence
REPRESENTATION_GAP = 1e-6
LOSSLESS_DRIFT = 1e-8
# tests/test_reciprocity.py::test_reconstruct_K_matches_generating_function
RECONSTRUCT_K = 1e-7
# recipkit.cli defaults exercised by tests/test_cli.py: check-reciprocity
# (--tol reciprocity) and convert-ph (--tol trajectory)
CLI_RECIPROCITY = 1e-6
CONVERT_TRAJECTORY_GAP = 1e-4
CONVERT_STRUCTURE = 1e-8                # ph_to_hessian_pseudo_gradient default tol
# recipkit.cli exit codes pinned by tests/test_cli.py::test_bad_input_exit_codes
EXIT_OK = 0
EXIT_INPUT = 2


def le(label: str, value: float, bound: float) -> tuple:
    return (label, float(value), "<=", bound)


def ge(label: str, value: float, bound: float) -> tuple:
    return (label, float(value), ">=", bound)


def gt(label: str, value: float, bound: float) -> tuple:
    return (label, float(value), ">", bound)


def holds(label: str, value) -> tuple:
    return (label, bool(value), "is", True)


def passed(check: tuple) -> bool:
    _, value, op, bound = check
    if op == "<=":
        return value <= bound
    if op == ">=":
        return value >= bound
    if op == ">":
        return value > bound
    return value is bound


def margin(check: tuple):
    """Residual over its tolerance; above 1 means the check failed.

    For a floor a must-fail case has to reach, the ratio is floor / detected.
    Booleans have no margin and give None.
    """
    _, value, op, bound = check
    if op == "is":
        return None
    if op == "<=":
        return value / bound
    if bound > 0:
        return bound / max(value, 1e-300)
    return max(0.0, -value) / -bound
