"""The library's public surface: the exported names and their defaulted parameters."""

import ast
import importlib
import inspect
from pathlib import Path

import recipkit

MODULES = ("core", "linear", "legendre", "reciprocity", "geometry", "dynamics", "models",
           "schema")

# module -> __all__, in order.  A new export is a deliberate edit here.
EXPORTS = {
    "core": ("RecipkitError", "DimensionMismatchError", "DomainError", "SingularMatrixError",
             "ConvergenceError", "AssumptionError", "SchemaError", "BoxDomain", "ScalarField",
             "MetricField", "SignatureMatrix", "NonlinearSystem", "AffineNonlinearSystem",
             "Polynomial", "quadratic_field", "finite_difference_jacobian",
             "hessian_from_value", "symmetry_residual", "gauss_legendre_panels",
             "integrate_segment", "validate_scalar_field", "validate_metric_field"),
    "linear": ("LinearSystem", "LinearPseudoGradientForm", "LmiReport", "ReciprocityCheck",
               "ImpulseSymmetryCheck", "PastInput", "SplitPortHamiltonianForm",
               "check_linear_reciprocity", "to_pseudo_gradient",
               "impulse_response_symmetry", "recover_metric_hankel", "lmi_residual",
               "kernel_invariance_check", "compatible_storage_fixed_point",
               "split_port_hamiltonian_form", "spd_sqrt", "spd_geometric_mean"),
    "legendre": ("LegendrePair", "HomogeneityReport", "legendre_transform",
                 "make_legendre_pair", "homogeneity_check"),
    "reciprocity": ("ReciprocityReport", "PotentialFunction", "check_reciprocity",
                    "check_reciprocity_affine", "check_reciprocity_hessian",
                    "is_hessian_metric", "reconstruct_K", "reconstruct_potential",
                    "sample_state_input_points"),
    "geometry": ("TimeVaryingLinearSystem", "VariationalMatchReport", "third_partial_tensor",
                 "levi_civita", "hessian_christoffel", "flatness_check", "variational_system",
                 "dual_variational_system", "external_reciprocity_test", "default_probes",
                 "simulate_ltv"),
    "dynamics": ("Trajectory", "HessianPseudoGradientSystem", "PortHamiltonianSystem",
                 "ConversionSplit", "ConversionResult", "DissipationReport",
                 "RelaxationCertificate", "NotRelaxationError", "affine_input_potential",
                 "integrate_implicit_midpoint", "simulate_pseudo_gradient",
                 "simulate_port_hamiltonian", "dissipation_monitor",
                 "ph_to_hessian_pseudo_gradient", "certify_relaxation"),
    "models": ("BraytonMoserModel", "SwingModel", "RcCircuitModel", "ModelBundle",
               "random_reciprocal_system", "random_orthogonal", "well_conditioned_transform",
               "field_registry", "model_registry", "ARCSIN_CLAMP"),
    "schema": ("load_system", "load_system_file", "load_registry_extras", "parse_field",
               "read_json", "MODEL_PATH_ENV"),
}

# module.name -> defaulted parameters, for every __all__ callable and public method
# that has any.  A keyword no caller sets belongs in a module constant instead.
DEFAULTED = {
    "core.AssumptionError": ("report",),
    "core.BoxDomain.sample": ("seed",),
    "core.BoxDomain.cube": ("halfwidth",),
    "core.ScalarField": ("gradient", "hessian", "batched"),
    "core.MetricField": ("partials", "batched"),
    "core.NonlinearSystem": ("dF_dx", "dF_du", "dH_dx", "dH_du", "batched"),
    "core.AffineNonlinearSystem": ("df_dx", "dg_dx", "dh_dx", "batched"),
    "core.quadratic_field": ("lin", "const"),
    "core.finite_difference_jacobian": ("step",),
    "core.integrate_segment": ("a", "b", "tol"),
    "linear.check_linear_reciprocity": ("tol",),
    "linear.impulse_response_symmetry": ("tol",),
    "linear.lmi_residual": ("tol",),
    "linear.compatible_storage_fixed_point": ("tol", "lmi_tol", "sigma"),
    "legendre.legendre_transform": ("x_init",),
    "legendre.make_legendre_pair": ("samples", "seed", "verify", "round_trip_tol",
                                    "biconjugate_tol", "hessian_tol"),
    "legendre.homogeneity_check": ("tol", "samples", "seed"),
    "reciprocity.check_reciprocity": ("tol", "u_box", "n_samples", "seed"),
    "reciprocity.check_reciprocity_affine": ("tol", "n_samples", "seed"),
    "reciprocity.check_reciprocity_hessian": ("tol", "u_box", "n_samples", "seed"),
    "reciprocity.is_hessian_metric": ("seed",),
    "reciprocity.reconstruct_K": ("seed",),
    "reciprocity.reconstruct_potential": ("n_samples", "seed"),
    "reciprocity.sample_state_input_points": ("n", "seed"),
    "geometry.flatness_check": ("tol", "n_samples", "seed"),
    "geometry.external_reciprocity_test": ("probe_inputs", "tol", "delta_x0", "u_signal",
                                           "sigma"),
    "dynamics.Trajectory": ("monitors",),
    "dynamics.HessianPseudoGradientSystem": ("P", "g", "storage"),
    "dynamics.HessianPseudoGradientSystem.from_internal_potential": ("u_box", "storage"),
    "dynamics.PortHamiltonianSystem": ("R", "R_jac"),
    "dynamics.integrate_implicit_midpoint": ("mass", "rhs_jac", "domain"),
    "dynamics.simulate_pseudo_gradient": ("enforce_domain", "storage"),
    "dynamics.dissipation_monitor": ("tol",),
    "dynamics.ph_to_hessian_pseudo_gradient": ("seed", "tol", "u_box"),
    "dynamics.certify_relaxation": ("tol", "u_box", "n_samples", "seed"),
    "models.BraytonMoserModel": ("L", "C", "lam", "R", "Gc", "quartic", "co_content_sign"),
    "models.BraytonMoserModel.as_hessian_pseudo_gradient": ("u_box",),
    "models.SwingModel": ("M", "A", "D", "gamma", "input_columns", "omega_max", "q_max",
                          "pi_frac"),
    "models.SwingModel.as_hessian_pseudo_gradient": ("u_box",),
    "models.RcCircuitModel": ("Dc", "Dt", "conductors", "cap", "cap_quartic"),
    "models.ModelBundle": ("linear", "G_lin", "sigma", "Q0", "affine", "metric", "hpg", "ph",
                           "split", "u_box"),
    "models.random_reciprocal_system": ("sigma", "k"),
    "schema.load_system": ("name",),
    "schema.load_registry_extras": ("path_value",),
    "schema.parse_field": ("dim",),
}


# Defaulted keywords that only tests set, each kept for the reason given.
TEST_ONLY_KEYWORDS = {
    "core.quadratic_field.const":
        "the equal/degree2 split of the homogeneity diagnostic needs K(0) != 0",
    "legendre.legendre_transform.x_init": "criterion 1's nested-transform oracle uses it",
    "models.random_reciprocal_system.sigma": "the mixed-signature coverage uses it",
    "schema.load_registry_extras.path_value": "it is a deployment path",
}

ROOT = Path(__file__).resolve().parents[1]


def _defaulted_surface() -> dict:
    """module.name -> parameters of each __all__ callable and public method that has a
    defaulted one; a method's parameters leave out self."""
    surface = {}
    for m in MODULES:
        mod = importlib.import_module(f"recipkit.{m}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            found = [(name, obj, 0)] if callable(obj) else []
            if inspect.isclass(obj):
                found += [(f"{name}.{attr}", getattr(obj, attr), int(inspect.isfunction(val)))
                          for attr, val in vars(obj).items() if not attr.startswith("_")
                          and (inspect.isfunction(val) or isinstance(val, staticmethod))]
            for qual, fn, bound in found:
                try:
                    params = list(inspect.signature(fn).parameters.values())[bound:]
                except ValueError:  # a builtin constructor, e.g. an exception class
                    continue
                if any(p.default is not inspect.Parameter.empty for p in params):
                    surface[f"{m}.{qual}"] = params
    return surface


def test_exported_name_snapshot():
    exports = {m: tuple(importlib.import_module(f"recipkit.{m}").__all__) for m in MODULES}
    assert exports == EXPORTS


def test_every_exported_name_resolves():
    for m in MODULES:
        mod = importlib.import_module(f"recipkit.{m}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], m


def test_defaulted_parameter_snapshot():
    surface = {key: tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
               for key, params in _defaulted_surface().items()}
    assert surface == DEFAULTED
    assert sum(len(names) for names in surface.values()) == 122


def _used_names(tree):
    """Every name read, attribute taken or imported, and every string constant."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # __all__ entries and forward references
    return used


def test_source_leaves_no_orphans():
    """Module-level imports are used, private top-level names are referenced,
    the package namespace imports only exported names and no sampled check
    keeps a running max/min accumulator (builtin max and min drop a NaN)."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(recipkit.__file__).parent.glob("*.py")}
    unused_imports = []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        used = {name for node in tree.body
                if not isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _used_names(node)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused_imports += [f"{stem}.{(a.asname or a.name).split('.')[0]}"
                                   for a in node.names
                                   if (a.asname or a.name).split(".")[0] not in used]
    assert unused_imports == []

    private = {}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private.update({name: stem for name in names
                            if name.startswith("_") and not name.startswith("__")})
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    assert sorted(f"{stem}.{name}" for name, stem in private.items() if name not in used) == []

    not_exported = [f"{node.module}.{alias.name}" for node in trees["__init__"].body
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names
                    if alias.name not in importlib.import_module(
                        f"recipkit.{node.module}").__all__]
    assert not_exported == []

    accumulators = [f"{stem}:{node.lineno}" for stem, tree in trees.items()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in ("max", "min")
                    and {ast.unparse(t) for t in node.targets}
                    & {ast.unparse(a) for a in node.value.args}]
    assert accumulators == []


def test_every_defaulted_keyword_has_a_caller():
    """Each defaulted keyword is set by a call in the library, the benchmark or the
    acceptance suite, by position or by name, or is a test-only keyword kept for a
    stated reason."""
    surface = _defaulted_surface()
    defaulted = {f"{key}.{p.name}" for key, params in surface.items() for p in params
                 if p.default is not inspect.Parameter.empty}
    callers = [*Path(recipkit.__file__).parent.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    set_by_a_call = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            positional = sum(not isinstance(a, ast.Starred) for a in node.args)
            named = {k.arg for k in node.keywords}
            set_by_a_call |= {f"{key}.{p.name}" for key, params in surface.items()
                              if key.rsplit(".", 1)[-1] == called
                              for i, p in enumerate(params) if i < positional or p.name in named}
    assert set(TEST_ONLY_KEYWORDS) <= defaulted
    assert sorted(defaulted - set_by_a_call - set(TEST_ONLY_KEYWORDS)) == []
