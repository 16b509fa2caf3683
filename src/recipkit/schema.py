"""JSON description of systems accepted by the command line tool.

A document is an object with a "kind" key naming one of four system
classes; scalar fields are given either as {"builtin": <name>} referring
to the field registry or as {"polynomial": {...}}.  Everything surfaced
to callers is a ModelBundle, the same carrier the built-in registry uses.
This is where outside input is checked: a loaded model passes the
library's own structure checks on its declared metric and its J and R,
and any failure is a SchemaError.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Optional

import numpy as np

from .core import (
    AffineNonlinearSystem,
    AssumptionError,
    BoxDomain,
    MetricField,
    Polynomial,
    ScalarField,
    SchemaError,
    SignatureMatrix,
    SingularMatrixError,
    _constant_rows,
    _mv,
    validate_metric_field,
)
from .dynamics import (
    ConversionSplit,
    HessianPseudoGradientSystem,
    PortHamiltonianSystem,
)
from .linear import LinearSystem
from .models import ModelBundle, field_registry

__all__ = ["load_system", "load_system_file", "load_registry_extras",
           "parse_field", "read_json", "MODEL_PATH_ENV"]

MODEL_PATH_ENV = "RECIPKIT_MODEL_PATH"


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise SchemaError(f"{context}: missing required key {key!r}")
    return doc[key]


def _typed(kind, doc, key: str, context: str):
    """kind(doc[key]); a value of the wrong type is a SchemaError naming key."""
    raw = _require(doc, key, context)
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: {key} has the wrong type ({exc})") from exc


def _int(raw) -> int:
    """int(raw); a boolean or a number with a fractional part is a TypeError."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise TypeError(f"{raw!r} is not an integer")
    return int(raw)


def _ints(raw) -> tuple:
    return tuple(_int(i) for i in raw)


def _floats(raw) -> np.ndarray:
    return np.array(raw, dtype=float)


def _matrix(doc, key: str, context: str, shape=None) -> np.ndarray:
    M = np.atleast_2d(_typed(_floats, doc, key, context))
    if M.ndim != 2:
        raise SchemaError(f"{context}: {key} must be a matrix, got ndim={M.ndim}")
    if shape is not None and M.shape != shape:
        raise SchemaError(f"{context}: {key} must have shape {shape}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise SchemaError(f"{context}: {key} contains non-finite entries")
    return M


def _signature(doc, key: str, m: int, context: str) -> SignatureMatrix:
    if key not in doc:
        return SignatureMatrix.identity(m)
    signs = np.array(_typed(_ints, doc, key, context), dtype=int)
    if len(signs) != m or not np.all(np.abs(signs) == 1):
        raise SchemaError(f"{context}: sigma must be {m} entries of +-1")
    return SignatureMatrix(signs)


def _box(doc, key: str, dim: int, context: str,
         default_halfwidth: float = 1.5) -> BoxDomain:
    if key not in doc:
        return BoxDomain.cube(dim, default_halfwidth)
    spec = doc[key]
    if not isinstance(spec, dict) or "lower" not in spec or "upper" not in spec:
        raise SchemaError(f"{context}: {key} must be an object with lower/upper arrays")
    lo, hi = (_typed(_floats, spec, end, f"{context}: {key}") for end in ("lower", "upper"))
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise SchemaError(f"{context}: {key} bounds must have length {dim}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise SchemaError(f"{context}: {key} has the wrong type (a bound is not finite)")
    try:
        return BoxDomain(lo, hi)
    except Exception as exc:
        raise SchemaError(f"{context}: invalid box: {exc}") from exc


def parse_field(spec, context: str, dim: Optional[int] = None) -> ScalarField:
    """Resolve a fieldspec: {"builtin": name} or {"polynomial": {...}}."""
    if not isinstance(spec, dict):
        raise SchemaError(f"{context}: field spec must be an object")
    if "builtin" in spec:
        name = spec["builtin"]
        reg = field_registry()
        if name not in reg:
            known = ", ".join(sorted(reg))
            raise SchemaError(f"{context}: unknown builtin field {name!r} (have: {known})")
        fld = reg[name]
    elif "polynomial" in spec:
        body = spec["polynomial"]
        if not isinstance(body, dict):
            raise SchemaError(f"{context}: polynomial spec must be an object")
        pdim = _typed(_int, body, "dim", context)
        terms = _typed(list, body, "terms", context)
        parsed = []
        for i, term in enumerate(terms):
            if not isinstance(term, dict) or "exponents" not in term or "coeff" not in term:
                raise SchemaError(f"{context}: term {i} needs exponents and coeff")
            exps = _typed(_ints, term, "exponents", f"{context}: term {i}")
            coeff = _typed(float, term, "coeff", f"{context}: term {i}")
            if not np.isfinite(coeff):
                raise SchemaError(f"{context}: term {i} coeff must be finite, got {coeff}")
            parsed.append((exps, coeff))
        domain = _box(body, "domain", pdim, context)
        try:
            fld = Polynomial(pdim, tuple(parsed)).to_field(domain)
        except Exception as exc:
            raise SchemaError(f"{context}: bad polynomial: {exc}") from exc
    else:
        raise SchemaError(f"{context}: field spec needs 'builtin' or 'polynomial'")
    if dim is not None and fld.dim != dim:
        raise SchemaError(f"{context}: field has dim {fld.dim}, expected {dim}")
    return fld


def _load_linear(doc: dict, name: str) -> ModelBundle:
    ctx = f"linear model {name!r}"
    A = _matrix(doc, "A", ctx)
    n = A.shape[0]
    if A.shape != (n, n):
        raise SchemaError(f"{ctx}: A must be square")
    B = _matrix(doc, "B", ctx)
    if B.shape[0] != n:
        raise SchemaError(f"{ctx}: B must have {n} rows")
    m = B.shape[1]
    C = _matrix(doc, "C", ctx, shape=(m, n))
    D = _matrix(doc, "D", ctx, shape=(m, m))
    try:
        sys = LinearSystem(A, B, C, D)
    except Exception as exc:
        raise SchemaError(f"{ctx}: {exc}") from exc
    G = _matrix(doc, "G", ctx, shape=(n, n)) if "G" in doc else None
    Q0 = _matrix(doc, "Q0", ctx) if "Q0" in doc else None
    return ModelBundle(name=name, kind="linear",
                       description=doc.get("description", "user supplied linear system"),
                       linear=sys, G_lin=G, sigma=_signature(doc, "sigma", m, ctx),
                       Q0=Q0)


def _metric_from_spec(spec, ctx: str, dim: int) -> MetricField:
    if not isinstance(spec, dict):
        raise SchemaError(f"{ctx}: metric must be an object")
    if "constant" in spec:
        M = _matrix(spec, "constant", f"{ctx}: metric", shape=(dim, dim))
        return MetricField.constant(M, BoxDomain.cube(dim, 1.5))
    if "hessian_of" in spec:
        K = parse_field(spec["hessian_of"], ctx, dim=dim)
        return MetricField.from_hessian(K)
    raise SchemaError(f"{ctx}: metric needs 'constant' or 'hessian_of'")


def _load_nonlinear(doc: dict, name: str) -> ModelBundle:
    """Pseudo-gradient nonlinear system G(x) x_dot = -grad P(x) + g u."""
    ctx = f"nonlinear model {name!r}"
    P = parse_field(_require(doc, "potential", ctx), ctx)
    nx = P.dim
    metric = _metric_from_spec(_require(doc, "metric", ctx), ctx, nx)
    gmat = _matrix(doc, "g", ctx)
    if gmat.shape[0] != nx:
        raise SchemaError(f"{ctx}: g must have {nx} rows")
    m = gmat.shape[1]
    sigma = _signature(doc, "sigma", m, ctx)
    domain = _box(doc, "domain", nx, ctx)
    if "domain" in doc:
        metric = replace(metric, domain=domain)
    else:
        domain = metric.domain

    def f(x):  # G(x) f(x) = -grad P(x), one solve over the metric rows
        return np.linalg.solve(metric.rows(x), -P.grad_rows(x)[..., None])[..., 0]

    def g(x):  # G(x) g(x) = g
        return np.linalg.solve(metric.rows(x), gmat)

    affine = AffineNonlinearSystem(  # y = sigma g^T x row by row
        nx=nx, nu=m, f=f, g=g, h=lambda x: sigma.signs * _mv(gmat.T, x),
        k=_constant_rows(np.zeros((m, m))),
        domain=domain, dh_dx=_constant_rows(sigma.conjugate_rows(gmat.T)))
    return ModelBundle(name=name, kind="affine",
                       description=doc.get("description", "user supplied nonlinear system"),
                       affine=affine, metric=metric, sigma=sigma,
                       u_box=_box(doc, "u_box", m, ctx, default_halfwidth=1.0))


def _load_hessian_pg(doc: dict, name: str) -> ModelBundle:
    ctx = f"hessian_pseudo_gradient model {name!r}"
    K = parse_field(_require(doc, "K", ctx), ctx)
    nx = K.dim
    if "P" in doc:
        P = parse_field(doc["P"], ctx, dim=nx)
        gmat = _matrix(doc, "g", ctx)
        if gmat.shape[0] != nx:
            raise SchemaError(f"{ctx}: g must have {nx} rows")
        m = gmat.shape[1]
        sigma = _signature(doc, "sigma", m, ctx)
        if not sigma.is_identity:
            raise SchemaError(f"{ctx}: the (P, g) form fixes sigma = identity")
        ubox = _box(doc, "u_box", m, ctx, default_halfwidth=1.0)
        hpg = HessianPseudoGradientSystem.from_internal_potential(
            K, P, gmat, sigma, u_box=ubox)
    elif "V" in doc:
        V = parse_field(doc["V"], ctx)
        m = V.dim - nx
        if m <= 0:
            raise SchemaError(f"{ctx}: V must depend on at least one input")
        sigma = _signature(doc, "sigma", m, ctx)
        ubox = _box(doc, "u_box", m, ctx, default_halfwidth=1.0)
        hpg = HessianPseudoGradientSystem(K=K, V=V, sigma=sigma)
    else:
        raise SchemaError(f"{ctx}: needs either P and g, or a joint potential V")
    return ModelBundle(name=name, kind="hessian_pg",
                       description=doc.get("description",
                                           "user supplied pseudo-gradient system"),
                       hpg=hpg, sigma=hpg.sigma, u_box=ubox)


def _load_port_hamiltonian(doc: dict, name: str) -> ModelBundle:
    ctx = f"port_hamiltonian model {name!r}"
    H = parse_field(_require(doc, "H", ctx), ctx)
    n = H.dim
    J = _matrix(doc, "J", ctx, shape=(n, n))
    gmat = _matrix(doc, "g", ctx)
    if gmat.shape[0] != n:
        raise SchemaError(f"{ctx}: g must have {n} rows")
    m = gmat.shape[1]
    R = None
    if "R" in doc:
        if not isinstance(doc["R"], dict):
            raise SchemaError(f"{ctx}: R must be {{'linear': matrix}}")
        R = _matrix(doc["R"], "linear", f"{ctx}: R", shape=(n, n))
    ph = PortHamiltonianSystem(H=H, J=J, g=gmat, R=R)
    split = None
    if "split" in doc:
        s = _typed(dict, doc, "split", ctx)
        sctx = f"{ctx}: split"
        idx1, idx2 = (_typed(_ints, s, key, sctx) for key in ("idx1", "idx2"))
        H1 = parse_field(_require(s, "H1", sctx), sctx, dim=len(idx1))
        H2 = parse_field(_require(s, "H2", sctx), sctx, dim=len(idx2))
        P1 = parse_field(_require(s, "P1", sctx), sctx, dim=len(idx1))
        P2 = parse_field(_require(s, "P2", sctx), sctx, dim=len(idx2))
        Pc = _matrix(s, "Pc", sctx, shape=(len(idx1), len(idx2)))
        g1 = _matrix(s, "g1", sctx, shape=(len(idx1), m))
        split = ConversionSplit(idx1, idx2, H1, H2, P1, P2, Pc, g1)
    return ModelBundle(name=name, kind="port_hamiltonian",
                       description=doc.get("description",
                                           "user supplied port-Hamiltonian system"),
                       ph=ph, split=split, sigma=SignatureMatrix.identity(m),
                       u_box=_box(doc, "u_box", m, ctx, default_halfwidth=1.0))


def _checked(bundle: ModelBundle, ctx: str) -> ModelBundle:
    """bundle once its declared metric (G_lin or metric) and its port-Hamiltonian J and R
    pass the library's checks; a failed check is bad input, a SchemaError."""
    metrics = [bundle.metric]
    if bundle.G_lin is not None:
        metrics.append(MetricField.constant(bundle.G_lin, BoxDomain.cube(len(bundle.G_lin))))
    try:
        for G in filter(None, metrics):
            validate_metric_field(G)
        if bundle.ph is not None:
            bundle.ph.validate()
    except (AssumptionError, SingularMatrixError) as exc:
        raise SchemaError(f"{ctx}: {exc}") from exc
    return bundle


LOADERS = {"linear": _load_linear, "nonlinear": _load_nonlinear,
           "hessian_pseudo_gradient": _load_hessian_pg,
           "port_hamiltonian": _load_port_hamiltonian}


def load_system(doc: dict, name: str = "input") -> ModelBundle:
    """Build a ModelBundle from a parsed JSON document and check its structure."""
    if not isinstance(doc, dict):
        raise SchemaError("top level document must be an object")
    kind = _require(doc, "kind", f"model {name!r}")
    if not isinstance(kind, str) or kind not in LOADERS:
        raise SchemaError(f"unknown kind {kind!r}; expected one of {', '.join(LOADERS)}")
    return _checked(LOADERS[kind](doc, name), f"{kind} model {name!r}")


def read_json(path: str):
    """Parse the JSON file at ``path``; a file that cannot be read or parsed is a SchemaError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"no such file: {path}") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def load_system_file(path: str) -> ModelBundle:
    doc = read_json(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    name = doc.get("name", stem) if isinstance(doc, dict) else stem
    if not isinstance(name, str):
        raise SchemaError(f"{path}: name has the wrong type ({type(name).__name__})")
    return load_system(doc, name=name)


def load_registry_extras(path_value: Optional[str] = None) -> dict:
    """Load extra models from the colon-separated RECIPKIT_MODEL_PATH files.

    Each entry may be a JSON file or a directory of .json files.  Duplicate
    model names (against each other; the caller checks against builtins)
    raise SchemaError.
    """
    if path_value is None:
        path_value = os.environ.get(MODEL_PATH_ENV, "")
    extras: dict = {}
    for entry in [p for p in path_value.split(os.pathsep) if p]:
        files = []
        if os.path.isdir(entry):
            files = sorted(os.path.join(entry, f) for f in os.listdir(entry)
                           if f.endswith(".json"))
        elif os.path.isfile(entry):
            files = [entry]
        else:
            raise SchemaError(f"{MODEL_PATH_ENV} entry does not exist: {entry}")
        for fname in files:
            bundle = load_system_file(fname)
            if bundle.name in extras:
                raise SchemaError(f"duplicate model name {bundle.name!r} in {fname}")
            extras[bundle.name] = bundle
    return extras
