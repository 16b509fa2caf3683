"""Command line front end.

Every subcommand resolves a system either from the built-in model registry
(--model, extended through the RECIPKIT_MODEL_PATH environment variable) or
from a JSON description (--input), runs one analysis and writes a
deterministic report.json into --out.  Exit codes: 0 success, 1 a check
came back negative, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .core import (
    AssumptionError,
    BoxDomain,
    DimensionMismatchError,
    MetricField,
    RecipkitError,
    SchemaError,
)
from .dynamics import (
    NotRelaxationError,
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
from .legendre import homogeneity_check, make_legendre_pair
from .linear import (
    PastInput,
    check_linear_reciprocity,
    compatible_storage_fixed_point,
    impulse_response_symmetry,
    kernel_invariance_check,
    lmi_residual,
    recover_metric_hankel,
)
from .models import ModelBundle, field_registry, model_registry
from .reciprocity import (
    check_reciprocity_affine,
    check_reciprocity_hessian,
)
from .schema import load_registry_extras, load_system_file, parse_field, read_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# deterministic report emission


def _emit_json(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if f != f or f in (float("inf"), float("-inf")):
            return "null"
        return "%.17g" % f
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + _emit_json(v)
                              for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} into the report")


def write_report(out_dir: str, payload: dict, filename: str = "report.json") -> str:
    os.makedirs(out_dir, exist_ok=True)
    text = _emit_json(payload) + "\n"
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        target = os.path.join(out_dir, filename)
        os.replace(tmp, target)  # atomic on POSIX
        return target
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_tols(pairs, declared: dict) -> dict:
    """The subcommand's declared tolerances with the --tol KEY=VALUE overrides."""
    tols = dict(declared)
    for item in pairs or []:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise SchemaError(f"--tol expects KEY=VALUE, got {item!r}")
        if key not in tols:
            raise SchemaError(f"--tol: unknown key {key!r} (have: {', '.join(tols)})")
        try:
            tols[key] = float(raw)
        except ValueError as exc:
            raise SchemaError(f"--tol {key}: {raw!r} is not a number") from exc
        if not (math.isfinite(tols[key]) and tols[key] >= 0):
            raise SchemaError(f"--tol {key}: expected a finite value >= 0, got {raw!r}")
    return tols


def _registry() -> dict:
    builtin = model_registry()
    extras = load_registry_extras()
    for name in extras:
        if name in builtin:
            raise SchemaError(f"model {name!r} from RECIPKIT_MODEL_PATH "
                              "shadows a built-in model")
    builtin.update(extras)
    return builtin


def _resolve_bundle(args) -> ModelBundle:
    if args.input:
        if args.model:
            raise SchemaError("pass either --model or --input, not both")
        return load_system_file(args.input)
    if not args.model:
        raise SchemaError("one of --model or --input is required")
    reg = _registry()
    if args.model not in reg:
        raise SchemaError(f"unknown model {args.model!r}; try the list-models command")
    return reg[args.model]


def _resolve_field(args):
    if args.input:
        doc = read_json(args.input)
        if isinstance(doc, dict) and "field" in doc:
            doc = doc["field"]
        return parse_field(doc, args.input)
    if not args.field:
        raise SchemaError("one of --field or --input is required")
    reg = field_registry()
    if args.field not in reg:
        raise SchemaError(f"unknown field {args.field!r} (have: {', '.join(sorted(reg))})")
    return reg[args.field]


def _parse_vector(text: Optional[str], dim: int, what: str, default) -> np.ndarray:
    if text is None:
        return default
    try:
        vals = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SchemaError(f"{what}: expected comma separated numbers") from exc
    if not np.all(np.isfinite(vals)):
        raise SchemaError(f"{what}: expected finite numbers, got {text!r}")
    if len(vals) == 1 and dim > 1:
        vals = np.full(dim, vals[0])
    if len(vals) != dim:
        raise SchemaError(f"{what}: expected {dim} values, got {len(vals)}")
    return vals


def _start(args, n: int, domain: BoxDomain, m: int):
    """Start state (--x0 where declared, else off the domain centre) and input signal."""
    x0 = _parse_vector(getattr(args, "x0", None), n, "--x0",
                       domain.center + 0.25 * (domain.upper - domain.center))
    if not domain.contains(x0):
        raise SchemaError(f"--x0: {x0} lies outside the model's state box "
                          f"[{domain.lower}, {domain.upper}]")
    const = _parse_vector(args.u_const, m, "--u-const", np.zeros(m))
    if args.u_sin is None:
        return x0, lambda t: const.copy()
    parts = args.u_sin.split(",")
    if len(parts) != 2:
        raise SchemaError("--u-sin expects AMP,FREQ")
    try:
        amp, freq = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise SchemaError("--u-sin expects numbers") from exc
    if not (math.isfinite(amp) and math.isfinite(freq)):
        raise SchemaError(f"--u-sin: expected finite numbers, got {args.u_sin!r}")
    return x0, lambda t: const + amp * np.sin(2.0 * np.pi * freq * t) * np.ones(m)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its payload; main exits 1 on a false payload["ok"]


def cmd_list_models(args, tols):
    reg = _registry()
    rows = []
    for name in sorted(reg):
        b = reg[name]
        print(f"{name:20s} {b.kind:16s} {b.description}")
        rows.append({"name": name, "kind": b.kind, "description": b.description})
    fields = sorted(field_registry())
    print("fields: " + ", ".join(fields))
    return {"command": "list-models", "models": rows, "fields": fields}


def cmd_check_reciprocity(args, tols):
    bundle = _resolve_bundle(args)
    tol = tols["reciprocity"]
    payload = {"command": "check-reciprocity", "model": bundle.name, "tol": tol}
    if bundle.kind == "linear":
        if bundle.G_lin is None:
            raise SchemaError(f"model {bundle.name!r} carries no metric G")
        res = check_linear_reciprocity(bundle.linear, bundle.G_lin, bundle.sigma,
                                       tol=tol)
        times = np.linspace(0.1, args.horizon, 12)
        imp = impulse_response_symmetry(bundle.linear, bundle.sigma, times, tol=tol)
        payload.update({"reciprocal": res.reciprocal, "residual": res.residual,
                        "impulse_symmetric": imp.symmetric,
                        "impulse_residual": imp.max_residual})
        ok = res.reciprocal and imp.symmetric
    else:
        if bundle.kind == "affine":
            rep = check_reciprocity_affine(bundle.affine, bundle.metric, bundle.sigma,
                                           tol=tol, n_samples=args.samples,
                                           seed=args.seed)
        elif bundle.kind == "hessian_pg":
            hpg = bundle.hpg
            rep = check_reciprocity_hessian(hpg.to_general(), hpg.K,
                                            hpg.sigma, tol=tol, u_box=bundle.u_box,
                                            n_samples=args.samples, seed=args.seed)
        else:
            raise SchemaError("reciprocity check expects a linear, nonlinear or "
                              "pseudo-gradient model; run convert-ph first for "
                              "port-Hamiltonian systems")
        payload.update({"reciprocal": rep.reciprocal,
                        "residual_state": rep.residual_state,
                        "residual_output": rep.residual_output,
                        "residual_cross": rep.residual_cross,
                        "points": rep.points_tested})
        ok = rep.reciprocal
    payload["ok"] = bool(ok)
    print(f"reciprocity[{bundle.name}]: {'ok' if ok else 'FAILED'}")
    return payload


def _pick_q0(args, bundle, n):
    if args.q0 == "auto" and bundle.Q0 is not None:
        return bundle.Q0
    return np.eye(n)


def cmd_check_passivity(args, tols):
    bundle = _resolve_bundle(args)
    if bundle.kind != "linear":
        raise SchemaError("passivity LMI check applies to linear models")
    tol = tols["lmi"]
    Q = _pick_q0(args, bundle, bundle.linear.n)
    rep = lmi_residual(bundle.linear, Q, tol=tol)
    payload = {"command": "check-passivity", "model": bundle.name,
               "passive": rep.passive, "min_eigenvalue": rep.min_eigenvalue,
               "kernel_dimension": rep.kernel_dimension, "tol": tol,
               "ok": rep.passive}
    if rep.passive:
        inv = kernel_invariance_check(bundle.linear, Q, rep)
        payload["kernel_invariance"] = inv
    print(f"passivity[{bundle.name}]: {'ok' if rep.passive else 'FAILED'} "
          f"(min LMI eigenvalue {rep.min_eigenvalue:.3e})")
    return payload


def cmd_compatible_q(args, tols):
    bundle = _resolve_bundle(args)
    if bundle.kind != "linear" or bundle.G_lin is None:
        raise SchemaError("compatible-q needs a linear model with a metric G")
    Q0 = _pick_q0(args, bundle, bundle.linear.n)
    res = compatible_storage_fixed_point(
        bundle.linear, bundle.G_lin, Q0,
        tol=tols["fixed_point"], lmi_tol=tols["lmi"],
        sigma=bundle.sigma)
    payload = {"command": "compatible-q", "model": bundle.name,
               "Q": res["Q"], "iterations": res["iterations"],
               "compatibility_gap": res["compatibility_gap"],
               "lmi_min_eigenvalue": res["lmi_min_eigenvalue"], "ok": True}
    print(f"compatible-q[{bundle.name}]: gap {res['compatibility_gap']:.3e} "
          f"after {res['iterations']} iterations")
    return payload


def default_past_inputs(sys, rng: np.random.Generator, count: Optional[int] = None):
    """Exponentially decaying past inputs with distinct rates.

    u_i(s) = exp(beta_i s) v_i on s <= 0 gives reachable states that are
    generically independent; log-spaced rates keep the reachable-state
    matrix well conditioned.
    """
    n, m = sys.n, sys.m
    count = count if count is not None else 2 * n + 2
    betas = np.exp(np.linspace(np.log(0.4), np.log(4.0), count))
    inputs = []
    for beta in betas:
        v = rng.standard_normal(m)
        v /= max(1.0, float(np.linalg.norm(v)))
        inputs.append(PastInput(signal=lambda s, b=beta, v=v: np.exp(b * s)[:, None] * v,
                                duration=30.0 / beta))
    return inputs


def cmd_recover_g(args, tols):
    bundle = _resolve_bundle(args)
    if bundle.kind != "linear":
        raise SchemaError("recover-g applies to linear models")
    rng = np.random.default_rng(args.seed)
    past = default_past_inputs(bundle.linear, rng)
    G_hat = recover_metric_hankel(bundle.linear, bundle.sigma, horizon=args.horizon,
                                  past_inputs=past)
    payload = {"command": "recover-g", "model": bundle.name, "G": G_hat, "ok": True}
    if bundle.G_lin is not None:
        rel = float(np.linalg.norm(G_hat - bundle.G_lin) / np.linalg.norm(bundle.G_lin))
        payload["reference_relative_error"] = rel
        payload["ok"] = rel <= tols["recover"]
        print(f"recover-g[{bundle.name}]: relative error {rel:.3e}")
    else:
        print(f"recover-g[{bundle.name}]: recovered {bundle.linear.n}x{bundle.linear.n} metric")
    return payload


def cmd_legendre(args, tols):
    fld = _resolve_field(args)
    pair = make_legendre_pair(fld, samples=args.samples, seed=args.seed,
                              round_trip_tol=tols["round_trip"],
                              biconjugate_tol=tols["biconjugate"],
                              hessian_tol=tols["hessian"])
    hom = homogeneity_check(fld, tol=tols["homogeneity"], samples=args.samples,
                            seed=args.seed)
    payload = {"command": "legendre", "field_dim": fld.dim, "points": args.samples,
               **pair.margins,
               "homogeneous_degree_two": hom.degree2,
               "conjugacy_equals_value": hom.equal,
               "max_conjugacy_gap": hom.max_conjugacy_gap,
               "max_scaling_gap": hom.max_scaling_gap, "ok": True}
    print(f"legendre: round-trip {pair.margins['round_trip_gap']:.3e}, "
          f"hessian-inverse {pair.margins['hessian_inverse_gap']:.3e}, "
          f"degree-2 {hom.degree2}")
    return payload


def cmd_christoffel(args, tols):
    fld = _resolve_field(args)
    G = MetricField.from_hessian(fld)
    xs = fld.domain.shrink(0.8).sample(args.samples, seed=args.seed)
    gap = float(np.max([np.max(np.abs(hessian_christoffel(fld, x) - levi_civita(G, x)))
                        for x in xs], initial=0.0))
    flat = flatness_check(fld, tol=tols["flat"], n_samples=args.samples, seed=args.seed)
    payload = {"command": "christoffel", "field_dim": fld.dim, "points": len(xs),
               "cross_oracle_gap": gap, "flat": flat, "ok": True}
    print(f"christoffel: cross-oracle gap {gap:.3e}, flat={flat}")
    return payload


def cmd_variational_test(args, tols):
    bundle = _resolve_bundle(args)
    if bundle.kind != "affine" or bundle.metric is None:
        raise SchemaError("variational-test needs a nonlinear model with a metric")
    sys_a = bundle.affine
    x0, u = _start(args, sys_a.nx, sys_a.domain, sys_a.nu)
    gen = sys_a.to_general()
    times, states = integrate_implicit_midpoint(lambda t, x: gen.F(x, u(t)), x0,
                                                (0.0, args.horizon), args.step,
                                                domain=sys_a.domain)
    inputs = np.stack([u(t) for t in times])
    nominal = Trajectory(times, states, inputs, gen.H_rows(states, inputs))
    rep = external_reciprocity_test(sys_a, bundle.metric, nominal,
                                    tol=tols["match"],
                                    u_signal=u, sigma=bundle.sigma)
    payload = {"command": "variational-test", "model": bundle.name,
               "match": rep.match, "max_output_gap": rep.max_output_gap,
               "max_state_gap": rep.max_state_gap, "probes": rep.probes,
               "ok": rep.match}
    print(f"variational-test[{bundle.name}]: "
          f"{'ok' if rep.match else 'FAILED'} (output gap {rep.max_output_gap:.3e})")
    return payload


def cmd_simulate(args, tols):
    bundle = _resolve_bundle(args)
    if bundle.kind == "hessian_pg":
        system, n, simulate = bundle.hpg, bundle.hpg.nx, simulate_pseudo_gradient
    elif bundle.kind == "port_hamiltonian":
        system, n, simulate = bundle.ph, bundle.ph.n, simulate_port_hamiltonian
    else:
        raise SchemaError("simulate expects a pseudo-gradient or port-Hamiltonian model")
    x0, u = _start(args, n, system.domain, system.nu)
    traj = simulate(system, x0, u, (0.0, args.horizon), args.step)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "trajectory.csv")
    traj.to_csv(csv_path)
    payload = {"command": "simulate", "model": bundle.name,
               "steps": len(traj.times) - 1, "t_final": float(traj.times[-1]),
               "final_state": traj.states[-1], "csv": "trajectory.csv", "ok": True}
    if "S" in traj.monitors:
        mon = dissipation_monitor(traj, tol=tols["dissipation"])
        payload.update({"max_dissipation_violation": mon.max_violation,
                        "passive_along": mon.passive_along,
                        "supply_scale": mon.supply_scale})
    print(f"simulate[{bundle.name}]: {len(traj.times) - 1} steps -> {csv_path}")
    return payload


def cmd_certify_relaxation(args, tols):
    bundle = _resolve_bundle(args)
    if bundle.kind != "hessian_pg":
        raise SchemaError("certify-relaxation expects a pseudo-gradient model")
    sys_h = bundle.hpg
    try:
        cert = certify_relaxation(sys_h, tol=tols["inequality"],
                                  u_box=bundle.u_box, n_samples=args.samples,
                                  seed=args.seed)
    except NotRelaxationError as exc:
        payload = {"command": "certify-relaxation", "model": bundle.name,
                   "relaxation": False, "reason": str(exc), "ok": False}
        print(f"certify-relaxation[{bundle.name}]: FAILED ({exc})")
        return payload
    payload = {"command": "certify-relaxation", "model": bundle.name,
               "relaxation": cert.relaxation, "mode": cert.mode,
               "min_metric_eigenvalue": cert.min_metric_eigenvalue,
               "worst_inequality": cert.worst_inequality,
               "storage_floor_ok": cert.storage_floor_ok, "ok": cert.relaxation}
    if cert.relaxation and args.horizon > 0:
        x0, u = _start(args, sys_h.nx, sys_h.domain, sys_h.nu)
        traj = simulate_pseudo_gradient(sys_h, x0, u, (0.0, args.horizon), args.step,
                                        storage=cert.storage)
        mon = dissipation_monitor(traj, tol=tols["dissipation"])
        payload.update({"trajectory_max_violation": mon.max_violation,
                        "trajectory_passive": mon.passive_along})
    print(f"certify-relaxation[{bundle.name}]: {'ok' if cert.relaxation else 'FAILED'} "
          f"(worst inequality {cert.worst_inequality:.3e})")
    return payload


def cmd_convert_ph(args, tols):
    bundle = _resolve_bundle(args)
    if bundle.kind != "port_hamiltonian" or bundle.ph is None:
        raise SchemaError("convert-ph expects a port-Hamiltonian model")
    if bundle.split is None:
        raise SchemaError(f"model {bundle.name!r} does not declare a conversion split")
    try:
        result = ph_to_hessian_pseudo_gradient(bundle.ph, bundle.split,
                                               tol=tols["structure"],
                                               seed=args.seed, u_box=bundle.u_box)
    except AssumptionError as exc:
        payload = {"command": "convert-ph", "model": bundle.name, "ok": False,
                   "failed_assumption": exc.name, "reason": str(exc),
                   "report": exc.report or {}}
        print(f"convert-ph[{bundle.name}]: FAILED (assumption {exc.name})")
        return payload
    payload = {"command": "convert-ph", "model": bundle.name, "ok": True,
               "report": result.report}
    if args.horizon > 0:
        split = result.split
        z0, u = _start(args, bundle.ph.n, bundle.ph.domain, bundle.ph.nu)
        span = (0.0, args.horizon)
        ph_traj = simulate_port_hamiltonian(bundle.ph, z0, u, span, args.step)

        def to_x(Z):  # co-states (grad H1, grad H2) of a stack of port-Hamiltonian states
            return np.hstack([split.H1.grad_rows(Z[:, list(split.idx1)]),
                              split.H2.grad_rows(Z[:, list(split.idx2)])])

        hpg_traj = simulate_pseudo_gradient(result.system, to_x(z0[None])[0], u, span,
                                            args.step, enforce_domain=False)
        gap = float(np.max(np.abs(to_x(ph_traj.states) - hpg_traj.states)))
        payload["trajectory_gap"] = gap
        payload["trajectory_match"] = payload["ok"] = bool(gap <= tols["trajectory"])
    print(f"convert-ph[{bundle.name}]: "
          + ("ok" if payload["ok"] else f"FAILED (trajectory gap {gap:.3e})"))
    return payload


HANDLERS = {
    "list-models": cmd_list_models,
    "check-reciprocity": cmd_check_reciprocity,
    "check-passivity": cmd_check_passivity,
    "compatible-q": cmd_compatible_q,
    "recover-g": cmd_recover_g,
    "legendre": cmd_legendre,
    "christoffel": cmd_christoffel,
    "variational-test": cmd_variational_test,
    "simulate": cmd_simulate,
    "certify-relaxation": cmd_certify_relaxation,
    "convert-ph": cmd_convert_ph,
}


def _bounded(kind, low, strict: bool = False):
    """argparse type: a finite ``kind`` above ``low`` (``strict``) or at least ``low``."""
    def parse(text: str):
        try:
            value = kind(text)
            if math.isfinite(value) and (value > low or (value == low and not strict)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected {kind.__name__} {'>' if strict else '>='} {low}, got {text!r}")
    return parse


# Every option, declared once: key -> (flag, argparse settings).  --horizon has
# two rows because certify-relaxation and convert-ph read 0 as "no trajectory".
FLAGS = {
    "model": ("--model", dict(help="name from the model registry")),
    "field": ("--field", dict(help="name from the field registry")),
    "input": ("--input", dict(help="path to a JSON system or field description")),
    "out": ("--out", dict(default=".", help="directory for report.json")),
    "seed": ("--seed", dict(type=_bounded(int, 0), default=0, help="sampling seed")),
    "samples": ("--samples", dict(type=_bounded(int, 1), default=200, help="sample count")),
    "horizon": ("--horizon", dict(type=_bounded(float, 0, strict=True), help="time span")),
    "trajectory": ("--horizon", dict(type=_bounded(float, 0), help="time span; 0 skips it")),
    "step": ("--step", dict(type=_bounded(float, 0, strict=True), help="integrator step")),
    "x0": ("--x0", dict(help="initial state, comma separated")),
    "u-const": ("--u-const", dict(help="constant input, comma separated")),
    "u-sin": ("--u-sin", dict(metavar="AMP,FREQ", help="sinusoid added to the input")),
    "q0": ("--q0", dict(choices=("auto", "identity"), default="auto", help="auto: the model's Q0")),
}

# subcommand -> (help, the FLAGS keys it reads, its option defaults, its --tol
# keys with their defaults); --tol is declared where there are tolerance keys.
SUBCOMMANDS = {
    "list-models": ("print the model and field registries", "out", dict(out=None), {}),
    "check-reciprocity": ("sampled reciprocity residuals",
                          "model input out seed samples horizon",
                          dict(horizon=3.0), dict(reciprocity=1e-6)),
    "check-passivity": ("passivity LMI for linear models", "model input out q0", {},
                        dict(lmi=1e-9)),
    "compatible-q": ("storage compatible with the metric", "model input out q0", {},
                     dict(fixed_point=1e-11, lmi=1e-8)),
    "recover-g": ("recover the metric from past inputs", "model input out seed horizon",
                  dict(horizon=30.0), dict(recover=1e-4)),
    "legendre": ("conjugate pair diagnostics for a field", "field input out seed samples", {},
                 dict(round_trip=1e-8, biconjugate=1e-8, hessian=1e-6, homogeneity=1e-8)),
    "christoffel": ("connection coefficients cross-check", "field input out seed samples",
                    {}, dict(flat=1e-8)),
    "variational-test": ("variational duality along a nominal",
                         "model input out horizon step x0 u-const u-sin",
                         dict(horizon=2.0, step=1e-3), dict(match=1e-5)),
    "simulate": ("integrate and write trajectory.csv",
                 "model input out horizon step x0 u-const u-sin",
                 dict(horizon=10.0, step=1e-2), dict(dissipation=1e-8)),
    "certify-relaxation": ("relaxation certificate",
                           "model input out seed samples trajectory step u-const u-sin",
                           dict(horizon=0.0, step=1e-2),
                           dict(inequality=1e-9, dissipation=1e-8)),
    "convert-ph": ("port-Hamiltonian to pseudo-gradient",
                   "model input out seed trajectory step x0 u-const u-sin",
                   dict(horizon=1.0, step=1e-3), dict(structure=1e-8, trajectory=1e-4)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipkit",
        description="reciprocity, passivity and relaxation analysis of "
                    "pseudo-gradient and port-Hamiltonian systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, keys, defaults, tols) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for key in keys.split():
            flag, settings = FLAGS[key]
            sp.add_argument(flag, **settings)
        if tols:
            listed = ", ".join(f"{k}={v:g}" for k, v in tols.items())
            sp.add_argument("--tol", action="append", metavar="KEY=VALUE",
                            help=f"override a tolerance (repeatable); keys: {listed}")
        sp.set_defaults(**defaults)
    return parser


# Exit code and stderr prefix per exception type; the first matching row wins.
# Input errors and NotRelaxationError (a RecipkitError, not an AssumptionError)
# must come before the numerical catch-all row.
ERROR_EXITS = (
    ((SchemaError, DimensionMismatchError), EXIT_INPUT, "error"),
    ((NotRelaxationError, AssumptionError), EXIT_CHECK_FAILED, "check failed"),
    ((RecipkitError, np.linalg.LinAlgError), EXIT_NUMERICAL, "numerical failure"),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or an undeclared or malformed option
        return exc.code
    try:
        tols = _parse_tols(getattr(args, "tol", None), SUBCOMMANDS[args.command][3])
        payload = HANDLERS[args.command](args, tols)
        if args.out:
            path = write_report(args.out, payload)
            print(f"report: {path}")
        return EXIT_OK if payload.get("ok", True) else EXIT_CHECK_FAILED
    except (RecipkitError, np.linalg.LinAlgError) as exc:
        code, prefix = next((c, p) for types, c, p in ERROR_EXITS if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        if isinstance(exc, AssumptionError) and args.out:
            # a failed check still reports the margins it measured
            path = write_report(args.out, {"command": args.command, "ok": False,
                                           "failed_assumption": exc.name, "reason": str(exc),
                                           "report": exc.report})
            print(f"report: {path}")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
