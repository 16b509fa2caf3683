"""The four benchmark workloads: inputs from a seed, then a fixed verdict list.

``build(name, seed, workdir)`` generates every input from the seed (sampling
seeds, random systems, initial states, JSON files) and returns the list of
verdicts.  A verdict is ``(name, fn)``; ``fn(ctx)`` calls the library and
returns checks from ``oracle``.  ``ctx`` is a dict shared by the verdicts of
one pass, so a pair or a converted system built by one verdict is used by the
next ones; every pass starts from an empty ``ctx``, which keeps the work of
each pass identical.

Problem sizes never depend on the seed, only the values drawn do, so the
cost of a pass is the same for every seed.  The library is always reached
through module attributes (``legendre.make_legendre_pair``) so that a traced
run sees the wrappers installed by ``tracer``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle as o
from recipkit import cli, core, dynamics, geometry, legendre, linear, models, reciprocity


def build(name: str, seed: int, workdir: str) -> list:
    """Registries plus the workload's generated inputs: the timed set-up."""
    models.model_registry()
    models.field_registry()
    return {"conjugacy": _conjugacy, "trajectory": _trajectory,
            "structure": _structure, "cli": _cli}[name](seed, workdir)


def _offset_state(domain, rng, spread: float) -> np.ndarray:
    u = rng.uniform(-spread, spread, size=domain.dim)
    return domain.center + u * (domain.upper - domain.center)


# ---------------------------------------------------------------------------
# conjugacy: criteria 1 and 2 on the battery (legendre layer)


def _battery() -> dict:
    fields = dict(models.field_registry())
    fields["indefinite-quadratic"] = core.quadratic_field(
        np.array([[2.0, 0.0], [0.0, -1.0]]), core.BoxDomain.cube(2, 1.5))
    return fields


PAIR_SAMPLES = 100
HOMOGENEITY_SAMPLES = 100
FRESH_CHUNKS = 4
FRESH_POINTS = 25


def _conjugacy(seed: int, workdir: str) -> list:
    verdicts = []
    for fname, K in _battery().items():
        fresh = K.domain.shrink(0.98).sample(FRESH_CHUNKS * FRESH_POINTS, seed=seed + 1000)

        def pair_verdict(ctx, fname=fname, K=K):
            # verify=True raises ConvergenceError when an identity misses its tolerance
            ctx[fname] = legendre.make_legendre_pair(
                K, samples=PAIR_SAMPLES, seed=seed, verify=True,
                round_trip_tol=o.ROUND_TRIP, biconjugate_tol=o.BICONJUGATE,
                hessian_tol=o.HESSIAN_INVERSE)
            return [o.holds("pair verified", True)]

        def homogeneity_verdict(ctx, fname=fname, K=K):
            rep = legendre.homogeneity_check(K, samples=HOMOGENEITY_SAMPLES, seed=seed)
            checks = [o.holds("degree-2 agrees with conjugacy", rep.degree2 == rep.equal)]
            if fname == "quadratic":
                checks.append(o.le("quadratic conjugacy gap", rep.max_conjugacy_gap,
                                   o.QUADRATIC_CONJUGACY_GAP))
            return checks

        verdicts += [(f"pair:{fname}", pair_verdict),
                     (f"homogeneity:{fname}", homogeneity_verdict)]
        for c in range(FRESH_CHUNKS):
            def fresh_verdict(ctx, fname=fname, K=K, xs=fresh[c::FRESH_CHUNKS]):
                pair = ctx[fname]
                rt = hi = 0.0
                for x in xs:
                    z = pair.forward(x)
                    rt = max(rt, float(np.max(np.abs(pair.inverse(z) - x))))
                    gap = K.hess(x) @ pair.Kstar.hess(z) - np.eye(K.dim)
                    hi = max(hi, float(np.max(np.abs(gap))))
                return [o.le("round trip", rt, o.ROUND_TRIP),
                        o.le("hessian inverse", hi, o.HESSIAN_INVERSE)]

            verdicts.append((f"fresh:{fname}:{c}", fresh_verdict))
    return verdicts


# ---------------------------------------------------------------------------
# trajectory: criteria 10 and 11 plus convert-ph on swing (dynamics layer)
#
# Verdicts are sized so the converted-swing runs are the larger share of the
# list: both the median and the tail verdict are then converted-swing runs,
# whose midpoint Newton solve inverts the Legendre map at every iteration.

EQUIV_RUNS, EQUIV_HORIZON = 4, 0.1
LOSSLESS_RUNS, LOSSLESS_HORIZON = 2, 0.1
DISSIPATION_RUNS, DISSIPATION_HORIZON, DISSIPATION_STEP = 2, 1.0, 5e-3
CONVERT_RUNS, CONVERT_HORIZON = 20, 0.015
MIDPOINT_STEP = 1e-3
# initial states within this share of the half-width around the box centre;
# the acceptance tests start at a quarter of the half-width
STATE_SPREAD = 0.3


def _trajectory(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    reg = models.model_registry()
    sw = models.SwingModel()
    ph_box = sw.as_port_hamiltonian().domain
    equiv_z0 = [_offset_state(ph_box, rng, STATE_SPREAD) for _ in range(EQUIV_RUNS)]
    lossless_z0 = [_offset_state(ph_box, rng, STATE_SPREAD) for _ in range(LOSSLESS_RUNS)]
    relax = ("rc-tanh", "scalar-relaxation", "swing")
    diss_x0 = {m: [_offset_state(reg[m].hpg.domain, rng, STATE_SPREAD)
                   for _ in range(DISSIPATION_RUNS)] for m in relax}
    convert_z0 = [_offset_state(reg["swing"].ph.domain, rng, STATE_SPREAD)
                  for _ in range(CONVERT_RUNS)]
    u_equiv = lambda t: np.array([0.2 * np.sin(t)])
    u_zero = lambda t: np.zeros(1)

    verdicts = []
    for i, z0 in enumerate(equiv_z0):
        def equiv(ctx, z0=z0):
            ph, hpg = sw.as_port_hamiltonian(), sw.as_hessian_pseudo_gradient()
            span = (0.0, EQUIV_HORIZON)
            ph_traj = dynamics.simulate_port_hamiltonian(ph, z0, u_equiv, span, MIDPOINT_STEP)
            x_traj = dynamics.simulate_pseudo_gradient(
                hpg, sw.ph_state_to_co_energy(z0), u_equiv, span, MIDPOINT_STEP,
                enforce_domain=False)
            gap = max(float(np.max(np.abs(sw.ph_state_to_co_energy(z) - x)))
                      for z, x in zip(ph_traj.states, x_traj.states))
            return [o.le("representation gap", gap, o.REPRESENTATION_GAP)]
        verdicts.append((f"c11-equivalence:{i}", equiv))
    for i, z0 in enumerate(lossless_z0):
        def lossless(ctx, z0=z0):
            ph = sw.lossless().as_port_hamiltonian()
            traj = dynamics.simulate_port_hamiltonian(ph, z0, u_zero, (0.0, LOSSLESS_HORIZON),
                                                      MIDPOINT_STEP)
            H0 = ph.H(traj.states[0])
            drift = max(abs(ph.H(s) - H0) for s in traj.states)
            return [o.le("lossless energy drift", drift, o.LOSSLESS_DRIFT)]
        verdicts.append((f"c11-lossless:{i}", lossless))
    for m in relax:
        for i, x0 in enumerate(diss_x0[m]):
            def dissipation(ctx, m=m, x0=x0, certify=(i == 0 and m != "swing")):
                b = models.model_registry()[m]
                checks = []
                if certify:
                    cert = dynamics.certify_relaxation(b.hpg, u_box=b.u_box, n_samples=150,
                                                       seed=seed)
                    ctx[m] = cert.storage
                    checks.append(o.holds("relaxation certified", cert.relaxation))
                amp, freq = (0.2, 1.0) if m == "swing" else (0.5, 1.3)
                u = lambda t: np.full(b.hpg.nu, amp * np.sin(freq * t))
                traj = dynamics.simulate_pseudo_gradient(
                    b.hpg, x0, u, (0.0, DISSIPATION_HORIZON), DISSIPATION_STEP,
                    storage=ctx.get(m))
                mon = dynamics.dissipation_monitor(traj)
                steps = int(round(DISSIPATION_HORIZON / DISSIPATION_STEP))
                return checks + [
                    o.holds("every step taken", len(traj.times) - 1 == steps),
                    o.le("dissipation violation / supply scale",
                         mon.max_violation / mon.supply_scale, o.DISSIPATION_RATIO)]
            verdicts.append((f"c10-dissipation:{m}:{i}", dissipation))
    for i, z0 in enumerate(convert_z0):
        def convert(ctx, z0=z0, i=i):
            # the cli's convert-ph: conversion once, then both simulations and the gap
            checks = []
            if i == 0:
                b = models.model_registry()["swing"]
                res = dynamics.ph_to_hessian_pseudo_gradient(
                    b.ph, b.split, seed=seed, u_box=b.u_box, tol=o.CONVERT_STRUCTURE)
                ctx["converted"] = (b.ph, res)
                checks = [o.le(key, res.report[key], o.CONVERT_STRUCTURE)
                          for key in ("I_structure_gap", "II_additive_gap", "III_rayleigh_gap")]
            ph, res = ctx["converted"]
            split = res.split
            perm = np.array(split.idx1 + split.idx2)
            k1 = len(split.idx1)

            def to_x(z):
                zp = z[perm]
                return np.concatenate([split.H1.grad(zp[:k1]), split.H2.grad(zp[k1:])])

            span = (0.0, CONVERT_HORIZON)
            ph_traj = dynamics.simulate_port_hamiltonian(ph, z0, u_zero, span, MIDPOINT_STEP)
            hpg_traj = dynamics.simulate_pseudo_gradient(res.system, to_x(z0), u_zero, span,
                                                         MIDPOINT_STEP, enforce_domain=False)
            gap = max(float(np.max(np.abs(to_x(z) - x)))
                      for z, x in zip(ph_traj.states, hpg_traj.states))
            return checks + [o.le("converted trajectory gap", gap, o.CONVERT_TRAJECTORY_GAP)]
        verdicts.append((f"convert-ph:swing:{i}", convert))
    return verdicts


# ---------------------------------------------------------------------------
# structure: criteria 3, 4, 5, 7, 8, 9 and reconstruct_K (reciprocity,
# geometry, linear and quadrature layers)
#
# The quadrature and variational verdicts (criteria 4, 7 potential, 9 and
# reconstruct_K) are sized alike and make up most of the list, so the median
# and the tail verdict are among them; the sampled checks of criteria 3, 5, 7
# and 8 are one verdict each.

IMPULSE_TIMES = np.linspace(0.05, 5.0, 50)
IMPULSE_CLEAN, IMPULSE_PERTURBED = 16, 8
# (n, m) per Hankel verdict.  Single-input systems with n >= 3 miss the 1e-4
# recovery tolerance on a few percent of random draws (13% at n = 5); that is
# a library limitation reported in perfbench/README.md, not a timing question,
# so only n = 2 runs single-input here.
HANKEL_VERDICTS = (((2, 1), (5, 2)), ((3, 2), (4, 2))) * 2
FIXED_POINT_SIZES = ((2, 1), (3, 2), (4, 1), (3, 1), (4, 2))
ORACLE_METRICS = 50
POTENTIAL_CHUNKS, POTENTIAL_POINTS = 8, 12
NOMINALS, NOMINAL_HORIZON, NOMINAL_STEP = 3, 0.8, 4e-3
RECONSTRUCT_POINTS = 3


def _random_systems(rng, sizes, **kw) -> list:
    return [models.random_reciprocal_system(rng, n, m, **kw) for n, m in sizes]


def _perturb_b(s):
    """Move one column of B by 5e-2 along the row of C with the largest norm.

    Criterion 3 adds 5e-2 to B[0, 0]; on about 0.2% of random systems that
    entry is barely observed and the impulse asymmetry stays below 1e-3, so
    the system is hardly non-reciprocal at all.  Perturbing along an observed
    direction keeps every must-fail system visibly non-reciprocal (over
    12000 random systems the smallest asymmetry was 3.2e-3).
    """
    norms = np.linalg.norm(s.C, axis=1)
    k = int(np.argmax(norms))
    B = s.B.copy()
    B[:, (k + 1) % s.m] += 5e-2 * s.C[k] / norms[k]
    return linear.LinearSystem(s.A, B, s.C, s.D)


def _textbook_bm():
    return models.BraytonMoserModel(L=np.array([1.0]), C=np.array([0.5]),
                                    lam=np.array([[1.0]]), R=np.array([0.7]),
                                    Gc=np.array([0.4]), quartic=np.array([0.5]))


def _bm_nominal(aff, x0, u):
    times, states = dynamics.integrate_implicit_midpoint(
        lambda t, x: aff.f(x) + np.asarray(aff.g(x)) @ u(t), x0,
        (0.0, NOMINAL_HORIZON), NOMINAL_STEP, domain=aff.domain)
    inputs = np.stack([u(t) for t in times])
    outputs = np.stack([core.as_vector(aff.h(s), aff.nu) + np.asarray(aff.k(s)) @ v
                        for s, v in zip(states, inputs)])
    return dynamics.Trajectory(times, states, inputs, outputs)


def _structure(seed: int, workdir: str) -> list:
    # one stream per input family, so resizing one family leaves the others alone
    rng, rng_clean, rng_pert, rng_hankel = np.random.default_rng(seed).spawn(4)
    clean = _random_systems(rng_clean, [(2 + i % 4, 1 + i % 3) for i in range(IMPULSE_CLEAN)])
    perturbed = [(_perturb_b(s), sig) for s, _, sig in _random_systems(
        rng_pert, [(2 + i % 4, 2 + i % 2) for i in range(IMPULSE_PERTURBED)])]
    hankel = [[(s, G, sig, cli.default_past_inputs(s, rng_hankel))
               for s, G, sig in _random_systems(rng_hankel, sizes)] for sizes in HANKEL_VERDICTS]
    fixed = []
    for n, m in FIXED_POINT_SIZES:
        s, G, sig = models.random_reciprocal_system(rng, n, m, k=n)
        while True:
            # the iteration must start from a storage that passes the passivity LMI
            W = rng.standard_normal((n, n))
            Q0 = G + 1e-3 * (W + W.T)
            if linear.lmi_residual(s, Q0, tol=1e-8).passive:
                break
        fixed.append((s, G, sig, Q0))
    oracle_fields = []
    for i in range(ORACLE_METRICS):
        n = 1 + i % 4
        W = rng.standard_normal((n, n))
        oracle_fields.append((W @ W.T + 3.0 * np.eye(n), rng.uniform(0.0, 0.5, size=n),
                              int(rng.integers(1_000_000))))
    bm = _textbook_bm()
    pot_points = bm.domain.shrink(0.7).sample(POTENTIAL_CHUNKS * POTENTIAL_POINTS, seed=seed)
    bm_reg = models.model_registry()["brayton-moser"]
    nominal_box = bm_reg.affine.domain.shrink(0.5)
    # criterion 9's nominal trajectories are inputs of the variational test
    nominals = []
    for i, x0 in enumerate(nominal_box.sample(NOMINALS, seed=seed)):
        amp = float(rng.uniform(-0.3, 0.3))
        u = ((lambda t, a=amp: np.array([a])) if i % 2 == 0
             else (lambda t, a=amp: np.array([a * np.sin(1.5 * t)])))
        nominals.append((_bm_nominal(bm_reg.affine, x0, u), u))
    coupling = float(rng.uniform(0.1, 0.4))
    rec_points = core.BoxDomain.cube(2).shrink(0.8).sample(RECONSTRUCT_POINTS, seed=seed)
    flat_lin = rng.uniform(-0.5, 0.5, size=2)

    def impulse(ctx):
        worst = max(linear.impulse_response_symmetry(s, sig, IMPULSE_TIMES).max_residual
                    for s, _, sig in clean)
        best = min(linear.impulse_response_symmetry(s, sig, IMPULSE_TIMES).max_residual
                   for s, sig in perturbed)
        return [o.le("impulse residual", worst, o.IMPULSE_CLEAN),
                o.gt("perturbed B detected", best, o.IMPULSE_PERTURBED_FLOOR)]

    def fixed_point(ctx):
        gap, iters = 0.0, 0
        for s, G, sig, Q0 in fixed:
            res = linear.compatible_storage_fixed_point(s, G, Q0, sigma=sig)
            gap = max(gap, float(np.max(np.abs(res["Q"] - G))))
            iters = max(iters, res["iterations"])
        reg = models.model_registry()["indefinite-g"]
        res = linear.compatible_storage_fixed_point(reg.linear, reg.G_lin, reg.Q0,
                                                    sigma=reg.sigma)
        Q, G = res["Q"], reg.G_lin
        compat = float(np.max(np.abs(Q - G @ np.linalg.solve(Q, G))))
        return [o.le("definite |Q - G|", gap, o.FIXED_POINT_GAP),
                o.le("iterations", iters, o.FIXED_POINT_ITERATIONS),
                o.le("indefinite compatibility", compat, o.COMPATIBILITY_GAP),
                o.ge("LMI min eigenvalue", res["lmi_min_eigenvalue"], o.LMI_MIN_EIGENVALUE)]

    def nonlinear_reciprocity(ctx):
        circuit = reciprocity.check_reciprocity_affine(bm.as_affine(), bm.metric_field(),
                                                       bm.sigma(), n_samples=60, seed=seed)
        hpg = models.SwingModel().as_hessian_pseudo_gradient()
        facade = core.NonlinearSystem(
            hpg.nx, hpg.nu,
            F=lambda x, u: np.linalg.solve(hpg.metric(x), -hpg.V_x(x, u)),
            H=lambda x, u: hpg.output(x, u), domain=hpg.domain)
        swing = reciprocity.check_reciprocity_hessian(facade, hpg.K, hpg.sigma, n_samples=40,
                                                      seed=seed)
        E = np.array([[0.0, 1e-2], [1e-2, 0.0]])
        bad = reciprocity.check_reciprocity_affine(
            bm.as_affine(), core.MetricField.constant(bm.metric_matrix + E, bm.domain),
            bm.sigma(), n_samples=60, seed=seed)
        return [o.le("circuit residual", circuit.max_residual, o.NONLINEAR_RECIPROCITY),
                o.le("swing residual", swing.max_residual, o.NONLINEAR_RECIPROCITY),
                o.ge("perturbed metric detected", bad.max_residual, o.PERTURBED_METRIC_FLOOR)]

    def christoffel(ctx):
        worst = 0.0
        for Q, a, pseed in oracle_fields:
            n = len(a)
            dom = core.BoxDomain.cube(n, 1.2)
            K = core.ScalarField(
                n, lambda x, Q=Q, a=a: 0.5 * float(x @ Q @ x) + 0.25 * float(a @ x ** 4),
                dom, gradient=lambda x, Q=Q, a=a: Q @ x + a * x ** 3,
                hessian=lambda x, Q=Q, a=a: Q + np.diag(3.0 * a * x ** 2))
            G = core.MetricField.from_hessian(K)
            for x in dom.shrink(0.8).sample(2, seed=pseed):
                diff = geometry.hessian_christoffel(K, x) - geometry.levi_civita(G, x)
                worst = max(worst, float(np.max(np.abs(diff))))
        flat = geometry.flatness_check(core.quadratic_field(
            np.array([[1.5, 0.2], [0.2, 1.0]]), core.BoxDomain.cube(2, 1.5), lin=flat_lin),
            seed=seed)
        curved = core.ScalarField(2, lambda x: float(np.sum(np.cosh(x))),
                                  core.BoxDomain.cube(2, 1.2), gradient=lambda x: np.sinh(x),
                                  hessian=lambda x: np.diag(np.cosh(x)))
        return [o.le("christoffel cross-oracle gap", worst, o.CROSS_ORACLE),
                o.holds("quadratic-affine is flat", flat),
                o.holds("cosh is curved", not geometry.flatness_check(curved, seed=seed))]

    box = core.BoxDomain.cube(2)

    def non_hessian(ctx):
        Gbad = core.MetricField(2, lambda x: np.diag([1.0 + x[1] ** 2, 1.0]), box)
        try:
            reciprocity.reconstruct_K(Gbad, base_point=np.zeros(2), seed=seed)
        except core.DimensionMismatchError:
            return [o.holds("non-Hessian metric rejected", True)]
        return [o.holds("non-Hessian metric rejected", False)]

    verdicts = [("c3-impulse", impulse), ("c5-fixed-point", fixed_point),
                ("c7-reciprocity", nonlinear_reciprocity), ("c8-christoffel", christoffel),
                ("reconstruct-K:non-hessian", non_hessian)]

    for i, systems in enumerate(hankel):
        def hankel_verdict(ctx, systems=systems):
            rel = 0.0
            for s, G, sig, past in systems:
                G_hat = linear.recover_metric_hankel(s, sig, horizon=30.0, past_inputs=past)
                rel = max(rel, float(np.linalg.norm(G_hat - G) / np.linalg.norm(G)))
            return [o.le("hankel relative error", rel, o.HANKEL_RELATIVE_ERROR)]
        verdicts.append((f"c4-hankel:{i}", hankel_verdict))

    for c in range(POTENTIAL_CHUNKS):
        def potential(ctx, xs=pot_points[c::POTENTIAL_CHUNKS]):
            if "potential" not in ctx:
                ctx["potential"] = reciprocity.reconstruct_potential(
                    bm.as_affine().to_general(), bm.metric_field(), bm.sigma(),
                    base_point=(np.zeros(2), np.zeros(1)), n_samples=40, seed=seed)
            pot, P = ctx["potential"], bm.potential()
            p0 = P(np.zeros(2))
            gap = max(abs(pot.V(np.concatenate([x, [0.0]])) - (P(x) - p0)) for x in xs)
            return [o.le("potential gap", gap, o.POTENTIAL_GAP)]
        verdicts.append((f"c7-potential:{c}", potential))

    probes = [lambda t: np.array([np.exp(-((t - 0.5) / 0.15) ** 2)]),
              lambda t: np.array([np.sin(np.pi * t)]),
              lambda t: np.array([0.5 * np.exp(-t)])]
    dx0 = np.array([0.1, -0.05])

    for i, (traj, u) in enumerate(nominals):
        for j, probe in enumerate(probes):
            def variational(ctx, traj=traj, u=u, probe=probe):
                rep = geometry.external_reciprocity_test(
                    bm_reg.affine, bm_reg.metric, traj, probe_inputs=[probe],
                    tol=o.VARIATIONAL_GAP, delta_x0=dx0, u_signal=u, sigma=bm_reg.sigma)
                return [o.le("output gap", rep.max_output_gap, o.VARIATIONAL_GAP),
                        o.le("isomorphism gap", rep.max_state_gap, o.VARIATIONAL_GAP)]
            verdicts.append((f"c9-variational:{i}:{j}", variational))

    def non_reciprocal(ctx, traj=nominals[0][0], u=nominals[0][1]):
        aff = bm_reg.affine
        G_bad = core.MetricField.constant(np.array([[1.0, 0.3], [0.3, -1.0]]), aff.domain)
        rep = geometry.external_reciprocity_test(
            aff, G_bad, traj, probe_inputs=probes[:1], tol=o.VARIATIONAL_GAP,
            delta_x0=dx0, u_signal=u, sigma=bm_reg.sigma)
        return [o.ge("non-reciprocal metric detected",
                     max(rep.max_output_gap, rep.max_state_gap), o.NON_RECIPROCAL_FLOOR)]
    verdicts.append(("c9-variational:non-reciprocal", non_reciprocal))

    Kc = core.ScalarField(
        2, lambda x: float(np.sum(np.cosh(x))) + coupling * float(x[0] * x[1]), box,
        gradient=lambda x: np.sinh(x) + coupling * np.array([x[1], x[0]]),
        hessian=lambda x: np.diag(np.cosh(x)) + coupling * np.array([[0.0, 1.0], [1.0, 0.0]]))
    for i, x in enumerate(rec_points):
        def reconstruct(ctx, x=x):
            if "K" not in ctx:
                ctx["K"] = reciprocity.reconstruct_K(core.MetricField.from_hessian(Kc),
                                                     base_point=np.zeros(2), seed=seed)
            rec, z = ctx["K"], np.zeros(2)
            expected = Kc(x) - Kc(z) - float(Kc.grad(z) @ x)
            grad_gap = float(np.max(np.abs(rec.grad(x) - (Kc.grad(x) - Kc.grad(z)))))
            return [o.le("value gap", abs(rec(x) - expected), o.RECONSTRUCT_K),
                    o.le("gradient gap", grad_gap, o.RECONSTRUCT_K)]
        verdicts.append((f"reconstruct-K:{i}", reconstruct))
    return verdicts


# ---------------------------------------------------------------------------
# cli: subprocess invocations (cli and schema layers, interpreter cold start)


def report_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class Invocation:
    """One ``python -m recipkit.cli`` run with its expected exit code and checks.

    A run expected to succeed writes a report; runs with equal ``argv`` must
    write byte-identical ones.
    """

    name: str
    argv: list
    checks: Callable = lambda rep: []
    code: int = o.EXIT_OK


def _cli_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    s, G, sig = models.random_reciprocal_system(rng, 3, 2)
    doc = {"kind": "linear", "name": "bench-linear", "A": s.A.tolist(), "B": s.B.tolist(),
           "C": s.C.tolist(), "D": s.D.tolist(), "G": G.tolist(),
           "sigma": [int(v) for v in sig.signs]}
    a, b = rng.uniform(0.5, 1.5, size=2)
    field = {"field": {"polynomial": {
        "dim": 2,
        "terms": [{"exponents": [2, 0], "coeff": float(a)},
                  {"exponents": [0, 2], "coeff": float(b)},
                  {"exponents": [4, 0], "coeff": 0.25}],
        "domain": {"lower": [-1.5, -1.5], "upper": [1.5, 1.5]}}}}
    paths = {"linear": os.path.join(workdir, "linear.json"),
             "field": os.path.join(workdir, "field.json"),
             "malformed": os.path.join(workdir, "malformed.json")}
    with open(paths["linear"], "w") as fh:
        json.dump(doc, fh)
    with open(paths["field"], "w") as fh:
        json.dump(field, fh)
    with open(paths["malformed"], "w") as fh:
        fh.write('{"kind": "linear", "A": [[-1.0]')
    x0 = _offset_state(models.model_registry()["rc-tanh"].hpg.domain, rng, STATE_SPREAD)
    paths["x0"] = ",".join(f"{v:.6f}" for v in x0)
    return paths


def _legendre_checks(rep) -> list:
    return [o.le("round trip", rep["round_trip_gap"], o.ROUND_TRIP),
            o.le("hessian inverse", rep["hessian_inverse_gap"], o.HESSIAN_INVERSE),
            o.holds("degree-2 agrees with conjugacy",
                    rep["homogeneous_degree_two"] == rep["conjugacy_equals_value"])]


def cli_invocations(seed: int, inputs: dict) -> list:
    s = ["--seed", str(seed)]
    recover = Invocation("recover-g", ["recover-g", "--model", "indefinite-g", *s],
                         checks=lambda r: [o.le("relative error", r["reference_relative_error"],
                                                o.HANKEL_RELATIVE_ERROR)])
    legendre_cosh = Invocation("legendre:cosh",
                               ["legendre", "--field", "cosh", "--samples", "40", *s],
                               checks=_legendre_checks)
    return [
        Invocation("list-models", ["list-models"],
                   checks=lambda r: [o.holds("7 models, 7 fields",
                                             len(r["models"]) == 7 and len(r["fields"]) == 7)]),
        Invocation("check-reciprocity:brayton-moser",
                   ["check-reciprocity", "--model", "brayton-moser", "--samples", "60", *s],
                   checks=lambda r: [o.holds("reciprocal", r["ok"]),
                                     o.le("state residual", r["residual_state"], o.CLI_RECIPROCITY),
                                     o.le("cross residual", r["residual_cross"], o.CLI_RECIPROCITY)]),
        Invocation("check-passivity:indefinite-g",
                   ["check-passivity", "--model", "indefinite-g"],
                   checks=lambda r: [o.holds("passive", r["passive"])]),
        Invocation("compatible-q:indefinite-g", ["compatible-q", "--model", "indefinite-g"],
                   checks=lambda r: [o.le("compatibility gap", r["compatibility_gap"],
                                          o.COMPATIBILITY_GAP),
                                     o.ge("LMI min eigenvalue", r["lmi_min_eigenvalue"],
                                          o.LMI_MIN_EIGENVALUE)]),
        recover,
        legendre_cosh,
        Invocation("christoffel:cosh", ["christoffel", "--field", "cosh", "--samples", "10", *s],
                   checks=lambda r: [o.le("cross-oracle gap", r["cross_oracle_gap"], o.CROSS_ORACLE),
                                     o.holds("cosh is curved", not r["flat"])]),
        Invocation("simulate:rc-tanh",
                   ["simulate", "--model", "rc-tanh", "--horizon", "2", f"--x0={inputs['x0']}"],
                   checks=lambda r: [o.holds("200 steps", r["steps"] == 200)]),
        Invocation("certify-relaxation:rc-tanh",
                   ["certify-relaxation", "--model", "rc-tanh", "--samples", "50", *s],
                   checks=lambda r: [o.holds("relaxation certified", r["relaxation"])]),
        Invocation("check-reciprocity:input-linear",
                   ["check-reciprocity", "--input", inputs["linear"]],
                   checks=lambda r: [o.le("residual", r["residual"], o.CLI_RECIPROCITY),
                                     o.le("impulse residual", r["impulse_residual"],
                                          o.CLI_RECIPROCITY)]),
        Invocation("legendre:input-field",
                   ["legendre", "--input", inputs["field"], "--samples", "30", *s],
                   checks=_legendre_checks),
        Invocation("check-reciprocity:swing", ["check-reciprocity", "--model", "swing"],
                   code=o.EXIT_INPUT),
        Invocation("check-reciprocity:malformed-json",
                   ["check-reciprocity", "--input", inputs["malformed"]],
                   code=o.EXIT_INPUT),
        # repeats of the same invocation: report.json must be byte-identical
        Invocation("legendre:cosh:repeat", legendre_cosh.argv, checks=_legendre_checks),
        Invocation("recover-g:repeat", recover.argv, checks=recover.checks),
    ]


def run_invocation(inv: Invocation, ctx: dict, tag: str) -> list:
    """Run one subprocess, wait for it and check its exit code and report.

    ``ctx["run"]`` holds what outlives a pass: the command prefix, the
    environment, the first report digest of every invocation and the peak
    resident memory of the children.  With ``trace`` set the child writes its
    spans and counts to a file that the runner merges after the call.
    """
    run = ctx["run"]
    out_dir = os.path.join(run["workdir"], f"out-{tag}")
    report = inv.code == o.EXIT_OK
    argv = list(inv.argv) + (["--out", out_dir] if report else [])
    env = run["env"]
    if run.get("tracer") is not None:
        trace_path = os.path.join(run["workdir"], f"trace-{tag}.json")
        env = dict(env, PERFBENCH_TRACE_OUT=trace_path,
                   PERFBENCH_VERDICT=str(run["tracer"].verdict))
    proc = subprocess.Popen(run["command"] + argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stderr.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    run["child_rss_kb"] = max(run.get("child_rss_kb", 0), usage.ru_maxrss)
    if run.get("tracer") is not None:
        run["tracer"].merge_child(trace_path)
    checks = [o.holds(f"exit code {inv.code}", proc.returncode == inv.code)]
    if proc.returncode != inv.code:
        sys.stderr.write(f"{inv.name}: exit {proc.returncode}\n{err.decode(errors='replace')}")
    elif report:
        path = os.path.join(out_dir, "report.json")
        digest = report_digest(path)
        with open(path) as fh:
            checks += inv.checks(json.load(fh))
        first = run["digests"].setdefault(" ".join(inv.argv), digest)
        checks.append(o.holds("report.json byte-identical to the first run", digest == first))
    return checks


def _cli(seed: int, workdir: str) -> list:
    inputs = _cli_inputs(seed, workdir)
    verdicts = []
    for k, inv in enumerate(cli_invocations(seed, inputs)):
        def invoke(ctx, inv=inv, k=k):
            return run_invocation(inv, ctx, f"{k:02d}")
        verdicts.append((inv.name, invoke))
    return verdicts
