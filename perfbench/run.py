#!/usr/bin/env python3
"""recipkit benchmark: time to a checked verdict on four workloads.

Run from the root of a checkout (``src/recipkit`` must exist)::

    python3 perfbench/run.py --workload conjugacy --seed 0 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``.  One caller in one
process issues the workload's fixed list of verdicts (a pass), each after
the previous one returned, and repeats whole passes while the next one is
expected to end within ``--seconds``.  Every verdict is checked against the
pinned tolerances in ``oracle.py``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
A results file with the environment record goes to ``perfbench/results/``.
See ``perfbench/README.md`` for the metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 3
TAIL_BEYOND = 10
TRACED_PASSES = 2
# Machine speed on a shared host swings by up to 2x within minutes.  Every
# timing is divided by the time of a fixed calibration kernel run right before
# and after it, and multiplied by this reference: the kernel's time on the
# 2-core sandbox the benchmark was defined on.
REFERENCE_KERNEL_S = 5e-4

END_TO_END = (("wall_s", "s"), ("verdict_p50_s", "s"), ("verdict_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("legendre.self_s", "s"), ("legendre.grad_evals", "count"),
    ("legendre.hess_evals", "count"),
    ("dynamics.self_s", "s"), ("dynamics.steps", "count"),
    ("dynamics.metric_evals", "count"), ("dynamics.rhs_evals", "count"),
    ("geometry.self_s", "s"), ("geometry.ltv_steps", "count"),
    ("geometry.metric_evals", "count"),
    ("reciprocity.self_s", "s"), ("reciprocity.points", "count"),
    ("reciprocity.metric_evals", "count"),
    ("core.integrate_segment.calls", "count"),
    ("core.integrate_segment.integrand_evals", "count"),
    ("core.integrate_segment.self_s", "s"),
    ("linear.self_s", "s"), ("core.field_evals", "count"),
    ("core.sample.self_s", "s"), ("models.build_s", "s"), ("cli.import_s", "s"),
    ("schema.load_s", "s"), ("cli.handler_s", "s"),
    ("verdict.worst_margin", "ratio"), ("trace.overhead_s", "s"),
)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    paths = [str(SRC), str(HERE)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "recipkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "closed_loop": {"callers": 1, "concurrency": 1}}


@functools.cache
def _kernel_matrix():
    import numpy as np

    return np.random.default_rng(0).standard_normal((8, 8))


def kernel_time() -> float:
    """Time a fixed calibration kernel: a Python float loop and small dense
    solves, the mix the verdicts spend their time in."""
    import numpy as np

    A = _kernel_matrix()
    start = time.perf_counter()
    x = 0.0
    for i in range(3000):
        x += 0.5 * i
    for _ in range(20):
        np.linalg.solve(A, A[0])
    return time.perf_counter() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    """Seconds at the reference speed, from the kernel times around them."""
    return seconds * REFERENCE_KERNEL_S / (0.5 * (before + after))


def measure_setup(workload: str, seed: int, workdir: str) -> list:
    """Fresh interpreters timed from spawn until set-up has finished.

    Returns (raw seconds, kernel time before, kernel time after) per probe.
    """
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(dir=workdir, prefix=f"setup-{k}-")
        before = kernel_time()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), probe_dir],
            env=pinned_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append((elapsed, before, kernel_time()))
    return times


def run_pass(verdicts: list, run: dict, tracer=None) -> dict:
    """Issue every verdict once, in order, and check each against the oracle."""
    import oracle

    ctx = {"run": run}
    latencies, failures, margins = [], [], [(0.0, None, None)]
    kernel = [kernel_time()]
    start = time.perf_counter()
    for vid, (name, fn) in enumerate(verdicts, 1):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                checks = fn(ctx)
            else:
                tracer.verdict = vid
                with tracer.span(f"verdict.{name}", "bench"):
                    checks = fn(ctx)
            error = None
        except Exception as exc:  # a verdict that raises is a failed verdict
            checks, error = [], f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        kernel.append(kernel_time())
        bad = [c for c in checks if not oracle.passed(c)]
        if error or bad or not checks:
            failures.append({"verdict": name, "error": error, "checks": bad})
        margins += [(m, name, c[0]) for c in checks if (m := oracle.margin(c)) is not None]
    worst = max(margins, key=lambda m: m[0])
    return {"wall_s": time.perf_counter() - start, "latencies": latencies,
            "calibrated": [calibrated(t, kernel[i], kernel[i + 1])
                           for i, t in enumerate(latencies)],
            "kernel_s": kernel, "failures": failures,
            "worst_margin": worst[0], "worst_check": worst[1:]}


def timing_metrics(passes: list, key: str) -> dict:
    """wall_s, verdict_p50_s and verdict_tail_s from the ``key`` latencies.

    A pass's time is the sum of its verdict latencies; each verdict's latency
    is its mean over the passes (means, not medians, because the host
    switches between a fast and a slow state and a median of a few passes
    jumps between them).
    """
    per_verdict = sorted(statistics.mean(lat) for lat in zip(*(p[key] for p in passes)))
    return {"wall_s": statistics.mean(sum(p[key]) for p in passes),
            "verdict_p50_s": statistics.median(per_verdict),
            "verdict_tail_s": per_verdict[len(per_verdict) - TAIL_BEYOND - 1]}


def timed_passes(verdicts: list, run: dict, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(verdicts, run))
        if time.perf_counter() - start + passes[-1]["wall_s"] > seconds:
            return passes


def traced_run(args, verdicts: list, run: dict, import_s: float, workdir: str) -> tuple:
    """One untraced pass, then set-up and TRACED_PASSES passes under the tracer."""
    import tracer as tracing
    import workloads

    untraced = [run_pass(verdicts, run)]
    tr = tracing.Tracer()
    tr.install()
    run["tracer"] = tr
    run["command"] = [sys.executable, str(HERE / "cli_child.py")]
    mark = tr.mark()
    with tr.span("setup", "bench"):
        verdicts = workloads.build(args.workload, args.seed, workdir)
    setup = tr.aggregate(mark)
    traced, layers = [], []
    for _ in range(TRACED_PASSES):
        mark = tr.mark()
        traced.append(run_pass(verdicts, run, tr))
        layers.append(tr.aggregate(mark))
    run["tracer"] = None

    counts = [{k: v for k, v in agg.items() if not k.endswith("_s")} for agg in layers]
    margins = {p["worst_margin"] for p in untraced + traced}
    selfcheck = {"counts_repeat": all(c == counts[0] for c in counts),
                 "worst_margin_repeats": len(margins) == 1}
    metrics = {}
    for name, _ in PER_LAYER:
        metrics[name] = setup.get(name, 0) + statistics.median(a.get(name, 0) for a in layers)
    if args.workload != "cli":
        metrics["cli.import_s"] = import_s
    metrics["verdict.worst_margin"] = traced[0]["worst_margin"]
    metrics["trace.overhead_s"] = (timing_metrics(traced, "calibrated")["wall_s"]
                                   - timing_metrics(untraced, "calibrated")["wall_s"])
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    tr.dump(str(spans_path))
    detail = {"selfcheck": selfcheck, "setup_layers": setup, "pass_layers": layers,
              "untraced_wall_s": [p["wall_s"] for p in untraced],
              "traced_wall_s": [p["wall_s"] for p in traced],
              "spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tr.spans)}
    return untraced + traced, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("conjugacy", "trajectory", "structure", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "recipkit" / "__init__.py").is_file():
        print(f"error: {SRC / 'recipkit'} not found; run from a recipkit checkout",
              file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import recipkit  # noqa: F401  (timed: the import every fresh process pays)
    import_s = time.perf_counter() - t0
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RESULTS, prefix=f"work-{args.workload}-")
    try:
        setup_times = measure_setup(args.workload, args.seed, workdir)
        verdicts = workloads.build(args.workload, args.seed, workdir)
        if len(verdicts) <= TAIL_BEYOND:
            raise RuntimeError(f"{args.workload} needs more than {TAIL_BEYOND} verdicts")
        run = {"env": pinned_env(), "workdir": workdir, "digests": {},
               "command": [sys.executable, "-m", "recipkit.cli"]}
        if args.trace:
            passes, metrics, detail = traced_run(args, verdicts, run, import_s, workdir)
            spec = PER_LAYER
        else:
            passes = timed_passes(verdicts, run, args.seconds)
            detail = {}
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_pass = len(verdicts)
    latencies = [x for p in passes for x in p["latencies"]]
    attempted = len(latencies)
    failed = sum(len(p["failures"]) for p in passes)
    tail_pct = 100.0 * (per_pass - TAIL_BEYOND) / per_pass
    if not args.trace:
        rss_kb = (run.get("child_rss_kb", 0) if args.workload == "cli"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {**timing_metrics(passes, "calibrated"),
                   "setup_s": statistics.median(calibrated(*t) for t in setup_times),
                   "peak_rss_mb": rss_kb / 1024.0}
        detail = {"uncalibrated": {**timing_metrics(passes, "latencies"),
                                   "setup_s": statistics.median(t[0] for t in setup_times)}}
    correct = failed == 0 and all(detail.get("selfcheck", {}).values())

    names = [name for name, _ in verdicts]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "metrics": metrics, "failed_ratio": failed / attempted,
        "attempted": attempted, "failed": failed,
        "passes": len(passes), "verdicts_per_pass": per_pass,
        "tail": {"percentile": tail_pct, "samples_per_pass": per_pass,
                 "samples_beyond": TAIL_BEYOND, "passes": len(passes)},
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setup_times, "import_s": import_s,
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "kernel_s": [p["kernel_s"] for p in passes],
        "verdict_latency_s": {n: [p["latencies"][i] for p in passes]
                              for i, n in enumerate(names)},
        "worst_margin": max(p["worst_margin"] for p in passes),
        "worst_check": max(passes, key=lambda p: p["worst_margin"])["worst_check"],
        "failures": [f for p in passes for f in p["failures"]],
        **detail,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes x "
          f"{per_pass} verdicts, closed loop, 1 caller, BLAS threads 1")
    raw = detail.get("uncalibrated", {})
    for name, unit in spec:
        note = f"  (uncalibrated {raw[name]:.6g} {unit})" if name in raw else ""
        if name == "verdict_tail_s":
            note += (f"  p{tail_pct:.1f}: {TAIL_BEYOND} of {per_pass} verdicts beyond it, "
                     f"per-verdict means of {len(passes)} passes")
        print(f"  {name:40s} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'failed_ratio':40s} {failed / attempted:.6g} ({failed} of {attempted} verdicts)")
    for f in record["failures"]:
        print(f"  FAILED {f['verdict']}: {f['error'] or f['checks']}", file=sys.stderr)
    if not correct and detail.get("selfcheck"):
        print(f"  self-check failed: {detail['selfcheck']}", file=sys.stderr)
    print(f"  results: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
