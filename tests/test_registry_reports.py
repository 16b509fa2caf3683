"""Every registry command, and a few JSON documents, against a committed table of answers.

The 8 model subcommands run on each registry model, and `legendre` and `christoffel` on
each registry field: 70 runs.  The subcommands that apply to each document in DOCUMENTS
run on it with --input <name>.json.  All run in one process.  Each run's exit code is
compared with tests/registry_reports.json, and so is each report.json it writes: strings, booleans,
integers and nulls exactly, floats within FLOAT_TOL * (1 + |reference|), so that rounding
in the last digits on another BLAS passes while a moved verdict or margin fails.  A small
margin, |reference| in MARGIN_BAND, must also keep its sign and stay within a factor 2,
since the absolute floor alone would let it move tenfold; rounding-level numbers below
the band keep the floor only.

A change that moves an answer rewrites the table and quotes its diff:

    PYTHONPATH=src python tests/test_registry_reports.py --write

A change that claims the same answers bit for bit shows it with --digests, which prints
each run's exit code and the SHA-256 of its report.json and, where one is written, its
trajectory.csv, one line per run: the outputs of two checkouts must not differ.

    PYTHONPATH=src python tests/test_registry_reports.py --digests > digests.txt
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from recipkit.cli import main
from recipkit.models import field_registry, model_registry
from recipkit.schema import MODEL_PATH_ENV

FIXTURE = Path(__file__).with_name("registry_reports.json")
FLOAT_TOL = 1e-9
MARGIN_BAND = (1e-13, 1e-6)
MODEL_COMMANDS = ("check-reciprocity", "check-passivity", "compatible-q", "recover-g",
                  "variational-test", "simulate", "certify-relaxation", "convert-ph")
FIELD_COMMANDS = ("legendre", "christoffel")
OUTPUTS = ("report.json", "trajectory.csv")  # the files --digests hashes, where a run writes them


def _poly(dim, terms):
    return {"polynomial": {"dim": dim,
                           "terms": [{"exponents": e, "coeff": c} for e, c in terms]}}


QUARTIC_P = _poly(2, [([2, 0], 0.5), ([0, 2], 0.5), ([4, 0], 0.25), ([1, 1], 0.2)])
CONVEX_K = _poly(2, [([2, 0], 0.5), ([0, 2], 0.5), ([4, 0], 1 / 12), ([0, 4], 1 / 12)])
# K = a (x - c)^4 - 5e-4 x^2 expanded, with a = 100/12 and c = 0.33: K'' = 100 (x - c)^2 - 1e-3
# is negative on the window |x - c| < 3.2e-3, which certify-relaxation's samples find
_A, _C = 100 / 12, 0.33
WINDOW_K = _poly(1, [([4], _A), ([3], -4 * _A * _C), ([2], 6 * _A * _C ** 2 - 5e-4),
                     ([1], -4 * _A * _C ** 3), ([0], _A * _C ** 4)])
# H = p^2/2 + q^2/2 (+ c q^4 for each c in q4) with J = [[0, -1], [1, 0]], R = diag(0.1, 0),
# split into H1 = p^2/2 and H2 = q^2/2 (+ c q^4), P1 = 0.05 p^2, P2 = 0 and Pc = g1 = [[1]]
def _port_hamiltonian(*q4):
    return {"kind": "port_hamiltonian",
            "H": _poly(2, [([2, 0], 0.5), ([0, 2], 0.5)] + [([0, 4], c) for c in q4]),
            "J": [[0.0, -1.0], [1.0, 0.0]], "g": [[1.0], [0.0]],
            "R": {"linear": [[0.1, 0.0], [0.0, 0.0]]},
            "split": {"idx1": [0], "idx2": [1], "H1": _poly(1, [([2], 0.5)]),
                      "H2": _poly(1, [([2], 0.5)] + [([4], c) for c in q4]),
                      "P1": _poly(1, [([2], 0.05)]), "P2": _poly(1, [([2], 0.0)]),
                      "Pc": [[1.0]], "g1": [[1.0]]}}


# name -> document: nonlinear systems on a constant, an indefinite and two Hessian
# metrics, pseudo-gradient systems in the (P, g) and the joint-potential form, one
# whose K is not convex on a narrow window, and a port-Hamiltonian system whose H2 is
# convex on the box next to one whose H2'' = 1 - q^2 is negative for |q| > 1
DOCUMENTS = {
    "nonlinear-constant": {"kind": "nonlinear", "potential": QUARTIC_P,
                           "metric": {"constant": [[2.0, 0.5], [0.5, 1.0]]},
                           "g": [[1.0], [0.5]]},
    "nonlinear-indefinite": {"kind": "nonlinear", "potential": QUARTIC_P,
                             "metric": {"constant": [[1.0, 0.0], [0.0, -1.0]]},
                             "g": [[1.0], [0.0]]},
    "nonlinear-hessian-of": {"kind": "nonlinear", "potential": QUARTIC_P,
                             "metric": {"hessian_of": CONVEX_K}, "g": [[1.0], [0.5]]},
    "nonlinear-hessian-of-cosh": {"kind": "nonlinear", "potential": QUARTIC_P,
                                  "metric": {"hessian_of": {"builtin": "cosh"}},
                                  "g": [[0.5], [1.0]]},
    "hpg-internal": {"kind": "hessian_pseudo_gradient", "K": CONVEX_K, "P": QUARTIC_P,
                     "g": [[1.0], [0.5]]},
    "hpg-joint": {"kind": "hessian_pseudo_gradient", "K": CONVEX_K,
                  "V": _poly(3, [([2, 0, 0], 0.5), ([0, 2, 0], 0.5), ([4, 0, 0], 0.25),
                                 ([1, 0, 1], -1.0), ([0, 0, 2], 1.0)]),
                  "sigma": [-1]},
    "hpg-nonconvex-window": {"kind": "hessian_pseudo_gradient", "K": WINDOW_K,
                             "P": _poly(1, [([2], 0.5)]), "g": [[1.0]]},
    "ph-convex": _port_hamiltonian(),
    "ph-nonconvex": _port_hamiltonian(-1 / 12),
}
# document kind -> the subcommands (with options) that apply to it
DOCUMENT_COMMANDS = {
    "nonlinear": (("check-reciprocity",), ("variational-test", "--horizon", "0.1")),
    "hessian_pseudo_gradient": (("check-reciprocity",), ("simulate", "--horizon", "2"),
                                ("certify-relaxation",)),
    "port_hamiltonian": (("convert-ph",),),
}


def registry_commands() -> list:
    """argv of every registry run: model subcommands by model, then field subcommands."""
    return ([[c, "--model", m] for c in MODEL_COMMANDS for m in model_registry()]
            + [[c, "--field", f] for c in FIELD_COMMANDS for f in field_registry()])


def document_commands() -> list:
    """argv of every document run, --input naming the document's file, <name>.json."""
    return [[*cmd, "--input", f"{name}.json"] for name, doc in DOCUMENTS.items()
            for cmd in DOCUMENT_COMMANDS[doc["kind"]]]


def _run_each(record) -> dict:
    """' '.join(argv) -> record(exit code, output directory) for every run, in one process;
    the documents are written to a temporary directory that --input resolves against."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null, \
            redirect_stdout(null), redirect_stderr(null):
        for name, doc in DOCUMENTS.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(doc))
        for i, argv in enumerate(registry_commands() + document_commands()):
            out = Path(tmp) / str(i)
            out.mkdir()
            run = [str(Path(tmp) / a) if a.endswith(".json") else a for a in argv]
            table[" ".join(argv)] = record(main([*run, "--out", str(out)]), out)
    return table


def run_all() -> dict:
    """' '.join(argv) -> {"exit": code, "report": report.json or None}."""
    def record(code, out):
        report = out / "report.json"
        return {"exit": code,
                "report": json.loads(report.read_text()) if report.exists() else None}
    return _run_each(record)


def digests() -> dict:
    """' '.join(argv) -> its exit code and the SHA-256 of each file in OUTPUTS it wrote."""
    return _run_each(lambda code, out: [f"exit {code}"] + [
        f"{name} {hashlib.sha256((out / name).read_bytes()).hexdigest()}"
        for name in OUTPUTS if (out / name).exists()])


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def mismatches(got, want, where="") -> list:
    """Paths at which got differs from want: numbers within FLOAT_TOL * (1 + |want|), which
    is exact for integers below 1e9 (json writes an integral float as an integer), and
    within a factor 2 of want, sign included, when |want| is in MARGIN_BAND; all else
    exactly."""
    if _number(want) and _number(got):
        near = abs(got - want) <= FLOAT_TOL * (1.0 + abs(want))
        if MARGIN_BAND[0] <= abs(want) <= MARGIN_BAND[1]:
            near = near and 0.5 <= got / want <= 2.0
        return [] if near else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


def test_registry_reports_match_the_fixture(monkeypatch):
    monkeypatch.delenv(MODEL_PATH_ENV, raising=False)
    want = json.loads(FIXTURE.read_text())
    assert len(registry_commands()) == 70 and len(want) == 70 + len(document_commands())
    assert mismatches(run_all(), want) == []


def test_float_comparison_is_relative_and_types_are_exact():
    assert mismatches({"a": 1.0 + 1e-10, "b": [2e6]}, {"a": 1.0, "b": [2e6 + 1e-4]}) == []
    assert mismatches(1.0 + 3e-9, 1.0) != []
    assert mismatches(1, 1.0) == [] and mismatches(3, 2) != []
    assert mismatches(True, 1) != [] and mismatches(1, True) != []
    assert mismatches("a", "b") != [] and mismatches(None, 0.0) != []
    assert mismatches({"a": 1}, {"a": 1, "b": 2}) != [] and mismatches([1], [1, 1]) != []
    # a small margin keeps its sign and its size within a factor 2; rounding noise does not
    assert mismatches(1.9e-10, 1e-10) == [] and mismatches(2.1e-10, 1e-10) != []
    assert mismatches(-1e-10, 1e-10) != [] and mismatches(0.0, 1e-10) != []
    assert mismatches(-3e-16, 2e-16) == []


def _numbers(node):
    """Every number in a JSON tree."""
    if _number(node):
        yield node
    elif isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _numbers(child)


def test_a_tenfold_move_of_any_small_fixture_margin_fails():
    small = [v for v in _numbers(json.loads(FIXTURE.read_text()))
             if MARGIN_BAND[0] <= abs(v) <= MARGIN_BAND[1]]
    assert small
    assert [(v, f) for v in small for f in (10.0, 0.1) if mismatches(f * v, v) == []] == []


if __name__ == "__main__":
    usage = "usage: PYTHONPATH=src python tests/test_registry_reports.py --write | --digests"
    if sys.argv[1:] not in (["--write"], ["--digests"]):
        raise SystemExit(usage)
    os.environ.pop(MODEL_PATH_ENV, None)
    if sys.argv[1] == "--digests":
        for argv, found in digests().items():
            print(" | ".join([argv, *found]))
    else:
        FIXTURE.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
