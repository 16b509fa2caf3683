import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from recipkit.core import SchemaError
from recipkit.dynamics import STRUCTURE_TOL
from recipkit.schema import (
    MODEL_PATH_ENV,
    load_registry_extras,
    load_system,
    load_system_file,
    parse_field,
)


def poly_spec(dim, terms, halfwidth=2.0):
    return {"polynomial": {
        "dim": dim,
        "terms": [{"exponents": list(e), "coeff": c} for e, c in terms],
        "domain": {"lower": [-halfwidth] * dim, "upper": [halfwidth] * dim},
    }}


LINEAR_DOC = {
    "kind": "linear",
    "A": [[-1.0, -2.0], [2.0, -1.0]],
    "B": [[1.0], [0.0]],
    "C": [[1.0, 0.0]],
    "D": [[0.0]],
    "G": [[1.0, 0.0], [0.0, -1.0]],
    "Q0": [[1.0, 0.0], [0.0, 2.0]],
}


def test_parse_field_builtin():
    f = parse_field({"builtin": "cosh"}, "t")
    assert f.dim == 2
    assert f(np.zeros(2)) == pytest.approx(0.0)
    with pytest.raises(SchemaError, match="unknown builtin"):
        parse_field({"builtin": "nope"}, "t")
    with pytest.raises(SchemaError):
        parse_field("cosh", "t")
    with pytest.raises(SchemaError, match="builtin.*polynomial|polynomial"):
        parse_field({}, "t")


def test_parse_field_polynomial():
    f = parse_field(poly_spec(1, [((2,), 0.5)]), "t")
    assert f(np.array([1.2])) == pytest.approx(0.72)
    assert f.grad(np.array([1.2]))[0] == pytest.approx(1.2)
    with pytest.raises(SchemaError, match="expected 2"):
        parse_field(poly_spec(1, [((2,), 0.5)]), "t", dim=2)
    with pytest.raises(SchemaError, match="exponents"):
        parse_field(poly_spec(1, [((2, 1), 0.5)]), "t")
    with pytest.raises(SchemaError, match="nonnegative"):
        parse_field(poly_spec(1, [((-1,), 0.5)]), "t")


def test_load_linear_round_trip():
    b = load_system(dict(LINEAR_DOC), name="osc")
    assert b.kind == "linear" and b.name == "osc"
    assert np.array_equal(b.linear.A, LINEAR_DOC["A"])
    assert np.array_equal(b.G_lin, np.diag([1.0, -1.0]))
    assert np.array_equal(b.Q0, np.diag([1.0, 2.0]))
    assert b.sigma.is_identity  # defaulted


def test_load_linear_errors():
    doc = dict(LINEAR_DOC)
    del doc["B"]
    with pytest.raises(SchemaError, match="missing required key"):
        load_system(doc)
    doc = dict(LINEAR_DOC)
    doc["C"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(SchemaError, match="shape"):
        load_system(doc)
    doc = dict(LINEAR_DOC)
    doc["A"] = [[np.nan, 0.0], [0.0, -1.0]]
    with pytest.raises(SchemaError, match="non-finite"):
        load_system(doc)
    doc = dict(LINEAR_DOC)
    doc["sigma"] = [2]
    with pytest.raises(SchemaError, match="sigma"):
        load_system(doc)
    with pytest.raises(SchemaError, match="unknown kind"):
        load_system({"kind": "mystery"})
    with pytest.raises(SchemaError, match="top level"):
        load_system([1, 2, 3])


def test_load_nonlinear_pseudo_gradient():
    doc = {
        "kind": "nonlinear",
        "potential": poly_spec(1, [((2,), 0.5)]),
        "metric": {"constant": [[2.0]]},
        "g": [[1.0]],
    }
    b = load_system(doc)
    assert b.kind == "affine"
    x = np.array([0.6])
    # G x_dot = -grad P
    assert b.affine.f(x)[0] == pytest.approx(-0.3)
    assert b.affine.h(x)[0] == pytest.approx(0.6)
    assert np.array_equal(b.metric(x), [[2.0]])

    hess_doc = dict(doc)
    hess_doc["metric"] = {"hessian_of": poly_spec(1, [((4,), 0.25)])}
    b2 = load_system(hess_doc)
    assert b2.metric(np.array([1.0]))[0, 0] == pytest.approx(3.0)

    bad = dict(doc)
    bad["metric"] = {"what": 1}
    with pytest.raises(SchemaError, match="constant.*hessian_of|hessian_of"):
        load_system(bad)
    bad = dict(doc)
    bad["g"] = [[1.0], [0.0]]
    with pytest.raises(SchemaError, match="rows"):
        load_system(bad)


@pytest.mark.parametrize("metric", [
    {"constant": [[2.0, 0.5], [0.5, 1.0]]},
    {"constant": [[1.0, 0.0], [0.0, -1.0]]},
    {"hessian_of": poly_spec(2, [((2, 0), 0.5), ((0, 2), 0.5), ((4, 0), 0.25)])},
], ids=["constant", "indefinite", "hessian-of"])
def test_nonlinear_rows_are_the_per_point_solves(metric):
    # the loaded system maps stacks: f and g are one solve over the metric rows and
    # h = sigma g^T x by rows, each row equal bit for bit to the solve at its point
    P = poly_spec(2, [((2, 0), 0.5), ((0, 2), 0.5), ((4, 0), 0.25), ((1, 1), 0.2)])
    g = np.array([[1.0, 0.0], [0.5, -1.0]])
    b = load_system({"kind": "nonlinear", "potential": P, "metric": metric,
                     "g": g.tolist(), "sigma": [1, -1]})
    aff, grad_P = b.affine, parse_field(P, "P").grad
    X = aff.domain.shrink(0.9).sample(20, seed=2)
    f = [np.linalg.solve(b.metric(x), -grad_P(x)) for x in X]
    h = [b.sigma.signs * (g.T @ x) for x in X]
    assert np.array_equal(aff.f(X), f)
    assert np.array_equal(aff.g(X), [np.linalg.solve(b.metric(x), g) for x in X])
    assert np.array_equal(aff.h(X), h)
    assert np.array_equal(aff.k(X), np.zeros((20, 2, 2)))
    assert np.array_equal(aff.dh_dx(X), np.broadcast_to([[1.0, 0.5], [0.0, 1.0]], (20, 2, 2)))
    assert np.array_equal(aff.f(X[0]), f[0]) and np.array_equal(aff.h(X[0]), h[0])


def test_load_hessian_pg_internal_form():
    doc = {
        "kind": "hessian_pseudo_gradient",
        "K": {"builtin": "quadratic"},
        "P": poly_spec(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
        "g": [[1.0], [0.0]],
    }
    b = load_system(doc)
    assert b.kind == "hessian_pg"
    x = np.array([0.4, -0.2])
    u = np.array([0.3])
    # V = P - x.g u, so V_x = P_x - g u
    w = np.concatenate([x, u])
    assert np.allclose(b.hpg.V.grad(w)[:2], x - np.array([0.3, 0.0]))
    doc_bad = dict(doc)
    doc_bad["sigma"] = [-1]
    with pytest.raises(SchemaError, match="identity"):
        load_system(doc_bad)


def test_load_hessian_pg_joint_potential():
    doc = {
        "kind": "hessian_pseudo_gradient",
        "K": poly_spec(1, [((2,), 0.5)]),
        "V": poly_spec(2, [((2, 0), 0.5), ((1, 1), -1.0)]),
        "sigma": [-1],
    }
    b = load_system(doc)
    assert b.hpg.V.dim == 2 and not b.sigma.is_identity
    flat = dict(doc)
    flat["V"] = poly_spec(1, [((2,), 0.5)])
    with pytest.raises(SchemaError, match="at least one input"):
        load_system(flat)
    neither = {"kind": "hessian_pseudo_gradient", "K": poly_spec(1, [((2,), 0.5)])}
    with pytest.raises(SchemaError, match="P and g"):
        load_system(neither)


def test_load_port_hamiltonian():
    doc = {
        "kind": "port_hamiltonian",
        "H": poly_spec(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
        "J": [[0.0, -1.0], [1.0, 0.0]],
        "g": [[1.0], [0.0]],
        "R": {"linear": [[0.5, 0.0], [0.0, 0.0]]},
    }
    b = load_system(doc, name="osc")
    z = np.array([1.0, 2.0])
    # J grad H - R grad H + g u
    assert np.allclose(b.ph.rhs(z, np.array([0.0])), [-2.0 - 0.5, 1.0])
    assert np.allclose(b.ph.output(z, np.array([0.0])), [1.0])
    assert b.split is None

    with_split = dict(doc)
    with_split["split"] = {
        "idx1": [0], "idx2": [1],
        "H1": poly_spec(1, [((2,), 0.5)]),
        "H2": poly_spec(1, [((2,), 0.5)]),
        "P1": poly_spec(1, [((2,), 0.25)]),
        "P2": poly_spec(1, [], halfwidth=1.0),
        "Pc": [[1.0]],
        "g1": [[1.0]],
    }
    b2 = load_system(with_split)
    assert b2.split.idx1 == (0,) and b2.split.idx2 == (1,)
    assert np.array_equal(b2.split.Pc, [[1.0]])

    bad = dict(doc)
    bad["R"] = {"matrix": [[1.0]]}
    with pytest.raises(SchemaError, match="linear"):
        load_system(bad)
    bad = dict(doc)
    bad["J"] = [[0.0]]
    with pytest.raises(SchemaError, match="shape"):
        load_system(bad)


@st.composite
def near_skew(draw):
    """A random skew 2x2 or 3x3 matrix plus a perturbation around the skew tolerance."""
    n = draw(st.integers(2, 3))
    A = draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    E = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    return (A - A.T) + draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1.0])) * E


@given(near_skew())
def test_port_hamiltonian_loads_exactly_when_J_is_skew(J):
    n = len(J)
    doc = {"kind": "port_hamiltonian", "H": poly_spec(n, [(e, 0.5) for e in np.eye(n, dtype=int).tolist()]),
           "J": J.tolist(), "g": np.ones((n, 1)).tolist()}
    if np.max(np.abs(J + J.T)) <= STRUCTURE_TOL:
        assert np.array_equal(load_system(json.loads(json.dumps(doc))).ph.J, J)
    else:
        with pytest.raises(SchemaError, match="J-skew"):
            load_system(json.loads(json.dumps(doc)))


def test_json_constant_metric_with_a_domain_stays_batched():
    doc = {"kind": "nonlinear", "potential": poly_spec(1, [((2,), 0.5)]),
           "metric": {"constant": [[2.0]]}, "g": [[1.0]],
           "domain": {"lower": [-1.0], "upper": [0.5]}}
    metric = load_system(doc).metric
    assert metric.batched and np.array_equal(metric.domain.upper, [0.5])
    xs = metric.domain.sample(8)
    assert np.array_equal(metric.rows(xs), [metric(x) for x in xs])


def one_term(dim, exponents):
    return {"field": {"polynomial": {"dim": dim,
                                     "terms": [{"exponents": exponents, "coeff": 1.0}]}}}


# key, or key-variant -> a document whose value under that key has the wrong type; an
# integer field holds no boolean and no number with a fractional part
WRONG_TYPES = {
    "dim": {"field": {"polynomial": {"dim": "two", "terms": []}}},
    "dim-fraction": one_term(1.9, [2.6]),
    "dim-boolean": {"field": {"polynomial": {"dim": True, "terms": []}}},
    "terms": {"field": {"polynomial": {"dim": 1, "terms": 5}}},
    "exponents": one_term(1, ["x"]),
    "exponents-fraction": one_term(1, [2.6]),
    "exponents-boolean": one_term(1, [True]),
    "coeff": {"field": poly_spec(1, [((2,), "abc")])},
    "lower": {"field": {"polynomial": {"dim": 1, "terms": [],
                                       "domain": {"lower": ["a"], "upper": [1.0]}}}},
    "domain-infinite": {"field": {"polynomial": {"dim": 1, "terms": [],
                                                 "domain": {"lower": [-1.0], "upper": [1e400]}}}},
    "idx1": {"split": {"idx1": ["a"], "idx2": [1]}},
    "idx1-fraction": {"split": {"idx1": [0.9], "idx2": [1.2]}},
    "idx2": {"split": {"idx1": [0], "idx2": None}},
    "idx2-fraction": {"split": {"idx1": [0], "idx2": [1.2]}},
    "split": {"split": 5},
    "sigma-fraction": {**LINEAR_DOC, "sigma": [1.7]},
    "sigma-boolean": {**LINEAR_DOC, "sigma": [True]},
}


@pytest.mark.parametrize("key", list(WRONG_TYPES))
def test_a_value_of_the_wrong_type_names_its_key(key):
    doc = WRONG_TYPES[key]
    with pytest.raises(SchemaError, match=f"{key.split('-')[0]} has the wrong type"):
        if "field" in doc:
            parse_field(doc["field"], "t")
        elif "kind" in doc:
            load_system(doc)
        else:
            load_system({"kind": "port_hamiltonian", "H": poly_spec(2, [((2, 0), 0.5)]),
                         "J": [[0.0, -1.0], [1.0, 0.0]], "g": [[1.0], [0.0]], **doc})


def test_an_integral_float_is_an_integer():
    fld = parse_field(one_term(1.0, [2.0])["field"], "t")
    assert fld.dim == 1 and fld(np.array([3.0])) == 9.0
    assert load_system({**LINEAR_DOC, "sigma": [-1.0]}).sigma.signs.tolist() == [-1]


def test_a_model_name_that_is_not_a_string_is_a_schema_error(tmp_path):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({**LINEAR_DOC, "name": 5}))
    with pytest.raises(SchemaError, match="name has the wrong type"):
        load_system_file(str(path))


def test_box_spec_validation():
    doc = {
        "kind": "nonlinear",
        "potential": poly_spec(1, [((2,), 0.5)]),
        "metric": {"constant": [[1.0]]},
        "g": [[1.0]],
        "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    }
    with pytest.raises(SchemaError, match="length 1"):
        load_system(doc)
    doc["domain"] = {"lower": [1.0], "upper": [-1.0]}
    with pytest.raises(SchemaError, match="invalid box"):
        load_system(doc)
    doc["domain"] = [0, 1]
    with pytest.raises(SchemaError, match="lower/upper"):
        load_system(doc)


def test_load_system_file(tmp_path):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(LINEAR_DOC))
    b = load_system_file(str(path))
    assert b.name == "osc"  # stem fallback
    named = dict(LINEAR_DOC)
    named["name"] = "custom"
    path2 = tmp_path / "other.json"
    path2.write_text(json.dumps(named))
    assert load_system_file(str(path2)).name == "custom"
    with pytest.raises(SchemaError, match="no such file"):
        load_system_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_system_file(str(bad))


def test_load_registry_extras(tmp_path, monkeypatch):
    d = tmp_path / "models"
    d.mkdir()
    (d / "a.json").write_text(json.dumps(LINEAR_DOC))
    second = dict(LINEAR_DOC)
    second["name"] = "b-model"
    (d / "b.json").write_text(json.dumps(second))
    extras = load_registry_extras(str(d))
    assert set(extras) == {"a", "b-model"}

    lone = tmp_path / "single.json"
    lone.write_text(json.dumps(LINEAR_DOC))
    both = str(d) + ":" + str(lone)
    with pytest.raises(SchemaError, match="duplicate"):
        # "a" from the directory collides with... the lone file stem differs;
        # force the clash through an explicit name
        clash = dict(LINEAR_DOC)
        clash["name"] = "a"
        lone.write_text(json.dumps(clash))
        load_registry_extras(both)

    with pytest.raises(SchemaError, match="does not exist"):
        load_registry_extras(str(tmp_path / "nowhere"))

    monkeypatch.setenv(MODEL_PATH_ENV, str(d))
    assert set(load_registry_extras()) == {"a", "b-model"}
    monkeypatch.setenv(MODEL_PATH_ENV, "")
    assert load_registry_extras() == {}
