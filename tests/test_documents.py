"""Structured documents: JSON schema handling and CSV serialization."""
from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kdvexact import (
    FLAG_NEAR_SINGULAR,
    FLAG_OK,
    FLAG_OVERFLOW,
    SchemaError,
    ScatteringSpec,
    SolutionGrid,
    Triplet,
    make_evaluator,
    sample_grid,
    validate_triplet,
)
from kdvexact.documents import (
    dumps_document,
    format_float,
    grid_document,
    loads_document,
    parse_input_document,
    parse_raw_triplet,
    parse_scattering_spec,
    triplet_document,
    write_frame_csv,
    write_grid_csv,
)

import helpers


def test_minimal_spec_document_parses():
    data = loads_document('{"boundStates": [{"kappa": 1.0, "c": 2.0}]}')
    spec = parse_input_document(data)
    assert isinstance(spec, ScatteringSpec)
    assert spec.eta == 0.0
    assert spec.bound_states[0].kappa == 1.0


def test_full_spec_document_parses():
    doc = {
        "eta": 4,
        "complexPoles": [{"alpha": 1.0, "beta": 0.5,
                          "coeffs": [{"eps": 0.1, "gamma": 0.2}]}],
        "imagPoles": [{"omega": 1.5, "r": [0.7, 0.3]}],
        "boundStates": [{"kappa": 0.9, "c": 1.1}],
    }
    spec = parse_scattering_spec(doc)
    assert spec.eta == 4.0
    assert spec.complex_poles[0].coefficients == ((0.1, 0.2),)
    assert spec.imaginary_poles[0].multiplicity == 2
    assert spec.matrix_dimension == 2 + 2 + 1


# (document, path of the SchemaError, its message after the path); the
# later entries pin which of several faults in one document is reported.
SCHEMA_CORPUS = [
    ('[]', "$", "expected an object, got list"),
    ('{"complexPoles": {}}', "$.complexPoles", "expected a list, got dict"),
    ('{"complexPoles": [5]}', "$.complexPoles[0]", "expected an object, got int"),
    ('{"complexPoles": [{"alpha": 1, "beta": 1}]}', "$.complexPoles[0].coeffs",
     "missing required key"),
    ('{"complexPoles": [{"alpha": 1, "beta": 1, "coeffs": [{"eps": 1}]}]}',
     "$.complexPoles[0].coeffs[0].gamma", "missing required key"),
    ('{"complexPoles": [{"alpha": 1, "beta": 1, '
     '"coeffs": [{"eps": 1, "gamma": 0}, {"eps": 1, "gamma": "x"}]}]}',
     "$.complexPoles[0].coeffs[1].gamma", "expected a number, got str"),
    ('{"complexPoles": [{"alpha": true, "beta": 1, "coeffs": []}]}',
     "$.complexPoles[0].alpha", "expected a number, got bool"),
    ('{"imagPoles": [{"omega": 1, "r": [1, null]}]}', "$.imagPoles[0].r[1]",
     "expected a number, got NoneType"),
    ('{"imagPoles": [{"omega": 1, "r": [1], "extra": 0}]}', "$.imagPoles[0].extra",
     "unknown key"),
    ('{"boundStates": [{"kappa": 1}]}', "$.boundStates[0].c", "missing required key"),
    ('{"boundStates": [{"kappa": 1, "c": 1, "cc": 2}]}', "$.boundStates[0].cc", "unknown key"),
    ('{"boundStates": [{"kappa": 1, "c": 1}], "unknownKey": 3}', "$.unknownKey", "unknown key"),
    ('{"eta": "fast", "boundStates": [{"kappa": 1, "c": 1}]}', "$.eta",
     "expected a number, got str"),
    ('{"rawTriplet": {"A": [[1, 0], [0]], "B": [1, 1], "C": [1, 1]}}',
     "$.rawTriplet.A[1]", "expected 2 entries for a square matrix, got 1"),
    ('{"rawTriplet": {"A": [], "B": [], "C": []}}', "$.rawTriplet.A",
     "matrix must not be empty"),
    ('{"rawTriplet": {"B": [1], "C": [1]}}', "$.rawTriplet.A", "missing required key"),
    ('{"rawTriplet": {"A": [[1]], "B": [1], "C": [1], "D": [1]}}',
     "$.rawTriplet.D", "unknown key"),
    ('{"rawTriplet": {"A": [[1]], "B": [1], "C": [1]}, "eta": 0}', "$",
     "give scattering data or rawTriplet, not both"),
    ('{"P": 1}', "$", "document needs scattering data or a rawTriplet"),
    ('{}', "$", "document needs scattering data or a rawTriplet"),
    ('{"complexPoles": [{"beta": 1, "coeffs": 5, "zz": 1}]}', "$.complexPoles[0].zz",
     "unknown key"),
    ('{"complexPoles": [{"coeffs": 5}]}', "$.complexPoles[0].alpha", "missing required key"),
    ('{"complexPoles": [5], "boundStates": 3, "eta": "x"}', "$.eta",
     "expected a number, got str"),
    ('{"imagPoles": "x", "boundStates": 3}', "$.imagPoles", "expected a list, got str"),
    ('{"rawTriplet": {"A": [[1, "x"], [1]], "B": 1, "C": [1, 1]}}', "$.rawTriplet.A[0][1]",
     "expected a number, got str"),
    ('{"rawTriplet": {"A": [[1, 0], [0, 1]], "B": [1], "C": [1]}}', "$.rawTriplet",
     "B must have 2 entries, got (1,)"),
    ('{"rawTriplet": {"A": [[1]], "B": [1], "C": [1], "eta": -2}}', "$.rawTriplet",
     "eta must be nonnegative, got -2.0"),
    ('{"complexPoles": [{"alpha": 0, "beta": 1, "coeffs": []}]}', "$.complexPoles[0]",
     "alpha must be positive, got 0.0"),
    ('{"boundStates": [{"kappa": 2, "c": 1}, {"kappa": 2, "c": 2}], '
     '"imagPoles": [{"omega": 1, "r": [1]}, {"omega": 1, "r": [2]}]}', "$",
     "duplicate imaginary pole at omega=1.0"),
    ('{"complexPoles": []}', "$",
     "empty scattering data: need at least one pole or bound state"),
]


def test_schema_corpus_paths():
    for text, want_path, want_message in SCHEMA_CORPUS:
        with pytest.raises(SchemaError) as err:
            parse_input_document(loads_document(text))
        assert err.value.path == want_path, (text, err.value.path)
        assert str(err.value) == f"{want_path}: {want_message}", text


def test_invalid_json_and_nan_literals_rejected():
    with pytest.raises(SchemaError) as err:
        loads_document("{not json")
    assert err.value.path == "$"
    # json.loads accepts NaN/Infinity literals; the schema layer must not
    with pytest.raises(SchemaError) as err:
        parse_input_document(loads_document(
            '{"boundStates": [{"kappa": NaN, "c": 1}]}'))
    assert err.value.path == "$.boundStates[0].kappa"
    with pytest.raises(SchemaError) as err:
        parse_input_document(loads_document(
            '{"eta": Infinity, "boundStates": [{"kappa": 1, "c": 1}]}'))
    assert err.value.path == "$.eta"


def test_domain_errors_become_schema_errors():
    with pytest.raises(SchemaError) as err:
        parse_input_document(loads_document(
            '{"boundStates": [{"kappa": -1, "c": 1}]}'))
    assert err.value.path == "$.boundStates[0]"
    with pytest.raises(SchemaError) as err:
        parse_input_document(loads_document(
            '{"boundStates": [{"kappa": 1, "c": 1}, {"kappa": 1, "c": 2}]}'))
    assert err.value.path == "$"


def test_raw_triplet_parse_and_metadata_tolerance():
    text = ('{"rawTriplet": {"A": [[0.5, 2.0], [0.0, 1.0]], "B": [0, 1], '
            '"C": [1, 1], "eta": 3},'
            ' "P": 2, "spectrum": [[0.5, 0.0], [1.0, 0.0]],'
            ' "valid": true, "flags": []}')
    trip = parse_input_document(loads_document(text))
    assert isinstance(trip, Triplet)
    assert trip.eta == 3.0 and trip.P == 2
    assert np.array_equal(trip.A, [[0.5, 2.0], [0.0, 1.0]])

    bare = parse_raw_triplet({"A": [[1.0]], "B": [1.0], "C": [2.0]})
    assert bare.eta == 0.0 and bare.C[0, 0] == 2.0


def test_mixed_forms_rejected():
    with pytest.raises(SchemaError) as err:
        parse_input_document(loads_document(
            '{"rawTriplet": {"A": [[1]], "B": [1], "C": [1]},'
            ' "boundStates": []}'))
    assert "not both" in str(err.value)


def test_triplet_document_round_trip():
    trip = helpers.rotation_triplet(0.5, 0.25, eta=2.0)
    doc = triplet_document(trip, validate_triplet(trip))
    assert doc["P"] == 2 and doc["valid"] is True and doc["flags"] == []
    again = parse_input_document(doc)
    assert np.array_equal(again.A, trip.A)
    assert np.array_equal(again.B, trip.B)
    assert np.array_equal(again.C, trip.C)
    assert again.eta == 2.0


def test_dumps_document_is_canonical():
    doc = {"b": 1.5, "a": [1.0, 2.0], "c": {"z": 0.1, "y": True}}
    text = dumps_document(doc)
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text == dumps_document({"c": {"y": True, "z": 0.1}, "a": [1.0, 2.0], "b": 1.5})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    with pytest.raises(ValueError):
        dumps_document({"x": float("nan")})


def test_format_float_round_trips():
    rng = np.random.default_rng(71)
    values = [0.0, -0.0, 1.0, np.pi, 2.0 / 3.0, 1e-300, -1.7976931348623157e308]
    values += [float(v) for v in rng.uniform(-1e6, 1e6, size=50)]
    values += [float(v) for v in rng.standard_normal(50) * 1e-9]
    for v in values:
        assert float(format_float(v)) == v, v
    assert format_float(np.float64(0.1)) == "0.1"


def test_grid_csv_exact_bytes_for_vacuum():
    trip = Triplet(A=np.eye(1), B=np.ones(1), C=np.zeros(1))
    grid = sample_grid(make_evaluator(trip), [0.0, 1.0], [0.0, 2.0])
    buf = io.StringIO()
    write_grid_csv(buf, grid)
    want = ("x,t,u,detGamma,flag\n"
            "0.0,0.0,0.0,1.0,ok\n"
            "1.0,0.0,0.0,1.0,ok\n"
            "0.0,2.0,0.0,1.0,ok\n"
            "1.0,2.0,0.0,1.0,ok\n")
    assert buf.getvalue() == want


def test_grid_csv_t_major_ordering():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    grid = sample_grid(ev, [0.0, 0.5, 1.0], [0.0, 0.1])
    buf = io.StringIO()
    write_grid_csv(buf, grid)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,t,u,detGamma,flag"
    assert len(lines) == 1 + 6
    ts = [line.split(",")[1] for line in lines[1:]]
    assert ts == ["0.0"] * 3 + ["0.1"] * 3
    # every u cell round-trips to the sampled value exactly
    for line in lines[1:]:
        x_s, t_s, u_s, det_s, flag = line.split(",")
        s = ev.sample(float(x_s), float(t_s))
        assert float(u_s) == s.u and float(det_s) == s.det_gamma and flag == s.flag


def test_frame_csv_layout():
    buf = io.StringIO()
    write_frame_csv(buf, ["0.0", "0.25"], [1.5, -0.125])
    assert buf.getvalue() == "x,u\n0.0,1.5\n0.25,-0.125\n"


def _grid_csv_per_cell(grid) -> str:
    """The per-cell writer the CSV writers must reproduce byte for byte."""
    buf = io.StringIO()
    buf.write("x,t,u,detGamma,flag\n")
    for i in range(grid.t.size):
        t_str = format_float(grid.t[i])
        for j in range(grid.x.size):
            buf.write(f"{format_float(grid.x[j])},{t_str},"
                      f"{format_float(grid.u[i, j])},"
                      f"{format_float(grid.det_gamma[i, j])},"
                      f"{grid.flags[i, j]}\n")
    return buf.getvalue()


# NaN, signed zeros, subnormals and values near the float range, mixed with ordinary ones
_cell_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                         st.sampled_from([float("nan"), -0.0, 0.0, 5e-324, -2.2e-308,
                                          1.7976931348623157e308, -1e300]))


@st.composite
def _grids(draw):
    n_t, n_x = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    cells = hnp.arrays(float, (n_t, n_x), elements=_cell_floats)
    return SolutionGrid(
        x=draw(hnp.arrays(float, n_x, elements=_cell_floats)),
        t=draw(hnp.arrays(float, n_t, elements=_cell_floats)),
        u=draw(cells), det_gamma=draw(cells),
        flags=draw(hnp.arrays(np.dtype("U16"), (n_t, n_x),
                              elements=st.sampled_from([FLAG_OK, FLAG_NEAR_SINGULAR,
                                                        FLAG_OVERFLOW]))))


@settings(max_examples=150, deadline=None)
@given(grid=_grids())
def test_csv_writers_match_per_cell_writers(grid):
    buf = io.StringIO()
    write_grid_csv(buf, grid)
    assert buf.getvalue() == _grid_csv_per_cell(grid)
    x_cells = [format_float(x) for x in grid.x]
    for i in range(grid.t.size):
        buf = io.StringIO()
        write_frame_csv(buf, x_cells, grid.u[i])
        assert buf.getvalue() == helpers.frame_csv_per_cell(grid.x, grid.u[i])


def test_grid_document_nan_becomes_null():
    ev = make_evaluator(helpers.rotation_triplet(3.0, 0.0))  # det < 0 region
    grid = sample_grid(ev, [0.0], [0.0])
    # (3, 0) at the origin gives det -4.25: ok flag, finite cells
    doc = grid_document(grid)
    assert abs(doc["detGamma"][0][0] - (-4.25)) < 1e-12

    from kdvexact import BoundState, build_triplet
    hot = make_evaluator(build_triplet(
        ScatteringSpec(bound_states=(BoundState(2.0, 3.0),))))
    doc = grid_document(sample_grid(hot, [0.0], [30.0]))
    assert doc["u"][0][0] is None and doc["detGamma"][0][0] is None
    assert doc["flags"][0][0] == "overflow"
    text = dumps_document(doc)
    assert json.loads(text)["u"][0][0] is None


def _grid_document_per_element(grid) -> dict:
    """The per-element build grid_document must reproduce byte for byte."""
    def cell(v):
        v = float(v)
        return v if np.isfinite(v) else None
    return {
        "x": [float(v) for v in grid.x],
        "t": [float(v) for v in grid.t],
        "u": [[cell(v) for v in row] for row in grid.u],
        "detGamma": [[cell(v) for v in row] for row in grid.det_gamma],
        "flags": [[str(v) for v in row] for row in grid.flags],
    }


def test_grid_document_bytes_match_per_element_build():
    nan, inf = float("nan"), float("inf")
    grid = SolutionGrid(
        x=np.array([0.0, 0.1, 2.5]), t=np.array([-0.0, 1e-3]),
        u=np.array([[-2.0, nan, 5e-324], [nan, -0.0, 1.7976931348623157e308]]),
        det_gamma=np.array([[2.0, 1e-14, nan], [inf, 1.0, -inf]]),
        flags=np.array([[FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_OK],
                        [FLAG_OVERFLOW, FLAG_OK, FLAG_OVERFLOW]]))
    text = dumps_document(grid_document(grid))
    assert text == dumps_document(_grid_document_per_element(grid))
    assert '"u": [\n    [\n      -2.0,\n      null,\n      5e-324\n' in text
