"""Structured-document and CSV input/output for the command line.

Input documents are JSON objects carrying either scattering data
(top-level keys eta, complexPoles, imagPoles, boundStates) or a raw
triplet (top-level key rawTriplet with A, B, C, eta). Exactly one of
the two forms is allowed. Build output adds the metadata keys P,
spectrum, valid, and flags next to rawTriplet; the parser accepts and
ignores them so build output can be fed straight back in.

Serialization is canonical: sorted keys, two-space indent, shortest
round-trip floats, LF newlines. Identical inputs give identical bytes.
"""
from __future__ import annotations

import json

import numpy as np

from . import realization
from .errors import SchemaError, SpecValidationError

SPEC_KEYS = frozenset({"eta", "complexPoles", "imagPoles", "boundStates"})
RAW_TRIPLET_KEY = "rawTriplet"
METADATA_KEYS = frozenset({"P", "spectrum", "valid", "flags"})

GRID_CSV_HEADER = "x,t,u,detGamma,flag"
FRAME_CSV_HEADER = "x,u"


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    v = float(value)
    if not np.isfinite(v):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return v


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required key")
    return obj[key]


def _reject_unknown(obj: dict, allowed: frozenset, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "unknown key")


def loads_document(text: str) -> dict:
    """Parse JSON text into the top-level object, or raise SchemaError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return _expect_object(data, "$")


def _parse_complex_pole(item, path: str) -> realization.ComplexPolePair:
    obj = _expect_object(item, path)
    _reject_unknown(obj, frozenset({"alpha", "beta", "coeffs"}), path)
    alpha = _expect_real(_require(obj, "alpha", path), f"{path}.alpha")
    beta = _expect_real(_require(obj, "beta", path), f"{path}.beta")
    coeffs = []
    for j, pair in enumerate(_expect_list(_require(obj, "coeffs", path), f"{path}.coeffs")):
        ppath = f"{path}.coeffs[{j}]"
        pobj = _expect_object(pair, ppath)
        _reject_unknown(pobj, frozenset({"eps", "gamma"}), ppath)
        coeffs.append((_expect_real(_require(pobj, "eps", ppath), f"{ppath}.eps"),
                       _expect_real(_require(pobj, "gamma", ppath), f"{ppath}.gamma")))
    try:
        return realization.ComplexPolePair(alpha=alpha, beta=beta,
                                           coefficients=tuple(coeffs))
    except SpecValidationError as exc:
        raise SchemaError(path, str(exc)) from None


def _parse_imaginary_pole(item, path: str) -> realization.ImaginaryPole:
    obj = _expect_object(item, path)
    _reject_unknown(obj, frozenset({"omega", "r"}), path)
    omega = _expect_real(_require(obj, "omega", path), f"{path}.omega")
    rs = [_expect_real(v, f"{path}.r[{j}]")
          for j, v in enumerate(_expect_list(_require(obj, "r", path), f"{path}.r"))]
    try:
        return realization.ImaginaryPole(omega=omega, coefficients=tuple(rs))
    except SpecValidationError as exc:
        raise SchemaError(path, str(exc)) from None


def _parse_bound_state(item, path: str) -> realization.BoundState:
    obj = _expect_object(item, path)
    _reject_unknown(obj, frozenset({"kappa", "c"}), path)
    kappa = _expect_real(_require(obj, "kappa", path), f"{path}.kappa")
    c = _expect_real(_require(obj, "c", path), f"{path}.c")
    try:
        return realization.BoundState(kappa=kappa, c=c)
    except SpecValidationError as exc:
        raise SchemaError(path, str(exc)) from None


def parse_scattering_spec(data: dict) -> realization.ScatteringSpec:
    """Parse a scattering-data document into a ScatteringSpec."""
    _reject_unknown(data, SPEC_KEYS, "$")
    eta = _expect_real(data["eta"], "$.eta") if "eta" in data else 0.0
    complex_poles = tuple(
        _parse_complex_pole(item, f"$.complexPoles[{i}]")
        for i, item in enumerate(_expect_list(data.get("complexPoles", []),
                                              "$.complexPoles")))
    imaginary_poles = tuple(
        _parse_imaginary_pole(item, f"$.imagPoles[{i}]")
        for i, item in enumerate(_expect_list(data.get("imagPoles", []),
                                              "$.imagPoles")))
    bound_states = tuple(
        _parse_bound_state(item, f"$.boundStates[{i}]")
        for i, item in enumerate(_expect_list(data.get("boundStates", []),
                                              "$.boundStates")))
    try:
        return realization.ScatteringSpec(complex_poles=complex_poles,
                                          imaginary_poles=imaginary_poles,
                                          bound_states=bound_states, eta=eta)
    except SpecValidationError as exc:
        raise SchemaError("$", str(exc)) from None


def parse_raw_triplet(obj, path: str = "$.rawTriplet") -> realization.Triplet:
    """Parse a rawTriplet object into a Triplet."""
    obj = _expect_object(obj, path)
    _reject_unknown(obj, frozenset({"A", "B", "C", "eta"}), path)
    rows = _expect_list(_require(obj, "A", path), f"{path}.A")
    if not rows:
        raise SchemaError(f"{path}.A", "matrix must not be empty")
    a = []
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{path}.A[{i}]")
        if len(row) != len(rows):
            raise SchemaError(f"{path}.A[{i}]",
                              f"expected {len(rows)} entries for a square matrix, "
                              f"got {len(row)}")
        a.append([_expect_real(v, f"{path}.A[{i}][{j}]") for j, v in enumerate(row)])
    b = [_expect_real(v, f"{path}.B[{i}]")
         for i, v in enumerate(_expect_list(_require(obj, "B", path), f"{path}.B"))]
    c = [_expect_real(v, f"{path}.C[{i}]")
         for i, v in enumerate(_expect_list(_require(obj, "C", path), f"{path}.C"))]
    eta = _expect_real(obj["eta"], f"{path}.eta") if "eta" in obj else 0.0
    try:
        return realization.Triplet(A=np.array(a), B=np.array(b), C=np.array(c), eta=eta)
    except SpecValidationError as exc:
        raise SchemaError(path, str(exc)) from None


def parse_input_document(data: dict):
    """Dispatch a parsed document to ScatteringSpec or Triplet.

    Build-output metadata keys (P, spectrum, valid, flags) are accepted
    next to rawTriplet and ignored, so build output round-trips.
    """
    _expect_object(data, "$")
    has_raw = RAW_TRIPLET_KEY in data
    has_spec = bool(SPEC_KEYS & set(data))
    if has_raw and has_spec:
        raise SchemaError("$", "give scattering data or rawTriplet, not both")
    if has_raw:
        _reject_unknown(data, frozenset({RAW_TRIPLET_KEY}) | METADATA_KEYS, "$")
        return parse_raw_triplet(data[RAW_TRIPLET_KEY])
    if not has_spec:
        raise SchemaError("$", "document needs scattering data or a rawTriplet")
    return parse_scattering_spec(data)


def triplet_document(triplet: realization.Triplet,
                     diagnostics: realization.TripletDiagnostics) -> dict:
    """Build-output document: the matrices plus validity metadata."""
    spectrum = [[float(v.real), float(v.imag)]
                for v in diagnostics.spectrum.eigenvalues]
    return {
        RAW_TRIPLET_KEY: {
            "A": [[float(v) for v in row] for row in triplet.A],
            "B": [float(v) for v in triplet.B[:, 0]],
            "C": [float(v) for v in triplet.C[0, :]],
            "eta": float(triplet.eta),
        },
        "P": triplet.P,
        "spectrum": spectrum,
        "valid": bool(diagnostics.valid),
        "flags": list(diagnostics.notes),
    }


def dumps_document(doc: dict) -> str:
    """Canonical document bytes: sorted keys, indent 2, LF, no NaN."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def format_float(value) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(value))


def write_grid_csv(stream, grid) -> None:
    """Grid rows t-major: x, t, u, detGamma, flag."""
    stream.write(GRID_CSV_HEADER + "\n")
    for i in range(grid.t.size):
        t_str = format_float(grid.t[i])
        for j in range(grid.x.size):
            stream.write(f"{format_float(grid.x[j])},{t_str},"
                         f"{format_float(grid.u[i, j])},"
                         f"{format_float(grid.det_gamma[i, j])},"
                         f"{grid.flags[i, j]}\n")


def write_frame_csv(stream, xs, us) -> None:
    """One time slice: x, u."""
    stream.write(FRAME_CSV_HEADER + "\n")
    for x, u in zip(xs, us):
        stream.write(f"{format_float(x)},{format_float(u)}\n")


def grid_document(grid) -> dict:
    """Structured-document form of an evaluated grid."""
    return {
        "x": [float(v) for v in grid.x],
        "t": [float(v) for v in grid.t],
        "u": [[_json_float(v) for v in row] for row in grid.u],
        "detGamma": [[_json_float(v) for v in row] for row in grid.det_gamma],
        "flags": [[str(v) for v in row] for row in grid.flags],
    }


def _json_float(value):
    v = float(value)
    return v if np.isfinite(v) else None
