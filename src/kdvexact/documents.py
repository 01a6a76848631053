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
import math

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
    try:
        v = float(value)
    except OverflowError:   # an integer literal beyond the float range
        v = math.inf
    if not np.isfinite(v):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return v


def _reals(value, path: str) -> list[float]:
    return [_expect_real(v, f"{path}[{j}]") for j, v in enumerate(_expect_list(value, path))]


def _construct(path: str, cls, **fields):
    """cls(**fields), reporting its SpecValidationError as a SchemaError at path."""
    try:
        return cls(**fields)
    except SpecValidationError as exc:
        raise SchemaError(path, str(exc)) from None


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
    except ValueError as exc:   # JSONDecodeError, or an integer beyond int's digit limit
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
    return _construct(path, realization.ComplexPolePair, alpha=alpha, beta=beta,
                      coefficients=tuple(coeffs))


def _parse_imaginary_pole(item, path: str) -> realization.ImaginaryPole:
    obj = _expect_object(item, path)
    _reject_unknown(obj, frozenset({"omega", "r"}), path)
    omega = _expect_real(_require(obj, "omega", path), f"{path}.omega")
    rs = _reals(_require(obj, "r", path), f"{path}.r")
    return _construct(path, realization.ImaginaryPole, omega=omega, coefficients=tuple(rs))


def _parse_bound_state(item, path: str) -> realization.BoundState:
    obj = _expect_object(item, path)
    _reject_unknown(obj, frozenset({"kappa", "c"}), path)
    kappa = _expect_real(_require(obj, "kappa", path), f"{path}.kappa")
    c = _expect_real(_require(obj, "c", path), f"{path}.c")
    return _construct(path, realization.BoundState, kappa=kappa, c=c)


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
    return _construct("$", realization.ScatteringSpec, complex_poles=complex_poles,
                      imaginary_poles=imaginary_poles, bound_states=bound_states, eta=eta)


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
        a.append(_reals(row, f"{path}.A[{i}]"))
    b = _reals(_require(obj, "B", path), f"{path}.B")
    c = _reals(_require(obj, "C", path), f"{path}.C")
    eta = _expect_real(obj["eta"], f"{path}.eta") if "eta" in obj else 0.0
    return _construct(path, realization.Triplet, A=np.array(a), B=np.array(b),
                      C=np.array(c), eta=eta)


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


def _float_strings(values) -> list[str]:
    """format_float of every entry, in order, without per-entry numpy indexing."""
    return [repr(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


def write_grid_csv(stream, grid) -> None:
    """Grid rows t-major: x, t, u, detGamma, flag; one write per t row."""
    stream.write(GRID_CSV_HEADER + "\n")
    xs = _float_strings(grid.x)
    for t, u, det, flags in zip(_float_strings(grid.t), grid.u, grid.det_gamma, grid.flags):
        cells = zip(xs, _float_strings(u), _float_strings(det), flags.tolist())
        stream.write("".join([f"{x},{t},{v},{d},{flag}\n" for x, v, d, flag in cells]))


def write_frame_csv(stream, x_cells, us) -> None:
    """One time slice: x, u, from the x column already formatted (format_float)."""
    rows = [f"{x},{float(u)!r}\n" for x, u in zip(x_cells, us)]
    stream.write("".join([FRAME_CSV_HEADER + "\n", *rows]))


def grid_document(grid) -> dict:
    """Structured-document form of an evaluated grid; non-finite values become null."""
    return {
        "x": np.asarray(grid.x, dtype=float).tolist(),
        "t": np.asarray(grid.t, dtype=float).tolist(),
        "u": _json_rows(grid.u),
        "detGamma": _json_rows(grid.det_gamma),
        "flags": np.asarray(grid.flags, dtype=str).tolist(),
    }


def _json_rows(values) -> list[list]:
    """Nested float lists from one tolist() per array, NaN and inf as None."""
    return [[v if math.isfinite(v) else None for v in row]
            for row in np.asarray(values, dtype=float).tolist()]
