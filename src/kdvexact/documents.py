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

import functools
import json
import math

import numpy as np

from . import realization
from .errors import SchemaError, SpecValidationError

# Scattering-data keys, each with the value a document that leaves it out reads as.
SPEC_DEFAULTS = {"eta": 0.0, "complexPoles": [], "imagPoles": [], "boundStates": []}
RAW_TRIPLET_KEY = "rawTriplet"
METADATA_KEYS = frozenset({"P", "spectrum", "valid", "flags"})

GRID_CSV_HEADER = "x,t,u,detGamma,flag"
FRAME_CSV_HEADER = "x,u"
GRID_CSV_BLOCK_CELLS = 256   # cells write_grid_csv formats and writes at a time, in whole t rows


def _expect(value, path: str, kind: type):
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise SchemaError(path, f"expected {name}, got {type(value).__name__}")
    return value


def _expect_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:   # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return v


def _items(value, path: str, parse=_expect_real) -> tuple:
    """A list's entries, each read by parse at its indexed path."""
    return tuple([parse(v, f"{path}[{j}]") for j, v in enumerate(_expect(value, path, list))])


def _fields(item, path: str, **parsers) -> list:
    """An object's values, one per keyword in declaration order, each read by its parser.

    Unknown keys are rejected before any value is read; every key of
    parsers is required.
    """
    obj = _expect(item, path, dict)
    _reject_unknown(obj, parsers.keys(), path)
    return [parse(_require(obj, key, path), f"{path}.{key}") for key, parse in parsers.items()]


def _construct(path: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), reporting its SpecValidationError as a SchemaError at path."""
    try:
        return cls(*args, **kwargs)
    except SpecValidationError as exc:
        raise SchemaError(path, str(exc)) from None


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required key")
    return obj[key]


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "unknown key")


def loads_document(text: str) -> dict:
    """Parse JSON text into the top-level object, or raise SchemaError."""
    try:
        data = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer beyond int's digit limit
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return _expect(data, "$", dict)


def _objects(cls, **parsers):
    """Reader of a list of objects, each made cls of its fields read in parsers' order."""
    return functools.partial(_items, parse=lambda item, path: _construct(
        path, cls, *_fields(item, path, **parsers)))


# Reader of each key of a scattering-data document: eta, then
# ScatteringSpec's fields in order. SPEC_DEFAULTS fills the keys left out.
_SPEC_READERS = {
    "eta": _expect_real,
    "complexPoles": _objects(realization.ComplexPolePair, alpha=_expect_real, beta=_expect_real,
                             coeffs=functools.partial(_items, parse=functools.partial(
                                 _fields, eps=_expect_real, gamma=_expect_real))),
    "imagPoles": _objects(realization.ImaginaryPole, omega=_expect_real, r=_items),
    "boundStates": _objects(realization.BoundState, kappa=_expect_real, c=_expect_real),
}


def parse_scattering_spec(data: dict) -> realization.ScatteringSpec:
    """Parse a scattering-data document into a ScatteringSpec."""
    eta, *blocks = _fields({**SPEC_DEFAULTS, **data}, "$", **_SPEC_READERS)
    return _construct("$", realization.ScatteringSpec, *blocks, eta=eta)


def _square_matrix(value, path: str) -> tuple:
    rows = _expect(value, path, list)
    if not rows:
        raise SchemaError(path, "matrix must not be empty")

    def row(item, row_path: str) -> tuple:
        if len(_expect(item, row_path, list)) != len(rows):
            raise SchemaError(row_path, f"expected {len(rows)} entries for a square matrix, "
                                        f"got {len(item)}")
        return _items(item, row_path)
    return _items(rows, path, row)


def parse_raw_triplet(obj, path: str = "$.rawTriplet") -> realization.Triplet:
    """Parse a rawTriplet object into a Triplet."""
    a, b, c, eta = _fields({"eta": 0.0, **_expect(obj, path, dict)}, path,
                           A=_square_matrix, B=_items, C=_items, eta=_expect_real)
    return _construct(path, realization.Triplet, np.array(a), np.array(b), np.array(c), eta)


def parse_input_document(data: dict):
    """Dispatch a parsed document to ScatteringSpec or Triplet.

    Build-output metadata keys (P, spectrum, valid, flags) are accepted
    next to rawTriplet and ignored, so build output round-trips.
    """
    _expect(data, "$", dict)
    has_raw = RAW_TRIPLET_KEY in data
    has_spec = bool(SPEC_DEFAULTS.keys() & data.keys())
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


def _float_strings(values) -> list[str]:
    """repr(float(v)) of every entry v, in order, without per-entry numpy indexing."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def write_grid_csv(stream, grid) -> None:
    """Grid rows t-major: x, t, u, detGamma, flag; one write per block of t rows, the
    fewest whole rows that hold GRID_CSV_BLOCK_CELLS cells (one row of a wider grid)."""
    stream.write(GRID_CSV_HEADER + "\n")
    xs, ts = _float_strings(grid.x), _float_strings(grid.t)
    rows = -(-GRID_CSV_BLOCK_CELLS // max(len(xs), 1))
    for start in range(0, len(ts), rows):   # a last, shorter block: zip ends with its t cells
        block = slice(start, start + rows)
        cells = zip(xs * rows, [t for t in ts[block] for _ in xs], _float_strings(grid.u[block]),
                    _float_strings(grid.det_gamma[block]), grid.flags[block].ravel().tolist())
        stream.write("".join([f"{x},{t},{v},{d},{flag}\n" for x, t, v, d, flag in cells]))


def write_frame_csv(stream, x_cells, us) -> None:
    """One time slice: x, u, from the x column already formatted (repr(float(x)))."""
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
