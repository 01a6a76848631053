"""The benchmark's workloads: fixed lists of kdvexact CLI operations.

One pass runs a workload's list once. eval-readme, frames-readme and
verify-mixed use fixed documents; many-poles evaluates a spec generated
from the workload seed, and the CLI only ever sees that generated
document. The two README grids are split into ops of a few tenths of a
second each (eval-readme by x, frames-readme by t), so that a run holds
many timings of each op; see run.py for how they are combined.
smoke=True shrinks every grid for the benchmark's self-test.
Import this module only once src/ is on sys.path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kdvexact import documents, realization, solution

# The README library example: a complex pole pair at sqrt(3)/2 + i/2 plus
# a kappa = 2 bound state, P = 3, eta = 1.
README_SPEC = {
    "eta": 1.0,
    "complexPoles": [{"alpha": 0.8660254037844386, "beta": 0.5,
                      "coeffs": [{"eps": 0.5, "gamma": 0.5}]}],
    "boundStates": [{"kappa": 2.0, "c": 3.0}],
}
THREE_BOUND_SPEC = {
    "eta": 1.0,
    "boundStates": [{"kappa": 0.5, "c": 1.0}, {"kappa": 0.7, "c": 1.5},
                    {"kappa": 0.9, "c": 0.8}],
}
# The README raw-triplet example.
RAW_TRIPLET = {"rawTriplet": {"A": [[1.0]], "B": [1.0], "C": [2.0], "eta": 0.0}}

MANY_POLES_P = 64

WHY = {
    "eval-readme": "README spec on the default 201x101 eval grid to CSV in 10 x-slices; "
                   "per-point sampling dominates and most points take the near-singular exit",
    "frames-readme": "same spec via frames, 101x201 in 20 t-slices: every point takes the "
                     "full path, twice the distinct t values, 201 small output files",
    "verify-mixed": "verify on three documents: the only workload where the "
                    "verification checks dominate and sample_grid is never called",
    "many-poles": "eval of a seeded P = 64 spec on a 41x11 grid: the Lyapunov "
                  "setup dominates and per-point linear algebra is BLAS-sized",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    """One CLI operation: a subcommand on one document over an x,t range."""

    command: str                      # eval | frames | verify
    doc: str                          # key into Workload.docs
    x: tuple[float, float, int]
    t: tuple[float, float, int]

    @property
    def grid_points(self) -> int:
        """Points the op writes out; verify writes a report, no grid."""
        return 0 if self.command == "verify" else self.x[2] * self.t[2]

    @property
    def output_name(self) -> str:
        return {"eval": "grid.csv", "frames": "frames", "verify": "report.json"}[self.command]

    def argv(self, doc_path: str, output: str) -> list[str]:
        return [self.command, "--input", doc_path, "--x", _range(self.x),
                "--t", _range(self.t), "--output", output]


def _range(r: tuple[float, float, int]) -> str:
    return f"{r[0]!r}:{r[1]!r}:{r[2]}"


def split_range(r: tuple[float, float, int], parts: int) -> tuple:
    """Consecutive sub-ranges that together hold the points of range r."""
    chunks = np.array_split(np.linspace(r[0], r[1], r[2]), parts)
    return tuple((float(c[0]), float(c[-1]), int(c.size)) for c in chunks)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: dict
    ops: tuple[Op, ...]
    reference: str = "interpreter"   # worker.REFERENCES kind that scales its times

    @property
    def grid_points(self) -> int:
        return sum(op.grid_points for op in self.ops)


def many_poles_spec(seed: int) -> dict:
    """Seeded P = 64 scattering document with calm coefficients.

    Fourteen complex pole pairs (eight of multiplicity 2), eight imaginary
    poles (four of multiplicity 2) and eight bound states. Pole locations
    are jittered grids, so they stay distinct; reflection coefficients
    are small, as in tests/helpers.random_calm_spec.
    """
    rng = np.random.default_rng(seed)

    def coeff() -> float:
        return float(rng.uniform(0.02, 0.1))

    betas = rng.permutation(np.linspace(0.6, 1.3, 14)) + rng.uniform(-0.02, 0.02, 14)
    complex_poles = [
        {"alpha": float(rng.uniform(0.3, 1.2)), "beta": float(beta),
         "coeffs": [{"eps": coeff(), "gamma": coeff()} for _ in range(2 if i < 8 else 1)]}
        for i, beta in enumerate(betas)]
    omegas = rng.permutation(np.linspace(0.6, 1.3, 8)) + rng.uniform(-0.02, 0.02, 8)
    imag_poles = [{"omega": float(omega), "r": [coeff() for _ in range(2 if i < 4 else 1)]}
                  for i, omega in enumerate(omegas)]
    kappas = np.linspace(0.45, 0.85, 8) + rng.uniform(-0.02, 0.02, 8)
    bound_states = [{"kappa": float(k), "c": float(rng.uniform(0.5, 2.0))} for k in kappas]
    doc = {"eta": float(rng.choice([0.0, 4.0, 8.0])), "complexPoles": complex_poles,
           "imagPoles": imag_poles, "boundStates": bound_states}
    size = (sum(2 * len(p["coeffs"]) for p in complex_poles)
            + sum(len(p["r"]) for p in imag_poles) + len(bound_states))
    if size != MANY_POLES_P:
        raise AssertionError(f"many-poles spec has P = {size}, expected {MANY_POLES_P}")
    return doc


def evaluator_for(doc: dict) -> solution.GammaEvaluator:
    """One set-up: parse a document, build its triplet, make the evaluator."""
    parsed = documents.parse_input_document(doc)
    if isinstance(parsed, realization.ScatteringSpec):
        parsed = realization.build_triplet(parsed)
    return solution.make_evaluator(parsed)


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """Build a workload; only many-poles reads the seed."""
    reference = "interpreter"
    if name == "eval-readme":
        # Split by x: every x column holds ok points, while t rows past
        # t = 0.5 are all flagged and an all-flagged eval exits with 3.
        docs = {"readme": README_SPEC}
        x, t = ((0.0, 10.0, 11), (0.0, 2.0, 6)) if smoke else ((0.0, 10.0, 201), (0.0, 2.0, 101))
        ops = tuple(Op("eval", "readme", xs, t) for xs in split_range(x, 2 if smoke else 10))
    elif name == "frames-readme":
        docs = {"readme": README_SPEC}
        x, t = ((0.0, 10.0, 6), (0.0, 0.1, 5)) if smoke else ((0.0, 10.0, 101), (0.0, 0.1, 201))
        ops = tuple(Op("frames", "readme", x, ts) for ts in split_range(t, 2 if smoke else 20))
    elif name == "verify-mixed":
        docs = {"readme": README_SPEC, "three-bound": THREE_BOUND_SPEC,
                "raw-triplet": RAW_TRIPLET}
        grid = ((0.0, 2.0, 5), (0.0, 0.1, 3)) if smoke else ((0.0, 10.0, 201), (0.0, 0.1, 101))
        ops = tuple(Op("verify", doc, *grid) for doc in docs)
    elif name == "many-poles":
        docs = {"many-poles": many_poles_spec(seed)}
        grid = ((0.0, 10.0, 3), (0.0, 0.1, 2)) if smoke else ((0.0, 10.0, 41), (0.0, 0.1, 11))
        ops = (Op("eval", "many-poles", *grid),)
        reference = "dense"
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name=name, why=WHY[name], docs=docs, ops=ops, reference=reference)
