"""Independent output checks: the benchmark's own evaluator, never gatesynth's.

A circuit is a list of ("local", a, b) or ("entangler",) records plus a
global phase; element 0 acts first. Its matrix is the right-to-left
product of kron(a, b) per local layer and the entangler matrix per
application, times the phase. The residual is the Frobenius distance to
the target minimized over a global phase.
"""

import json
from dataclasses import dataclass

import numpy as np

VERIFY_TOL = 1e-8
DOCUMENT_FORMAT = "gatesynth-circuit-v1"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    entanglers: int = 0
    locals: int = 0
    residual: float = float("nan")
    reason: str = ""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, a on the high-order qubit."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def residual(u: np.ndarray, target: np.ndarray) -> float:
    overlap = np.vdot(u, target)  # tr(u^dag target)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(target - phase * u))


def judge(records: list, phase: complex, entangler: np.ndarray, target: np.ndarray,
          bounds: tuple[int, ...]) -> Verdict:
    """Evaluate a circuit and check residual and entangler count."""
    out = np.eye(4, dtype=complex)
    n_ent = n_loc = 0
    for rec in records:
        if rec[0] == "entangler":
            n_ent += 1
            out = entangler @ out
        else:
            n_loc += 1
            out = kron(rec[1], rec[2]) @ out
    res = residual(phase * out, target)
    reason = ""
    if not res < VERIFY_TOL:
        reason = f"residual {res:.3g} >= {VERIFY_TOL:g}"
    elif n_ent > min(bounds):
        reason = f"{n_ent} entangler applications exceed bound {min(bounds)}"
    return Verdict(not reason, n_ent, n_loc, res, reason)


def check_circuit(circuit, report, op) -> Verdict:
    """Check a (Circuit, SynthesisReport) pair returned by synthesize."""
    records = []
    for elem in circuit.elements:
        kind = type(elem).__name__
        if kind == "EntanglerApp":
            records.append(("entangler",))
        elif kind == "LocalPair":
            records.append(("local", np.asarray(elem.a), np.asarray(elem.b)))
        else:
            return Verdict(False, reason=f"unknown circuit element {kind}")
    return judge(records, complex(circuit.phase), op.entangler, op.target,
                 (report.bound, op.bound))


def check_document(text: str, op) -> Verdict:
    """Check an emitted circuit document with plain json."""
    doc = json.loads(text)
    if doc.get("format") != DOCUMENT_FORMAT:
        return Verdict(False, reason=f"format {doc.get('format')!r}")
    report = doc["report"]
    elements = doc["elements"]
    if len(elements) != report["entangler_count"] + report["local_count"]:
        return Verdict(False, reason=f"{len(elements)} elements, report says "
                       f"{report['entangler_count']} + {report['local_count']}")

    def matrix(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    records = [("entangler",) if e["kind"] == "entangler"
               else ("local", matrix(e["a"]), matrix(e["b"])) for e in elements]
    phase = complex(*doc["phase"])
    return judge(records, phase, op.entangler, op.target, (report["bound"], op.bound))
