"""Text formats: matrices and circuit documents.

Matrices travel as row-major JSON arrays of [re, im] pairs. A circuit
document bundles the entangler descriptor, tolerances, the ordered
element list, the global phase, and the synthesis report, so that a
document can be re-verified without any outside context.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .matcore import Circuit, EntanglerApp, LocalPair, ToleranceConfig, require_unitary

DOCUMENT_FORMAT = "gatesynth-circuit-v1"


def encode_matrix(m) -> list:
    """A complex matrix, or a stack of them, as JSON-ready row-major [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _decode_entry(pair) -> complex:
    if isinstance(pair, list) and len(pair) == 2:
        re, im = pair
        if (isinstance(re, (int, float)) and isinstance(im, (int, float))
                and not isinstance(re, bool) and not isinstance(im, bool)):
            try:
                return complex(re, im)
            except OverflowError:  # a JSON integer too large for a float
                pass
    raise ValueError(f"malformed entry {pair!r}: expected [re, im], two real numbers")


def decode_matrix(rows: list, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of encode_matrix; ValueError if malformed or not of the given shape."""
    try:
        m = np.array([[_decode_entry(pair) for pair in row] for row in rows])
    except TypeError as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    if shape is not None and m.shape != shape:
        raise ValueError(f"matrix has shape {m.shape}, expected {shape[0]}x{shape[1]}")
    return m


@dataclass
class CircuitDocument:
    """Self-contained circuit record for emission and re-verification."""

    entangler: dict
    circuit: Circuit
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    report: dict | None = None


def _element_records(elements: list) -> list:
    """One record per element; all local layers are encoded in one stacked call."""
    layers = iter(encode_matrix([(e.a, e.b) for e in elements if isinstance(e, LocalPair)]))
    records = []
    for elem in elements:
        if isinstance(elem, LocalPair):
            a, b = next(layers)
            records.append({"kind": "local", "a": a, "b": b})
        else:
            records.append({"kind": "entangler"})
    return records


def emit_circuit_document(doc: CircuitDocument) -> str:
    """The document as one line of compact JSON (json's C encoder)."""
    payload = {
        "format": DOCUMENT_FORMAT,
        "entangler": doc.entangler,
        "tolerances": asdict(doc.tolerances),
        "elements": _element_records(doc.circuit.elements),
        "phase": [doc.circuit.phase.real, doc.circuit.phase.imag],
        "report": doc.report,
    }
    return json.dumps(payload)


def parse_circuit_document(text: str) -> CircuitDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed circuit document: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != DOCUMENT_FORMAT:
        raise ValueError("not a gatesynth circuit document")
    try:
        tolerances = ToleranceConfig(**payload["tolerances"])
        elements: list = []
        for record in payload["elements"]:
            if record["kind"] == "entangler":
                elements.append(EntanglerApp())
            elif record["kind"] == "local":
                elements.append(LocalPair(decode_matrix(record["a"], (2, 2)),
                                          decode_matrix(record["b"], (2, 2))))
            else:
                raise ValueError(f"unknown element kind {record['kind']!r}")
        slots = [i for i, e in enumerate(elements) if isinstance(e, LocalPair)]
        layers = np.array([m for i in slots for m in (elements[i].a, elements[i].b)])
        require_unitary(layers.reshape(-1, 2, 2), tolerances.unitarity_tol,
                        lambda k: f"local layer at element {slots[k // 2]}")
        phase = _decode_entry(payload["phase"])
        # A circuit near the application cap multiplies ~1e5 phases, which
        # drift ~1e-10 off unit modulus. A modulus off by e adds 2e to the
        # residual of a 4x4 unitary, which verify_tol already bounds. Written
        # so that a NaN modulus fails too.
        if not abs(abs(phase) - 1.0) <= tolerances.verify_tol / 2:
            raise ValueError(f"circuit phase has modulus {abs(phase)!r}, expected 1")
        circuit = Circuit(elements, phase)
        return CircuitDocument(entangler=payload["entangler"], circuit=circuit,
                               tolerances=tolerances, report=payload.get("report"))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed circuit document: {exc}") from exc
