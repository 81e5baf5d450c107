"""Text formats: matrices and circuit documents.

Matrices travel as row-major JSON arrays of [re, im] pairs. A circuit
document bundles the entangler descriptor, tolerances, the ordered
element list (every template run expanded), the global phase, and the
synthesis report, so that a document can be re-verified without any
outside context.
"""

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .matcore import Circuit, ToleranceConfig, require_unitary

DOCUMENT_FORMAT = "gatesynth-circuit-v1"
# json.dumps's encoder minus its circular-reference check (a dict op per container).
_ENCODER = json.JSONEncoder(check_circular=False)
_FIXED_WINDOWS = {k: getattr(ToleranceConfig, k) for k in ("unitarity_tol", "snap_tol")}


def encode_matrix(m) -> list:
    """A complex matrix, or a stack of them, as JSON-ready row-major [re, im] pairs."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(m.shape + (2,)).tolist()


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


def _stacked(rows, shape: tuple) -> np.ndarray | None:
    """rows, nested lists of [re, im] pairs, as one complex array of the given
    shape, decoded in one numpy call; None if a list has the wrong length, a
    leaf is not an int or float (a bool is neither), or an int is too large
    for a float.

    Level by level, every node's length is checked and the level flattened,
    so numpy sees only the flat leaves: nesting deeper than shape stops at the
    type check. The pairs are reinterpreted, not computed: every bit equals
    complex(re, im), -0.0 and NaN included.
    """
    level = [rows]
    try:
        for size in shape + (2,):
            if set(map(len, level)) - {size}:  # any other length
                return None
            level = list(chain.from_iterable(level))
        if not set(map(type, level)) <= {int, float}:
            return None
        m = np.array(level, dtype=float)
    except (TypeError, OverflowError):  # a number where a list belongs; 10**400
        return None
    return m.view(complex).reshape(shape)


def decode_matrix(rows: list, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of encode_matrix; ValueError if malformed or not of the given shape.

    Rows _stacked refuses go through the per-entry loop, which names the first
    bad entry, then, if the rows are ragged, the first row of the wrong length.
    """
    m = _stacked(rows, shape)
    if m is not None:
        return m
    try:
        entries = [[_decode_entry(pair) for pair in row] for row in rows]
    except TypeError as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    widths = list(map(len, entries))
    if len(set(widths)) > 1:  # ragged: name the first row of the wrong length
        i = next(i for i, width in enumerate(widths) if width != shape[1])
        raise ValueError(f"malformed row {i}: expected {shape[1]} [re, im] entries, "
                         f"got {widths[i]}")
    m = np.array(entries)
    if m.shape != shape:
        raise ValueError(f"matrix has shape {m.shape}, expected {shape[0]}x{shape[1]}")
    return m


@dataclass
class CircuitDocument:
    """Self-contained circuit record for emission and re-verification."""

    entangler: dict
    circuit: Circuit
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    report: dict | None = None

    def check_phase(self, entangler: np.ndarray) -> None:
        """ValueError unless |phase| |det E|^(k/4) is 1 within verify_tol / 2, k the
        applications: the phase makes up a scaled entangler (a rounded matrix), and a
        modulus off by e adds 2e to a 4x4 residual, which verify_tol bounds."""
        scale = float(abs(np.linalg.det(entangler))) ** (self.circuit.entangler_count / 4)
        if not abs(abs(self.circuit.phase) * scale - 1.0) <= self.tolerances.verify_tol / 2:
            raise ValueError(f"circuit phase has modulus {abs(self.circuit.phase)!r}, "
                             f"expected {1 / scale:.12g}")


def emit_circuit_document(doc: CircuitDocument) -> str:
    """The document as one line of compact JSON (json's C encoder), the text
    json.dumps writes. One record per element, runs expanded: the layer
    stacks are encoded in one call, and a row a run repeats shares its record."""
    stack, index, kinds = doc.circuit.expand()
    rows = [{"kind": "local", "a": a, "b": b} for a, b in encode_matrix(stack)]
    local, entangler = map(rows.__getitem__, index), {"kind": "entangler"}
    payload = {
        "format": DOCUMENT_FORMAT,
        "entangler": doc.entangler,
        "tolerances": _FIXED_WINDOWS | vars(doc.tolerances),  # as every document has
        "elements": [next(local) if is_local else entangler for is_local in kinds],
        "phase": [doc.circuit.phase.real, doc.circuit.phase.imag],
        "report": doc.report,
    }
    return _ENCODER.encode(payload)


def _decode_records(records) -> tuple[list, np.ndarray]:
    """Each element record's kind, and the local records' a and b stacked
    (L, 2, 2, 2), decoded in one call.

    A record that is not a dict of kind local or entangler, or a stack
    _stacked refuses, goes through the per-record loop, which raises the
    first bad record's error.
    """
    try:
        kinds = [record["kind"] for record in records]
        local = [[r["a"], r["b"]] for r, kind in zip(records, kinds) if kind == "local"]
    except (KeyError, TypeError):
        local = None
    if local is not None and len(local) + kinds.count("entangler") == len(kinds):
        layers = _stacked(local, (len(local), 2, 2, 2))
        if layers is not None:
            return kinds, layers
    kinds, pairs = [], []
    for record in records:
        if record["kind"] == "local":
            pairs.append((decode_matrix(record["a"], (2, 2)), decode_matrix(record["b"], (2, 2))))
        elif record["kind"] != "entangler":
            raise ValueError(f"unknown element kind {record['kind']!r}")
        kinds.append(record["kind"])
    return kinds, np.array(pairs, dtype=complex).reshape(-1, 2, 2, 2)


def parse_circuit_document(text: str) -> CircuitDocument:
    """The document's circuit in array form: its local layers one stack, checked
    in one call, and the counts of entangler records around them as its slots."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"malformed circuit document: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != DOCUMENT_FORMAT:
        raise ValueError("not a gatesynth circuit document")
    try:
        tolerances = {**payload["tolerances"]}
        for key, fixed in _FIXED_WINDOWS.items():
            if (value := tolerances.pop(key, fixed)) != fixed:
                raise ValueError(f"document {key} {value!r} is not the fixed {fixed:g}")
        tolerances = ToleranceConfig(**tolerances)
        kinds, layers = _decode_records(payload["elements"])
        at = [i for i, kind in enumerate(kinds) if kind == "local"]
        require_unitary(layers.reshape(-1, 2, 2), lambda k: f"local layer at element {at[k // 2]}")
        slots = [j - i - 1 for i, j in zip([-1, *at], [*at, len(kinds)])]
        phase = _decode_entry(payload["phase"])
        if not np.isfinite(phase):
            raise ValueError(f"circuit phase has non-finite modulus {abs(phase)!r}")
        return CircuitDocument(entangler=payload["entangler"],
                               circuit=Circuit.stacked(layers, slots, phase),
                               tolerances=tolerances, report=payload.get("report"))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed circuit document: {exc}") from exc
