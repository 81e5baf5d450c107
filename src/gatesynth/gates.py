"""Named two-qubit gates and the gate-argument mini-language.

Gate arguments on the command line are either a bare name (CNOT, CZ,
SWAP, SQRT_SWAP, B), a parameterized name (CPHASE(2pi/3), ZZ(pi/5)) with
angles written as pi-expressions, or MATRIX(path) loading a matrix file.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, interaction, require_unitary, zz_interaction
from .serialize import decode_matrix, encode_matrix, parse_matrix_text

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)

CZ = np.diag([1, 1, 1, -1]).astype(complex)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)

# The square root of SWAP whose canonical vector is (pi/4, pi/4, pi/4):
# identity on the triplet space, -i on the singlet. (The other root,
# +i on the singlet, lives at (3pi/4, pi/4, pi/4).)
SQRT_SWAP = ((1 - 1j) * np.eye(4) + (1 + 1j) * SWAP) / 2

# Canonical representative of the B class, interaction (pi/2, pi/4, 0).
B_GATE = interaction(np.pi / 2, np.pi / 4, 0.0)


def phase_gate(phi: float) -> np.ndarray:
    """Single-qubit PHASE gate diag(1, e^{i phi})."""
    return np.diag([1.0, np.exp(1j * phi)]).astype(complex)


def cphase(phi: float) -> np.ndarray:
    """Controlled-PHASE gate diag(1, 1, 1, e^{i phi})."""
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)


_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_ANGLE_RE = re.compile(
    rf"^\s*(?P<sign>-)?\s*(?P<coeff>{_NUM})?\s*\*?\s*(?P<pi>pi)?"
    rf"\s*(?:/\s*(?P<div>{_NUM}))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse a pi-expression like '2pi/3', 'pi/5', 'pi' or '0.785'."""
    m = _ANGLE_RE.match(text)
    if not m or (m.group("coeff") is None and m.group("pi") is None):
        raise ValueError(f"cannot parse angle {text!r}")
    value = float(m.group("coeff")) if m.group("coeff") else 1.0
    if m.group("pi"):
        value *= np.pi
    if m.group("div"):
        divisor = float(m.group("div"))
        if divisor == 0:
            raise ValueError(f"zero divisor in angle {text!r}")
        value /= divisor
    return -value if m.group("sign") else value


@dataclass
class GateSpec:
    """Resolved gate argument: canonical name plus parameter or matrix."""

    name: str
    angle: float | None = None
    matrix: np.ndarray | None = None

    def descriptor(self) -> dict:
        """JSON-ready description; MATRIX gates embed their entries."""
        if self.name == "MATRIX":
            return {"matrix": encode_matrix(self.matrix)}
        out: dict = {"name": self.name}
        if self.angle is not None:
            out["angle"] = self.angle
        return out


_FIXED_GATES = {
    "CNOT": lambda: CNOT,
    "CZ": lambda: CZ,
    "SWAP": lambda: SWAP,
    "SQRT_SWAP": lambda: SQRT_SWAP,
    "B": lambda: B_GATE,
}

_PARAM_GATES = {"CPHASE": cphase, "ZZ": zz_interaction}

_CALL_RE = re.compile(r"^\s*(?P<name>[A-Za-z_]+)\s*\(\s*(?P<arg>.*?)\s*\)\s*$")


def resolve_gate(text: str, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, GateSpec]:
    """Resolve a gate argument to its matrix plus a re-emittable spec."""
    bare = text.strip().upper()
    if bare in _FIXED_GATES:
        return _FIXED_GATES[bare]().copy(), GateSpec(bare)

    call = _CALL_RE.match(text.strip())
    if call:
        name = call.group("name").upper()
        if name == "MATRIX":
            path = Path(call.group("arg"))
            try:
                content = path.read_text()
            except OSError as exc:
                raise ValueError(f"cannot read matrix file {path}: {exc}") from exc
            matrix = parse_matrix_text(content, tol)
            if matrix.shape != (4, 4):
                raise ValueError(f"{path} holds a {matrix.shape} matrix, expected 4x4")
            return matrix, GateSpec("MATRIX", matrix=matrix)
        if name in _PARAM_GATES:
            angle = parse_angle(call.group("arg"))
            return _PARAM_GATES[name](angle), GateSpec(name, angle=angle)

    raise ValueError(f"unknown gate {text!r}; expected one of "
                     f"{sorted(_FIXED_GATES)} or CPHASE(..), ZZ(..), MATRIX(path)")


def resolve_descriptor(desc: dict, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Rebuild a gate matrix from a document descriptor; ValueError if malformed."""
    try:
        if "matrix" in desc:
            matrix = decode_matrix(desc["matrix"], (4, 4))
            return require_unitary(matrix, tol.unitarity_tol, "embedded matrix")
        name = desc["name"]
        if name in _FIXED_GATES:
            return _FIXED_GATES[name]().copy()
        if name in _PARAM_GATES:
            angle = desc["angle"]
            if isinstance(angle, bool) or not isinstance(angle, (int, float)):
                raise ValueError(f"malformed gate descriptor {desc!r}: "
                                 "angle must be a real number")
            return _PARAM_GATES[name](float(angle))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed gate descriptor {desc!r}: "
                         f"{type(exc).__name__} {exc}") from exc
    raise ValueError(f"unknown gate descriptor {desc!r}")
