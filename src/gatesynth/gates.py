"""Named two-qubit gates and the gate-argument mini-language.

Gate arguments on the command line are either a bare name (CNOT, CZ,
SWAP, SQRT_SWAP, B), a parameterized name (CPHASE(2pi/3), ZZ(pi/5)) with
angles written as pi-expressions, or MATRIX(path) loading a matrix file.
Each becomes a descriptor ({"name"}, {"name", "angle"} or {"matrix"}), and
resolve_descriptor alone turns a descriptor into a checked matrix.
"""

import json
import re
from pathlib import Path

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, interaction, require_unitary, zz_interaction
from .serialize import decode_matrix, encode_matrix

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
    if not np.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return -value if m.group("sign") else value


_FIXED_GATES = {"CNOT": CNOT, "CZ": CZ, "SWAP": SWAP, "SQRT_SWAP": SQRT_SWAP, "B": B_GATE}

_PARAM_GATES = {"CPHASE": cphase, "ZZ": zz_interaction}

_CALL_RE = re.compile(r"^\s*(?P<name>[A-Za-z_]+)\s*\(\s*(?P<arg>.*?)\s*\)\s*$")


def resolve_gate(text: str, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, dict]:
    """A gate argument's matrix plus the descriptor a document records for it."""
    bare = text.strip().upper()
    call = _CALL_RE.match(text.strip())
    name = call.group("name").upper() if call else None
    if bare in _FIXED_GATES:
        desc = {"name": bare}
    elif name in _PARAM_GATES:
        desc = {"name": name, "angle": parse_angle(call.group("arg"))}
    elif name == "MATRIX":
        path = Path(call.group("arg"))
        try:
            desc = {"matrix": json.loads(path.read_text())}
        except OSError as exc:
            raise ValueError(f"cannot read matrix file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed matrix file {path}: {exc}") from exc
    else:
        raise ValueError(f"unknown gate {text!r}; expected one of "
                         f"{sorted(_FIXED_GATES)} or CPHASE(..), ZZ(..), MATRIX(path)")
    try:
        matrix = resolve_descriptor(desc, tol)
    except ValueError as exc:  # name the argument: a command takes two gates
        raise ValueError(f"{text.strip()}: {exc}") from exc
    if "matrix" in desc:  # the file's entries, written back as floats
        desc = {"matrix": encode_matrix(matrix)}
    return matrix, desc


def resolve_descriptor(desc: dict, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The checked matrix of a gate descriptor; ValueError if malformed.

    A descriptor is {"name"} for a named gate, {"name", "angle"} for a
    parameterized one, or {"matrix"} holding a unitary 4x4 as [re, im] rows.
    """
    try:
        if "matrix" in desc:
            matrix = decode_matrix(desc["matrix"], (4, 4))
            require_unitary(matrix, tol.unitarity_tol, "gate matrix")
            return matrix
        name = desc["name"]
        if name in _FIXED_GATES:
            return _FIXED_GATES[name].copy()
        if name in _PARAM_GATES:
            angle = desc["angle"]
            if isinstance(angle, bool) or not isinstance(angle, (int, float)):
                raise ValueError(f"malformed gate descriptor {desc!r}: "
                                 "angle must be a real number")
            if not np.isfinite(float(angle)):
                raise ValueError(f"malformed gate descriptor {desc!r}: angle is not finite")
            return _PARAM_GATES[name](float(angle))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed gate descriptor {desc!r}: "
                         f"{type(exc).__name__} {exc}") from exc
    raise ValueError(f"unknown gate descriptor {desc!r}")
