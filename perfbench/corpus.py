"""Seeded workload inputs, built from numpy alone.

Nothing here imports gatesynth. Targets and entanglers are Haar draws,
named gates written out from their definitions, and canonical
interactions exp((i/2)(c1 XX + c2 YY + c3 ZZ)) computed by eigh. The
uniform application bound of each entangler comes from the paper's case
formulas on its canonical class, not from the program.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

PI = math.pi

# Weakest resource angle the mixed workload draws. It keeps bounds at or
# below 60; gates closer to local make amplify build unbounded circuits.
GAMMA_FLOOR = PI / 20

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_XX, _YY, _ZZ = np.kron(_X, _X), np.kron(_Y, _Y), np.kron(_Z, _Z)


def interaction(c1: float, c2: float, c3: float) -> np.ndarray:
    """exp((i/2)(c1 XX + c2 YY + c3 ZZ)) via the Hermitian eigendecomposition."""
    w, v = np.linalg.eigh((c1 * _XX + c2 * _YY + c3 * _ZZ) / 2)
    return (v * np.exp(1j * w)) @ v.conj().T


def cphase(phi: float) -> np.ndarray:
    return np.diag([1, 1, 1, np.exp(1j * phi)]).astype(complex)


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
# Identity on the triplet space, -i on the singlet: class (pi/4, pi/4, pi/4).
SQRT_SWAP = ((1 - 1j) * np.eye(4) + (1 + 1j) * SWAP) / 2
B_GATE = interaction(PI / 2, PI / 4, 0.0)

LANDMARKS = (
    ("identity", np.eye(4, dtype=complex)),
    ("CNOT", CNOT),
    ("SWAP", SWAP),
    ("SQRT_SWAP", SQRT_SWAP),
    ("B", B_GATE),
    ("iSWAP", ISWAP),
    ("CPHASE(pi/3)", cphase(PI / 3)),
)

CNOT_CLASS = (PI / 2, 0.0, 0.0)
CPHASE_PI_9 = cphase(PI / 9)
CPHASE_PI_9_CLASS = (PI / 18, 0.0, 0.0)

# CLI entanglers: (gate string, matrix, canonical class).
CLI_ENTANGLERS = (
    ("CNOT", CNOT, (PI / 2, 0.0, 0.0)),
    ("B", B_GATE, (PI / 2, PI / 4, 0.0)),
    ("SQRT_SWAP", SQRT_SWAP, (PI / 4, PI / 4, PI / 4)),
    ("CPHASE(2pi/3)", cphase(2 * PI / 3), (PI / 3, 0.0, 0.0)),
)

def resource_angle(g: tuple[float, float, float]) -> tuple[float, int]:
    """(gamma, apps_per_unit) of an entangler class, from the extraction cases.

    Case 1 (g2 = g3 = 0) uses one application at angle g1; case 2
    (pi/2, pi/2, 0) two at pi/2; case 3 (g3 = 0) two at 2*g1, or 2*g2 when
    g1 = pi/2; case 4 (g3 > 0) two at 2*g3. The angle then folds into
    (0, pi/2].
    """
    g1, g2, g3 = g
    if g2 == 0 and g3 == 0:
        raw, apps = g1, 1
    elif g3 == 0 and g1 == PI / 2 and g2 == PI / 2:
        raw, apps = PI / 2, 2
    elif g3 == 0:
        raw, apps = (2 * g2 if g1 == PI / 2 else 2 * g1), 2
    else:
        raw, apps = 2 * g3, 2
    raw = math.fmod(raw, PI)
    return min(raw, PI - raw), apps


def paper_bound(g: tuple[float, float, float]) -> int:
    """Uniform bound 6 * n * apps_per_unit, n the repeats that lift gamma to pi/4."""
    gamma, apps = resource_angle(g)
    return 6 * max(1, math.ceil(PI / 4 / gamma)) * apps


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random U(dim) via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dress(rng: np.random.Generator, core: np.ndarray) -> np.ndarray:
    """Sandwich a gate between Haar-random local gates."""
    def local():
        return np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    return local() @ core @ local()


def _mixed_class(rng: np.random.Generator, case: int) -> tuple[float, float, float]:
    """A canonical class of one extraction case, redrawn until gamma >= GAMMA_FLOOR."""
    margin = 0.05  # keep zero coordinates apart from drawn ones
    while True:
        if case == 1:
            g = (rng.uniform(GAMMA_FLOOR, PI - GAMMA_FLOOR), 0.0, 0.0)
        elif case == 2:
            return (PI / 2, PI / 2, 0.0)
        elif case == 3:
            g2 = rng.uniform(margin, PI / 2 - margin)
            g1 = PI / 2 if rng.random() < 0.25 else rng.uniform(g2, PI - g2)
            g = (g1, g2, 0.0)
        else:
            g1, g2, g3 = rng.uniform(0, PI), rng.uniform(0, PI / 2), rng.uniform(0, PI / 2)
            if not (PI - g2 >= g1 >= g2 >= g3 >= margin):
                continue
            g = (g1, g2, g3)
        if resource_angle(g)[0] >= GAMMA_FLOOR:
            return g


@dataclass(frozen=True)
class Op:
    """One synthesis request and what a correct answer must satisfy."""

    target: np.ndarray
    entangler: np.ndarray
    bound: int                 # paper bound for the entangler's class
    label: str
    gate_name: str = ""        # CLI entangler string
    target_file: str = ""      # CLI target matrix file, relative to its directory


# A workload's position here selects its random streams: append, never reorder.
WORKLOADS = ("haar_cnot", "haar_weak", "mixed_entangler", "cli_docs")

# Streams of one workload and seed. Op i of a stream has a generator of its
# own, so it is the same op however many ops a run reaches, and no op of a
# run repeats another.
MEASURED, WARMUP, UNTRACED, PROBE = range(4)


def make_op(workload: str, seed: int, i: int, stream: int = MEASURED) -> Op:
    """Op i of a workload's stream; the same arguments give the same op."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), stream, i])
    if workload == "haar_cnot":
        return Op(haar_unitary(rng, 4), CNOT, paper_bound(CNOT_CLASS), "haar")
    if workload == "haar_weak":
        return Op(haar_unitary(rng, 4), CPHASE_PI_9, paper_bound(CPHASE_PI_9_CLASS), "haar")
    if workload == "mixed_entangler":
        # The class comes from a stream without the seed: op i has the same
        # class, so the same output size, at every seed, and count means do
        # not move with the seed. The seed draws the dressing and the target.
        case = i % 4 + 1
        g = _mixed_class(np.random.default_rng([WORKLOADS.index(workload), stream, i]), case)
        entangler = dress(rng, interaction(*g))
        return Op(haar_unitary(rng, 4), entangler, paper_bound(g), f"case{case}")
    # Entangler changes every two ops, target kind every op, so each
    # entangler meets Haar targets and every landmark.
    name, entangler, g = CLI_ENTANGLERS[(i // 2) % len(CLI_ENTANGLERS)]
    if i % 2 == 0:
        label, target = "haar", haar_unitary(rng, 4)
    else:
        label, core = LANDMARKS[(i // 8) % len(LANDMARKS)]
        target = dress(rng, core)
    return Op(target, entangler, paper_bound(g), label,
              gate_name=name, target_file=f"target-{stream}-{i}.json")


def matrix_text(m: np.ndarray) -> str:
    """Row-major JSON array of [re, im] pairs, the CLI's matrix file format."""
    return json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in m])


def digest_update(h, op: Op) -> None:
    """Feed every input the program receives for `op` into hash `h`."""
    h.update(np.ascontiguousarray(op.target).tobytes())
    h.update(np.ascontiguousarray(op.entangler).tobytes())
    h.update(f"{op.gate_name}|{op.target_file}|".encode())
