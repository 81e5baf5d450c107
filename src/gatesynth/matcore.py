"""Fixed-size complex matrix primitives shared by the synthesis pipeline.

All gates are plain numpy arrays of dtype complex128: 2x2 for single-qubit
gates, 4x4 for two-qubit gates (qubit 1 is the high-order tensor factor).
A circuit, Circuit(layers, slots, phase), is its local layers stacked
(L, 2, 2, 2), one slot around and between them (bare entangler
applications or a template run), and a phase; element 0 acts first on the
state, so the evaluated matrix is the right-to-left product of the element
matrices.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
# Read-only: circuits and units share these arrays, so a write would corrupt later results.
for _m in (ID2, ID4, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.flags.writeable = False


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used across the pipeline.

    verify_tol, the one setting, in [ROUNDOFF, MAX_TOLERANCE), bounds every residual
    (a Frobenius distance): the final check and each internal KAK step. Two
    windows are fixed: unitarity_tol bounds max |U U^dag - I| of every input,
    and snap_tol snaps angles to special values before discrete decisions.
    """

    unitarity_tol: ClassVar[float] = 1e-10
    snap_tol: ClassVar[float] = 1e-9  # >= unitarity_tol and ROUNDOFF, the chamber's slack
    verify_tol: float = 1e-8

    def __post_init__(self) -> None:
        # Rejects NaN too (every comparison with NaN is false), and any floor below roundoff.
        if not ROUNDOFF <= self.verify_tol < MAX_TOLERANCE:
            raise ValueError("tolerances must be finite and strictly positive, "
                             f"in [{ROUNDOFF}, {MAX_TOLERANCE})")


# Floating-point slack of exact comparisons (chamber faces, block-angle
# ranges, unit axes): about 2,000 ulps at pi, and the floor of verify_tol.
ROUNDOFF = 1e-12
# Every tolerance is below this. Correct residuals are near 1e-13; a looser
# verify_tol passes wrong circuits (at 3, a CNOT circuit against SWAP).
MAX_TOLERANCE = 1e-3

DEFAULT_TOL = ToleranceConfig()


def unitarity_error(m: np.ndarray) -> np.ndarray:
    """max |m m^dag - I| of each square matrix over the last two axes.

    Any non-finite entry makes its matrix's error inf or nan, which fails
    every `<= tol` test.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    gram = (m @ dagger(m)).reshape(m.shape[:-2] + (n * n,))
    gram[..., ::n + 1] -= 1  # minus the identity
    return np.abs(gram).max(axis=-1)


def require_unitary(m: np.ndarray, what="matrix") -> np.ndarray:
    """Check one square matrix, or each of an (N, k, k) stack, for finite
    unitarity within unitarity_tol; return each matrix's unitarity_error.

    ValueError names the first bad matrix: what, or in a stack what(i) (a
    string gives "{what} row {i}"). Non-finite entries are reported first;
    entries too large to square are not unitary and raise no numpy warning.
    """
    m = np.asarray(m, dtype=complex)
    tol = ToleranceConfig.unitarity_tol

    def name(i) -> str:
        return what(i) if callable(what) else f"{what} row {i}" if m.ndim == 3 else what

    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name(0)} is not unitary within tolerance {tol:g}")
    small = np.abs(m) <= 2  # false for NaN; a unitary's entries are at most 1 in modulus
    if not small.all():
        finite = np.isfinite(m).all(axis=(-2, -1))
        if not finite.all():
            raise ValueError(f"{name(finite.argmin())} has non-finite entries")
        m = np.where(small, m, 2)  # squares without overflow; not unitary within any tol < 3
    errors = unitarity_error(m)
    ok = errors <= tol
    if not ok.all():
        raise ValueError(f"{name(ok.argmin())} is not unitary within tolerance {tol:g}")
    return errors


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack or an (a, b) pair."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b over the last two axes; a acts on qubit 1, b on qubit 2.

    Leading axes broadcast, so a stack of pairs takes one call. Each entry
    is one multiply, as in np.kron, so every product is bit-identical to
    it at a fraction of the call overhead.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


# The commuting axes of the canonical interaction, built once.
_XX, _YY, _ZZ = (tensor(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))


def exp_pauli(axis: str, alpha: float) -> np.ndarray:
    """exp(i * alpha * sigma) for the Pauli axis "x", "y" or "z"."""
    return np.cos(alpha) * ID2 + 1j * np.sin(alpha) * PAULIS[axis]


def interaction(c1: float, c2: float, c3: float) -> np.ndarray:
    """exp((i/2)(c1 XX + c2 YY + c3 ZZ)), the nonlocal canonical factor.

    The three terms commute, so the closed form multiplies the
    cos + i*sin factor per axis; no general matrix exponential is needed.
    """
    out = ID4.copy()
    for c, ss in ((c1, _XX), (c2, _YY), (c3, _ZZ)):
        out = out @ (np.cos(c / 2) * ID4 + 1j * np.sin(c / 2) * ss)
    return out


def zz_interaction(gamma: float) -> np.ndarray:
    """exp(gamma (i/2) ZZ), the diagonal building-block gate."""
    return interaction(0.0, 0.0, gamma)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between 4x4 unitaries minimized over global phase.

    Equals sqrt(8 - 2 |tr(a^dag b)|), but is evaluated at the explicit
    minimizing phase tr/|tr|: the closed form loses half the significant
    digits near zero, where these residuals are actually read. The norm
    is np.linalg.norm's "fro" arithmetic for a 2-D array, without its
    wrapper.
    """
    a, b = np.asarray(a), np.asarray(b)
    overlap = (dagger(a) @ b).trace()
    phi = np.conj(overlap) / abs(overlap) if abs(overlap) > 0 else 1.0
    d = (a - phi * b).ravel()
    return math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag))


def project_special_rows(us: np.ndarray,
                         what="input") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a complex (N, 4, 4) stack with require_unitary, what naming its
    rows, and rescale each matrix to unit determinant.

    Returns (v, phases, errors) with us[i] = phases[i] * v[i], det(v[i]) = 1,
    phases[i] the principal fourth root of det(us[i]) and errors[i] its
    unitarity_error.
    """
    errors = require_unitary(us, what)
    det = np.linalg.det(us)
    phases = np.exp(1j * np.arctan2(det.imag, det.real) / 4)  # np.angle
    return us / phases[:, None, None], phases, errors


@dataclass(eq=False, slots=True)
class LocalPair:
    """A local layer a (x) b as Circuit.elements lists it; the pipeline keeps (a, b) halves."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class EntanglerApp:
    """Opaque application of the circuit's single fixed entangling gate."""


@dataclass(eq=False)
class Circuit:
    """A circuit in array form: its local layers stacked (L, 2, 2, 2), slots
    around and between them, and an explicit global phase. slots[i] comes
    before layer i, slots[L] after the last: an int, that many bare entangler
    applications, or a template run (zzsynth._Run), which carries its product
    against the entangler it was built for and that entangler's bytes.
    Element 0 acts first on the state.

    elements, a fresh list of LocalPair layers and EntanglerApp markers with
    every run expanded, is built on each read; it stays only because the
    benchmark's independent checker reads a circuit through it.
    """

    layers: np.ndarray
    slots: list
    phase: complex = 1.0 + 0.0j

    @property
    def elements(self) -> list:
        stack, index, kinds = self.expand()
        layers = stack.take(index, axis=0)
        app, pairs = EntanglerApp(), map(LocalPair, layers[:, 0], layers[:, 1])
        return [next(pairs) if local else app for local in kinds]

    def expand(self) -> tuple[np.ndarray, list, list]:
        """The elements, runs expanded, as (stack, index, kinds): the layers,
        then each run's stack; the stack row of each local layer in element
        order; per element, True for a local layer. A run's application k
        (from 1) is followed by row (k - 1) % apps of its stack."""
        layers = self.layers
        kinds, index, start, stacks, base = [], [], 0, [layers], len(layers)
        for i, slot in enumerate(self.slots):
            if i:
                kinds.append(True)
            if isinstance(slot, int):
                kinds += [False] * slot
                continue
            apps = slot.reps * slot.apps
            kinds += [False] + [True, False] * (apps - 1)
            if apps > 1:
                index += range(start, i)
                index += (list(range(base, base + slot.apps)) * slot.reps)[:-1]
                start, base = i, base + len(slot.layers)
                stacks.append(slot.layers)
        index += range(start, len(layers))
        return np.concatenate(stacks) if len(stacks) > 1 else layers, index, kinds


def evaluate(circuit: Circuit, entangler: np.ndarray) -> np.ndarray:
    """Multiply out a circuit against a concrete entangler matrix. A template
    run multiplies in its product only against the entangler it was built
    for (the same bytes), checked then; any other entangler is checked for
    unitarity when a slot applies it, bare or in a run multiplied out.
    ValueError for an entangler that is not 4x4."""
    entangler = np.asarray(entangler, dtype=complex)
    if entangler.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix as the entangler, got shape {entangler.shape}")
    built_for = entangler.tobytes()
    if any(slot if isinstance(slot, int) else slot.entangler != built_for
           for slot in circuit.slots):
        require_unitary(entangler, "entangler")
    return circuit.phase * _product(circuit.layers, circuit.slots, entangler, built_for)


def _product(layers: np.ndarray, slots: list, entangler: np.ndarray,
             built_for: bytes = b"") -> np.ndarray:
    """evaluate's product, entangler already checked; every layer's
    Kronecker product comes from one stacked tensor call. A run built for
    other entangler bytes than built_for is multiplied out as expand
    orders it. The product starts at the first element, not at the
    identity, and is a fresh array."""
    krons = tensor(layers[:, 0], layers[:, 1]) if len(layers) else ()
    out = None  # no element yet
    for i, slot in enumerate(slots):
        if i:
            out = krons[i - 1] if out is None else krons[i - 1] @ out
        if isinstance(slot, int):
            for _ in range(slot):
                out = entangler.copy() if out is None else entangler @ out
        elif slot.entangler == built_for:
            out = slot.product.copy() if out is None else slot.product @ out
        else:
            run = tensor(slot.layers[:, 0], slot.layers[:, 1])
            out = entangler.copy() if out is None else entangler @ out
            for k in range(slot.reps * slot.apps - 1):
                out = entangler @ (run[k % slot.apps] @ out)
    return ID4.copy() if out is None else out


def merge_locals(chains: list, phase: complex) -> tuple[np.ndarray, complex]:
    """Fuse chains of local layers and normalize each product to unit
    determinant per qubit: the one fusion every circuit goes through.

    Each chain is a flat list of the halves a, b of its layers, at least
    one layer, in circuit order. Returns the fused layers stacked
    (chains, 2, 2, 2) in chain order, and phase times the scalars taken
    out, in chain order. Every chain is padded with ID2 layers to the
    longest one, and one stacked matmul per depth multiplies the next
    layer of every chain onto its product so far. A padded identity
    changes no value, but may turn an exact -0.0 into +0.0.
    """
    depth = max(map(len, chains))
    layers = np.array([half for chain in chains for half in chain + [ID2] * (depth - len(chain))],
                      dtype=complex).reshape(len(chains), depth // 2, 2, 2, 2)
    fused = layers[:, 0]
    for d in range(1, depth // 2):
        fused = layers[:, d] @ fused
    # Stacked det, sqrt and divide: the same per-matrix arithmetic as a
    # loop, without a LAPACK call per layer.
    scale = np.sqrt(np.linalg.det(fused))
    fused /= scale[..., None, None]
    # Python complex products round as numpy's scalar ones. The phase stays
    # an np.complex128: templates raise it to powers, where the two differ.
    phase = complex(phase)
    for s1, s2 in scale.tolist():
        phase *= s1 * s2
    return fused, np.complex128(phase)
