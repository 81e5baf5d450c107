"""Fixed-size complex matrix primitives shared by the synthesis pipeline.

All gates are plain numpy arrays of dtype complex128: 2x2 for single-qubit
gates, 4x4 for two-qubit gates (qubit 1 is the high-order tensor factor).
Circuits are ordered element lists; element 0 acts first on the state, so
the evaluated matrix is the right-to-left product of the element matrices.
"""

from dataclasses import astuple, dataclass, field

import numpy as np

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used across the pipeline.

    unitarity_tol bounds the largest entry of |U U^dag - I| at input
    boundaries, snap_tol is the window for snapping angles to special
    values before discrete decisions (classification, case selection), and
    verify_tol bounds every residual: a reconstruction passes when its
    Frobenius distance is below it, and so does each internal KAK step.
    All three must be positive and below MAX_TOLERANCE, and snap_tol at
    least unitarity_tol and ROUNDOFF.
    """

    unitarity_tol: float = 1e-10
    snap_tol: float = 1e-9
    verify_tol: float = 1e-8

    def __post_init__(self) -> None:
        # Rejects NaN too: every comparison with NaN is false.
        if not all(0 < t < MAX_TOLERANCE for t in astuple(self)):
            raise ValueError(f"tolerances must be finite and strictly positive, < {MAX_TOLERANCE}")
        # Chamber coordinates may lie ROUNDOFF outside [0, pi]; snapping must catch them.
        if self.snap_tol < max(self.unitarity_tol, ROUNDOFF):
            raise ValueError(f"snap_tol must be >= unitarity_tol and >= {ROUNDOFF:g}")


# Floating-point slack of exact comparisons (chamber faces, block-angle
# ranges, unit axes): about 2,000 ulps at pi, far below every tolerance.
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
    gram = m @ np.swapaxes(m.conj(), -1, -2)
    return np.abs(gram - np.eye(m.shape[-1])).max(axis=(-2, -1))


def require_unitary(m: np.ndarray, tol: float = DEFAULT_TOL.unitarity_tol,
                    what: str = "matrix") -> np.ndarray:
    """Validate and return a finite unitary matrix as complex128."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} has non-finite entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not unitarity_error(m) <= tol:
        raise ValueError(f"{what} is not unitary within tolerance {tol:g}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b of 2-D arrays; a acts on qubit 1, b on qubit 2.

    Broadcasts one multiply per entry, as np.kron does, so the result is
    bit-identical to it at a fraction of the call overhead.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


# The commuting axes of the canonical interaction, built once.
_XX, _YY, _ZZ = (tensor(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))


def exp_pauli(axis: str | np.ndarray, alpha: float) -> np.ndarray:
    """exp(i * alpha * sigma) for a Pauli axis or any 2x2 involution sigma."""
    sigma = PAULIS[axis] if isinstance(axis, str) else np.asarray(axis, dtype=complex)
    return np.cos(alpha) * ID2 + 1j * np.sin(alpha) * sigma


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
    digits near zero, where these residuals are actually read.
    """
    overlap = np.trace(dagger(a) @ b)
    phi = np.conj(overlap) / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(np.asarray(a) - phi * np.asarray(b), "fro"))


def project_special(u: np.ndarray,
                    tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, complex]:
    """Rescale a 4x4 unitary to unit determinant.

    Returns (v, phase) with u = phase * v, det(v) = 1 and phase the
    principal fourth root of det(u).
    """
    u = require_unitary(u, tol.unitarity_tol, "input")
    det = np.linalg.det(u)
    phase = complex(np.exp(1j * np.angle(det) / 4))
    return u / phase, phase


@dataclass(eq=False)
class LocalPair:
    """A pair of single-qubit gates applied simultaneously, a (x) b."""

    a: np.ndarray
    b: np.ndarray

    def matrix(self) -> np.ndarray:
        return tensor(self.a, self.b)

    def dag(self) -> "LocalPair":
        return LocalPair(dagger(self.a), dagger(self.b))


@dataclass(frozen=True)
class EntanglerApp:
    """Opaque application of the circuit's single fixed entangling gate."""


@dataclass(eq=False)
class CompiledRun:
    """A fixed run of elements standing in as one, with its product evaluated once.

    product is the run's matrix against one entangler; evaluate uses it in
    place of the elements, so a run is only valid in circuits over that
    entangler. factors are scalars its layers owe the circuit phase, which
    product leaves out. Emitted circuits hold the elements instead.
    """

    elements: list
    product: np.ndarray
    factors: list

    def matrix(self) -> np.ndarray:
        return self.product


CircuitElement = LocalPair | EntanglerApp | CompiledRun


@dataclass(eq=False)
class Circuit:
    """Ordered gate list plus an explicit unit-modulus global phase.

    Element 0 is applied first to the state and therefore appears
    rightmost in the evaluated matrix product.
    """

    elements: list[CircuitElement] = field(default_factory=list)
    phase: complex = 1.0 + 0.0j

    @property
    def entangler_count(self) -> int:
        return sum(isinstance(e, EntanglerApp) for e in self.elements)

    @property
    def local_count(self) -> int:
        return sum(isinstance(e, LocalPair) for e in self.elements)


def evaluate(circuit: Circuit, entangler: np.ndarray,
             tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Multiply out a circuit against a concrete entangler matrix."""
    entangler = require_unitary(entangler, tol.unitarity_tol, "entangler")
    out = ID4.copy()
    for elem in circuit.elements:
        m = entangler if isinstance(elem, EntanglerApp) else elem.matrix()
        out = m @ out
    return circuit.phase * out
