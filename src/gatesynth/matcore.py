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
    n = m.shape[-1]
    gram = (m @ m.conj().swapaxes(-1, -2)).reshape(m.shape[:-2] + (n * n,))
    gram[..., ::n + 1] -= 1  # minus the identity
    return np.abs(gram).max(axis=-1)


def require_unitary(m: np.ndarray, tol: float = DEFAULT_TOL.unitarity_tol,
                    what="matrix") -> np.ndarray:
    """Check one square matrix, or each of an (N, k, k) stack, for finite
    unitarity within tol; return each matrix's unitarity_error.

    ValueError names the first bad matrix: what, or in a stack what(i) (a
    string gives "{what} row {i}"). Non-finite entries are reported first;
    entries too large to square are not unitary and raise no numpy warning.
    """
    m = np.asarray(m, dtype=complex)

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
    return np.asarray(m).conj().T


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


def project_special_rows(us: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL,
                         what="input") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a complex (N, 4, 4) stack with require_unitary, what naming its
    rows, and rescale each matrix to unit determinant.

    Returns (v, phases, errors) with us[i] = phases[i] * v[i], det(v[i]) = 1,
    phases[i] the principal fourth root of det(us[i]) and errors[i] its
    unitarity_error.
    """
    errors = require_unitary(us, tol.unitarity_tol, what)
    det = np.linalg.det(us)
    phases = np.exp(1j * np.arctan2(det.imag, det.real) / 4)  # np.angle
    return us / phases[:, None, None], phases, errors


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


CircuitElement = LocalPair | EntanglerApp


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
    """Multiply out a circuit against a concrete entangler matrix.

    The entangler is checked for unitarity only when the circuit applies it
    bare, as an EntanglerApp element. A template run carries its product
    against the entangler it was built from, which was checked then.
    """
    if any(isinstance(e, EntanglerApp) for e in circuit.elements):
        require_unitary(entangler, tol.unitarity_tol, "entangler")
    return circuit.phase * _product(circuit.elements, entangler)


def _product(elements: list, entangler: np.ndarray) -> np.ndarray:
    """The elements' matrix product, entangler already checked; evaluate's loop.

    Every local layer's Kronecker product comes from one stacked tensor call.
    """
    pairs = [e for e in elements if isinstance(e, LocalPair)]
    layers = iter(tensor(np.array([p.a for p in pairs]), np.array([p.b for p in pairs]))
                  if pairs else ())
    out = ID4.copy()
    for elem in elements:
        if isinstance(elem, LocalPair):
            m = next(layers)
        else:
            m = entangler if isinstance(elem, EntanglerApp) else elem.matrix()
        out = m @ out
    return out


def merge_locals(circuit: Circuit) -> Circuit:
    """Fuse adjacent local layers and move scalar factors into the phase.

    Every surviving local pair is renormalized to unit determinant per
    qubit, with the extracted scalars folded into the circuit phase, so
    output layers are canonical, freshly allocated, and no two local
    layers are adjacent. Every other element passes through.

    All chains of adjacent layers fuse at once: one stacked matmul per
    depth d multiplies layer d of every chain that has one onto that
    chain's product of layers 0 to d - 1. Each product is the same 2x2
    matmul, in the same order, as fusing one chain at a time.
    """
    merged: list = []
    slots: list = []
    chains: list = []
    for elem in circuit.elements:
        if not isinstance(elem, LocalPair):
            merged.append(elem)
        elif slots and slots[-1] == len(merged) - 1:
            chains[-1].append(elem)
        else:
            slots.append(len(merged))
            merged.append(None)  # the fused layer, once normalized below
            chains.append([elem])
    phase = circuit.phase
    if not slots:
        return Circuit(merged, phase)
    # Longest chains first, so the chains with a layer at depth d are a
    # prefix of the stack. No chain is padded: a product with an identity
    # can flip the sign of an exact zero.
    order = sorted(range(len(chains)), key=lambda k: -len(chains[k]))
    counts = [sum(len(chain) > d for chain in chains) for d in range(len(chains[order[0]]))]
    layers = np.concatenate([m for d, count in enumerate(counts) for k in order[:count]
                             for m in (chains[k][d].a, chains[k][d].b)],
                            dtype=complex).reshape(-1, 2, 2, 2)
    fused = layers[:counts[0]]
    start = counts[0]
    for count in counts[1:]:
        fused[:count] = layers[start:start + count] @ fused[:count]
        start += count
    # Stacked det, sqrt and divide: the same per-matrix arithmetic as a
    # loop, without a LAPACK call per layer.
    scale = np.sqrt(np.linalg.det(fused))
    fused /= scale[..., None, None]
    # Slots in circuit order, so the phase takes its factors in that order;
    # slot k's chain sits at stack position j.
    for k, j in enumerate(sorted(range(len(chains)), key=order.__getitem__)):
        phase *= scale[j, 0] * scale[j, 1]
        merged[slots[k]] = LocalPair(fused[j, 0], fused[j, 1])
    return Circuit(merged, phase)
