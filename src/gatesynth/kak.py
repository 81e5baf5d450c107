"""Cartan decomposition of two-qubit gates and Weyl-chamber classification.

Every 4x4 unitary factors as

    phase * (k1.a (x) k1.b) * exp((i/2)(c1 XX + c2 YY + c3 ZZ)) * (k2.a (x) k2.b)

with the canonical vector (c1, c2, c3) reduced to the chamber

    pi - c2 >= c1 >= c2 >= c3 >= 0.

The algorithm conjugates into the magic (Bell) basis, where local gates
become real orthogonal matrices and the interaction factor becomes
diagonal, then simultaneously diagonalizes the real and imaginary parts
of the symmetric product M = V^T V.

The raw triple read off the eigenphases is moved into the chamber in
closed form (Zhang, Vala, Sastry and Whaley, "Geometric theory of nonlocal
two-qubit operations", quant-ph/0209120): reduce each coordinate mod pi,
sort descending, reflect through the face c1 + c2 = pi, and fold the
c3 = 0 base onto c1 <= pi/2. Every move is an exact local identity
(axis swap, sign flip of a pair, pi shift), tracked into the local factors.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .matcore import (DEFAULT_TOL, ID2, ROUNDOFF, SIGMA_X, SIGMA_Y, SIGMA_Z,
                      LocalPair, ToleranceConfig, interaction, project_special,
                      tensor)

MAGIC = np.array([[1, 0, 0, 1j],
                  [0, 1j, 1, 0],
                  [0, 1j, -1, 0],
                  [1, 0, 0, -1j]], dtype=complex) / np.sqrt(2)
MAGIC_DAG = MAGIC.conj().T

# Diagonal of XX, YY, ZZ in the magic basis; together with the all-ones
# vector these form an orthogonal basis of R^4, so any diagonal phase
# vector resolves exactly into identity + interaction components.
_DIAG_XX = np.array([1.0, 1.0, -1.0, -1.0])
_DIAG_YY = np.array([-1.0, 1.0, -1.0, 1.0])
_DIAG_ZZ = np.array([1.0, -1.0, -1.0, 1.0])

_SNAP_POINTS = (0.0, np.pi / 4, np.pi / 2, np.pi)

# Real combinations for breaking eigenvalue degeneracies, drawn once from a
# fixed seed: every call tries them in the same order, so results do not
# depend on call ordering.
_DIAG_SEED = 7
_DIAG_DRAWS = np.random.default_rng(_DIAG_SEED).normal(size=(32, 2))

# Hermitian involution exchanging two Pauli axes: (s_i + s_j)/sqrt(2)
# conjugates sigma_i <-> sigma_j and negates the third axis, so applying
# it on both qubits swaps two interaction coefficients exactly.
_AXIS_SWAP = {
    (0, 1): (SIGMA_X + SIGMA_Y) / np.sqrt(2),
    (0, 2): (SIGMA_X + SIGMA_Z) / np.sqrt(2),
    (1, 2): (SIGMA_Y + SIGMA_Z) / np.sqrt(2),
}

# Pauli on qubit 1 whose conjugation negates the other two coefficients.
_PAIR_NEGATE = {(0, 1): SIGMA_Z, (0, 2): SIGMA_Y, (1, 2): SIGMA_X}

_SHIFT_PHASE = (1.0 + 0j, -1j, -1.0 + 0j, 1j)  # (-i)**m for m mod 4

_PAULI_BY_AXIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class GateClass(enum.Enum):
    LOCAL = "local"
    SWAP_CLASS = "swap"
    ENTANGLING = "entangling"


@dataclass(frozen=True)
class CanonicalVector:
    """Weyl-chamber coordinates (radians) of a two-qubit gate class."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        slack = DEFAULT_TOL.snap_tol
        ok = (np.pi - self.c2 + slack >= self.c1 >= self.c2 - slack
              and self.c2 + slack >= self.c3 >= -slack)
        if not ok:
            raise ValueError(f"({self.c1}, {self.c2}, {self.c3}) is outside the chamber")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


@dataclass(eq=False)
class KakDecomposition:
    k1: LocalPair
    c: CanonicalVector
    k2: LocalPair
    phase: complex

    def reconstruct(self) -> np.ndarray:
        return self.phase * self.k1.matrix() @ interaction(*self.c.as_tuple()) @ self.k2.matrix()


def snap_angle(x: float, tol: float = DEFAULT_TOL.snap_tol) -> float:
    """Snap an angle to {0, pi/4, pi/2, pi} when within tol of one."""
    for point in _SNAP_POINTS:
        if abs(x - point) <= tol:
            return point
    return float(x)


def snap_vector(c: CanonicalVector, tol: float = DEFAULT_TOL.snap_tol) -> tuple[float, float, float]:
    return tuple(snap_angle(x, tol) for x in c.as_tuple())


class _MoveTracker:
    """Accumulates local corrections while reducing an interaction triple.

    Maintains A(raw) = phase * (pre.a (x) pre.b) @ A(c) @ (post.a (x) post.b)
    exactly through every move.
    """

    def __init__(self, raw: tuple[float, float, float]):
        self.c = list(raw)
        self.pre_a = ID2.copy()
        self.pre_b = ID2.copy()
        self.post_a = ID2.copy()
        self.post_b = ID2.copy()
        self.phase = 1.0 + 0j

    def swap(self, i: int, j: int) -> None:
        h = _AXIS_SWAP[(i, j)]
        self.pre_a = self.pre_a @ h
        self.pre_b = self.pre_b @ h
        self.post_a = h @ self.post_a
        self.post_b = h @ self.post_b
        self.c[i], self.c[j] = self.c[j], self.c[i]

    def negate_pair(self, i: int, j: int) -> None:
        s = _PAIR_NEGATE[(i, j)]
        self.pre_a = self.pre_a @ s
        self.post_a = s @ self.post_a
        self.c[i] = -self.c[i]
        self.c[j] = -self.c[j]

    def shift(self, k: int, m: int) -> None:
        # A(c) = A(c + m*pi e_k) * (-i)^m (sigma_k (x) sigma_k)^m
        if m == 0:
            return
        self.phase *= _SHIFT_PHASE[m % 4]
        if m % 2:
            s = _PAULI_BY_AXIS[k]
            self.post_a = s @ self.post_a
            self.post_b = s @ self.post_b
        self.c[k] = self.c[k] + m * np.pi


def _sort_descending(t: _MoveTracker) -> None:
    # Exact comparisons: equal values never swap, and a near-tie must not
    # hide the true smallest coordinate from the base test below.
    for i, j in ((0, 1), (1, 2), (0, 1)):
        if t.c[i] < t.c[j]:
            t.swap(i, j)


def canonicalize(raw: tuple[float, float, float]) -> tuple[
        CanonicalVector, LocalPair, LocalPair, complex]:
    """Reduce an interaction triple to its Weyl-chamber representative.

    Returns (c, pre, post, phase) with

        A(raw) = phase * (pre.a (x) pre.b) @ A(c) @ (post.a (x) post.b)

    exactly. Chamber points are unique except on the c3 = 0 base, where
    (c1, c2, 0) ~ (pi - c1, c2, 0); there the representative with
    c1 <= pi/2 is kept. Near-ties within ROUNDOFF of a chamber face or of
    the fold keep the identity move, so a canonical triple maps to
    itself with identity locals and unit phase.
    """
    t = _MoveTracker(tuple(float(x) for x in raw))
    # (1) Each coordinate into [-ROUNDOFF, pi - ROUNDOFF) by whole pi shifts.
    for k in range(3):
        m = -int(np.floor((t.c[k] + ROUNDOFF) / np.pi))
        # x + m*pi can round across an edge; land inside so that a second
        # pass over the result shifts nothing.
        if t.c[k] + m * np.pi < -ROUNDOFF:
            m += 1
        elif t.c[k] + m * np.pi >= np.pi - ROUNDOFF:
            m -= 1
        t.shift(k, m)
    # (2) c1 >= c2 >= c3.
    _sort_descending(t)
    # (3) Reflect through the face c1 + c2 = pi: (pi - c2, pi - c1, c3).
    if t.c[0] + t.c[1] > np.pi + ROUNDOFF:
        t.negate_pair(0, 1)
        t.shift(0, 1)
        t.shift(1, 1)
        t.swap(0, 1)
        _sort_descending(t)
    # (4) Base identification on c3 = 0: (pi - c1, c2, -c3).
    if abs(t.c[2]) <= ROUNDOFF and t.c[0] > np.pi / 2 + ROUNDOFF:
        t.negate_pair(0, 2)
        t.shift(0, 1)
        _sort_descending(t)

    vec = CanonicalVector(*(x + 0.0 for x in t.c))  # -0.0 -> +0.0
    return vec, LocalPair(t.pre_a, t.pre_b), LocalPair(t.post_a, t.post_b), t.phase


def _simultaneous_diagonalize(m2: np.ndarray, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a complex-symmetric unitary M2 = P D P^T, P real orthogonal.

    Real and imaginary parts of M2 commute, so a random real combination
    (fixed seed, redrawn until the off-diagonal part of P^T M2 P is below
    atol in Frobenius norm) is diagonalized instead; this breaks eigenvalue
    degeneracies deterministically.
    """
    re, im = m2.real.copy(), m2.imag.copy()
    # Symmetrize against roundoff so eigh sees exactly symmetric input.
    re = (re + re.T) / 2
    im = (im + im.T) / 2
    for wr, wi in _DIAG_DRAWS:
        _, p = np.linalg.eigh(wr * re + wi * im)
        d = p.T @ m2 @ p
        if np.linalg.norm(d - np.diag(np.diag(d))) < atol:
            break
    else:
        raise ArithmeticError("failed to diagonalize the magic-basis symmetric product")
    theta = np.angle(np.diag(d))
    order = np.argsort(theta)
    return p[:, order], theta[order]


def _factor_local(m: np.ndarray, atol: float) -> tuple[complex, np.ndarray, np.ndarray]:
    """Split m = g * (a (x) b) with det(a) = det(b) = 1, to Frobenius residual < atol.

    Builds both factors from the rows/columns through the largest-magnitude
    entry, which is safe because a true tensor product has rank-1 block
    structure everywhere.
    """
    mags = [abs(z) for z in m.ravel().tolist()]
    r, c = divmod(mags.index(max(mags)), 4)  # first maximum in row-major order
    # f1[i, j] = m[2i + r%2, 2j + c%2] and f2[i, j] = m[r - r%2 + i, c - c%2 + j].
    f = np.array([m[r & 1::2, c & 1::2], m[r & 2:(r & 2) + 2, c & 2:(c & 2) + 2]])
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.sqrt(np.linalg.det(f))
        scale[scale == 0] = 1
        f /= scale[:, None, None]
    f1, f2 = f
    g = m[r, c] / (f1[r >> 1, c >> 1] * f2[r & 1, c & 1])
    if g.real < 0:
        f1 = -f1
        g = -g
    if not np.linalg.norm(m - g * tensor(f1, f2)) < atol:
        raise ArithmeticError("matrix is not a tensor product of single-qubit gates")
    return complex(g), f1, f2


def kak_decompose(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> KakDecomposition:
    """Decompose a 4x4 unitary into local pairs and a canonical interaction.

    Raises ValueError for input that is not a 4x4 unitary and
    ArithmeticError if an internal step or the reconstruction misses
    verify_tol in Frobenius norm (an internal failure, never a property of
    valid input).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    su, proj_phase = project_special(u, tol)

    v = MAGIC_DAG @ su @ MAGIC
    p, theta = _simultaneous_diagonalize(v.T @ v, tol.verify_tol)

    # Eigenphases of M2 are twice the interaction phases. det(M2) = 1, so
    # the principal angles sum to a multiple of 2*pi; shift one phase by a
    # full turn when needed so that det(Delta) = +1 below.
    phases = theta.copy()
    turns = round(float(theta.sum()) / (2 * np.pi))
    if turns % 2:
        phases[0] -= 2 * np.pi * np.sign(turns)
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, 0] = -p[:, 0]

    delta = np.exp(0.5j * phases)
    q2 = p.T
    q1 = v @ p @ np.diag(delta.conj())
    if not np.linalg.norm(q1.imag) < tol.verify_tol:
        raise ArithmeticError("local factor failed to come out real in the magic basis")
    q1 = q1.real

    g1, a1, b1 = _factor_local(MAGIC @ q1 @ MAGIC_DAG, tol.verify_tol)
    g2, a2, b2 = _factor_local(MAGIC @ q2 @ MAGIC_DAG, tol.verify_tol)

    # Resolve the phase vector against the orthogonal basis {1, dXX, dYY, dZZ}:
    # identity component becomes global phase, the rest the raw triple.
    c0 = float(phases.sum()) / 4
    raw = (
        float(phases @ _DIAG_XX) / 4,
        float(phases @ _DIAG_YY) / 4,
        float(phases @ _DIAG_ZZ) / 4,
    )
    vec, pre, post, move_phase = canonicalize(raw)

    k1 = LocalPair(a1 @ pre.a, b1 @ pre.b)
    k2 = LocalPair(post.a @ a2, post.b @ b2)
    phase = proj_phase * g1 * g2 * np.exp(0.5j * c0) * move_phase
    decomp = KakDecomposition(k1, vec, k2, complex(phase))

    if not np.linalg.norm(decomp.reconstruct() - u) < tol.verify_tol:
        raise ArithmeticError("KAK reconstruction failed verification")
    return decomp


def classify(c: CanonicalVector, tol: ToleranceConfig = DEFAULT_TOL) -> GateClass:
    """Classify a canonical vector after snapping to special angles."""
    s = snap_vector(c, tol.snap_tol)
    if s == (0.0, 0.0, 0.0) or s == (np.pi, 0.0, 0.0):
        return GateClass.LOCAL
    if s == (np.pi / 2, np.pi / 2, np.pi / 2):
        return GateClass.SWAP_CLASS
    return GateClass.ENTANGLING

