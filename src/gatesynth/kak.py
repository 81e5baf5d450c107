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
(axis swap, sign flip of a pair, pi shift), tracked into the local factors;
those factors are built once per distinct move sequence and memoized.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .matcore import (DEFAULT_TOL, ID2, PAULIS, ROUNDOFF, SIGMA_X, SIGMA_Y,
                      SIGMA_Z, LocalPair, ToleranceConfig, interaction,
                      project_special_rows, tensor)

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
_DIAG_XYZ = np.array([_DIAG_XX, _DIAG_YY, _DIAG_ZZ])

_SNAP_POINTS = (0.0, np.pi / 4, np.pi / 2, np.pi)

# Real combinations for breaking eigenvalue degeneracies, drawn once from a
# fixed seed: every call tries them in the same order, so results do not
# depend on call ordering.
_DIAG_SEED = 7
_DIAG_DRAWS = np.random.default_rng(_DIAG_SEED).normal(size=(32, 2))
# Entry weights of _squared_norms: every entry, or the off-diagonal ones.
_ALL_ENTRIES = np.ones(16)
_OFF_DIAGONAL = 1.0 - np.eye(4).ravel()
_MATRIX_ROWS = np.arange(4)[:, None]  # row index of a gather over a stack of 4x4s

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
    unitarity_error: float  # of the decomposed matrix: max |U U^dag - I|

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
    """Reduces an interaction triple, recording each exact local move.

    The moves are ("swap", i, j), ("negate", i, j) and ("shift", k, m % 4);
    the local corrections depend on that sequence alone, and _move_locals
    builds them once per distinct sequence.
    """

    def __init__(self, raw: tuple[float, float, float]):
        self.c = list(raw)
        self.moves: list[tuple] = []

    def swap(self, i: int, j: int) -> None:
        self.moves.append(("swap", i, j))
        self.c[i], self.c[j] = self.c[j], self.c[i]

    def negate_pair(self, i: int, j: int) -> None:
        self.moves.append(("negate", i, j))
        self.c[i] = -self.c[i]
        self.c[j] = -self.c[j]

    def shift(self, k: int, m: int) -> None:
        if m == 0:
            return
        self.moves.append(("shift", k, m % 4))
        self.c[k] = self.c[k] + m * np.pi


# Distinct move sequences a sweep of raw triples in [-30, 30]^3 and around
# chamber landmarks produced: about 4,700. The bound caps memory regardless.
_MOVE_MEMO_SIZE = 8192


@functools.lru_cache(maxsize=_MOVE_MEMO_SIZE)
def _move_locals(moves: tuple) -> tuple[tuple[np.ndarray, ...], complex]:
    """((pre_a, pre_b, post_a, post_b), phase) of a move sequence, read-only.

    Maintains A(raw) = phase * (pre.a (x) pre.b) @ A(c) @ (post.a (x) post.b)
    exactly through every move. The chamber reduction is an action of the
    finite Weyl group, so only finitely many sequences occur.
    """
    pre_a, pre_b, post_a, post_b = ID2.copy(), ID2.copy(), ID2.copy(), ID2.copy()
    phase = 1.0 + 0j
    for kind, i, j in moves:
        if kind == "swap":
            h = _AXIS_SWAP[(i, j)]
            pre_a, pre_b = pre_a @ h, pre_b @ h
            post_a, post_b = h @ post_a, h @ post_b
        elif kind == "negate":
            s = _PAIR_NEGATE[(i, j)]
            pre_a, post_a = pre_a @ s, s @ post_a
        else:
            # A(c) = A(c + m*pi e_k) * (-i)^m (sigma_k (x) sigma_k)^m, j = m % 4
            phase *= _SHIFT_PHASE[j]
            if j % 2:
                s = PAULIS["xyz"[i]]
                post_a, post_b = s @ post_a, s @ post_b
    locals_ = (pre_a, pre_b, post_a, post_b)
    for m in locals_:
        m.flags.writeable = False
    return locals_, phase


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
    itself with identity locals and unit phase. The local matrices are
    read-only: calls with the same moves share them.
    """
    t = _MoveTracker(tuple(float(x) for x in raw))
    # (1) Each coordinate into [-ROUNDOFF, pi - ROUNDOFF) by whole pi shifts.
    for k in range(3):
        m = -math.floor((t.c[k] + ROUNDOFF) / np.pi)
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
    (pre_a, pre_b, post_a, post_b), phase = _move_locals(tuple(t.moves))
    return vec, LocalPair(pre_a, pre_b), LocalPair(post_a, post_b), phase


def _simultaneous_diagonalize(m2: np.ndarray, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize each complex-symmetric unitary M2 of a stack as P D P^T, P real orthogonal.

    Real and imaginary parts of M2 commute, so a random real combination
    (fixed seed, redrawn until the off-diagonal part of P^T M2 P is below
    atol in Frobenius norm) is diagonalized instead; this breaks eigenvalue
    degeneracies deterministically. The whole stack takes the first draw
    in one eigh; only the matrices that fail it are redrawn, each through
    the same draws in the same order as alone.
    """
    # Symmetrize against roundoff so eigh sees exactly symmetric input; a
    # complex sum adds the real and imaginary parts exactly as apart.
    sym = m2 + m2.transpose(0, 2, 1)
    re, im = sym.real / 2, sym.imag / 2
    wr, wi = _DIAG_DRAWS[0]
    _, p = np.linalg.eigh(wr * re + wi * im)
    d = p.transpose(0, 2, 1) @ m2 @ p
    ok = _squared_norms(d, _OFF_DIAGONAL) < atol * atol
    if not ok.all():
        _redraw(m2, re, im, p, d, np.flatnonzero(~ok), atol)
    diagonal = d.diagonal(0, 1, 2)
    theta = np.arctan2(diagonal.imag, diagonal.real)  # np.angle
    order = theta.argsort(axis=1)
    stack = np.arange(len(m2))[:, None]
    return p[stack[:, :, None], _MATRIX_ROWS, order[:, None, :]], theta[stack, order]


def _redraw(m2, re, im, p, d, todo: np.ndarray, atol: float) -> None:
    """Diagonalize the rows todo of the stack again through the later draws, in
    order, writing each row's first success into p and d."""
    for wr, wi in _DIAG_DRAWS[1:]:
        _, pk = np.linalg.eigh(wr * re[todo] + wi * im[todo])
        dk = pk.transpose(0, 2, 1) @ m2[todo] @ pk
        ok = _squared_norms(dk, _OFF_DIAGONAL) < atol * atol
        p[todo[ok]], d[todo[ok]] = pk[ok], dk[ok]
        todo = todo[~ok]
        if not todo.size:
            return
    raise ArithmeticError("failed to diagonalize the magic-basis symmetric product")


def _squared_norms(ms: np.ndarray, weights: np.ndarray = _ALL_ENTRIES) -> np.ndarray:
    """Squared Frobenius norm of each 4x4 matrix of a stack, over the entries
    weights selects; the checks compare it with the square of their tolerance."""
    return (abs(ms) ** 2).reshape(len(ms), 16) @ weights


# Flat indices of both factors read off a 4x4 tensor product through each
# pivot (r, c), at row 4r + c: f1[i, j] = m[2i + r%2, 2j + c%2] and
# f2[i, j] = m[r - r%2 + i, c - c%2 + j].
_FLAT = np.arange(16).reshape(4, 4)
_PIVOT_GATHER = np.array([(_FLAT[r & 1::2, c & 1::2], _FLAT[r & 2:(r & 2) + 2, c & 2:(c & 2) + 2])
                          for r in range(4) for c in range(4)])


def _factor_locals(ms: np.ndarray, atol: float) -> tuple[list[complex], np.ndarray]:
    """Split each m of a stack as g * (a (x) b) with det(a) = det(b) = 1.

    Returns the gs and f with f[i] = (a, b) of ms[i]; every residual must be
    below atol in Frobenius norm. Each matrix's factors come from the
    rows/columns through its largest-magnitude entry, which is safe because
    a true tensor product has rank-1 block structure everywhere.
    """
    mags = [abs(z) for z in ms.ravel().tolist()]
    # First maximum in row-major order.
    pivots = [row.index(max(row)) for row in (mags[k:k + 16] for k in range(0, len(mags), 16))]
    f = ms.reshape(-1, 16)[np.arange(len(ms))[:, None, None, None], _PIVOT_GATHER[pivots]]
    det = np.linalg.det(f)
    det[det == 0] = 1  # a singular factor: not a product, the residual check refuses it
    f /= np.sqrt(det)[..., None, None]
    gs = []
    for m, (f1, f2), (r, c) in zip(ms, f, (divmod(p, 4) for p in pivots)):
        g = m[r, c] / (f1[r >> 1, c >> 1] * f2[r & 1, c & 1])
        if g.real < 0:
            np.negative(f1, out=f1)
            g = -g
        gs.append(g)
    residual = ms - np.array(gs)[:, None, None] * tensor(f[:, 0], f[:, 1])
    if not _squared_norms(residual).max() < atol * atol:
        raise ArithmeticError("matrix is not a tensor product of single-qubit gates")
    return [complex(g) for g in gs], f


def kak_decompose(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL,
                  names=None) -> KakDecomposition | list[KakDecomposition]:
    """Decompose a 4x4 unitary, or each of an (N, 4, 4) stack, into local
    pairs and a canonical interaction.

    A 4x4 gives one KakDecomposition, a stack a list whose row i is
    bit-identical to the decomposition of u[i] alone: every stage runs once
    on the whole stack. Raises ValueError for input that is not a 4x4
    unitary or a stack of them, naming the first bad matrix by names[i]
    (default "input", or "input row i" in a stack), and ArithmeticError if
    an internal step or the reconstruction misses verify_tol in Frobenius
    norm (an internal failure, never a property of valid input).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (4, 4) or u.ndim not in (2, 3) or not u.size:
        raise ValueError("expected a 4x4 matrix or an (N, 4, 4) stack with N >= 1")
    us = u[None] if u.ndim == 2 else u
    n = len(us)
    if names is None and u.ndim == 2:
        names = ("input",)
    su, proj_phases, errors = project_special_rows(us, tol, names.__getitem__ if names else "input")

    v = MAGIC_DAG @ su @ MAGIC
    p, phases = _simultaneous_diagonalize(v.transpose(0, 2, 1) @ v, tol.verify_tol)

    # Eigenphases of M2 are twice the interaction phases. det(M2) = 1, so
    # the principal angles sum to a multiple of 2*pi; shift one phase by a
    # full turn when needed so that det(Delta) = +1 below.
    for i, total in enumerate(phases.sum(axis=1).tolist()):
        turns = round(total / (2 * np.pi))
        if turns % 2:
            phases[i, 0] -= 2 * np.pi * np.sign(turns)
    flip = np.linalg.det(p) < 0
    if flip.any():
        p[flip, :, 0] = -p[flip, :, 0]

    # Delta^dag, built as an exact diagonal so that q1 is the same matmul
    # as for one matrix.
    delta_dag = np.zeros((n, 16), dtype=complex)
    delta_dag[:, ::5] = np.exp(0.5j * phases).conj()
    q1 = v @ p @ delta_dag.reshape(n, 4, 4)
    if not _squared_norms(q1.imag).max() < tol.verify_tol ** 2:
        raise ArithmeticError("local factor failed to come out real in the magic basis")

    # Rows 0..n-1 are the q1 factors, rows n..2n-1 the q2 = p^T factors.
    gs, f = _factor_locals(MAGIC @ np.concatenate((q1.real, p.transpose(0, 2, 1))) @ MAGIC_DAG,
                           tol.verify_tol)

    decomps = []
    for i, (proj_phase, error) in enumerate(zip(proj_phases.tolist(), errors.tolist())):
        # Resolve the phase vector against the orthogonal basis {1, dXX, dYY, dZZ}:
        # identity component becomes global phase, the rest the raw triple.
        row = phases[i]
        c0 = float(row.sum()) / 4
        raw = (
            float(row @ _DIAG_XX) / 4,
            float(row @ _DIAG_YY) / 4,
            float(row @ _DIAG_ZZ) / 4,
        )
        vec, pre, post, move_phase = canonicalize(raw)
        (a1, b1), (a2, b2) = f[i], f[n + i]
        k1 = LocalPair(a1 @ pre.a, b1 @ pre.b)
        k2 = LocalPair(post.a @ a2, post.b @ b2)
        phase = proj_phase * gs[i] * gs[n + i] * np.exp(0.5j * c0) * move_phase
        decomps.append(KakDecomposition(k1, vec, k2, complex(phase), error))

    if not _reconstruction_error(decomps, us).max() < tol.verify_tol ** 2:
        raise ArithmeticError("KAK reconstruction failed verification")
    return decomps[0] if u.ndim == 2 else decomps


def _reconstruction_error(decomps: list[KakDecomposition], us: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance of each decomposition's product from its matrix.

    The interaction is diagonal in the magic basis, with phases
    (c1 dXX + c2 dYY + c3 dZZ) / 2, so the stack takes one exp.
    """
    c = np.array([d.c.as_tuple() for d in decomps])
    phase = np.array([d.phase for d in decomps])
    inter = (MAGIC * (phase[:, None] * np.exp(0.5j * (c @ _DIAG_XYZ)))[:, None, :]) @ MAGIC_DAG
    factors = np.array([(d.k1.a, d.k1.b, d.k2.a, d.k2.b) for d in decomps])
    k = tensor(factors[:, 0::2], factors[:, 1::2])  # k[i] = (k1, k2) of row i
    return _squared_norms(k[:, 0] @ inter @ k[:, 1] - us)


def classify(c: CanonicalVector, tol: ToleranceConfig = DEFAULT_TOL) -> GateClass:
    """Classify a canonical vector after snapping to special angles."""
    s = snap_vector(c, tol.snap_tol)
    if s == (0.0, 0.0, 0.0) or s == (np.pi, 0.0, 0.0):
        return GateClass.LOCAL
    if s == (np.pi / 2, np.pi / 2, np.pi / 2):
        return GateClass.SWAP_CLASS
    return GateClass.ENTANGLING

