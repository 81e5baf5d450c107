"""Cartan decomposition of two-qubit gates and Weyl-chamber classification.

Every 4x4 unitary factors as

    phase * (k1[0] (x) k1[1]) * exp((i/2)(c1 XX + c2 YY + c3 ZZ)) * (k2[0] (x) k2[1])

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
from typing import NamedTuple

import numpy as np

from .matcore import (DEFAULT_TOL, ID2, PAULIS, ROUNDOFF, SIGMA_X, SIGMA_Y,
                      SIGMA_Z, ToleranceConfig, dagger, project_special_rows, tensor)

MAGIC = np.array([[1, 0, 0, 1j],
                  [0, 1j, 1, 0],
                  [0, 1j, -1, 0],
                  [1, 0, 0, -1j]], dtype=complex) / np.sqrt(2)
MAGIC_DAG = dagger(MAGIC)

# Rows: the diagonals dXX, dYY, dZZ of XX, YY, ZZ in the magic basis; with the
# all-ones vector they form an orthogonal basis of R^4, so any diagonal phase
# vector resolves exactly into identity + interaction components.
_DIAG_XYZ = np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, 1.0], [1.0, -1.0, -1.0, 1.0]])

_SNAP_POINTS = (0.0, np.pi / 4, np.pi / 2, np.pi)

# Real combinations for breaking eigenvalue degeneracies, in a fixed order
# that every call tries, so results do not depend on call ordering: the rows
# of np.random.default_rng(_DIAG_SEED).normal(size=(32, 2)). Every call
# takes the first, written out so that importing gatesynth does not load
# numpy.random; the rest are drawn on the first redraw.
_DIAG_SEED = 7
_FIRST_DRAW = (0.0012301533574825742, 0.2987455375084699)


@functools.cache
def _later_draws() -> np.ndarray:
    from numpy.random import default_rng
    return default_rng(_DIAG_SEED).normal(size=(32, 2))[1:]


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


class CanonicalVector(NamedTuple):
    """Weyl-chamber coordinates (radians) of a two-qubit gate class."""

    c1: float
    c2: float
    c3: float


@dataclass(eq=False)
class KakDecomposition:
    k1: np.ndarray  # (a, b), stacked (2, 2, 2)
    c: CanonicalVector
    k2: np.ndarray
    phase: complex
    unitarity_error: float  # of the decomposed matrix: max |U U^dag - I|


def snap_angle(x: float) -> float:
    """Snap an angle to {0, pi/4, pi/2, pi} when within snap_tol of one."""
    for point in _SNAP_POINTS:
        if abs(x - point) <= ToleranceConfig.snap_tol:
            return point
    return float(x)


def snap_vector(c: CanonicalVector) -> tuple[float, float, float]:
    return tuple(snap_angle(x) for x in c)


# Distinct move sequences a sweep of raw triples in [-30, 30]^3 and around
# chamber landmarks produced: about 4,700. The bound caps memory regardless.
_MOVE_MEMO_SIZE = 8192


@functools.lru_cache(maxsize=_MOVE_MEMO_SIZE)
def _move_locals(moves: tuple) -> tuple[np.ndarray, complex]:
    """((pre, post), phase) of a move sequence: pre and post (a, b) stacks,
    as one read-only (2, 2, 2, 2) array.

    Maintains A(raw) = phase * (pre[0] (x) pre[1]) @ A(c) @ (post[0] (x) post[1])
    exactly through every move. The chamber reduction is an action of the
    finite Weyl group, so only finitely many sequences occur.
    """
    pre, post = np.array((ID2, ID2)), np.array((ID2, ID2))
    phase = 1.0 + 0j
    for kind, i, j in moves:
        if kind == "swap":
            h = _AXIS_SWAP[(i, j)]
            pre, post = pre @ h, h @ post
        elif kind == "negate":
            s = _PAIR_NEGATE[(i, j)]
            pre[0], post[0] = pre[0] @ s, s @ post[0]
        else:
            # A(c) = A(c + m*pi e_k) * (-i)^m (sigma_k (x) sigma_k)^m, j = m % 4
            phase *= _SHIFT_PHASE[j]
            if j % 2:
                post = PAULIS["xyz"[i]] @ post
    locals_ = np.array((pre, post))
    locals_.flags.writeable = False
    return locals_, phase


def _sort_descending(c: list, moves: list) -> None:
    # Exact comparisons: equal values never swap, and a near-tie must not
    # hide the true smallest coordinate from the base test below.
    for i, j in ((0, 1), (1, 2), (0, 1)):
        if c[i] < c[j]:
            moves.append(("swap", i, j))
            c[i], c[j] = c[j], c[i]


def canonicalize(raw: tuple[float, float, float]) -> tuple[
        CanonicalVector, np.ndarray, np.ndarray, complex]:
    """Reduce an interaction triple to its Weyl-chamber representative.

    Returns (c, pre, post, phase) with

        A(raw) = phase * (pre[0] (x) pre[1]) @ A(c) @ (post[0] (x) post[1])

    exactly. Chamber points are unique except on the c3 = 0 base, where
    (c1, c2, 0) ~ (pi - c1, c2, 0); there the representative with
    c1 <= pi/2 is kept. Near-ties within ROUNDOFF of a chamber face or of
    the fold keep the identity move, so a canonical triple maps to
    itself with identity locals and unit phase. pre and post are (2, 2, 2)
    stacks of halves, read-only: calls with the same moves share them.

    Each move is recorded as ("swap", i, j), ("negate", i, j) or ("shift", k, m % 4),
    and _move_locals builds the local corrections once per distinct sequence.
    A result outside the chamber by more than snap_tol raises ArithmeticError.
    """
    c = [float(x) for x in raw]
    moves = []
    # (1) Each coordinate into [-ROUNDOFF, pi - ROUNDOFF) by whole pi shifts.
    for k in range(3):
        m = -math.floor((c[k] + ROUNDOFF) / np.pi)
        # x + m*pi can round across an edge; land inside so that a second
        # pass over the result shifts nothing.
        if c[k] + m * np.pi < -ROUNDOFF:
            m += 1
        elif c[k] + m * np.pi >= np.pi - ROUNDOFF:
            m -= 1
        if m:
            moves.append(("shift", k, m % 4))
            c[k] = c[k] + m * np.pi
    # (2) c1 >= c2 >= c3.
    _sort_descending(c, moves)
    # (3) Reflect through the face c1 + c2 = pi: (pi - c2, pi - c1, c3).
    if c[0] + c[1] > np.pi + ROUNDOFF:
        moves += ("negate", 0, 1), ("shift", 0, 1), ("shift", 1, 1), ("swap", 0, 1)
        c[0], c[1] = np.pi - c[1], np.pi - c[0]
        _sort_descending(c, moves)
    # (4) Base identification on c3 = 0: (pi - c1, c2, -c3).
    if abs(c[2]) <= ROUNDOFF and c[0] > np.pi / 2 + ROUNDOFF:
        moves += ("negate", 0, 2), ("shift", 0, 1)
        c[0], c[2] = np.pi - c[0], -c[2]
        _sort_descending(c, moves)

    slack = ToleranceConfig.snap_tol
    if not (np.pi - c[1] + slack >= c[0] >= c[1] - slack and c[1] + slack >= c[2] >= -slack):
        raise ArithmeticError(f"({c[0]}, {c[1]}, {c[2]}) is outside the chamber")
    vec = CanonicalVector(*(x + 0.0 for x in c))  # -0.0 -> +0.0
    (pre, post), phase = _move_locals(tuple(moves))
    return vec, pre, post, phase


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
    wr, wi = _FIRST_DRAW
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
    for wr, wi in _later_draws():
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


# The double cover SU(2) x SU(2) -> SO(4) in the magic basis (quant-ph/0209120):
# with the units u_k of (I, iX, iY, iZ), row k of _UNITS, MAGIC^dag (a (x) b) MAGIC
# is the real o with vec(o) @ _QUAT = vec(p q^T), where a = sum_k p_k u_k and
# b = sum_l q_l u_l. Each MAGIC^dag (u_k (x) u_l) MAGIC is a signed permutation,
# so the entries are exactly 0 and +-1/4, and _QUAT^T _QUAT = I / 4.
_UNITS = np.array([ID2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z]).reshape(4, 4)
_QUAT = (MAGIC_DAG @ tensor(_UNITS.reshape(4, 1, 2, 2), _UNITS.reshape(4, 2, 2))
         @ MAGIC).real.round().reshape(16, 16).T / 4


def _factor_locals(os: np.ndarray, atol: float) -> tuple[list[float], np.ndarray]:
    """Split each real o of a stack as MAGIC o MAGIC^dag = g * (a (x) b), with
    g > 0 and det(a) = det(b) = 1.

    Returns the gs and f with f[i] = (a, b) of os[i]; every residual must be
    below atol in Frobenius norm. p is the first largest column of the read
    vec(o) @ _QUAT, normalized, and g q = p^T times the read. _QUAT / 2 is
    orthogonal, so the residual is twice the distance of the read from the
    rank-one p (g q)^T.
    """
    n = len(os)
    rows = np.arange(n)
    pq = (os.reshape(n, 1, 16) @ _QUAT).reshape(n, 4, 4)
    norms = (pq * pq).sum(axis=1)
    col = norms.argmax(axis=1)
    norm = np.sqrt(norms[rows, col])
    norm[norm == 0] = np.nan  # the zero matrix: not a product, the residual check refuses it
    p = pq[rows, :, col] / norm[:, None]
    gq = p[:, None] @ pq
    residual = pq - p[:, :, None] * gq
    if not 4 * (residual * residual).sum(axis=(1, 2)).max() < atol * atol:
        raise ArithmeticError("matrix is not a tensor product of single-qubit gates")
    g = np.sqrt((gq * gq).sum(axis=2))
    f = np.concatenate((p[:, None], gq / g[:, :, None]), axis=1) @ _UNITS
    return g.ravel().tolist(), f.reshape(n, 2, 2, 2)


def kak_decompose(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL,
                  names=None) -> KakDecomposition | list[KakDecomposition]:
    """Decompose a 4x4 unitary, or each of an (N, 4, 4) stack, into local
    layers, each an (a, b) stack, and a canonical interaction.

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
    su, proj_phases, errors = project_special_rows(us, names.__getitem__ if names else "input")

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

    q1 = v @ p * np.exp(-0.5j * phases)[:, None, :]  # v p Delta^dag
    if not _squared_norms(q1.imag).max() < tol.verify_tol ** 2:
        raise ArithmeticError("local factor failed to come out real in the magic basis")

    # Rows 0..n-1 are the q1 factors, rows n..2n-1 the q2 = p^T factors.
    gs, f = _factor_locals(np.concatenate((q1.real, p.transpose(0, 2, 1))), tol.verify_tol)

    decomps = []
    for i, (proj_phase, error) in enumerate(zip(proj_phases.tolist(), errors.tolist())):
        # Resolve the phase vector against the orthogonal basis {1, dXX, dYY, dZZ}, one
        # dot product per axis (a matmul's rounding depends on its kernel and BLAS):
        # identity component becomes global phase, the rest the raw triple.
        row = phases[i]
        c0 = float(row.sum()) / 4
        vec, pre, post, move_phase = canonicalize(tuple(float(row.dot(d)) / 4 for d in _DIAG_XYZ))
        phase = proj_phase * gs[i] * gs[n + i] * np.exp(0.5j * c0) * move_phase
        decomps.append(KakDecomposition(f[i] @ pre, vec, post @ f[n + i], complex(phase), error))

    if not _reconstruction_error(decomps, us).max() < tol.verify_tol ** 2:
        raise ArithmeticError("KAK reconstruction failed verification")
    return decomps[0] if u.ndim == 2 else decomps


def _reconstruction_error(decomps: list[KakDecomposition], us: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance of each decomposition's product from its matrix.

    The interaction is diagonal in the magic basis, with phases
    (c1 dXX + c2 dYY + c3 dZZ) / 2, so the stack takes one exp.
    """
    c = np.array([d.c for d in decomps])
    phase = np.array([d.phase for d in decomps])
    inter = (MAGIC * (phase[:, None] * np.exp(0.5j * (c @ _DIAG_XYZ)))[:, None, :]) @ MAGIC_DAG
    factors = np.array([(d.k1, d.k2) for d in decomps])
    k = tensor(factors[:, :, 0], factors[:, :, 1])  # k[i] = (k1, k2) of row i
    return _squared_norms(k[:, 0] @ inter @ k[:, 1] - us)


def classify(c: CanonicalVector) -> GateClass:
    """Classify a canonical vector after snapping to special angles."""
    s = snap_vector(c)
    if s == (0.0, 0.0, 0.0) or s == (np.pi, 0.0, 0.0):
        return GateClass.LOCAL
    if s == (np.pi / 2, np.pi / 2, np.pi / 2):
        return GateClass.SWAP_CLASS
    return GateClass.ENTANGLING

