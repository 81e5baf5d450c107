"""Closed-form synthesis of ZZ blocks and Controlled-U gates.

An arbitrary block exp(c (i/2) ZZ) is built from exactly two insertions
of a ZZ resource with c <= 2*gamma and gamma <= pi/2; synth_zz_block
gets there by repeating a template's unit. Any Controlled-U gate is
built from a single ZZ interaction plus locals.
"""

from dataclasses import dataclass

import numpy as np

from .kak import kak_decompose
from .matcore import (ID2, ROUNDOFF, SIGMA_X, Circuit, ToleranceConfig, dagger, exp_pauli,
                      require_unitary)
from .zzsynth import ZzTemplate, block_repetitions, fold_angle


@dataclass(frozen=True)
class BlockParams:
    """Solution of the two-insertion block equations for (c, gamma).

    Satisfies p^2 + q^2 = 1, sin(c/2) = sin(gamma) sin(b/2), and
    b in [0, pi].
    """

    c: float
    gamma: float
    b: float
    p: float
    q: float


@dataclass(frozen=True)
class AxisAngle:
    """Single-qubit rotation exp(i gamma n.sigma), axis a unit 3-vector."""

    gamma: float
    axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every test, so it is rejected too.
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if np.shape(self.axis) != (3,) or not abs(np.linalg.norm(self.axis) - 1.0) <= ROUNDOFF:
            raise ValueError("axis must be a 3-vector of unit norm")


def block_params(c: float, gamma: float) -> BlockParams:
    """Solve for the inner rotation angle b and the U1/U2 entries p, q.

    Requires gamma in (0, pi/2] and c in (0, 2*gamma], which is exactly
    the reachable range of the two-insertion block.
    """
    if not 0.0 < gamma <= np.pi / 2 + ROUNDOFF:
        raise ValueError(f"resource gamma = {gamma} outside (0, pi/2]")
    if not 0.0 < c:
        raise ValueError(f"block angle c = {c} is not positive")
    if c > 2 * gamma + ROUNDOFF:
        raise ValueError(f"c = {c} exceeds reachable range 2*gamma = {2 * gamma}")
    # Half-angle form sin(c/2) = sin(gamma) sin(b/2): keeps every digit as
    # c -> 0, unlike arccos of a cos(c) difference. The ratio hits 1 up to
    # roundoff at c = 2*gamma; clamp before arcsin.
    b = 2 * float(np.arcsin(min(np.sin(c / 2) / np.sin(gamma), 1.0)))
    # cot(gamma) * tan(c/2) instead of tan(c/2)/tan(gamma): exact 0 at the
    # gamma = pi/2 endpoint where tan diverges.
    ratio = (np.cos(gamma) / np.sin(gamma)) * np.tan(c / 2)
    p = float(np.sqrt(min(max((1 + ratio) / 2, 0.0), 1.0)))
    q = float(np.sqrt(min(max((1 - ratio) / 2, 0.0), 1.0)))
    return BlockParams(c=float(c), gamma=float(gamma), b=b, p=p, q=q)


def u1_u2(params: BlockParams) -> tuple[np.ndarray, np.ndarray]:
    """The two single-qubit gates flanking the block construction."""
    p, q = params.p, params.q
    u1 = np.array([[1j * p, 1j * q], [-q, p]], dtype=complex)
    u2 = np.array([[1j * p, -q], [-1j * q, -p]], dtype=complex)
    return u1, u2


def block_locals(c: float, h: float, pre: tuple, post: tuple,
                 gamma: float) -> tuple[np.ndarray, ...]:
    """The target-dependent halves of the layers of exp(c (i/2) ZZ), with
    (h, pre, post) from fold_angle(c), over a resource of angle gamma.

    At h = 0 (c = 0 or pi), (a, b) of the block's one local layer;
    otherwise (pre[0], u2, mid, post[0], u1) of its layers pre[0] (x) u2,
    then the resource, I (x) mid, the resource again and post[0] (x) u1.
    fold_angle's Pauli layers join the u2 and u1 layers, so folding adds
    no layer.
    """
    if h == 0.0:
        return post[0] @ pre[0], post[1] @ pre[1]
    params = block_params(h, gamma)
    u1, u2 = u1_u2(params)
    if h != c:  # join the fold's Pauli layers; their products round nothing
        u1, u2 = post[1] @ u1, u2 @ pre[1]
    # exp_pauli("y", alpha) bit for bit, in one array call.
    alpha = (params.b + np.pi) / 2
    cos, sin = np.cos(alpha), np.sin(alpha)
    return pre[0], u2, np.array([[cos, sin], [-sin, cos]], dtype=complex), post[0], u1


def synth_zz_block(c: float, template: ZzTemplate) -> tuple[list, list, complex]:
    """Simulate exp(c (i/2) ZZ), c in [0, pi], with two insertions of the
    template's unit repeated m = block_repetitions(h, ...) times.

    Returns (chains, runs, phase): the halves of the block's local layers
    as chains, one before each run and one after the last, its runs
    ([run, run], or [] at h = 0, c = 0 or pi, where the block is one local
    layer), and its phase factor. The layers are block_locals' with the
    template's first and last layers on either side of each run.
    """
    if not 0.0 <= c <= np.pi:
        raise ValueError(f"block angle c = {c} outside [0, pi]")
    h, pre, post, fold_phase = fold_angle(c)
    if h == 0.0:
        return [list(block_locals(c, h, pre, post, template.gamma))], [], fold_phase
    m = block_repetitions(h, template.gamma, template.n)
    run, unit_phase = template.run(m)
    pre_a, u2, mid, post_a, u1 = block_locals(c, h, pre, post, m * template.gamma)
    first, last = template.first, template.last
    chains = [[pre_a, u2, *first], [*last, ID2, mid, *first], [*last, post_a, u1]]
    return chains, [run, run], unit_phase ** 2 if h == c else fold_phase * unit_phase ** 2


def _controlled_u1(axis: tuple[float, float, float]) -> np.ndarray:
    """The conjugating gate of the Controlled-U construction (three branches)."""
    nx, ny, nz = axis
    if abs(nz - 1.0) <= ToleranceConfig.snap_tol:
        return SIGMA_X.copy()
    if abs(nz + 1.0) <= ToleranceConfig.snap_tol:
        return ID2.copy()
    return np.array([
        [1j * np.sqrt((1 - nz) / 2), np.sqrt((1 + nz) / 2)],
        [(ny - 1j * nx) / np.sqrt(2 * (1 - nz)), (nx + 1j * ny) / np.sqrt(2 * (1 + nz))],
    ], dtype=complex)


def controlled_u_circuit(spec: AxisAngle) -> Circuit:
    """Simulate diag(I, exp(i gamma n.sigma)) with one ZZ interaction.

    Two local layers with one bare application between them; evaluate the
    returned circuit against zz_interaction(spec.gamma).
    """
    u1 = _controlled_u1(spec.axis)
    layers = np.array([(ID2, exp_pauli("z", -spec.gamma / 2) @ dagger(u1)), (ID2, u1)])
    return Circuit(layers, [0, 1, 0])


def controlled_u_gamma(u: np.ndarray) -> float:
    """Interval coordinate in [0, pi/2] of the Controlled-u local class."""
    if np.shape(u) != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {np.shape(u)}")
    require_unitary(u, "input")
    cu = np.eye(4, dtype=complex)
    cu[2:, 2:] = u
    # Controlled gates sit on the c3 = 0 base, where canonicalization
    # already folds c1 into [0, pi/2].
    return float(kak_decompose(cu).c.c1)
