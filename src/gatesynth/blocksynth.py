"""Closed-form synthesis of ZZ blocks and Controlled-U gates.

An arbitrary block exp(c (i/2) ZZ) is built from exactly two insertions
of a ZZ resource with c <= 2*gamma and gamma <= pi/2, a template's unit
repeated: plan_blocks solves the blocks and counts their applications
before any matrix is built, and synth_zz_block builds one. Any
Controlled-U gate is built from a single ZZ interaction plus locals.
"""

from dataclasses import dataclass

import numpy as np

from .kak import kak_decompose
from .matcore import ID2, ROUNDOFF, SIGMA_X, Circuit, dagger, exp_pauli, require_unitary
from .zzsynth import ZzTemplate, block_repetitions, fold_angle


@dataclass(frozen=True)
class AxisAngle:
    """Single-qubit rotation exp(i gamma n.sigma), axis a unit 3-vector."""

    gamma: float
    axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every test, so it is rejected too.
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if (np.shape(self.axis) != (3,) or np.iscomplexobj(self.axis)
                or not abs(np.linalg.norm(self.axis) - 1.0) <= ROUNDOFF):
            raise ValueError("axis must be a real 3-vector of unit norm")


def block_params(c: float, gamma: float) -> tuple[float, float, float]:
    """Solve the two-insertion block equations for (c, gamma): (b, p, q), the
    inner rotation angle b in [0, pi] and the U1/U2 entries p, q, with
    p^2 + q^2 = 1 and sin(c/2) = sin(gamma) sin(b/2).

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
    return b, p, q


def plan_blocks(cs, template: ZzTemplate) -> tuple[list[tuple], int]:
    """(blocks, entangler_count) of the blocks exp(c (i/2) ZZ), c in [0, pi],
    for the angles cs in the order given, over the template's unit.

    Each block is the tuple (c, h, pre, post, phase, m, b, p, q) of
    fold_angle(c), m = block_repetitions(h, ...) and block_params(h, m * gamma);
    at h = 0 (c = 0 or pi), one local layer, m = 0 and b, p, q are None. The
    count is 2 * apps_per_unit * sum(m).
    """
    blocks = []
    for c in cs:
        if not 0.0 <= c <= np.pi:
            raise ValueError(f"block angle c = {c} outside [0, pi]")
        h, pre, post, phase = fold_angle(c)
        m = block_repetitions(h, template.gamma, template.n) if h else 0
        params = block_params(h, m * template.gamma) if m else (None, None, None)
        blocks.append((c, h, pre, post, phase, m, *params))
    return blocks, 2 * template.apps_per_unit * sum(block[5] for block in blocks)


def synth_zz_block(block: tuple, template: ZzTemplate) -> tuple[list, list, complex]:
    """Build a plan_blocks block from two runs of the template's unit repeated m times.

    Returns (chains, runs, phase): the halves of the block's local layers
    as chains, one before each run and one after the last, its runs
    ([run, run], or [] at m = 0, where the block is one local layer) and its
    phase factor. The layers are pre[0] (x) u2, a run, I (x) mid, the run
    again and post[0] (x) u1, with the template's first and last layers on
    either side of each run; fold_angle's Pauli layers join the u2 and u1
    layers, so folding adds no layer.
    """
    c, h, pre, post, fold_phase, m, b, p, q = block
    if not m:
        return [[post[0] @ pre[0], post[1] @ pre[1]]], [], fold_phase
    u1 = np.array([[1j * p, 1j * q], [-q, p]], dtype=complex)
    u2 = np.array([[1j * p, -q], [-1j * q, -p]], dtype=complex)
    if h != c:  # join the fold's Pauli layers; their products round nothing
        u1, u2 = post[1] @ u1, u2 @ pre[1]
    # exp_pauli("y", alpha) bit for bit, in one array call.
    alpha = (b + np.pi) / 2
    cos, sin = np.cos(alpha), np.sin(alpha)
    mid = np.array([[cos, sin], [-sin, cos]], dtype=complex)
    run, unit_phase = template.run(m)
    first, last = template.first, template.last
    chains = [[pre[0], u2, *first], [*last, ID2, mid, *first], [*last, post[0], u1]]
    return chains, [run, run], unit_phase ** 2 if h == c else fold_phase * unit_phase ** 2


def _controlled_u1(axis: tuple[float, float, float]) -> np.ndarray:
    """The conjugating gate of the Controlled-U construction, in the axis's polar
    half-angle and azimuth phase: exact near +-z, and for a norm off 1 by roundoff."""
    nx, ny, nz = axis
    r = np.hypot(nx, ny)
    if r == 0.0:
        return SIGMA_X.copy() if nz > 0 else ID2.copy()
    half = np.arctan2(r, nz) / 2
    s, c, e = np.sin(half), np.cos(half), (nx + 1j * ny) / r
    return np.array([[1j * s, c], [-1j * e * c, e * s]], dtype=complex)


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
