"""Extraction of a ZZ-interaction gate from an arbitrary entangler.

Any entangling gate can simulate exp(gamma (i/2) ZZ) for some
gamma in (0, pi/2] using at most two applications of itself. The case
split runs on the entangler's canonical vector (g1, g2, g3):

  case 1: g2 = g3 = 0            -- one application, axis moved x -> z
  case 2: g1 = g2 = pi/2, g3 = 0 -- the special two-application circuit
  case 3: g3 = 0, 0 < g2 < pi/2  -- two applications, doubling g1 (g2 at g1 = pi/2)
  case 4: g3 > 0                 -- two applications, doubling g3

followed by one exact Pauli fold (fold_angle) so gamma lands in
(0, pi/2]. Repeating the folded unit n = repetitions(gamma) times lifts
the angle into [pi/4, pi/2] and sets the paper's uniform bound; a block
of folded angle h needs only block_repetitions(h, ...) <= n units.
amplify returns that repetition as a ZzTemplate, the unit fused once
with the products any m <= n repetitions need; the n-fold circuit is
never built.

The unit is built as chains of local layers, one chain before each
application and one after the last, as the closed forms give them; every
fusion goes through matcore.merge_locals.

Doubling works on every axis, A s_k A s_k = exp(i g_k s_k s_k), so
choose_unit keeps the paper's unit unless doubling another coordinate
gives a smaller uniform bound. It shares extract_zz's one KAK and
builds only the unit it returns. prepare_resource takes the entangler's
KAK from a caller that has it (synthesize decomposes it with the target).
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .kak import GateClass, KakDecomposition, classify, kak_decompose, snap_vector
from .matcore import (ID2, PAULIS, ROUNDOFF, SIGMA_X, SIGMA_Z, _product, dagger, exp_pauli,
                      merge_locals, tensor)

# Fixed rotations, built once: _QUARTER[axis, s] = exp(i s (pi/4) sigma_axis).
_QUARTER = {(axis, s): exp_pauli(axis, s * np.pi / 4) for axis in "xyz" for s in (1, -1)}
# fold_angle's Pauli layers, as (a, b) halves.
_NO_FOLD = (ID2, ID2)
_X1 = (SIGMA_X, ID2)
_ZZ = (SIGMA_Z, SIGMA_Z)
_ZZ_X1 = (SIGMA_Z @ SIGMA_X, SIGMA_Z)

KX_FACTOR = _QUARTER["y", 1]  # k_x = this on both qubits moves ZZ <-> XX
KY_FACTOR = _QUARTER["x", 1]  # k_y = this on both qubits moves ZZ <-> YY
# The interleavers synthesize places between its c3, c2 and c1 blocks.
KX_KY_DAG = KX_FACTOR @ dagger(KY_FACTOR)
KX_DAG = dagger(KX_FACTOR)
# Read-only, as matcore's constants: units, templates and fold_angle share these arrays.
for _m in (*_QUARTER.values(), KX_KY_DAG, KX_DAG, _ZZ_X1[0]):
    _m.flags.writeable = False


@dataclass(eq=False)
class ZzResource:
    """A unit over one fixed entangler realizing exp(gamma (i/2) ZZ), up to phase.

    chains[k] lists the halves a, b of the local layers applied before
    application k, and chains[-1] those after the last; apps_per_unit, the
    entangler count of the unit (1 or 2), is len(chains) - 1.
    """

    chains: list
    phase: complex
    gamma: float
    apps_per_unit: int


def _dag(layer) -> tuple[np.ndarray, np.ndarray]:
    a, b = layer
    return dagger(a), dagger(b)


def _paper_axis(g: tuple[float, float, float]) -> int:
    """Cases 3 and 4 double g_k: z if g3 > 0, else x, or y at g1 = pi/2
    where 2 g1 = pi is local."""
    return 2 if g[2] > 0.0 else 1 if g[0] == np.pi / 2 else 0


def _folded_unit(dec: KakDecomposition, axis) -> ZzResource:
    """The folded unit of case 1 or 2, or in cases 3 and 4 the doubling of
    g_k, k = axis(g), on the snapped canonical vector g of the entangler's
    KAK: one unit."""
    kind = classify(dec.c)
    if kind is not GateClass.ENTANGLING:
        raise ValueError(f"resource gate is {kind.value}, not entangling")

    # The entangler's pure interaction factor A = k_l^dag U_g k_r^dag is the
    # application between the inverses of its KAK locals. 1 / phase, not
    # its conjugate: it also cancels a scale by which the entangler misses
    # unit modulus (a matrix rounded to a few decimals).
    k2_dag, k1_dag, phase = _dag(dec.k2), _dag(dec.k1), 1 / dec.phase
    g1, g2, g3 = g = snap_vector(dec.c)

    if g3 == 0.0 and g2 == 0.0:
        # case 1: A is a pure XX rotation; k_x conjugation moves it to ZZ
        chains = [[KX_DAG, KX_DAG, *k2_dag], [*k1_dag, KX_FACTOR, KX_FACTOR]]
        gamma, apps = g1, 1
    elif g3 == 0.0 and g1 == np.pi / 2 and g2 == np.pi / 2:
        # case 2: two applications interleaved with fixed locals
        chains = [[_QUARTER["y", 1], ID2, _QUARTER["z", -1], _QUARTER["z", 1], *k2_dag],
                  [*k1_dag, _QUARTER["z", 1], _QUARTER["z", -1], ID2, _QUARTER["y", 1], *k2_dag],
                  [*k1_dag, _QUARTER["y", -1], ID2]]
        gamma, apps, phase = np.pi / 2, 2, phase ** 2
    else:
        # cases 3 and 4: A s_k^1 A s_k^1 = exp(i g_k s_k s_k); k_x or k_y
        # conjugation moves a doubled XX or YY angle onto ZZ
        k = axis(g)
        s_k = PAULIS["xyz"[k]]
        chains = [[s_k, ID2, *k2_dag], [*k1_dag, s_k, ID2, *k2_dag], [*k1_dag]]
        if k < 2:
            k_factor = (KX_FACTOR, KY_FACTOR)[k]
            chains[0][:0] = (dagger(k_factor), dagger(k_factor))
            chains[-1] += (k_factor, k_factor)
        gamma, apps, phase = 2 * g[k], 2, phase ** 2

    # Fold gamma from [0, 2pi) into (0, pi/2] with Pauli layers; gamma = 0
    # or pi is local. gamma passes pi only when a doubling takes c1 > pi/2:
    # case 3 where c3 snapped to 0, e.g. (2.6, 0.13, 5e-11), or
    # choose_unit's doubling on x.
    h, pre, post, fold_phase = fold_angle(gamma)
    if h == 0.0:
        raise ValueError(f"gamma = {gamma} has no entangling reduction")
    if h != gamma:
        if pre is not _NO_FOLD:
            chains[0][:0] = _dag(pre)
        chains[-1] += _dag(post)
        phase = np.conj(fold_phase) * phase
    return ZzResource(chains, phase, h, apps)


def extract_zz(entangler: np.ndarray) -> ZzResource:
    """Build exp(gamma (i/2) ZZ), gamma in (0, pi/2], from <= 2 applications
    by the paper's four cases.

    Raises ValueError when the gate is local or in the SWAP class, which
    cannot serve as the entangling resource.
    """
    return _folded_unit(kak_decompose(entangler), _paper_axis)


def fold_angle(g: float) -> tuple[float, tuple, tuple, complex]:
    """Return (h, pre, post, phase): exp(g (i/2) ZZ) = phase * post exp(h (i/2) ZZ) pre.

    Two Weyl-group moves (quant-ph/0209120) fold g in [0, 2pi) to h in
    [0, pi/2]: exp((h + pi)(i/2) ZZ) = i ZZ exp(h (i/2) ZZ), and X on qubit
    1 negates the angle. pre and post are Pauli layers, (a, b) tuples of
    read-only constants, so wrapping with them rounds nothing; they are
    identities when h is g. h = 0: g = 0 or pi.
    """
    if not 0.0 <= g < 2 * np.pi:
        raise ValueError(f"ZZ angle {g} outside [0, 2pi)")
    if g <= np.pi / 2:
        return g, _NO_FOLD, _NO_FOLD, 1.0
    if g <= np.pi:  # negate, then shift by pi
        return np.pi - g, _X1, _ZZ_X1, 1j
    if g <= 3 * np.pi / 2:  # shift by pi
        return g - np.pi, _NO_FOLD, _ZZ, 1j
    return 2 * np.pi - g, _X1, _X1, -1.0  # negate, then shift by 2 pi


# Larger uniform bounds are refused before amplifying: an emitted circuit
# holds an element per application and grows without limit near local gates.
MAX_APPLICATIONS = 100_000


def repetitions(gamma: float) -> int:
    """Minimal n with n*gamma in [pi/4, pi/2]; steps of gamma <= pi/2 cannot skip it."""
    if not 0.0 < gamma <= np.pi / 2:
        raise ValueError(f"gamma = {gamma} outside (0, pi/2]")
    return max(1, math.ceil(np.pi / 4 / gamma))


def block_repetitions(h: float, gamma: float, n: int) -> int:
    """Unit repetitions a block of folded angle h needs: the fewest m with
    h <= 2 m gamma, with block_params's ROUNDOFF slack; 1 at h = 0.

    Never above n = repetitions(gamma), since h <= pi/2 <= 2 n gamma: the
    uniform bound is the worst case over h.
    """
    m = max(1, math.ceil(h / (2 * gamma)))
    if m > 1 and h <= 2 * ((m - 1) * gamma) + ROUNDOFF:
        m -= 1
    return min(m, n)


def uniform_bound(n: int, apps_per_unit: int) -> int:
    """Applications for any target: 3 blocks x 2 insertions x n repetitions."""
    return 6 * n * apps_per_unit


def _best_axis(g: tuple[float, float, float]) -> int:
    """The doubling of smallest uniform bound, then of larger folded angle,
    whose blocks never need more repetitions. The paper's axis comes first,
    so a tie keeps it; an axis whose folded angle is 0 is local."""
    paper, h = _paper_axis(g), [fold_angle(2 * x)[0] for x in g]
    axes = [k for k in sorted(range(3), key=lambda k: k != paper) if h[k] > 0.0]
    return min(axes, key=lambda k: (uniform_bound(repetitions(h[k]), 2), -h[k]))


def choose_unit(entangler: np.ndarray, *, dec: KakDecomposition | None = None) -> ZzResource:
    """The folded unit of smallest uniform bound: extract_zz's, or another doubling.

    Case 1 and case 2 keep the paper's unit: no doubling beats case 1's
    one application, and every doubling in case 2 is local. In cases 3
    and 4 every doubling is ranked by arithmetic on the snapped vector,
    and only the winner is built. A moved unit doubles like the paper's case 3 or 4
    with no smaller gamma and no larger n, so no block needs more
    applications. dec is the entangler's KAK, decomposed at DEFAULT_TOL when None.
    """
    return _folded_unit(kak_decompose(entangler) if dec is None else dec, _best_axis)


# A template run, one circuit slot: reps repetitions of a unit of apps
# applications, with its product against the entangler it was built for,
# whose complex128 bytes it keeps. Expanded, application k (from 1) is
# followed by layers[(k - 1) % apps].
_Run = namedtuple("_Run", "layers reps apps product entangler")

# A template stores its runs of m <= RUN_TABLE_SIZE repetitions, whatever n
# is: an entry (the run, its 4x4 product and its phase) takes about 640
# bytes, so a full table 41 KB (measured). Longer runs are built per call.
RUN_TABLE_SIZE = 64


@dataclass(eq=False)
class ZzTemplate:
    """An entangler's folded unit, merged to [first, core, last], ready to repeat.

    m repetitions are first, core, then (seam, core) m - 1 times, then last,
    with phase * step_phase ** (m - 1); the seam is the unit's last layer
    fused with its first, normalized once. run_layers stacks the core's
    apps_per_unit - 1 inner layers, then the seam. powers[k] is
    (seam . core)^(2^k) up to the largest m = n needs, so a run's product
    C (S C)^(m-1) takes O(log m) matmuls and O(log n) matrices whatever n.
    The products are taken against the entangler whose bytes it keeps.

    run_table keeps the (run, phase) of each m <= RUN_TABLE_SIZE once built,
    so a reused template multiplies no run twice; its products are
    read-only, shared by every circuit that holds the run. Two threads may
    both build an entry: the same bits, and both return the one stored.
    """

    gamma: float
    apps_per_unit: int
    n: int
    first: tuple  # (a, b) halves of the merged first layer, unpacked into every block
    last: tuple
    phase: complex
    core_product: np.ndarray
    run_layers: np.ndarray
    entangler: bytes
    step_phase: complex
    powers: list
    unitarity_error: float = 0.0  # the entangler's, set by prepare_resource
    run_table: dict = field(default_factory=dict, repr=False)

    def run(self, m: int) -> tuple[_Run, complex]:
        """The run of m repetitions, m in 1..n, and the phase of the m-fold unit."""
        stored = self.run_table.get(m)
        if stored is not None:
            return stored
        if not 1 <= m <= self.n:
            raise ValueError(f"{m} repetitions outside 1..{self.n}")
        product = self.core_product
        for k, power in enumerate(self.powers):
            if (m - 1) >> k & 1:
                product = product @ power
        phase = self.phase if m == 1 else self.phase * self.step_phase ** (m - 1)
        built = _Run(self.run_layers, m, self.apps_per_unit, product, self.entangler), phase
        if m > RUN_TABLE_SIZE:
            return built
        product.flags.writeable = False
        return self.run_table.setdefault(m, built)


def amplify(unit: ZzResource, entangler: np.ndarray) -> ZzTemplate:
    """The template repeating a folded unit up to n = repetitions(gamma) times.

    The unit's chains are fused and normalized, and its products against
    the entangler taken, once; the n-fold circuit is never built.
    """
    n, apps = repetitions(unit.gamma), unit.apps_per_unit
    layers, phase = merge_locals(unit.chains, unit.phase)
    entangler = np.asarray(entangler, dtype=complex)
    core = _product(layers[1:-1], [1] * apps, entangler)
    run_layers, step_phase, powers = layers[1:-1], 1.0, []
    if n > 1:
        # The seam is the merged last layer times the merged first, with
        # the phase one more repetition adds.
        (seam,), step_phase = merge_locals([[*layers[-1], *layers[0]]], phase)
        run_layers = np.concatenate((run_layers, [seam]))
        powers.append(tensor(*seam) @ core)
        while len(powers) < (n - 1).bit_length():
            powers.append(powers[-1] @ powers[-1])
    # Runs in returned circuits share these; a write would corrupt the memo.
    run_layers.flags.writeable = core.flags.writeable = False
    return ZzTemplate(unit.gamma, apps, n, (*layers[0],), (*layers[-1],),
                      phase, core, run_layers, entangler.tobytes(), step_phase, powers)


def prepare_resource(entangler: np.ndarray, *, dec: KakDecomposition | None = None) -> ZzTemplate:
    """choose_unit's unit as a template; ValueError if its bound exceeds the cap.

    dec is the entangler's KAK when the caller has it already (synthesize
    decomposes the target and the entangler in one call); without it the
    entangler is decomposed here, at DEFAULT_TOL. The template keeps the
    entangler's unitarity error.
    """
    if dec is None:
        dec = kak_decompose(entangler)
    r = choose_unit(entangler, dec=dec)
    bound = uniform_bound(repetitions(r.gamma), r.apps_per_unit)
    if bound > MAX_APPLICATIONS:
        raise ValueError(f"entangler needs up to {bound} applications per target, "
                         f"above the cap of {MAX_APPLICATIONS}")
    template = amplify(r, entangler)
    template.unitarity_error = dec.unitarity_error
    return template
