"""Extraction of a ZZ-interaction gate from an arbitrary entangler.

Any entangling gate can simulate exp(gamma (i/2) ZZ) for some
gamma in (0, pi/2] using at most two applications of itself. The case
split runs on the entangler's canonical vector (g1, g2, g3):

  case 1: g2 = g3 = 0            -- one application, axis moved x -> z
  case 2: g1 = g2 = pi/2, g3 = 0 -- the special two-application circuit
  case 3: g3 = 0, 0 < g2 < pi/2  -- two applications, doubling g1 (g2 at g1 = pi/2)
  case 4: g3 > 0                 -- two applications, doubling g3

followed by angle reduction and reflection so gamma lands in (0, pi/2],
and repetition until the amplified angle reaches [pi/4, pi/2].
"""

from dataclasses import dataclass, replace

import numpy as np

from .kak import GateClass, classify, kak_decompose, snap_vector
from .matcore import (DEFAULT_TOL, ID2, Circuit, EntanglerApp, LocalPair,
                      ToleranceConfig, dagger, exp_pauli)

# Fixed rotations, built once: _QUARTER[axis, s] = exp(i s (pi/4) sigma_axis)
# and _HALF[axis, s] = exp(i s (pi/2) sigma_axis) for s = +1 or -1.
_QUARTER = {(axis, s): exp_pauli(axis, s * np.pi / 4) for axis in "xyz" for s in (1, -1)}
_HALF = {(axis, s): exp_pauli(axis, s * np.pi / 2) for axis in "xyz" for s in (1, -1)}

KX_FACTOR = _QUARTER["y", 1]  # k_x = this on both qubits moves ZZ <-> XX
KY_FACTOR = _QUARTER["x", 1]  # k_y = this on both qubits moves ZZ <-> YY
# The interleavers synthesize places between its c3, c2 and c1 blocks.
KX_KY_DAG = KX_FACTOR @ dagger(KY_FACTOR)
KX_DAG = dagger(KX_FACTOR)


@dataclass(eq=False)
class ZzResource:
    """A circuit over one fixed entangler realizing exp(gamma (i/2) ZZ).

    apps_per_unit is the entangler count of one unamplified unit (1 or 2);
    reps counts amplification repetitions, so the circuit holds exactly
    apps_per_unit * reps entangler applications.
    """

    circuit: Circuit
    gamma: float
    apps_per_unit: int
    reps: int = 1


def _conjugated(circ: Circuit, k: np.ndarray) -> Circuit:
    """Wrap a circuit as L . circ . L^dag with L = k (x) k."""
    return Circuit([LocalPair(dagger(k), dagger(k))] + circ.elements + [LocalPair(k, k)],
                   circ.phase)


def extract_zz(entangler: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> ZzResource:
    """Build exp(gamma (i/2) ZZ), gamma in (0, pi/2], from <= 2 applications.

    Raises ValueError when the gate is local or in the SWAP class, which
    cannot serve as the entangling resource.
    """
    dec = kak_decompose(entangler, tol)
    kind = classify(dec.c, tol)
    if kind is not GateClass.ENTANGLING:
        raise ValueError(f"resource gate is {kind.value}, not entangling")

    # Circuit computing the entangler's pure interaction factor
    # A = k_l^dag U_g k_r^dag, KAK locals folded into flanking layers.
    a_circ = Circuit([dec.k2.dag(), EntanglerApp(), dec.k1.dag()],
                     phase=np.conj(dec.phase))
    g1, g2, g3 = snap_vector(dec.c, tol.snap_tol)

    if g3 == 0.0 and g2 == 0.0:
        # case 1: A is a pure XX rotation; k_x conjugation moves it to ZZ
        circuit = _conjugated(a_circ, KX_FACTOR)
        resource = ZzResource(circuit, g1, apps_per_unit=1)
    elif g3 == 0.0 and g1 == np.pi / 2 and g2 == np.pi / 2:
        # case 2: two applications interleaved with fixed locals
        elems = (
            [LocalPair(_QUARTER["y", 1], ID2),
             LocalPair(_QUARTER["z", -1], _QUARTER["z", 1])]
            + a_circ.elements
            + [LocalPair(_QUARTER["z", 1], _QUARTER["z", -1]),
               LocalPair(ID2, _QUARTER["y", 1])]
            + a_circ.elements
            + [LocalPair(_QUARTER["y", -1], ID2)]
        )
        circuit = Circuit(elems, phase=a_circ.phase ** 2)
        resource = ZzResource(circuit, np.pi / 2, apps_per_unit=2)
    else:
        # cases 3 and 4: A e^{i pi/2 s_k^1} A e^{-i pi/2 s_k^1} doubles g_k:
        # z if g3 > 0, else x, or y at g1 = pi/2 where 2 g1 = pi is local.
        k = 2 if g3 > 0.0 else 1 if g1 == np.pi / 2 else 0
        axis = "xyz"[k]
        elems = ([LocalPair(_HALF[axis, -1], ID2)]
                 + a_circ.elements
                 + [LocalPair(_HALF[axis, 1], ID2)]
                 + a_circ.elements)
        doubled = Circuit(elems, phase=a_circ.phase ** 2)
        if k < 2:  # k_x or k_y moves the doubled XX or YY angle onto ZZ
            doubled = _conjugated(doubled, (KX_FACTOR, KY_FACTOR)[k])
        resource = ZzResource(doubled, 2 * (g1, g2, g3)[k], apps_per_unit=2)

    return reflect_angle(reduce_angle(resource))


def reduce_angle(r: ZzResource) -> ZzResource:
    """Bring gamma from (0, 2pi) into (0, pi) by a full-pi rewrite.

    exp(g (i/2) ZZ) = i e^{i pi/2 sz^1} exp((pi+g)(i/2) ZZ) e^{i pi/2 sz^2},
    so a resource with angle pi + g also realizes angle g with two extra
    local layers. gamma = pi is locally trivial and rejected.

    Fires only for c3 in (1e-12, snap_tol] with c1 > pi/2: the chamber's
    base fold (window 1e-12) leaves c1 > pi/2, case 3 snaps c3 to 0 and
    doubles c1 past pi, e.g. interaction(2.6, 0.13, 5e-11) -> 5.2.
    """
    if not 0.0 < r.gamma < 2 * np.pi or r.gamma == np.pi:
        raise ValueError(f"gamma = {r.gamma} has no entangling reduction")
    if r.gamma < np.pi:
        return r
    elems = ([LocalPair(ID2, _HALF["z", 1])]
             + r.circuit.elements
             + [LocalPair(_HALF["z", 1], ID2)])
    circuit = Circuit(elems, phase=1j * r.circuit.phase)
    return replace(r, circuit=circuit, gamma=r.gamma - np.pi)


def reflected(circ: Circuit) -> Circuit:
    """Turn a circuit for exp(g (i/2) ZZ) into one for exp((pi-g)(i/2) ZZ).

    Uses -i e^{-i pi/2 sz^1} e^{i pi/2 sy^1} exp(g (i/2) ZZ)
    e^{-i pi/2 sy^1} e^{-i pi/2 sz^2} = exp((pi-g)(i/2) ZZ).
    """
    elems = ([LocalPair(ID2, _HALF["z", -1]),
              LocalPair(_HALF["y", -1], ID2)]
             + circ.elements
             + [LocalPair(_HALF["y", 1], ID2),
                LocalPair(_HALF["z", -1], ID2)])
    return Circuit(elems, phase=-1j * circ.phase)


def reflect_angle(r: ZzResource) -> ZzResource:
    """Reflect gamma in (pi/2, pi) down to pi - gamma in (0, pi/2).

    The boundary gamma = pi/2 is kept as is.
    """
    if r.gamma <= np.pi / 2:
        return r
    return replace(r, circuit=reflected(r.circuit), gamma=np.pi - r.gamma)


# Larger uniform bounds are refused before amplifying: the repeated circuit
# holds an element per application and grows without limit near local gates.
MAX_APPLICATIONS = 100_000


def repetitions(gamma: float) -> int:
    """Minimal n with n*gamma in [pi/4, pi/2]; steps of gamma <= pi/2 cannot skip it."""
    if not 0.0 < gamma <= np.pi / 2:
        raise ValueError(f"gamma = {gamma} outside (0, pi/2]")
    return max(1, int(np.ceil(np.pi / 4 / gamma)))


def uniform_bound(n: int, apps_per_unit: int) -> int:
    """Applications for any target: 3 blocks x 2 insertions x n repetitions."""
    return 6 * n * apps_per_unit


def amplify(r: ZzResource) -> ZzResource:
    """Repeat the resource n = repetitions(gamma) times."""
    n = repetitions(r.gamma)
    circuit = Circuit(r.circuit.elements * n, phase=r.circuit.phase ** n)
    return ZzResource(circuit, n * r.gamma, r.apps_per_unit, reps=n * r.reps)


def prepare_resource(entangler: np.ndarray,
                     tol: ToleranceConfig = DEFAULT_TOL) -> ZzResource:
    """Extract, reduce, reflect, amplify; ValueError if the bound exceeds the cap."""
    r = extract_zz(entangler, tol)
    bound = uniform_bound(repetitions(r.gamma), r.apps_per_unit)
    if bound > MAX_APPLICATIONS:
        raise ValueError(f"entangler needs up to {bound} applications per target, "
                         f"above the cap of {MAX_APPLICATIONS}")
    return amplify(r)
