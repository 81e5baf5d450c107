import json
from dataclasses import dataclass

import numpy as np
import pytest

from gatesynth.blocksynth import AxisAngle, block_params, plan_blocks, synth_zz_block
from gatesynth.kak import KakDecomposition, kak_decompose
from gatesynth.matcore import (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, Circuit, EntanglerApp, LocalPair,
                               exp_pauli, interaction, zz_interaction)
from gatesynth.serialize import encode_matrix
from gatesynth.zzsynth import ZzResource, ZzTemplate, _Run, amplify, fold_angle, prepare_resource


# Entanglers by the fold their unit takes, the same as the paper's unit and
# as choose_unit's: (canonical vector, folded gamma, layers per chain). Case 1
# has chains (2, 2) and case 2 (3, 4, 2); a doubling has (2, 3, 1), or
# (3, 3, 2) when k_x or k_y conjugation moves it onto ZZ. A fold adds one
# layer at each end: "reflect" takes gamma in (pi/2, pi] to pi - gamma,
# "shift" gamma in (pi, 3pi/2] to gamma - pi, "negate_2pi" gamma above
# 3pi/2 to 2pi - gamma; "none" leaves gamma in (0, pi/2].
FOLD_BRANCHES = {
    "none_cnot": ((np.pi / 2, 0.0, 0.0), np.pi / 2, [2, 2]),
    "none_b": ((np.pi / 2, np.pi / 4, 0.0), np.pi / 2, [3, 3, 2]),
    "none_sqrt_swap": ((np.pi / 4, np.pi / 4, np.pi / 4), np.pi / 2, [2, 3, 1]),
    "case2": ((np.pi / 2, np.pi / 2, 0.0), np.pi / 2, [3, 4, 2]),
    "reflect_z": ((1.2, 1.0, 0.9), np.pi - 1.8, [3, 3, 2]),
    "reflect_x": ((1.0, 0.5, 0.0), np.pi - 2.0, [4, 3, 3]),
    "shift": ((2.0, 0.13, 5e-11), 4.0 - np.pi, [3, 3, 3]),
    "negate_2pi": ((2.6, 0.13, 5e-11), 2 * np.pi - 5.2, [4, 3, 3]),
}


def haar_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-random U(dim) via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_local(rng: np.random.Generator) -> np.ndarray:
    """Random two-qubit local gate a (x) b."""
    return np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))


def dress(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sandwich u between random local gates (same local class)."""
    return random_local(rng) @ u @ random_local(rng)


def near_edge(u: np.ndarray, error: float, rng: np.random.Generator) -> np.ndarray:
    """u plus a random perturbation whose unitarity error is `error` (to first order)."""
    e = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
    first_order = np.abs(e @ u.conj().T + u @ e.conj().T).max()
    return u + e * (error / first_order)


def reconstruct(dec: KakDecomposition) -> np.ndarray:
    """Reference product of a KAK: phase * (k1[0] (x) k1[1]) A(c) (k2[0] (x) k2[1])."""
    return dec.phase * np.kron(*dec.k1) @ interaction(*dec.c) @ np.kron(*dec.k2)


def controlled_matrix(spec: AxisAngle) -> np.ndarray:
    """Reference diag(I, exp(i gamma n.sigma)), the Controlled-U of spec."""
    nx, ny, nz = spec.axis
    out = np.eye(4, dtype=complex)
    sigma = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z
    out[2:, 2:] = np.cos(spec.gamma) * ID2 + 1j * np.sin(spec.gamma) * sigma
    return out


def circuit_of(elements: list, phase: complex = 1.0 + 0.0j) -> Circuit:
    """Reference array form of an element list of LocalPair layers,
    EntanglerApp markers and template runs, each run alone between layers."""
    pairs, slots = [], [0]
    for elem in elements:
        if isinstance(elem, LocalPair):
            pairs += (elem.a, elem.b)
            slots.append(0)
        elif isinstance(elem, EntanglerApp) and isinstance(slots[-1], int):
            slots[-1] += 1
        elif slots[-1] == 0:
            slots[-1] = elem
        else:
            raise ValueError("a template run must stand alone between local layers")
    return Circuit(np.array(pairs, dtype=complex).reshape(-1, 2, 2, 2), slots, phase)


def slot_elements(circuit: Circuit) -> list:
    """A circuit's layers and slots as one element list, a run kept whole."""
    elements, layers = [], circuit.layers
    for i, slot in enumerate(circuit.slots):
        if i:
            elements.append(LocalPair(*layers[i - 1]))
        elements += [EntanglerApp()] * slot if isinstance(slot, int) else [slot]
    return elements


def expanded(circuit: Circuit) -> Circuit:
    """Reference expansion: slot_elements with each template run replaced by
    the loop synthesize once ran at emission, its core (E, then a core layer
    and E per further application of the unit) and then (seam, core) reps - 1
    times; every layer a fresh copy."""
    elements = []
    for elem in slot_elements(circuit):
        if isinstance(elem, (LocalPair, EntanglerApp)):
            elements.append(elem)
            continue
        core = [EntanglerApp()]
        for a, b in elem.layers[:elem.apps - 1]:
            core += [LocalPair(a, b), EntanglerApp()]
        seam = [LocalPair(*elem.layers[-1])] if elem.reps > 1 else []
        elements += core + (seam + core) * (elem.reps - 1)
    return circuit_of([LocalPair(e.a.copy(), e.b.copy()) if isinstance(e, LocalPair) else e
                       for e in elements], circuit.phase)


def product_loop(elements: list, entangler: np.ndarray) -> np.ndarray:
    """Reference evaluate loop: one np.kron and one matmul per local layer; a
    template run multiplies in its product."""
    out = np.eye(4, dtype=complex)
    for elem in elements:
        if isinstance(elem, EntanglerApp):
            m = entangler
        elif isinstance(elem, LocalPair):
            m = np.kron(elem.a, elem.b)
        else:
            m = elem.product
        out = m @ out
    return out


def counted(elements: list) -> tuple[int, int]:
    """(entangler_count, local_count) of an element list: its EntanglerApp
    markers and its LocalPair layers."""
    return (sum(isinstance(e, EntanglerApp) for e in elements),
            sum(isinstance(e, LocalPair) for e in elements))


def chains_circuit(chains: list, between: list, phase: complex) -> Circuit:
    """Chains of layer halves a, b as a circuit of LocalPair objects, with
    between[k] (an EntanglerApp or a template run) after chain k."""
    layers = [[LocalPair(a, b) for a, b in zip(c[::2], c[1::2])] for c in chains]
    elements = layers[0]
    for slot, chain in zip(between, layers[1:]):
        elements += [slot, *chain]
    return circuit_of(elements, phase)


def unit_circuit(unit: ZzResource) -> Circuit:
    """A unit as a circuit: each chain's layers, one EntanglerApp between chains."""
    return chains_circuit(unit.chains, [EntanglerApp()] * unit.apps_per_unit, unit.phase)


def planned_block(c: float, template: ZzTemplate) -> tuple[list, list, complex]:
    """(chains, runs, phase) of synth_zz_block on plan_blocks([c], template)'s one block."""
    (block,), _ = plan_blocks([c], template)
    return synth_zz_block(block, template)


def block_circuit(c: float, template: ZzTemplate) -> Circuit:
    """planned_block(c, template) as a circuit: its chains' layers, its runs between them."""
    return chains_circuit(*planned_block(c, template))


def block_layers(c: float, gamma: float) -> tuple[np.ndarray, ...]:
    """Reference halves of the target-dependent layers of exp(c (i/2) ZZ)
    over a resource of angle gamma, from fold_angle and block_params.

    At h = 0 (c = 0 or pi), (a, b) of the block's one local layer;
    otherwise (pre[0], u2, mid, post[0], u1) of its layers pre[0] (x) u2,
    then the resource, I (x) mid, the resource again and post[0] (x) u1,
    the fold's Pauli layers joined to u2 and u1.
    """
    h, pre, post, _ = fold_angle(c)
    if h == 0.0:
        return post[0] @ pre[0], post[1] @ pre[1]
    b, p, q = block_params(h, gamma)
    u1 = np.array([[1j * p, 1j * q], [-q, p]], dtype=complex)
    u2 = np.array([[1j * p, -q], [-1j * q, -p]], dtype=complex)
    if h != c:
        u1, u2 = post[1] @ u1, u2 @ pre[1]
    return pre[0], u2, exp_pauli("y", (b + np.pi) / 2), post[0], u1


def flanked_zz_unit(gamma: float) -> ZzResource:
    """Unit of one application of zz_interaction(gamma) between identity
    layers; every extracted unit starts and ends with a local layer."""
    return ZzResource([[ID2, ID2], [ID2, ID2]], 1.0, gamma, apps_per_unit=1)


def prepared(entangler: np.ndarray) -> ZzTemplate:
    """prepare_resource(entangler) over the entangler's KAK at DEFAULT_TOL."""
    return prepare_resource(entangler, dec=kak_decompose(entangler))


def exact_template(gamma: float) -> ZzTemplate:
    """The template of flanked_zz_unit(gamma) against zz_interaction(gamma):
    repetitions of one bare application, identity layers at either end."""
    return amplify(flanked_zz_unit(gamma), zz_interaction(gamma))


@dataclass
class CircuitResource:
    """A ZZ resource given as a circuit: a unit's circuit, angle and applications."""

    circuit: Circuit
    gamma: float
    apps_per_unit: int


def uncached_run(template: ZzTemplate, m: int) -> tuple[_Run, complex]:
    """Reference template.run(m), built afresh: the core product times the
    powers of (seam . core) the bits of m - 1 select, and the phase power."""
    product = template.core_product
    for k, power in enumerate(template.powers):
        if (m - 1) >> k & 1:
            product = product @ power
    phase = template.phase if m == 1 else template.phase * template.step_phase ** (m - 1)
    return _Run(template.run_layers, m, template.apps_per_unit, product, template.entangler), phase


def run_resource(template: ZzTemplate, m: int) -> CircuitResource:
    """The template's m-fold unit as a [first, run, last] resource of angle m * gamma."""
    run, phase = template.run(m)
    return CircuitResource(circuit_of([LocalPair(*template.first), run, LocalPair(*template.last)],
                                      phase),
                           m * template.gamma, template.apps_per_unit)


def repeated(template: ZzTemplate, m: int) -> CircuitResource:
    """run_resource(template, m) with its run expanded: the m-fold unit as a plain circuit."""
    r = run_resource(template, m)
    return CircuitResource(expanded(r.circuit), r.gamma, r.apps_per_unit)


def matrix_json(m: np.ndarray) -> str:
    """A matrix file's text: row-major JSON array of [re, im] pairs."""
    return json.dumps(encode_matrix(m))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
