"""Top-level synthesis pipeline and the uniform application bound.

A target decomposes into at most three ZZ blocks interleaved with fixed
local layers; each block costs two insertions of the entangler's folded
unit repeated m <= n times, m set by the block's angle, so the entangler
count never exceeds zzsynth.uniform_bound. That bound depends only on the
entangler's canonical vector.

synthesize keeps each entangler's zzsynth.prepare_resource template in
a small memo, verifies the circuit on the template's runs, and expands
the runs and counts the gates in one pass at emission.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .blocksynth import controlled_u_gamma, synth_zz_block
from .kak import kak_decompose, snap_vector
from .matcore import (DEFAULT_TOL, Circuit, LocalPair, ToleranceConfig, evaluate,
                      merge_locals, phase_distance)
from .zzsynth import (KX_DAG, KX_KY_DAG, KY_FACTOR, ZzTemplate, _Run, block_repetitions,
                      choose_unit, fold_angle, prepare_resource, repetitions,
                      uniform_bound)


@dataclass
class SynthesisReport:
    """Audit record of one synthesis run.

    gamma, apps_per_unit and n describe the n-fold repetition of
    zzsynth.choose_unit's unit; bound is derived from them.
    entangler_count, local_count and residual are None for bound-only
    reports.
    """

    gamma: float
    apps_per_unit: int
    n: int
    bound: int = field(init=False)
    entangler_count: int | None = None
    local_count: int | None = None
    residual: float | None = None

    def __post_init__(self) -> None:
        self.bound = uniform_bound(self.n, self.apps_per_unit)


def upper_bound(entangler: np.ndarray,
                tol: ToleranceConfig = DEFAULT_TOL) -> SynthesisReport:
    """Uniform bound on entangler applications for any two-qubit target.

    Computed from the unit synthesize would repeat; the n-fold circuit is
    never built.
    """
    unit = choose_unit(entangler, tol)
    n = repetitions(unit.gamma)
    return SynthesisReport(n * unit.gamma, unit.apps_per_unit, n)


# Entanglers (with their tolerances) whose resource template synthesize keeps,
# least recently used dropped first; a caller cycling through a few still hits.
RESOURCE_MEMO_SIZE = 8


@functools.lru_cache(maxsize=RESOURCE_MEMO_SIZE)
def _prepared_resource(shape: tuple, data: bytes, tol: ToleranceConfig) -> ZzTemplate:
    """prepare_resource's template for an entangler given by its shape and
    complex128 bytes, once per entangler and tolerance set.

    Errors are not cached. Building the template checks the entangler's
    unitarity (its KAK does), so a memo hit does not check it again. Callers
    only read the result: synthesize emits fresh copies of every layer.
    """
    return prepare_resource(np.frombuffer(data, dtype=complex).reshape(shape), tol)


def _emitted(skeleton: Circuit) -> tuple[Circuit, int, int]:
    """The circuit with every template run replaced by fresh copies of its
    elements, and its entangler and local counts: a run is reps cores
    joined by reps - 1 seam layers."""
    elements: list = []
    apps = layers = 0
    for elem in skeleton.elements:
        if isinstance(elem, _Run):
            elements += elem.expanded()
            apps += elem.reps * elem.apps
            layers += elem.reps * (len(elem.core) - elem.apps + 1) - 1
        else:
            elements.append(elem)
            if isinstance(elem, LocalPair):
                layers += 1
            else:
                apps += 1
    return Circuit(elements, skeleton.phase), apps, layers


def synthesize(target: np.ndarray, entangler: np.ndarray,
               tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Circuit, SynthesisReport]:
    """Compile a target unitary into local layers plus entangler applications.

    The target's canonical blocks are emitted in application order c3,
    c2, c1 with the fixed interleavers from the three-block rewriting;
    a block whose coefficient snaps to 0 or pi costs no application. A
    block of folded angle h inserts block_repetitions(h, ...) <= n units,
    not the n of the uniform bound. The result is verified against the
    target before returning, with the runs' products, and then expanded.
    """
    dec = kak_decompose(target, tol)
    entangler = np.asarray(entangler, dtype=complex)
    template = _prepared_resource(entangler.shape, entangler.tobytes(), tol)

    c1, c2, c3 = snap_vector(dec.c, tol.snap_tol)
    # Application order per the three-block form: c3 block, k_y,
    # c2 block, k_x k_y^dag, c1 block, k1 k_x^dag; a block at angle 0 or
    # pi is one local layer and merges with its neighbors.
    elements, phase = [dec.k2], dec.phase
    for c, interleaver in ((c3, LocalPair(KY_FACTOR, KY_FACTOR)),
                           (c2, LocalPair(KX_KY_DAG, KX_KY_DAG)),
                           (c1, LocalPair(dec.k1.a @ KX_DAG, dec.k1.b @ KX_DAG))):
        m = block_repetitions(fold_angle(c)[0], template.gamma, template.n)
        block = synth_zz_block(c, template.resource(m))
        elements += block.elements
        phase *= block.phase
        elements.append(interleaver)

    skeleton = merge_locals(Circuit(elements, phase))

    residual = phase_distance(evaluate(skeleton, entangler, tol), target)
    if residual >= tol.verify_tol:
        raise ArithmeticError(f"synthesis verification failed: residual {residual:g}")
    circuit, entangler_count, local_count = _emitted(skeleton)

    report = SynthesisReport(template.n * template.gamma, template.apps_per_unit, template.n,
                             entangler_count=entangler_count,
                             local_count=local_count, residual=residual)
    assert report.entangler_count <= report.bound
    return circuit, report


def efficient_as_cnot(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether Controlled-u shares the CNOT gate's uniform bound of 6.

    True exactly on the upper half [pi/4, pi/2] of the Controlled-U
    coordinate interval.
    """
    coord = controlled_u_gamma(u, tol)
    return coord >= np.pi / 4 - tol.snap_tol
