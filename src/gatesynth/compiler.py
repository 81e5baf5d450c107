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

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .blocksynth import controlled_u_gamma, synth_zz_block
from .kak import KakDecomposition, kak_decompose, snap_vector
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


def upper_bound(entangler: np.ndarray, dec: KakDecomposition | None = None,
                tol: ToleranceConfig = DEFAULT_TOL) -> SynthesisReport:
    """Uniform bound on entangler applications for any two-qubit target.

    Computed from the unit synthesize would repeat; the n-fold circuit is
    never built. dec is the entangler's KAK when the caller has it already
    (classify prints its vector); without it the entangler is decomposed.
    """
    unit = choose_unit(entangler, tol, dec)
    n = repetitions(unit.gamma)
    return SynthesisReport(n * unit.gamma, unit.apps_per_unit, n)


# Entanglers (with their tolerances) whose resource template synthesize keeps,
# least recently used dropped first; a caller cycling through a few still hits.
RESOURCE_MEMO_SIZE = 8
# (shape, complex128 bytes, tolerances) of an entangler -> its prepare_resource
# template, least recently used first; errors are never stored. The template
# keeps the unitarity error the entangler's KAK measured, so a hit does not
# check the entangler again. Callers only read a template: synthesize emits
# fresh copies of every layer.
_resource_memo: OrderedDict = OrderedDict()

# A failed final check is the entangler's fault when the residual is at most
# this factor times (applications x the entangler's unitarity error). That
# ratio measured 0.53 to 4.2 over 768 syntheses from dense Gaussian
# perturbations of ZZ(gamma) (errors 1e-12 to 9e-11, n from 2 to 1,000) and
# 2.0 from ZZ(gamma) rounded to 10 decimals. An entangler unitary to roundoff
# (~2e-16) at the 100,000-application cap accounts for only 2e-10.
AMPLIFIED_ERROR_FACTOR = 8.0

_INPUT_NAMES = ("target", "entangler")


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

    A memo miss decomposes the target and the entangler in one stacked
    KAK; a hit decomposes the target alone. Raises ValueError for invalid
    input, naming the target or the entangler, and when the entangler's
    unitarity error amplified over its applications explains a failed
    check; ArithmeticError for any other failed check.
    """
    target = np.asarray(target, dtype=complex)
    entangler = np.asarray(entangler, dtype=complex)
    for name, m in zip(_INPUT_NAMES, (target, entangler)):
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix as the {name}, got shape {m.shape}")
    key = (entangler.shape, entangler.tobytes(), tol)
    template = _resource_memo.get(key)
    if template is None:
        # A miss: the target and the new entangler take one stacked KAK.
        dec, entangler_dec = kak_decompose(np.stack((target, entangler)), tol, _INPUT_NAMES)
        template = prepare_resource(entangler, entangler_dec, tol)
        _resource_memo[key] = template
        if len(_resource_memo) > RESOURCE_MEMO_SIZE:
            _resource_memo.popitem(last=False)
    else:
        dec, = kak_decompose(target[None], tol, _INPUT_NAMES)
        _resource_memo.move_to_end(key)

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
    circuit, entangler_count, local_count = _emitted(skeleton)
    if residual >= tol.verify_tol:
        error = template.unitarity_error
        if residual <= AMPLIFIED_ERROR_FACTOR * entangler_count * error:
            # A property of the input: the entangler is too far from unitary
            # for the number of times the circuit applies it.
            raise ValueError(f"entangler unitarity error {error:.2g} over {entangler_count} "
                             f"applications exceeds verify_tol {tol.verify_tol:g} "
                             f"(residual {residual:g})")
        raise ArithmeticError(f"synthesis verification failed: residual {residual:g}")

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
