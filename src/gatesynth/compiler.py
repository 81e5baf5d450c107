"""Top-level synthesis pipeline and the uniform application bound.

A target decomposes into at most three ZZ blocks interleaved with fixed
local layers; each block costs two insertions of the entangler's folded
unit repeated m <= n times, m set by the block's angle, so the entangler
count never exceeds zzsynth.uniform_bound. That bound depends only on the
entangler's canonical vector.

synthesize keeps each entangler's zzsynth.prepare_resource template in
a small memo, builds each block as chains of local layers between the
template's runs (blocksynth.synth_zz_block) and fuses the target's
chains in one matcore.merge_locals call. The fused layers, with one run
in each slot between them, are the circuit it verifies, counts by
arithmetic on the runs, and returns.
"""

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .blocksynth import controlled_u_gamma, synth_zz_block
from .kak import KakDecomposition, kak_decompose, snap_angle, snap_vector
from .matcore import (DEFAULT_TOL, Circuit, ToleranceConfig, evaluate, merge_locals,
                      phase_distance)
from .zzsynth import (KX_DAG, KX_KY_DAG, KY_FACTOR, ZzTemplate, choose_unit, prepare_resource,
                      repetitions, uniform_bound)


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


def upper_bound(entangler: np.ndarray, *, dec: KakDecomposition | None = None) -> SynthesisReport:
    """Uniform bound on entangler applications for any two-qubit target.

    Computed from the unit synthesize would repeat; the n-fold circuit is
    never built. dec is the entangler's KAK when the caller has it already
    (classify prints its vector); without it, it is decomposed at DEFAULT_TOL.
    """
    unit = choose_unit(entangler, dec=dec)
    n = repetitions(unit.gamma)
    return SynthesisReport(n * unit.gamma, unit.apps_per_unit, n)


# Entanglers (with their tolerances) whose resource template synthesize keeps,
# least recently used dropped first; a caller cycling through a few still hits.
RESOURCE_MEMO_SIZE = 8
# (complex128 bytes, tolerances) of a 4x4 entangler -> its prepare_resource
# template, least recently used first; errors are never stored. The template
# keeps the unitarity error the entangler's KAK measured, so a hit does not
# check the entangler again. Callers only read a template: the runs a returned
# circuit shares with it are read-only.
_resource_memo: OrderedDict = OrderedDict()

# A failed final check is the entangler's fault when the residual is at most
# this factor times (applications x the entangler's unitarity error). That
# ratio measured 0.53 to 4.2 over 768 syntheses from dense Gaussian
# perturbations of ZZ(gamma) (errors 1e-12 to 9e-11, n from 2 to 1,000) and
# 2.0 from ZZ(gamma) rounded to 10 decimals. An entangler unitary to roundoff
# (~2e-16) at the 100,000-application cap accounts for only 2e-10.
AMPLIFIED_ERROR_FACTOR = 8.0

_INPUT_NAMES = ("target", "entangler")


# The fixed interleavers after the c3 and c2 blocks, as (a, b) halves.
_INTERLEAVERS = ((KY_FACTOR, KY_FACTOR), (KX_KY_DAG, KX_KY_DAG))


def _skeleton(c: tuple[float, float, float], dec: KakDecomposition,
              template: ZzTemplate) -> Circuit:
    """The circuit of blocks c = (c1, c2, c3), snapped, between dec's local
    pairs: the fused layers, with the template's runs between them.

    Application order per the three-block form: c3 block, k_y, c2 block,
    k_x k_y^dag, c1 block, k1 k_x^dag. Each block's chains (synth_zz_block)
    join their neighbors' local layers, so a block at angle 0 or pi, one
    local layer, merges with them; merge_locals fuses the chains.
    """
    chains, runs, phase = [[*dec.k2]], [], dec.phase
    k1_layer = (*dec.k1 @ KX_DAG,)  # a tuple: a list += ndarray would broadcast
    for c_i, interleaver in zip(c[::-1], _INTERLEAVERS + (k1_layer,)):
        block_chains, block_runs, block_phase = synth_zz_block(c_i, template)
        chains[-1] += block_chains[0]
        chains += block_chains[1:]
        chains[-1] += interleaver
        runs += block_runs
        phase *= block_phase
    layers, phase = merge_locals(chains, phase)
    return Circuit(layers, [0, *runs, 0], phase)


def synthesize(target: np.ndarray, entangler: np.ndarray,
               tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Circuit, SynthesisReport]:
    """Compile a target unitary into local layers plus entangler applications.

    The target's canonical blocks are emitted in application order c3,
    c2, c1 with the fixed interleavers from the three-block rewriting;
    a block whose coefficient snaps to 0 or pi costs no application. A
    block of folded angle h inserts block_repetitions(h, ...) <= n units,
    not the n of the uniform bound. The local layers go into one stack,
    fused by merge_locals, with the template's runs between them: the
    circuit, verified against the target with the runs' products, is
    returned in that array form.

    A memo miss decomposes the target and the entangler in one stacked
    KAK; a hit decomposes the target alone. Raises ValueError for invalid
    input, naming the target or the entangler, and when the entangler's
    unitarity error amplified over its applications explains a failed
    check; ArithmeticError for any other failed check, or a circuit over
    the uniform bound.
    """
    target = np.asarray(target, dtype=complex)
    entangler = np.asarray(entangler, dtype=complex)
    for name, m in zip(_INPUT_NAMES, (target, entangler)):
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix as the {name}, got shape {m.shape}")
    key = (entangler.tobytes(), tol)
    template = _resource_memo.get(key)
    if template is None:
        # A miss: the target and the new entangler take one stacked KAK.
        dec, entangler_dec = kak_decompose(np.stack((target, entangler)), tol, _INPUT_NAMES)
        template = prepare_resource(entangler, dec=entangler_dec)
    else:
        dec, = kak_decompose(target[None], tol, _INPUT_NAMES)
    # One re-insert stores a miss and refreshes a hit, also one that another
    # thread evicted during the KAK above.
    _resource_memo[key] = _resource_memo.pop(key, template)
    while len(_resource_memo) > RESOURCE_MEMO_SIZE:
        _resource_memo.popitem(last=False)

    circuit = _skeleton(snap_vector(dec.c), dec, template)
    residual = phase_distance(evaluate(circuit, entangler), target)
    if residual >= tol.verify_tol:
        # A snap is taken only when it verifies: build once more from the
        # unsnapped vector, roundoff below 0 taken as 0.
        unsnapped = _skeleton(tuple(max(x, 0.0) for x in dec.c), dec, template)
        unsnapped_residual = phase_distance(evaluate(unsnapped, entangler), target)
        if unsnapped_residual < tol.verify_tol:
            circuit, residual = unsnapped, unsnapped_residual
    entangler_count, local_count = circuit.counts()
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
    if report.entangler_count > report.bound:  # the paper's bound; kept under python -O
        raise ArithmeticError(f"{report.entangler_count} applications exceed the uniform "
                              f"bound {report.bound}")
    return circuit, report


def efficient_as_cnot(u: np.ndarray) -> bool:
    """Whether Controlled-u shares the CNOT gate's uniform bound of 6.

    True exactly on the upper half [pi/4, pi/2] of the Controlled-U
    coordinate interval, where the snapped coordinate needs one repetition.
    """
    coord = snap_angle(controlled_u_gamma(u))
    return coord > 0.0 and repetitions(coord) == 1
