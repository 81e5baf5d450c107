"""Top-level synthesis pipeline and the uniform application bound.

A target decomposes into at most three ZZ blocks interleaved with fixed
local layers; each block costs two insertions of the entangler's folded
unit repeated m <= n times, m set by the block's angle, so the entangler
count never exceeds zzsynth.uniform_bound. That bound depends only on the
entangler's canonical vector.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .blocksynth import controlled_u_gamma, synth_zz_block
from .kak import kak_decompose, snap_vector
from .matcore import (DEFAULT_TOL, Circuit, EntanglerApp, LocalPair, ToleranceConfig,
                      _product, evaluate, phase_distance)
from .zzsynth import (KX_DAG, KX_KY_DAG, KY_FACTOR, ZzResource, block_repetitions,
                      choose_unit, fold_angle, prepare_resource, repetitions,
                      uniform_bound)


@dataclass
class SynthesisReport:
    """Audit record of one synthesis run.

    gamma, apps_per_unit and n describe the amplified resource built from
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


@dataclass(eq=False)
class _Run:
    """reps copies of a template core, joined by its seam layer, standing in
    as one element with its product against the one entangler it was built
    for; evaluate reads the product. The core holds apps applications."""

    core: list
    seam: LocalPair | None
    reps: int
    apps: int
    product: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.product

    def expanded(self) -> list:
        """Fresh copies of the run's elements: core, then (seam, core) reps - 1 times."""
        elements = self.core + ([self.seam] + self.core) * (self.reps - 1)
        return [LocalPair(e.a.copy(), e.b.copy()) if isinstance(e, LocalPair) else e
                for e in elements]


@dataclass(eq=False)
class _Template:
    """An entangler's folded unit, merged to [first, core, last], ready to repeat.

    m repetitions are first, core, then (seam, core) m - 1 times, then last,
    with phase * step_phase ** (m - 1); the seam is the unit's last layer
    fused with its first, normalized once. powers[k] is (seam . core)^(2^k)
    up to the largest m = n needs, so a run's product C (S C)^(m-1) takes
    O(log m) matmuls and the entry holds O(log n) matrices whatever n.
    """

    gamma: float
    apps_per_unit: int
    n: int
    first: LocalPair
    core: list
    last: LocalPair
    phase: complex
    core_product: np.ndarray
    seam: LocalPair | None = None
    step_phase: complex = 1.0
    powers: list = field(default_factory=list)

    def resource(self, m: int) -> ZzResource:
        """The m-fold unit as a [first, run, last] resource of angle m * gamma."""
        product = self.core_product
        for k, power in enumerate(self.powers):
            if (m - 1) >> k & 1:
                product = product @ power
        phase = self.phase if m == 1 else self.phase * self.step_phase ** (m - 1)
        run = _Run(self.core, self.seam, m, self.apps_per_unit, product)
        return ZzResource(Circuit([self.first, run, self.last], phase), m * self.gamma,
                          self.apps_per_unit, reps=m)


@functools.lru_cache(maxsize=RESOURCE_MEMO_SIZE)
def _prepared_resource(shape: tuple, data: bytes, tol: ToleranceConfig) -> _Template:
    """The resource template for an entangler given by its shape and complex128 bytes.

    Built from the unit that prepare_resource amplified: its layers are
    merged and normalized, and its products against the entangler taken,
    once per entangler and tolerance set, so each call fuses and multiplies
    only the layers at block boundaries, whatever n. The entangler was
    checked by prepare_resource. Errors are not cached. Callers only read
    the result: synthesize emits fresh copies of every layer.
    """
    entangler = np.frombuffer(data, dtype=complex).reshape(shape)
    r = prepare_resource(entangler, tol)
    unit = r.unit.circuit
    merged = merge_locals(unit)
    first, *core, last = merged.elements
    template = _Template(r.unit.gamma, r.apps_per_unit, r.reps, first, core, last,
                         merged.phase, _product(core, entangler))
    if r.reps > 1:
        # The unit rotated to start at its first application merges to
        # [core, seam], with the phase one more repetition adds.
        k = next(i for i, e in enumerate(unit.elements) if isinstance(e, EntanglerApp))
        step = merge_locals(Circuit(unit.elements[k:] + unit.elements[:k], unit.phase))
        template.seam, template.step_phase = step.elements[-1], step.phase
        template.powers.append(template.seam.matrix() @ template.core_product)
        while len(template.powers) < (r.reps - 1).bit_length():
            template.powers.append(template.powers[-1] @ template.powers[-1])
    return template


def merge_locals(circuit: Circuit) -> Circuit:
    """Fuse adjacent local layers and move scalar factors into the phase.

    Every surviving local pair is renormalized to unit determinant per
    qubit, with the extracted scalars folded into the circuit phase, so
    output layers are canonical, freshly allocated, and no two local
    layers are adjacent. Every other element passes through.
    """
    merged: list = []
    for elem in circuit.elements:
        prev = merged[-1] if merged else None
        if isinstance(elem, LocalPair) and isinstance(prev, LocalPair):
            merged[-1] = LocalPair(elem.a @ prev.a, elem.b @ prev.b)
        else:
            merged.append(elem)
    phase = circuit.phase
    slots = [i for i, e in enumerate(merged) if isinstance(e, LocalPair)]
    if not slots:
        return Circuit(merged, phase)
    # Stacked det, sqrt and divide: the same per-matrix arithmetic as a
    # loop, without a LAPACK call per layer.
    fused = np.array([[merged[i].a for i in slots], [merged[i].b for i in slots]],
                     dtype=complex)
    scale = np.sqrt(np.linalg.det(fused))
    fused /= scale[..., None, None]
    for k, i in enumerate(slots):
        phase *= scale[0, k] * scale[1, k]
        merged[i] = LocalPair(fused[0, k], fused[1, k])
    return Circuit(merged, phase)


def _counts(skeleton: Circuit) -> tuple[int, int]:
    """(entangler, local) counts of _expanded(skeleton), without expanding:
    a run is reps cores joined by reps - 1 seam layers."""
    apps = layers = 0
    for elem in skeleton.elements:
        if isinstance(elem, LocalPair):
            layers += 1
        elif isinstance(elem, _Run):
            apps += elem.reps * elem.apps
            layers += elem.reps * (len(elem.core) - elem.apps + 1) - 1
        else:
            apps += 1
    return apps, layers


def _expanded(skeleton: Circuit) -> Circuit:
    """The circuit with every template run replaced by fresh copies of its elements."""
    elements: list = []
    for elem in skeleton.elements:
        if isinstance(elem, _Run):
            elements += elem.expanded()
        else:
            elements.append(elem)
    return Circuit(elements, skeleton.phase)


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
    entangler_count, local_count = _counts(skeleton)

    report = SynthesisReport(template.n * template.gamma, template.apps_per_unit, template.n,
                             entangler_count=entangler_count,
                             local_count=local_count, residual=residual)
    assert report.entangler_count <= report.bound
    return _expanded(skeleton), report


def efficient_as_cnot(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether Controlled-u shares the CNOT gate's uniform bound of 6.

    True exactly on the upper half [pi/4, pi/2] of the Controlled-U
    coordinate interval.
    """
    coord = controlled_u_gamma(u, tol)
    return coord >= np.pi / 4 - tol.snap_tol
