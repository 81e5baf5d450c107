"""Top-level synthesis pipeline and the uniform application bound.

A target decomposes into at most three ZZ blocks interleaved with fixed
local layers; each block costs two insertions of the amplified resource,
so the entangler count never exceeds zzsynth.uniform_bound. That bound
depends only on the entangler's canonical vector.
"""

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .blocksynth import controlled_u_gamma, synth_zz_block
from .kak import kak_decompose, snap_vector
from .matcore import (DEFAULT_TOL, Circuit, LocalPair, ToleranceConfig,
                      evaluate, phase_distance)
from .zzsynth import (KX_DAG, KX_KY_DAG, KY_FACTOR, ZzResource, extract_zz,
                      prepare_resource, repetitions, uniform_bound)


@dataclass
class SynthesisReport:
    """Audit record of one synthesis run.

    gamma, apps_per_unit and n describe the amplified resource; bound is
    derived from them. entangler_count, local_count and residual are None
    for bound-only reports.
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

    Computed from the unamplified resource; the n-fold circuit is never built.
    """
    unit = extract_zz(entangler, tol)
    n = repetitions(unit.gamma)
    return SynthesisReport(n * unit.gamma, unit.apps_per_unit, n)


# Entanglers (with their tolerances) whose amplified resource synthesize keeps,
# least recently used dropped first; a caller cycling through a few still hits.
RESOURCE_MEMO_SIZE = 8


@dataclass(eq=False)
class _Run:
    """Template interior standing in as one element, with its product against
    the one entangler it was built for; evaluate reads the product."""

    elements: list
    product: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.product


@functools.lru_cache(maxsize=RESOURCE_MEMO_SIZE)
def _prepared_resource(shape: tuple, data: bytes, tol: ToleranceConfig) -> ZzResource:
    """The resource template for an entangler given by its shape and complex128 bytes.

    prepare_resource, merged to [F, E, L..., E, La], becomes [F, run, La]:
    the interior layers are normalized once, by that merge, and their
    product against the entangler is evaluated here, once per entangler
    and tolerance set, so each call fuses and multiplies only the layers
    at block boundaries, whatever n. Errors are not cached. Callers only
    read the result: synthesize emits fresh copies of every layer.
    """
    entangler = np.frombuffer(data, dtype=complex).reshape(shape)
    r = prepare_resource(entangler, tol)
    merged = merge_locals(r.circuit)
    first, *interior, last = merged.elements
    run = _Run(interior, evaluate(Circuit(interior), entangler, tol))
    return replace(r, circuit=Circuit([first, run, last], merged.phase))


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


def _expanded(skeleton: Circuit) -> Circuit:
    """The circuit with every template run replaced by fresh copies of its elements."""
    elements: list = []
    for elem in skeleton.elements:
        if isinstance(elem, _Run):
            elements += [LocalPair(e.a.copy(), e.b.copy()) if isinstance(e, LocalPair) else e
                         for e in elem.elements]
        else:
            elements.append(elem)
    return Circuit(elements, skeleton.phase)


def synthesize(target: np.ndarray, entangler: np.ndarray,
               tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Circuit, SynthesisReport]:
    """Compile a target unitary into local layers plus entangler applications.

    The target's canonical blocks are emitted in application order c3,
    c2, c1 with the fixed interleavers from the three-block rewriting;
    a block whose coefficient snaps to 0 or pi costs no application.
    The result is verified against the target before returning, with the
    resource interior's cached product, and then expanded.
    """
    dec = kak_decompose(target, tol)
    entangler = np.asarray(entangler, dtype=complex)
    resource = _prepared_resource(entangler.shape, entangler.tobytes(), tol)

    c1, c2, c3 = snap_vector(dec.c, tol.snap_tol)
    # Application order per the three-block form: c3 block, k_y,
    # c2 block, k_x k_y^dag, c1 block, k1 k_x^dag; a block at angle 0 or
    # pi is one local layer and merges with its neighbors.
    elements, phase = [dec.k2], dec.phase
    for c, interleaver in ((c3, LocalPair(KY_FACTOR, KY_FACTOR)),
                           (c2, LocalPair(KX_KY_DAG, KX_KY_DAG)),
                           (c1, LocalPair(dec.k1.a @ KX_DAG, dec.k1.b @ KX_DAG))):
        block = synth_zz_block(c, resource)
        elements += block.elements
        phase *= block.phase
        elements.append(interleaver)

    skeleton = merge_locals(Circuit(elements, phase))

    residual = phase_distance(evaluate(skeleton, entangler, tol), target)
    if residual >= tol.verify_tol:
        raise ArithmeticError(f"synthesis verification failed: residual {residual:g}")
    circuit = _expanded(skeleton)

    report = SynthesisReport(resource.gamma, resource.apps_per_unit, resource.reps,
                             entangler_count=circuit.entangler_count,
                             local_count=circuit.local_count, residual=residual)
    assert report.entangler_count <= report.bound
    return circuit, report


def efficient_as_cnot(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether Controlled-u shares the CNOT gate's uniform bound of 6.

    True exactly on the upper half [pi/4, pi/2] of the Controlled-U
    coordinate interval.
    """
    coord = controlled_u_gamma(u, tol)
    return coord >= np.pi / 4 - tol.snap_tol
