"""Top-level synthesis pipeline and the uniform application bound.

A target decomposes into at most three ZZ blocks interleaved with fixed
local layers; each block costs two insertions of the amplified resource,
so the entangler count never exceeds zzsynth.uniform_bound. That bound
depends only on the entangler's canonical vector.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .blocksynth import controlled_u_gamma, synth_zz_block
from .kak import kak_decompose, snap_vector
from .matcore import (DEFAULT_TOL, SIGMA_X, Circuit, LocalPair,
                      ToleranceConfig, evaluate, phase_distance)
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


@functools.lru_cache(maxsize=RESOURCE_MEMO_SIZE)
def _prepared_resource(shape: tuple, data: bytes, tol: ToleranceConfig) -> ZzResource:
    """prepare_resource for an entangler given by its shape and complex128 bytes.

    The resource depends on the entangler alone, so synthesize prepares it
    once per entangler and tolerance set. Errors are not cached. Callers
    only read the result: every layer synthesize emits is a fresh array.
    """
    return prepare_resource(np.frombuffer(data, dtype=complex).reshape(shape), tol)


# Runs fused per stacked batch; bounds the stacked copies of the layers
# for circuits near the application cap.
_RUN_CHUNK = 4096


def _fused_runs(layers: list, starts: list) -> np.ndarray:
    """Products, stacked (qubit, run, 2, 2), of the runs of adjacent local layers.

    Run r is layers[starts[r]:starts[r + 1]], each layer left-multiplying
    the product so far. Step t multiplies layer t of every run that long,
    longest runs first, so one stacked matmul per step does the same 2x2
    products in the same order as a loop over the layers.
    """
    ends = starts + [len(layers)]
    parts = []
    for lo in range(0, len(starts), _RUN_CHUNK):
        hi = min(lo + _RUN_CHUNK, len(starts))
        chunk = layers[ends[lo]:ends[hi]]
        mats = np.array([[e.a for e in chunk], [e.b for e in chunk]], dtype=complex)
        lengths = np.diff(ends[lo:hi + 1])
        order = np.argsort(-lengths, kind="stable")
        first = np.subtract(ends[lo:hi], ends[lo])[order]
        at_least = np.cumsum(np.bincount(lengths)[::-1])[::-1]   # [t]: runs of length >= t
        out = mats[:, first]
        for t in range(1, len(at_least) - 1):
            k = at_least[t + 1]
            out[:, :k] = mats[:, first[:k] + t] @ out[:, :k]
        parts.append(out[:, np.argsort(order)])
    return np.concatenate(parts, axis=1)


def merge_locals(circuit: Circuit) -> Circuit:
    """Fuse adjacent local layers and move scalar factors into the phase.

    Every surviving local pair is renormalized to unit determinant per
    qubit, with the extracted scalars folded into the circuit phase, so
    output layers are canonical and no two local layers are adjacent.
    """
    merged: list = []
    layers: list = []
    starts: list = []   # index in layers of the first layer of each run
    slots: list = []    # index in merged of each run's fused layer
    for elem in circuit.elements:
        if not isinstance(elem, LocalPair):
            merged.append(elem)
            continue
        if not slots or slots[-1] != len(merged) - 1:
            starts.append(len(layers))
            slots.append(len(merged))
            merged.append(elem)
        layers.append(elem)
    phase = circuit.phase
    if not layers:
        return Circuit(merged, phase)
    fused = _fused_runs(layers, starts)
    # Stacked det, sqrt and divide: the same per-matrix arithmetic as a
    # loop, without a LAPACK call per layer.
    scale = np.sqrt(np.linalg.det(fused))
    fused /= scale[..., None, None]
    for k, i in enumerate(slots):
        phase *= scale[0, k] * scale[1, k]
        merged[i] = LocalPair(fused[0, k], fused[1, k])
    return Circuit(merged, phase)


def synthesize(target: np.ndarray, entangler: np.ndarray,
               tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Circuit, SynthesisReport]:
    """Compile a target unitary into local layers plus entangler applications.

    The target's canonical blocks are emitted in application order c3,
    c2, c1 with the fixed interleavers from the three-block rewriting;
    blocks whose coefficient snaps to zero are omitted. The result is
    verified against the target before returning.
    """
    dec = kak_decompose(target, tol)
    entangler = np.asarray(entangler, dtype=complex)
    resource = _prepared_resource(entangler.shape, entangler.tobytes(), tol)

    c1, c2, c3 = snap_vector(dec.c, tol.snap_tol)
    k1, phase = dec.k1, dec.phase
    if c1 == np.pi:
        # A(pi e1) = i XX is local: fold it into k1 instead of a block.
        k1 = LocalPair(k1.a @ SIGMA_X, k1.b @ SIGMA_X)
        phase, c1 = 1j * phase, 0.0

    # Application order per the three-block form: c3 block, k_y,
    # c2 block, k_x k_y^dag, c1 block, k1 k_x^dag; identity-angle blocks
    # drop out and their neighbors merge.
    elements: list = [dec.k2]
    for c, interleaver in ((c3, LocalPair(KY_FACTOR, KY_FACTOR)),
                           (c2, LocalPair(KX_KY_DAG, KX_KY_DAG)),
                           (c1, LocalPair(k1.a @ KX_DAG, k1.b @ KX_DAG))):
        if c > 0:
            block = synth_zz_block(c, resource)
            elements += block.elements
            phase *= block.phase
        elements.append(interleaver)

    circuit = merge_locals(Circuit(elements, phase))

    residual = phase_distance(evaluate(circuit, entangler, tol), target)
    if residual >= tol.verify_tol:
        raise ArithmeticError(f"synthesis verification failed: residual {residual:g}")

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
