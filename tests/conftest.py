import json

import numpy as np
import pytest

from gatesynth.matcore import Circuit
from gatesynth.serialize import encode_matrix
from gatesynth.zzsynth import ZzResource, ZzTemplate, _Run


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


def expanded(circuit: Circuit) -> Circuit:
    """The circuit with each template run replaced by its elements.

    Circuit.entangler_count does not see inside a run, so a count must be
    read from this.
    """
    elements = []
    for elem in circuit.elements:
        elements += elem.expanded() if isinstance(elem, _Run) else [elem]
    return Circuit(elements, circuit.phase)


def repeated(template: ZzTemplate, m: int) -> ZzResource:
    """template.resource(m) with its run expanded: the m-fold unit as a plain circuit."""
    r = template.resource(m)
    return ZzResource(expanded(r.circuit), r.gamma, r.apps_per_unit)


def matrix_json(m: np.ndarray) -> str:
    """A matrix file's text: row-major JSON array of [re, im] pairs."""
    return json.dumps(encode_matrix(m))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
