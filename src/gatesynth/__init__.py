"""Exact two-qubit gate synthesis from a fixed entangling gate and local gates."""

from .matcore import zz_interaction
from .kak import kak_decompose
from .compiler import efficient_as_cnot, synthesize, upper_bound

__version__ = "0.1.0"
