"""Exact two-qubit gate synthesis from a fixed entangling gate and local gates."""

from .matcore import (Circuit, CircuitElement, EntanglerApp, LocalPair,
                      ToleranceConfig, DEFAULT_TOL, evaluate, interaction,
                      phase_distance, tensor, zz_interaction)
from .kak import (CanonicalVector, GateClass, KakDecomposition, classify,
                  kak_decompose)
from .zzsynth import ZzResource, ZzTemplate, amplify, extract_zz, prepare_resource
from .blocksynth import (AxisAngle, BlockParams, block_params,
                         controlled_u_circuit, controlled_u_gamma,
                         synth_zz_block)
from .compiler import (SynthesisReport, efficient_as_cnot, merge_locals,
                       synthesize, upper_bound)

__version__ = "0.1.0"
