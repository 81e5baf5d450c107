#!/usr/bin/env python3
"""Print a sha256 of synthesize's output over each API workload's count prefix.

    PYTHONPATH=src python scripts/output_digest.py --seed 3 7

The ops are perfbench/corpus.py's make_op for the workloads that call
synthesize directly (haar_cnot, haar_weak, mixed_entangler), over the
prefix perfbench/run.py takes its count means on. Each digest covers the
bytes of every emitted local layer, the order of layers and applications,
the circuit phase and every report field. A change that keeps these
digests emits the same bits. Bits depend on the numpy/BLAS build, so
compare digests taken on one machine.
"""

import os

# One BLAS thread before numpy loads, as perfbench/run.py sets it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

from gatesynth import LocalPair, synthesize  # noqa: E402

# perfbench/run.py's count_ops of each API workload.
COUNT_OPS = {"haar_cnot": 512, "haar_weak": 512, "mixed_entangler": 2048}


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for i in range(COUNT_OPS[workload]):
        op = corpus.make_op(workload, seed, i)
        circuit, report = synthesize(op.target, op.entangler)
        for elem in circuit.elements:
            if isinstance(elem, LocalPair):
                h.update(b"L" + elem.a.tobytes() + elem.b.tobytes())
            else:
                h.update(b"E")
        h.update(np.complex128(circuit.phase).tobytes())
        h.update(repr(dataclasses.astuple(report)).encode())
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[3])
    args = parser.parse_args(argv)
    for seed in args.seed:
        for workload in COUNT_OPS:
            print(f"{workload} seed {seed} ops {COUNT_OPS[workload]} "
                  f"sha256:{digest(workload, seed)}")


if __name__ == "__main__":
    main()
