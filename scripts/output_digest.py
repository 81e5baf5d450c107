#!/usr/bin/env python3
"""Print a sha256 of the program's output over each workload's count prefix.

    PYTHONPATH=src python scripts/output_digest.py --seed 3 7

The ops are perfbench/corpus.py's make_op, over the prefix perfbench/run.py
takes its count means on. For the workloads that call synthesize directly
(haar_cnot, haar_weak, mixed_entangler) a digest covers the bytes of every
emitted local layer, the order of layers and applications, the circuit
phase and every report field. For cli_docs it covers, per op, the exit
code, stdout and stderr of `synth` on the op's MATRIX target file and of
`verify` on the document synth wrote (both run in process, the temporary
directory masked), and the document's bytes; each op's document is written
over the previous op's. A change that keeps these digests emits the same
bits. Bits depend on the numpy/BLAS build, so compare digests taken on one
machine.
"""

import os

# One BLAS thread before numpy loads, as perfbench/run.py sets it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

from gatesynth import LocalPair, cli, synthesize  # noqa: E402

# perfbench/run.py's count_ops of each workload.
COUNT_OPS = {"haar_cnot": 512, "haar_weak": 512, "mixed_entangler": 2048, "cli_docs": 224}


def _cli_run(h, argv: list, tmp: str) -> int:
    """Run one CLI command in process and hash its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".replace(tmp, "<tmp>").encode())
    return code


def cli_digest(seed: int) -> str:
    """synth then verify, as perfbench/run.py's CliOps runs them, per op: each
    document is written over the previous one, so a stale tail would show."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "circuit.json"
        for i in range(COUNT_OPS["cli_docs"]):
            op = corpus.make_op("cli_docs", seed, i)
            target_file = Path(tmp) / op.target_file
            target_file.write_text(corpus.matrix_text(op.target))
            target = f"MATRIX({target_file})"
            synth = ["synth", "--target", target, "--entangler", op.gate_name, "--out", str(doc)]
            if _cli_run(h, synth, tmp) == 0:
                _cli_run(h, ["verify", "--circuit", str(doc), "--target", target], tmp)
                h.update(doc.read_bytes())  # the next op writes over it
            target_file.unlink()
    return h.hexdigest()


def digest(workload: str, seed: int) -> str:
    if workload == "cli_docs":
        return cli_digest(seed)
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
