#!/usr/bin/env python3
"""Print three sha256 digests of the program's output over each workload's count prefix.

    PYTHONPATH=src python scripts/output_digest.py --seed 3 7

The ops are perfbench/corpus.py's make_op, over the prefix perfbench/run.py
takes its count means on. Each line holds three digests:

- layers: for the workloads that call synthesize directly (haar_cnot,
  haar_weak, mixed_entangler) the bytes of every emitted local layer, the
  order of layers and applications, the circuit phase and every report
  field. For cli_docs, per op, the exit code, stdout and stderr of `synth`
  on the op's MATRIX target file and of `verify` on the document synth
  wrote (both run in process, the temporary directory masked), and the
  document's bytes; each op's document is written over the previous op's.
- vectors: the bytes of the canonical vectors of each op's target and
  entangler, as the program reads them.
- counts: each op's (entangler_count, local_count).

A change that keeps the layer digests emits the same bits. Layer and vector
bits depend on the numpy/BLAS build, so compare those digests taken on one
machine. Counts come from snapped vectors and do not move with the build.
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
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

from gatesynth import cli, kak_decompose, synthesize  # noqa: E402
from gatesynth.gates import resolve_gate  # noqa: E402

# perfbench/run.py's count_ops of each workload.
COUNT_OPS = {"haar_cnot": 512, "haar_weak": 512, "mixed_entangler": 2048, "cli_docs": 224}


def _cli_run(h, argv: list, tmp: str) -> int:
    """Run one CLI command in process and hash its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".replace(tmp, "<tmp>").encode())
    return code


def _vectors_update(h, target: np.ndarray, entangler: np.ndarray) -> None:
    for dec in kak_decompose(np.array([target, entangler])):
        h.update(np.array(dec.c).tobytes())


def cli_digest(seed: int) -> tuple[str, str, str]:
    """synth then verify, as perfbench/run.py's CliOps runs them, per op: each
    document is written over the previous one, so a stale tail would show."""
    layers, vectors, counts = (hashlib.sha256() for _ in range(3))
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "circuit.json"
        for i in range(COUNT_OPS["cli_docs"]):
            op = corpus.make_op("cli_docs", seed, i)
            target_file = Path(tmp) / op.target_file
            target_file.write_text(corpus.matrix_text(op.target))
            target = f"MATRIX({target_file})"
            _vectors_update(vectors, resolve_gate(target)[0], resolve_gate(op.gate_name)[0])
            synth = ["synth", "--target", target, "--entangler", op.gate_name, "--out", str(doc)]
            if _cli_run(layers, synth, tmp) == 0:
                _cli_run(layers, ["verify", "--circuit", str(doc), "--target", target], tmp)
                text = doc.read_bytes()  # the next op writes over it
                layers.update(text)
                report = json.loads(text)["report"]
                counts.update(f"{report['entangler_count']},{report['local_count']};".encode())
            else:
                counts.update(b"failed;")
            target_file.unlink()
    return layers.hexdigest(), vectors.hexdigest(), counts.hexdigest()


def digest(workload: str, seed: int) -> tuple[str, str, str]:
    """The layer, vector and count digests of a workload's count prefix."""
    if workload == "cli_docs":
        return cli_digest(seed)
    layers, vectors, counts = (hashlib.sha256() for _ in range(3))
    for i in range(COUNT_OPS[workload]):
        op = corpus.make_op(workload, seed, i)
        circuit, report = synthesize(op.target, op.entangler)
        stack, index, kinds = circuit.expand()
        rows = iter(index)
        for local in kinds:
            if local:
                k = next(rows)
                layers.update(b"L" + stack[k, 0].tobytes() + stack[k, 1].tobytes())
            else:
                layers.update(b"E")
        layers.update(np.complex128(circuit.phase).tobytes())
        layers.update(repr(dataclasses.astuple(report)).encode())
        _vectors_update(vectors, op.target, op.entangler)
        counts.update(f"{report.entangler_count},{report.local_count};".encode())
    return layers.hexdigest(), vectors.hexdigest(), counts.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[3])
    args = parser.parse_args(argv)
    for seed in args.seed:
        for workload in COUNT_OPS:
            layers, vectors, counts = digest(workload, seed)
            print(f"{workload} seed {seed} ops {COUNT_OPS[workload]} layers sha256:{layers} "
                  f"vectors sha256:{vectors} counts sha256:{counts}")


if __name__ == "__main__":
    main()
