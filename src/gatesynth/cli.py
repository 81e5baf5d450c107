"""Command-line front end: synth, classify, verify."""

import argparse
import functools
import os
import stat
import sys
from dataclasses import fields
from pathlib import Path

from .compiler import synthesize, upper_bound
from .gates import resolve_descriptor, resolve_gate
from .kak import GateClass, classify, kak_decompose, snap_vector
from .matcore import DEFAULT_TOL, ToleranceConfig, evaluate, phase_distance
from .serialize import (CircuitDocument, emit_circuit_document, encode_matrix,
                        parse_circuit_document)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_over(path: str, text: str) -> None:
    """Write text over the file at path in place, then cut a regular file to
    the length written: the bytes, encoding and new-file mode of
    Path.write_text, without its O_TRUNC, which on ext4 frees the file's
    blocks and reallocates them on every overwrite. Not atomic, not fsynced;
    a device such as /dev/null is written but not cut."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _run_synth(args) -> int:
    tol = ToleranceConfig(args.tol)
    target, _ = resolve_gate(args.target)
    entangler, entangler_desc = resolve_gate(args.entangler)
    if "matrix" in entangler_desc:  # the file's entries, written back as floats
        entangler_desc = {"matrix": encode_matrix(entangler)}
    circuit, report = synthesize(target, entangler, tol)
    doc = CircuitDocument(
        entangler=entangler_desc,
        circuit=circuit,
        tolerances=tol,
        report={f.name: getattr(report, f.name) for f in fields(report)},  # no deep copy
    )
    text = emit_circuit_document(doc)
    if args.out:
        try:
            _write_over(args.out, text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write circuit document {args.out}: {exc}") from exc
        print(f"wrote {args.out}: entangler_count={report.entangler_count} "
              f"local_count={report.local_count} residual={_fmt(report.residual)}")
    else:
        print(text)
    return EXIT_OK


def _run_classify(args) -> int:
    tol = ToleranceConfig(args.tol)
    gate, _ = resolve_gate(args.gate)
    dec = kak_decompose(gate, tol)
    kind = classify(dec.c)
    # Snapped, as every decision reads it: roundoff never leaves the chamber.
    print(f"canonical: ({', '.join(map(_fmt, snap_vector(dec.c)))})")
    print(f"class: {kind.value}")
    if kind is GateClass.ENTANGLING:
        report = upper_bound(gate, tol, dec=dec)
        print(f"gamma: {_fmt(report.gamma)}")
        print(f"apps_per_unit: {report.apps_per_unit}")
        print(f"n: {report.n}")
        print(f"bound: {report.bound}")
        # The risk synth reports when the final check fails: the entangler's
        # unitarity error amplified over the bound's applications.
        print(f"amplified_unitarity_error: {report.bound * dec.unitarity_error:.2g}")
    return EXIT_OK


def _run_verify(args) -> int:
    target, _ = resolve_gate(args.target)
    try:  # every message about the document names it
        doc = parse_circuit_document(Path(args.circuit).read_text())
        entangler = resolve_descriptor(doc.entangler)
        doc.check_phase(entangler)  # before evaluating: a phase off the window is invalid input
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read circuit document {args.circuit}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{args.circuit}: {exc}") from exc
    tol = doc.tolerances
    residual = phase_distance(evaluate(doc.circuit, entangler), target)
    verdict = "PASS" if residual < tol.verify_tol else "FAIL"
    print(f"residual: {_fmt(residual)}")
    print(f"verdict: {verdict} (verify_tol {_fmt(tol.verify_tol)})")
    return EXIT_OK if verdict == "PASS" else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: main() may run many times in one."""
    parser = argparse.ArgumentParser(
        prog="gatesynth",
        description="Compile two-qubit unitaries into a fixed entangling gate plus local gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a target from an entangler")
    p_synth.add_argument("--target", required=True,
                         help="target gate (named, CPHASE(..), ZZ(..), MATRIX(path))")
    p_synth.add_argument("--entangler", required=True, help="entangling resource gate")
    p_synth.add_argument("--tol", type=float, default=DEFAULT_TOL.verify_tol,
                         help="verification tolerance override")
    p_synth.add_argument("--out", help="write the circuit document here instead of stdout")

    p_classify = sub.add_parser("classify", help="canonical vector, class and bound")
    p_classify.add_argument("--gate", required=True, help="gate to classify")
    p_classify.add_argument("--tol", type=float, default=DEFAULT_TOL.verify_tol,
                            help="verification tolerance override")

    p_verify = sub.add_parser("verify", help="re-verify an emitted circuit document")
    p_verify.add_argument("--circuit", required=True, help="path to a circuit document")
    p_verify.add_argument("--target", required=True, help="gate the circuit should equal")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"synth": _run_synth, "classify": _run_classify, "verify": _run_verify}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
