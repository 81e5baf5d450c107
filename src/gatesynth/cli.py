"""Command-line front end: synth, classify, verify."""

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

from .compiler import synthesize, upper_bound
from .gates import resolve_descriptor, resolve_gate
from .kak import GateClass, classify, kak_decompose, snap_vector
from .matcore import DEFAULT_TOL, ToleranceConfig, evaluate, phase_distance
from .serialize import CircuitDocument, emit_circuit_document, parse_circuit_document

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _tolerances(args) -> ToleranceConfig:
    if getattr(args, "tol", None) is None:
        return DEFAULT_TOL
    return ToleranceConfig(verify_tol=args.tol)


def _run_synth(args) -> int:
    tol = _tolerances(args)
    target, _ = resolve_gate(args.target, tol)
    entangler, entangler_desc = resolve_gate(args.entangler, tol)
    circuit, report = synthesize(target, entangler, tol)
    doc = CircuitDocument(
        entangler=entangler_desc,
        circuit=circuit,
        tolerances=tol,
        report=asdict(report),
    )
    text = emit_circuit_document(doc)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}: entangler_count={report.entangler_count} "
              f"local_count={report.local_count} residual={_fmt(report.residual)}")
    else:
        print(text)
    return EXIT_OK


def _run_classify(args) -> int:
    tol = _tolerances(args)
    gate, _ = resolve_gate(args.gate, tol)
    dec = kak_decompose(gate, tol)
    kind = classify(dec.c, tol)
    # Snapped, as every decision reads it: roundoff never leaves the chamber.
    print(f"canonical: ({', '.join(map(_fmt, snap_vector(dec.c, tol.snap_tol)))})")
    print(f"class: {kind.value}")
    if kind is GateClass.ENTANGLING:
        report = upper_bound(gate, dec, tol)
        print(f"gamma: {_fmt(report.gamma)}")
        print(f"apps_per_unit: {report.apps_per_unit}")
        print(f"n: {report.n}")
        print(f"bound: {report.bound}")
    return EXIT_OK


def _run_verify(args) -> int:
    try:
        text = Path(args.circuit).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read circuit document {args.circuit}: {exc}") from exc
    doc = parse_circuit_document(text)
    tol = doc.tolerances
    entangler = resolve_descriptor(doc.entangler, tol)
    target, _ = resolve_gate(args.target, tol)
    residual = phase_distance(evaluate(doc.circuit, entangler, tol), target)
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
    p_synth.add_argument("--tol", type=float, help="verification tolerance override")
    p_synth.add_argument("--out", help="write the circuit document here instead of stdout")

    p_classify = sub.add_parser("classify", help="canonical vector, class and bound")
    p_classify.add_argument("--gate", required=True, help="gate to classify")
    p_classify.add_argument("--tol", type=float, help="verification tolerance override")

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
