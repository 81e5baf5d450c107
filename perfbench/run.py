#!/usr/bin/env python3
"""Closed-loop benchmark of gatesynth: one caller, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload mixed_entangler --seed 1 --seconds 20 --trace 0

Run from the repository root. One caller sends the next target only after
the previous one returns. Op i is generated from its own seeded stream
just before it is sent, so no op repeats. Op times are scaled by a
reference kernel timed between ops (refkernel.py). Every output is
checked by the benchmark's own evaluator (check.py). With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run (tracer.py). Lines before it, starting with '#', give every
metric with its unit, the machine, the input digest and any failure.
Records and spans go to perfbench/out/.
"""

import os

# One BLAS thread, set before numpy loads, so the load never uses more
# threads than the machine has cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import corpus
import refkernel
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

END_TO_END = (
    ("targets_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("verified_share", "ratio"),
    ("entangler_count_mean", "count"),
    ("local_count_mean", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# End-to-end times are process CPU time per op, scaled by the reference
# kernel timed next to it (refkernel.py). Wall time also holds preemption
# and writeback stalls, and on a shared machine the speed of a CPU changes
# for minutes at a time; neither is the program's, and either spreads
# run-to-run figures past the largest bound the benchmark may use. CPU
# time leaves out time the program spends blocked on I/O (cli_docs reads
# and writes files). Unscaled CPU and wall figures are printed alongside.
# latency_tail_us is the p95 of each fifth of the run, median of the five.
TAIL_PCT = 95.0
TAIL_SLICES = 5
SETUP_PROBES = 21     # setup_s is the median over this many fresh interpreters
WARMUP_OPS = 16
TRACE_CHUNK_S = 0.5   # a traced run alternates this long untraced, twice as long traced


@dataclass(frozen=True)
class Workload:
    count_ops: int     # prefix over which counts are taken; every run completes it
    cli: bool = False


WORKLOADS = {
    "haar_cnot": Workload(count_ops=512),
    "haar_weak": Workload(count_ops=512),
    "mixed_entangler": Workload(count_ops=2048),
    "cli_docs": Workload(count_ops=224, cli=True),
}


def import_program():
    """Import gatesynth from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "gatesynth" / "__init__.py").is_file():
        print(f"error: no gatesynth sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    gatesynth = importlib.import_module("gatesynth")
    importlib.import_module("gatesynth.cli")
    if Path(gatesynth.__file__).resolve().parent != SRC / "gatesynth":
        print(f"error: imported gatesynth from {gatesynth.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return gatesynth


class _Sink:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class ApiOps:
    """One op is synthesize(target, entangler) through the public API."""

    def __init__(self, gatesynth):
        self.gs = gatesynth

    def prepare(self, op) -> None:
        pass

    def __call__(self, i, op):
        return self.gs.synthesize(op.target, op.entangler)

    def check(self, op, result) -> check.Verdict:
        circuit, report = result
        return check.check_circuit(circuit, report, op)

    def probe_request(self, op, workdir: Path) -> dict:
        return {"target": corpus.matrix_text(op.target),
                "entangler": corpus.matrix_text(op.entangler)}


class CliOps:
    """One op is `gatesynth synth` then `gatesynth verify`, in process.

    The op's target file is written before the call and removed after
    its check, both outside the timed call.
    """

    def __init__(self, gatesynth, workdir: Path):
        self.cli = gatesynth.cli
        self.workdir = workdir
        self.doc = workdir / "circuit.json"

    def argv(self, op, doc: Path) -> tuple[list, list]:
        target = f"MATRIX({self.workdir / op.target_file})"
        return (["synth", "--target", target, "--entangler", op.gate_name, "--out", str(doc)],
                ["verify", "--circuit", str(doc), "--target", target])

    def prepare(self, op) -> None:
        (self.workdir / op.target_file).write_text(corpus.matrix_text(op.target))

    def __call__(self, i, op):
        synth, verify = self.argv(op, self.doc)
        code = self.cli.main(synth)
        return code, self.cli.main(verify) if code == 0 else None

    def check(self, op, result) -> check.Verdict:
        try:
            if result != (0, 0):
                return check.Verdict(False, reason=f"exit codes synth, verify = {result}")
            return check.check_document(self.doc.read_text(), op)
        finally:
            (self.workdir / op.target_file).unlink(missing_ok=True)

    def probe_request(self, op, workdir: Path) -> dict:
        self.prepare(op)
        return {"cli": list(self.argv(op, workdir / "probe-circuit.json"))}


@dataclass
class LoopResult:
    origin: float = field(default_factory=time.perf_counter)
    latencies: list = field(default_factory=list)
    cpu: list = field(default_factory=list)          # process CPU time per op
    ref: list = field(default_factory=list)          # reference kernel time before each op
    starts: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    prefix_counts: list = field(default_factory=list)   # (entanglers, locals) of verified prefix ops
    failures: list = field(default_factory=list)
    inputs: object = field(default_factory=hashlib.sha256)   # hash of every attempted op
    prefix_inputs: str = ""                          # digest of the count prefix

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def scaled(self) -> list:
        """CPU time per op at the reference speed."""
        return list(np.asarray(self.cpu) * refkernel.scale(self.ref))

    def targets_per_s(self, times: list) -> float:
        """Verified ops per second of `times` (per-op wall or CPU time) in the program's calls."""
        return (self.attempted - self.failed) / sum(times)

    def tail(self, times: list) -> tuple[float, int]:
        """(p95 of times, fewest ops beyond it in a slice): median over TAIL_SLICES time slices."""
        span = max(self.starts[-1], 1e-9)
        slices = [[] for _ in range(TAIL_SLICES)]
        for start, dt in zip(self.starts, times):
            slices[min(int(start / span * TAIL_SLICES), TAIL_SLICES - 1)].append(dt)
        slices = [s for s in slices if s]
        value = statistics.median(float(np.percentile(s, TAIL_PCT)) for s in slices)
        return value, min(int(len(s) * (1 - TAIL_PCT / 100)) for s in slices)


def closed_loop(make_op, runner, call, seconds: float, min_ops: int,
                res: LoopResult | None = None, idle=None) -> LoopResult:
    """Send op 0, 1, 2, ... one after another for `seconds`.

    Keeps going past the deadline until min_ops are done, but never past
    twice the deadline. Only the call is timed; generating an op, the
    reference kernel, writing its inputs, checking its output and
    `idle(ops done)` run between calls. Passing `res` continues an earlier
    loop at its next op.
    """
    res = res if res is not None else LoopResult()
    clock = time.perf_counter
    t_start = clock()
    deadline, hard_stop = t_start + seconds, t_start + 2 * seconds
    while (res.attempted < min_ops and clock() < hard_stop) or clock() < deadline:
        i = res.attempted
        op = make_op(i)
        corpus.digest_update(res.inputs, op)
        res.ref.append(refkernel.run())
        runner.prepare(op)
        c0, t0 = time.process_time(), clock()
        try:
            result = call(i, op)
        except Exception as exc:  # a raising op is a failed op
            dt, dc = clock() - t0, time.process_time() - c0
            verdict = check.Verdict(False, reason=f"{type(exc).__name__}: {exc}")
        else:
            dt, dc = clock() - t0, time.process_time() - c0
            try:
                verdict = runner.check(op, result)
            except (KeyError, TypeError, ValueError, AttributeError, OSError) as exc:
                verdict = check.Verdict(False, reason=f"output unreadable: {exc!r}")
        res.starts.append(t0 - res.origin)
        res.latencies.append(dt)
        res.cpu.append(dc)
        res.ok.append(verdict.ok)
        if not verdict.ok and len(res.failures) < 20:
            res.failures.append({"op": i, "label": op.label, "reason": verdict.reason})
        if i < min_ops and verdict.ok:
            res.prefix_counts.append((verdict.entanglers, verdict.locals))
        if i + 1 == min_ops:
            res.prefix_inputs = res.inputs.hexdigest()
        if idle is not None:
            idle(res.attempted)
    return res


class SetupProbes:
    """setup_s: fresh interpreters that import gatesynth and finish one verified op.

    The probes run between ops, spread evenly over the measurement, and
    each is scaled, like an op, by the reference kernel times of the ops
    around it. One untimed probe first warms the file cache.
    """

    def __init__(self, request: dict, workdir: Path, seconds: float):
        request_path = workdir / "probe-request.json"
        request_path.write_text(json.dumps(request))
        self.cmd = [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), str(request_path)]
        self.interval = seconds / SETUP_PROBES
        self.times, self.errors = [], []   # (ops done before the probe, seconds)
        self._probe()
        self.next_at = time.perf_counter()

    def _probe(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, cwd=ROOT)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            self.errors.append(f"probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return dt

    def __call__(self, done: int) -> None:
        """Run the next probe if it is due."""
        if len(self.times) < SETUP_PROBES and time.perf_counter() >= self.next_at:
            self.times.append((done, self._probe()))
            self.next_at += self.interval

    def medians(self, loop: LoopResult) -> tuple[float, float]:
        """(scaled, unscaled) median probe time."""
        while len(self.times) < SETUP_PROBES:
            self.times.append((loop.attempted, self._probe()))
        scale = refkernel.scale(loop.ref)
        return (statistics.median(dt * scale[max(done, 1) - 1] for done, dt in self.times),
                statistics.median(dt for _, dt in self.times))


def machine_note() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or the pinned setting."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def run(args) -> int:
    gatesynth = import_program()
    spec = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    def stream(kind):
        return lambda i: corpus.make_op(args.workload, args.seed, i, kind)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "count_ops": spec.count_ops, "machine": machine_note()}
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        runner = CliOps(gatesynth, workdir) if spec.cli else ApiOps(gatesynth)
        with contextlib.redirect_stdout(_Sink()):   # the CLI prints per call
            warmup = stream(corpus.WARMUP)
            for i in range(WARMUP_OPS):
                op = warmup(i)
                runner.prepare(op)
                with contextlib.suppress(Exception):
                    runner.check(op, runner(i, op))
            gc.collect()
            gc.freeze()
            if args.trace:
                loops, metrics = _traced(stream, runner, spec, args, record)
                probe_errors = []
            else:
                probes = SetupProbes(runner.probe_request(stream(corpus.PROBE)(0), workdir),
                                     workdir, args.seconds)
                loops = [closed_loop(stream(corpus.MEASURED), runner, runner, args.seconds,
                                     spec.count_ops, idle=probes)]
                metrics = _end_to_end(loops[0], probes.medians(loops[0]), record)
                probe_errors = probes.errors

    measured = loops[-1]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    record.update({"inputs_sha256": measured.inputs.hexdigest(),
                   "prefix_inputs_sha256": measured.prefix_inputs,
                   "attempted": attempted, "failed": failed, "setup_probe_errors": probe_errors,
                   "failures": [f for loop in loops for f in loop.failures], "metrics": metrics})
    units = dict(END_TO_END) | {name: unit for name, unit, _ in tracer.PER_LAYER_METRICS}
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"first {spec.count_ops} ops sha256:{measured.prefix_inputs}, "
          f"all {measured.attempted} ops sha256:{record['inputs_sha256']}")
    print(f"# machine {json.dumps(record['machine'])}")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(f"# fail_share {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for line in record.get("notes", []):
        print(f"# {line}")
    for failure in record["failures"] + [{"reason": e} for e in probe_errors]:
        print(f"# FAILED {json.dumps(failure)}")
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    result = {"correct": failed == 0 and not probe_errors, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def _end_to_end(loop: LoopResult, setup: tuple[float, float], record: dict) -> dict:
    scaled = loop.scaled()
    tail, beyond = loop.tail(scaled)
    ents, locs = zip(*loop.prefix_counts) if loop.prefix_counts else ((0,), (0,))

    def figures(times):
        return (f"targets_per_s {loop.targets_per_s(times):.6g} 1/s, latency_p50_us "
                f"{statistics.median(times) * 1e6:.6g} us, latency_tail_us "
                f"{loop.tail(times)[0] * 1e6:.6g} us")
    record["notes"] = [
        f"times are process CPU time, without I/O wait, at the speed where the reference "
        f"kernel takes {refkernel.REF_US:g} us; it took {statistics.median(loop.ref) * 1e6:.1f} us "
        f"(median)",
        f"unscaled CPU time: {figures(loop.cpu)}, setup_s {setup[1]:.6g} s",
        f"wall time: {figures(loop.latencies)}",
        f"latency_tail_us is p{TAIL_PCT:g} per fifth of {loop.attempted} ops "
        f"(at least {beyond} beyond it in each fifth)",
        f"count means over the first {len(ents)} verified ops",
        f"setup_s is the median of {SETUP_PROBES} probes spread over the run",
        "targets_per_s counts time inside the program only; checks run between ops"]
    return {
        "targets_per_s": loop.targets_per_s(scaled),
        "latency_p50_us": statistics.median(scaled) * 1e6,
        "latency_tail_us": tail * 1e6,
        "verified_share": (loop.attempted - loop.failed) / loop.attempted,
        "entangler_count_mean": sum(ents) / len(ents),
        "local_count_mean": sum(locs) / len(locs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup[0],
    }


def _traced(stream, runner, spec: Workload, args, record: dict):
    """Alternate untraced and traced chunks, so machine drift hits both alike.

    The traced side sends the measured ops 0, 1, 2, ..., so its counts
    match an untraced run's; the untraced side, a third of the time, sends
    ops of a stream of its own and gives the baseline for the overhead.
    """
    plain, traced = LoopResult(), LoopResult()
    trace = tracer.Tracer(spec.count_ops)
    run_traced = trace.traced(runner)
    plain_ops, traced_ops = stream(corpus.UNTRACED), stream(corpus.MEASURED)
    start = time.perf_counter()
    while (time.perf_counter() < start + args.seconds
           or (traced.attempted < spec.count_ops and time.perf_counter() < start + 2 * args.seconds)):
        closed_loop(plain_ops, runner, runner, TRACE_CHUNK_S, 0, plain)
        trace.install()
        try:
            closed_loop(traced_ops, runner, run_traced, 2 * TRACE_CHUNK_S, 0, traced)
        finally:
            trace.uninstall()
    traced.prefix_inputs = _prefix_digest(traced_ops, spec.count_ops)
    # Spans are wall-clock, so the overhead baseline is too.
    untraced_tps = plain.targets_per_s(plain.latencies)
    traced_tps = traced.targets_per_s(traced.latencies)
    metrics = trace.metrics(untraced_tps, traced_tps)
    trace.write(OUT / f"spans-{args.workload}.jsonl")
    untraced_op_us = sum(plain.latencies) / plain.attempted * 1e6
    layer_sum_us = metrics["trace.layer_self_sum_us"]
    record["notes"] = [
        f"untraced {untraced_tps:.6g} targets/s over {plain.attempted} ops, traced "
        f"{traced_tps:.6g} targets/s over {trace.op_count} ops: overhead share "
        f"{1 - traced_tps / untraced_tps:.4f} of the untraced rate",
        f"layer self times sum to {layer_sum_us:.1f} us/op against {untraced_op_us:.1f} us "
        f"untraced: gap {layer_sum_us - untraced_op_us:.1f} us, "
        f"tracing overhead {metrics['op.us'] - untraced_op_us:.1f} us/op",
        f"counts over the first {min(spec.count_ops, traced.attempted)} traced ops",
    ] + [f"wrap point missing: {m}" for m in sorted(set(trace.missing))]
    return [plain, traced], metrics


def _prefix_digest(make_op, count: int) -> str:
    h = hashlib.sha256()
    for i in range(count):
        corpus.digest_update(h, make_op(i))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
