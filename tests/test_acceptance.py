"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on a passing run.
"""

import time

import numpy as np

from gatesynth.blocksynth import AxisAngle, block_params, controlled_u_circuit
from gatesynth.compiler import efficient_as_cnot, synthesize, upper_bound
from gatesynth.gates import CNOT, SQRT_SWAP, SWAP, cphase, phase_gate
from gatesynth.kak import kak_decompose, snap_angle
from gatesynth.matcore import evaluate, interaction, phase_distance, zz_interaction
from gatesynth.zzsynth import extract_zz

from conftest import (block_circuit, controlled_matrix, counted, dress, exact_template,
                      haar_unitary, reconstruct, unit_circuit)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_kak_roundtrip():
    rng = np.random.default_rng(20030616)
    start = time.perf_counter()
    worst = 0.0
    chamber_ok = True
    for _ in range(1000):
        u = haar_unitary(rng)
        d = kak_decompose(u)
        worst = max(worst, phase_distance(reconstruct(d), u))
        c1, c2, c3 = (snap_angle(x) for x in d.c)
        chamber_ok &= bool(np.pi - c2 >= c1 >= c2 >= c3 >= 0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and chamber_ok and elapsed < 5.0
    _verdict(1, ok, f"1000 Haar roundtrips, worst residual {worst:.3e}, "
                    f"chamber ordering {'held' if chamber_ok else 'violated'}, {elapsed:.2f}s")


def test_criterion_2_canonical_landmarks():
    cases = [
        ("CNOT", CNOT, (np.pi / 2, 0, 0)),
        ("SWAP", SWAP, (np.pi / 2, np.pi / 2, np.pi / 2)),
        ("SQRT_SWAP", SQRT_SWAP, (np.pi / 4, np.pi / 4, np.pi / 4)),
    ] + [(f"CPHASE({phi:.3f})", cphase(phi), (phi / 2, 0, 0))
         for phi in (np.pi / 5, np.pi / 2, 2 * np.pi / 3, np.pi)]
    worst = 0.0
    for _, gate, expected in cases:
        got = kak_decompose(gate).c
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    _verdict(2, worst < 1e-10, f"{len(cases)} landmark classes, worst coordinate error {worst:.3e}")


def test_criterion_3_extraction_corpus():
    rng = np.random.default_rng(5)
    triples = [(np.pi / 2, 0, 0), (np.pi / 2, np.pi / 2, 0), (np.pi / 3, np.pi / 4, 0),
               (np.pi / 2, np.pi / 4, 0), (np.pi / 3, np.pi / 4, np.pi / 6)]
    worst = 0.0
    ok = True
    for triple in triples:
        for _ in range(4):
            ent = dress(interaction(*triple), rng)
            r = extract_zz(ent)
            ok &= 0 < r.gamma <= np.pi / 2 + 1e-12
            circuit = unit_circuit(r)
            ok &= counted(circuit.elements)[0] <= 2
            worst = max(worst, phase_distance(evaluate(circuit, ent), zz_interaction(r.gamma)))
    ok &= worst < 1e-9
    _verdict(3, ok, f"extraction over 5 canonical classes x 4 dressings, "
                    f"worst evaluation error {worst:.3e}")


def test_criterion_4_block_identity_grid():
    worst_identity = 0.0
    worst_eval = 0.0
    count = 0
    for gamma in (np.pi / 4, np.pi / 3, 2 * np.pi / 5, np.pi / 2):
        template = exact_template(gamma)
        for c in (0.1, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2):
            if c > 2 * gamma:
                continue
            count += 1
            b, p, q = block_params(c, gamma)
            worst_identity = max(
                worst_identity,
                abs(p * p + q * q - 1),
                abs(np.sin(c / 2) - np.sin(gamma) * np.sin(b / 2)),
                abs(p * q - np.cos(b / 2) / (2 * np.cos(c / 2))),
            )
            got = evaluate(block_circuit(c, template), zz_interaction(gamma))
            worst_eval = max(worst_eval, phase_distance(got, zz_interaction(c)))
    ok = worst_identity < 1e-12 and worst_eval < 1e-9
    _verdict(4, ok, f"{count} grid points, worst identity error {worst_identity:.3e}, "
                    f"worst block evaluation error {worst_eval:.3e}")


def test_criterion_5_paper_gate_counts():
    checks = []
    _, rep = synthesize(CNOT, zz_interaction(np.pi / 3))
    checks.append(("CNOT from ZZ(pi/3) = 2", rep.entangler_count == 2))
    _, rep = synthesize(CNOT, zz_interaction(np.pi / 5))
    checks.append(("CNOT from ZZ(pi/5) = 4", rep.entangler_count == 4))
    _, rep = synthesize(SQRT_SWAP, cphase(2 * np.pi / 3))
    checks.append(("sqrt(SWAP) from CPHASE(2pi/3) = 6 apps",
                   rep.entangler_count == 6))
    checks.append(("sqrt(SWAP) from CPHASE(2pi/3) = 7 locals",
                   rep.local_count == 7))
    checks.append(("upper_bound(CNOT) = 6", upper_bound(CNOT).bound == 6))
    bound = upper_bound(cphase(np.pi / 5))
    checks.append(("upper_bound(CPHASE(pi/5)) = 18 with n = 3",
                   bound.bound == 18 and bound.n == 3))
    failed = [name for name, ok in checks if not ok]
    _verdict(5, not failed, f"{len(checks)} exact gate counts"
             + (f"; failed: {failed}" if failed else " reproduced"))


def test_criterion_6_end_to_end():
    rng = np.random.default_rng(77)
    triples = [(np.pi / 2, 0, 0), (np.pi / 2, np.pi / 2, 0), (np.pi / 3, np.pi / 4, 0),
               (np.pi / 2, np.pi / 4, 0), (np.pi / 3, np.pi / 4, np.pi / 6),
               (0.9, 0.4, 0.0), (1.1, 0.8, 0.5), (np.pi / 7, 0, 0)]
    start = time.perf_counter()
    worst = 0.0
    within_bound = True
    for k in range(200):
        target = haar_unitary(rng)
        ent = dress(interaction(*triples[k % len(triples)]), rng)
        _, report = synthesize(target, ent)
        worst = max(worst, report.residual)
        within_bound &= report.entangler_count <= report.bound
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and within_bound and elapsed < 30.0
    _verdict(6, ok, f"200 random pairs, worst residual {worst:.3e}, "
                    f"counts within bound: {within_bound}, {elapsed:.1f}s")


def test_criterion_7_controlled_u():
    rng = np.random.default_rng(99)
    specs = [AxisAngle(gamma=1.3, axis=(0.0, 0.0, 1.0)),
             AxisAngle(gamma=0.7, axis=(0.0, 0.0, -1.0))]
    while len(specs) < 102:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        specs.append(AxisAngle(gamma=float(rng.uniform(0.05, 3.0)), axis=tuple(axis)))
    worst_off = 0.0
    worst_dist = 0.0
    for spec in specs:
        got = evaluate(controlled_u_circuit(spec), zz_interaction(spec.gamma))
        worst_off = max(worst_off, np.abs(got[:2, 2:]).max(), np.abs(got[2:, :2]).max())
        worst_dist = max(worst_dist, phase_distance(got, controlled_matrix(spec)))
    ok = worst_off < 1e-10 and worst_dist < 1e-10
    _verdict(7, ok, f"{len(specs)} Controlled-U circuits, worst off-diagonal "
                    f"{worst_off:.3e}, worst distance {worst_dist:.3e}")


def test_criterion_8_half_interval():
    # the predicate is the interval [pi/4, pi/2] exactly
    boundary_ok = (efficient_as_cnot(phase_gate(np.pi / 2))       # coordinate pi/4
                   and efficient_as_cnot(phase_gate(np.pi))       # coordinate pi/2
                   and not efficient_as_cnot(phase_gate(np.pi / 2 - 1e-4)))
    rng = np.random.default_rng(2024)
    coords = rng.uniform(0.0, np.pi / 2, size=10_000)
    hits = sum(efficient_as_cnot(phase_gate(2 * g)) for g in coords)
    fraction = hits / len(coords)
    ok = boundary_ok and abs(fraction - 0.5) <= 0.02
    _verdict(8, ok, f"interval boundaries exact: {boundary_ok}, "
                    f"sampled acceptance fraction {fraction:.4f}")
