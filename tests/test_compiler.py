from dataclasses import replace

import numpy as np
import pytest

from gatesynth import blocksynth, compiler, gates, kak, matcore, serialize
from gatesynth.blocksynth import synth_zz_block
from gatesynth.compiler import (efficient_as_cnot, merge_locals, synthesize,
                                upper_bound)
from gatesynth.gates import B_GATE, CNOT, SQRT_SWAP, SWAP, cphase, phase_gate
from gatesynth.kak import kak_decompose
from gatesynth.matcore import (DEFAULT_TOL, Circuit, EntanglerApp, LocalPair,
                               SIGMA_X, ToleranceConfig, evaluate, interaction,
                               phase_distance, tensor, unitarity_error,
                               zz_interaction)
from gatesynth.kak import snap_vector
from gatesynth.zzsynth import KX_DAG, KX_KY_DAG, KY_FACTOR, prepare_resource

from conftest import dress, haar_unitary, near_edge, random_local


class TestSynthesize:
    def test_cnot_from_zz_pi3(self):
        circuit, report = synthesize(CNOT, zz_interaction(np.pi / 3))
        assert report.entangler_count == 2
        assert report.residual < 1e-10

    def test_cnot_from_zz_pi5(self):
        circuit, report = synthesize(CNOT, zz_interaction(np.pi / 5))
        assert report.entangler_count == 4
        assert report.n == 2

    def test_local_target_zero_entanglers(self, rng):
        circuit, report = synthesize(random_local(rng), CNOT)
        assert report.entangler_count == 0
        assert report.local_count == 1
        assert len(circuit.elements) == 1

    def test_sqrt_swap_from_cphase(self):
        circuit, report = synthesize(SQRT_SWAP, cphase(2 * np.pi / 3))
        assert report.entangler_count == 6
        assert report.local_count == 7
        assert report.residual < 1e-10

    def test_verifies_against_entangler(self, rng):
        target = haar_unitary(rng)
        ent = dress(interaction(1.0, 0.6, 0.3), rng)
        circuit, report = synthesize(target, ent)
        assert phase_distance(evaluate(circuit, ent), target) == pytest.approx(report.residual)
        assert report.entangler_count <= report.bound

    def test_report_arithmetic(self, rng):
        ent = cphase(np.pi / 5)
        _, report = synthesize(haar_unitary(rng), ent)
        assert report.bound == 6 * report.n * report.apps_per_unit
        assert report.entangler_count == 6 * report.n * report.apps_per_unit

    def test_rejects_local_resource(self, rng):
        with pytest.raises(ValueError):
            synthesize(haar_unitary(rng), random_local(rng))

    def test_swap_class_target_ok(self):
        # SWAP is a valid *target*, only the resource must be entangling
        from gatesynth.gates import SWAP
        circuit, report = synthesize(SWAP, CNOT)
        assert report.entangler_count == 6
        assert report.residual < 1e-10

    def test_checks_target_unitarity_once(self, monkeypatch, rng):
        target, checked, real = haar_unitary(rng), [], matcore.require_unitary

        def counting(m, *args, **kwargs):
            checked.append(np.array_equal(m, target))
            return real(m, *args, **kwargs)

        for module in (matcore, kak, compiler, blocksynth, gates, serialize):
            if hasattr(module, "require_unitary"):
                monkeypatch.setattr(module, "require_unitary", counting)
        synthesize(target, CNOT)
        assert sum(checked) == 1

    def test_rejects_non_unitary_target(self):
        with pytest.raises(ValueError, match="not unitary"):
            synthesize(np.ones((4, 4)), CNOT)


NORMAL_FORM_ENTANGLERS = {
    "cnot": lambda rng: CNOT,
    "b": lambda rng: B_GATE,
    "sqrt_swap": lambda rng: SQRT_SWAP,
    "case3_dressed": lambda rng: dress(interaction(1.0, 0.6, 0.0), rng),
    "case4_dressed": lambda rng: dress(interaction(1.0, 0.6, 0.3), rng),
    "cphase_pi_9": lambda rng: cphase(np.pi / 9),
}


class TestNormalForm:
    """synthesize emits L (E L)*: one canonical local layer around every application."""

    @pytest.mark.parametrize("name", NORMAL_FORM_ENTANGLERS)
    def test_alternating_unit_determinant_layers(self, name, rng):
        entangler = NORMAL_FORM_ENTANGLERS[name](rng)
        for _ in range(5):
            circuit, report = synthesize(haar_unitary(rng), entangler)
            kinds = [isinstance(e, LocalPair) for e in circuit.elements]
            assert kinds == [k % 2 == 0 for k in range(len(kinds))]
            assert report.local_count == report.entangler_count + 1
            for layer in circuit.elements[::2]:
                assert abs(np.linalg.det(layer.a) - 1) < 1e-12
                assert abs(np.linalg.det(layer.b) - 1) < 1e-12
        if name == "cphase_pi_9":
            assert report.n == 5


LOOSE_TOL = ToleranceConfig(unitarity_tol=1e-7, snap_tol=1e-7, verify_tol=1e-6)


class TestNearEdgeTargets:
    """Targets whose unitarity error is just inside unitarity_tol are valid and compile."""

    def test_default_tolerances(self, rng):
        for i in range(100):
            core = haar_unitary(rng) if i % 2 else interaction(*rng.uniform(0, np.pi, 3))
            target = near_edge(dress(core, rng), rng.uniform(6e-11, 1e-10), rng)
            assert 5e-11 < unitarity_error(target) <= DEFAULT_TOL.unitarity_tol
            _, report = synthesize(target, (CNOT, cphase(np.pi / 9))[i % 2])
            assert report.residual < DEFAULT_TOL.verify_tol

    @pytest.mark.parametrize("entangler", [CNOT, cphase(np.pi / 9)], ids=["cnot", "cphase_pi_9"])
    def test_loose_tolerances(self, entangler, rng):
        for _ in range(10):
            target = near_edge(haar_unitary(rng), 1e-9, rng)
            _, report = synthesize(target, entangler, LOOSE_TOL)
            assert report.residual < LOOSE_TOL.verify_tol

    def test_near_edge_entangler(self, rng):
        entangler = near_edge(dress(cphase(np.pi / 3), rng), 1e-9, rng)
        _, report = synthesize(haar_unitary(rng), entangler, LOOSE_TOL)
        assert report.residual < LOOSE_TOL.verify_tol


NEAR_IDENTITY = [(np.pi - 1e-11, 0.0, 0.0), (-1e-11, 2e-11, 3e-11)]


class TestNearLandmarkTargets:
    @pytest.mark.parametrize("triple", NEAR_IDENTITY)
    @pytest.mark.parametrize("dressed", [False, True])
    def test_near_identity_is_local(self, triple, dressed, rng):
        # The canonical c1 lands within snap_tol of pi; A(pi e1) = i XX is
        # local, so no block may be requested for it.
        target = interaction(*triple)
        if dressed:
            target = dress(target, rng)
        _, report = synthesize(target, CNOT)
        assert report.entangler_count == 0
        assert report.residual < DEFAULT_TOL.verify_tol

    @pytest.mark.parametrize("entangler", [CNOT, cphase(np.pi / 9)], ids=["cnot", "cphase_pi_9"])
    def test_tiny_block_angles_verify(self, entangler, rng):
        # Coordinates of order 1e-8 sit above snap_tol, so blocks with
        # c ~ 1e-8 are synthesized and must still meet verify_tol.
        for _ in range(20):
            c = 1e-8 * rng.uniform(0.5, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            target = dress(interaction(*c), rng)
            _, report = synthesize(target, entangler)
            assert report.residual < DEFAULT_TOL.verify_tol

    @pytest.mark.parametrize("entangler", [CNOT, cphase(np.pi / 9)], ids=["cnot", "cphase_pi_9"])
    def test_near_pi_block_under_tight_snap_tol(self, entangler):
        # c1 = pi - 5e-10 is not snapped at snap_tol 1e-10, so it is a
        # block angle just below pi, reflected to a 5e-10 block.
        tol = ToleranceConfig(snap_tol=1e-10)
        target = interaction(np.pi - 5e-10, 3e-10, 2e-10)
        _, report = synthesize(target, entangler, tol)
        assert report.residual < tol.verify_tol


class TestUpperBound:
    def test_cnot(self):
        assert upper_bound(CNOT).bound == 6

    @pytest.mark.parametrize("phi", [np.pi / 2, 2 * np.pi / 3, np.pi])
    def test_cphase_upper_range(self, phi):
        report = upper_bound(cphase(phi))
        assert report.bound == 6
        assert report.n == 1

    def test_cphase_small_angle(self):
        report = upper_bound(cphase(np.pi / 5))
        assert (report.n, report.bound) == (3, 18)

    def test_depends_only_on_nonlocal_part(self, rng):
        base = interaction(1.1, 0.7, 0.2)
        b0 = upper_bound(base)
        for _ in range(5):
            b1 = upper_bound(dress(base, rng))
            assert (b1.bound, b1.n, b1.apps_per_unit) == (b0.bound, b0.n, b0.apps_per_unit)
            assert b1.gamma == pytest.approx(b0.gamma, abs=1e-9)

    def test_never_amplifies(self, monkeypatch):
        import gatesynth.zzsynth

        def refuse(_):
            raise AssertionError("upper_bound built the amplified circuit")

        monkeypatch.setattr(gatesynth.zzsynth, "amplify", refuse)
        report = upper_bound(zz_interaction(1e-8))
        assert (report.n, report.bound) == (78539817, 471238902)
        assert report.gamma == pytest.approx(np.pi / 4, rel=1e-7)

    def test_partial_report_fields(self):
        report = upper_bound(CNOT)
        assert report.entangler_count is None
        assert report.local_count is None
        assert report.residual is None


class TestMergeLocals:
    def test_two_locals_merge(self, rng):
        l1 = LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
        l2 = LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
        circ = Circuit([l1, l2])
        merged = merge_locals(circ)
        assert merged.local_count == 1
        np.testing.assert_allclose(evaluate(merged, CNOT), evaluate(circ, CNOT), atol=1e-12)

    def test_merge_between_entanglers_only(self, rng):
        mk = lambda: LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
        circ = Circuit([mk(), EntanglerApp(), mk(), mk(), EntanglerApp()])
        merged = merge_locals(circ)
        kinds = [type(e).__name__ for e in merged.elements]
        assert kinds == ["LocalPair", "EntanglerApp", "LocalPair", "EntanglerApp"]
        np.testing.assert_allclose(evaluate(merged, CNOT), evaluate(circ, CNOT), atol=1e-12)

    def test_no_adjacent_locals_and_det_one(self, rng):
        circ = Circuit([LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
                        for _ in range(5)], phase=1j)
        merged = merge_locals(circ)
        assert merged.local_count == 1
        layer = merged.elements[0]
        assert abs(np.linalg.det(layer.a) - 1) < 1e-12
        assert abs(np.linalg.det(layer.b) - 1) < 1e-12
        np.testing.assert_allclose(evaluate(merged, CNOT), evaluate(circ, CNOT), atol=1e-12)

    def test_preserves_entangler_count(self, rng):
        circ, _ = synthesize(haar_unitary(rng), CNOT)
        assert merge_locals(circ).entangler_count == circ.entangler_count


def merge_locals_loop(circuit: Circuit) -> Circuit:
    """Reference merge_locals: one det, sqrt and divide per layer, in a loop."""
    merged: list = []
    for elem in circuit.elements:
        if isinstance(elem, LocalPair) and merged and isinstance(merged[-1], LocalPair):
            prev = merged[-1]
            merged[-1] = LocalPair(elem.a @ prev.a, elem.b @ prev.b)
        else:
            merged.append(elem)
    phase = circuit.phase
    for i, elem in enumerate(merged):
        if isinstance(elem, LocalPair):
            scale_a = np.sqrt(np.linalg.det(elem.a))
            scale_b = np.sqrt(np.linalg.det(elem.b))
            phase *= scale_a * scale_b
            merged[i] = LocalPair(elem.a / scale_a, elem.b / scale_b)
    return Circuit(merged, phase)


def assert_bit_identical(x: Circuit, y: Circuit) -> None:
    assert x.phase == y.phase
    assert [type(e) for e in x.elements] == [type(e) for e in y.elements]
    for ex, ey in zip(x.elements, y.elements):
        if isinstance(ex, LocalPair):
            assert np.array_equal(ex.a, ey.a) and np.array_equal(ex.b, ey.b)


class TestMergeLocalsBitIdentity:
    def test_random_circuits(self, rng):
        for _ in range(50):
            elements = [EntanglerApp() if rng.random() < 0.3
                        else LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
                        for _ in range(rng.integers(1, 40))]
            circ = Circuit(elements, phase=complex(np.exp(1j * rng.uniform(0, 2 * np.pi))))
            assert_bit_identical(merge_locals(circ), merge_locals_loop(circ))

    def test_unmerged_block_circuits(self, rng):
        for ent in (CNOT, cphase(np.pi / 9), dress(interaction(1.0, 0.6, 0.3), rng)):
            resource = prepare_resource(ent)
            first, second = synth_zz_block(0.7, resource), synth_zz_block(2.1, resource)
            circ = Circuit(first.elements + second.elements, first.phase * second.phase)
            assert_bit_identical(merge_locals(circ), merge_locals_loop(circ))

    def test_entangler_only(self):
        circ = Circuit([EntanglerApp(), EntanglerApp()], phase=1j)
        assert_bit_identical(merge_locals(circ), merge_locals_loop(circ))

    def test_empty(self):
        assert_bit_identical(merge_locals(Circuit()), merge_locals_loop(Circuit()))


class TestResourceMemo:
    @pytest.fixture
    def preparations(self, monkeypatch):
        """Clears the memo and counts the preparations synthesize makes."""
        calls = []
        original = compiler.prepare_resource

        def counting(entangler, tol=DEFAULT_TOL):
            calls.append(tol)
            return original(entangler, tol)

        compiler._prepared_resource.cache_clear()
        monkeypatch.setattr(compiler, "prepare_resource", counting)
        yield calls
        compiler._prepared_resource.cache_clear()

    def test_one_preparation_per_entangler(self, preparations, rng):
        for k in range(5):
            # Equal bytes, not the same object, select the memo entry.
            synthesize(haar_unitary(rng), CNOT.copy() if k % 2 else CNOT)
        assert len(preparations) == 1

    def test_tolerances_are_part_of_the_key(self, preparations, rng):
        target = haar_unitary(rng)
        synthesize(target, CNOT)
        synthesize(target, CNOT, ToleranceConfig(verify_tol=1e-9))
        synthesize(target, CNOT)
        assert len(preparations) == 2

    def test_memo_stays_bounded(self, preparations, rng):
        target = haar_unitary(rng)
        for _ in range(50):
            synthesize(target, dress(interaction(1.0, 0.6, 0.3), rng))
        assert len(preparations) == 50
        assert compiler._prepared_resource.cache_info().currsize <= compiler.RESOURCE_MEMO_SIZE

    @pytest.mark.parametrize("entangler", [SWAP, zz_interaction(4e-5), np.ones((4, 4))],
                             ids=["swap_class", "above_cap", "non_unitary"])
    def test_errors_are_not_cached(self, preparations, rng, entangler):
        target = haar_unitary(rng)
        for _ in range(3):
            with pytest.raises(ValueError):
                synthesize(target, entangler)
        assert len(preparations) == 3

    def test_mutating_a_result_leaves_the_memo_intact(self, preparations, rng):
        target = haar_unitary(rng)
        first, _ = synthesize(target, cphase(np.pi / 9))
        snapshot = Circuit([LocalPair(e.a.copy(), e.b.copy()) if isinstance(e, LocalPair)
                            else e for e in first.elements], first.phase)
        # Element 2 lies inside the first resource insertion (n = 5: E L E L E
        # L E L E); its 4 interior layers recur in all 6 insertions, and only
        # this one may change.
        inner = first.elements[2]
        repeats = [i for i, e in enumerate(snapshot.elements) if isinstance(e, LocalPair)
                   and np.array_equal(e.a, inner.a) and np.array_equal(e.b, inner.b)]
        assert len(repeats) == 24
        inner.a[...] = 0
        for i, (elem, kept) in enumerate(zip(first.elements, snapshot.elements)):
            if isinstance(elem, LocalPair) and i != 2:
                assert np.array_equal(elem.a, kept.a) and np.array_equal(elem.b, kept.b)
        for elem in first.elements:
            if isinstance(elem, LocalPair):
                elem.a[...] = 0
                elem.b[...] = 0
        second, _ = synthesize(target, cphase(np.pi / 9))
        assert len(preparations) == 1
        assert_bit_identical(second, snapshot)


def synthesize_expanded(target: np.ndarray, entangler: np.ndarray,
                        tol: ToleranceConfig = DEFAULT_TOL) -> Circuit:
    """Reference assembly: blocks built on the whole merged resource, then one merge."""
    dec = kak_decompose(target, tol)
    r = prepare_resource(entangler, tol)
    resource = replace(r, circuit=merge_locals(r.circuit))
    c1, c2, c3 = snap_vector(dec.c, tol.snap_tol)
    elements, phase = [dec.k2], dec.phase
    for c, interleaver in ((c3, LocalPair(KY_FACTOR, KY_FACTOR)),
                           (c2, LocalPair(KX_KY_DAG, KX_KY_DAG)),
                           (c1, LocalPair(dec.k1.a @ KX_DAG, dec.k1.b @ KX_DAG))):
        block = synth_zz_block(c, resource)
        elements += block.elements + [interleaver]
        phase *= block.phase
    return merge_locals(Circuit(elements, phase))


TEMPLATE_ENTANGLERS = {
    "cnot": lambda rng: CNOT,
    "cphase_pi_9": lambda rng: cphase(np.pi / 9),
    "sqrt_swap": lambda rng: SQRT_SWAP,
    "b": lambda rng: B_GATE,
    "zz_pi_5": lambda rng: zz_interaction(np.pi / 5),
    "case2_dressed": lambda rng: dress(interaction(np.pi / 2, np.pi / 2, 0.0), rng),
    "case3_dressed": lambda rng: dress(interaction(1.0, 0.6, 0.0), rng),
    "case4_dressed": lambda rng: dress(interaction(1.0, 0.6, 0.3), rng),
}


class TestResourceTemplate:
    """synthesize verifies on the memo's compiled run, then emits it expanded."""

    @pytest.mark.parametrize("name", TEMPLATE_ENTANGLERS)
    def test_matches_reference_assembly(self, name, rng):
        entangler = TEMPLATE_ENTANGLERS[name](rng)
        targets = [haar_unitary(rng) for _ in range(6)] + [CNOT, SWAP, SQRT_SWAP, B_GATE]
        for target in targets:
            circuit, report = synthesize(target, entangler)
            reference = synthesize_expanded(target, entangler)
            assert [type(e) for e in circuit.elements] == [type(e) for e in reference.elements]
            for got, want in zip(circuit.elements, reference.elements):
                if isinstance(got, LocalPair):
                    assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
            assert circuit.phase == reference.phase
            assert phase_distance(evaluate(circuit, entangler), target) < DEFAULT_TOL.verify_tol
            assert report.entangler_count == sum(isinstance(e, EntanglerApp)
                                                 for e in circuit.elements)
            assert report.local_count == sum(isinstance(e, LocalPair) for e in circuit.elements)

    def test_per_target_tensor_calls_independent_of_n(self, monkeypatch, rng):
        calls, real = [], matcore.tensor

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        target = haar_unitary(rng)
        made = {}
        for name, entangler in (("cnot", CNOT), ("cphase_pi_9", cphase(np.pi / 9)),
                                ("zz_pi_800", zz_interaction(np.pi / 4 / 200))):
            synthesize(target, entangler)  # memo miss: builds the template
            with monkeypatch.context() as patch:
                for module in (matcore, kak, compiler, blocksynth, gates, serialize):
                    if getattr(module, "tensor", None) is real:
                        patch.setattr(module, "tensor", counting)
                calls.clear()
                _, report = synthesize(target, entangler)
            made[name] = (len(calls), report.n)
        assert [n for _, n in made.values()] == [1, 5, 200]
        assert len({count for count, _ in made.values()}) == 1, made


class TestEfficientAsCnot:
    def test_sigma_x(self):
        assert efficient_as_cnot(SIGMA_X)

    def test_phase_quarter_pi(self):
        # coordinate pi/8 < pi/4
        assert not efficient_as_cnot(phase_gate(np.pi / 4))

    def test_phase_pi(self):
        # coordinate pi/2
        assert efficient_as_cnot(phase_gate(np.pi))

    def test_boundary(self):
        # PHASE(pi/2) sits exactly at coordinate pi/4
        assert efficient_as_cnot(phase_gate(np.pi / 2))


def test_end_to_end_batch(rng):
    triples = [(np.pi / 2, 0, 0), (np.pi / 2, np.pi / 2, 0), (np.pi / 3, np.pi / 4, 0),
               (np.pi / 2, np.pi / 4, 0), (np.pi / 3, np.pi / 4, np.pi / 6)]
    for k in range(40):
        target = haar_unitary(rng)
        ent = dress(interaction(*triples[k % len(triples)]), rng)
        circuit, report = synthesize(target, ent)
        assert report.residual < 1e-8
        assert report.entangler_count <= report.bound
