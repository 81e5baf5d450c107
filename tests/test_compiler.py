import dataclasses
import itertools

import numpy as np
import pytest

from gatesynth import blocksynth, compiler, gates, kak, matcore, serialize, zzsynth
from gatesynth.blocksynth import block_locals, controlled_u_gamma
from gatesynth.compiler import (efficient_as_cnot, merge_locals, synthesize,
                                upper_bound)
from gatesynth.gates import B_GATE, CNOT, SQRT_SWAP, SWAP, cphase, phase_gate
from gatesynth.kak import CanonicalVector, KakDecomposition, kak_decompose
from gatesynth.matcore import (DEFAULT_TOL, ID2, ROUNDOFF, Circuit, EntanglerApp, LocalPair,
                               SIGMA_X, ToleranceConfig, evaluate, interaction,
                               phase_distance, tensor, unitarity_error,
                               zz_interaction)
from gatesynth.kak import snap_vector
from gatesynth.zzsynth import (KX_DAG, KX_KY_DAG, KY_FACTOR, MAX_APPLICATIONS, ZzResource,
                               ZzTemplate, block_repetitions, choose_unit, extract_zz,
                               fold_angle, prepare_resource, repetitions, uniform_bound)

from conftest import (FOLD_BRANCHES, CircuitResource, block_circuit, circuit_of, dress,
                      expanded, haar_unitary, near_edge, product_loop, random_local,
                      run_resource, slot_elements, unit_circuit)


def spy_unitarity_checks(monkeypatch) -> list:
    """Every matrix the input check (require_unitary) sees from now on, in
    order: each row of a stack, or the one matrix."""
    checked = []
    real = matcore.require_unitary

    def spy(m, *args, **kwargs):
        checked.extend(m if np.ndim(m) == 3 else [m])
        return real(m, *args, **kwargs)

    for module in (matcore, kak, compiler, blocksynth, gates, serialize, zzsynth):
        if hasattr(module, "require_unitary"):
            monkeypatch.setattr(module, "require_unitary", spy)
    return checked


def spy_kak_rows(monkeypatch) -> list:
    """The row count of each stack synthesize passes to kak_decompose from now on."""
    rows, real = [], compiler.kak_decompose

    def counting(us, *args, **kwargs):
        rows.append(len(us))
        return real(us, *args, **kwargs)

    monkeypatch.setattr(compiler, "kak_decompose", counting)
    return rows


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
        # Each block inserts its own m_h units twice; the bound stays the
        # paper's uniform 6 n apps, the worst case over the block angles.
        ent, target = cphase(np.pi / 5), haar_unitary(rng)
        _, report = synthesize(target, ent)
        ms = block_units(target, extract_zz(ent).gamma)
        assert report.bound == 6 * report.n * report.apps_per_unit
        assert report.entangler_count == 2 * report.apps_per_unit * sum(ms)
        assert report.entangler_count < report.bound

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
        target = haar_unitary(rng)
        checked = spy_unitarity_checks(monkeypatch)
        synthesize(target, CNOT)
        assert sum(np.array_equal(m, target) for m in checked) == 1

    def test_checks_entangler_once_per_template(self, monkeypatch, rng):
        checked = spy_unitarity_checks(monkeypatch)
        compiler._resource_memo.clear()
        first = haar_unitary(rng)
        synthesize(first, CNOT)  # a memo miss checks the target and the entangler once each
        assert len(checked) == 2
        assert np.array_equal(checked[0], first) and np.array_equal(checked[1], CNOT)
        target = haar_unitary(rng)
        checked.clear()
        synthesize(target, CNOT)  # a memo hit checks only the target
        assert len(checked) == 1 and np.array_equal(checked[0], target)
        # Errors are not cached: every call refuses a non-unitary entangler.
        for _ in range(3):
            with pytest.raises(ValueError, match="^entangler is not unitary"):
                synthesize(target, np.ones((4, 4)))

    @pytest.mark.parametrize("bad,wording", [(np.ones((4, 4)), "is not unitary"),
                                             (np.full((4, 4), np.nan), "has non-finite")],
                             ids=["non_unitary", "non_finite"])
    def test_input_errors_name_the_argument(self, bad, wording, rng):
        synthesize(haar_unitary(rng), CNOT)
        with pytest.raises(ValueError, match=f"^target {wording}"):
            synthesize(bad, CNOT)  # a memo hit: the target alone is decomposed
        with pytest.raises(ValueError, match=f"^target {wording}"):
            synthesize(bad, cphase(rng.uniform(0.5, 1.0)))  # a miss: target and entangler
        with pytest.raises(ValueError, match=f"^entangler {wording}"):
            synthesize(haar_unitary(rng), bad)
        with pytest.raises(ValueError, match=f"^target {wording}"):
            synthesize(bad, bad)  # the first failing one is named

    @pytest.mark.parametrize("target_shape,entangler_shape,name", [
        ((4, 4), (2, 2), "entangler"), ((2, 2), (4, 4), "target"), ((4, 4), (1, 4, 4), "entangler")])
    def test_mis_shaped_input_names_the_argument(self, target_shape, entangler_shape, name):
        with pytest.raises(ValueError, match=f"^expected a 4x4 matrix as the {name}"):
            synthesize(np.ones(target_shape), np.ones(entangler_shape))

    def test_rejects_non_unitary_target(self):
        with pytest.raises(ValueError, match="not unitary"):
            synthesize(np.ones((4, 4)), CNOT)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refuses_entries_too_large_to_square(self):
        big = np.full((4, 4), 1e200)
        with pytest.raises(ValueError, match="^target is not unitary"):
            synthesize(big, CNOT)
        with pytest.raises(ValueError, match="^entangler is not unitary"):
            synthesize(CNOT, big)
        with pytest.raises(ValueError, match="^entangler is not unitary"):
            evaluate(circuit_of([EntanglerApp()]), big)
        with pytest.raises(ValueError, match="^input is not unitary"):
            controlled_u_gamma(np.full((2, 2), 1e200))


class TestAmplifiedEntanglerError:
    """A failed final check that the entangler's own unitarity error, amplified
    over its applications, accounts for is invalid input (ValueError); any
    other failed check stays an internal failure (ArithmeticError)."""

    ROUNDED_WEAK_ZZ = np.round(zz_interaction(np.pi / 400), 10)  # error 3.7e-11, bound 606
    # A dense perturbation, not a scale: error 3e-11, bound 606.
    PERTURBED_WEAK_ZZ = near_edge(zz_interaction(np.pi / 400), 3e-11, np.random.default_rng(0))

    def test_rounded_weak_entangler(self):
        # Rounding scales the matrix off unit modulus; the unit's phase
        # cancels the scale, so SWAP's 606 applications verify.
        ent = self.ROUNDED_WEAK_ZZ
        assert 3e-11 < unitarity_error(ent) <= DEFAULT_TOL.unitarity_tol
        _, report = synthesize(SWAP, ent)
        assert report.entangler_count == 606 and report.residual < 1e-12
        ent = self.PERTURBED_WEAK_ZZ
        assert 2e-11 < unitarity_error(ent) <= DEFAULT_TOL.unitarity_tol
        with pytest.raises(ValueError, match=r"^entangler unitarity error 3e-11 over 606 "
                                             r"applications exceeds verify_tol 1e-08"):
            synthesize(SWAP, ent)
        _, report = synthesize(cphase(np.pi / 2), ent)
        assert report.entangler_count == 102 and report.residual < DEFAULT_TOL.verify_tol

    def test_a_memo_hit_keeps_the_entanglers_error(self, monkeypatch):
        synthesize(cphase(np.pi / 2), self.PERTURBED_WEAK_ZZ)
        checked = spy_unitarity_checks(monkeypatch)
        with pytest.raises(ValueError, match="over 606 applications"):
            synthesize(SWAP, self.PERTURBED_WEAK_ZZ)
        assert len(checked) == 1 and np.array_equal(checked[0], SWAP)

    def test_perturbed_entanglers_verify_or_name_the_cause(self, rng):
        # Unitarity errors up to unitarity_tol, n from 2 to 200.
        outcomes = set()
        for gamma in (np.pi / 7, np.pi / 40, np.pi / 800):
            for error in (1e-12, 1e-11, 9e-11):
                entangler = near_edge(zz_interaction(gamma), error, rng)
                for target in (SWAP, haar_unitary(rng)):
                    try:
                        _, report = synthesize(target, entangler)
                    except ValueError as exc:
                        assert "applications exceeds verify_tol" in str(exc)
                        outcomes.add("refused")
                    else:
                        assert report.residual < DEFAULT_TOL.verify_tol
                        outcomes.add("verified")
        assert outcomes == {"refused", "verified"}

    @pytest.mark.parametrize("entangler", [CNOT, ROUNDED_WEAK_ZZ], ids=["cnot", "rounded_weak_zz"])
    def test_internal_failures_stay_arithmetic(self, monkeypatch, rng, entangler):
        # A residual no unitarity error accounts for: an internal failure.
        monkeypatch.setattr(compiler, "phase_distance", lambda a, b: 1e-3)
        with pytest.raises(ArithmeticError, match="synthesis verification failed"):
            synthesize(SWAP, entangler)


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


LOOSE_TOL = ToleranceConfig(verify_tol=1e-6)
# A unitarity error just inside the fixed window.
NEAR_EDGE_ERROR = 0.99 * ToleranceConfig.unitarity_tol


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
            target = near_edge(haar_unitary(rng), NEAR_EDGE_ERROR, rng)
            assert 9e-11 < unitarity_error(target) <= ToleranceConfig.unitarity_tol
            _, report = synthesize(target, entangler, LOOSE_TOL)
            assert report.residual < LOOSE_TOL.verify_tol

    def test_near_edge_entangler(self, rng):
        entangler = near_edge(dress(cphase(np.pi / 3), rng), NEAR_EDGE_ERROR, rng)
        assert 9e-11 < unitarity_error(entangler) <= ToleranceConfig.unitarity_tol
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
    def test_near_pi_block_outside_snap_tol(self, entangler):
        # c1 = pi - 5e-9 is outside snap_tol (1e-9), so it is a block angle
        # just below pi, reflected to a 5e-9 block.
        target = interaction(np.pi - 5e-9, 3e-9, 2e-9)
        assert snap_vector(kak_decompose(target).c)[0] < np.pi
        _, report = synthesize(target, entangler)
        assert report.residual < DEFAULT_TOL.verify_tol


# Chamber landmarks: identity, sqrt(CNOT), CNOT, sqrt(iSWAP), B, iSWAP,
# sqrt(SWAP), two points of the face c1 = pi/2, SWAP and sqrt(SWAP)^dag.
CHAMBER_LANDMARKS = [(0.0, 0.0, 0.0), (np.pi / 4, 0.0, 0.0), (np.pi / 2, 0.0, 0.0),
                     (np.pi / 4, np.pi / 4, 0.0), (np.pi / 2, np.pi / 4, 0.0),
                     (np.pi / 2, np.pi / 2, 0.0), (np.pi / 4, np.pi / 4, np.pi / 4),
                     (np.pi / 2, np.pi / 4, np.pi / 4), (np.pi / 2, np.pi / 2, np.pi / 4),
                     (np.pi / 2, np.pi / 2, np.pi / 2), (3 * np.pi / 4, np.pi / 4, np.pi / 4)]


class TestSnapFallback:
    """A target-side snap is taken only when the circuit it builds verifies;
    otherwise synthesize builds once more from the unsnapped vector."""

    def test_cphase_just_below_cz(self):
        # c1 sits 8.9e-10 below pi/2 and snaps onto CZ, which misses a
        # verify_tol of 5e-10; the unsnapped block verifies.
        target, tol = cphase(3.1415926518), ToleranceConfig(verify_tol=5e-10)
        circuit, report = synthesize(target, CNOT, tol)
        assert report.entangler_count == 2
        assert report.residual < 1e-14
        assert phase_distance(evaluate(circuit, CNOT), target) < tol.verify_tol

    @pytest.mark.parametrize("verify_tol", [1e-8, 1e-9])
    def test_near_landmark_targets_verify(self, verify_tol):
        rng = np.random.default_rng(2401)
        tol = ToleranceConfig(verify_tol=verify_tol)
        for entangler in (CNOT, cphase(np.pi / 9), B_GATE):
            for landmark in CHAMBER_LANDMARKS:
                for k in (0.1, 0.5, 0.9):
                    for sign in (1.0, -1.0):
                        offset = sign * k * ToleranceConfig.snap_tol * rng.choice([-1.0, 1.0], 3)
                        target = dress(interaction(*(np.array(landmark) + offset)), rng)
                        circuit, report = synthesize(target, entangler, tol)
                        assert report.residual < verify_tol
                        got = evaluate(circuit, entangler)
                        assert phase_distance(got, target) < verify_tol

    def test_verifying_target_builds_one_skeleton(self, monkeypatch, rng):
        built, real = [], compiler._skeleton

        def spy(c, dec, template):
            built.append(c)
            return real(c, dec, template)

        monkeypatch.setattr(compiler, "_skeleton", spy)
        synthesize(haar_unitary(rng), CNOT)
        assert len(built) == 1


class TestNamedStages:
    """synthesize builds every block with synth_zz_block and fuses each
    circuit's chains with one merge_locals call, the bindings a tracer wraps."""

    @pytest.fixture
    def calls(self, monkeypatch) -> dict:
        counts = {"synth_zz_block": 0, "merge_locals": 0}
        for name in counts:
            def spy(*args, name=name, real=getattr(compiler, name)):
                counts[name] += 1
                return real(*args)
            monkeypatch.setattr(compiler, name, spy)
        return counts

    def test_one_synthesis(self, calls, rng):
        synthesize(haar_unitary(rng), CNOT)
        assert calls == {"synth_zz_block": 3, "merge_locals": 1}

    def test_rebuild_from_the_unsnapped_vector(self, calls):
        # TestSnapFallback's target: the snapped circuit fails, so a second one is built.
        synthesize(cphase(3.1415926518), CNOT, ToleranceConfig(verify_tol=5e-10))
        assert calls == {"synth_zz_block": 6, "merge_locals": 2}


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

    def test_takes_the_callers_decomposition(self, monkeypatch):
        gate = interaction(1.1, 0.7, 0.2)
        dec, want = kak_decompose(gate), upper_bound(gate)

        def refuse(*args, **kwargs):
            raise AssertionError("upper_bound decomposed the gate again")

        monkeypatch.setattr(zzsynth, "kak_decompose", refuse)
        assert upper_bound(gate, dec=dec) == want

    def test_snapped_coordinate_keeps_case_one(self):
        # snap_tol (1e-9) snaps c2 = 5e-10 to 0, so the gate is case 1: one application.
        gate = interaction(np.pi / 4, 5e-10, 0.0)
        unit, report, template = choose_unit(gate), upper_bound(gate), prepare_resource(gate)
        assert unit.apps_per_unit == report.apps_per_unit == template.apps_per_unit == 1
        assert unit.gamma == report.gamma == template.gamma


def fused(circuit: Circuit) -> Circuit:
    """circuit with its adjacent local layers (a 0 slot between them) fused
    by merge_locals, one chain per such run of layers; every other slot kept."""
    layers, slots = circuit.layers, circuit.slots
    chains, kept = [], []
    for (a, b), slot in zip(layers, slots):
        if chains and slot == 0:
            chains[-1] += (a, b)
        else:
            chains.append([a, b])
            kept.append(slot)
    if not chains:
        return Circuit(layers, slots, circuit.phase)
    layers, phase = merge_locals(chains, circuit.phase)
    return Circuit(layers, kept + slots[-1:], phase)


class TestMergeLocals:
    def test_two_locals_merge(self, rng):
        l1 = LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
        l2 = LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
        circ = circuit_of([l1, l2])
        merged = fused(circ)
        assert merged.local_count == 1
        np.testing.assert_allclose(evaluate(merged, CNOT), evaluate(circ, CNOT), atol=1e-12)

    def test_merge_between_entanglers_only(self, rng):
        mk = lambda: LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
        circ = circuit_of([mk(), EntanglerApp(), mk(), mk(), EntanglerApp()])
        merged = fused(circ)
        kinds = [type(e).__name__ for e in merged.elements]
        assert kinds == ["LocalPair", "EntanglerApp", "LocalPair", "EntanglerApp"]
        np.testing.assert_allclose(evaluate(merged, CNOT), evaluate(circ, CNOT), atol=1e-12)

    def test_no_adjacent_locals_and_det_one(self, rng):
        circ = circuit_of([LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
                           for _ in range(5)], phase=1j)
        merged = fused(circ)
        assert merged.local_count == 1
        layer = merged.elements[0]
        assert abs(np.linalg.det(layer.a) - 1) < 1e-12
        assert abs(np.linalg.det(layer.b) - 1) < 1e-12
        np.testing.assert_allclose(evaluate(merged, CNOT), evaluate(circ, CNOT), atol=1e-12)

    def test_preserves_entangler_count(self, rng):
        circ, _ = synthesize(haar_unitary(rng), CNOT)
        assert fused(circ).entangler_count == circ.entangler_count


def merge_locals_loop(circuit: Circuit) -> Circuit:
    """Reference for fused: one det, sqrt and divide per layer, in a loop."""
    merged: list = []
    for elem in slot_elements(circuit):
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
    return circuit_of(merged, phase)


def assert_bit_identical(x: Circuit, y: Circuit) -> None:
    """Equal bytes, so a zero of the other sign differs too; a template run
    compares by its expansion, so a run slot equals an element list holding it."""
    assert np.complex128(x.phase).tobytes() == np.complex128(y.phase).tobytes()
    x, y = expanded(x), expanded(y)
    assert [type(e) for e in x.elements] == [type(e) for e in y.elements]
    for ex, ey in zip(x.elements, y.elements):
        if isinstance(ex, LocalPair):
            assert ex.a.tobytes() == ey.a.tobytes() and ex.b.tobytes() == ey.b.tobytes()


class TestMergeLocalsBitIdentity:
    def test_random_circuits(self, rng):
        for _ in range(50):
            elements = [EntanglerApp() if rng.random() < 0.3
                        else LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
                        for _ in range(rng.integers(1, 40))]
            circ = circuit_of(elements, phase=complex(np.exp(1j * rng.uniform(0, 2 * np.pi))))
            assert_bit_identical(fused(circ), merge_locals_loop(circ))

    def test_unmerged_block_circuits(self, rng):
        for ent in (CNOT, cphase(np.pi / 9), dress(interaction(1.0, 0.6, 0.3), rng)):
            template = prepare_resource(ent)
            first, second = block_circuit(0.7, template), block_circuit(2.1, template)
            circ = circuit_of(slot_elements(first) + slot_elements(second),
                              first.phase * second.phase)
            assert_bit_identical(fused(circ), merge_locals_loop(circ))

    def test_entangler_only(self):
        circ = circuit_of([EntanglerApp(), EntanglerApp()], phase=1j)
        assert_bit_identical(fused(circ), merge_locals_loop(circ))

    def test_empty(self):
        assert_bit_identical(fused(circuit_of([])), merge_locals_loop(circuit_of([])))


SKELETON_ENTANGLERS = ("cnot", "cphase_pi_9", "b", "sqrt_swap", "case3_dressed",
                       "case4_dressed")


def object_block(c: float, resource: CircuitResource) -> Circuit:
    """Reference block in object form: block_locals' layers as LocalPair
    objects around two copies of the resource's circuit, which the block
    inserts once each; at h = 0 (c = 0 or pi) one local layer."""
    h, pre, post, fold_phase = fold_angle(c)
    halves = block_locals(c, h, pre, post, resource.gamma)
    if h == 0.0:
        return circuit_of([LocalPair(*halves)], fold_phase)
    pre_a, u2, mid, post_a, u1 = halves
    unit = resource.circuit
    elements = ([LocalPair(pre_a, u2)] + slot_elements(unit) + [LocalPair(ID2, mid)]
                + slot_elements(unit) + [LocalPair(post_a, u1)])
    return circuit_of(elements, unit.phase ** 2 if h == c else fold_phase * unit.phase ** 2)


def object_assembly(c: tuple[float, float, float], dec: KakDecomposition,
                    template: ZzTemplate) -> Circuit:
    """Reference for compiler._skeleton, unmerged: the blocks c = (c1, c2, c3)
    as LocalPair objects, object_block on run_resource(template, m) per block,
    the interleavers between and dec's local pairs around."""
    c1, c2, c3 = c
    elements, phase = [dec.k2], dec.phase
    for c_i, interleaver in ((c3, LocalPair(KY_FACTOR, KY_FACTOR)),
                             (c2, LocalPair(KX_KY_DAG, KX_KY_DAG)),
                             (c1, LocalPair(dec.k1.a @ KX_DAG, dec.k1.b @ KX_DAG))):
        m = block_repetitions(fold_angle(c_i)[0], template.gamma, template.n)
        block = object_block(c_i, run_resource(template, m))
        elements += slot_elements(block) + [interleaver]
        phase *= block.phase
    return circuit_of(elements, phase)


def captured_calls(monkeypatch, rng) -> list:
    """(entangler, object_assembly of the target, the stacked skeleton
    synthesize evaluates) of synthesize calls against each SKELETON_ENTANGLERS
    entry, on Haar, identity-class, CNOT-class and dressed landmark targets;
    the last has c1 snapped to pi."""
    calls = []
    with monkeypatch.context() as patch:
        def evaluate_spy(circuit, entangler):
            calls.append(circuit)
            return evaluate(circuit, entangler)
        patch.setattr(compiler, "evaluate", evaluate_spy)
        captured = []
        for name in SKELETON_ENTANGLERS:
            entangler = TEMPLATE_ENTANGLERS[name](rng)
            template = prepare_resource(entangler)
            targets = [haar_unitary(rng) for _ in range(4)]
            targets += [dress(u, rng) for u in (np.eye(4), CNOT, SWAP, SQRT_SWAP, B_GATE,
                                                interaction(np.pi - 1e-10, 5e-11, 5e-11))]
            for target in targets:
                synthesize(target, entangler)
                dec = kak_decompose(target)
                raw = object_assembly(snap_vector(dec.c), dec, template)
                captured.append((entangler, raw, calls.pop()))
    return captured


def block_pattern_angles(local: tuple[bool, bool, bool], k: int) -> tuple[float, ...]:
    """Block angles (c1, c2, c3) with block i local where local[i]: 0 or pi, else
    below pi/2, pi/2, or above (fold_angle's folded branch), picked by k."""
    return tuple((0.0, np.pi)[(k + i) % 2] if is_local
                 else (0.4, np.pi / 2, 2.3, np.pi - 1e-3)[(k + i) % 4]
                 for i, is_local in enumerate(local))


def amplified_units(rng) -> list:
    """(unit, amplify's template of it) over every extraction case, doubling
    axis and fold branch, and TEMPLATE_ENTANGLERS' units; each unit also at
    gamma pi/8, where n = 2 builds the seam."""
    units = [(choose_unit(make(rng)), make(rng)) for make in TEMPLATE_ENTANGLERS.values()]
    for g, _, _ in FOLD_BRANCHES.values():
        for entangler in (interaction(*g), dress(interaction(*g), rng)):
            dec = kak_decompose(entangler)
            for k in range(3):
                try:
                    unit = zzsynth._folded_unit(dec, lambda g, k=k: k)
                except ValueError:  # a doubling whose folded angle is 0
                    continue
                units.append((unit, entangler))
    return [(u, zzsynth.amplify(u, entangler)) for unit, entangler in units
            for u in (unit, dataclasses.replace(unit, gamma=np.pi / 8))]


class TestStackedLayersBitIdentical:
    """Stacked fusion, evaluation and Kronecker products change no bit."""

    def test_merge_locals(self, monkeypatch, rng):
        for _, raw, skeleton in captured_calls(monkeypatch, rng):
            merged = fused(raw)
            assert_bit_identical(merged, merge_locals_loop(raw))
            assert_bit_identical(merged, skeleton)

    @pytest.mark.parametrize("name", SKELETON_ENTANGLERS)
    def test_every_local_block_pattern(self, name, rng):
        # The chamber (c1 >= c2 >= c3) lets synthesize meet 4 of the 8
        # patterns of local blocks; the stacked assembly takes any angles.
        entangler = TEMPLATE_ENTANGLERS[name](rng)
        template = prepare_resource(entangler)
        for k in range(2):
            for local in itertools.product((True, False), repeat=3):
                c = block_pattern_angles(local, k)
                dec = KakDecomposition(LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2)),
                                       CanonicalVector(0.0, 0.0, 0.0),
                                       LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2)),
                                       complex(np.exp(1j * rng.uniform(0, 2 * np.pi))), 0.0)
                skeleton = compiler._skeleton(c, dec, template)
                raw = object_assembly(c, dec, template)
                assert_bit_identical(skeleton, fused(raw))
                assert_bit_identical(skeleton, merge_locals_loop(raw))
                assert (evaluate(skeleton, entangler).tobytes()
                        == evaluate(fused(raw), entangler).tobytes())

    def test_merge_locals_in_amplify(self, rng):
        # amplify fuses the unit's chains once, as fused fuses the unit's
        # circuit; for n > 1 the seam fuses the merged unit's last layer
        # with its first, as fused fuses those two layers.
        for unit, template in amplified_units(rng):
            merged = fused(unit_circuit(unit))
            assert_bit_identical(merged, merge_locals_loop(unit_circuit(unit)))
            # One repetition: first, the core (a run of one), last.
            assert_bit_identical(run_resource(template, 1).circuit, merged)
            if template.n > 1:
                ends = slot_elements(merged)
                seam = fused(circuit_of(ends[-1:] + ends[:1], merged.phase))
                assert_bit_identical(circuit_of([template.seam], template.step_phase), seam)
        layer = LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
        for raw in (circuit_of([EntanglerApp()], phase=1j), circuit_of([layer], phase=-1j),
                    circuit_of([EntanglerApp(), layer, EntanglerApp()])):
            assert_bit_identical(fused(raw), merge_locals_loop(raw))

    def test_exact_zeros_keep_their_values(self, rng):
        # merge_locals pads a one-layer chain with identities to the depth of
        # the longest; a product with an identity turns -0.0 into +0.0, so
        # only the values of exact zeros are kept, not their signs.
        signed = np.array([[1, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 1]])
        long = [LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in range(3)]
        circ = circuit_of(long + [EntanglerApp(), LocalPair(signed, signed.copy())])
        merged, want = fused(circ), merge_locals_loop(circ)
        assert merged.phase == want.phase
        for got, ref in zip(merged.elements, want.elements):
            if isinstance(got, LocalPair):
                assert np.all(got.a == ref.a) and np.all(got.b == ref.b)
        assert merged.elements[-1].a[0, 1] == 0

    def test_evaluate(self, monkeypatch, rng):
        for entangler, _, skeleton in captured_calls(monkeypatch, rng):
            for circ in (skeleton, expanded(skeleton)):
                want = circ.phase * product_loop(slot_elements(circ), entangler)
                assert evaluate(circ, entangler).tobytes() == want.tobytes()

    def test_template_core_product(self):
        for name in SKELETON_ENTANGLERS:
            entangler = TEMPLATE_ENTANGLERS[name](np.random.default_rng(5))
            template = prepare_resource(entangler)
            core = expanded(run_resource(template, 1).circuit).elements[1:-1]
            want = product_loop(core, entangler)
            assert template.core_product.tobytes() == want.tobytes()

    def test_stacked_tensor(self, monkeypatch, rng):
        layers = [e for _, _, skeleton in captured_calls(monkeypatch, rng)
                  for e in expanded(skeleton).elements if isinstance(e, LocalPair)]
        a = np.array([e.a for e in layers])
        b = np.array([e.b for e in layers])
        want = np.array([np.kron(x, y) for x, y in zip(a, b)])
        assert tensor(a, b).tobytes() == want.tobytes()
        # One side broadcasts against the other's stack.
        assert tensor(a[0], b).tobytes() == np.array([np.kron(a[0], y) for y in b]).tobytes()
        stack = np.array([[a[:3], a[3:6]]])  # two leading axes
        got = tensor(stack, b[0])
        assert got.shape == (1, 2, 3, 4, 4)
        assert np.array_equal(got[0, 1, 2], np.kron(a[5], b[0]))


class TestResourceMemo:
    @pytest.fixture
    def preparations(self, monkeypatch):
        """Clears the memo and counts the preparations synthesize makes."""
        calls = []
        original = compiler.prepare_resource

        def counting(entangler, *, dec=None):
            calls.append(entangler)
            return original(entangler, dec=dec)

        compiler._resource_memo.clear()
        monkeypatch.setattr(compiler, "prepare_resource", counting)
        yield calls
        compiler._resource_memo.clear()

    def test_one_preparation_per_entangler(self, preparations, rng):
        for k in range(5):
            # Equal bytes, not the same object, select the memo entry.
            synthesize(haar_unitary(rng), CNOT.copy() if k % 2 else CNOT)
        assert len(preparations) == 1

    def test_miss_decomposes_target_and_entangler_in_one_call(self, preparations, monkeypatch,
                                                              rng):
        rows = spy_kak_rows(monkeypatch)
        synthesize(haar_unitary(rng), B_GATE)  # a miss: one KAK of the stacked pair
        assert rows == [2] and len(preparations) == 1
        synthesize(haar_unitary(rng), B_GATE)  # a hit: one KAK of the target alone
        assert rows == [2, 1] and len(preparations) == 1

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
        assert len(compiler._resource_memo) == compiler.RESOURCE_MEMO_SIZE

    def test_least_recently_used_goes_first(self, preparations, rng):
        target = haar_unitary(rng)
        entanglers = [cphase(np.pi / (k + 2)) for k in range(compiler.RESOURCE_MEMO_SIZE + 1)]
        for entangler in entanglers[:-1]:
            synthesize(target, entangler)
        synthesize(target, entanglers[0])  # a hit makes the oldest entry the newest
        synthesize(target, entanglers[-1])  # a miss on a full memo drops entanglers[1]
        assert len(preparations) == compiler.RESOURCE_MEMO_SIZE + 1
        synthesize(target, entanglers[0])
        assert len(preparations) == compiler.RESOURCE_MEMO_SIZE + 1
        synthesize(target, entanglers[1])
        assert len(preparations) == compiler.RESOURCE_MEMO_SIZE + 2

    @pytest.mark.parametrize("entangler", [SWAP, zz_interaction(4e-5), np.ones((4, 4))],
                             ids=["swap_class", "above_cap", "non_unitary"])
    def test_errors_are_not_cached(self, preparations, monkeypatch, rng, entangler):
        # Every call misses: the stacked KAK refuses a non-unitary entangler,
        # prepare_resource the others.
        rows = spy_kak_rows(monkeypatch)
        target = haar_unitary(rng)
        for _ in range(3):
            with pytest.raises(ValueError):
                synthesize(target, entangler)
        assert rows == [2, 2, 2]
        assert len(preparations) == (0 if unitarity_error(entangler) > 1e-10 else 3)
        assert not compiler._resource_memo

    def test_mutating_a_result_leaves_the_memo_intact(self, preparations, rng):
        target = haar_unitary(rng)
        first, _ = synthesize(target, cphase(np.pi / 9))
        view = first.elements  # built fresh on each read: this one list is written below
        snapshot = circuit_of([LocalPair(e.a.copy(), e.b.copy()) if isinstance(e, LocalPair)
                               else e for e in view], first.phase)
        # A block of m units (E L E ... E) holds m - 1 seam layers per
        # insertion, all equal to the memo's seam; the first one is mutated,
        # and only it may change.
        ms = block_units(target, np.pi / 18)
        assert max(ms) > 1
        same = lambda e, f: (isinstance(e, LocalPair) and np.array_equal(e.a, f.a)
                             and np.array_equal(e.b, f.b))
        index = next(i for i, e in enumerate(snapshot.elements) if isinstance(e, LocalPair)
                     and sum(same(f, e) for f in snapshot.elements) > 1)
        inner = view[index]
        repeats = [i for i, e in enumerate(snapshot.elements) if same(e, inner)]
        assert len(repeats) == 2 * sum(m - 1 for m in ms if m)
        inner.a[...] = 0
        for i, (elem, kept) in enumerate(zip(view, snapshot.elements)):
            if isinstance(elem, LocalPair) and i != index:
                assert np.array_equal(elem.a, kept.a) and np.array_equal(elem.b, kept.b)
        for elem in view:
            if isinstance(elem, LocalPair):
                elem.a[...] = 0
                elem.b[...] = 0
        assert_bit_identical(first, snapshot)
        second, _ = synthesize(target, cphase(np.pi / 9))
        assert len(preparations) == 1
        assert_bit_identical(second, snapshot)


def block_units(target: np.ndarray, unit_gamma: float,
                tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Units each of the target's blocks needs: the fewest m with h <= 2 m gamma
    (up to ROUNDOFF) for its folded angle h; 0 for a block of angle 0 or pi."""
    ms = []
    for c in snap_vector(kak_decompose(target, tol).c):
        h = min(c, np.pi - c)
        ms.append(0 if h == 0 else next(m for m in itertools.count(1)
                                        if h <= 2 * m * unit_gamma + ROUNDOFF))
    return ms


def synthesize_expanded(target: np.ndarray, entangler: np.ndarray,
                        tol: ToleranceConfig = DEFAULT_TOL) -> Circuit:
    """Reference assembly: each block built on the once-merged unit repeated
    m times, then one merge of the circuit, which fuses the seams; no
    template, no powers."""
    dec = kak_decompose(target, tol)
    unit = choose_unit(entangler)
    merged = fused(unit_circuit(unit))
    c1, c2, c3 = snap_vector(dec.c)
    elements, phase = [dec.k2], dec.phase
    for c, interleaver in ((c3, LocalPair(KY_FACTOR, KY_FACTOR)),
                           (c2, LocalPair(KX_KY_DAG, KX_KY_DAG)),
                           (c1, LocalPair(dec.k1.a @ KX_DAG, dec.k1.b @ KX_DAG))):
        m = max(1, int(np.ceil(min(c, np.pi - c) / (2 * unit.gamma))))
        m_units = circuit_of(merged.elements * m, merged.phase ** m)
        resource = CircuitResource(m_units, m * unit.gamma, unit.apps_per_unit)
        block = object_block(c, resource)
        elements += block.elements + [interleaver]
        phase *= block.phase
    return fused(circuit_of(elements, phase))


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
    """synthesize verifies on the memo's template runs, then emits them expanded."""

    @pytest.mark.parametrize("name", TEMPLATE_ENTANGLERS)
    def test_matches_reference_assembly(self, name, rng):
        # The reference merges the runs' interior layers a second time; those
        # already have unit determinant, so only last places may move. CNOT's
        # run is one bare application, with no layer to move.
        layer_tol, phase_tol = (0.0, 0.0) if name == "cnot" else (1e-15, 1e-13)
        entangler = TEMPLATE_ENTANGLERS[name](rng)
        targets = [haar_unitary(rng) for _ in range(6)] + [CNOT, SWAP, SQRT_SWAP, B_GATE]
        for target in targets:
            circuit, report = synthesize(target, entangler)
            reference = synthesize_expanded(target, entangler)
            assert [type(e) for e in circuit.elements] == [type(e) for e in reference.elements]
            for got, want in zip(circuit.elements, reference.elements):
                if isinstance(got, LocalPair):
                    assert np.abs(got.a - want.a).max() <= layer_tol
                    assert np.abs(got.b - want.b).max() <= layer_tol
            assert abs(circuit.phase - reference.phase) <= phase_tol
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


def chamber_boundary_points(rng: np.random.Generator) -> list[tuple[float, float, float]]:
    """The chamber's four vertices, points on its six edges and on its four faces
    (pi - c2 >= c1 >= c2 >= c3 >= 0)."""
    h = np.pi / 2
    points = [(0.0, 0.0, 0.0), (np.pi, 0.0, 0.0), (h, h, 0.0), (h, h, h)]
    for t in rng.uniform(0.0, h, 2):
        points += [(2 * t, 0.0, 0.0), (t, t, 0.0), (t, t, t),
                   (np.pi - t, t, 0.0), (np.pi - t, t, t), (h, h, t)]
    for _ in range(2):
        c3, c2 = np.sort(rng.uniform(0.0, h, 2))
        c1 = rng.uniform(c2, np.pi - c2)
        points += [(c1, c2, 0.0), (c2, c2, c3), (c1, c3, c3), (np.pi - c2, c2, c3)]
    return points


def bounded_haar_entanglers(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Seeded Haar entanglers whose uniform bound is at most 600; circuits
    grow with the bound, and this keeps the sweep to a second."""
    entanglers = []
    while len(entanglers) < count:
        entangler = haar_unitary(rng)
        if upper_bound(entangler).bound <= 600:
            entanglers.append(entangler)
    return entanglers


class TestPerBlockRepetition:
    """A block of folded angle h inserts m_h <= n units; the bound stays 6 n apps."""

    def test_counts_follow_the_block_angles(self, rng):
        entanglers = [cphase(np.pi / 9), zz_interaction(np.pi / 20), CNOT, B_GATE]
        entanglers += bounded_haar_entanglers(rng, 3)
        targets = [haar_unitary(rng) for _ in range(8)]
        targets += [dress(interaction(*c), rng) for c in chamber_boundary_points(rng)]
        below_bound = 0
        for entangler in entanglers:
            # The unit synthesize repeats (choose_unit), against the paper's.
            unit, paper = choose_unit(entangler), extract_zz(entangler)
            for target in targets:
                circuit, report = synthesize(target, entangler)
                assert report.apps_per_unit == unit.apps_per_unit
                assert report.gamma == report.n * unit.gamma
                ms = block_units(target, unit.gamma)
                assert report.entangler_count == 2 * unit.apps_per_unit * sum(ms)
                paper_ms = block_units(target, paper.gamma)
                assert report.entangler_count <= 2 * paper.apps_per_unit * sum(paper_ms)
                assert report.entangler_count == circuit.entangler_count <= report.bound
                assert report.bound == 6 * report.n * unit.apps_per_unit
                assert report.residual < DEFAULT_TOL.verify_tol
                assert phase_distance(evaluate(circuit, entangler), target) < DEFAULT_TOL.verify_tol
                below_bound += report.entangler_count < report.bound
        assert below_bound > 0

    def test_cap_case_memo_entry_stays_the_same_size(self, monkeypatch, rng):
        entangler = zz_interaction(np.pi / 4 / 16666)
        compiler._resource_memo.clear()
        try:
            synthesize(haar_unitary(rng), entangler)
            entry = compiler._resource_memo[(entangler.shape, entangler.tobytes(), DEFAULT_TOL)]
            size = (len(entry.run_layers), len(entry.powers))
            assert entry.n == 16666 and len(entry.powers) == (entry.n - 1).bit_length()
            rows = spy_kak_rows(monkeypatch)
            for _ in range(3):
                _, report = synthesize(haar_unitary(rng), entangler)
                assert report.residual < DEFAULT_TOL.verify_tol
                assert report.entangler_count <= report.bound == 99996
            assert rows == [1, 1, 1]  # three memo hits
            assert list(compiler._resource_memo.values()) == [entry]
            assert (len(entry.run_layers), len(entry.powers)) == size
        finally:
            compiler._resource_memo.clear()


ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)


def paper_bound(unit: ZzResource) -> int:
    return uniform_bound(repetitions(unit.gamma), unit.apps_per_unit)


def paper_count(target: np.ndarray, paper: ZzResource) -> int:
    """Applications the paper's unit needs for a target, by arithmetic."""
    n = repetitions(paper.gamma)
    hs = [fold_angle(c)[0] for c in snap_vector(kak_decompose(target).c)]
    return 2 * paper.apps_per_unit * sum(block_repetitions(h, paper.gamma, n)
                                         for h in hs if h > 0.0)


def near_boundary_triples(rng: np.random.Generator) -> list[tuple[float, float, float]]:
    """Entangler classes within eps of the extraction-case boundaries and of
    the chamber faces, plus the miscalibrated CNOT (pi/2 - d, d/10, d/100)."""
    h = np.pi / 2
    triples = []
    for eps in (1e-7, 1e-5, 1e-3):
        g1, g2, g3 = np.sort(rng.uniform(0.2, 1.3, 3))[::-1]
        triples += [(g1, eps, 0.0), (g1, eps, eps), (g1, g2, eps),    # cases 1|3, 1|4, 3|4
                    (h, h - eps, 0.0), (h, h - eps, eps), (h + eps, h - eps, 0.0),  # near case 2
                    (h - eps, g2, 0.0), (h + eps, g2, g3),            # g1 doubles to near pi
                    (np.pi - g2 - eps, g2, g3), (g2 + eps, g2, g3), (g1, g3 + eps, g3)]  # faces
    triples += [(h - d, d / 10, d / 100) for d in np.logspace(-6, -3, 7)]
    return triples


class TestSmallestBoundUnit:
    """synthesize repeats the unit of smallest uniform bound (choose_unit); no
    bound and no count exceeds the paper's unit's."""

    @pytest.mark.parametrize("gate, expected", [
        (CNOT, (np.pi / 2, 1, 1, 6)), (gates.CZ, (np.pi / 2, 1, 1, 6)),
        (B_GATE, (np.pi / 2, 2, 1, 12)), (SQRT_SWAP, (np.pi / 2, 2, 1, 12)),
        (ISWAP, (np.pi / 2, 2, 1, 12))])
    def test_named_gates_keep_their_bound(self, gate, expected):
        report = upper_bound(gate)
        gamma, apps, n, bound = expected
        assert report.gamma == pytest.approx(gamma, abs=1e-12)
        assert (report.apps_per_unit, report.n, report.bound) == (apps, n, bound)

    @pytest.mark.parametrize("make", [cphase, zz_interaction])
    def test_cphase_and_zz_keep_the_paper_unit(self, make):
        # Case 1 (g2 = g3 = 0) never moves: its one-application unit wins or
        # ties on the bound and wins on applications.
        for k in range(1, 96):
            if make is zz_interaction and k == 48:  # ZZ(pi) is local
                continue
            gate = make(k * np.pi / 48)
            paper, report = extract_zz(gate), upper_bound(gate)
            n = repetitions(paper.gamma)
            assert (report.gamma, report.apps_per_unit, report.n, report.bound) == (
                n * paper.gamma, paper.apps_per_unit, n, uniform_bound(n, paper.apps_per_unit))

    def test_never_above_the_paper_unit(self, rng):
        entanglers = [haar_unitary(rng) for _ in range(10)]
        entanglers += [dress(interaction(*g), rng) for g in near_boundary_triples(rng)]
        targets = [haar_unitary(rng) for _ in range(6)]
        targets += [dress(interaction(*c), rng) for c in chamber_boundary_points(rng)]
        moved = 0
        for entangler in entanglers:
            paper, bound = extract_zz(entangler), upper_bound(entangler).bound
            assert bound <= paper_bound(paper)
            moved += bound < paper_bound(paper)
            if bound > MAX_APPLICATIONS:
                with pytest.raises(ValueError, match="above the cap"):
                    synthesize(targets[0], entangler)
                continue
            # Long circuits meet only the worst target (every block at pi/2) and one other.
            chosen = targets if bound <= 5000 else [dress(SWAP, rng), targets[0]]
            for target in chosen:
                _, report = synthesize(target, entangler)
                assert report.bound == bound == 6 * report.n * report.apps_per_unit
                assert report.entangler_count <= min(bound, paper_count(target, paper))
                assert report.residual < DEFAULT_TOL.verify_tol
        assert moved > 0

    def test_miscalibrated_cnot_compiles(self, rng):
        entangler = interaction(np.pi / 2 - 1e-3, 1e-4, 1e-5)
        assert paper_bound(extract_zz(entangler)) == 471240
        _, report = synthesize(haar_unitary(rng), entangler)
        assert report.bound == 4716
        assert report.residual < DEFAULT_TOL.verify_tol


class TestReportCounts:
    """synthesize reads its counts off the template runs, never the expanded circuit."""

    @pytest.mark.parametrize("target, entangler", [
        (SWAP, CNOT),                                      # m = n = 1
        (SWAP, cphase(np.pi / 9)),                         # every block m = n = 5
        (CNOT, cphase(np.pi / 9)),                         # one block, m = 3 of n = 5
        (SWAP, zz_interaction(np.pi / 4 / 16666)),         # the cap case, m = n = 16666
    ])
    def test_counts_match_the_expanded_circuit(self, monkeypatch, target, entangler):
        def scan(_):
            raise AssertionError("synthesize scanned the expanded circuit")

        with monkeypatch.context() as patch:
            patch.setattr(Circuit, "entangler_count", property(scan))
            patch.setattr(Circuit, "local_count", property(scan))
            circuit, report = synthesize(target, entangler)
        assert report.entangler_count == circuit.entangler_count
        assert report.local_count == circuit.local_count
        assert report.residual < DEFAULT_TOL.verify_tol


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

    def test_rejects_two_qubit_input(self):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            efficient_as_cnot(SWAP)


def test_end_to_end_batch(rng):
    triples = [(np.pi / 2, 0, 0), (np.pi / 2, np.pi / 2, 0), (np.pi / 3, np.pi / 4, 0),
               (np.pi / 2, np.pi / 4, 0), (np.pi / 3, np.pi / 4, np.pi / 6)]
    for k in range(40):
        target = haar_unitary(rng)
        ent = dress(interaction(*triples[k % len(triples)]), rng)
        circuit, report = synthesize(target, ent)
        assert report.residual < 1e-8
        assert report.entangler_count <= report.bound
