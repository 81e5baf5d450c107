import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.blocksynth import (AxisAngle, block_params, controlled_u_circuit,
                                  controlled_u_gamma, plan_blocks, synth_zz_block)
from gatesynth.compiler import efficient_as_cnot
from gatesynth.gates import B_GATE, CNOT, SQRT_SWAP, cphase, phase_gate
from gatesynth.kak import kak_decompose
from gatesynth.matcore import (Circuit, EntanglerApp, LocalPair, SIGMA_X, SIGMA_Z,
                               evaluate, exp_pauli, phase_distance, tensor, zz_interaction)
from gatesynth.zzsynth import block_repetitions, fold_angle, repetitions

from conftest import (CircuitResource, block_circuit, block_layers, chains_circuit, circuit_of,
                      controlled_matrix, counted, exact_template, expanded, haar_unitary,
                      planned_block, prepared, repeated, run_resource, slot_elements)

ID2 = np.eye(2, dtype=complex)


def unfolded_block(c: float, resource: CircuitResource) -> Circuit:
    """Reference block for c in (0, pi/2]: u2, resource, mid, resource, u1; no fold."""
    _, u2, mid, _, u1 = block_layers(c, resource.gamma)
    elems = ([LocalPair(ID2, u2)]
             + slot_elements(resource.circuit)
             + [LocalPair(ID2, mid)]
             + slot_elements(resource.circuit)
             + [LocalPair(ID2, u1)])
    return circuit_of(elems, phase=resource.circuit.phase ** 2)


class TestBlockParams:
    def test_cnot_endpoint_b_equals_c(self):
        for c in (0.2, np.pi / 4, np.pi / 2):
            b, p, q = block_params(c, np.pi / 2)
            assert b == pytest.approx(c, abs=1e-12)
            assert p == pytest.approx(1 / np.sqrt(2), abs=1e-12)
            assert q == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_reachability_boundary(self):
        # c = 2*gamma forces b = pi and q = 0
        gamma = np.pi / 4
        b, p, q = block_params(2 * gamma, gamma)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert q == pytest.approx(0.0, abs=1e-7)
        assert b == pytest.approx(np.pi, abs=1e-6)

    def test_proof_identities(self):
        c, gamma = np.pi / 4, np.pi / 3
        b, p, q = block_params(c, gamma)
        assert p * p + q * q == pytest.approx(1.0, abs=1e-12)
        assert np.sin(c / 2) == pytest.approx(np.sin(gamma) * np.sin(b / 2), abs=1e-12)
        assert p * q == pytest.approx(np.cos(b / 2) / (2 * np.cos(c / 2)), abs=1e-12)

    @pytest.mark.parametrize("c", [1e-10, 1e-8, 1e-4])
    @pytest.mark.parametrize("gamma", [np.pi / 4, np.pi / 3, np.pi / 2])
    def test_half_angle_identity_small_c(self, c, gamma):
        b = block_params(c, gamma)[0]
        assert np.sin(gamma) * np.sin(b / 2) == pytest.approx(np.sin(c / 2), rel=1e-9)

    def test_rejects_unreachable(self):
        with pytest.raises(ValueError, match="reachable"):
            block_params(0.7, 0.3)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            block_params(0.0, np.pi / 2)
        with pytest.raises(ValueError, match="reachable"):
            block_params(0.25, 0.1)
        for gamma in (0.0, -0.1, np.pi / 2 + 1e-9, np.nan):
            with pytest.raises(ValueError, match="gamma"):
                block_params(0.1, gamma)

    @pytest.mark.parametrize("gamma", [1e-3, 0.1, np.pi / 5])
    def test_weak_gamma_reaches_twice_gamma(self, gamma):
        # Below pi/4 the equations still hold up to c = 2 gamma.
        for c in (gamma / 7, gamma, 2 * gamma):
            b, p, q = block_params(c, gamma)
            assert p ** 2 + q ** 2 == pytest.approx(1.0, abs=1e-12)
            assert np.sin(gamma) * np.sin(b / 2) == pytest.approx(np.sin(c / 2), rel=1e-12)


def u1_u2(c: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The u1 and u2 halves synth_zz_block builds for the unfolded block c
    over one repetition of ZZ(gamma), gamma >= pi/4: the last chain's last
    half and the first chain's second."""
    chains = planned_block(c, exact_template(gamma))[0]
    return chains[-1][-1], chains[0][1]


class TestU1U2:
    def test_equal_weights_closed_form(self):
        u1, u2 = u1_u2(0.9, np.pi / 2)
        np.testing.assert_allclose(u1, np.array([[1j, 1j], [-1, 1]]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(u2, np.array([[1j, -1], [-1j, -1]]) / np.sqrt(2), atol=1e-12)

    def test_degenerate_weights(self):
        gamma = np.pi / 4
        u1, u2 = u1_u2(2 * gamma, gamma)
        np.testing.assert_allclose(u1, np.array([[1j, 0], [0, 1]]), atol=1e-7)
        np.testing.assert_allclose(u2, np.array([[1j, 0], [0, -1]]), atol=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.01, max_value=np.pi / 2),
           st.floats(min_value=np.pi / 4, max_value=np.pi / 2))
    def test_always_unitary(self, c, gamma):
        if c > 2 * gamma:
            c = 2 * gamma
        u1, u2 = u1_u2(c, gamma)
        np.testing.assert_allclose(u1 @ u1.conj().T, ID2, atol=1e-12)
        np.testing.assert_allclose(u2 @ u2.conj().T, ID2, atol=1e-12)


def test_middle_layer_is_exp_pauli_y():
    # synth_zz_block writes exp(i ((b + pi)/2) Y) as one array: bit for bit
    # exp_pauli's, on a grid of b in [0, pi] with both endpoints. A block is
    # a plain tuple, so its b is set directly.
    grid = np.linspace(0, np.pi, 2001)
    assert grid[0] == 0.0 and grid[-1] == np.pi
    template = exact_template(np.pi / 2)
    (block,), _ = plan_blocks([0.5], template)
    for b in grid:
        chains = synth_zz_block((*block[:6], b, 0.6, 0.8), template)[0]
        mid = chains[1][len(template.last) + 1]  # last, then I (x) mid
        assert mid.dtype == complex
        assert mid.tobytes() == exp_pauli("y", (b + np.pi) / 2).tobytes()


class TestPlanBlocks:
    """plan_blocks fixes each block's numbers and the count before any matrix is built."""

    def test_blocks_hold_the_closed_form_numbers(self):
        template = prepared(cphase(np.pi / 9))  # gamma pi/18, n 5
        cs = [0.0, 0.1, np.pi / 2, 2.5, np.pi]
        blocks, count = plan_blocks(cs, template)
        assert [block[0] for block in blocks] == cs
        for c, (_, h, pre, post, phase, m, b, p, q) in zip(cs, blocks):
            assert (h, pre, post, phase) == fold_angle(c)
            if h == 0.0:
                assert (m, b, p, q) == (0, None, None, None)
            else:
                assert m == block_repetitions(h, template.gamma)
                assert (b, p, q) == block_params(h, m * template.gamma)
        assert [block[5] for block in blocks] == [0, 1, 5, 2, 0]
        assert count == 2 * template.apps_per_unit * 8 == 16

    @pytest.mark.parametrize("entangler", [CNOT, cphase(np.pi / 9), B_GATE, SQRT_SWAP],
                             ids=["cnot", "cphase_pi_9", "b", "sqrt_swap"])
    def test_count_is_the_built_blocks(self, entangler, rng):
        template = prepared(entangler)
        angles = [0.0, np.pi, np.pi / 2, 1e-10, *rng.uniform(0.0, np.pi, 12)]
        blocks, count = plan_blocks(angles, template)
        built = [chains_circuit(*synth_zz_block(block, template)) for block in blocks]
        assert count == sum(counted(circuit.elements)[0] for circuit in built)
        for c, circuit in zip(angles, built):
            assert counted(circuit.elements)[0] == plan_blocks([c], template)[1]


class TestSynthZzBlock:
    def test_cnot_resource_half_pi_block(self):
        circ = block_circuit(np.pi / 2, exact_template(np.pi / 2))
        got = evaluate(circ, zz_interaction(np.pi / 2))
        assert phase_distance(got, zz_interaction(np.pi / 2)) < 1e-10
        assert counted(circ.elements)[0] == 2

    def test_cphase_derived_resource(self):
        # the worked example: quarter-pi block from a controlled-PHASE gate
        for phi in (np.pi / 2, 2 * np.pi / 3, np.pi):
            template = prepared(cphase(phi))
            assert template.n == repetitions(template.gamma) == 1
            assert template.gamma == pytest.approx(phi / 2, abs=1e-9)
            circ = block_circuit(np.pi / 4, template)
            got = evaluate(circ, cphase(phi))
            assert phase_distance(got, zz_interaction(np.pi / 4)) < 1e-9

    def test_boundary_c_equals_two_gamma(self):
        gamma = np.pi / 4
        circ = block_circuit(2 * gamma, exact_template(gamma))
        got = evaluate(circ, zz_interaction(gamma))
        assert phase_distance(got, zz_interaction(2 * gamma)) < 1e-6

    def test_reflected_range(self):
        # c in (pi/2, pi) folds to pi - c through Pauli layers
        c = 2.5
        circ = block_circuit(c, exact_template(np.pi / 2))
        got = evaluate(circ, zz_interaction(np.pi / 2))
        np.testing.assert_allclose(got, zz_interaction(c), atol=1e-12)
        assert counted(circ.elements)[0] == 2

    def test_exactly_two_insertions(self):
        # At h = pi/2 the block repeats the unit all n = 3 times, in each of
        # its two insertions.
        template = prepared(cphase(np.pi / 5))
        chains, runs, _ = planned_block(np.pi / 2, template)
        assert len(chains) == 3 and len(runs) == 2
        assert [run.reps for run in runs] == [template.n] * 2
        circ = expanded(block_circuit(np.pi / 2, template))
        unit = expanded(run_resource(template, template.n).circuit)
        assert counted(circ.elements)[0] == 2 * counted(unit.elements)[0] == 6

    def test_block_diagonal_structure(self):
        # evaluated block is diag(W, V) with V = W^{-1} = e^{-c(i/2)sz}
        for c, gamma in [(0.4, np.pi / 4), (np.pi / 2, np.pi / 2), (1.2, 2 * np.pi / 5)]:
            got = evaluate(block_circuit(c, exact_template(gamma)), zz_interaction(gamma))
            np.testing.assert_allclose(got[:2, 2:], 0, atol=1e-10)
            np.testing.assert_allclose(got[2:, :2], 0, atol=1e-10)
            w, v = got[:2, :2], got[2:, 2:]
            np.testing.assert_allclose(w @ v, ID2, atol=1e-10)

    def test_pi_is_local(self):
        # exp(pi (i/2) ZZ) = i ZZ: one local layer, no insertion
        circ = block_circuit(np.pi, exact_template(np.pi / 2))
        assert counted(circ.elements) == (0, 1)
        np.testing.assert_array_equal(evaluate(circ, zz_interaction(np.pi / 2)),
                                      1j * np.kron(SIGMA_Z, SIGMA_Z))

    def test_zero_is_identity_layer(self):
        circ = block_circuit(0.0, exact_template(np.pi / 2))
        assert counted(circ.elements) == (0, 1)
        np.testing.assert_array_equal(evaluate(circ, zz_interaction(np.pi / 2)), np.eye(4))

    @pytest.mark.parametrize("c", [-1e-12, np.nextafter(np.pi, 4.0)])
    def test_rejects_outside_range(self, c):
        with pytest.raises(ValueError, match="outside"):
            plan_blocks([c], exact_template(np.pi / 2))

    def test_unfolded_blocks_bit_identical(self, rng):
        # c <= pi/2 needs no fold, so the block is the unfolded construction
        # on its m-fold unit to the bit; includes the q = 0 corner c = 2 gamma = pi/2.
        templates = [exact_template(g) for g in (np.pi / 4, np.pi / 3, np.pi / 2)]
        templates += [prepared(ent) for ent in (CNOT, cphase(np.pi / 9))]
        angles = [np.pi / 2, np.pi / 4, 1e-10] + list(rng.uniform(0.0, np.pi / 2, 40))
        for template in templates:
            for c in angles:
                m = block_repetitions(c, template.gamma)
                got = expanded(block_circuit(c, template))
                want = unfolded_block(c, repeated(template, m))
                assert np.complex128(got.phase).tobytes() == np.complex128(want.phase).tobytes()
                assert [type(e) for e in got.elements] == [type(e) for e in want.elements]
                for g, w in zip(got.elements, want.elements):
                    if isinstance(g, LocalPair):
                        assert g.a.tobytes() == w.a.tobytes()
                        assert g.b.tobytes() == w.b.tobytes()

    def test_rejects_out_of_range_gamma(self):
        # A resource angle outside (0, pi/2] has no template, so no block.
        for gamma in (0.0, np.pi / 2 + 1e-9):
            with pytest.raises(ValueError, match="outside"):
                plan_blocks([0.3], exact_template(gamma))

    def test_weak_resource_block(self):
        # c <= 2 gamma suffices: 0.3 from two insertions of ZZ(0.2).
        circ = block_circuit(0.3, exact_template(0.2))
        got = evaluate(circ, zz_interaction(0.2))
        assert phase_distance(got, zz_interaction(0.3)) < 1e-12
        assert counted(circ.elements)[0] == 2
        # Past 2 gamma the unit repeats: 0.5 from two insertions of ZZ(0.2) twice.
        circ = block_circuit(0.5, exact_template(0.2))
        got = evaluate(circ, zz_interaction(0.2))
        assert phase_distance(got, zz_interaction(0.5)) < 1e-12
        assert counted(circ.elements)[0] == 4


class TestControlledU:
    def test_z_axis_branches(self):
        spec = AxisAngle(gamma=1.1, axis=(0.0, 0.0, 1.0))
        circ = controlled_u_circuit(spec)
        locals_ = [e for e in circ.elements if not isinstance(e, EntanglerApp)]
        np.testing.assert_allclose(locals_[-1].b, SIGMA_X, atol=1e-15)
        got = evaluate(circ, zz_interaction(spec.gamma))
        assert phase_distance(got, controlled_matrix(spec)) < 1e-12

        spec = AxisAngle(gamma=1.1, axis=(0.0, 0.0, -1.0))
        circ = controlled_u_circuit(spec)
        locals_ = [e for e in circ.elements if not isinstance(e, EntanglerApp)]
        np.testing.assert_allclose(locals_[-1].b, ID2, atol=1e-15)
        got = evaluate(circ, zz_interaction(spec.gamma))
        assert phase_distance(got, controlled_matrix(spec)) < 1e-12

    def test_x_axis_gives_controlled_x_class(self):
        spec = AxisAngle(gamma=np.pi / 2, axis=(1.0, 0.0, 0.0))
        got = evaluate(controlled_u_circuit(spec), zz_interaction(np.pi / 2))
        # oracle: assemble diag(I, exp(i pi/2 sx)) = diag(I, i sx) directly
        oracle = np.eye(4, dtype=complex)
        oracle[2:, 2:] = 1j * SIGMA_X
        assert phase_distance(got, oracle) < 1e-12

    def test_single_interaction_and_block_diagonal(self, rng):
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            spec = AxisAngle(gamma=rng.uniform(0.05, 3.0), axis=tuple(axis))
            circ = controlled_u_circuit(spec)
            assert counted(circ.elements)[0] == 1
            got = evaluate(circ, zz_interaction(spec.gamma))
            np.testing.assert_allclose(got[:2, 2:], 0, atol=1e-10)
            np.testing.assert_allclose(got[2:, :2], 0, atol=1e-10)
            assert phase_distance(got, controlled_matrix(spec)) < 1e-10

    def test_rejects_bad_axis(self):
        for gamma, axis in ((1.0, (1.0, 1.0, 0.0)), (-1.0, (1.0, 0.0, 0.0)),
                            (np.nan, (1.0, 0.0, 0.0)), (np.inf, (1.0, 0.0, 0.0)),
                            (1.0, (np.nan, 0.0, 0.0)), (1.0, (1.0, np.nan, np.nan)),
                            (1.0, (0.6, 0.8)), (1.0, (0.6, 0.8, 0.0, 0.0)),
                            (0.7, (0.6j, 0.8, 0.0)), (0.7, (0.0, 0.0, 1.0 + 0.0j))):
            with pytest.raises(ValueError):
                AxisAngle(gamma=gamma, axis=axis)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus_z", "minus_z"])
    def test_axes_near_z_keep_every_digit(self, sign):
        # Tilts from 1e-15 to 1e-3 off +-z, at norms up to 5e-13 off 1
        # (AxisAngle accepts 1e-12), and nz = 1 - 1e-9 on a unit axis.
        axes = [(np.sqrt(1 - (1 - 1e-9) ** 2), 0.0, sign * (1 - 1e-9))]
        for tilt in np.logspace(-15, -3, 25):
            for azimuth in (0.0, 0.4, 2.0, 4.0):
                for norm in (1 - 5e-13, 1.0, 1 + 5e-13):
                    axes.append((norm * np.sin(tilt) * np.cos(azimuth),
                                 norm * np.sin(tilt) * np.sin(azimuth),
                                 norm * sign * np.cos(tilt)))
        for gamma in (0.7, np.pi / 2, 2.9):
            for axis in axes:
                spec = AxisAngle(gamma=gamma, axis=axis)
                got = evaluate(controlled_u_circuit(spec), zz_interaction(gamma))
                assert phase_distance(got, controlled_matrix(spec)) < 1e-12, (gamma, axis)


class TestControlledUGamma:
    def test_sigma_x_is_cnot(self):
        assert controlled_u_gamma(SIGMA_X) == pytest.approx(np.pi / 2, abs=1e-10)

    def test_identity(self):
        assert controlled_u_gamma(ID2) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_two_qubit_input(self):
        # A 4x4 unitary passes the unitarity check; it must not reach the 2x2 slot.
        with pytest.raises(ValueError, match=re.escape("expected a 2x2 matrix, got shape (4, 4)")):
            controlled_u_gamma(CNOT)

    @pytest.mark.parametrize("u", [np.zeros(3), np.zeros((2, 1))], ids=["vector", "column"])
    def test_names_a_wrong_shape(self, u):
        # The shape is checked before unitarity: neither is a 2x2 matrix
        # that fails the unitarity check.
        want = re.escape(f"expected a 2x2 matrix, got shape {u.shape}")
        for f in (controlled_u_gamma, efficient_as_cnot):
            with pytest.raises(ValueError, match=want):
                f(u)

    @pytest.mark.parametrize("phi", [0.3, np.pi / 4, np.pi / 2, np.pi])
    def test_phase_gate_coordinate(self, phi):
        assert controlled_u_gamma(phase_gate(phi)) == pytest.approx(phi / 2, abs=1e-10)

    def test_controlled_gates_land_on_lower_half(self, rng):
        # The chamber fold on the c3 = 0 base keeps c1 <= pi/2 (up to the
        # 1e-12 tie window), so the coordinate needs no further folding.
        gates = [phase_gate(phi) for phi in np.linspace(0.0, 2 * np.pi, 721)]
        gates += [haar_unitary(rng, 2) for _ in range(200)]
        for u in gates:
            cu = np.eye(4, dtype=complex)
            cu[2:, 2:] = u
            assert kak_decompose(cu).c.c1 <= np.pi / 2 + 1e-12

    def test_conjugation_invariance(self, rng):
        for _ in range(10):
            u = haar_unitary(rng, 2)
            a = haar_unitary(rng, 2)
            left = controlled_u_gamma(u)
            right = controlled_u_gamma(a @ u @ a.conj().T)
            assert left == pytest.approx(right, abs=1e-9)
