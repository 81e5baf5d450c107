import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.gates import (B_GATE, CNOT, CZ, SQRT_SWAP, SWAP, cphase, parse_angle,
                             phase_gate, resolve_descriptor, resolve_gate)
from gatesynth.kak import kak_decompose
from gatesynth.matcore import exp_pauli, interaction, tensor, unitarity_error
from gatesynth.serialize import encode_matrix

from conftest import matrix_json


class TestClosedForms:
    def test_all_named_gates_unitary(self):
        for gate in (CNOT, CZ, SWAP, SQRT_SWAP, B_GATE, cphase(0.7)):
            assert unitarity_error(gate) <= 1e-15

    def test_sqrt_swap_squares_to_swap(self):
        np.testing.assert_allclose(SQRT_SWAP @ SQRT_SWAP, SWAP, atol=1e-15)

    def test_sqrt_swap_interaction_form(self):
        # e^{-i pi/8} times the (pi/4, pi/4, pi/4) interaction, exactly
        np.testing.assert_allclose(
            SQRT_SWAP, np.exp(-1j * np.pi / 8) * interaction(np.pi / 4, np.pi / 4, np.pi / 4),
            atol=1e-15)

    def test_cphase_cartan_form(self):
        # C_phi = e^{i phi/4} (e^{-i phi/4 sz} x e^{-i phi/4 sz}) e^{(phi/2)(i/2) ZZ}
        for phi in (0.3, np.pi / 2, 2 * np.pi / 3, np.pi):
            oracle = (np.exp(1j * phi / 4)
                      * tensor(exp_pauli("z", -phi / 4), exp_pauli("z", -phi / 4))
                      @ interaction(0, 0, phi / 2))
            np.testing.assert_allclose(cphase(phi), oracle, atol=1e-15)

    def test_b_gate_canonical_point(self):
        c = kak_decompose(B_GATE).c
        np.testing.assert_allclose(c.as_tuple(), (np.pi / 2, np.pi / 4, 0.0), atol=1e-12)

    def test_cphase_pi_is_cz(self):
        np.testing.assert_allclose(cphase(np.pi), CZ, atol=1e-15)

    def test_phase_gate(self):
        np.testing.assert_allclose(phase_gate(np.pi / 2), np.diag([1, 1j]), atol=1e-15)


class TestParseAngle:
    @pytest.mark.parametrize("text,value", [
        ("pi", np.pi),
        ("2pi/3", 2 * np.pi / 3),
        ("pi/5", np.pi / 5),
        ("3pi", 3 * np.pi),
        ("0.5", 0.5),
        ("-pi/2", -np.pi / 2),
        ("2*pi/3", 2 * np.pi / 3),
        ("PI/4", np.pi / 4),
        ("1.5pi", 1.5 * np.pi),
        ("3/4", 0.75),
    ])
    def test_expressions(self, text, value):
        assert parse_angle(text) == value

    @pytest.mark.parametrize("text", ["", "pie", "pi/0", "2x", "/3", "pi pi"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e308pi", "1e400/1e400"])
    def test_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="not finite"):
            parse_angle(text)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_decimal_roundtrip(self, x):
        assert parse_angle(repr(x)) == x


class TestResolveGate:
    def test_named(self):
        m, desc = resolve_gate("CNOT")
        np.testing.assert_array_equal(m, CNOT)
        assert desc == {"name": "CNOT"}

    def test_case_insensitive(self):
        m, _ = resolve_gate("sqrt_swap")
        np.testing.assert_array_equal(m, SQRT_SWAP)

    def test_parameterized(self):
        m, desc = resolve_gate("CPHASE(2pi/3)")
        np.testing.assert_allclose(m, cphase(2 * np.pi / 3), atol=1e-15)
        assert desc == {"name": "CPHASE", "angle": 2 * np.pi / 3}

    def test_zz(self):
        m, _ = resolve_gate("ZZ(pi/3)")
        np.testing.assert_allclose(m, interaction(0, 0, np.pi / 3), atol=1e-15)

    def test_matrix_file(self, tmp_path):
        # The descriptor holds the file's entries as read, integers included;
        # synth writes an entangler's back as floats (test_cli's
        # test_matrix_entangler_of_integers_recorded_as_floats).
        path = tmp_path / "gate.json"
        as_ints = json.dumps(np.stack((SWAP.real, SWAP.imag), -1).astype(int).tolist())
        for text in (matrix_json(SWAP), as_ints):
            path.write_text(text)
            m, desc = resolve_gate(f"MATRIX({path})")
            np.testing.assert_allclose(m, SWAP, atol=1e-15)
            assert json.dumps(desc) == json.dumps({"matrix": json.loads(text)})

    def test_matrix_file_rejects_nonunitary(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(matrix_json(np.ones((4, 4))))
        with pytest.raises(ValueError, match="unitary"):
            resolve_gate(f"MATRIX({path})")

    def test_matrix_file_missing(self):
        with pytest.raises(ValueError, match="cannot read"):
            resolve_gate("MATRIX(/nonexistent/path.json)")

    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            resolve_gate("TOFFOLI")

    def test_matrix_rejects_2x2_for_gate(self, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(matrix_json(np.eye(2)))
        with pytest.raises(ValueError, match="4x4"):
            resolve_gate(f"MATRIX({path})")


class TestDescriptors:
    def test_named_roundtrip(self):
        _, desc = resolve_gate("CPHASE(pi/5)")
        m = resolve_descriptor(desc)
        np.testing.assert_allclose(m, cphase(np.pi / 5), atol=1e-15)

    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text(matrix_json(SQRT_SWAP))
        _, desc = resolve_gate(f"MATRIX({path})")
        m = resolve_descriptor(desc)
        np.testing.assert_array_equal(m, SQRT_SWAP)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_descriptor({"name": "NOT_A_GATE"})

    @pytest.mark.parametrize("desc", [{}, {"name": "CPHASE"}, {"name": "ZZ", "angle": None},
                                      {"name": ["CNOT"]}, {"matrix": [[1, 2]]},
                                      {"matrix": 5}, "CNOT", {"name": "CPHASE", "angle": True},
                                      {"name": "CPHASE", "angle": "1.0"},
                                      {"name": "CPHASE", "angle": 10**400}])
    def test_malformed_descriptor_is_value_error(self, desc):
        with pytest.raises(ValueError):
            resolve_descriptor(desc)

    @pytest.mark.parametrize("name", ["CPHASE", "ZZ"])
    @pytest.mark.parametrize("angle", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_angle(self, name, angle):
        with pytest.raises(ValueError, match="angle is not finite"):
            resolve_descriptor({"name": name, "angle": angle})

    def test_rejects_embedded_2x2(self):
        with pytest.raises(ValueError, match="4x4"):
            resolve_descriptor({"matrix": encode_matrix(np.eye(2))})
