import json
from pathlib import Path

import numpy as np
import pytest

from gatesynth.gates import CNOT, SQRT_SWAP, resolve_descriptor, resolve_gate
from gatesynth.matcore import Circuit, EntanglerApp, LocalPair, ToleranceConfig, zz_interaction
from gatesynth.serialize import (CircuitDocument, emit_circuit_document, encode_matrix,
                                 parse_circuit_document)

from conftest import haar_unitary, matrix_json

# Written by an earlier version (indented JSON): CNOT from ZZ(pi/3).
INDENTED_DOCUMENT = Path(__file__).parent / "data" / "cnot_from_zz_pi3_indented.json"


def circuits_equal(a: Circuit, b: Circuit) -> bool:
    if a.phase != b.phase or len(a.elements) != len(b.elements):
        return False
    for x, y in zip(a.elements, b.elements):
        if type(x) is not type(y):
            return False
        if isinstance(x, LocalPair):
            if not (np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)):
                return False
    return True


def _bits(circuit: Circuit) -> bytes:
    """Every local entry and the phase, as raw IEEE bits (tells -0.0 from 0.0)."""
    layers = [np.asarray(m, dtype=complex).tobytes() for e in circuit.elements
              if isinstance(e, LocalPair) for m in (e.a, e.b)]
    return b"".join(layers) + np.complex128(circuit.phase).tobytes()


def matrix_descriptor(text: str) -> dict:
    """The descriptor a MATRIX(path) argument gives for a file holding `text`."""
    return {"matrix": json.loads(text)}


class TestMatrixFormat:
    """Matrix files and embedded matrices are decoded and checked by resolve_descriptor."""

    def test_roundtrip_exact(self, rng):
        for m in (CNOT, SQRT_SWAP, haar_unitary(rng)):
            np.testing.assert_array_equal(resolve_descriptor(matrix_descriptor(matrix_json(m))), m)

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            resolve_descriptor(matrix_descriptor(matrix_json(np.ones((4, 4)))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_entries_too_large_to_square(self):
        with pytest.raises(ValueError, match="^gate matrix is not unitary"):
            resolve_descriptor(matrix_descriptor(matrix_json(np.full((4, 4), 1e200))))

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            resolve_gate(f"MATRIX({path})")

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            resolve_descriptor(matrix_descriptor(
                "[[[1,0],[0,0],[0,0]],[[0,0],[1,0],[0,0]],[[0,0],[0,0],[1,0]]]"))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            resolve_descriptor(matrix_descriptor('[[[1,0],"x"],[[0,0],[1,0]]]'))

    @pytest.mark.parametrize("entry", [[1.0, 0.0, 123.0], [1.0], [True, 0.0], ["1", 0.0],
                                       {"re": 1.0, "im": 0.0}, [10**400, 0]],
                             ids=["three_numbers", "one_number", "bool", "string", "object",
                                  "int_beyond_float"])
    def test_entry_must_be_two_real_numbers(self, entry):
        rows = json.loads(matrix_json(np.eye(4)))
        rows[0][0] = entry
        with pytest.raises(ValueError, match="entry"):
            resolve_descriptor(matrix_descriptor(json.dumps(rows)))


class TestCircuitDocument:
    def _sample_doc(self, rng) -> CircuitDocument:
        circuit = Circuit(
            [LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2)),
             EntanglerApp(),
             LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))],
            phase=complex(np.exp(0.321j)),
        )
        return CircuitDocument(
            entangler={"name": "CPHASE", "angle": 2 * np.pi / 3},
            circuit=circuit,
            tolerances=ToleranceConfig(),
            report={"gamma": np.pi / 3, "apps_per_unit": 1, "n": 1, "bound": 6,
                    "entangler_count": 1, "local_count": 2, "residual": 3.2e-15},
        )

    def test_roundtrip_lossless(self, rng):
        doc = self._sample_doc(rng)
        # Signed zeros and subnormals must survive the stacked encode.
        doc.circuit.elements.append(LocalPair(np.array([[1, -0.0], [5e-324j, -1]]),
                                              np.array([[-0.0 - 0.0j, 1], [1, 2.2e-308]])))
        text = emit_circuit_document(doc)
        assert "\n" not in text
        assert text == json.dumps(json.loads(text))
        back = parse_circuit_document(text)
        assert back.entangler == doc.entangler
        assert back.tolerances == doc.tolerances
        assert back.report == doc.report
        assert circuits_equal(back.circuit, doc.circuit)
        assert _bits(back.circuit) == _bits(doc.circuit)

    def test_reads_indented_document_of_earlier_version(self):
        text = INDENTED_DOCUMENT.read_text()
        assert text.count("\n") > 100
        doc = parse_circuit_document(text)
        assert doc.report["entangler_count"] == 2
        assert emit_circuit_document(doc) == json.dumps(json.loads(text))

    def test_double_roundtrip_stable(self, rng):
        doc = self._sample_doc(rng)
        text = emit_circuit_document(doc)
        assert emit_circuit_document(parse_circuit_document(text)) == text

    def test_element_order_preserved(self, rng):
        doc = self._sample_doc(rng)
        back = parse_circuit_document(emit_circuit_document(doc))
        kinds = [type(e).__name__ for e in back.circuit.elements]
        assert kinds == ["LocalPair", "EntanglerApp", "LocalPair"]

    def test_rejects_wrong_format_tag(self):
        with pytest.raises(ValueError, match="not a gatesynth"):
            parse_circuit_document('{"format": "something-else"}')

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_circuit_document("[1, 2")

    def test_rejects_missing_fields(self, rng):
        doc = self._sample_doc(rng)
        payload = json.loads(emit_circuit_document(doc))
        del payload["phase"]
        with pytest.raises(ValueError, match="malformed"):
            parse_circuit_document(json.dumps(payload))

    def test_rejects_unknown_element_kind(self, rng):
        doc = self._sample_doc(rng)
        payload = json.loads(emit_circuit_document(doc))
        payload["elements"][0]["kind"] = "mystery"
        with pytest.raises(ValueError):
            parse_circuit_document(json.dumps(payload))

    def test_rejects_nonunit_phase(self, rng):
        # The document parses; check_phase, which verify runs, refuses it.
        doc = self._sample_doc(rng)
        payload = json.loads(emit_circuit_document(doc))
        payload["phase"] = [2.0, 0.0]
        back = parse_circuit_document(json.dumps(payload))
        with pytest.raises(ValueError, match="^circuit phase has modulus 2.0, expected 1$"):
            back.check_phase(resolve_descriptor(back.entangler))

    @pytest.mark.parametrize("phase", [[1.0, 0.0, 123.0], [True, 0], [1.0], ["1", 0],
                                       [10**400, 0]],
                             ids=["three_numbers", "bool", "one_number", "string",
                                  "int_beyond_float"])
    def test_rejects_malformed_phase(self, rng, phase):
        payload = json.loads(emit_circuit_document(self._sample_doc(rng)))
        payload["phase"] = phase
        with pytest.raises(ValueError, match="entry"):
            parse_circuit_document(json.dumps(payload))

    def test_integer_phase_accepted(self, rng):
        payload = json.loads(emit_circuit_document(self._sample_doc(rng)))
        payload["phase"] = [1, 0]
        assert parse_circuit_document(json.dumps(payload)).circuit.phase == 1

    def test_rejects_nan_phase(self, rng):
        payload = json.loads(emit_circuit_document(self._sample_doc(rng)))
        payload["phase"] = [float("nan"), 0.0]
        with pytest.raises(ValueError, match="modulus"):
            parse_circuit_document(json.dumps(payload))

    @pytest.mark.parametrize("verify_tol", [1e-8, 1e-6])
    def test_phase_window_is_half_verify_tol(self, rng, verify_tol):
        doc = self._sample_doc(rng)
        doc.tolerances = ToleranceConfig(verify_tol=verify_tol)
        payload = json.loads(emit_circuit_document(doc))
        for offset, accepted in ((0.4, True), (0.6, False)):
            payload["phase"] = [1 + offset * verify_tol, 0.0]
            back = parse_circuit_document(json.dumps(payload))
            assert abs(back.circuit.phase) > 1
            if accepted:
                back.check_phase(resolve_descriptor(back.entangler))
            else:
                with pytest.raises(ValueError, match="modulus"):
                    back.check_phase(resolve_descriptor(back.entangler))

    def test_phase_window_takes_out_the_entanglers_scale(self):
        # ZZ(pi/400) rounded to 10 decimals misses unit modulus by a scale,
        # which the phase of a circuit applying it 606 times makes up: 1.1e-8
        # off 1, outside verify_tol / 2 unless the scale is taken out.
        entangler = np.round(zz_interaction(np.pi / 400), 10)
        scale = abs(np.linalg.det(entangler)) ** (606 / 4)
        assert 1e-8 < scale - 1 < 1.2e-8
        for phase, accepted in ((1 / scale, True), (1.0, False)):
            doc = CircuitDocument({"matrix": encode_matrix(entangler)},
                                  Circuit([EntanglerApp()] * 606, phase))
            if accepted:
                doc.check_phase(entangler)
            else:
                with pytest.raises(ValueError, match="^circuit phase has modulus 1.0, "
                                                     "expected 0.9999999888"):
                    doc.check_phase(entangler)

    def test_rejects_non_2x2_local_layer(self, rng):
        doc = self._sample_doc(rng)
        payload = json.loads(emit_circuit_document(doc))
        payload["elements"][0]["a"] = payload["elements"][0]["a"][:1]
        with pytest.raises(ValueError, match="2x2"):
            parse_circuit_document(json.dumps(payload))

    @pytest.mark.parametrize("layer,wording", [
        (np.zeros((2, 2)), "is not unitary"), (1.5 * np.eye(2), "is not unitary"),
        (np.array([[1, 0], [0, np.nan]]), "has non-finite entries"),
        (np.full((2, 2), 1e200), "is not unitary")],  # squares overflow: no numpy warning
                             ids=["zero", "scaled", "nan", "too_large_to_square"])
    def test_rejects_non_unitary_local_layer(self, rng, layer, wording):
        doc = self._sample_doc(rng)
        doc.circuit.elements[2].b = layer
        with pytest.raises(ValueError, match=f"element 2 {wording}"):
            parse_circuit_document(emit_circuit_document(doc))

    def test_unitarity_tolerance_is_fixed(self, rng):
        doc = self._sample_doc(rng)
        doc.circuit.elements[0].a = doc.circuit.elements[0].a * (1 + 1e-8)
        with pytest.raises(ValueError, match="element 0 is not unitary within tolerance 1e-10"):
            parse_circuit_document(emit_circuit_document(doc))

    @pytest.mark.parametrize("key", ["unitarity_tol", "snap_tol"])
    def test_recorded_windows_must_be_the_constants(self, rng, key):
        payload = json.loads(emit_circuit_document(self._sample_doc(rng)))
        assert list(payload["tolerances"]) == ["unitarity_tol", "snap_tol", "verify_tol"]
        assert payload["tolerances"][key] == getattr(ToleranceConfig, key)
        payload["tolerances"][key] = 1e-6
        with pytest.raises(ValueError, match=f"^document {key} 1e-06 is not the fixed 1e-"):
            parse_circuit_document(json.dumps(payload))
        del payload["tolerances"][key]  # absent: the constant
        assert parse_circuit_document(json.dumps(payload)).tolerances == ToleranceConfig()
