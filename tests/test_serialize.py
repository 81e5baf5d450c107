import json
from pathlib import Path

import numpy as np
import pytest

from gatesynth import serialize
from gatesynth.compiler import synthesize
from gatesynth.gates import CNOT, SQRT_SWAP, resolve_descriptor, resolve_gate
from gatesynth.matcore import Circuit, EntanglerApp, LocalPair, ToleranceConfig, zz_interaction
from gatesynth.serialize import (CircuitDocument, decode_matrix, emit_circuit_document,
                                 encode_matrix, parse_circuit_document)

from conftest import circuit_of, counted, haar_unitary, matrix_json

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
        circuit = circuit_of(
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
        layer = (np.array([[1, -0.0], [5e-324j, -1]]), np.array([[-0.0 - 0.0j, 1], [1, 2.2e-308]]))
        doc.circuit.layers = np.concatenate((doc.circuit.layers, [layer]))
        doc.circuit.slots.append(0)
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
                                  circuit_of([EntanglerApp()] * 606, phase))
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
        doc.circuit.layers[1, 1] = layer  # element 2's b
        with pytest.raises(ValueError, match=f"element 2 {wording}"):
            parse_circuit_document(emit_circuit_document(doc))

    def test_unitarity_tolerance_is_fixed(self, rng):
        doc = self._sample_doc(rng)
        doc.circuit.layers[0, 0] *= 1 + 1e-8  # element 0's a
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


def loop_decode_matrix(rows, shape):
    """The per-entry reference decoder: complex(re, im) per [re, im] pair, one
    Python call each, with the messages the CLI prints: the first bad entry,
    else, if the rows are ragged, the first row of the wrong length, else the
    shape."""
    def entry(pair):
        if isinstance(pair, list) and len(pair) == 2:
            re, im = pair
            if (isinstance(re, (int, float)) and isinstance(im, (int, float))
                    and not isinstance(re, bool) and not isinstance(im, bool)):
                try:
                    return complex(re, im)
                except OverflowError:
                    pass
        raise ValueError(f"malformed entry {pair!r}: expected [re, im], two real numbers")

    try:
        entries = [[entry(pair) for pair in row] for row in rows]
    except TypeError as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    widths = list(map(len, entries))
    if len(set(widths)) > 1:  # ragged: name the first row of the wrong length
        i = next(i for i, width in enumerate(widths) if width != shape[1])
        raise ValueError(f"malformed row {i}: expected {shape[1]} [re, im] entries, "
                         f"got {widths[i]}")
    m = np.array(entries)
    if m.shape != shape:
        raise ValueError(f"matrix has shape {m.shape}, expected {shape[0]}x{shape[1]}")
    return m


def loop_elements(records) -> list:
    """The per-record reference: each record decoded on its own, in order,
    with parse_circuit_document's wording for a missing key or a wrong type;
    a layer's decode error names its element and half."""
    def layer_half(i, record, half):
        matrix = record[half]  # a missing key is the document's error, not the layer's
        try:
            return loop_decode_matrix(matrix, (2, 2))
        except ValueError as exc:
            raise ValueError(f"local layer at element {i} ({half}): {exc}") from exc

    try:
        elements = []
        for i, record in enumerate(records):
            if record["kind"] == "entangler":
                elements.append(EntanglerApp())
            elif record["kind"] == "local":
                elements.append(LocalPair(layer_half(i, record, "a"), layer_half(i, record, "b")))
            else:
                raise ValueError(f"unknown element kind {record['kind']!r}")
        return elements
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed circuit document: {exc}") from exc


def raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


# Leaves the stacked decode must carry bit for bit: ints, an int a float
# rounds, ints beyond int64, signed zeros, NaN, infinities, subnormals.
SPECIAL_LEAVES = [0, 1, -3, 2**53 + 1, -(2**53 + 1), 10**30, -10**30, 2**64 + 1, -0.0, 0.0,
                  float("nan"), float("inf"), -float("inf"), 5e-324, 0.1]

# One entry of a 4x4 identity replaced, each malformed in its own way.
BAD_ENTRIES = {"bool": [True, 0.0], "string": ["1", 0.0], "three_numbers": [1.0, 0.0, 123.0],
               "one_number": [1.0], "nested_pair": [[1.0, 0.0], [0.0, 0.0]],
               "int_beyond_float": [10**400, 0], "object": {"re": 1.0, "im": 0.0},
               "bare_string": "x", "bare_number": 1.0, "null": None}


class TestStackedDecode:
    """decode_matrix and parse_circuit_document decode in one numpy call, bit
    for bit as the per-entry loop, and fall back to it only to name a bad entry."""

    def test_matrix_bits_equal_per_entry_complex(self, rng, monkeypatch):
        # The per-entry loop is not reached: a valid matrix decodes without it.
        monkeypatch.setattr(serialize, "_decode_entry", None)
        for _ in range(50):
            rows = rng.normal(size=(4, 4, 2)).tolist()
            for i, j, k in rng.integers(0, [4, 4, 2], size=(6, 3)):
                rows[i][j][k] = SPECIAL_LEAVES[rng.integers(len(SPECIAL_LEAVES))]
            got = decode_matrix(rows, (4, 4))
            want = np.array([[complex(re, im) for re, im in row] for row in rows])
            assert got.dtype == want.dtype and got.shape == (4, 4)
            assert got.tobytes() == want.tobytes()
        square = [[[re, im] for im in SPECIAL_LEAVES] for re in SPECIAL_LEAVES]
        got = decode_matrix(square, (len(SPECIAL_LEAVES),) * 2)
        assert got.tobytes() == np.array([[complex(*p) for p in row] for row in square]).tobytes()

    @pytest.mark.parametrize("entangler", ["CNOT", "B", "SQRT_SWAP", "CPHASE(2pi/3)"])
    def test_document_bits_equal_per_entry_complex(self, rng, monkeypatch, entangler):
        monkeypatch.setattr(serialize, "decode_matrix", None)  # no per-record decode
        matrix, desc = resolve_gate(entangler)
        for _ in range(4):
            circuit, report = synthesize(haar_unitary(rng), matrix)
            payload = json.loads(emit_circuit_document(CircuitDocument(desc, circuit)))
            # An exact layer written with ints and signed zeros decodes as written.
            payload["elements"].append({"kind": "local",
                                        "a": [[[1, -0.0], [0, 0]], [[-0.0, 0], [1, 0]]],
                                        "b": [[[0.0, -0.0], [-1, 0]], [[1, 0], [-0.0, -0.0]]]})
            back = parse_circuit_document(json.dumps(payload)).circuit
            local = [r for r in payload["elements"] if r["kind"] == "local"]
            want = np.array([[[[complex(*p) for p in row] for row in r[half]] for half in "ab"]
                             for r in local])
            assert back.layers.tobytes() == want.tobytes()
            assert len(back.elements) == report.entangler_count + report.local_count + 1

    def test_parsed_document_is_stacked(self, rng):
        # The array form: the layers stacked, the entangler records between
        # them counted as slots; the elements are fresh copies of the rows.
        doc = TestCircuitDocument()._sample_doc(rng)
        circuit = parse_circuit_document(emit_circuit_document(doc)).circuit
        assert circuit.layers.shape == (2, 2, 2, 2)
        assert circuit.slots == [0, 1, 0]
        pairs = [e for e in circuit.elements if isinstance(e, LocalPair)]
        for row, pair in zip(circuit.layers, pairs):
            assert not np.shares_memory(pair.a, row) and not np.shares_memory(pair.b, row)
            assert np.array_equal(pair.a, row[0]) and np.array_equal(pair.b, row[1])

    def test_document_without_local_layers(self, monkeypatch):
        monkeypatch.setattr(serialize, "decode_matrix", None)
        payload = json.loads(emit_circuit_document(CircuitDocument(
            {"name": "CNOT"}, circuit_of([EntanglerApp()] * 3))))
        circuit = parse_circuit_document(json.dumps(payload)).circuit
        assert circuit.layers.shape == (0, 2, 2, 2)
        assert sum(circuit.slots) == counted(circuit.elements)[0] == 3

    @pytest.mark.parametrize("name", BAD_ENTRIES)
    def test_matrix_messages_equal_per_entry_loop(self, name):
        rows = encode_matrix(np.eye(4))
        rows[1][2] = BAD_ENTRIES[name]
        assert raised(decode_matrix, rows, (4, 4)) == raised(loop_decode_matrix, rows, (4, 4))

    @pytest.mark.parametrize("rows", [
        [[[1, 0]] * 4] * 3, [[[1, 0]] * 4] * 3 + [[[1, 0]] * 3], [[[1, 0]] * 5] * 4,
        [[1, 0]] * 4, 5, [5] * 4, "abcd", {"a": 1}, [], [[[[1, 0]] * 4]] * 4],
                             ids=["three_rows", "ragged", "five_columns", "rows_of_pairs",
                                  "number", "row_numbers", "string", "object", "empty",
                                  "too_deep"])
    def test_matrix_shape_messages_equal_per_entry_loop(self, rows):
        assert raised(decode_matrix, rows, (4, 4)) == raised(loop_decode_matrix, rows, (4, 4))

    def test_ragged_rows_name_themselves(self, rng):
        # Not numpy's inhomogeneous-shape error: the row and its length.
        rows = encode_matrix(np.eye(4))
        rows[2] = rows[2][:3]
        assert raised(decode_matrix, rows, (4, 4)) == ("malformed row 2: expected 4 "
                                                       "[re, im] entries, got 3")
        payload = json.loads(emit_circuit_document(TestCircuitDocument()._sample_doc(rng)))
        payload["elements"][2]["a"] = [[[1, 0], [0, 0]], [[0, 0]]]
        assert raised(parse_circuit_document, json.dumps(payload)) == (
            "local layer at element 2 (a): malformed row 1: expected 2 [re, im] entries, got 1")

    @pytest.mark.parametrize("name", ["bool", "string", "three_numbers", "nested_pair",
                                      "int_beyond_float", "ragged", "missing_a"])
    @pytest.mark.parametrize("unknown_kind", [None, "before", "after"])
    def test_document_messages_equal_per_record_loop(self, rng, name, unknown_kind):
        payload = json.loads(emit_circuit_document(TestCircuitDocument()._sample_doc(rng)))
        bad = payload["elements"][2]  # the second local record
        if name == "ragged":
            bad["a"][1] = bad["a"][1][:1]
        elif name == "missing_a":
            del bad["a"]
        else:
            bad["b"][0][1] = BAD_ENTRIES[name]
        if unknown_kind:
            payload["elements"][0 if unknown_kind == "before" else 1]["kind"] = "mystery"
            if unknown_kind == "after":
                payload["elements"] += [payload["elements"].pop(1)]
        want = raised(loop_elements, payload["elements"])
        assert raised(parse_circuit_document, json.dumps(payload)) == want
        assert ("mystery" in want) == (unknown_kind == "before")

    @pytest.mark.parametrize("elements", [
        5, "ab", {"kind": "local"}, [{"kind": "entangler"}, ["local"]],
        [{"kind": "entangler"}, {"a": 1}], [{"kind": ["local"]}],
        [{"kind": "entangler"}, "entangler"]],
                             ids=["number", "string", "object", "list_record", "no_kind",
                                  "list_kind", "string_record"])
    def test_record_messages_equal_per_record_loop(self, rng, elements):
        payload = json.loads(emit_circuit_document(TestCircuitDocument()._sample_doc(rng)))
        payload["elements"] = elements
        assert raised(parse_circuit_document, json.dumps(payload)) == raised(loop_elements,
                                                                           elements)


class TestEncodeMatrix:
    """encode_matrix writes the floats np.stack((m.real, m.imag), -1).tolist() does."""

    @staticmethod
    def assert_same_floats(m):
        got, want = encode_matrix(m), np.stack((np.real(m), np.imag(m)), -1).tolist()
        assert np.shape(got) == np.shape(want)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("value", [-0.0, float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_special_values(self, rng, value, part):
        m = haar_unitary(rng)
        m[3, 0] = complex(-0.0, -0.0)
        re, im = m[1, 2].real, m[1, 2].imag
        m[1, 2] = complex(value, im) if part == "real" else complex(re, value)
        self.assert_same_floats(m)

    def test_transposed_view(self, rng):
        m = haar_unitary(rng).T
        assert not m.flags.c_contiguous
        self.assert_same_floats(m)

    def test_list_of_pairs(self, rng):
        pairs = [(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in range(3)]
        self.assert_same_floats(np.array(pairs))
        assert encode_matrix(pairs) == encode_matrix(np.array(pairs))

    def test_stack(self, rng):
        self.assert_same_floats(np.array([haar_unitary(rng, 2) for _ in range(10)]).reshape(
            5, 2, 2, 2))
