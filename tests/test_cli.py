import json
from pathlib import Path

import numpy as np
import pytest

from gatesynth.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, build_parser, main
from gatesynth.gates import CNOT
from gatesynth.matcore import interaction

from conftest import dress, haar_unitary, matrix_json, near_edge


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_cnot_from_zz(self, capsys):
        code, out, _ = run(capsys, "synth", "--target", "CNOT", "--entangler", "ZZ(pi/3)")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["report"]["entangler_count"] == 2

    def test_sqrt_swap_counts(self, capsys, tmp_path):
        out_path = tmp_path / "circ.json"
        code, out, _ = run(capsys, "synth", "--target", "SQRT_SWAP",
                           "--entangler", "CPHASE(2pi/3)", "--out", str(out_path))
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["report"]["entangler_count"] == 6
        assert doc["report"]["local_count"] == 7

    def test_identity_matrix_target(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(matrix_json(np.eye(4)))
        code, out, _ = run(capsys, "synth", "--target", f"MATRIX({path})",
                           "--entangler", "CNOT")
        assert code == EXIT_OK
        assert json.loads(out)["report"]["entangler_count"] == 0

    @pytest.mark.parametrize("triple", [(np.pi - 1e-11, 0.0, 0.0), (-1e-11, 2e-11, 3e-11)])
    @pytest.mark.parametrize("dressed", [False, True])
    def test_near_identity_matrix_target(self, capsys, tmp_path, rng, triple, dressed):
        target = interaction(*triple)
        if dressed:
            target = dress(target, rng)
        path = tmp_path / "near_id.json"
        path.write_text(matrix_json(target))
        code, out, err = run(capsys, "synth", "--target", f"MATRIX({path})",
                             "--entangler", "CNOT")
        assert code == EXIT_OK, err
        assert json.loads(out)["report"]["entangler_count"] == 0

    def test_near_edge_matrix_targets(self, capsys, tmp_path, rng):
        # Unitarity error in (5e-11, 1e-10]: accepted as valid, so it must compile.
        path = tmp_path / "near_edge.json"
        for _ in range(40):
            target = near_edge(haar_unitary(rng), rng.uniform(6e-11, 1e-10), rng)
            path.write_text(matrix_json(target))
            code, _, err = run(capsys, "synth", "--target", f"MATRIX({path})",
                               "--entangler", "CNOT")
            assert code == EXIT_OK, err

    def test_rejects_unknown_target(self, capsys):
        code, _, err = run(capsys, "synth", "--target", "NOPE", "--entangler", "CNOT")
        assert code == EXIT_INPUT
        assert "unknown gate" in err

    def test_rejects_nonunitary_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(matrix_json(np.ones((4, 4))))
        code, _, err = run(capsys, "synth", "--target", f"MATRIX({path})",
                           "--entangler", "CNOT")
        assert code == EXIT_INPUT
        assert "unitary" in err

    def test_rejects_matrix_entry_with_extra_numbers(self, capsys, tmp_path):
        rows = json.loads(matrix_json(np.eye(4)))
        rows[0][0] = [1.0, 0.0, 123.0]
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(rows))
        code, _, err = run(capsys, "synth", "--target", f"MATRIX({path})",
                           "--entangler", "CNOT")
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    def test_refuses_bound_above_cap(self, capsys):
        # n = ceil(pi/4 / 4e-5) = 19635, bound 117810: refused before amplifying
        code, _, err = run(capsys, "synth", "--target", "CNOT", "--entangler", "ZZ(4e-5)")
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "117810" in err and "100000" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0.01"])
    def test_rejects_invalid_tol(self, capsys, tol):
        code, _, err = run(capsys, "synth", "--target", "SWAP", "--entangler", "CNOT",
                           "--tol", tol)
        assert code == EXIT_INPUT
        assert "finite and strictly positive" in err

    @pytest.mark.parametrize("entangler", ["CPHASE(1e400)", "ZZ(-1e400)"])
    def test_rejects_non_finite_angle(self, capsys, entangler):
        code, out, err = run(capsys, "synth", "--target", "CNOT", "--entangler", entangler)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.splitlines() == [f"error: angle {entangler[entangler.index('(') + 1:-1]!r} "
                                    "is not finite"]

    def test_rejects_local_entangler(self, capsys, tmp_path):
        path = tmp_path / "local.json"
        path.write_text(matrix_json(np.diag([1, 1j, 1, 1j])))
        code, _, err = run(capsys, "synth", "--target", "CNOT",
                           "--entangler", f"MATRIX({path})")
        assert code == EXIT_INPUT
        assert "not entangling" in err


class TestClassify:
    def test_cnot(self, capsys):
        code, out, _ = run(capsys, "classify", "--gate", "CNOT")
        assert code == EXIT_OK
        assert "class: entangling" in out
        assert "bound: 6" in out
        assert format(np.pi / 2, ".17g") in out

    def test_swap(self, capsys):
        code, out, _ = run(capsys, "classify", "--gate", "SWAP")
        assert code == EXIT_OK
        assert "class: swap" in out
        assert "bound" not in out

    def test_cphase_small(self, capsys):
        code, out, _ = run(capsys, "classify", "--gate", "CPHASE(pi/5)")
        assert code == EXIT_OK
        assert "bound: 18" in out
        assert format(np.pi / 10, ".17g") in out

    def test_rejects_non_finite_angle(self, capsys):
        code, out, err = run(capsys, "classify", "--gate", "ZZ(1e400)")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.splitlines() == ["error: angle '1e400' is not finite"]

    def test_weak_entangler_bound_is_computed(self, capsys):
        # The bound comes from arithmetic: building the 78,539,817-fold
        # resource would need several GB.
        code, out, _ = run(capsys, "classify", "--gate", "ZZ(1e-8)")
        assert code == EXIT_OK
        assert "n: 78539817" in out
        assert "bound: 471238902" in out


class TestVerify:
    @pytest.fixture
    def emitted(self, capsys, tmp_path):
        path = tmp_path / "circ.json"
        code, _, _ = run(capsys, "synth", "--target", "SQRT_SWAP",
                         "--entangler", "CPHASE(2pi/3)", "--out", str(path))
        assert code == EXIT_OK
        return path

    def test_self_consistent(self, capsys, emitted):
        code, out, _ = run(capsys, "verify", "--circuit", str(emitted),
                           "--target", "SQRT_SWAP")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_wrong_target_fails(self, capsys, emitted):
        code, out, _ = run(capsys, "verify", "--circuit", str(emitted),
                           "--target", "SWAP")
        assert code == EXIT_VERIFY
        assert "FAIL" in out

    def test_loose_document_tolerance_rejected(self, capsys, emitted):
        # A verify_tol of 3 would pass this circuit against SWAP.
        doc = json.loads(emitted.read_text())
        doc["tolerances"]["verify_tol"] = 3
        emitted.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--circuit", str(emitted), "--target", "SWAP")
        assert code == EXIT_INPUT
        assert "PASS" not in out
        assert err.startswith("error:")

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "verify", "--circuit", str(path),
                           "--target", "CNOT")
        assert code == EXIT_INPUT
        assert "malformed" in err

    @pytest.mark.parametrize("entangler", [
        {"matrix": [[1, 2]]}, {}, {"name": "CPHASE"}, {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"name": "CPHASE", "angle": True},
    ], ids=["matrix_of_numbers", "empty", "cphase_without_angle", "matrix_2x2",
            "cphase_bool_angle"])
    def test_malformed_entangler_descriptor(self, capsys, emitted, entangler):
        doc = json.loads(emitted.read_text())
        doc["entangler"] = entangler
        emitted.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--circuit", str(emitted),
                           "--target", "SQRT_SWAP")
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    @pytest.mark.parametrize("angle", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_entangler_angle(self, capsys, emitted, angle):
        # json reads these non-standard literals as floats; none may reach cphase.
        doc = json.loads(emitted.read_text())
        emitted.write_text(json.dumps(doc).replace('"angle": 2.0943951023931953',
                                                   f'"angle": {angle}'))
        assert json.loads(emitted.read_text())["entangler"]["angle"] != 2.0943951023931953
        code, out, err = run(capsys, "verify", "--circuit", str(emitted),
                             "--target", "SQRT_SWAP")
        assert code == EXIT_INPUT
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: malformed gate descriptor") and "not finite" in err

    def test_non_2x2_local_layer(self, capsys, emitted):
        doc = json.loads(emitted.read_text())
        layer = next(e for e in doc["elements"] if e["kind"] == "local")
        layer["a"] = layer["a"][:1]
        emitted.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--circuit", str(emitted),
                           "--target", "SQRT_SWAP")
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "2x2" in err

    def test_non_unitary_local_layer(self, capsys, emitted):
        doc = json.loads(emitted.read_text())
        layer = next(e for e in doc["elements"] if e["kind"] == "local")
        layer["a"] = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        emitted.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--circuit", str(emitted),
                           "--target", "SQRT_SWAP")
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "not unitary" in err

    def test_phase_with_extra_number_is_invalid_input(self, capsys, emitted):
        doc = json.loads(emitted.read_text())
        doc["phase"] = [1.0, 0.0, 123.0]
        emitted.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--circuit", str(emitted),
                             "--target", "SQRT_SWAP")
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "PASS" not in out

    def test_indented_document_of_earlier_version(self, capsys):
        # Written by an earlier version's `synth --target CNOT --entangler "ZZ(pi/3)"`;
        # that version's verify printed this residual line.
        path = Path(__file__).parent / "data" / "cnot_from_zz_pi3_indented.json"
        code, out, _ = run(capsys, "verify", "--circuit", str(path), "--target", "CNOT")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "residual: 5.6844649472618385e-15"

    def test_nan_phase_is_invalid_input(self, capsys, emitted):
        doc = json.loads(emitted.read_text())
        doc["phase"] = [float("nan"), 0.0]
        emitted.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--circuit", str(emitted),
                             "--target", "SQRT_SWAP")
        assert code == EXIT_INPUT
        assert "modulus" in err
        assert "residual" not in out

    def test_infinite_verify_tol_is_invalid_input(self, capsys, tmp_path):
        # With verify_tol = inf any circuit would PASS against any target.
        path = tmp_path / "cnot.json"
        code, _, _ = run(capsys, "synth", "--target", "CNOT", "--entangler", "CNOT",
                         "--out", str(path))
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        doc["tolerances"]["verify_tol"] = float("inf")
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--circuit", str(path), "--target", "SWAP")
        assert code == EXIT_INPUT
        assert "finite" in err
        assert "PASS" not in out

    def test_missing_document(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--circuit", str(tmp_path / "nope.json"),
                           "--target", "CNOT")
        assert code == EXIT_INPUT


class TestRepeatedMain:
    """main() reuses one parser per process; reuse must not change any call."""

    def test_usage_error_then_commands_match_first_calls(self, capsys, tmp_path):
        path = tmp_path / "circ.json"
        commands = [
            ("synth", "--target", "CNOT", "--entangler", "ZZ(pi/3)", "--out", str(path)),
            ("classify", "--gate", "B"),
            ("verify", "--circuit", str(path), "--target", "CNOT"),
        ]
        first = []
        for argv in commands:
            build_parser.cache_clear()
            first.append(run(capsys, *argv))
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--entangler", "CNOT"])
        assert exc.value.code == 2
        assert "--target" in capsys.readouterr().err
        again = [run(capsys, *argv) for argv in commands]
        assert again == first
        assert [code for code, _, _ in first] == [EXIT_OK] * 3

    @pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"]], ids=["main", "synth"])
    def test_help_identical_on_consecutive_calls(self, capsys, argv):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "usage: gatesynth" in outputs[0]


def test_exit_codes_distinct():
    assert len({EXIT_OK, EXIT_INPUT, EXIT_VERIFY}) == 3
