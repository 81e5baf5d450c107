import json
import os
import stat
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gatesynth import cli, zzsynth
from gatesynth.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, build_parser, main
from gatesynth.compiler import synthesize
from gatesynth.gates import CNOT, resolve_gate
from gatesynth.kak import kak_decompose
from gatesynth.matcore import interaction, zz_interaction
from gatesynth.serialize import encode_matrix

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

    def test_report_is_the_synthesis_report(self, capsys):
        code, out, _ = run(capsys, "synth", "--target", "CNOT", "--entangler", "ZZ(pi/3)")
        assert code == EXIT_OK
        report = asdict(synthesize(CNOT, zz_interaction(np.pi / 3))[1])
        assert list(json.loads(out)["report"].items()) == list(report.items())

    def test_sqrt_swap_counts(self, capsys, tmp_path):
        out_path = tmp_path / "circ.json"
        code, out, _ = run(capsys, "synth", "--target", "SQRT_SWAP",
                           "--entangler", "CPHASE(2pi/3)", "--out", str(out_path))
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["report"]["entangler_count"] == 6
        assert doc["report"]["local_count"] == 7

    def test_out_into_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "circ.json"
        code, out, err = run(capsys, "synth", "--target", "CNOT", "--entangler", "CNOT",
                             "--out", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write circuit document {path}: ")

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

    # 1e-15 is below matcore.ROUNDOFF, where correct residuals fail.
    @pytest.mark.parametrize("tol", ["inf", "nan", "0.01", "1e-15"])
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

    def test_names_the_failing_matrix_argument(self, capsys, tmp_path, rng):
        target, entangler = tmp_path / "target.json", tmp_path / "entangler.json"
        target.write_text(matrix_json(haar_unitary(rng)))
        entangler.write_text(matrix_json(np.ones((4, 4))))
        code, out, err = run(capsys, "synth", "--target", f"MATRIX({target})",
                             "--entangler", f"MATRIX({entangler})")
        assert code == EXIT_INPUT
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: MATRIX({entangler}): ") and "not unitary" in err
        assert str(target) not in err

    def test_matrix_row_of_three_entries(self, capsys, tmp_path):
        rows = encode_matrix(np.eye(4))
        rows[2] = rows[2][:3]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(rows))
        code, out, err = run(capsys, "synth", "--target", f"MATRIX({path})",
                             "--entangler", "CNOT")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.splitlines() == [f"error: MATRIX({path}): malformed row 2: "
                                    "expected 4 [re, im] entries, got 3"]

    def test_rejects_local_entangler(self, capsys, tmp_path):
        path = tmp_path / "local.json"
        path.write_text(matrix_json(np.diag([1, 1j, 1, 1j])))
        code, _, err = run(capsys, "synth", "--target", "CNOT",
                           "--entangler", f"MATRIX({path})")
        assert code == EXIT_INPUT
        assert "not entangling" in err


class TestSynthOut:
    """synth --out writes over the file in place: the bytes synth prints, cut to
    their length, the file's inode and mode kept, and a new file made as open() does."""

    SHORT = ("synth", "--target", "CNOT", "--entangler", "ZZ(pi/3)")
    LONG = ("synth", "--target", "SWAP", "--entangler", "CPHASE(pi/9)")

    def synth_out(self, capsys, argv, path) -> bytes:
        """Run argv with --out path; return what argv prints without --out, as bytes."""
        code, printed, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"wrote {path}: ")
        return printed.encode()

    @pytest.mark.parametrize("first, second", [(LONG, SHORT), (SHORT, LONG)],
                             ids=["over_longer", "over_shorter"])
    def test_over_an_existing_document(self, capsys, tmp_path, first, second):
        path = tmp_path / "circ.json"
        self.synth_out(capsys, first, path)
        before = path.stat().st_size
        want = self.synth_out(capsys, second, path)
        assert path.read_bytes() == want  # no stale tail of the first document
        assert (len(want) < before) == (first is self.LONG)

    def test_new_file_mode_follows_the_umask(self, capsys, tmp_path):
        path = tmp_path / "circ.json"
        old = os.umask(0o027)
        try:
            want = self.synth_out(capsys, self.SHORT, path)
        finally:
            os.umask(old)
        assert path.read_bytes() == want
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027

    def test_existing_file_keeps_inode_mode_and_links(self, capsys, tmp_path):
        path, link = tmp_path / "circ.json", tmp_path / "link.json"
        path.write_text("x" * 100_000)
        path.chmod(0o600)
        os.link(path, link)
        inode = path.stat().st_ino
        want = self.synth_out(capsys, self.SHORT, path)
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert link.read_bytes() == path.read_bytes() == want

    def test_out_to_a_device(self, capsys):
        # A character device cannot be cut to length; writing to it is enough.
        code, out, err = run(capsys, *self.SHORT, "--out", os.devnull)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"wrote {os.devnull}: entangler_count=2 ")

    def test_out_to_a_directory(self, capsys, tmp_path):
        # As test_out_into_missing_directory: exit 2 and one error line.
        code, out, err = run(capsys, *self.SHORT, "--out", str(tmp_path))
        assert (code, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write circuit document {tmp_path}: ")

    def test_out_empty_path(self, capsys):
        # An empty --out (an unset shell variable) cannot be written: it is not stdout.
        code, out, err = run(capsys, *self.SHORT, "--out", "")
        assert (code, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot write circuit document : ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["synth_target", "synth_entangler", "classify", "verify"])
def test_entries_too_large_to_square_are_invalid_input(capsys, tmp_path, command):
    # Finite entries whose squares overflow: one error line, no numpy warning.
    path = tmp_path / "big.json"
    path.write_text(matrix_json(np.full((4, 4), 1e200)))
    big = f"MATRIX({path})"
    doc = tmp_path / "circ.json"
    assert run(capsys, "synth", "--target", "CNOT", "--entangler", "CNOT",
               "--out", str(doc))[0] == EXIT_OK
    argv = {"synth_target": ("synth", "--target", big, "--entangler", "CNOT"),
            "synth_entangler": ("synth", "--target", "CNOT", "--entangler", big),
            "classify": ("classify", "--gate", big),
            "verify": ("verify", "--circuit", str(doc), "--target", big)}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.splitlines() == [f"error: {big}: gate matrix is not unitary within tolerance 1e-10"]


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

    def test_prints_the_snapped_vector(self, capsys):
        # Unsnapped, roundoff puts c3 at -5.6e-17, outside the chamber.
        code, out, _ = run(capsys, "classify", "--gate", "CPHASE(2pi/3)")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "canonical: (1.0471975511965979, 0, 0)"

    def test_rejects_non_finite_angle(self, capsys):
        code, out, err = run(capsys, "classify", "--gate", "ZZ(1e400)")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.splitlines() == ["error: angle '1e400' is not finite"]

    def test_decomposes_the_gate_once(self, capsys, monkeypatch):
        calls = []
        for module in (cli, zzsynth):
            real = module.kak_decompose

            def spy(*args, real=real, **kwargs):
                calls.append(args[0])
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "kak_decompose", spy)
        code, out, _ = run(capsys, "classify", "--gate", "CNOT")
        assert code == EXIT_OK and "bound: 6" in out.splitlines()
        assert len(calls) == 1

    def test_weak_entangler_bound_is_computed(self, capsys):
        # The bound comes from arithmetic: building the 78,539,817-fold
        # resource would need several GB.
        code, out, _ = run(capsys, "classify", "--gate", "ZZ(1e-8)")
        assert code == EXIT_OK
        assert "n: 78539817" in out
        assert "bound: 471238902" in out

    def test_takes_no_tolerance(self, capsys):
        # classify checks no residual, so no tolerance changes what it prints.
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--gate", "CNOT", "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


def amplified(gate: str, bound: int) -> str:
    """classify's last line for an entangling gate: the bound times the
    unitarity error of the gate's KAK."""
    error = kak_decompose(resolve_gate(gate)[0]).unitarity_error
    return f"amplified_unitarity_error: {bound * error:.2g}"


NAMED_GATE_CLASSIFY = {
    "CNOT": ((np.pi / 2, 0, 0), ["class: entangling", "gamma: 1.5707963267948966",
                                 "apps_per_unit: 1", "n: 1", "bound: 6", amplified("CNOT", 6)]),
    "CZ": ((np.pi / 2, 0, 0), ["class: entangling", "gamma: 1.5707963267948966",
                               "apps_per_unit: 1", "n: 1", "bound: 6", amplified("CZ", 6)]),
    "SWAP": ((np.pi / 2, np.pi / 2, np.pi / 2), ["class: swap"]),
    "SQRT_SWAP": ((np.pi / 4, np.pi / 4, np.pi / 4), [
        "class: entangling", "gamma: 1.5707963267948966", "apps_per_unit: 2", "n: 1",
        "bound: 12", amplified("SQRT_SWAP", 12)]),
    "B": ((np.pi / 2, np.pi / 4, 0), ["class: entangling", "gamma: 1.5707963267948966",
                                      "apps_per_unit: 2", "n: 1", "bound: 12",
                                      amplified("B", 12)]),
}


class TestAmplifiedEntanglerError:
    """An entangler inside unitarity_tol whose error, amplified over the
    circuit's applications, fails the final check is invalid input."""

    @pytest.fixture
    def rounded_weak_zz(self, tmp_path):
        # ZZ(pi/400) rounded to 10 decimals: unitarity error 3.7e-11, bound 606.
        path = tmp_path / "zz_pi_400_rounded.json"
        path.write_text(matrix_json(np.round(zz_interaction(np.pi / 400), 10)))
        return f"MATRIX({path})"

    @pytest.fixture
    def perturbed_weak_zz(self, tmp_path):
        # ZZ(pi/400) plus a dense perturbation: unitarity error 3e-11, bound 606.
        path = tmp_path / "zz_pi_400_perturbed.json"
        path.write_text(matrix_json(near_edge(zz_interaction(np.pi / 400), 3e-11,
                                              np.random.default_rng(0))))
        return f"MATRIX({path})"

    def test_classify_shows_the_amplified_error(self, capsys, rounded_weak_zz):
        # 606 applications x 3.7e-11, printed before synth is tried.
        code, out, _ = run(capsys, "classify", "--gate", rounded_weak_zz)
        assert code == EXIT_OK
        assert out.splitlines()[-2:] == ["bound: 606", "amplified_unitarity_error: 2.2e-08"]

    def test_swap_exits_2_with_the_cause(self, capsys, tmp_path, perturbed_weak_zz):
        code, out, err = run(capsys, "synth", "--target", "SWAP", "--entangler",
                             perturbed_weak_zz, "--out", str(tmp_path / "circuit.json"))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: entangler unitarity error 3e-11 over 606 applications "
                              "exceeds verify_tol 1e-08 (residual 1.57")
        assert len(err.splitlines()) == 1

    def test_rounded_swap_compiles(self, capsys, tmp_path, rounded_weak_zz):
        # The unit's phase cancels the rounded matrix's scale, so all 606
        # applications verify. The circuit phase makes up that scale over
        # 606 applications: its modulus is 1.1e-8 off 1, and verify's window
        # takes the embedded entangler's scale out, so the document verifies.
        doc = tmp_path / "circuit.json"
        code, _, err = run(capsys, "synth", "--target", "SWAP",
                           "--entangler", rounded_weak_zz, "--out", str(doc))
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(doc.read_text())
        assert payload["report"]["entangler_count"] == 606
        assert payload["report"]["residual"] < 1e-12
        assert 5e-9 < abs(abs(complex(*payload["phase"])) - 1) < 2e-8
        code, out, err = run(capsys, "verify", "--circuit", str(doc), "--target", "SWAP")
        assert (code, err) == (EXIT_OK, "") and "verdict: PASS" in out
        # Off that scale by the same amount, the phase is refused.
        payload["phase"] = [x / abs(complex(*payload["phase"])) for x in payload["phase"]]
        doc.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "--circuit", str(doc), "--target", "SWAP")
        assert (code, out) == (EXIT_INPUT, "")
        modulus = abs(complex(*payload["phase"]))
        assert err.startswith(f"error: {doc}: circuit phase has modulus {modulus!r}, "
                              "expected 0.99999998")

    @pytest.mark.parametrize("target,count", [("CPHASE(pi/2)", 102), ("ZZ(pi/8)", 52)])
    def test_fewer_applications_still_compile(self, capsys, tmp_path, rounded_weak_zz,
                                              target, count):
        doc = tmp_path / "circuit.json"
        code, _, err = run(capsys, "synth", "--target", target,
                           "--entangler", rounded_weak_zz, "--out", str(doc))
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(doc.read_text())["report"]["entangler_count"] == count

    def test_fewer_applications_verify(self, capsys, tmp_path, rounded_weak_zz):
        doc = tmp_path / "circuit.json"
        code, _, _ = run(capsys, "synth", "--target", "ZZ(pi/8)",
                         "--entangler", rounded_weak_zz, "--out", str(doc))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "verify", "--circuit", str(doc), "--target", "ZZ(pi/8)")
        assert code == EXIT_OK and "verdict: PASS" in out

    def test_cphase_document_verifies(self, capsys, tmp_path, rounded_weak_zz):
        # The circuit phase's modulus is 1.9e-9 off 1: inside verify_tol / 2.
        doc = tmp_path / "circuit.json"
        code, _, _ = run(capsys, "synth", "--target", "CPHASE(pi/2)",
                         "--entangler", rounded_weak_zz, "--out", str(doc))
        assert code == EXIT_OK
        phase = complex(*json.loads(doc.read_text())["phase"])
        assert 1e-9 < abs(abs(phase) - 1) < 5e-9
        code, out, err = run(capsys, "verify", "--circuit", str(doc), "--target", "CPHASE(pi/2)")
        assert (code, err) == (EXIT_OK, "") and "verdict: PASS" in out


class TestClassifyChosenUnit:
    """classify reports the unit synth repeats: the smallest-bound extraction."""

    @pytest.fixture
    def miscalibrated_cnot(self, tmp_path):
        # The paper's unit doubles c3 = 1e-5: bound 471,240, above the cap.
        # Doubling c1 folds to 2e-3: bound 4,716.
        path = tmp_path / "miscalibrated_cnot.json"
        path.write_text(matrix_json(interaction(np.pi / 2 - 1e-3, 1e-4, 1e-5)))
        return f"MATRIX({path})"

    def test_miscalibrated_cnot_bound(self, capsys, miscalibrated_cnot):
        code, out, _ = run(capsys, "classify", "--gate", miscalibrated_cnot)
        assert code == EXIT_OK
        assert "apps_per_unit: 2" in out.splitlines()
        assert "n: 393" in out.splitlines()
        assert "bound: 4716" in out.splitlines()

    def test_miscalibrated_cnot_synth_then_verify(self, capsys, tmp_path, miscalibrated_cnot):
        doc = tmp_path / "circuit.json"
        code, _, err = run(capsys, "synth", "--target", "CNOT",
                           "--entangler", miscalibrated_cnot, "--out", str(doc))
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(doc.read_text())["report"]["bound"] == 4716
        code, out, _ = run(capsys, "verify", "--circuit", str(doc), "--target", "CNOT")
        assert code == EXIT_OK
        assert "verdict: PASS" in out

    @pytest.mark.parametrize("name", NAMED_GATE_CLASSIFY)
    def test_named_gates_unchanged(self, capsys, name):
        canonical, lines = NAMED_GATE_CLASSIFY[name]
        code, out, _ = run(capsys, "classify", "--gate", name)
        assert code == EXIT_OK
        first, *rest = out.splitlines()
        assert first.startswith("canonical: (")
        got = [float(x) for x in first[len("canonical: ("):-1].split(",")]
        assert got == pytest.approx(canonical, abs=1e-12)
        assert rest == lines


def test_snapped_target_falls_back_to_unsnapped(capsys, tmp_path):
    # CPHASE's c1 sits 8.9e-10 below pi/2: the snapped CZ circuit misses
    # --tol 5e-10, the unsnapped one passes, and verify accepts its document.
    path = tmp_path / "circ.json"
    target = "CPHASE(3.1415926518)"
    code, _, err = run(capsys, "synth", "--target", target, "--entangler", "CNOT",
                       "--tol", "5e-10", "--out", str(path))
    assert code == EXIT_OK, err
    assert json.loads(path.read_text())["report"]["entangler_count"] == 2
    code, out, _ = run(capsys, "verify", "--circuit", str(path), "--target", target)
    assert code == EXIT_OK
    assert "PASS" in out


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

    def test_phase_window_scales_with_the_documents_tolerance(self, capsys, tmp_path):
        # The window is verify_tol / 2: a modulus 4e-7 off 1 passes at --tol 1e-6 only.
        for tol, want in ((None, EXIT_INPUT), ("1e-6", EXIT_OK)):
            path = tmp_path / "circ.json"
            code, _, _ = run(capsys, "synth", "--target", "SQRT_SWAP", "--entangler",
                             "CPHASE(2pi/3)", "--out", str(path), *(("--tol", tol) if tol else ()))
            assert code == EXIT_OK
            doc = json.loads(path.read_text())
            doc["phase"] = [x * (1 + 4e-7) for x in doc["phase"]]
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "verify", "--circuit", str(path), "--target", "SQRT_SWAP")
            assert code == want
            assert ("verdict: PASS" in out) if want == EXIT_OK else "modulus" in err

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "verify", "--circuit", str(path),
                           "--target", "CNOT")
        assert code == EXIT_INPUT
        assert "malformed" in err
        # The one error line names the document, as the read errors do.
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: malformed circuit document: ")

    @pytest.mark.parametrize("entangler", [
        {"matrix": [[1, 2]]}, {}, {"name": "CPHASE"}, {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"name": "CPHASE", "angle": True}, {"matrix": encode_matrix(np.ones((4, 4)))},
    ], ids=["matrix_of_numbers", "empty", "cphase_without_angle", "matrix_2x2",
            "cphase_bool_angle", "matrix_nonunitary"])
    def test_malformed_entangler_descriptor(self, capsys, emitted, entangler):
        doc = json.loads(emitted.read_text())
        doc["entangler"] = entangler
        emitted.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--circuit", str(emitted),
                           "--target", "SQRT_SWAP")
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_matrix_entangler_roundtrip(self, capsys, tmp_path, rng):
        # A MATRIX entangler is embedded as its [re, im] rows, and verify
        # rebuilds it from them alone.
        entangler = haar_unitary(rng)
        gate_path, doc_path = tmp_path / "entangler.json", tmp_path / "circ.json"
        gate_path.write_text(matrix_json(entangler))
        code, _, err = run(capsys, "synth", "--target", "SQRT_SWAP",
                           "--entangler", f"MATRIX({gate_path})", "--out", str(doc_path))
        assert code == EXIT_OK, err
        assert json.loads(doc_path.read_text())["entangler"] == {"matrix": encode_matrix(entangler)}
        gate_path.unlink()
        code, out, err = run(capsys, "verify", "--circuit", str(doc_path),
                             "--target", "SQRT_SWAP")
        assert code == EXIT_OK, err
        assert "PASS" in out

    def test_matrix_entangler_of_integers_recorded_as_floats(self, capsys, tmp_path):
        # The document records encode_matrix's floats, not the file's integers.
        gate_path, doc_path = tmp_path / "entangler.json", tmp_path / "circ.json"
        gate_path.write_text(json.dumps(np.stack((CNOT.real, CNOT.imag), -1).astype(int).tolist()))
        code, _, err = run(capsys, "synth", "--target", "SQRT_SWAP",
                           "--entangler", f"MATRIX({gate_path})", "--out", str(doc_path))
        assert code == EXIT_OK, err
        entangler = json.loads(doc_path.read_text())["entangler"]
        assert json.dumps(entangler) == json.dumps({"matrix": encode_matrix(CNOT)})

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
        assert err.startswith(f"error: {emitted}: malformed gate descriptor")
        assert "not finite" in err

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

    def test_local_layer_row_of_one_entry(self, capsys, emitted):
        doc = json.loads(emitted.read_text())
        i, layer = next((i, e) for i, e in enumerate(doc["elements"]) if e["kind"] == "local")
        layer["a"] = [[[1, 0], [0, 0]], [[0, 0]]]
        emitted.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--circuit", str(emitted),
                             "--target", "SQRT_SWAP")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.splitlines() == [f"error: {emitted}: local layer at element {i} (a): "
                                    "malformed row 1: expected 2 [re, im] entries, got 1"]

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

    @pytest.mark.parametrize("key", ["unitarity_tol", "snap_tol"])
    def test_document_window_off_the_constant(self, capsys, emitted, key):
        # Every document synth writes records the fixed windows.
        doc = json.loads(emitted.read_text())
        doc["tolerances"][key] = 1e-6
        emitted.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--circuit", str(emitted),
                             "--target", "SQRT_SWAP")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.splitlines() == [f"error: {emitted}: document {key} 1e-06 is not the fixed "
                                    f"{'1e-10' if key == 'unitarity_tol' else '1e-09'}"]

    def test_huge_phase_is_invalid_input(self, capsys, emitted):
        # Checked before the circuit is evaluated: exit 2, no numpy warning.
        doc = json.loads(emitted.read_text())
        doc["phase"] = [1e200, 0.0]
        emitted.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--circuit", str(emitted),
                             "--target", "SQRT_SWAP")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.splitlines() == [f"error: {emitted}: circuit phase has modulus 1e+200, "
                                    "expected 1"]

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


# Files json cannot read: nested past the recursion limit, and not UTF-8.
UNREADABLE = {"nested_200000_deep": b"[" * 200_000 + b"]" * 200_000, "not_utf8": b"\xff\xfe[]"}


class TestUnreadableFiles:
    """A file the reader cannot take is invalid input: exit 2 and one error line."""

    @pytest.mark.parametrize("name", UNREADABLE)
    @pytest.mark.parametrize("role", ["--target", "--entangler"])
    def test_matrix_file(self, capsys, tmp_path, name, role):
        path = tmp_path / "gate.json"
        path.write_bytes(UNREADABLE[name])
        gates = {"--target": "CNOT", "--entangler": "CNOT", role: f"MATRIX({path})"}
        code, out, err = run(capsys, "synth", *[x for kv in gates.items() for x in kv])
        assert (code, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1
        reason = "malformed" if name.startswith("nested") else "cannot read"
        assert err.startswith(f"error: {reason} matrix file {path}: ")

    @pytest.mark.parametrize("name", UNREADABLE)
    def test_circuit_document(self, capsys, tmp_path, name):
        path = tmp_path / "circ.json"
        path.write_bytes(UNREADABLE[name])
        code, out, err = run(capsys, "verify", "--circuit", str(path), "--target", "CNOT")
        assert (code, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1
        # Both name the document's path.
        assert err.startswith(f"error: {path}: malformed circuit document: maximum recursion "
                              "depth" if name.startswith("nested")
                              else f"error: cannot read circuit document {path}: ")


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
