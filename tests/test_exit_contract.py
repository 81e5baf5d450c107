"""The exit contract, on generated inputs: every `verify` of a mutated circuit
document and every `synth` or `verify` on a mutated MATRIX file exits 0, 2 or
3; an exit of 2 or 3 prints exactly one `error:` or `verification failure:`
line (a `verify` whose verdict is FAIL prints that verdict instead, and
nothing on stderr), never numpy's own ragged-array text; nothing raises out
of main(), and no RuntimeWarning is issued.

Each mutation picks a random path in the JSON value (a key, an index, or the
whole value) and deletes it, retypes it, makes it non-finite or 10**400, nests
it deep, or truncates the text. The documents are synth's, one per cli_docs
entangler, on half Haar and half dressed-landmark targets. Seeded.
"""

import contextlib
import io
import json
import random
import warnings

import numpy as np
import pytest

from gatesynth.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from gatesynth.gates import B_GATE, CNOT, SQRT_SWAP, SWAP

from conftest import dress, haar_unitary, matrix_json

ENTANGLERS = ("CNOT", "B", "SQRT_SWAP", "CPHASE(2pi/3)")
MUTATIONS = ("delete", "retype", "non_finite", "huge", "nest", "truncate")
# One value of each JSON type; a retype picks one of another type.
RETYPED = ("text", 7, 0.5, True, None, [], {})
# Past the JSON reader's recursion limit, and well inside it.
NEST_DEPTHS = (3, 200, 100_000)
PER_SOURCE = 120
# numpy's text for a ragged nested list; no message passes it through.
NUMPY_RAGGED = "setting an array element with a sequence"
_DELETE = object()
_NEST = "\0nest\0"  # stands in for the nested text, spliced in after json.dumps


def json_paths(node, prefix=()):
    """Every path in a JSON value, the empty path (the whole value) first."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


def replaced(value, path, new):
    """value with the node at path replaced by new; _DELETE deletes it."""
    if not path:
        return new
    head, *rest = path
    out = dict(value) if isinstance(value, dict) else list(value)
    if rest:
        out[head] = replaced(out[head], tuple(rest), new)
    elif new is _DELETE:
        del out[head]
    else:
        out[head] = new
    return out


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """One seeded mutation of a JSON text, and its description."""
    kind = rng.choice(MUTATIONS)
    if kind == "truncate":
        cut = rng.randrange(len(text))
        return text[:cut], f"truncate at {cut}"
    value = json.loads(text)
    path = rng.choice(list(json_paths(value)))
    if kind == "delete":
        if not path:
            return "", "delete everything"
        return json.dumps(replaced(value, path, _DELETE)), f"delete {path}"
    if kind == "retype":
        current = type(_node(value, path))
        new = rng.choice([v for v in RETYPED if type(v) is not current])
        return json.dumps(replaced(value, path, new)), f"retype {path} to {new!r}"
    if kind == "non_finite":
        new = rng.choice((float("nan"), float("inf"), -float("inf")))
        return json.dumps(replaced(value, path, new)), f"{new} at {path}"
    if kind == "huge":
        return json.dumps(replaced(value, path, 10**400)), f"10**400 at {path}"
    depth = rng.choice(NEST_DEPTHS)
    inner = json.dumps(_node(value, path))
    nested = "[" * depth + inner + "]" * depth
    return (json.dumps(replaced(value, path, _NEST)).replace(json.dumps(_NEST), nested),
            f"nest {path} {depth} deep")


def _node(value, path):
    for key in path:
        value = value[key]
    return value


def run_cli(argv: list) -> tuple[int, str, str, list]:
    """main(argv) in process: exit code, stdout, stderr and the RuntimeWarnings issued."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


def assert_contract(argv: list, what: str) -> int:
    try:
        code, out, err, runtime = run_cli(argv)
    except BaseException as exc:  # SystemExit included: main() returns its exit code
        raise AssertionError(f"{what}: main raised {type(exc).__name__}: {exc}") from exc
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_VERIFY), (what, code, err)
    assert "Traceback" not in err, (what, err)
    assert not runtime, (what, runtime)
    lines = err.splitlines()
    if code == EXIT_VERIFY and argv[0] == "verify":
        assert not lines and out.splitlines()[-1].startswith("verdict: FAIL"), (what, out, err)
    elif code != EXIT_OK:
        prefix = "error:" if code == EXIT_INPUT else ("error:", "verification failure:")
        assert len(lines) == 1 and lines[0].startswith(prefix), (what, code, err)
        assert NUMPY_RAGGED not in err, (what, err)  # a bad row names itself
        assert "verdict" not in out, (what, out)
    return code


@pytest.fixture
def targets(tmp_path):
    """Target MATRIX files: a Haar target and a dressed landmark per entangler."""
    rng = np.random.default_rng(2604)
    landmarks = (CNOT, SWAP, SQRT_SWAP, B_GATE)
    files = []
    for i in range(len(ENTANGLERS)):
        path = tmp_path / f"target-{i}.json"
        path.write_text(matrix_json(haar_unitary(rng) if i % 2 == 0
                                    else dress(landmarks[i], rng)))
        files.append(path)
    return files


def test_mutated_documents(tmp_path, targets):
    rng = random.Random(2604)
    doc, mutated = tmp_path / "circuit.json", tmp_path / "mutated.json"
    codes = set()
    for entangler, target in zip(ENTANGLERS, targets):
        gate = f"MATRIX({target})"
        assert assert_contract(["synth", "--target", gate, "--entangler", entangler,
                                "--out", str(doc)], entangler) == EXIT_OK
        text = doc.read_text()
        for _ in range(PER_SOURCE):
            new, what = mutate(text, rng)
            mutated.write_text(new)
            codes.add(assert_contract(["verify", "--circuit", str(mutated), "--target", gate],
                                      f"{entangler} document: {what}"))
    assert EXIT_INPUT in codes


def test_mutated_matrix_files(tmp_path, targets):
    rng = random.Random(2605)
    doc, mutated = tmp_path / "circuit.json", tmp_path / "mutated.json"
    codes = set()
    for entangler, target in zip(ENTANGLERS, targets):
        assert assert_contract(["synth", "--target", f"MATRIX({target})", "--entangler",
                                entangler, "--out", str(doc)], entangler) == EXIT_OK
        text = target.read_text()
        for _ in range(PER_SOURCE // 2):
            new, what = mutate(text, rng)
            mutated.write_text(new)
            gate = f"MATRIX({mutated})"
            for argv in (["synth", "--target", gate, "--entangler", entangler],
                         ["synth", "--target", "CNOT", "--entangler", gate],
                         ["verify", "--circuit", str(doc), "--target", gate]):
                codes.add(assert_contract(argv, f"{argv[0]} {argv[2]}: {what}"))
    assert EXIT_INPUT in codes
