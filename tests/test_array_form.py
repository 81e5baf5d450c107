"""A circuit's array form (layers, slots, phase) agrees with its elements view."""

import numpy as np
import pytest

from gatesynth import compiler
from gatesynth.compiler import synthesize
from gatesynth.gates import B_GATE, CNOT, SQRT_SWAP, SWAP, cphase
from gatesynth.matcore import (DEFAULT_TOL, Circuit, EntanglerApp, LocalPair, evaluate,
                               interaction, phase_distance)
from gatesynth.zzsynth import _Run

from conftest import circuit_of, dress, expanded, haar_unitary, product_loop, slot_elements

ENTANGLERS = {
    "cnot": lambda rng: CNOT,
    "cphase_pi_9": lambda rng: cphase(np.pi / 9),
    "b": lambda rng: B_GATE,
    "sqrt_swap": lambda rng: SQRT_SWAP,
    "case4_dressed": lambda rng: dress(interaction(1.0, 0.6, 0.3), rng),
}


def counted(elements: list) -> tuple[int, int]:
    return (sum(isinstance(e, EntanglerApp) for e in elements),
            sum(isinstance(e, LocalPair) for e in elements))


def assert_same_elements(got: Circuit, want: Circuit) -> None:
    assert np.complex128(got.phase).tobytes() == np.complex128(want.phase).tobytes()
    assert [type(e) for e in got.elements] == [type(e) for e in want.elements]
    for g, w in zip(got.elements, want.elements):
        if isinstance(g, LocalPair):
            assert g.a.tobytes() == w.a.tobytes() and g.b.tobytes() == w.b.tobytes()


@pytest.mark.parametrize("name", ENTANGLERS)
def test_form_agrees_with_its_view(name):
    rng = np.random.default_rng(2606)
    entangler = ENTANGLERS[name](rng)
    targets = [haar_unitary(rng) for _ in range(6)]
    targets += [dress(u, rng) for u in (np.eye(4), CNOT, SWAP, SQRT_SWAP, B_GATE)]
    for target in targets:
        circuit, report = synthesize(target, entangler)
        view = circuit.elements
        assert circuit.counts() == counted(view) == (report.entangler_count, report.local_count)
        assert len(circuit.slots) == len(circuit.layers) + 1
        assert_same_elements(circuit, expanded(circuit))
        got = evaluate(circuit, entangler)
        # Bit for bit against the element loop with each run kept whole; the
        # view applies the entangler once per element, so where a run holds
        # more than one application its product rounds differently.
        walked = circuit.phase * product_loop(slot_elements(circuit), entangler)
        assert got.tobytes() == walked.tobytes()
        flat = evaluate(circuit_of(view, circuit.phase), entangler)
        runs = [s for s in circuit.slots if isinstance(s, _Run)]
        if all(run.reps * run.apps == 1 for run in runs):
            assert got.tobytes() == flat.tobytes()
        assert np.abs(got - flat).max() < 1e-14


def test_cap_case_counts():
    # SWAP from ZZ(pi/66664): three blocks of two runs of n = 16666 units.
    entangler = interaction(0.0, 0.0, np.pi / 66664)
    circuit, report = synthesize(SWAP, entangler)
    assert report.entangler_count == report.bound == 99996
    assert circuit.counts() == counted(circuit.elements) == (99996, report.local_count)
    assert len(circuit.layers) == 7 and sum(isinstance(s, _Run) for s in circuit.slots) == 6


def test_view_is_fresh_and_writable(rng):
    entangler, target = cphase(np.pi / 9), haar_unitary(rng)
    first, _ = synthesize(target, entangler)
    assert any(isinstance(s, _Run) and s.reps > 1 for s in first.slots)
    want = expanded(first)
    layers = first.layers.copy()
    for elem in first.elements:
        if isinstance(elem, LocalPair):
            assert elem.a.flags.writeable and elem.b.flags.writeable
            elem.a[...] = 0
            elem.b[...] = 0
    # The form, the memoized template and a later synthesis are untouched.
    assert first.layers.tobytes() == layers.tobytes()
    assert_same_elements(expanded(first), want)
    second, _ = synthesize(target, entangler)
    assert_same_elements(second, want)
    template = compiler._resource_memo[(entangler.shape, entangler.tobytes(), DEFAULT_TOL)]
    with pytest.raises(ValueError, match="read-only"):
        template.run_layers[0, 0, 0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        template.core_product[0, 0] = 0


def test_element_lists_with_bare_applications(rng):
    layer = lambda: LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))
    app = EntanglerApp()
    for elements, slots in (([], [0]), ([app] * 3, [3]), ([layer()], [0, 0]),
                            ([app, layer(), layer(), app, app], [1, 0, 2]),
                            ([layer(), app, app, layer(), app], [0, 2, 1])):
        layers = np.array([(e.a, e.b) for e in elements if isinstance(e, LocalPair)],
                          dtype=complex).reshape(-1, 2, 2, 2)
        circuit = Circuit(layers, slots, 1j)
        assert circuit_of(elements, 1j).slots == slots
        assert circuit.counts() == counted(elements) == counted(circuit.elements)
        flags = [isinstance(e, LocalPair) for e in elements]
        stack, index, kinds = circuit.expand()
        assert kinds == flags and index == list(range(len(stack)))
        assert stack.tobytes() == layers.tobytes()
        assert_same_elements(circuit, circuit_of(elements, 1j))


def test_evaluate_honours_its_entangler():
    # A run multiplies in its product only against the entangler it was built
    # for; against any other it is multiplied out, as its expansion is.
    circuit, report = synthesize(SWAP, cphase(np.pi / 9))
    assert any(isinstance(s, _Run) and s.reps > 1 for s in circuit.slots)
    assert phase_distance(evaluate(circuit, cphase(np.pi / 9)), SWAP) == report.residual
    assert phase_distance(evaluate(circuit, np.eye(4)), SWAP) > 1
    # CNOT's runs are one application each, with no bare slot.
    circuit, report = synthesize(SWAP, CNOT)
    assert not any(isinstance(s, int) and s for s in circuit.slots)
    miscalibrated = interaction(np.pi / 2 - 0.05, 0.0, 0.0)
    got = evaluate(circuit, miscalibrated)
    assert got.tobytes() == evaluate(expanded(circuit), miscalibrated).tobytes()
    assert phase_distance(got, SWAP) > 1
    with pytest.raises(ValueError, match="^entangler is not unitary"):
        evaluate(circuit, np.ones((4, 4)))
