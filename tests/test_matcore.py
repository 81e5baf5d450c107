import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.matcore import (MAX_TOLERANCE, ROUNDOFF, Circuit, EntanglerApp, LocalPair,
                               SIGMA_X, SIGMA_Y, SIGMA_Z, ToleranceConfig, dagger,
                               evaluate, exp_pauli, interaction, merge_locals,
                               phase_distance, project_special_rows,
                               require_unitary, tensor, unitarity_error,
                               zz_interaction)

from gatesynth.kak import kak_decompose
from gatesynth.zzsynth import _Run

from conftest import circuit_of, haar_unitary, slot_elements

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)


def kron_oracle(a, b):
    """Independent Kronecker product via explicit index loops."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(ID2, ID2), ID4)

    def test_pauli_z_pair(self):
        np.testing.assert_array_equal(tensor(SIGMA_Z, SIGMA_Z),
                                      np.diag([1, -1, -1, 1]).astype(complex))

    def test_kx_factor_matches_oracle(self):
        r = exp_pauli("y", np.pi / 4)
        np.testing.assert_allclose(tensor(r, r), kron_oracle(r, r), atol=1e-15)

    def test_mixed_product_rule(self, rng):
        for _ in range(20):
            a, b, c, d = (haar_unitary(rng, 2) for _ in range(4))
            np.testing.assert_allclose(tensor(a, b) @ tensor(c, d),
                                       tensor(a @ c, b @ d), atol=1e-12)

    def test_bit_identical_to_kron(self, rng):
        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for _ in range(200):
            a, b = cplx(2, 2), cplx(2, 2)
            assert np.array_equal(tensor(a, b), np.kron(a, b))
        a, b = cplx(3, 2), cplx(2, 5)
        assert np.array_equal(tensor(a, b), np.kron(a, b))


class TestDagger:
    def test_one_matrix_is_the_conjugate_transpose(self, rng):
        u = haar_unitary(rng)
        assert np.array_equal(dagger(u), u.conj().T)

    def test_kak_local_stack_per_matrix(self, rng):
        # A (2, 2, 2) KAK local: each half is daggered, the pair axis stays put.
        k1 = kak_decompose(haar_unitary(rng)).k1
        assert np.array_equal(dagger(k1), [k1[0].conj().T, k1[1].conj().T])

    def test_pair_tuple_per_matrix(self, rng):
        a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
        da, db = dagger((a, b))
        assert np.array_equal(da, a.conj().T) and np.array_equal(db, b.conj().T)


class TestPhaseDistance:
    def test_self(self, rng):
        u = haar_unitary(rng)
        assert phase_distance(u, u) < 1e-14

    def test_global_phase_removed(self, rng):
        u = haar_unitary(rng)
        assert phase_distance(u, 1j * u) < 1e-14

    def test_traceless_case(self):
        # tr((sigma_z x I)^dag I) = 0, so the minimum is sqrt(8) = 2 sqrt(2)
        assert phase_distance(ID4, tensor(SIGMA_Z, ID2)) == pytest.approx(2 * np.sqrt(2), abs=1e-14)

    def test_agrees_with_closed_form(self, rng):
        for _ in range(20):
            a, b = haar_unitary(rng), haar_unitary(rng)
            closed = np.sqrt(max(8 - 2 * abs(np.trace(a.conj().T @ b)), 0.0))
            assert phase_distance(a, b) == pytest.approx(closed, abs=1e-7)

    def test_brute_force_minimum(self, rng):
        a, b = haar_unitary(rng), haar_unitary(rng)
        grid = min(np.linalg.norm(a - np.exp(1j * t) * b)
                   for t in np.linspace(0, 2 * np.pi, 20001))
        assert phase_distance(a, b) <= grid + 1e-7

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-10, max_value=10))
    def test_phase_invariance(self, angle):
        rng = np.random.default_rng(7)
        a, b = haar_unitary(rng), haar_unitary(rng)
        d = phase_distance(a, b)
        assert phase_distance(b, a) == pytest.approx(d, abs=1e-12)
        assert phase_distance(a, np.exp(1j * angle) * b) == pytest.approx(d, abs=1e-9)


def phase_distance_reference(a, b):
    """phase_distance through np.trace and np.linalg.norm(..., "fro")."""
    overlap = np.trace(a.conj().T @ b)
    phi = np.conj(overlap) / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phi * b, "fro"))


def test_phase_distance_bit_identical_to_trace_and_norm():
    rng = np.random.default_rng(24)
    pairs = [(ID4, tensor(SIGMA_Z, ID2))]  # zero overlap: the phase is 1
    for _ in range(200):
        a = haar_unitary(rng)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pairs += [(a, haar_unitary(rng)), (a, a),
                  (a, np.exp(1j * rng.uniform(0, 2 * np.pi)) * a),
                  (a, a + rng.uniform(1e-17, 1e-15) * noise)]
    got = [phase_distance(a, b) for a, b in pairs]
    assert all(type(d) is float for d in got)
    assert np.array(got).tobytes() == np.array([phase_distance_reference(a, b)
                                                for a, b in pairs]).tobytes()
    assert 0.0 in got  # equal inputs
    assert sum(1e-16 < d < 1e-14 for d in got) > 100  # residuals near 1e-15


class TestEvaluate:
    def test_empty(self):
        np.testing.assert_array_equal(evaluate(circuit_of([]), zz_interaction(1.0)), ID4)

    def test_single_local(self, rng):
        a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
        got = evaluate(circuit_of([LocalPair(a, b)]), zz_interaction(1.0))
        np.testing.assert_allclose(got, tensor(a, b), atol=1e-15)

    def test_block_circuit_matches_product_oracle(self):
        # two-insertion block at gamma = c = pi/2: U1, U2 take their closed
        # 1/sqrt(2) form and the middle rotation angle is (c + pi)/2
        p = q = 1 / np.sqrt(2)
        u1 = np.array([[1j * p, 1j * q], [-q, p]])
        u2 = np.array([[1j * p, -q], [-1j * q, -p]])
        mid = exp_pauli("y", (np.pi / 2 + np.pi) / 2)
        circ = circuit_of([LocalPair(ID2, u2), EntanglerApp(),
                           LocalPair(ID2, mid), EntanglerApp(), LocalPair(ID2, u1)])
        res = zz_interaction(np.pi / 2)
        oracle = (tensor(ID2, u1) @ res @ tensor(ID2, mid) @ res @ tensor(ID2, u2))
        got = evaluate(circ, res)
        np.testing.assert_allclose(got, oracle, atol=1e-14)
        assert phase_distance(got, zz_interaction(np.pi / 2)) < 1e-14

    def test_concat_is_reversed_product(self, rng):
        a = circuit_of([LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))], phase=1j)
        b = circuit_of([EntanglerApp(), LocalPair(haar_unitary(rng, 2), haar_unitary(rng, 2))])
        ent = haar_unitary(rng)
        np.testing.assert_allclose(
            evaluate(circuit_of(a.elements + b.elements, a.phase * b.phase), ent),
            evaluate(b, ent) @ evaluate(a, ent), atol=1e-13)

    def test_starts_at_the_first_element(self, rng):
        # Bit for bit the walk that starts at the first element's matrix, not
        # at the identity: empty, leading bare applications, and a hand-built
        # run in slot 0, multiplied in (built for ent) or out (other bytes).
        def walk(elements):
            out = None
            for e in elements:
                m = (ent if isinstance(e, EntanglerApp) else np.kron(e.a, e.b)
                     if isinstance(e, LocalPair) else e.product)
                out = m if out is None else m @ out
            return out

        ent = haar_unitary(rng)
        layers = np.array([(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in range(2)])
        empty = Circuit(np.empty((0, 2, 2, 2), dtype=complex), [0], 1j)
        assert evaluate(empty, ent).tobytes() == (1j * ID4).tobytes()
        bare = Circuit(layers, [1, 0, 2], 1j)
        assert evaluate(bare, ent).tobytes() == (1j * walk(bare.elements)).tobytes()
        run_layers = np.array([(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in range(2)])
        for built_for in (ent.tobytes(), b"other"):
            run = _Run(run_layers, 2, 2, haar_unitary(rng), built_for)
            circuit = Circuit(layers, [run, 0, 1], 1j)
            elements = circuit.elements if built_for == b"other" else slot_elements(circuit)
            assert evaluate(circuit, ent).tobytes() == (1j * walk(elements)).tobytes()

    def test_rejects_nonunitary_entangler(self):
        with pytest.raises(ValueError):
            evaluate(circuit_of([EntanglerApp()]), np.ones((4, 4), dtype=complex))


def project_special(u):
    """(v, phase) of project_special_rows on the 1-row stack of u."""
    v, phases, _ = project_special_rows(np.asarray(u, dtype=complex)[None])
    return v[0], complex(phases[0])


class TestProjectSpecial:
    def test_identity(self):
        v, phase = project_special(ID4)
        np.testing.assert_array_equal(v, ID4)
        assert phase == pytest.approx(1.0)

    def test_scalar_multiple(self):
        # det(i I4) = i^4 = 1, so i I4 is already special unitary
        v, phase = project_special(1j * ID4)
        assert phase == pytest.approx(1.0, abs=1e-15)
        assert abs(np.linalg.det(v) - 1) < 1e-12

    def test_quarter_phase(self):
        # det = i, principal fourth root is e^{i pi/8}
        u = np.diag([1j, 1, 1, 1]).astype(complex)
        v, phase = project_special(u)
        assert phase == pytest.approx(np.exp(1j * np.pi / 8), abs=1e-15)
        assert abs(np.linalg.det(v) - 1) < 1e-12

    def test_cnot_negative_determinant(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        assert np.linalg.det(cnot).real == pytest.approx(-1.0)
        v, phase = project_special(cnot)
        assert phase == pytest.approx(np.exp(1j * np.pi / 4), abs=1e-15)
        assert abs(np.linalg.det(v) - 1) < 1e-12
        np.testing.assert_allclose(phase * v, cnot, atol=1e-15)

    def test_always_special(self, rng):
        for _ in range(50):
            v, _ = project_special(haar_unitary(rng))
            assert abs(np.linalg.det(v) - 1) < 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            project_special(np.ones((4, 4), dtype=complex))


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert (tol.unitarity_tol, tol.snap_tol, tol.verify_tol) == (1e-10, 1e-9, 1e-8)
        # verify_tol is the one setting; the two windows are fixed.
        assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["verify_tol"]
        assert ToleranceConfig(verify_tol=1e-6).snap_tol == ToleranceConfig.snap_tol

    @pytest.mark.parametrize("kwargs", [
        {"verify_tol": 0.0}, {"verify_tol": -0.0}, {"verify_tol": -1e-9},
        {"verify_tol": -1e300}, {"verify_tol": float("inf")}, {"verify_tol": float("-inf")},
        {"verify_tol": float("nan")}, {"verify_tol": 3.0}, {"verify_tol": 0.5},
        {"verify_tol": MAX_TOLERANCE}, {"verify_tol": 2 * MAX_TOLERANCE},
        # Below ROUNDOFF, correct residuals of built-in gates fail.
        {"verify_tol": 1e-13}, {"verify_tol": 1e-15}, {"verify_tol": 5e-324},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match="^tolerances must be finite and strictly positive"):
            ToleranceConfig(**kwargs)

    def test_accepts_the_roundoff_floor(self):
        assert ToleranceConfig(verify_tol=ROUNDOFF).verify_tol == ROUNDOFF

    @pytest.mark.parametrize("window", ["unitarity_tol", "snap_tol"])
    def test_windows_are_not_settable(self, window):
        with pytest.raises(TypeError, match=window):
            ToleranceConfig(**{window: 1e-6})


def test_is_unitary_rejects_nan():
    bad = np.full((4, 4), np.nan, dtype=complex)
    assert not unitarity_error(bad) <= 1.0
    with pytest.raises(ValueError, match="non-finite"):
        require_unitary(bad)


class TestRequireUnitary:
    @pytest.mark.parametrize("m", [np.ones((4, 4)), np.eye(4)[:2], np.eye(8).reshape(2, 4, 8)])
    def test_rejects_non_unitary_and_non_square(self, m):
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(m)

    def test_returns_each_matrixs_error(self, rng):
        u, rough = haar_unitary(rng), np.round(haar_unitary(rng), 11)
        assert require_unitary(u) == unitarity_error(u)
        stack = np.array([u, rough])
        assert require_unitary(stack).tolist() == unitarity_error(stack).tolist()
        assert require_unitary(np.empty((0, 2, 2))).shape == (0,)

    def test_names_the_first_bad_matrix(self, rng):
        good, bad = haar_unitary(rng), np.ones((4, 4))
        with pytest.raises(ValueError, match="^gate is not unitary"):
            require_unitary(bad, what="gate")
        with pytest.raises(ValueError, match="^gate row 1 is not unitary"):
            require_unitary(np.array([good, bad, bad]), what="gate")
        with pytest.raises(ValueError, match="^layer 4 is not unitary"):
            require_unitary(np.array([good, good, bad]), what=lambda i: f"layer {2 * i}")

    def test_reports_non_finite_entries_first(self, rng):
        good, nan = haar_unitary(rng), np.full((4, 4), np.nan)
        with pytest.raises(ValueError, match="^matrix row 2 has non-finite entries"):
            require_unitary(np.array([good, np.ones((4, 4)), nan]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(4, 4), (2, 2), (3, 4, 4)])
    def test_refuses_entries_too_large_to_square(self, shape):
        # Finite, but their squares overflow: refused without a numpy warning.
        with pytest.raises(ValueError, match="^big( row 0)? is not unitary"):
            require_unitary(np.full(shape, 1e200 + 1e200j), what="big")


def test_interaction_is_commuting_product():
    c = (0.3, 0.7, 1.1)
    factors = [exp_factor for exp_factor in (
        np.cos(c[0] / 2) * ID4 + 1j * np.sin(c[0] / 2) * tensor(SIGMA_X, SIGMA_X),
        np.cos(c[1] / 2) * ID4 + 1j * np.sin(c[1] / 2) * tensor(SIGMA_Y, SIGMA_Y),
        np.cos(c[2] / 2) * ID4 + 1j * np.sin(c[2] / 2) * tensor(SIGMA_Z, SIGMA_Z),
    )]
    np.testing.assert_allclose(interaction(*c), factors[0] @ factors[1] @ factors[2], atol=1e-15)
    np.testing.assert_allclose(interaction(*c), factors[2] @ factors[0] @ factors[1], atol=1e-14)


def fuse_chain_loop(chain: list, phase: complex):
    """Reference fusion of one chain: one matmul per layer, one det and sqrt per qubit."""
    a, b = chain[0], chain[1]
    for next_a, next_b in zip(chain[2::2], chain[3::2]):
        a, b = next_a @ a, next_b @ b
    scale_a, scale_b = np.sqrt(np.linalg.det(a)), np.sqrt(np.linalg.det(b))
    return (a / scale_a, b / scale_b), phase * (scale_a * scale_b)


def test_merge_locals_matches_per_chain_loop():
    # Padding every chain with identities to the longest changes no bit
    # of layers without exact zeros. The phase is the per-row numpy
    # product, in chain order, and stays an np.complex128 whether the
    # phase passed in is a Python complex or an np.complex128.
    rng = np.random.default_rng(22)
    for i in range(40):
        lengths = rng.integers(1, 8, size=rng.integers(1, 9))
        chains = [[haar_unitary(rng, 2) for _ in range(2 * n)] for n in lengths]
        phase = (complex, np.complex128)[i % 2](np.exp(1j * rng.uniform(0, 2 * np.pi)))
        fused, got_phase = merge_locals(chains, phase)
        assert type(got_phase) is np.complex128
        assert fused.shape == (len(chains), 2, 2, 2)
        want_phase = phase
        for chain, layer in zip(chains, fused):
            (a, b), want_phase = fuse_chain_loop(chain, want_phase)
            assert layer[0].tobytes() == a.tobytes() and layer[1].tobytes() == b.tobytes()
        assert np.complex128(got_phase).tobytes() == np.complex128(want_phase).tobytes()
