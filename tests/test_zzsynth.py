import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.gates import B_GATE, CNOT, cphase
from gatesynth.kak import kak_decompose, snap_angle
from gatesynth.matcore import (DEFAULT_TOL, ID2, ROUNDOFF, evaluate, interaction,
                               phase_distance, zz_interaction)
from gatesynth import synthesize, zzsynth
from gatesynth.zzsynth import (MAX_APPLICATIONS, ZzResource, amplify, block_repetitions,
                               choose_unit, extract_zz, fold_angle, prepare_resource,
                               repetitions, uniform_bound)

from conftest import (FOLD_BRANCHES, dress, flanked_zz_unit, random_local, repeated,
                      run_resource, unit_circuit)


def check_resource(r: ZzResource, entangler: np.ndarray, tol: float = 1e-9) -> None:
    circuit = unit_circuit(r)
    assert phase_distance(evaluate(circuit, entangler), zz_interaction(r.gamma)) < tol
    assert circuit.entangler_count == r.apps_per_unit


class TestExtractZz:
    def test_case1_cnot(self):
        r = extract_zz(CNOT)
        assert r.gamma == pytest.approx(np.pi / 2, abs=1e-12)
        assert r.apps_per_unit == 1
        check_resource(r, CNOT)

    def test_units_cannot_write_module_constants(self):
        # The unit's last layer is zzsynth.KX_FACTOR itself on each qubit; it
        # is read-only, so a caller's write cannot corrupt later syntheses.
        half = extract_zz(CNOT).chains[-1][-2]
        assert half is zzsynth.KX_FACTOR
        with pytest.raises(ValueError, match="read-only"):
            half[...] = np.eye(2)
        for layer in fold_angle(2.0)[1:3]:  # every fold layer is shared too
            with pytest.raises(ValueError, match="read-only"):
                layer.a[...] = np.eye(2)
        _, report = synthesize(CNOT, cphase(np.pi / 3))
        assert report.residual < DEFAULT_TOL.verify_tol

    def test_case2(self, rng):
        ent = dress(interaction(np.pi / 2, np.pi / 2, 0.0), rng)
        r = extract_zz(ent)
        assert r.gamma == pytest.approx(np.pi / 2, abs=1e-9)
        assert r.apps_per_unit == 2
        check_resource(r, ent)

    def test_case3_reflected(self, rng):
        # doubling c1 = pi/3 gives 2pi/3 > pi/2, so the reflection fires
        ent = dress(interaction(np.pi / 3, np.pi / 4, 0.0), rng)
        r = extract_zz(ent)
        assert r.gamma == pytest.approx(np.pi / 3, abs=1e-9)
        assert r.apps_per_unit == 2
        check_resource(r, ent)

    def test_case3_degenerate_b_class(self, rng):
        # c1 = pi/2 would double to the locally trivial angle pi; the
        # sigma_y variant doubles c2 instead
        ent = dress(interaction(np.pi / 2, np.pi / 4, 0.0), rng)
        r = extract_zz(ent)
        assert r.gamma == pytest.approx(np.pi / 2, abs=1e-9)
        assert r.apps_per_unit == 2
        check_resource(r, ent)

    def test_case4(self, rng):
        ent = dress(interaction(np.pi / 3, np.pi / 4, np.pi / 6), rng)
        r = extract_zz(ent)
        assert r.gamma == pytest.approx(np.pi / 3, abs=1e-9)  # 2 * pi/6
        assert r.apps_per_unit == 2
        check_resource(r, ent)

    def test_gamma_always_in_range(self, rng):
        # (2.6, 0.13, 5e-11): c3 snaps to 0 but escapes the base fold, so
        # case 3 doubles c1 = 2.6 to 5.2, which the fold takes to 2pi - 5.2
        triples = [(0.4, 0, 0), (2.5, 0, 0), (np.pi / 2, 1.2, 0),
                   (1.0, 0.8, 0.7), (np.pi / 2, np.pi / 2, 0), (2.0, 1.0, 0.2),
                   (2.6, 0.13, 5e-11)]
        for triple in triples:
            ent = dress(interaction(*triple), rng)
            r = extract_zz(ent)
            assert 0 < r.gamma <= np.pi / 2 + 1e-12
            assert r.apps_per_unit in (1, 2)
            check_resource(r, ent)

    def test_rejects_local(self, rng):
        with pytest.raises(ValueError, match="local"):
            extract_zz(random_local(rng))

    def test_rejects_swap_class(self, rng):
        with pytest.raises(ValueError, match="swap"):
            extract_zz(dress(interaction(np.pi / 2, np.pi / 2, np.pi / 2), rng))

    def test_case_predicates_partition_chamber(self):
        # the four case predicates from the construction, on snapped angles
        def predicates(g1, g2, g3):
            return (
                g3 == 0 and g2 == 0 and 0 < g1 < np.pi,
                g3 == 0 and g1 == np.pi / 2 and g2 == np.pi / 2,
                g3 == 0 and 0 < g2 < np.pi / 2 and 0 < g1 < np.pi,
                0 < g3 < np.pi / 2,
            )

        grid = [snap_angle(k * np.pi / 40) for k in range(41)]
        for g1 in grid:
            for g2 in grid:
                for g3 in grid:
                    if not (np.pi - g2 >= g1 >= g2 >= g3 >= 0):
                        continue
                    local = g3 == 0 and g2 == 0 and g1 in (0.0, np.pi)
                    swap_class = g1 == g2 == g3 == np.pi / 2
                    if local or swap_class:
                        continue
                    hits = predicates(g1, g2, g3)
                    assert sum(hits) == 1, (g1, g2, g3, hits)


class TestChooseUnit:
    @pytest.mark.parametrize("triple", [(np.pi / 3, np.pi / 4, 0.0),
                                        (np.pi / 2 - 1e-3, 1e-4, 1e-5)],
                             ids=["dressed_case3", "miscalibrated_cnot"])
    def test_builds_one_unit(self, monkeypatch, rng, triple):
        # Both units move off the paper's axis; only the winner is built,
        # from the one KAK.
        ent = dress(interaction(*triple), rng)
        calls = {"kak_decompose": 0, "_folded_unit": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                def counting(*args, _name=name, _original=getattr(zzsynth, name), **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)
                patch.setattr(zzsynth, name, counting)
            unit = choose_unit(ent)
        assert calls == {"kak_decompose": 1, "_folded_unit": 1}
        # choose_unit's order: bound, then applications, then the larger angle.
        cost = lambda r: (uniform_bound(repetitions(r.gamma), r.apps_per_unit),
                          r.apps_per_unit, -r.gamma)
        assert cost(unit) < cost(extract_zz(ent))
        check_resource(unit, ent)


class TestFoldAngle:
    @staticmethod
    def angles():
        rng = np.random.default_rng(2024)
        landmarks = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
        near = [np.nextafter(x, d) for x in landmarks for d in (-np.inf, np.inf)]
        grid = [g for g in landmarks + near if 0.0 <= g < 2 * np.pi]
        return grid + list(rng.uniform(0.0, 2 * np.pi, 400)) + [np.nextafter(2 * np.pi, 0.0)]

    def test_identity_and_range(self):
        for g in self.angles():
            h, pre, post, phase = fold_angle(g)
            assert 0.0 <= h <= np.pi / 2, g
            folded = phase * post.matrix() @ zz_interaction(h) @ pre.matrix()
            np.testing.assert_allclose(folded, zz_interaction(g), rtol=0, atol=1e-15)

    def test_layers_are_pauli(self):
        entries = {0, 1, -1, 1j, -1j}
        for g in self.angles():
            _, pre, post, _ = fold_angle(g)
            for m in (pre.a, pre.b, post.a, post.b):
                assert set(m.ravel().tolist()) <= entries, g

    def test_identity_below_half_pi(self):
        for g in (0.0, np.pi / 5, np.pi / 2):
            h, pre, post, phase = fold_angle(g)
            assert (h, phase) == (g, 1.0)
            for m in (pre.a, pre.b, post.a, post.b):
                np.testing.assert_array_equal(m, np.eye(2))

    def test_local_angles_fold_to_zero(self):
        assert fold_angle(0.0)[0] == fold_angle(np.pi)[0] == 0.0

    @pytest.mark.parametrize("g", [-1e-300, 2 * np.pi, np.nan])
    def test_rejects_outside_domain(self, g):
        with pytest.raises(ValueError, match="outside"):
            fold_angle(g)


class TestUnitFold:
    """The unit's chains and its fold into (0, pi/2], for every fold branch."""

    @pytest.mark.parametrize("name", FOLD_BRANCHES)
    @pytest.mark.parametrize("build", [extract_zz, choose_unit], ids=["paper", "best_axis"])
    def test_branch(self, name, build, rng):
        g, gamma, lengths = FOLD_BRANCHES[name]
        for ent in (interaction(*g), dress(interaction(*g), rng)):
            unit = build(ent)
            assert 0.0 < unit.gamma <= np.pi / 2
            assert unit.gamma == pytest.approx(gamma, abs=1e-9)
            assert [len(chain) // 2 for chain in unit.chains] == lengths
            circuit = unit_circuit(unit)
            assert circuit.entangler_count == unit.apps_per_unit == len(lengths) - 1
            assert phase_distance(evaluate(circuit, ent), zz_interaction(unit.gamma)) < 1e-9


class TestReduceAngle:
    """The unit's fold shifting gamma in (pi, 3pi/2] down by pi."""

    def test_reduces_three_half_pi(self):
        # c3 snaps to 0 but keeps c1 = 3pi/4 off the base fold; the paper
        # doubles c1 to 3pi/2, conjugated from XX onto ZZ, and the fold adds
        # ZZ after the last application; its pre is the identity, so no layer
        # goes before the first.
        ent = interaction(3 * np.pi / 4, 0.3, 5e-11)
        unit = extract_zz(ent)
        assert unit.gamma == pytest.approx(np.pi / 2, abs=1e-12)
        assert [len(chain) // 2 for chain in unit.chains] == [3, 3, 3]
        check_resource(unit, ent)

    @pytest.mark.parametrize("c1,n", [(3 * np.pi / 4, 1), (1.7, 4)])
    def test_template_as_with_an_identity_layer(self, c1, n):
        # 1.7 doubles to gamma = 3.4 - pi, n = 4, so the template has a seam.
        ent = interaction(c1, 0.3, 5e-11)
        unit = extract_zz(ent)
        padded = ZzResource([[ID2, ID2, *unit.chains[0]], *unit.chains[1:]], unit.phase,
                            unit.gamma, unit.apps_per_unit)
        got, want = amplify(unit, ent), amplify(padded, ent)
        assert got.n == want.n == n
        pairs = [(got.first, want.first), (got.last, want.last)]
        if n > 1:
            pairs.append((got.seam, want.seam))
        for x, y in pairs:
            np.testing.assert_allclose(x.matrix(), y.matrix(), rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.core_product, want.core_product, rtol=0, atol=1e-15)
        assert got.phase == want.phase and got.step_phase == want.step_phase

    def test_below_pi_unchanged(self):
        # Case 1 at pi/3 needs no fold: k_x conjugation only.
        ent = interaction(np.pi / 3, 0.0, 0.0)
        unit = extract_zz(ent)
        assert unit.gamma == pytest.approx(np.pi / 3, abs=1e-12)
        assert [len(chain) // 2 for chain in unit.chains] == [2, 2]
        check_resource(unit, ent)

    def test_pi_rejected(self):
        # Doubling B's c1 = pi/2 gives the local angle pi, which no fold
        # reduces; only a custom axis reaches it.
        with pytest.raises(ValueError, match="no entangling reduction"):
            zzsynth._folded_unit(kak_decompose(B_GATE), lambda g: 0)


class TestReflectAngle:
    """The unit's fold reflecting gamma in (pi/2, pi) to pi - gamma."""

    def test_reflects(self):
        # Doubling c3 = 0.9 gives 1.8; no conjugation, one fold layer each side.
        ent = interaction(1.2, 1.0, 0.9)
        unit = extract_zz(ent)
        assert unit.gamma == pytest.approx(np.pi - 1.8, abs=1e-12)
        assert [len(chain) // 2 for chain in unit.chains] == [3, 3, 2]
        check_resource(unit, ent)

    def test_boundary_kept(self):
        # B doubles c2 = pi/4 to pi/2, conjugated from YY onto ZZ; no fold.
        unit = extract_zz(B_GATE)
        assert unit.gamma == pytest.approx(np.pi / 2, abs=1e-12)
        assert [len(chain) // 2 for chain in unit.chains] == [3, 3, 2]
        check_resource(unit, B_GATE)

    def test_below_half_pi_unchanged(self):
        # Doubling c3 = 0.3 gives 0.6: no conjugation and no fold.
        ent = interaction(1.0, 0.8, 0.3)
        unit = extract_zz(ent)
        assert unit.gamma == pytest.approx(0.6, abs=1e-12)
        assert [len(chain) // 2 for chain in unit.chains] == [2, 3, 1]
        check_resource(unit, ent)


class TestAmplify:
    @pytest.mark.parametrize("gamma,n", [
        (np.pi / 3, 1), (np.pi / 5, 2), (np.pi / 10, 3), (np.pi / 2, 1), (np.pi / 4, 1),
    ])
    def test_repetition_counts(self, gamma, n):
        template = amplify(flanked_zz_unit(gamma), zz_interaction(gamma))
        assert template.n == n
        assert len(template.powers) == (n - 1).bit_length()
        for m in range(1, n + 1):
            run, out = run_resource(template, m), repeated(template, m)
            assert out.gamma == pytest.approx(m * gamma)
            assert out.circuit.entangler_count == m
            got = evaluate(out.circuit, zz_interaction(gamma))
            np.testing.assert_allclose(got, zz_interaction(m * gamma), atol=1e-13)
            # The run's product stands for its expanded elements.
            np.testing.assert_allclose(evaluate(run.circuit, zz_interaction(gamma)), got,
                                       atol=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=np.pi / 2))
    def test_minimality_and_range(self, gamma):
        template = amplify(flanked_zz_unit(gamma), zz_interaction(gamma))
        out = run_resource(template, template.n)
        assert np.pi / 4 <= out.gamma <= np.pi / 2 + 1e-12
        assert (template.n - 1) * gamma < np.pi / 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            amplify(flanked_zz_unit(2.0), zz_interaction(2.0))


class TestBlockRepetitions:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=np.pi / 2),
           st.floats(min_value=1e-4, max_value=np.pi / 2))
    def test_fewest_units_within_n(self, h, gamma):
        n = repetitions(gamma)
        m = block_repetitions(h, gamma, n)
        assert 1 <= m <= n
        assert h <= 2 * (m * gamma) + ROUNDOFF
        assert m == 1 or h > 2 * ((m - 1) * gamma) + ROUNDOFF

    def test_roundoff_slack_at_twice_gamma(self):
        gamma = np.pi / 18
        assert block_repetitions(0.0, gamma, 5) == 1
        assert block_repetitions(2 * gamma + ROUNDOFF / 2, gamma, 5) == 1
        assert block_repetitions(2 * gamma + 1e-9, gamma, 5) == 2
        assert block_repetitions(np.pi / 2, gamma, 5) == 5

    def test_weakest_unit_at_the_cap(self):
        gamma = np.pi / 4 / 16666
        n = repetitions(gamma)
        assert block_repetitions(np.pi / 2, gamma, n) == n == 16666
        assert block_repetitions(np.pi / 4, gamma, n) == 8333


class TestResourceCap:
    def test_refuses_above_cap(self):
        with pytest.raises(ValueError, match="117810.*100000"):
            prepare_resource(zz_interaction(4e-5))

    def test_accepts_bound_at_cap(self):
        # ZZ(pi/4/16666) needs n = 16666, bound 99996 <= MAX_APPLICATIONS;
        # the template holds O(log n) matrices, never the 16666-fold circuit.
        gamma = np.pi / 4 / 16666 * (1 + 1e-9)
        template = prepare_resource(zz_interaction(gamma))
        assert template.n == repetitions(template.gamma) == 16666
        assert uniform_bound(template.n, template.apps_per_unit) == 99996 <= MAX_APPLICATIONS
        assert len(template.powers) == (template.n - 1).bit_length()


def test_full_pipeline_over_case_corpus(rng):
    triples = [(np.pi / 2, 0, 0), (np.pi / 2, np.pi / 2, 0), (np.pi / 3, np.pi / 4, 0),
               (np.pi / 2, np.pi / 4, 0), (np.pi / 3, np.pi / 4, np.pi / 6),
               (np.pi / 7, 0, 0), (1.2, 0.5, 0.4), (2.6, 0.13, 5e-11)]
    for triple in triples:
        ent = dress(interaction(*triple), rng)
        template = prepare_resource(ent)
        r = repeated(template, template.n)
        assert np.pi / 4 - 1e-12 <= r.gamma <= np.pi / 2 + 1e-12
        got = evaluate(r.circuit, ent)
        assert phase_distance(got, zz_interaction(r.gamma)) < 1e-9
        assert r.circuit.entangler_count == template.n * r.apps_per_unit <= 2 * template.n
