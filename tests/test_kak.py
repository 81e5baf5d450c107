import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.gates import CNOT, CZ, SWAP
from gatesynth.kak import (CanonicalVector, GateClass, canonicalize, classify,
                           kak_decompose, snap_angle)
from gatesynth.matcore import (DEFAULT_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z,
                               interaction, phase_distance, tensor)

from conftest import dress, haar_unitary, random_local

angles = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


class TestKakDecompose:
    def test_cnot_landmark(self):
        c = kak_decompose(CNOT).c
        np.testing.assert_allclose(c.as_tuple(), (np.pi / 2, 0, 0), atol=1e-10)

    def test_swap_landmark(self):
        c = kak_decompose(SWAP).c
        np.testing.assert_allclose(c.as_tuple(), (np.pi / 2,) * 3, atol=1e-10)

    def test_identity(self):
        d = kak_decompose(np.eye(4, dtype=complex))
        assert d.c.as_tuple() == (0.0, 0.0, 0.0)
        np.testing.assert_allclose(d.k1.matrix(), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(d.k2.matrix(), np.eye(4), atol=1e-12)
        assert d.phase == pytest.approx(1.0, abs=1e-12)

    def test_haar_roundtrip(self, rng):
        for _ in range(100):
            u = haar_unitary(rng)
            d = kak_decompose(u)
            assert phase_distance(d.reconstruct(), u) < 1e-9
            c1, c2, c3 = (snap_angle(x) for x in d.c.as_tuple())
            assert np.pi - c2 >= c1 >= c2 >= c3 >= 0

    def test_interaction_gates_roundtrip(self, rng):
        # gates that are already pure interactions, including chamber edges
        for triple in [(0.1, 0.1, 0.1), (np.pi / 2, 0.3, 0.0), (3.0, 0.1, 0.05),
                       (np.pi / 2, np.pi / 2, 0.0), (2.2, 0.9, 0.9)]:
            u = interaction(*triple)
            d = kak_decompose(u)
            assert np.abs(d.reconstruct() - u).max() < 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            kak_decompose(np.ones((4, 4), dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            kak_decompose(np.eye(2, dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            kak_decompose(np.full((4, 4), np.nan))

    def test_local_gates_classify_local(self, rng):
        for _ in range(20):
            d = kak_decompose(random_local(rng))
            assert classify(d.c) is GateClass.LOCAL

    def test_deterministic(self, rng):
        u = haar_unitary(rng)
        d1, d2 = kak_decompose(u), kak_decompose(u)
        assert d1.c.as_tuple() == d2.c.as_tuple()
        np.testing.assert_array_equal(d1.k1.a, d2.k1.a)
        assert d1.phase == d2.phase


class TestCanonicalize:
    def test_zero_identity_corrections(self):
        vec, pre, post, phase = canonicalize((0.0, 0.0, 0.0))
        assert vec.as_tuple() == (0.0, 0.0, 0.0)
        assert phase == 1.0
        np.testing.assert_allclose(pre.matrix(), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(post.matrix(), np.eye(4), atol=1e-15)

    def test_already_canonical(self):
        vec, _, _, _ = canonicalize((np.pi / 2, 0.0, 0.0))
        assert vec.as_tuple() == (np.pi / 2, 0.0, 0.0)

    def test_out_of_chamber_reflection(self):
        raw = (3 * np.pi / 4, np.pi / 2, np.pi / 4)
        vec, pre, post, phase = canonicalize(raw)
        c1, c2, c3 = vec.as_tuple()
        assert np.pi - c2 + 1e-12 >= c1 >= c2 >= c3 >= 0
        recon = phase * pre.matrix() @ interaction(*vec.as_tuple()) @ post.matrix()
        np.testing.assert_allclose(recon, interaction(*raw), atol=1e-12)

    def test_base_plane_prefers_smaller_c1(self):
        vec, _, _, _ = canonicalize((2 * np.pi / 3, 0.0, 0.0))
        assert vec.c1 == pytest.approx(np.pi / 3, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, angles)
    def test_reconstruction_property(self, a, b, c):
        vec, pre, post, phase = canonicalize((a, b, c))
        recon = phase * pre.matrix() @ interaction(*vec.as_tuple()) @ post.matrix()
        assert np.abs(recon - interaction(a, b, c)).max() < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, angles)
    def test_idempotent(self, a, b, c):
        vec, _, _, _ = canonicalize((a, b, c))
        again, pre, post, phase = canonicalize(vec.as_tuple())
        assert again.as_tuple() == vec.as_tuple()
        assert phase == 1.0
        np.testing.assert_allclose(pre.matrix(), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(post.matrix(), np.eye(4), atol=1e-15)


_TIE = 1e-12
_ORBIT_SIGNS = np.array([(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)], dtype=float)
_ORBIT_PERMS = list(itertools.permutations(range(3)))
_LANDMARKS = (0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2, 3 * np.pi / 4,
              np.pi, -np.pi, 2 * np.pi / 3, 5 * np.pi / 4, 0.3)
_LANDMARK_TRIPLES = np.array(list(itertools.product(_LANDMARKS, repeat=3)))


def _reference_chamber_points(raw: np.ndarray) -> np.ndarray:
    """Brute-force chamber representatives of an (N, 3) batch of triples.

    Enumerates the orbit by value only (permutations x even sign flips x
    pi shifts, a residue within _TIE below pi also offering its negative
    twin), keeps the points in the chamber with slack _TIE and returns
    the first one, in enumeration order, within _TIE of the
    lexicographic minimum.
    """
    base = np.stack([raw[:, perm] * signs for perm in _ORBIT_PERMS
                     for signs in _ORBIT_SIGNS], axis=1)            # (N, 24, 3)
    resid = base - np.floor(base / np.pi) * np.pi
    twin = resid - np.pi
    twin_ok = resid > np.pi - _TIE
    picks = list(itertools.product((0, 1), repeat=3))
    cands = np.stack([np.stack([twin[..., k] if p else resid[..., k]
                                for k, p in enumerate(pick)], axis=-1)
                      for pick in picks], axis=2)                  # (N, 24, 8, 3)
    valid = np.stack([np.logical_and.reduce([twin_ok[..., k] | (not p)
                                             for k, p in enumerate(pick)])
                      for pick in picks], axis=2)
    cands = cands.reshape(len(raw), -1, 3)
    valid = valid.reshape(len(raw), -1)
    c1, c2, c3 = cands[..., 0], cands[..., 1], cands[..., 2]
    valid &= ((np.pi - c2 + _TIE >= c1) & (c1 >= c2 - _TIE)
              & (c2 + _TIE >= c3) & (c3 >= -_TIE))
    assert valid.any(axis=1).all()
    best = np.full((len(raw), 3), np.inf)
    keep = valid.copy()
    for k in range(3):
        best[:, k] = np.where(keep, cands[..., k], np.inf).min(axis=1)
        keep &= cands[..., k] == best[:, k:k + 1]
    near = valid & np.all(np.abs(cands - best[:, None, :]) <= _TIE, axis=2)
    return cands[np.arange(len(raw)), near.argmax(axis=1)]


def _batched_interaction(c: np.ndarray) -> np.ndarray:
    """A(c) for an (N, 3) batch, as the product of its three commuting factors."""
    out = np.broadcast_to(np.eye(4, dtype=complex), (len(c), 4, 4))
    for k, s in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
        half = c[:, k, None, None] / 2
        out = out @ (np.cos(half) * np.eye(4) + 1j * np.sin(half) * np.kron(s, s))
    return out


def _batched_pair(pairs) -> np.ndarray:
    a = np.array([p.a for p in pairs])
    b = np.array([p.b for p in pairs])
    return np.einsum("nij,nkl->nikjl", a, b).reshape(len(pairs), 4, 4)


def _check_against_reference(raw: np.ndarray) -> None:
    results = [canonicalize(tuple(t)) for t in raw]
    got = np.array([vec.as_tuple() for vec, _, _, _ in results])
    ref = _reference_chamber_points(raw)
    gap = np.abs(got - ref).max(axis=1)
    assert gap.max() <= 1e-11, raw[gap.argmax()]

    phase = np.array([ph for _, _, _, ph in results])[:, None, None]
    recon = (phase * _batched_pair([pre for _, pre, _, _ in results])
             @ _batched_interaction(got)
             @ _batched_pair([post for _, _, post, _ in results]))
    err = np.abs(recon - _batched_interaction(raw)).max(axis=(1, 2))
    assert err.max() < 1e-10, raw[err.argmax()]

    for vec, _, _, _ in results:
        again, pre, post, ph = canonicalize(vec.as_tuple())
        assert again.as_tuple() == vec.as_tuple()
        assert ph == 1.0
        for m in (pre.a, pre.b, post.a, post.b):
            assert np.array_equal(m, np.eye(2))


class TestCanonicalizeAgainstOrbitSearch:
    """Closed-form reduction versus a brute-force search of the local orbit."""

    def test_random_triples(self):
        raw = np.random.default_rng(2002).uniform(-8.0, 8.0, size=(20_000, 3))
        for chunk in np.array_split(raw, 10):
            _check_against_reference(chunk)

    def test_landmark_triples(self):
        _check_against_reference(_LANDMARK_TRIPLES)

    @pytest.mark.parametrize("eps", [1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
    def test_perturbed_landmarks(self, eps):
        rng = np.random.default_rng(int(-np.log10(eps)))
        noise = rng.choice([-1.0, 1.0], size=_LANDMARK_TRIPLES.shape)
        noise *= rng.uniform(0.5, 2.0, size=_LANDMARK_TRIPLES.shape)
        _check_against_reference(_LANDMARK_TRIPLES + eps * noise)


    def test_shift_boundary_roundoff(self):
        # x + m*pi rounds across the shift window's lower edge for some x
        # within a few ulps of j*pi - 1e-12; the result must still be a
        # fixed point, not shifted by pi again on the second pass.
        for j in range(-3, 4):
            edge = j * np.pi - _TIE
            for x in edge + np.arange(-32, 33) * np.spacing(abs(edge)):
                for raw in [(x, 0.3, 0.2), (x, 0.0, 0.0), (1.0, 0.5, x)]:
                    vec, _, _, _ = canonicalize(raw)
                    again, _, _, phase = canonicalize(vec.as_tuple())
                    assert again.as_tuple() == vec.as_tuple() and phase == 1.0, raw


class TestClassify:
    @pytest.mark.parametrize("triple,expect", [
        ((0.0, 0.0, 0.0), GateClass.LOCAL),
        ((np.pi, 0.0, 0.0), GateClass.LOCAL),
        ((np.pi / 2, np.pi / 2, np.pi / 2), GateClass.SWAP_CLASS),
        ((np.pi / 2, 0.0, 0.0), GateClass.ENTANGLING),
        ((np.pi / 4, np.pi / 4, np.pi / 4), GateClass.ENTANGLING),
    ])
    def test_cases(self, triple, expect):
        assert classify(CanonicalVector(*triple)) is expect

    def test_snapping_near_special_points(self):
        eps = 1e-10
        assert classify(CanonicalVector(eps, eps, 0.0)) is GateClass.LOCAL
        assert classify(CanonicalVector(np.pi / 2 - eps, np.pi / 2 - eps, np.pi / 2 - eps)) \
            is GateClass.SWAP_CLASS

    def test_chamber_validation(self):
        with pytest.raises(ValueError):
            CanonicalVector(0.1, 0.5, 0.0)  # c1 < c2
        with pytest.raises(ValueError):
            CanonicalVector(3.0, 0.5, 0.0)  # c1 > pi - c2


def locally_equivalent(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether two gates share a canonical vector within snap_tol."""
    cu = kak_decompose(u).c.as_tuple()
    cv = kak_decompose(v).c.as_tuple()
    return all(abs(a - b) <= DEFAULT_TOL.snap_tol for a, b in zip(cu, cv))


class TestLocallyEquivalent:
    def test_cnot_cz(self):
        assert locally_equivalent(CNOT, CZ)

    def test_dressing_invariance(self, rng):
        u = haar_unitary(rng)
        assert locally_equivalent(u, dress(u, rng))

    def test_cnot_swap_distinct(self):
        assert not locally_equivalent(CNOT, SWAP)

    def test_equivalence_relation(self, rng):
        base = [haar_unitary(rng) for _ in range(4)]
        corpus = [(u, dress(u, rng), dress(u, rng)) for u in base]
        for u, v, w in corpus:
            assert locally_equivalent(u, u)
            assert locally_equivalent(u, v) == locally_equivalent(v, u)
            assert locally_equivalent(u, v) and locally_equivalent(v, w) \
                and locally_equivalent(u, w)
        for (u, _, _), (v, _, _) in zip(corpus, corpus[1:]):
            assert not locally_equivalent(u, v)


def test_snap_angle():
    assert snap_angle(1e-10) == 0.0
    assert snap_angle(np.pi / 2 + 1e-10) == np.pi / 2
    assert snap_angle(np.pi / 4 - 1e-10) == np.pi / 4
    assert snap_angle(0.3) == 0.3
