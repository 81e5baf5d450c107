import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import kak
from gatesynth.cli import EXIT_VERIFY, main
from gatesynth.compiler import synthesize
from gatesynth.gates import B_GATE, CNOT, CZ, SQRT_SWAP, SWAP, cphase
from gatesynth.kak import (CanonicalVector, GateClass, canonicalize, classify,
                           kak_decompose, snap_angle)
from gatesynth.matcore import (ID2, ROUNDOFF, SIGMA_X, SIGMA_Y, SIGMA_Z, ToleranceConfig,
                               interaction, phase_distance, tensor, unitarity_error)

from conftest import dress, haar_unitary, matrix_json, random_local, reconstruct

angles = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


class TestKakDecompose:
    def test_cnot_landmark(self):
        c = kak_decompose(CNOT).c
        np.testing.assert_allclose(c, (np.pi / 2, 0, 0), atol=1e-10)

    def test_swap_landmark(self):
        c = kak_decompose(SWAP).c
        np.testing.assert_allclose(c, (np.pi / 2,) * 3, atol=1e-10)

    def test_identity(self):
        d = kak_decompose(np.eye(4, dtype=complex))
        assert d.c == (0.0, 0.0, 0.0)
        np.testing.assert_allclose(tensor(*d.k1), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(tensor(*d.k2), np.eye(4), atol=1e-12)
        assert d.phase == pytest.approx(1.0, abs=1e-12)

    def test_haar_roundtrip(self, rng):
        for _ in range(100):
            u = haar_unitary(rng)
            d = kak_decompose(u)
            assert phase_distance(reconstruct(d), u) < 1e-9
            c1, c2, c3 = (snap_angle(x) for x in d.c)
            assert np.pi - c2 >= c1 >= c2 >= c3 >= 0

    def test_interaction_gates_roundtrip(self, rng):
        # gates that are already pure interactions, including chamber edges
        for triple in [(0.1, 0.1, 0.1), (np.pi / 2, 0.3, 0.0), (3.0, 0.1, 0.05),
                       (np.pi / 2, np.pi / 2, 0.0), (2.2, 0.9, 0.9)]:
            u = interaction(*triple)
            d = kak_decompose(u)
            assert np.abs(reconstruct(d) - u).max() < 1e-10

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
        assert d1.c == d2.c
        np.testing.assert_array_equal(d1.k1, d2.k1)
        assert d1.phase == d2.phase


class TestCanonicalize:
    def test_zero_identity_corrections(self):
        vec, pre, post, phase = canonicalize((0.0, 0.0, 0.0))
        assert vec == (0.0, 0.0, 0.0)
        assert phase == 1.0
        np.testing.assert_allclose(tensor(*pre), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(tensor(*post), np.eye(4), atol=1e-15)

    def test_already_canonical(self):
        vec, _, _, _ = canonicalize((np.pi / 2, 0.0, 0.0))
        assert vec == (np.pi / 2, 0.0, 0.0)

    def test_out_of_chamber_reflection(self):
        raw = (3 * np.pi / 4, np.pi / 2, np.pi / 4)
        vec, pre, post, phase = canonicalize(raw)
        c1, c2, c3 = vec
        assert np.pi - c2 + 1e-12 >= c1 >= c2 >= c3 >= 0
        recon = phase * tensor(*pre) @ interaction(*vec) @ tensor(*post)
        np.testing.assert_allclose(recon, interaction(*raw), atol=1e-12)

    def test_base_plane_prefers_smaller_c1(self):
        vec, _, _, _ = canonicalize((2 * np.pi / 3, 0.0, 0.0))
        assert vec.c1 == pytest.approx(np.pi / 3, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, angles)
    def test_reconstruction_property(self, a, b, c):
        vec, pre, post, phase = canonicalize((a, b, c))
        recon = phase * tensor(*pre) @ interaction(*vec) @ tensor(*post)
        assert np.abs(recon - interaction(a, b, c)).max() < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, angles)
    def test_idempotent(self, a, b, c):
        vec, _, _, _ = canonicalize((a, b, c))
        again, pre, post, phase = canonicalize(vec)
        assert again == vec
        assert phase == 1.0
        np.testing.assert_allclose(tensor(*pre), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(tensor(*post), np.eye(4), atol=1e-15)


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
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    return np.einsum("nij,nkl->nikjl", a, b).reshape(len(pairs), 4, 4)


def _check_against_reference(raw: np.ndarray) -> None:
    results = [canonicalize(tuple(t)) for t in raw]
    got = np.array([vec for vec, _, _, _ in results])
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
        again, pre, post, ph = canonicalize(vec)
        assert again == vec
        assert ph == 1.0
        for m in (*pre, *post):
            assert np.array_equal(m, np.eye(2))


def _sweep_triples() -> np.ndarray:
    return np.random.default_rng(2002).uniform(-8.0, 8.0, size=(20_000, 3))


def _perturbed_landmarks(eps: float) -> np.ndarray:
    rng = np.random.default_rng(int(-np.log10(eps)))
    noise = rng.choice([-1.0, 1.0], size=_LANDMARK_TRIPLES.shape)
    noise *= rng.uniform(0.5, 2.0, size=_LANDMARK_TRIPLES.shape)
    return _LANDMARK_TRIPLES + eps * noise


_PERTURBATIONS = [1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9]


def _shift_boundary_triples() -> list:
    """Triples with a coordinate within a few ulps of j*pi - 1e-12, where
    x + m*pi can round across the shift window's lower edge."""
    triples = []
    for j in range(-3, 4):
        edge = j * np.pi - _TIE
        for x in edge + np.arange(-32, 33) * np.spacing(abs(edge)):
            triples += [(x, 0.3, 0.2), (x, 0.0, 0.0), (1.0, 0.5, x)]
    return triples


class TestCanonicalizeAgainstOrbitSearch:
    """Closed-form reduction versus a brute-force search of the local orbit."""

    def test_random_triples(self):
        for chunk in np.array_split(_sweep_triples(), 10):
            _check_against_reference(chunk)

    def test_landmark_triples(self):
        _check_against_reference(_LANDMARK_TRIPLES)

    @pytest.mark.parametrize("eps", _PERTURBATIONS)
    def test_perturbed_landmarks(self, eps):
        _check_against_reference(_perturbed_landmarks(eps))

    def test_shift_boundary_roundoff(self):
        # The result must still be a fixed point, not shifted by pi again
        # on the second pass.
        for raw in _shift_boundary_triples():
            vec, _, _, _ = canonicalize(raw)
            again, _, _, phase = canonicalize(vec)
            assert again == vec and phase == 1.0, raw


class MoveTrackerLoop:
    """Reference move tracker: one 2x2 matmul per move and local factor.

    Maintains A(raw) = phase * (pre_a (x) pre_b) @ A(c) @ (post_a (x) post_b)
    exactly through every move, and records the moves in the form
    kak._move_locals takes: a shift by m = 0 is no move.
    """

    def __init__(self, raw):
        self.c = list(raw)
        self.pre_a = np.eye(2, dtype=complex)
        self.pre_b = np.eye(2, dtype=complex)
        self.post_a = np.eye(2, dtype=complex)
        self.post_b = np.eye(2, dtype=complex)
        self.phase = 1.0 + 0j
        self.moves = []

    def swap(self, i, j):
        self.moves.append(("swap", i, j))
        h = kak._AXIS_SWAP[(i, j)]
        self.pre_a = self.pre_a @ h
        self.pre_b = self.pre_b @ h
        self.post_a = h @ self.post_a
        self.post_b = h @ self.post_b
        self.c[i], self.c[j] = self.c[j], self.c[i]

    def negate_pair(self, i, j):
        self.moves.append(("negate", i, j))
        s = kak._PAIR_NEGATE[(i, j)]
        self.pre_a = self.pre_a @ s
        self.post_a = s @ self.post_a
        self.c[i] = -self.c[i]
        self.c[j] = -self.c[j]

    def shift(self, k, m):
        if m == 0:
            return
        self.moves.append(("shift", k, m % 4))
        self.phase *= kak._SHIFT_PHASE[m % 4]
        if m % 2:
            s = (SIGMA_X, SIGMA_Y, SIGMA_Z)[k]
            self.post_a = s @ self.post_a
            self.post_b = s @ self.post_b
        self.c[k] = self.c[k] + m * np.pi

    def sort_descending(self):
        for i, j in ((0, 1), (1, 2), (0, 1)):
            if self.c[i] < self.c[j]:
                self.swap(i, j)


def canonicalize_loop(raw):
    """Reference canonicalize: the same reduction, replaying every move as matmuls."""
    t = MoveTrackerLoop(tuple(float(x) for x in raw))
    for k in range(3):
        m = -int(np.floor((t.c[k] + ROUNDOFF) / np.pi))
        if t.c[k] + m * np.pi < -ROUNDOFF:
            m += 1
        elif t.c[k] + m * np.pi >= np.pi - ROUNDOFF:
            m -= 1
        t.shift(k, m)
    t.sort_descending()
    if t.c[0] + t.c[1] > np.pi + ROUNDOFF:
        t.negate_pair(0, 1)
        t.shift(0, 1)
        t.shift(1, 1)
        t.swap(0, 1)
        t.sort_descending()
    if abs(t.c[2]) <= ROUNDOFF and t.c[0] > np.pi / 2 + ROUNDOFF:
        t.negate_pair(0, 2)
        t.shift(0, 1)
        t.sort_descending()
    return (tuple(x + 0.0 for x in t.c), (t.pre_a, t.pre_b, t.post_a, t.post_b), t.phase,
            tuple(t.moves))


# Signed zeros, pi-shift edges, and exact ties of the reflection
# (c1 + c2 = pi) and the base fold (c1 = pi/2), the fold also one ulp off.
_TIE_VALUES = (-0.0, 0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, np.pi / 4, 3 * np.pi / 4,
               np.nextafter(np.pi / 2, 0.0), np.nextafter(np.pi / 2, np.pi), 1e-12, -1e-12,
               np.pi - 1e-12)


def _assert_matches_loop(raws) -> None:
    """canonicalize against the reference, bit for bit, and the memo key it
    passes against the reference's exact move sequence."""
    keys = []
    memo = kak._move_locals
    with mock.patch.object(kak, "_move_locals", lambda moves: keys.append(moves) or memo(moves)):
        for raw in raws:
            raw = tuple(float(x) for x in raw)
            vec, pre, post, phase = canonicalize(raw)
            want_vec, want_locals, want_phase, want_moves = canonicalize_loop(raw)
            assert keys.pop() == want_moves, raw
            assert np.array(vec).tobytes() == np.array(want_vec).tobytes(), raw
            assert np.complex128(phase).tobytes() == np.complex128(want_phase).tobytes(), raw
            for got, want in zip((*pre, *post), want_locals, strict=True):
                assert got.tobytes() == want.tobytes(), raw


class TestCanonicalizeMemoBitIdentical:
    """Memoized move locals versus replaying each move as 2x2 matmuls."""

    def test_random_triples(self):
        kak._move_locals.cache_clear()
        _assert_matches_loop(_sweep_triples())
        # The Weyl group is finite: the sweep's sequences keep the memo small.
        assert kak._move_locals.cache_info().currsize <= 2048

    def test_landmark_triples(self):
        _assert_matches_loop(_LANDMARK_TRIPLES)

    @pytest.mark.parametrize("eps", _PERTURBATIONS)
    def test_perturbed_landmarks(self, eps):
        _assert_matches_loop(_perturbed_landmarks(eps))

    def test_shift_boundary_triples(self):
        _assert_matches_loop(_shift_boundary_triples())

    def test_signed_zeros_and_exact_ties(self):
        triples = list(itertools.product(_TIE_VALUES, repeat=3))
        assert len(triples) == 2197
        _assert_matches_loop(triples)


class TestMoveMemoIsolation:
    """Results share no writable array with the memo."""

    def test_writing_into_canonicalize_results(self):
        raw = (2.5, -1.0, 4.0)
        vec, pre, post, phase = canonicalize(raw)
        kept = [m.copy() for m in (*pre, *post)]
        assert not np.array_equal(kept[0], np.eye(2))
        for m in (pre, post, *pre, *post):  # views of the read-only memo entry
            with pytest.raises(ValueError, match="read-only"):
                m[...] = 0
        again, pre, post, again_phase = canonicalize(raw)
        assert (again, again_phase) == (vec, phase)
        for got, want in zip((*pre, *post), kept, strict=True):
            assert np.array_equal(got, want)

    def test_writing_into_kak_factors(self, rng):
        u = haar_unitary(rng)
        first = kak_decompose(u)
        kept = [m.copy() for m in (*first.k1, *first.k2)]
        for m in (first.k1, first.k2):  # fresh arrays, so the writes land
            m[...] = 0
        second = kak_decompose(u)
        assert (second.c, second.phase) == (first.c, first.phase)
        for got, want in zip((*second.k1, *second.k2), kept, strict=True):
            assert np.array_equal(got, want)


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


def locally_equivalent(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether two gates share a canonical vector within snap_tol."""
    cu = kak_decompose(u).c
    cv = kak_decompose(v).c
    return all(abs(a - b) <= ToleranceConfig.snap_tol for a, b in zip(cu, cv))


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


def factor_local_loop(o: np.ndarray, atol: float):
    """Reference _factor_locals: the double-cover split of one real matrix."""
    pq = (o.reshape(1, 16) @ kak._QUAT).reshape(4, 4)
    norms = (pq * pq).sum(axis=0)
    col = int(norms.argmax())
    p = pq[:, col] / np.sqrt(norms[col])
    gq = p @ pq
    residual = pq - p[:, None] * gq
    if not 2 * np.sqrt((residual * residual).sum()) < atol:
        raise ArithmeticError("matrix is not a tensor product of single-qubit gates")
    g = np.sqrt((gq * gq).sum())
    a, b = np.array([p, gq / g]) @ kak._UNITS
    return float(g), a.reshape(2, 2), b.reshape(2, 2)


def magic_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The real SO(4) matrix MAGIC^dag (a (x) b) MAGIC of an SU(2) pair."""
    o = kak.MAGIC_DAG @ tensor(a, b) @ kak.MAGIC
    assert np.abs(o.imag).max() < 1e-15
    return o.real.copy()


def seeded_so4(rng: np.random.Generator, count: int) -> np.ndarray:
    """count real orthogonal 4x4 matrices of determinant +1."""
    q = np.linalg.qr(rng.normal(size=(count, 4, 4)))[0]
    q[np.linalg.det(q) < 0, :, 0] *= -1
    return q


def diagonalize_fresh_rng(m2: np.ndarray, atol: float):
    """Reference _simultaneous_diagonalize: a fresh seeded generator per call."""
    rng = np.random.default_rng(kak._DIAG_SEED)
    re, im = m2.real.copy(), m2.imag.copy()
    re = (re + re.T) / 2
    im = (im + im.T) / 2
    for _ in range(32):
        wr, wi = rng.normal(size=2)
        _, p = np.linalg.eigh(wr * re + wi * im)
        d = p.T @ m2 @ p
        if np.linalg.norm(d - np.diag(np.diag(d))) < atol:
            break
    else:
        raise ArithmeticError("failed to diagonalize the magic-basis symmetric product")
    theta = np.angle(np.diag(d))
    order = np.argsort(theta)
    return p[:, order], theta[order]


ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
KAK_LANDMARKS = (np.eye(4, dtype=complex), CNOT, CZ, SWAP, SQRT_SWAP, B_GATE, ISWAP,
                 cphase(np.pi / 9), tensor(HADAMARD, SIGMA_X), interaction(np.pi / 4, 0, 0))


def su2(rng: np.random.Generator) -> np.ndarray:
    q = haar_unitary(rng, 2)
    return q / np.sqrt(np.linalg.det(q))


SU2_UNITS = (ID2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z)


def assert_split_matches_loop(os: np.ndarray, atol: float = 1e-8) -> None:
    """The stacked split equals the reference loop on every row, bit for bit."""
    gs, f = kak._factor_locals(os, atol)
    assert len(gs) == len(f) == len(os)
    for o, g, (a, b) in zip(os, gs, f, strict=True):
        want = factor_local_loop(o, atol)
        assert want[0] == g
        assert want[1].tobytes() == a.tobytes() and want[2].tobytes() == b.tobytes()


class TestKakHelpersBitIdentical:
    """The stacked KAK helpers equal their one-matrix references bit for bit."""

    def test_seeded_haar_and_dressed_landmarks(self, monkeypatch, rng):
        targets = [haar_unitary(rng) for _ in range(100)]
        targets += list(KAK_LANDMARKS) + [dress(u, rng) for u in KAK_LANDMARKS for _ in range(3)]
        recorded = {"_factor_locals": [], "_simultaneous_diagonalize": []}
        with monkeypatch.context() as patch:
            for name, inputs in recorded.items():
                def spy(m, atol, real=getattr(kak, name), inputs=inputs):
                    inputs.append((m.copy(), atol))
                    return real(m, atol)
                patch.setattr(kak, name, spy)
            for u in targets:
                kak_decompose(u)
        assert len(recorded["_factor_locals"]) == len(targets)
        ties = 0
        for os, atol in recorded["_factor_locals"]:
            assert os.shape == (2, 4, 4) and os.dtype == float
            assert_split_matches_loop(os, atol)
            for o in os:
                norms = ((o.reshape(16) @ kak._QUAT).reshape(4, 4) ** 2).sum(axis=0)
                ties += np.count_nonzero(norms == norms.max()) > 1
        assert ties > 0  # undressed landmarks tie for the largest column
        for m2s, atol in recorded["_simultaneous_diagonalize"]:
            assert m2s.shape == (1, 4, 4)
            got = kak._simultaneous_diagonalize(m2s, atol)
            for m2, p, theta in zip(m2s, *got, strict=True):
                want = diagonalize_fresh_rng(m2, atol)
                assert np.array_equal(want[0], p) and np.array_equal(want[1], theta)

    def test_exact_tensor_products_with_ties(self):
        # iH = (iX + iZ) / sqrt(2): two of its quaternion coordinates are equal,
        # so two columns tie for the largest and the first is taken.
        ih = 1j * HADAMARD
        os = np.array([magic_real(a, b) for a, b in (
            (ih, ih), (1j * SIGMA_X, 1j * SIGMA_Y), (ih, 1j * SIGMA_Z), (ID2, 1j * SIGMA_Y))])
        # One call per matrix, and all of them in one stack: stacking mixes nothing.
        for o in os:
            assert_split_matches_loop(o[None])
        assert_split_matches_loop(os)

    def test_every_pivot_position(self, rng):
        # b's largest quaternion coordinate at l puts o's largest column at l,
        # so each of the four columns is taken once.
        def peaked(l):
            q = np.array([0.3, -0.2, 0.25, 0.1])
            q[l] = -0.9
            return sum(x * u for x, u in zip(q / np.linalg.norm(q), SU2_UNITS))
        os = np.array([magic_real(su2(rng), peaked(l)) for l in range(4)])
        pqs = (os.reshape(4, 16) @ kak._QUAT).reshape(4, 4, 4)
        assert (pqs ** 2).sum(axis=1).argmax(axis=1).tolist() == [0, 1, 2, 3]
        for o in os:
            assert_split_matches_loop(o[None])
        assert_split_matches_loop(os)

    @pytest.mark.parametrize("count", [1, 2, 37])
    def test_stacks_match_the_loop(self, rng, count):
        assert_split_matches_loop(seeded_so4(rng, count))

    def test_quat_is_exact(self):
        assert set(kak._QUAT.ravel().tolist()) == {0.0, 0.25, -0.25}
        assert np.array_equal(kak._QUAT.T @ kak._QUAT, np.eye(16) / 4)

    def test_split_is_the_double_cover(self, rng):
        os = seeded_so4(rng, 200)
        gs, f = kak._factor_locals(os, 1e-8)
        for o, g, (a, b) in zip(os, gs, f, strict=True):
            assert g > 0
            np.testing.assert_allclose(kak.MAGIC @ o @ kak.MAGIC_DAG, g * tensor(a, b),
                                       rtol=0, atol=1e-14)
            assert abs(np.linalg.det(a) - 1) < 1e-14 and abs(np.linalg.det(b) - 1) < 1e-14

    def test_rejects_a_stack_with_one_non_product(self, rng):
        good = magic_real(su2(rng), su2(rng))
        reflection = np.diag([1.0, 1.0, 1.0, -1.0]) @ good
        for bad in (reflection, rng.normal(size=(4, 4)), np.zeros((4, 4))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ArithmeticError, match="not a tensor product"):
                    kak._factor_locals(np.array([good, bad]), 1e-8)

    def test_draws_match_per_call_generator(self):
        rng = np.random.default_rng(kak._DIAG_SEED)
        draws = [kak._FIRST_DRAW, *kak._later_draws()]
        assert np.array_equal(draws, [rng.normal(size=2) for _ in range(32)])
        # The written-out first draw and the lazily drawn rest are byte for
        # byte the seeded (32, 2) draw.
        seeded = np.random.default_rng(kak._DIAG_SEED).normal(size=(32, 2))
        assert np.array(kak._FIRST_DRAW).tobytes() == seeded[0].tobytes()
        assert kak._later_draws().dtype == seeded.dtype
        assert kak._later_draws().tobytes() == seeded[1:].tobytes()

    def test_import_loads_no_numpy_random(self):
        # Beyond what importing numpy itself loads.
        code = ("import sys, numpy; before = set(sys.modules); import gatesynth; "
                "print(sorted(m for m in set(sys.modules) - before "
                "if m.startswith('numpy.random')))")
        env = {**os.environ, "PYTHONPATH": str(Path(kak.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.strip() == "[]"


def _assert_same_decomposition(got, want) -> None:
    for x, y in zip((*got.k1, *got.k2), (*want.k1, *want.k2), strict=True):
        assert x.tobytes() == y.tobytes()
    assert got.c == want.c
    assert np.complex128(got.phase).tobytes() == np.complex128(want.phase).tobytes()
    assert got.unitarity_error == want.unitarity_error


def needs_redraw(rng: np.random.Generator) -> np.ndarray:
    """A unitary whose first draw (_FIRST_DRAW) leaves M2 undiagonalized: two
    of M2's eigenphases sit symmetrically about that draw's direction, so the
    real combination has a degenerate eigenvalue that M2 does not."""
    wr, wi = kak._FIRST_DRAW
    phi = np.arctan2(wi, wr)
    theta = np.array([phi + 0.4, phi - 0.4, 0.7, -2 * phi - 0.7])  # det(M2) = 1
    o1, o2 = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
    return kak.MAGIC @ o1 @ np.diag(np.exp(0.5j * theta)) @ o2 @ kak.MAGIC_DAG


class TestStackedKak:
    """Every stage runs once on a stack; row i equals the call on row i alone."""

    def test_rows_match_single_calls(self, rng):
        ms = [haar_unitary(rng) for _ in range(40)] + list(KAK_LANDMARKS)
        ms += [dress(u, rng) for u in KAK_LANDMARKS for _ in range(2)]
        singles = [kak_decompose(m) for m in ms]
        stacked = kak_decompose(np.array(ms))
        assert isinstance(stacked, list) and len(stacked) == len(ms)
        for got, want in zip(stacked, singles, strict=True):
            _assert_same_decomposition(got, want)
        # Pairs, as synthesize stacks a target with a new entangler, and stacks of one.
        for k in range(0, len(ms) - 1, 2):
            for got, want in zip(kak_decompose(np.array(ms[k:k + 2])), singles[k:k + 2]):
                _assert_same_decomposition(got, want)
        for m, want in zip(ms, singles):
            (got,) = kak_decompose(m[None])
            _assert_same_decomposition(got, want)

    def test_only_the_failing_row_is_redrawn(self, monkeypatch, rng):
        hard = needs_redraw(rng)
        ms = np.array([haar_unitary(rng), hard, CNOT, haar_unitary(rng)])
        singles = [kak_decompose(m) for m in ms]
        redrawn, real = [], kak._redraw

        def spy(m2, re, im, p, d, todo, atol):
            redrawn.append(todo.tolist())
            return real(m2, re, im, p, d, todo, atol)

        monkeypatch.setattr(kak, "_redraw", spy)
        stacked = kak_decompose(ms)
        assert redrawn == [[1]]
        for got, want in zip(stacked, singles, strict=True):
            _assert_same_decomposition(got, want)
        assert phase_distance(reconstruct(stacked[1]), hard) < 1e-9

    def test_a_bad_row_is_named(self, rng):
        good = haar_unitary(rng)
        with pytest.raises(ValueError, match="^input row 1 is not unitary"):
            kak_decompose(np.array([good, np.ones((4, 4)), good]))
        with pytest.raises(ValueError, match="^input row 2 has non-finite"):
            kak_decompose(np.array([good, good, np.full((4, 4), np.nan)]))
        with pytest.raises(ValueError, match="^second is not unitary"):
            kak_decompose(np.array([good, 2 * good]), names=("first", "second"))
        with pytest.raises(ValueError, match="^input is not unitary"):
            kak_decompose(2 * good)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refuses_entries_too_large_to_square(self, rng):
        big = np.full((4, 4), 1e200)
        with pytest.raises(ValueError, match="^input is not unitary"):
            kak_decompose(big)
        with pytest.raises(ValueError, match="^input row 1 is not unitary"):
            kak_decompose(np.array([haar_unitary(rng), big]))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 2, 4, 4), (3, 4, 3), (4,)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="expected a 4x4 matrix"):
            kak_decompose(np.ones(shape))

    def test_records_each_rows_unitarity_error(self, rng):
        u = haar_unitary(rng)
        rough = np.round(u, 11)
        decs = kak_decompose(np.array([u, rough]))
        assert [d.unitarity_error for d in decs] == unitarity_error(np.array([u, rough])).tolist()
        assert decs[1].unitarity_error > decs[0].unitarity_error


def test_snap_angle():
    assert snap_angle(1e-10) == 0.0
    assert snap_angle(np.pi / 2 + 1e-10) == np.pi / 2
    assert snap_angle(np.pi / 4 - 1e-10) == np.pi / 4
    assert snap_angle(0.3) == 0.3


class TestKakChecksRaise:
    """A stage whose output misses its check raises ArithmeticError naming the
    check, and synth turns it into exit 3 with one `verification failure:` line."""

    @staticmethod
    def unreal_local_factor(monkeypatch):
        real = kak._simultaneous_diagonalize

        def shifted(m2, atol):  # every eigenphase off by 0.3: q1 picks up exp(-0.15i)
            p, phases = real(m2, atol)
            return p, phases + 0.3

        monkeypatch.setattr(kak, "_simultaneous_diagonalize", shifted)
        return "local factor failed to come out real in the magic basis"

    @staticmethod
    def wrong_reconstruction(monkeypatch):
        real = kak.canonicalize

        def negated(raw):  # the chamber moves' phase negated: the product is -u
            vec, pre, post, phase = real(raw)
            return vec, pre, post, -phase

        monkeypatch.setattr(kak, "canonicalize", negated)
        return "KAK reconstruction failed verification"

    @pytest.mark.parametrize("corrupt", ["unreal_local_factor", "wrong_reconstruction"])
    def test_corrupted_stage_raises(self, monkeypatch, capsys, rng, corrupt):
        message = getattr(self, corrupt)(monkeypatch)
        for u in (haar_unitary(rng), np.array([haar_unitary(rng), CNOT])):
            with pytest.raises(ArithmeticError, match=f"^{message}$"):
                kak_decompose(u)
        code = main(["synth", "--target", "SQRT_SWAP", "--entangler", "CNOT"])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_VERIFY, "")
        assert err.splitlines() == [f"verification failure: {message}"]

    def test_result_outside_chamber_raises(self, monkeypatch, capsys, tmp_path):
        # With the sort undone, the raw triple (-0.9, 0.5, -0.2) of this target
        # shifts to (pi - 0.9, 0.5, pi - 0.2) and stays there, outside the chamber:
        # a canonicalize bug, an internal failure rather than invalid input.
        monkeypatch.setattr(kak, "_sort_descending", lambda c, moves: None)
        target = interaction(0.9, 0.5, 0.2)
        for call in (lambda: kak_decompose(target), lambda: synthesize(target, CNOT)):
            with pytest.raises(ArithmeticError, match="is outside the chamber$"):
                call()
        path = tmp_path / "target.json"
        path.write_text(matrix_json(target))
        code = main(["synth", "--target", f"MATRIX({path})", "--entangler", "CNOT"])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_VERIFY, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("verification failure: ") and err.endswith("is outside the chamber\n")
