import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmichannel import likelihood, metrics


def _phase_aligned_mse_reference(x_hat, h):
    """``phase_aligned_mse`` written out directly: align x_hat to h, then square the norm."""
    x_hat = np.asarray(x_hat).ravel()
    h = np.asarray(h).ravel()
    if x_hat.shape != h.shape:
        raise ValueError("vectors must have equal length")
    inner = np.vdot(h, x_hat)
    phase = np.exp(-1j * np.angle(inner)) if inner != 0 else 1.0
    if not np.iscomplexobj(x_hat) and not np.iscomplexobj(h):
        phase = np.real(phase)
    return float(np.linalg.norm(x_hat * phase - h) ** 2)


def _vector(rng, d, complex_mode):
    v = rng.standard_normal(d)
    return v + 1j * rng.standard_normal(d) if complex_mode else v


class TestDist:
    def test_phase_quotient(self, rng):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        for phi in (0.0, 0.4, 2.7):
            assert metrics.dist(x, np.exp(1j * phi) * x) < 1e-12 * np.linalg.norm(x)

    def test_orthogonal_pair(self):
        assert abs(metrics.dist([1.0, 0.0], [0.0, 1.0]) - math.sqrt(2)) < 1e-14

    def test_grid_search_oracle(self, rng):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phis = 2 * np.pi * np.arange(10_000) / 10_000
        grid = min(np.linalg.norm(x - y * np.exp(1j * p)) for p in phis)
        assert abs(metrics.dist(x, y) - grid) < 1e-6

    def test_real_mode_sign_min(self, rng):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        expected = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
        assert abs(metrics.dist(x, y) - expected) < 1e-12

    def test_triangle_inequality_on_quotient(self, rng):
        for _ in range(50):
            x, y, z = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3))
            assert metrics.dist(x, z) <= metrics.dist(x, y) + metrics.dist(y, z) + 1e-12


class TestPhaseAlignedMse:
    def test_identical(self, rng):
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert metrics.phase_aligned_mse(h, h) < 1e-24

    def test_negated(self, rng):
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert metrics.phase_aligned_mse(-h, h) < 1e-24

    def test_equals_dist_squared(self, rng):
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert abs(metrics.phase_aligned_mse(x, h) - metrics.dist(x, h) ** 2) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        complex_x=st.booleans(),
        complex_h=st.booleans(),
        relation=st.sampled_from(["independent", "zero", "negated", "rotated"]),
    )
    def test_bitwise_equal_to_reference(self, seed, d, complex_x, complex_h, relation):
        rng = np.random.default_rng(seed)
        h = _vector(rng, d, complex_h)
        x = {
            "independent": _vector(rng, d, complex_x),
            "zero": np.zeros(d, dtype=complex if complex_x else float),
            "negated": -h,
            "rotated": h * np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.5, 2.0),
        }[relation]
        assert metrics.phase_aligned_mse(x, h) == _phase_aligned_mse_reference(x, h)

    def test_orthogonal_fallback(self):
        # h^H x = 0: every phase is equally bad
        x = np.array([1.0, 0.0])
        h = np.array([0.0, 2.0])
        assert abs(metrics.phase_aligned_mse(x, h) - 5.0) < 1e-14


class TestBeamPrecision:
    def test_top_singular_vectors_give_one(self, rng):
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        U = np.linalg.svd(H)[0][:, :2]
        assert abs(metrics.beam_precision(U, H) - 1.0) < 1e-10

    def test_orthogonal_estimate_gives_zero(self):
        H = np.zeros((4, 2))
        H[0, 0] = 1.0
        est = np.zeros((4, 1))
        est[3, 0] = 1.0
        assert metrics.beam_precision(est, H) < 1e-14

    def test_rank_one_analytic(self, rng):
        d = 5
        u = np.zeros(d)
        u[0] = 1.0
        H = 2.0 * np.outer(u, [1.0])
        for psi in (0.2, 0.9, 1.4):
            est = np.cos(psi) * u
            est = est.copy()
            est[1] = np.sin(psi)
            assert abs(metrics.beam_precision(est, H) - np.cos(psi) ** 2) < 1e-12

    def test_scale_and_unitary_invariance(self, rng):
        H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        E = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        base = metrics.beam_precision(E, H)
        W = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        assert abs(metrics.beam_precision(E @ W, H) - base) < 1e-10
        assert abs(metrics.beam_precision(3.7 * E[:, :1], H) - metrics.beam_precision(E[:, :1], H)) < 1e-10

    def test_bounded_by_one(self, rng):
        for _ in range(20):
            H = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            E = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            assert metrics.beam_precision(E, H) <= 1 + 1e-10

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            metrics.beam_precision(np.ones((3, 1)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            metrics._channel_svd(np.zeros((3, 2)))

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_hoisted_svd_gives_the_same_bits(self, r, complex_mode):
        # The fdd driver takes H's SVD once per sample and reuses it for
        # every estimate; each value must equal the one-call metric and the
        # metric's formula before the SVD was split out.
        rng = np.random.default_rng([31, r, complex_mode])

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if complex_mode else x

        def reference(h_hat, H):
            Hh = h_hat[:, None] if h_hat.ndim == 1 else h_hat
            H = H[:, None] if H.ndim == 1 else H
            Q, _ = np.linalg.qr(Hh)
            U, s, _ = np.linalg.svd(H, full_matrices=False)
            top = s[: Hh.shape[1]] ** 2
            return float(np.sum(np.abs(U.conj().T @ Q) ** 2 * (s**2)[:, None]) / np.sum(top))

        estimates = [draw(8, r), draw(8, r)[:, ::-1]] + ([draw(8)] if r == 1 else [])
        for H in (draw(8, 3), draw(8)):
            U, s = metrics._channel_svd(H)
            for est in estimates:
                want = reference(est, H)
                stacked = metrics._beam_precision(est[None], U[None], s[None])
                assert stacked == [metrics.beam_precision(est, H)] == [want]

    @pytest.mark.parametrize("r", [1, 2])
    def test_stacked_call_gives_each_estimate_its_own_bits(self, r):
        # run_fdd_experiment makes one call per slice: B estimates of B channels, complex.
        rng = np.random.default_rng([37, r])

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        Hs = [draw(32, 4) for _ in range(16)]
        svds = [metrics._channel_svd(H) for H in Hs]
        U, s = (np.stack(a) for a in zip(*svds))
        for ests in ([draw(32, r) for _ in Hs], [draw(32) for _ in Hs] if r == 1 else []):
            if ests:
                want = [metrics.beam_precision(est, H) for est, H in zip(ests, Hs)]
                got = metrics._beam_precision(np.stack(ests), U, s)
                assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


def _layouts(rng, cols, complex_mode):
    """The same kind of matrix as 1-D (cols None), C-order, F-order and strided views."""
    shape = (9,) if cols is None else (9, cols)

    def draw(s):
        return rng.standard_normal(s) + (1j * rng.standard_normal(s) if complex_mode else 0.0)

    X = draw(shape)
    yield X
    if cols is not None:
        yield np.asfortranarray(X)
        yield draw((9, 2 * cols))[:, ::2]
        yield draw((9, cols))[:, ::-1]
    yield draw((18,) + shape[1:])[::2]
    yield draw((18,) + shape[1:])[::-2]


class TestFrobeniusNorm:
    """``likelihood._norms``, the one norm kernel, gives each row of a stack ``np.linalg.norm``'s bits."""

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("cols", [None, 1, 2])
    def test_equals_numpy_norm(self, rng, cols, complex_mode):
        for X in _layouts(rng, cols, complex_mode):
            # The solver's stacks are C-contiguous, whatever layout their rows came from.
            stack = np.ascontiguousarray(np.stack([X, 1e3 * X, 1e-3 * X]))
            got, want = likelihood._norms(stack), [float(np.linalg.norm(x)) for x in stack]
            assert got == want and all(type(v) is float for v in got)
