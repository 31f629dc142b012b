import math

import numpy as np
import pytest

from pmichannel import metrics


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


def _unitary_2x2(alpha, beta, gamma, theta):
    core = np.array(
        [
            [np.cos(theta) * np.exp(1j * beta), np.sin(theta) * np.exp(1j * gamma)],
            [-np.sin(theta) * np.exp(-1j * gamma), np.cos(theta) * np.exp(-1j * beta)],
        ]
    )
    return np.exp(1j * alpha) * core


class TestProcrustesRelChange:
    def test_identical(self, rng):
        X = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert metrics.procrustes_rel_change(X, X) < 1e-12
        x = X[:, 0]
        assert metrics.procrustes_rel_change(x, x) == 0.0

    def test_unitary_equivalence(self, rng):
        X = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        W = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        assert metrics.procrustes_rel_change(X @ W, X) < 1e-12

    def test_single_column_phase_formula(self, rng):
        x_old = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x_new = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phi = np.angle(np.vdot(x_old, x_new))
        expected = np.linalg.norm(np.exp(-1j * phi) * x_new - x_old) / np.linalg.norm(x_old)
        # the chosen phase minimizes over all rotations of either iterate
        phis = 2 * np.pi * np.arange(4000) / 4000
        brute = min(np.linalg.norm(x_new - np.exp(1j * p) * x_old) for p in phis)
        got = metrics.procrustes_rel_change(x_new, x_old)
        assert abs(got - expected) < 1e-12
        assert got <= brute / np.linalg.norm(x_old) + 1e-6

    def test_grid_oracle_2x2(self, rng):
        X_old = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        X_new = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        got = metrics.procrustes_rel_change(X_new, X_old)

        grid = np.linspace(0, 2 * np.pi, 13)[:-1]
        thetas = np.linspace(0, np.pi / 2, 7)
        best = np.inf
        best_arg = None
        for a in grid:
            for b in grid:
                for g in grid:
                    for t in thetas:
                        val = np.linalg.norm(X_new @ _unitary_2x2(a, b, g, t) - X_old)
                        if val < best:
                            best, best_arg = val, (a, b, g, t)
        # local refinement around the best coarse point
        a0, b0, g0, t0 = best_arg
        for _ in range(3):
            span = {0: 0.6, 1: 0.12, 2: 0.025}.get(_, 0.025)
            for a in a0 + np.linspace(-span, span, 9):
                for b in b0 + np.linspace(-span, span, 9):
                    for g in g0 + np.linspace(-span, span, 9):
                        for t in t0 + np.linspace(-span, span, 9):
                            val = np.linalg.norm(X_new @ _unitary_2x2(a, b, g, t) - X_old)
                            if val < best:
                                best, (a0, b0, g0, t0) = val, (a, b, g, t)
        assert abs(got - best / np.linalg.norm(X_old)) < 1e-4

    def test_zero_old_returns_inf(self):
        assert metrics.procrustes_rel_change(np.ones(3), np.zeros(3)) == math.inf


def _procrustes_reference(X_new, X_old):
    """``procrustes_rel_change`` written with ``np.linalg.norm``."""
    denom = np.linalg.norm(X_old)
    if denom == 0:
        return math.inf
    if X_new.ndim == 1 or X_new.shape[1] == 1:
        inner = np.vdot(X_old, X_new)
        phase = np.exp(-1j * np.angle(inner)) if inner != 0 else 1.0
        if not np.iscomplexobj(X_new) and not np.iscomplexobj(X_old):
            phase = np.sign(np.real(inner)) or 1.0
        return float(np.linalg.norm(phase * X_new - X_old) / denom)
    U, _, Vh = np.linalg.svd(X_new.conj().T @ X_old)
    return float(np.linalg.norm(X_new @ (U @ Vh) - X_old) / denom)


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
    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("cols", [None, 1, 2])
    def test_equals_numpy_norm(self, rng, cols, complex_mode):
        for X in _layouts(rng, cols, complex_mode):
            got, want = metrics._fro_norm(X), np.linalg.norm(X)
            assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("cols", [None, 1, 2])
    def test_procrustes_rel_change_equals_norm_formula(self, rng, cols, complex_mode):
        olds = list(_layouts(rng, cols, complex_mode))
        news = list(_layouts(rng, cols, complex_mode))
        for X_new, X_old in zip(news, olds):
            assert metrics.procrustes_rel_change(X_new, X_old) == _procrustes_reference(X_new, X_old)
            zero = np.zeros_like(X_old)
            assert metrics.procrustes_rel_change(X_new, zero) == math.inf
            assert _procrustes_reference(X_new, zero) == math.inf
