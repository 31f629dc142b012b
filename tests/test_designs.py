import hashlib

import numpy as np
import pytest

from pmichannel import designs, experiments
from pmichannel.dataset import write_dataset


class TestDftCodebook:
    def test_p1(self):
        cb = designs.dft_codebook(1)
        np.testing.assert_allclose(cb.V, [[1.0]])

    def test_p2_columns(self):
        cb = designs.dft_codebook(2)
        np.testing.assert_allclose(cb.V[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(cb.V[:, 1], np.array([1, -1]) / np.sqrt(2), atol=1e-15)
        assert cb.coherence < 1e-12

    def test_unitary_oracle(self):
        cb = designs.dft_codebook(4)
        np.testing.assert_allclose(cb.V.conj().T @ cb.V, np.eye(4), atol=1e-12)

    def test_coherence_matches_brute_force(self):
        cb = designs.dft_codebook(4)
        mu = max(
            abs(np.vdot(cb.V[:, i], cb.V[:, j]))
            for i in range(4)
            for j in range(4)
            if i != j
        )
        assert abs(cb.coherence - mu) < 1e-14

    def test_blocked_variant(self):
        cb = designs.dft_codebook(8, r=2)
        assert cb.n_codewords == 4
        assert cb.codeword(1).shape == (8, 2)


class TestHaarStiefel:
    def test_square_is_unitary(self, rng):
        Q = designs.haar_stiefel(5, 5, rng)
        assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-8
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(5), atol=1e-10)

    def test_column_norms(self, rng):
        Q = designs.haar_stiefel(6, 3, rng)
        np.testing.assert_allclose(np.linalg.norm(Q, axis=0), np.ones(3), atol=1e-12)

    def test_first_entry_moment(self):
        # d=2, p=1: |Q_11|^2 is Beta-distributed with mean 1/2.
        rng = np.random.default_rng(11)
        n = 100_000
        qs = designs.haar_stiefel_stack(n, 2, 1, rng)
        vals = np.abs(qs[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 0.5) < 3 * se

    def test_rotation_invariance_in_law(self):
        rng = np.random.default_rng(3)
        n, d, p = 40_000, 3, 2
        W = designs.haar_stiefel(d, d, np.random.default_rng(8))
        qs = designs.haar_stiefel_stack(n, d, p, rng)
        rotated = np.matmul(W, qs)
        for batch in (qs, rotated):
            m1 = batch.mean(axis=0)
            m2 = (np.abs(batch) ** 2).mean(axis=0)
            assert np.max(np.abs(m1)) < 0.02
            np.testing.assert_allclose(m2, np.full((d, p), 1 / d), atol=0.02)

    def test_stack_matches_single_law(self, rng):
        qs = designs.haar_stiefel_stack(10, 4, 2, rng, real=True)
        for Q in qs:
            np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-10)

    def test_p_exceeds_d_rejected(self, rng):
        with pytest.raises(ValueError):
            designs.haar_stiefel(2, 3, rng)


def _qr_reference(G):
    """LAPACK QR with R's diagonal phases absorbed into Q, the reference for real stacks."""
    Q, R = np.linalg.qr(G)
    diag = np.einsum("nii->ni", R)
    return Q * (diag / np.abs(diag)).conj()[:, None, :]


def _gaussian(rng, n, d, p, complex_):
    """An (n, d, p) Gaussian stack, complex when ``complex_``."""
    G = rng.standard_normal((n, d, p))
    return G + 1j * rng.standard_normal((n, d, p)) if complex_ else G


def _conditioned(kappa, rng, complex_):
    """8 x 8 matrix with singular values log-spaced from 1 down to 1/kappa."""

    def unitary():
        Z = rng.standard_normal((8, 8))
        return np.linalg.qr(Z + 1j * rng.standard_normal((8, 8)) if complex_ else Z)[0]

    return unitary() @ np.diag(np.geomspace(1.0, 1.0 / kappa, 8)) @ unitary()


class TestHaarKernel:
    """``designs._haar_from_gaussian``: two-sweep Gram-Schmidt on real stacks, LAPACK on complex."""

    @pytest.mark.parametrize("n", [1, 2, 19, 1000])
    @pytest.mark.parametrize("d, p", [(6, 3), (6, 6), (16, 4)])
    def test_real_agrees_with_lapack_qr(self, n, d, p):
        G = _gaussian(np.random.default_rng([n, d, p]), n, d, p, False)
        Q = designs._haar_from_gaussian(G)
        assert (Q.dtype, Q.shape) == (G.dtype, G.shape) and Q.flags.c_contiguous
        np.testing.assert_allclose(Q, _qr_reference(G), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_r_is_upper_triangular_with_positive_real_diagonal(self, complex_):
        G = _gaussian(np.random.default_rng(4), 50, 7, 4, complex_)
        Q = designs._haar_from_gaussian(G)
        R = np.conj(np.swapaxes(Q, 1, 2)) @ G
        tol = 1e-13 * np.abs(R).max()
        assert np.abs(np.tril(R, -1)).max() <= tol
        diag = np.diagonal(R, axis1=1, axis2=2)
        assert np.abs(diag.imag).max() <= tol and diag.real.min() > 0

    @pytest.mark.parametrize("d, p", [(5, 3), (8, 8), (32, 8)])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_stack_bit_identical_to_each_slice(self, d, p, complex_):
        n = 23
        G = _gaussian(np.random.default_rng([6, d, p]), n, d, p, complex_)
        Q = designs._haar_from_gaussian(G)
        for i in range(n):
            assert designs._haar_from_gaussian(G[i : i + 1]).tobytes() == Q[i : i + 1].tobytes()

    @pytest.mark.parametrize("kappa", [1e4, 1e8])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_orthonormal_when_ill_conditioned(self, kappa, complex_):
        # One Gram-Schmidt sweep loses orthogonality like eps * kappa; two do not.
        rng = np.random.default_rng([int(np.log10(kappa)), complex_])
        G = np.array([_conditioned(kappa, rng, complex_) for _ in range(20)])
        Q = designs._haar_from_gaussian(G)
        gram = np.conj(np.swapaxes(Q, 1, 2)) @ Q
        assert np.abs(gram - np.eye(8)).max() <= 1e-13

    def test_input_untouched(self):
        G = _gaussian(np.random.default_rng(2), 1, 4, 4, False)
        before = G.copy()
        designs._haar_from_gaussian(G)
        np.testing.assert_array_equal(G, before)


class TestStructuredQ:
    def test_identity_covariance(self, rng):
        Q = designs.structured_q(np.eye(6), 3, rng)
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(3), atol=1e-10)

    def test_rank_p_covariance_exact_subspace(self, rng):
        d, p = 6, 3
        B = designs.haar_stiefel(d, p, rng)
        Sigma = B @ np.diag([3.0, 2.0, 1.0]) @ B.conj().T
        Q = designs.structured_q(Sigma, p, rng)
        # sine of the largest principal angle between range(Q) and range(Sigma)
        sin_max = np.linalg.norm((np.eye(d) - B @ B.conj().T) @ Q, 2)
        assert sin_max < 1e-8

    def test_projector_oracle_random_psd(self, rng):
        d, p = 7, 3
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Sigma = G @ G.conj().T
        Q = designs.structured_q(Sigma, p, rng)
        U = designs.eigvecs_descending(Sigma, p)
        np.testing.assert_allclose(Q @ Q.conj().T, U @ U.conj().T, atol=1e-10)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError):
            designs.structured_q(np.triu(np.ones((4, 4))), 2, rng)


class TestType1Q1:
    def test_inner_factor_unitary(self):
        f2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        inner = np.kron(np.eye(2), np.kron(f2, f2) / 2.0)
        np.testing.assert_allclose(inner @ inner.conj().T, np.eye(8), atol=1e-12)

    def test_identity_covariance_orthonormal(self):
        Q1 = designs.type1_q1(np.eye(10))
        np.testing.assert_allclose(Q1.conj().T @ Q1, np.eye(8), atol=1e-10)

    def test_range_is_dominant_subspace(self, rng):
        d = 12
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Sigma = G @ G.conj().T
        Q1 = designs.type1_q1(Sigma)
        U = designs.eigvecs_descending(Sigma, 8)
        np.testing.assert_allclose(Q1 @ Q1.conj().T, U @ U.conj().T, atol=1e-10)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            designs.type1_q1(np.eye(4))


class TestFddDesign:
    """``designs._fdd_design`` against the round-by-round construction."""

    @staticmethod
    def _round_by_round(Sigma, T, scheme, rng):
        rest = [
            designs.haar_stiefel(Sigma.shape[0], 8, rng)
            if scheme == "haar-random"
            else designs.structured_q(Sigma, 8, rng)
            for _ in range(T - 1)
        ]
        return [designs.type1_q1(Sigma), *rest]

    @pytest.mark.parametrize("scheme", ["structured-outer-inner", "haar-random"])
    @pytest.mark.parametrize("T", [1, 2, 20])
    @pytest.mark.parametrize("kind", ["ray", "real"])
    def test_bit_identical_to_round_by_round(self, rng, scheme, T, kind):
        if kind == "ray":
            Sigma = designs.synthetic_channel(12, 2, 3, rng)[1]
        else:
            G = rng.standard_normal((10, 10))
            Sigma = G @ G.T
        want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
        want = self._round_by_round(Sigma, T, scheme, want_rng)
        basis = designs.eigvecs_descending(Sigma, 8)
        got = designs._fdd_design(basis, T, scheme == "haar-random", got_rng)
        assert len(got) == len(want) == T
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # Both leave the stream at the same point.
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("scheme", ["structured-outer-inner", "haar-random"])
    def test_fewer_than_8_ports_refused(self, rng, scheme):
        basis = designs.eigvecs_descending(np.eye(6), 8)
        with pytest.raises(ValueError, match="at least 8 antenna ports"):
            designs._fdd_design(basis, 3, scheme == "haar-random", rng)
        with pytest.raises(ValueError, match="at least 8 antenna ports"):
            experiments.run_fdd_experiment(d=6, n_samples=1, rounds=(3,), scheme=scheme)

    @pytest.mark.parametrize("k", [1, 4, 8, 12])
    def test_prior_basis_is_a_prefix_of_the_shared_basis(self, k):
        # The fdd driver slices the prior's k columns from one decomposition.
        Sigma = designs.synthetic_channel(16, 2, 4, np.random.default_rng(k))[1]
        want = designs.eigvecs_descending(Sigma, k)
        got = designs.eigvecs_descending(Sigma, max(k, 8))[:, :k]
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert got.tobytes() == want.tobytes()


class TestSyntheticChannel:
    def test_unit_frobenius_norm(self, rng):
        H, _ = designs.synthetic_channel(16, 4, 5, rng)
        assert abs(np.linalg.norm(H) - 1.0) < 1e-12

    def test_single_path_rank_one(self, rng):
        H, _ = designs.synthetic_channel(8, 1, 1, rng)
        s = np.linalg.svd(H, compute_uv=False)
        assert s[0] > 1 - 1e-10
        from pmichannel.metrics import beam_precision

        u = np.linalg.svd(H)[0][:, :1]
        assert abs(beam_precision(u, H) - 1.0) < 1e-10

    def test_uplink_subspace_overlap(self, rng):
        paths = 3
        for _ in range(5):
            H, Sigma = designs.synthetic_channel(24, 2, paths, rng)
            k = 2 * paths
            B = designs.eigvecs_descending(Sigma, k)
            # energy of the channel columns captured by the top-k subspace
            overlap = np.linalg.norm(B.conj().T @ H) ** 2 / np.linalg.norm(H) ** 2
            assert overlap > 0.9

    def test_covariance_valid(self, rng):
        H, Sigma = designs.synthetic_channel(10, 2, 4, rng)
        assert H.shape == (10, 2) and Sigma.shape == (10, 10)
        np.testing.assert_array_equal(Sigma, Sigma.conj().T)
        assert np.linalg.eigvalsh(Sigma).min() > 0

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "15ab2a0311541969c30e5c72c4b5f5ae0edb2ac6f5cdc5afe195c1621eeda098"),
            (3, "c350db9c40a88756b24cc633cc8973f47d54817999159fc3a1ac8d0bc73ab7ef"),
            (5, "98dc4937015d8e7cd433411cb2a1cb8b5e4008db8079da6fe59f6a4daf11813d"),
        ],
    )
    def test_dataset_bytes_pinned(self, tmp_path, seed, digest):
        # Ray-model dataset files are reproducible from the seed, byte for byte.
        path = tmp_path / "d.bin"
        write_dataset(path, experiments.make_synthetic_dataset(20, d=32, n_rx=4, paths=4, seed=seed))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestEigvecsDescending:
    def test_descending_order_and_determinism(self, rng):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        A = A @ A.conj().T
        U1 = designs.eigvecs_descending(A, 4)
        U2 = designs.eigvecs_descending(A.copy(), 4)
        np.testing.assert_array_equal(U1, U2)
        w = np.real(np.diag(U1.conj().T @ A @ U1))
        assert np.all(np.diff(w) <= 1e-10)

    def test_phase_convention(self, rng):
        A = rng.standard_normal((5, 5))
        A = A @ A.T
        U = designs.eigvecs_descending(A, 5)
        for j in range(5):
            col = U[:, j]
            piv = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(np.imag(piv)) < 1e-12 and np.real(piv) > 0
