import warnings

import numpy as np
import pytest

from pmichannel import crb, designs, model
from conftest import designed_problem, lifted, random_problem, records, ref_fisher


class TestRealify:
    def test_identity(self):
        np.testing.assert_array_equal(crb.realify(np.eye(3)), np.eye(6))

    def test_purely_imaginary_hermitian(self):
        A = 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        M = crb.realify(A)
        np.testing.assert_array_equal(M[:2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(M[:2, 2:], -A.imag)
        np.testing.assert_array_equal(M, M.T)

    def test_quadratic_form_identity(self, rng):
        for _ in range(10):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            A = A + A.conj().T
            h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            theta = crb.realify_vector(h)
            lhs = theta @ crb.realify(A) @ theta
            rhs = np.real(h.conj() @ A @ h)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_eigenvalues_doubled(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = A + A.conj().T
        wa = np.linalg.eigvalsh(A)
        wm = np.linalg.eigvalsh(crb.realify(A))
        np.testing.assert_allclose(np.repeat(np.sort(wa), 2), np.sort(wm), atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            crb.realify(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFisher:
    def test_identical_codewords_give_zero(self, rng):
        # two copies of the same codeword: the pmf carries no information
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        cb = model.Codebook(V=np.stack([v, v], axis=1))
        q = designs.haar_stiefel(5, 3, rng)
        prob = model.EstimationProblem((model.FeedbackRound(Q=q, pmi=0),), cb, tau=0.5)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        F = crb.fisher(prob, h)
        assert np.max(np.abs(F.F)) < 1e-12

    def test_bad_channel_refused(self, rng):
        prob, h = random_problem(rng)
        for bad in (np.r_[h[:3], np.nan], np.r_[h[:3], np.inf], h[:3], np.r_[h, 0.0]):
            with pytest.raises(ValueError, match="channel must be finite with d=4"):
                crb.fisher(prob, bad)

    def test_zero_channel_gives_zero(self, rng):
        prob, _ = random_problem(rng)
        F = crb.fisher(prob, np.zeros(prob.d, dtype=complex))
        assert np.max(np.abs(F.F)) < 1e-14
        assert crb.crb_trace(F) == 0.0

    def test_enumeration_oracle(self, rng):
        prob, h, q = designed_problem(rng, d=3, p=2, n=2, T=2, tau=0.4)
        F = crb.fisher(prob, h)
        theta = crb.realify_vector(h)
        expected = np.zeros((6, 6))
        for t, pmf in enumerate(model.softmax_pmf(prob, h)):
            gs = []
            for i in range(prob.n_codewords):
                a = lifted(prob, q, t, i)
                gs.append(crb.realify(np.outer(a, a.conj())) @ theta)
            gs = np.stack(gs)
            mean = pmf @ gs
            expected += (4 / prob.tau**2) * (
                sum(pmf[i] * np.outer(gs[i], gs[i]) for i in range(len(pmf)))
                - np.outer(mean, mean)
            )
        np.testing.assert_allclose(F.F, expected, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_row_sum_formula(self, n):
        # NumPy adds a row shorter than 8 in sequence, as fisher adds the
        # codeword planes, so the bits agree there; from 8 on it sums pairwise.
        rng = np.random.default_rng([31, n])
        prob, h, q = designed_problem(rng, d=n + 3, p=n + 1, n=n, T=40, tau=0.3)
        F, ref = crb.fisher(prob, h).F, ref_fisher(prob, q, h)
        if n < 8:
            np.testing.assert_array_equal(F, ref)
        else:
            np.testing.assert_allclose(F, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_psd(self, rng):
        for _ in range(10):
            prob, h = random_problem(rng, d=4, p=3, n=3, T=6)
            w = np.linalg.eigvalsh(crb.fisher(prob, h).F)
            assert w.min() >= -1e-10 * max(w.max(), 1e-30)

    def test_multi_stream_rejected(self, rng):
        prob, _ = random_problem(rng, d=5, p=4, n=2, r=2)
        with pytest.raises(ValueError):
            crb.fisher(prob, np.zeros(5))


class TestGauge:
    def test_zero_matrix(self):
        fm = crb.FisherMatrix(np.zeros((4, 4)), np.array([1.0, 0.0, 0.0, 0.0]), tau=1.0)
        assert crb.gauge_nullity(fm) == 0.0

    def test_valid_fisher_output(self, rng):
        prob, h = random_problem(rng)
        assert crb.gauge_nullity(crb.fisher(prob, h)) <= 1e-10

    def test_randomized_sweep(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(1, d + 1))
            n = int(rng.integers(2, p + 1)) if p > 1 else 1
            prob, h = random_problem(rng, d=d, p=p, n=n, T=int(rng.integers(1, 4)))
            worst = max(worst, crb.gauge_nullity(crb.fisher(prob, h)))
        assert worst <= 1e-10


class TestRotationEquivariance:
    def test_zero_and_pi(self, rng):
        prob, h = random_problem(rng)
        assert crb.rotation_equivariance_check(prob, h, 0.0) < 1e-12
        assert crb.rotation_equivariance_check(prob, h, np.pi) < 1e-10

    def test_generic_angle(self, rng):
        prob, h = random_problem(rng, d=5, p=4, n=4, T=4)
        assert crb.rotation_equivariance_check(prob, h, 0.7) <= 1e-10

    def test_randomized(self, rng):
        for _ in range(20):
            prob, h = random_problem(rng, d=4, p=3, n=3)
            phi = float(rng.uniform(0, 2 * np.pi))
            assert crb.rotation_equivariance_check(prob, h, phi) <= 1e-10


class TestCrbTrace:
    def test_diag_examples(self):
        # theta = e_1 has the gauge e_{d+1}; the other diagonal entries are inverted.
        fm = crb.FisherMatrix(np.diag([2.0, 0.0]), np.array([1.0, 0.0]), tau=1.0)
        assert crb.crb_trace(fm) == 0.5
        F = np.diag([2.0, 4.0, 8.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        assert crb.crb_trace(crb.FisherMatrix(F, np.eye(8)[0], tau=1.0)) == 4.875

    def test_gauge_reduction_oracle(self, rng):
        # random PSD with exactly one null direction u: tr(F^+) must match
        # tr((D^T F D)^{-1}) for D an orthonormal basis of u's complement
        for _ in range(10):
            n = 8
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            basis, _ = np.linalg.qr(np.eye(n) - np.outer(u, u))
            # drop the numerically-null column to get the complement basis
            cols = [c for c in range(n) if np.linalg.norm(basis[:, c]) > 0.5]
            D = basis[:, cols][:, : n - 1]
            # random SPD core
            G = rng.standard_normal((n - 1, n - 1))
            core = G @ G.T + 0.5 * np.eye(n - 1)
            F = D @ core @ D.T
            theta = -crb.gauge_direction(u)  # J^2 = -I, so the gauge J theta is u
            got = crb.crb_trace(crb.FisherMatrix(F, theta, tau=1.0))
            expected = np.trace(np.linalg.inv(D.T @ F @ D))
            assert abs(got - expected) <= 1e-8 * expected

    def test_identifiability_warning(self):
        # Gauge of theta = e_1 is e_4; the null e_2 is a second, unidentifiable direction.
        F = np.diag([3.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        with pytest.warns(crb.IdentifiabilityWarning):
            crb.crb_trace(crb.FisherMatrix(F, np.eye(6)[0], tau=1.0))

    def test_gauge_always_dropped_for_fisher_input(self, rng):
        # Roundoff can leave the gauge eigenvalue just above the rank
        # tolerance; a FisherMatrix still drops it and keeps the trace.
        prob, h = random_problem(rng, d=4, p=4, n=4, T=30)
        fm = crb.fisher(prob, h)
        u = fm.gauge / np.linalg.norm(fm.gauge)
        tol = fm.F.shape[0] * np.finfo(float).eps * np.linalg.eigvalsh(fm.F)[-1]
        bumped = crb.FisherMatrix(fm.F + 4 * tol * np.outer(u, u), fm.theta, fm.tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error", crb.IdentifiabilityWarning)
            got = crb.crb_trace(bumped)
        expected = crb.crb_trace(fm)
        assert abs(got - expected) <= 1e-8 * expected

    def test_extra_null_direction_warns_for_fisher_input(self):
        # Gauge of theta = e_1 is e_{d+1}; one more null direction is a deficit.
        theta = np.eye(6)[0]
        F = np.diag([1.0, 1e-17, 2.0, 1e-9, 1.0, 1.0])
        with pytest.warns(crb.IdentifiabilityWarning):
            crb.crb_trace(crb.FisherMatrix(F, theta, tau=1.0))

    def test_phase_invariance_of_trace(self, rng):
        prob, h = random_problem(rng, d=4, p=4, n=4, T=30)
        t0 = crb.crb_trace(crb.fisher(prob, h))
        t1 = crb.crb_trace(crb.fisher(prob, h * np.exp(1.3j)))
        assert abs(t0 - t1) <= 1e-8 * t0


class TestAdditivity:
    def test_fisher_adds_over_round_sets(self, rng):
        prob, h, q = designed_problem(rng, d=4, p=3, n=3, T=6)
        F_all = crb.fisher(prob, h).F
        first = model.EstimationProblem(records(prob, q)[:2], prob.codebook, prob.tau)
        rest = model.EstimationProblem(records(prob, q)[2:], prob.codebook, prob.tau)
        F_sum = crb.fisher(first, h).F + crb.fisher(rest, h).F
        np.testing.assert_allclose(F_all, F_sum, atol=1e-12)

    def test_replication_divides_crb_exactly(self, rng):
        prob, h, q = designed_problem(rng, d=4, p=4, n=4, T=10)
        base = crb.crb_trace(crb.fisher(prob, h))
        for k in (2, 5):
            rep = model.EstimationProblem(records(prob, q) * k, prob.codebook, prob.tau)
            val = crb.crb_trace(crb.fisher(rep, h))
            assert abs(val - base / k) <= 1e-10 * (base / k)
