import numpy as np
import pytest

from pmichannel import designs, model, theory
from conftest import random_problem


class TestPmin:
    def test_single_codeword(self):
        assert theory.p_min_value(1, 1.0, 1.0) == 1.0

    def test_two_codeword_value(self):
        assert abs(theory.p_min_value(2, 1.0, 1.0) - 1 / (1 + np.e)) < 1e-15

    def test_underflow_safe(self):
        val = theory.p_min_value(4, 40.0, 0.05)
        assert 0.0 <= val < 1e-300 or val == 0.0

    def test_monotone_in_n_and_sharpness(self):
        vals_n = [theory.p_min_value(n, 1.0, 1.0) for n in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(vals_n, vals_n[1:]))
        vals_z = [theory.p_min_value(3, R, 1.0) for R in (0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals_z, vals_z[1:]))

    def test_floor_certified_on_random_draws(self):
        rng = np.random.default_rng(9)
        R = 1.4
        for _ in range(100):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(2, d + 1))
            n = int(rng.integers(2, p + 1))
            prob, _ = random_problem(rng, d=d, p=p, n=n, T=2, tau=0.8, complex_mode=False)
            floor = theory.p_min_value(n, R, 0.8)
            x = rng.standard_normal(d)
            x *= rng.uniform(0, R) / np.linalg.norm(x)
            assert model.softmax_pmf(prob, x).min() >= floor


class TestKappa0:
    def test_full_coherence_vanishes(self):
        assert theory.kappa0_value(3, 4, 1 - 1e-12, 0.5) < 1e-10

    def test_single_codeword_vanishes(self):
        assert theory.kappa0_value(1, 4, 0.0, 0.5) == 0.0

    def test_spot_value(self):
        # (1 - 0.5) * 4 * 4 * 3 * 1 / (6 * 8)
        assert theory.kappa0_value(4, 6, 0.0, 0.5) == 0.5

    def test_monotone_in_mu_and_d(self):
        vals_mu = [theory.kappa0_value(3, 5, mu, 0.5) for mu in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(vals_mu, vals_mu[1:]))
        vals_d = [theory.kappa0_value(3, d, 0.0, 0.5) for d in (4, 6, 9)]
        assert all(a > b for a, b in zip(vals_d, vals_d[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            theory.kappa0_value(3, 4, 1.0, 0.5)
        with pytest.raises(ValueError):
            theory.kappa0_value(3, 4, 0.0, 0.0)


class TestConstantsBundle:
    def test_formulas(self):
        tc = theory.theory_constants(N=3, d=5, mu=0.2, delta=0.4, R=1.5, tau=0.6, h_norm=0.9)
        assert tc.p_min == theory.p_min_value(3, 1.5, 0.6)
        assert tc.kappa0 == theory.kappa0_value(3, 5, 0.2, 0.4)
        assert tc.beta0 == tc.kappa0 * tc.p_min**2 * 0.9**2 / 0.6**2
        assert tc.hessian_lipschitz == 48 * 1.5**3 / 0.6**3 + 24 * 1.5 / 0.6**2


def _reference_basis(d):
    """Gram-Schmidt of E_ii - E_{i+1,i+1} in order, then (E_ij + E_ji)/sqrt(2) for i < j, row by row."""
    mats, ortho = [], []
    for i in range(d - 1):
        v = np.zeros(d)
        v[i], v[i + 1] = 1.0, -1.0
        for u in ortho:
            v = v - (u @ v) * u
        ortho.append(v / np.linalg.norm(v))
        mats.append(np.diag(ortho[-1]))
    for i in range(d):
        for j in range(i + 1, d):
            M = np.zeros((d, d))
            M[i, j] = M[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(M)
    return np.array(mats).reshape(len(mats), d, d)


class TestTracelessBasis:
    @pytest.mark.parametrize("d", range(0, 9))
    def test_bytes_match_reference_gram_schmidt(self, d):
        basis = theory.traceless_symmetric_basis(d)
        want = _reference_basis(d)
        assert (basis.shape, basis.dtype, basis.tobytes()) == (want.shape, want.dtype, want.tobytes())

    def test_orthonormal_and_traceless(self):
        for d in (2, 3, 5):
            basis = theory.traceless_symmetric_basis(d)
            m = d * (d + 1) // 2 - 1
            assert basis.shape == (m, d, d)
            for i in range(m):
                assert abs(np.trace(basis[i])) < 1e-12
                np.testing.assert_allclose(basis[i], basis[i].T, atol=1e-14)
                for j in range(i, m):
                    ip = np.sum(basis[i] * basis[j])
                    assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


class TestCertifySecant:
    def test_probes_at_truth_skipped(self, rng):
        h = rng.standard_normal(4)
        qs = [np.eye(4)[:, :2]]
        cb = designs.identity_codebook(2, 2)
        rep = theory.certify_secant(qs, cb, h, trials=0, rng=rng)
        assert np.isinf(rep.random_min)

    def test_single_q_enumeration_oracle(self, rng):
        # one round, N=2 orthogonal codewords, d=p: assemble the operator by
        # explicit enumeration over basis pairs and compare eigen-solves
        d = 3
        Q = designs.haar_stiefel(d, d, rng, real=True)
        cb = designs.identity_codebook(d, 2)
        h = rng.standard_normal(d)
        rep = theory.certify_secant([Q], cb, h, trials=50, rng=rng)
        basis = theory.traceless_symmetric_basis(d)
        m = basis.shape[0]
        a = [Q @ cb.codeword(i)[:, 0] for i in range(2)]
        A = [np.outer(v, v) for v in a]
        op = np.zeros((m, m))
        for i in range(2):
            for j in range(2):
                diff = A[i] - A[j]
                coords = np.array([np.sum(diff * basis[k]) for k in range(m)])
                op += np.outer(coords, coords)
        expected = np.linalg.eigvalsh(op)[0]
        assert abs(rep.operator_min - expected) < 1e-8

    def test_haar_designs_certify_kappa0(self):
        # min eigenvalue of the averaged operator beats kappa0(0.5) in at
        # least 95% of repetitions
        d, p, n, T = 6, 3, 3, 300
        cb = designs.identity_codebook(p, n)
        base = np.random.default_rng(31)
        h = base.standard_normal(d)
        h /= np.linalg.norm(h)
        wins = 0
        reps = 40
        for i in range(reps):
            rng = np.random.default_rng([31, i])
            qs = designs.haar_stiefel_stack(T, d, p, rng, real=True)
            rep = theory.certify_secant(qs, cb, h, trials=10, rng=rng)
            wins += rep.certified
        assert wins >= 0.95 * reps

    def test_random_path_respects_operator_floor(self, rng):
        d, p, n, T = 5, 3, 2, 100
        cb = designs.identity_codebook(p, n)
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        qs = designs.haar_stiefel_stack(T, d, p, rng, real=True)
        rep = theory.certify_secant(qs, cb, h, trials=300, rng=rng)
        assert rep.random_min >= rep.operator_min - 1e-8

    def test_ratio_matches_direct_enumeration(self, rng):
        d, p, n, T = 4, 2, 2, 5
        cb = designs.identity_codebook(p, n)
        h = rng.standard_normal(d)
        qs = designs.haar_stiefel_stack(T, d, p, rng, real=True)
        basis = theory.traceless_symmetric_basis(d)
        rep = theory.certify_secant(qs, cb, h, trials=1, rng=np.random.default_rng(3))
        # recompute the same probe by direct triple summation
        gen = np.random.default_rng(3)
        x = gen.standard_normal(d)
        x *= gen.uniform(0.1, 1.0) * 2.0 * max(np.linalg.norm(h), 1.0) / np.linalg.norm(x)
        delta = np.outer(x, x) - np.outer(h, h)
        total = 0.0
        for t in range(T):
            a = [qs[t] @ cb.codeword(i)[:, 0] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    diff = np.outer(a[i], a[i]) - np.outer(a[j], a[j])
                    total += np.sum(diff * delta) ** 2
        expected = total / T / np.sum(delta**2)
        assert abs(rep.random_min - expected) < 1e-10


class TestCertifySecantRefusals:
    """Bad input is refused with ValueError before the probe generator is touched."""

    def _args(self):
        rng = np.random.default_rng(4)
        qs = designs.haar_stiefel_stack(5, 4, 2, rng, real=True)
        return qs, designs.identity_codebook(2, 2), rng.standard_normal(4)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("complex codebook", "real single-stream codebook"),
            ("multi-stream codebook", "real single-stream codebook"),
            ("complex designs", "single-stream codebook, designs"),
            ("complex channel", "designs and channel"),
            ("scaled designs", "orthonormal"),
            ("non-orthonormal round", "orthonormal"),
            ("NaN design", "orthonormal"),
            ("designs of another p", r"\(T, d, 2\)"),
            ("2-D designs", r"\(T, d, 2\)"),
            ("short channel", "channel entries"),
            ("NaN channel", "channel entries"),
            ("negative trials", "nonnegative int"),
            ("fractional trials", "nonnegative int"),
            ("bool trials", "nonnegative int"),
        ],
    )
    def test_refused(self, case, match):
        qs, cb, h = self._args()
        trials = 10
        if case == "complex codebook":
            cb = designs.dft_codebook(2)
        elif case == "multi-stream codebook":
            cb = designs.identity_codebook(2, 1, r=2)
        elif case == "complex designs":
            qs = qs * np.exp(0.3j)
        elif case == "complex channel":
            h = h + 1e-3j
        elif case == "scaled designs":
            qs = qs * 2
        elif case == "non-orthonormal round":
            qs[2, 0, 0] += 1e-3
        elif case == "NaN design":
            qs[1, 1, 1] = np.nan
        elif case == "designs of another p":
            qs = designs.haar_stiefel_stack(5, 4, 3, np.random.default_rng(0), real=True)
        elif case == "2-D designs":
            qs = qs[:, :, 0]
        elif case == "short channel":
            h = h[:3]
        elif case == "NaN channel":
            h[0] = np.nan
        else:
            trials = {"negative trials": -1, "fractional trials": 2.5, "bool trials": True}[case]
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            theory.certify_secant(qs, cb, h, trials=trials, rng=rng)
        assert rng.bit_generator.state == before

    def test_column_channel_and_integer_trials_accepted(self):
        qs, cb, h = self._args()
        a = theory.certify_secant(qs, cb, h, trials=np.int64(3), rng=np.random.default_rng(2))
        b = theory.certify_secant(list(qs), cb, h[:, None], trials=3, rng=np.random.default_rng(2))
        assert a == b


class TestMomentChecks:
    @pytest.mark.parametrize("samples", [0, -5, 2.5])
    def test_no_samples_refused(self, samples):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="samples must be a positive int"):
            theory.sphere_fourth_moment_check(3, samples, rng)
        with pytest.raises(ValueError, match="samples must be a positive int"):
            theory.secant_expectation_check(designs.identity_codebook(2, 2), 3, samples, rng)
        assert rng.bit_generator.state == before

    def test_deviation_without_standard_error_is_infinite(self):
        # Every sample equals 1: the standard error is 0, so a deviation reads +inf
        # standard errors, and no deviation reads 0.
        def draw(n):
            return np.full(2, float(n)), np.full(2, float(n))

        assert theory._monte_carlo(draw, 10, 4, np.array([0.5, 1.0]))[1] == np.inf
        dev, dev_se = theory._monte_carlo(draw, 10, 4, 1.0)
        assert dev_se == 0.0 and np.all(dev == 0.0)

    def test_batches_cover_every_sample(self):
        sizes = []

        def draw(n):
            sizes.append(n)
            return np.zeros(1), np.zeros(1)

        theory._monte_carlo(draw, 10, 4, 0.0)
        assert sizes == [4, 4, 2]

    def test_sphere_d1_exact(self):
        rep = theory.sphere_fourth_moment_check(1, 500, np.random.default_rng(0))
        assert rep.max_dev_se == 0.0

    def test_sphere_d5(self):
        rep = theory.sphere_fourth_moment_check(5, 200_000, np.random.default_rng(4))
        assert rep.max_dev_se <= 4.0

    def test_cross_moment_target(self):
        # E[u_1^2 u_2^2] = 1/(d(d+2))
        d, n = 4, 300_000
        rng = np.random.default_rng(8)
        g = rng.standard_normal((n, d))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        vals = u[:, 0] ** 2 * u[:, 1] ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1 / (d * (d + 2))) < 4 * se

    def test_rank1_diff_norm_identity(self, rng):
        for _ in range(20):
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            w = rng.standard_normal(5)
            w /= np.linalg.norm(w)
            lhs = np.linalg.norm(np.outer(v, v) - np.outer(w, w)) ** 2
            rhs = 2 * (1 - (v @ w) ** 2)
            assert abs(lhs - rhs) < 1e-12

    def test_secant_expectation_single_codeword(self, rng):
        rep = theory.secant_expectation_check(designs.identity_codebook(2, 1), 3, 2000, rng)
        assert rep.max_dev_se == 0.0
        assert rep.max_rel_dev == 0.0

    def test_secant_expectation_d4(self):
        rep = theory.secant_expectation_check(
            designs.identity_codebook(2, 2), 4, 50_000, np.random.default_rng(6)
        )
        assert rep.max_dev_se <= 4.0

    def test_secant_expectation_rejects_multistream(self, rng):
        with pytest.raises(ValueError):
            theory.secant_expectation_check(designs.dft_codebook(4, 2), 4, 100, rng)


class TestRank1Bound:
    def test_equal_and_negated(self, rng):
        h = rng.standard_normal(4)
        assert theory.rank1_distance_bound_check(h, h)
        assert theory.rank1_distance_bound_check(-h, h)

    def test_random_sweep(self):
        rng = np.random.default_rng(14)
        for _ in range(10_000):
            x = rng.standard_normal(5) * rng.uniform(0.1, 3.0)
            h = rng.standard_normal(5) * rng.uniform(0.1, 3.0)
            assert theory.rank1_distance_bound_check(x, h)
