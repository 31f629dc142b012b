import numpy as np
import pytest

from pmichannel import baselines, designs, likelihood, metrics, model
from conftest import designed_problem, pr_loss_grad, random_problem, records


def _sin_max_angle(A, B):
    """Sine of the largest principal angle between equal-rank column spaces."""
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    return np.linalg.norm(Qb - Qa @ (Qa.conj().T @ Qb), 2)


class TestSpectral:
    def test_t1_reduces_to_two_stage(self, rng):
        for r in (1, 2):
            prob, _ = random_problem(rng, d=6, p=4, n=2, r=r, T=1, rule="hard")
            two = baselines.two_stage_estimate(prob)
            spec = baselines.spectral_estimate(prob, r)
            assert _sin_max_angle(two, spec) < 1e-6

    def test_identical_rounds_match_t1(self, rng):
        prob, x, q = designed_problem(rng, d=5, p=3, n=3, T=1, rule="hard")
        rep = model.EstimationProblem(records(prob, q) * 4, prob.codebook, prob.tau)
        a = baselines.spectral_estimate(prob, 1)
        b = baselines.spectral_estimate(rep, 1)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_power_iteration_oracle(self, rng):
        prob, _, q = designed_problem(rng, d=6, p=4, n=4, T=5, rule="hard")
        est = baselines.spectral_estimate(prob, 1)
        # independent power iteration on the PMI sample covariance
        cov = np.zeros((6, 6), dtype=complex)
        for rd in records(prob, q):
            e = rd.Q @ prob.codebook.codeword(rd.pmi)
            cov += e @ e.conj().T
        cov /= prob.T
        v = np.ones(6, dtype=complex) / np.sqrt(6)
        for _ in range(3000):
            v = cov @ v
            v /= np.linalg.norm(v)
        assert abs(abs(np.vdot(v, est[:, 0])) - 1.0) < 1e-6

    def test_order_invariance(self, rng):
        prob, _, q = designed_problem(rng, d=5, p=3, n=3, T=6, rule="hard")
        shuffled = model.EstimationProblem(tuple(reversed(records(prob, q))), prob.codebook, prob.tau)
        np.testing.assert_allclose(
            baselines.spectral_estimate(prob, 2), baselines.spectral_estimate(shuffled, 2), atol=1e-12
        )

    def test_rank_deficit_flagged(self, rng):
        prob, _ = random_problem(rng, d=6, p=3, n=3, T=1, rule="hard")
        with pytest.warns(baselines.DegenerateEstimateWarning):
            est = baselines.spectral_estimate(prob, 3)
        assert est.shape == (6, 3)


class TestAmSingle:
    def test_noiseless_consistency(self, rng):
        d, p = 6, 3
        cb = designs.dft_codebook(p)
        x_star = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        qs = [designs.haar_stiefel(d, p, rng) for _ in range(2 * d + 2)]
        prob = model.simulate_problem(qs, cb, x_star, 1.0, rule="hard", attach_cqi=True)
        est, rep = baselines.am_estimate_single(
            prob, baselines.BaselineConfig(lambda_am=0.0, max_iters=500, rel_tol=1e-12)
        )
        assert rep.objective < 1e-8

    def test_zero_cqi_returns_zero(self, rng):
        prob, _, q = designed_problem(rng, rule="hard")
        prob0 = model.EstimationProblem.from_arrays(
            q, prob.pmi_array, prob.codebook, prob.tau, np.zeros(prob.T)
        )
        est, _ = baselines.am_estimate_single(prob0, baselines.BaselineConfig(lambda_am=1.0))
        assert np.linalg.norm(est) == 0.0

    def test_single_round_exact_fit(self, rng):
        prob, _, q = designed_problem(rng, d=5, p=3, n=3, T=1, rule="hard", attach_cqi=True)
        est, _ = baselines.am_estimate_single(prob, baselines.BaselineConfig(lambda_am=0.0))
        b = q[0] @ prob.codebook.codeword(prob.pmi_array[0])[:, 0]
        assert abs(abs(np.vdot(b, est)) - np.sqrt(prob.cqi_array[0])) < 1e-10

    def test_objective_monotone(self, rng):
        prob, _, q = designed_problem(rng, d=6, p=4, n=4, T=8, rule="hard", attach_cqi=True)
        rows = np.stack(
            [rd.Q @ prob.codebook.codeword(rd.pmi)[:, 0] for rd in records(prob, q)]
        )
        targets = np.sqrt(prob.cqi_array)
        lam = 0.3

        def objective(x):
            return float(np.sum((np.abs(rows.conj() @ x) - targets) ** 2) + lam * np.linalg.norm(x) ** 2)

        x = baselines.spectral_estimate(prob, 1)[:, 0]
        prev = objective(x)
        for _ in range(10):
            [(x, _)] = baselines._am_phase_ls_loop(rows[None], targets[None], lam, x[None], 1, 0.0)
            cur = objective(x)
            assert cur <= prev + 1e-12
            prev = cur

    def test_requires_cqi(self, rng):
        prob, _ = random_problem(rng, rule="hard", attach_cqi=False)
        with pytest.raises(ValueError):
            baselines.am_estimate_single(prob)


class TestAmMulti:
    def test_r1_reduces_to_single(self, rng):
        prob, _ = random_problem(rng, d=5, p=3, n=3, T=8, rule="hard", attach_cqi=True)
        cfg = baselines.BaselineConfig(lambda_am=1.0, init="random", seed=7)
        single, _ = baselines.am_estimate_single(prob, cfg, np.random.default_rng(7))
        multi, _ = baselines.am_estimate_multi(prob, 1, cfg, np.random.default_rng(7))
        np.testing.assert_allclose(multi[:, 0], single / np.linalg.norm(single), atol=1e-12)

    def test_orthonormal_columns(self, rng):
        prob, _ = random_problem(rng, d=6, p=4, n=2, r=2, T=10, rule="hard", attach_cqi=True)
        H, _ = baselines.am_estimate_multi(prob, 2, rng=rng)
        np.testing.assert_allclose(H.conj().T @ H, np.eye(2), atol=1e-10)

    def test_beats_random_pair_on_rank2_truth(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d, p = 8, 4
            cb = designs.dft_codebook(p, 2)
            U = designs.haar_stiefel(d, 2, rng)
            H_true = U @ np.diag([1.0, 0.7])
            qs = [designs.haar_stiefel(d, p, rng) for _ in range(12)]
            prob = model.simulate_problem(qs, cb, H_true, 1.0, rule="hard", attach_cqi=True)
            est, _ = baselines.am_estimate_multi(prob, 2, baselines.BaselineConfig(lambda_am=1.0), rng)
            rnd = designs.haar_stiefel(d, 2, rng)
            if metrics.beam_precision(est, H_true) > metrics.beam_precision(rnd, H_true):
                wins += 1
        assert wins >= 15

    def test_too_many_streams(self, rng):
        prob, _ = random_problem(rng, d=3, p=2, n=2, T=4, rule="hard", attach_cqi=True)
        with pytest.raises(ValueError):
            baselines.am_estimate_multi(prob, 4, rng=rng)

    def test_zero_streams(self, rng):
        prob, _ = random_problem(rng, d=3, p=2, n=2, T=4, rule="hard", attach_cqi=True)
        with pytest.raises(ValueError, match="stream count"):
            baselines.am_estimate_multi(prob, 0, rng=rng)


def _stream_reports(monkeypatch) -> list:
    """Every stream's ``_am_phase_ls_loop`` report, in call order, from a spy."""
    seen, orig = [], baselines._am_phase_ls_loop

    def spy(*args):
        out = orig(*args)
        seen.extend(rep for _, rep in out)
        return out

    monkeypatch.setattr(baselines, "_am_phase_ls_loop", spy)
    return seen


class TestAmMultiReport:
    """The report describes every stream, not only the last one."""

    @staticmethod
    def _first_column_design(rng):
        # Q = [q1 q2] with q1[3] = 0: stream 0's gram has a zero row and
        # column, stream 1's rows are generic in the complement.
        q1 = np.append(rng.standard_normal(3), 0.0)
        return np.linalg.qr(np.stack([q1, rng.standard_normal(4)], axis=1))[0]

    def _problem(self, zero_cqi=False):
        """Six first-column designs with hard feedback and CQI; all CQI zero if ``zero_cqi``."""
        rng = np.random.default_rng(1)
        qs = [self._first_column_design(rng) for _ in range(6)]
        cb = designs.identity_codebook(2, 1, 2)
        prob = model.simulate_problem(qs, cb, rng.standard_normal((4, 2)), 1.0, rule="hard", attach_cqi=True)
        if zero_cqi:
            return model.EstimationProblem.from_arrays(qs, prob.pmi_array, cb, prob.tau, np.zeros(6))
        return prob

    def test_singular_gram_of_an_earlier_stream_is_degenerate(self, monkeypatch):
        streams = _stream_reports(monkeypatch)
        cfg = baselines.BaselineConfig(lambda_am=0.0)
        _, rep = baselines.am_estimate_multi(self._problem(), 2, cfg, np.random.default_rng(0))
        assert [s.degenerate for s in streams] == [True, False]
        assert rep.degenerate

    def test_collapsed_stream_is_degenerate(self, monkeypatch):
        prob0 = self._problem(zero_cqi=True)
        streams = _stream_reports(monkeypatch)
        with pytest.warns(baselines.DegenerateEstimateWarning, match="collapsed to zero"):
            H, rep = baselines.am_estimate_multi(prob0, 2, rng=np.random.default_rng(0))
        # No gram was singular: only the collapse makes the estimate degenerate.
        assert not any(s.degenerate for s in streams)
        assert rep.degenerate
        np.testing.assert_allclose(H.conj().T @ H, np.eye(2), atol=1e-12)

    def test_cap_hit_by_an_earlier_stream_reads_max_iters(self, monkeypatch):
        prob, _ = random_problem(
            np.random.default_rng(0), d=6, p=4, n=2, r=2, T=10, rule="hard", attach_cqi=True
        )
        streams = _stream_reports(monkeypatch)
        cfg = baselines.BaselineConfig(max_iters=11)
        _, rep = baselines.am_estimate_multi(prob, 2, cfg, np.random.default_rng(0))
        assert [s.stop_reason for s in streams] == ["max-iters", "converged"]
        assert rep.stop_reason == "max-iters"
        assert rep.iterations == sum(s.iterations for s in streams)


class TestSubspacePr:
    def test_zero_cqi_degenerate(self, rng):
        prob, _, q = designed_problem(rng, d=6, p=3, n=3, T=4, rule="hard")
        prob0 = model.EstimationProblem.from_arrays(
            q, prob.pmi_array, prob.codebook, prob.tau, np.zeros(prob.T)
        )
        B = designs.haar_stiefel(6, 3, rng)
        with pytest.warns(baselines.DegenerateEstimateWarning):
            est, rep = baselines.subspace_pr_estimate(prob0, likelihood.SubspacePrior(B), 1)
        assert rep.degenerate
        assert np.linalg.norm(est) == 0.0

    def test_consistency_truth_in_span(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d, p, k = 8, 4, 3
            cb = designs.dft_codebook(p)
            B = designs.haar_stiefel(d, k, rng)
            x_true = (B @ (rng.standard_normal((k, 1)) + 1j * rng.standard_normal((k, 1))))[:, 0]
            qs = [designs.haar_stiefel(d, p, rng) for _ in range(40)]
            prob = model.simulate_problem(qs, cb, x_true, 1.0, rule="hard", attach_cqi=True)
            est, rep = baselines.subspace_pr_estimate(
                prob, likelihood.SubspacePrior(B), 1,
                baselines.BaselineConfig(max_iters=400, rel_tol=1e-10),
            )
            if rep.objective < 1e-6 and metrics.beam_precision(est, x_true[:, None]) > 0.95:
                hits += 1
        assert hits >= 19

    def test_estimate_stays_in_span(self, rng):
        prob, _ = random_problem(rng, d=6, p=4, n=4, T=6, rule="hard", attach_cqi=True)
        B = designs.haar_stiefel(6, 3, rng)
        est, _ = baselines.subspace_pr_estimate(prob, likelihood.SubspacePrior(B), 1)
        resid = est - B @ (B.conj().T @ est)
        assert np.linalg.norm(resid) <= 1e-10

    def test_wf_af_gradients_match_fd(self, rng):
        prob, _ = random_problem(rng, d=6, p=4, n=4, T=6, rule="hard", attach_cqi=True)
        B = designs.haar_stiefel(6, 3, rng)
        Ms = model._reduced(prob, B)
        eta = prob.cqi_array
        S = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        eps = 1e-6
        wf = pr_loss_grad(baselines._wf_value, baselines._wf_grad, (Ms, Ms.conj(), eta))
        af = pr_loss_grad(baselines._af_value, baselines._af_grad, (Ms, Ms.conj(), np.sqrt(eta)))
        for loss_grad in (wf, af):
            _, g = loss_grad(S)
            fd = np.zeros_like(S)
            for i in range(3):
                for unit in (1.0, 1j):
                    e = np.zeros_like(S)
                    e[i, 0] = unit
                    fp = loss_grad(S + eps * e)[0]
                    fm = loss_grad(S - eps * e)[0]
                    fd[i, 0] += (fp - fm) / (2 * eps) * unit
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6

    def test_best_of_both_picks_lower_amplitude_loss(self, rng):
        prob, _ = random_problem(rng, d=6, p=4, n=4, T=10, rule="hard", attach_cqi=True)
        B = designs.haar_stiefel(6, 4, rng)
        prior = likelihood.SubspacePrior(B)
        cfg_w = baselines.BaselineConfig(pr_variant="wirtinger")
        cfg_a = baselines.BaselineConfig(pr_variant="amplitude")
        cfg_b = baselines.BaselineConfig(pr_variant="best-of-both")
        est_w, _ = baselines.subspace_pr_estimate(prob, prior, 1, cfg_w)
        est_a, _ = baselines.subspace_pr_estimate(prob, prior, 1, cfg_a)
        est_b, rep_b = baselines.subspace_pr_estimate(prob, prior, 1, cfg_b)
        Ms = model._reduced(prob, B)
        eta = prob.cqi_array
        af = pr_loss_grad(baselines._af_value, baselines._af_grad, (Ms, Ms.conj(), np.sqrt(eta)))
        loss_w = af(B.conj().T @ est_w)[0]
        loss_a = af(B.conj().T @ est_a)[0]
        chosen = est_w if loss_w <= loss_a else est_a
        np.testing.assert_allclose(est_b, chosen, atol=1e-12)
