import numpy as np
import pytest

from pmichannel import designs, likelihood, metrics, model, theory
from conftest import designed_problem, lifted, oracle_gains, random_problem


def fd_gradient(problem, x, h=1e-6):
    """Independent central-difference oracle in realified coordinates."""
    x = np.asarray(x)
    complex_mode = np.iscomplexobj(x)
    out = np.zeros(x.shape, dtype=complex if complex_mode else float)
    units = (1.0, 1j) if complex_mode else (1.0,)
    for idx in np.ndindex(*x.shape):
        for unit in units:
            e = np.zeros(x.shape, dtype=out.dtype)
            e[idx] = unit
            fp = likelihood.nll(problem, x + h * e)
            fm = likelihood.nll(problem, x - h * e)
            out[idx] += (fp - fm) / (2 * h) * unit
    return out


class TestNll:
    def test_single_codeword_is_zero(self, rng):
        prob, x = random_problem(rng, p=2, n=1)
        assert likelihood.nll(prob, x) == 0.0

    def test_zero_point_gives_log_n(self, rng):
        prob, _ = random_problem(rng, n=3)
        assert abs(likelihood.nll(prob, np.zeros(prob.d)) - np.log(3)) < 1e-12

    def test_scalar_oracle(self):
        # d=2, N=2, T=1: explicit effective codewords and direct evaluation
        V = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        cb = model.Codebook(V=V)
        q = np.eye(2, dtype=complex)
        rd = model.FeedbackRound(Q=q, pmi=1)
        prob = model.EstimationProblem((rd,), cb, tau=0.3)
        x = np.array([0.4 + 0.1j, -0.2j])
        g = np.abs(x) ** 2
        expected = np.log(np.exp((g[0] - g[1]) / 0.3) + 1.0)
        assert abs(likelihood.nll(prob, x) - expected) < 1e-12

    def test_nonnegative(self, rng):
        for _ in range(10):
            prob, x = random_problem(rng)
            assert likelihood.nll(prob, 2.0 * x) >= 0.0


class TestRelaxedLoss:
    def test_zero_point(self, rng):
        prob, _ = random_problem(rng, n=3)
        assert abs(likelihood.relaxed_loss(prob, np.zeros(prob.d))) < 1e-12

    def test_single_codeword(self, rng):
        prob, x = random_problem(rng, p=2, n=1)
        assert abs(likelihood.relaxed_loss(prob, x)) < 1e-12

    def test_affine_identity(self, rng):
        for _ in range(30):
            prob, x = random_problem(rng, tau=float(rng.uniform(0.1, 3.0)))
            scale = float(rng.uniform(0.1, 2.0))
            lhs = likelihood.relaxed_loss(prob, scale * x)
            rhs = prob.tau * likelihood.nll(prob, scale * x) - prob.tau * np.log(prob.n_codewords)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestGradient:
    def test_single_codeword_zero(self, rng):
        prob, x = random_problem(rng, p=2, n=1)
        assert np.linalg.norm(likelihood.nll_gradient(prob, x)) == 0.0

    def test_zero_point_zero(self, rng):
        prob, _ = random_problem(rng)
        assert np.linalg.norm(likelihood.nll_gradient(prob, np.zeros(prob.d))) == 0.0

    def test_real_matches_paper_formula(self, rng):
        prob, x, q = designed_problem(rng, complex_mode=False, d=3, p=3, n=3, T=2)
        x = rng.standard_normal(3)
        expected = np.zeros(3)
        for t, pmf in enumerate(model.softmax_pmf(prob, x)):
            a_sel = lifted(prob, q, t, prob.pmi_array[t])
            for j in range(prob.n_codewords):
                a = lifted(prob, q, t, j)
                A_diff = np.outer(a, a) - np.outer(a_sel, a_sel)
                expected += (2 / prob.tau) * pmf[j] * (A_diff @ x)
        expected /= prob.T
        np.testing.assert_allclose(likelihood.nll_gradient(prob, x), expected, atol=1e-12)

    def test_fd_real(self, rng):
        prob, _ = random_problem(rng, complex_mode=False, d=3, p=3, n=3, T=2)
        x = 0.8 * rng.standard_normal(3)
        g = likelihood.nll_gradient(prob, x)
        fd = fd_gradient(prob, x)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6

    def test_fd_complex_multistream(self, rng):
        prob, _ = random_problem(rng, d=5, p=4, n=2, r=2, T=3)
        X = 0.5 * (rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
        G = likelihood.nll_gradient(prob, X)
        fd = fd_gradient(prob, X)
        assert np.linalg.norm(G - fd) / np.linalg.norm(fd) < 1e-6

    def test_unitary_covariance(self, rng):
        prob, _ = random_problem(rng, d=5, p=4, n=2, r=2, T=3)
        X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        assert abs(likelihood.nll(prob, X @ U) - likelihood.nll(prob, X)) < 1e-10
        G = likelihood.nll_gradient(prob, X)
        GU = likelihood.nll_gradient(prob, X @ U)
        np.testing.assert_allclose(GU, G @ U, atol=1e-10)

    def test_descent_direction(self, rng):
        prob, x = random_problem(rng)
        g = likelihood.nll_gradient(prob, x)
        f0 = likelihood.nll(prob, x)
        assert likelihood.nll(prob, x - 1e-4 * g) < f0


class TestHessianReal:
    def test_single_codeword_zero(self, rng):
        prob, x = random_problem(rng, complex_mode=False, p=2, n=1)
        H = likelihood.nll_hessian_real(prob, x.real)
        np.testing.assert_allclose(H, np.zeros_like(H), atol=1e-14)

    def test_fd_oracle(self, rng):
        prob, _ = random_problem(rng, complex_mode=False, d=4, p=3, n=3, T=3)
        x = 0.7 * rng.standard_normal(4)
        H = likelihood.nll_hessian_real(prob, x)
        assert np.max(np.abs(H - H.T)) < 1e-12
        eps = 1e-6
        Hfd = np.zeros_like(H)
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            Hfd[:, i] = (
                likelihood.nll_gradient(prob, x + e) - likelihood.nll_gradient(prob, x - e)
            ) / (2 * eps)
        assert np.max(np.abs(H - 0.5 * (Hfd + Hfd.T))) < 1e-5

    def test_complex_input_rejected(self, rng):
        prob, x = random_problem(rng)
        with pytest.raises(ValueError):
            likelihood.nll_hessian_real(prob, x)

    def test_population_hessian_beats_beta0(self):
        # E-Hessian at h on a certified design dominates the computable
        # strong-convexity constant.
        rng = np.random.default_rng(77)
        d, p, n, T, tau, radius = 6, 3, 3, 300, 0.5, 1.5
        cb = designs.identity_codebook(p, n)
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        qs = designs.haar_stiefel_stack(T, d, p, rng, real=True)
        prob = model.simulate_problem(qs, cb, h, tau, rng, radius=radius)
        sec = theory.certify_secant(qs, cb, h, trials=100, rng=rng, radius=radius)
        # Traceless-operator floor adjusted so it covers all secant matrices.
        kappa_eff = sec.operator_min * (1.0 - 1.0 / d)
        p_min = theory.p_min_value(n, radius, tau)
        beta0 = theory.beta0_value(kappa_eff, p_min, np.linalg.norm(h), tau)
        # Population Hessian at h: replace the selected-codeword term of the
        # sample Hessian by its expectation (the other terms do not depend
        # on the observed indices).
        H_sample = likelihood.nll_hessian_real(prob, h)
        corr = np.zeros((d, d))
        for t, pmf in enumerate(model.softmax_pmf(prob, h)):
            a_sel = lifted(prob, qs, t, prob.pmi_array[t])
            corr += np.outer(a_sel, a_sel)
            for i in range(n):
                a = lifted(prob, qs, t, i)
                corr -= pmf[i] * np.outer(a, a)
        H_pop = H_sample + (2.0 / (tau * T)) * corr
        lam_min = np.linalg.eigvalsh(H_pop)[0]
        assert lam_min >= beta0 > 0


class TestSolveMle:
    def test_single_round_aligns_with_selected_codeword(self, rng):
        prob, _, q = designed_problem(rng, d=6, p=4, n=4, T=1, tau=1.0, radius=20.0)
        x, rep = likelihood.solve_mle(
            prob, likelihood.MleConfig(init="spectral", max_iters=100)
        )
        a = lifted(prob, q, 0, prob.pmi_array[0])
        corr = abs(np.vdot(a, x[:, 0])) / np.linalg.norm(x)
        assert corr > 0.99

    def test_single_codeword_immediate_stop(self, rng):
        prob, x = random_problem(rng, p=2, n=1)
        _, rep = likelihood.solve_mle(
            prob, likelihood.MleConfig(init="explicit", x0=x)
        )
        assert rep.iterations == 1
        assert rep.stop_reason == "converged"
        assert rep.rel_change == 0.0

    def test_monte_carlo_sanity_real(self):
        rng = np.random.default_rng(3)
        d, p, n, T, tau = 3, 3, 3, 2000, 0.5
        cb = designs.identity_codebook(p, n)
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        qs = designs.haar_stiefel_stack(T, d, p, rng, real=True)
        prob = model.simulate_problem(qs, cb, h, tau, rng, radius=2.0)
        x0 = np.eye(d, 1)
        x, rep = likelihood.solve_mle(
            prob, likelihood.MleConfig(init="explicit", x0=x0, max_iters=300, rel_tol=1e-9)
        )
        assert metrics.dist(x[:, 0], h) < metrics.dist(x0[:, 0], h)
        assert likelihood.nll(prob, x[:, 0]) <= likelihood.nll(prob, h) + 1e-6

    def test_objective_monotone(self, rng):
        prob, _ = random_problem(rng, d=5, p=3, n=3, T=20, radius=3.0)
        vals = []

        orig = likelihood._grad_from_proj

        # The solver takes one gradient at the start and one at each accepted
        # point, each over a stack of one problem.
        def spy(problem, C, ex, z):
            vals.append(likelihood._value_from_proj(problem, C)[0].item())
            return orig(problem, C, ex, z)

        likelihood._grad_from_proj = spy
        try:
            likelihood.solve_mle(prob, likelihood.MleConfig(init="identity", max_iters=40))
        finally:
            likelihood._grad_from_proj = orig
        accepted = np.array(vals)
        assert accepted.size > 2
        assert np.all(np.diff(accepted) <= 1e-12)

    def test_norm_constraint_respected(self, rng):
        prob, _ = random_problem(rng, T=2, radius=0.5)
        x, rep = likelihood.solve_mle(prob, likelihood.MleConfig(init="identity", max_iters=50))
        assert np.linalg.norm(x) <= 0.5 + 1e-12

    def test_subspace_mode_stays_in_span(self, rng):
        prob, _ = random_problem(rng, d=6, p=4, n=4, T=5, radius=4.0)
        B = designs.haar_stiefel(6, 3, rng)
        prior = likelihood.SubspacePrior(B)
        x, rep = likelihood.solve_mle(
            prob, likelihood.MleConfig(init="identity", max_iters=50), prior
        )
        resid = x - B @ (B.conj().T @ x)
        assert np.linalg.norm(resid) < 1e-10
        assert rep.coefficients is not None

    def test_report_fields(self, rng):
        prob, _ = random_problem(rng, T=3, radius=2.0)
        _, rep = likelihood.solve_mle(prob, likelihood.MleConfig(max_iters=5))
        assert rep.stop_reason in ("converged", "max-iters")
        assert rep.radius == 2.0
        assert np.isfinite(rep.nll)

    @pytest.mark.parametrize("init, prior", [("spectral", False), ("identity", True)])
    def test_evaluation_counts(self, rng, init, prior):
        prob, _ = random_problem(rng, d=6, p=4, n=4, T=40, radius=3.0)
        B = likelihood.SubspacePrior(designs.haar_stiefel(6, 4, rng)) if prior else None
        cfg = likelihood.MleConfig(init=init, max_iters=60)
        _, rep = likelihood.solve_mle(prob, cfg, B)
        assert rep.n_grad_evals == rep.iterations + 1
        # Every iteration evaluates at least one trial step.
        assert rep.n_obj_evals >= rep.iterations
        _, again = likelihood.solve_mle(prob, cfg, B)
        assert (again.n_obj_evals, again.n_grad_evals) == (rep.n_obj_evals, rep.n_grad_evals)


def _grid_problem(complex_mode, r, prior, T):
    """A problem, optional subspace basis and lift map for the line-search tests."""
    rng = np.random.default_rng([11, complex_mode, r, prior, T])
    prob, _ = random_problem(
        rng, d=6, p=5, n=2, r=r, T=T, tau=0.4, complex_mode=complex_mode, radius=2.0
    )
    B = designs.haar_stiefel(6, 4, rng, real=not complex_mode) if prior else None
    lift = (lambda Z: Z) if B is None else (lambda Z: B @ Z)
    return rng, prob, B, lift


def _mle_callbacks(prob, prior):
    """The ``data`` and ``value`` that a one-problem ``solve_mle`` of prob hands ``_descend``."""
    seen, real = {}, likelihood._descend

    def spy(X, data, value, *args, **kwargs):
        seen.update(data=data, value=value)
        return real(X, data, value, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(likelihood, "_descend", spy)
        likelihood.solve_mle(prob, likelihood.MleConfig(max_iters=1), prior)
    return seen["data"], seen["value"]


_LINE_SEARCH_GRID = pytest.mark.parametrize(
    "complex_mode, r, prior",
    [(c, r, p) for c in (False, True) for r in (1, 2) for p in (False, True)],
)


class TestLineSearchAlgebra:
    """Trial objectives from carried projections against full ``nll`` calls."""

    @_LINE_SEARCH_GRID
    def test_trial_objective_matches_nll_of_projected_point(self, complex_mode, r, prior):
        rng, prob, B, lift = _grid_problem(complex_mode, r, prior, T=50)
        k = prob.d if B is None else B.shape[1]
        S = rng.standard_normal((k, r))
        if complex_mode:
            S = S + 1j * rng.standard_normal((k, r))
        S *= 1.5 / np.linalg.norm(S)
        G = likelihood.nll_gradient(prob, lift(S))
        G = G if B is None else B.conj().T @ G
        C, P = model._project(prob, lift(S)), model._project(prob, lift(G))
        # The trials take a stack; this one holds the one problem.
        stack = likelihood._stacked(prob, prob.pmi_flat[None], prob.effective_flat[None])
        data, value = _mle_callbacks(prob, None if B is None else likelihood.SubspacePrior(B))
        # The loop carries the projections below the iterate: X = [S; C], D = [G; P].
        X, D = np.concatenate((S, C))[None], np.concatenate((G, P))[None]
        inside = outside = 0
        for s in np.geomspace(1e-3, 1e3, 13) * (np.linalg.norm(S) / np.linalg.norm(G)):
            f, (ex, z), _, Z = likelihood._trial(value, data, X, D, [s], k, [prob.radius], None)
            Z, CZ = Z[:, :k], Z[:, k:]
            ref = S - s * G
            nrm = np.linalg.norm(ref)
            if nrm > prob.radius:
                ref, outside = ref * (prob.radius / nrm), outside + 1
            else:
                inside += 1
            np.testing.assert_array_equal(Z[0], ref)
            np.testing.assert_allclose(f[0], likelihood.nll(prob, lift(ref)), rtol=1e-12)
            np.testing.assert_allclose(
                likelihood._grad_from_proj(stack, CZ, ex, z)[0],
                likelihood.nll_gradient(prob, lift(ref)),
                rtol=1e-10, atol=1e-12,
            )
        assert inside and outside

    @_LINE_SEARCH_GRID
    def test_reported_nll_matches_estimate(self, complex_mode, r, prior):
        _, prob, B, _ = _grid_problem(complex_mode, r, prior, T=200)
        # The smallest positive tolerance stops the solve only at an exact
        # fixed point, so it runs on past convergence, long enough for the
        # carried projections to drift, if they did.
        cfg = likelihood.MleConfig(init="spectral", max_iters=60, rel_tol=np.finfo(float).tiny)
        X, rep = likelihood.solve_mle(prob, cfg, likelihood.SubspacePrior(B) if prior else None)
        assert rep.iterations >= 20
        np.testing.assert_allclose(rep.nll, likelihood.nll(prob, X), rtol=1e-12)


def _fdd_shaped_problem(sample, r, T=5):
    """A T-round problem at `run_fdd_experiment`'s shapes (d=32, 8 ports, hard rule)."""
    rng = np.random.default_rng([0, 3, sample])
    H, Sigma = designs.synthetic_channel(32, 4, 4, rng)
    rng = np.random.default_rng([0, 4, sample])
    qs = [designs.type1_q1(Sigma)]
    qs += [designs.structured_q(Sigma, 8, rng) for _ in range(T - 1)]
    cb = designs.dft_codebook(8, r)
    return model.simulate_problem(qs, cb, H, 1.0, rule="hard", radius=4.0)


def _first_trial_branches(monkeypatch, prob, cfg, prior=None):
    """Check every iteration's trial steps against the step rule, from a spy.

    Returns how many iterations after the first took the BB1 step and how
    many took the doubled step for want of positive curvature.
    """
    calls = []
    orig = likelihood._trial

    # A one-problem solve passes stacks of one and one-element step lists.
    # Each X and D holds the iterate and its gradient in its first k rows.
    def spy(value, data, X, D, s, k, radius, at):
        out = orig(value, data, X, D, s, k, radius, at)
        calls.append((X, D[0, :k], s[0], out[3]))
        return out

    monkeypatch.setattr(likelihood, "_trial", spy)
    _, rep = likelihood.solve_mle(prob, cfg, prior)
    # Trials of one iteration share the iterate; the accepted trial's point
    # is the next iteration's iterate.
    iters = []
    for X, G, s, Z in calls:
        if not iters or X is not iters[-1][0]:
            iters.append((X, G, []))
        iters[-1][2].append((s, Z))
    assert len(iters) == rep.iterations >= 3
    step0 = prob.tau / (4.0 * prob.radius**2)
    bb = doubled = 0
    for (X0, G0, trials0), (X1, G1, trials1) in zip(iters, iters[1:]):
        k = len(G0)
        dS, dG = X1[0, :k] - X0[0, :k], G1 - G0
        curv = np.sum(dS.conj() * dG).real
        if curv > 0:
            bb += 1
            want = np.clip(np.sum(np.abs(dS) ** 2) / curv, 1e-20 * step0, 1e9 * step0)
        else:
            doubled += 1
            accepted = next(s for s, Z in trials0 if Z is X1)
            want = min(2.0 * accepted, 1e9 * step0)
        steps = [s for s, _ in trials1]
        np.testing.assert_allclose(steps[0], want, rtol=1e-12)
        # Later trials only halve.
        assert all(b == a / 2.0 for a, b in zip(steps, steps[1:]))
    return bb, doubled


class TestStepRule:
    """After the first iteration, the first trial is the clamped BB1 step."""

    @_LINE_SEARCH_GRID
    def test_first_trial_is_clamped_bb1_step(self, complex_mode, r, prior, monkeypatch):
        _, prob, B, _ = _grid_problem(complex_mode, r, prior, T=200)
        cfg = likelihood.MleConfig(init="spectral", max_iters=60, rel_tol=1e-9)
        bb, _ = _first_trial_branches(
            monkeypatch, prob, cfg, likelihood.SubspacePrior(B) if prior else None
        )
        assert bb > 0

    def test_non_positive_curvature_doubles_the_accepted_step(self, monkeypatch):
        prob = _fdd_shaped_problem(1, 1)
        cfg = likelihood.MleConfig(init="spectral", max_iters=200, rel_tol=1e-9)
        bb, doubled = _first_trial_branches(monkeypatch, prob, cfg)
        assert bb > 0 and doubled > 0

    @pytest.mark.parametrize("r", [1, 2])
    def test_loose_tolerance_does_not_stop_after_one_step(self, r):
        # At `run_fdd_experiment`'s rel_tol of 1e-3, a first step as small as
        # tau/(4 R^2) barely moves the spectral start and would end the solve.
        prob = _fdd_shaped_problem(0, r)
        _, loose = likelihood.solve_mle(prob, likelihood.MleConfig(init="spectral", n_streams=r))
        tight_cfg = likelihood.MleConfig(init="spectral", n_streams=r, rel_tol=1e-9, max_iters=2000)
        _, tight = likelihood.solve_mle(prob, tight_cfg)
        assert tight.stop_reason == "converged"
        assert loose.iterations > 1
        assert abs(loose.nll - tight.nll) <= 1e-3


class TestPopulationExcessRisk:
    def test_zero_at_truth(self, rng):
        prob, h = random_problem(rng)
        assert likelihood.population_excess_risk(prob, h, h) == 0.0

    def test_phase_invariance(self, rng):
        prob, h = random_problem(rng)
        assert likelihood.population_excess_risk(prob, h, np.exp(0.9j) * h) < 1e-12

    def test_enumeration_oracle(self, rng):
        from scipy.special import logsumexp, softmax

        for _ in range(10):
            prob, h, q = designed_problem(rng, d=4, p=3, n=3, T=3)
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            risk = likelihood.population_excess_risk(prob, h, x)
            enum = 0.0
            gains_x = oracle_gains(prob, q, x) / prob.tau
            gains_h = oracle_gains(prob, q, h) / prob.tau
            for t in range(prob.T):
                pmf, gx, gh = softmax(gains_h[t]), gains_x[t], gains_h[t]
                for i in range(3):
                    ell_x = logsumexp(gx - gx[i])
                    ell_h = logsumexp(gh - gh[i])
                    enum += pmf[i] * (ell_x - ell_h)
            enum /= prob.T
            assert abs(risk - enum) < 1e-12

    def test_nonnegative(self, rng):
        for _ in range(10):
            prob, h = random_problem(rng)
            x = rng.standard_normal(prob.d) + 1j * rng.standard_normal(prob.d)
            assert likelihood.population_excess_risk(prob, h, x) >= 0.0

    def test_lower_bound_by_lifted_distance(self):
        # risk >= (kappa0 p_min^2 / 4 tau^2) ||xx^T - hh^T||_F^2 on a
        # certified real design
        rng = np.random.default_rng(21)
        d, p, n, T, tau, radius = 5, 3, 3, 400, 0.6, 1.5
        cb = designs.identity_codebook(p, n)
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        qs = designs.haar_stiefel_stack(T, d, p, rng, real=True)
        prob = model.simulate_problem(qs, cb, h, tau, rng, radius=radius)
        sec = theory.certify_secant(qs, cb, h, trials=50, rng=rng, radius=radius)
        kappa_eff = sec.operator_min * (1.0 - 1.0 / d)
        p_min = theory.p_min_value(n, radius, tau)
        for _ in range(20):
            x = rng.standard_normal(d)
            x *= rng.uniform(0.2, radius) / np.linalg.norm(x)
            risk = likelihood.population_excess_risk(prob, h, x)
            lifted = np.linalg.norm(np.outer(x, x) - np.outer(h, h)) ** 2
            assert risk >= kappa_eff * p_min**2 / (4 * tau**2) * lifted - 1e-12


# The reduction formulas used before the shared ``model._row_lse`` kernel:
# row max along the short codeword axis, 2-D fancy-index selection.
def _ref_scores(problem, X):
    return model.all_gains(problem, X) / problem.tau


def _ref_nll(problem, X):
    scores = _ref_scores(problem, X)
    mx = scores.max(axis=1, keepdims=True)
    z = np.exp(scores - mx).sum(axis=1)
    sel = scores[np.arange(problem.T), problem.pmi_array]
    return float(np.mean(np.log(z) + mx[:, 0] - sel))


def _ref_gradient(problem, X):
    T, r = problem.T, problem.codebook.r
    C = model._project(problem, X)
    scores = model._gains_from_proj(C, problem.codebook) / problem.tau
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = np.repeat(ex / ex.sum(axis=1)[:, None], r, axis=1)
    cols = problem.pmi_array[:, None] * r + np.arange(r)[None, :]
    weights[np.arange(T)[:, None], cols] -= 1.0
    return (2.0 / (problem.tau * T)) * (problem.effective_flat @ (weights.reshape(-1, 1) * C))


def _ref_pmf(problem, X):
    scores = _ref_scores(problem, X)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestReductionKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_bitwise_equal_to_reference_formulas(self, n, r, complex_mode):
        rng = np.random.default_rng([n, r, complex_mode])
        p = n * r + 1
        prob, _ = random_problem(
            rng, d=p + 2, p=p, n=n, r=r, T=60, tau=0.3, complex_mode=complex_mode
        )
        for scale in (0.1, 1.0, 4.0):
            X = rng.standard_normal((prob.d, r))
            if complex_mode:
                X = X + 1j * rng.standard_normal((prob.d, r))
            X *= scale
            assert likelihood.nll(prob, X) == _ref_nll(prob, X)
            np.testing.assert_array_equal(likelihood.nll_gradient(prob, X), _ref_gradient(prob, X))
            np.testing.assert_array_equal(model.softmax_pmf(prob, X), _ref_pmf(prob, X))

    def test_value_and_gradient_share_the_nll_value(self, rng):
        # The solver's value path: projections, then _value_from_proj.
        prob, x = random_problem(rng, d=5, p=4, n=4, T=30)
        f, _ = likelihood._value_from_proj(prob, model._project(prob, 2.0 * x[:, None]))
        assert f == likelihood.nll(prob, 2.0 * x)


class TestShortRowSum:
    """The codeword-major sum of short rows has the bits of the row-wise sum.

    This rests on NumPy adding rows shorter than 8 in sequence, which it
    does not promise; a NumPy that sums them otherwise fails here.
    """

    @pytest.mark.parametrize("n", range(1, 10))
    def test_z_equals_rowwise_sum(self, n):
        rng = np.random.default_rng([23, n])
        T = 5000
        scores = rng.standard_normal((T, n)) * 10.0 ** rng.uniform(-3, 3, (T, n))
        ex, z, lse = model._row_lse(scores)
        ref = np.exp(scores - scores.max(axis=1, keepdims=True))
        # Below N = 8 ex is the transposed view of the codeword-major copy.
        assert ex.flags.owndata == (n >= 8)
        np.testing.assert_array_equal(ex, ref)
        assert np.all(z == ref.sum(axis=1))
        assert np.all(lse == np.log(z) + scores.max(axis=1))


def _spectral(prob, q, basis=None, hi=10.0):
    """``prob``'s spectral start on the ball of radius hi, from the stacked ``_start`` of one problem
    rebuilt over its design stack q."""
    prob = model.EstimationProblem.from_arrays(q, prob.pmi_array, prob.codebook, prob.tau, radius=hi)
    stack = likelihood._stacked(prob, prob.pmi_flat[None], prob.effective_flat[None])
    lift = (lambda Z: Z) if basis is None else (lambda Z: np.stack([basis @ z for z in Z]))
    cfg = likelihood.MleConfig(init="spectral")
    bases = None if basis is None else [basis]
    return likelihood._start([prob], cfg, bases, prob.codebook.r, stack, lift)[0][0]


def _scan_reference(prob, basis, hi):
    """The 41 full ``nll`` calls along the spectral direction; first minimum wins.

    The winner is then put on the ball of radius hi, as every start is.
    """
    X = designs.eigvecs_descending(model.pmi_covariance(prob, basis), prob.codebook.r)
    best, best_f = X, np.inf
    for alpha in np.geomspace(0.05, hi, 41):
        f = likelihood.nll(prob, alpha * X if basis is None else basis @ (alpha * X))
        if f < best_f:
            best, best_f = alpha * X, f
    nrm = np.linalg.norm(best)
    return best * (hi / nrm) if nrm > hi else best


class TestSpectralScan:
    @pytest.mark.parametrize("prior", [False, True])
    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_matches_full_nll_scan(self, prior, complex_mode):
        rng = np.random.default_rng([7, prior, complex_mode])
        for _ in range(10):
            prob, _, q = designed_problem(rng, d=6, p=3, n=3, T=80, complex_mode=complex_mode)
            basis = designs.haar_stiefel(6, 4, rng, real=not complex_mode) if prior else None
            for hi in (0.5, 10.0):
                np.testing.assert_array_equal(
                    _spectral(prob, q, basis, hi), _scan_reference(prob, basis, hi)
                )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_candidates_are_never_chosen(self, rng):
        # alpha^2 overflows for alpha > 1e154, so the top of this grid gives NaN objectives.
        prob, _, q = designed_problem(rng, d=5, p=3, n=3, T=40)
        x0 = _spectral(prob, q, hi=1e300)
        assert np.all(np.isfinite(x0))
        np.testing.assert_array_equal(x0, _scan_reference(prob, None, 1e300))

    def _scripted(self, monkeypatch, prob, X, values):
        # Scale j of geomspace(0.05, 10, 41) reads values[j], in whatever order the
        # search asks for it; the scale is read off the score matrix.  Returns the
        # list of scale indices asked for.
        top, a2, asked = model.all_gains(prob, X).max() / prob.tau, np.geomspace(0.05, 10.0, 41) ** 2, []

        def scripted(problem, scores, picked=None):
            asked.extend(int(np.abs(np.log(s.max() / top / a2)).argmin()) for s in scores)
            return np.array([values[j] for j in asked[-len(scores):]]), None

        monkeypatch.setattr(likelihood, "_value_from_scores", scripted)
        return asked

    def test_first_minimum_wins(self, rng, monkeypatch):
        prob, _, q = designed_problem(rng, d=5, p=3, n=3, T=20)
        X = designs.eigvecs_descending(model.pmi_covariance(prob), 1)
        self._scripted(monkeypatch, prob, X, [5.0, np.nan, 2.0, np.inf, 1.0, 1.0] + [3.0] * 35)
        np.testing.assert_array_equal(_spectral(prob, q), np.geomspace(0.05, 10.0, 41)[4] * X)

    def test_all_non_finite_returns_unscaled_direction(self, rng, monkeypatch):
        prob, _, q = designed_problem(rng, d=5, p=3, n=3, T=20)
        X = designs.eigvecs_descending(model.pmi_covariance(prob), 1)
        self._scripted(monkeypatch, prob, X, [np.nan, np.inf] * 20 + [np.nan])
        np.testing.assert_array_equal(_spectral(prob, q), X)

    # Unimodal scripts whose search meets a tie, a gap below the margin or a
    # non-finite value: the full scan's first minimum wins, after all 41 scales.
    _FALLBACKS = {
        "plateau": [5.0 - 0.1 * j for j in range(10)] + [4.0] * 31,
        "dip below the margin": [2.0] * 25 + [2.0 - 1e-12] + [2.0] * 15,
        "gap at the margin": [3.0 - 0.1 * j for j in range(20)] + [1.0 + 1e-10 * (j - 19) for j in range(20, 41)],
        "non-finite probe": [3.0 - 0.1 * j for j in range(20)] + [np.nan] + [1.0 + 0.1 * j for j in range(20)],
        "overflow at the top": [2.0 - 0.01 * j for j in range(30)] + [1.0] + [np.inf] * 10,
    }

    @pytest.mark.parametrize("case", sorted(_FALLBACKS))
    def test_tie_or_non_finite_value_takes_the_full_scan(self, rng, monkeypatch, case):
        prob, _, q = designed_problem(rng, d=5, p=3, n=3, T=20)
        X = designs.eigvecs_descending(model.pmi_covariance(prob), 1)
        values = self._FALLBACKS[case]
        f = np.where(np.isnan(values), np.inf, values)
        asked = self._scripted(monkeypatch, prob, X, values)
        np.testing.assert_array_equal(_spectral(prob, q), np.geomspace(0.05, 10.0, 41)[f.argmin()] * X)
        assert asked[-41:] == list(range(41)) and len(asked) <= 41 + 8

    def test_unimodal_values_take_the_search_alone(self, rng, monkeypatch):
        prob, _, q = designed_problem(rng, d=5, p=3, n=3, T=20)
        X = designs.eigvecs_descending(model.pmi_covariance(prob), 1)
        grid = np.geomspace(0.05, 10.0, 41)
        for best in range(41):
            # Slopes 1 and sqrt(2) on the two sides: no two scales tie.
            values = [1.0 + (best - j if j < best else np.sqrt(2.0) * (j - best)) for j in range(41)]
            asked = self._scripted(monkeypatch, prob, X, values)
            # rtol: the top scale's start is rescaled onto the ball of radius 10.
            np.testing.assert_allclose(_spectral(prob, q), grid[best] * X, rtol=1e-14)
            assert len(asked) == len(set(asked)) <= 8
