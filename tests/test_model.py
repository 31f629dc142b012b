import numpy as np
import pytest
from scipy.special import softmax
from scipy.stats import chisquare

from pmichannel import crb, designs, likelihood, model
from conftest import designed_problem, lifted, oracle_gains, random_problem, records


def make_problem(qs, cb, pmis, tau=1.0, cqis=None):
    rounds = tuple(
        model.FeedbackRound(Q=q, pmi=i, cqi=None if cqis is None else cqis[t])
        for t, (q, i) in enumerate(zip(qs, pmis))
    )
    return model.EstimationProblem(rounds=rounds, codebook=cb, tau=tau)


class TestTypes:
    def test_codebook_unit_norm_required(self):
        with pytest.raises(ValueError):
            model.Codebook(V=np.array([[2.0], [0.0]]))

    @pytest.mark.parametrize("r", [1.5, True, 0, -1, "1", None])
    def test_codeword_width_must_be_a_positive_int(self, r):
        with pytest.raises(ValueError, match="positive int"):
            model.Codebook(np.eye(3), r=r)

    def test_numpy_int_width_accepted(self):
        assert model.Codebook(np.eye(4), r=np.int64(2)).n_codewords == 2

    @pytest.mark.parametrize("V, r", [
        (np.full((2, 2), np.nan), 2),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), 2),
        (np.eye(2) * np.array([1.0, np.nan]), 1),
        (np.zeros((3, 0)), 1),
    ])
    def test_codebook_must_be_finite_with_a_codeword(self, V, r):
        with pytest.raises(ValueError, match="finite 2-D array with at least one codeword"):
            model.Codebook(V, r=r)

    def test_round_requires_orthonormal_q(self):
        # FeedbackRound is a plain record; the problem boundary checks Q.
        with pytest.raises(ValueError):
            make_problem([np.ones((3, 2))], designs.dft_codebook(2), [0])

    def test_cqi_stored_as_float32(self):
        q = np.eye(3)[:, :2]
        prob = make_problem([q], designs.dft_codebook(2), [0], cqis=[0.1])
        assert prob.cqi_array[0] == float(np.float32(0.1))

    def test_pmi_range_checked(self):
        cb = designs.dft_codebook(2)
        with pytest.raises(ValueError):
            make_problem([np.eye(2)], cb, [5])

    def test_tau_positive(self):
        cb = designs.dft_codebook(2)
        with pytest.raises(ValueError):
            make_problem([np.eye(2)], cb, [0], tau=0.0)

    def test_from_arrays_matches_rounds(self, rng):
        prob, _, q = designed_problem(rng, rule="hard", attach_cqi=True)
        arr = model.EstimationProblem.from_arrays(
            q, prob.pmi_array, prob.codebook, prob.tau, cqi=prob.cqi_array
        )
        rebuilt = model.EstimationProblem(records(prob, q), prob.codebook, prob.tau)
        for a in (arr, rebuilt):
            for name in ("pmi_array", "cqi_array", "effective_flat", "selected"):
                assert getattr(a, name).tobytes() == getattr(prob, name).tobytes()

    def test_immutable(self, rng):
        prob, _ = random_problem(rng)
        with pytest.raises(AttributeError):
            prob.tau = 2.0


class TestBoundary:
    """Bad feedback fails where the problem is built, not as wrong numbers."""

    @pytest.mark.parametrize("pmi", [-1, 1.5, np.float64(1.0)])
    def test_bad_pmi(self, pmi):
        with pytest.raises(ValueError):
            make_problem([np.eye(2)], designs.dft_codebook(2), [pmi])

    @pytest.mark.parametrize("cqi", [np.nan, np.inf, -0.5])
    def test_bad_cqi(self, cqi):
        with pytest.raises(ValueError):
            make_problem([np.eye(2)], designs.dft_codebook(2), [0], cqis=[cqi])

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0])
    def test_bad_tau(self, tau):
        with pytest.raises(ValueError):
            make_problem([np.eye(2)], designs.dft_codebook(2), [0], tau=tau)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0])
    def test_bad_radius(self, radius):
        rounds = (model.FeedbackRound(Q=np.eye(2), pmi=0),)
        with pytest.raises(ValueError):
            model.EstimationProblem(rounds, designs.dft_codebook(2), 1.0, radius=radius)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 1, 2, 2)])
    def test_q_stack_rank(self, shape):
        q = np.broadcast_to(np.eye(2), shape)
        with pytest.raises(ValueError):
            model.EstimationProblem.from_arrays(q, np.zeros(1, dtype=int), designs.dft_codebook(2), 1.0)

    def test_pmi_count(self):
        with pytest.raises(ValueError):
            model.EstimationProblem.from_arrays(
                np.eye(2)[None], np.zeros(2, dtype=int), designs.dft_codebook(2), 1.0
            )


class TestPrefix:
    def test_shares_arrays(self, rng):
        prob, _ = random_problem(rng, T=5, attach_cqi=True, rule="hard")
        pre = prob.prefix(3)
        assert pre.T == 3 and pre.radius == prob.radius and pre.has_cqi
        for name in ("pmi_array", "cqi_array", "effective_flat", "selected"):
            assert np.shares_memory(getattr(pre, name), getattr(prob, name))

    def test_one_lift_shared_by_prefix(self, rng):
        # p = 3 differs from N*r = 2, so only the lifted codebook has d*T*N*r entries.
        prob, x = random_problem(rng, d=5, p=3, n=2, T=6)
        likelihood.nll_gradient(prob, x)
        crb.fisher(prob, x)
        lift_size = prob.d * prob.T * prob.n_codewords

        def lifts(problem, size):
            return sorted(
                k for k, v in vars(problem).items() if isinstance(v, np.ndarray) and v.size == size
            )

        assert lifts(prob, lift_size) == ["effective_flat"]
        pre = prob.prefix(4)
        assert lifts(pre, 4 * lift_size // prob.T) == ["effective_flat"]
        assert np.shares_memory(pre.effective_flat, prob.effective_flat)

    @pytest.mark.parametrize("T", [0, 6])
    def test_range(self, rng, T):
        prob, _ = random_problem(rng, T=5)
        with pytest.raises(ValueError):
            prob.prefix(T)

    def test_at_another_temperature(self, rng):
        prob, x, q = designed_problem(rng, T=5, tau=0.7, attach_cqi=True, rule="hard")
        pre = prob.prefix(3, 5.0)
        assert pre.tau == 5.0 and prob.tau == 0.7 and prob.prefix(3).tau == 0.7
        for name in ("pmi_array", "cqi_array", "effective_flat", "selected"):
            assert np.shares_memory(getattr(pre, name), getattr(prob, name))
        rebuilt = model.EstimationProblem.from_arrays(
            q[:3], prob.pmi_array[:3], prob.codebook, 5.0, prob.cqi_array[:3]
        )
        assert likelihood.nll(pre, x) == likelihood.nll(rebuilt, x)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.inf, np.nan])
    def test_bad_temperature_refused(self, rng, tau):
        prob, _ = random_problem(rng, T=5)
        with pytest.raises(ValueError, match="positive finite tau"):
            prob.prefix(3, tau)


class TestEffectiveCodeword:
    def test_identity_design_returns_codeword(self):
        cb = model.Codebook(V=np.eye(2))
        q = np.eye(4)[:, :2]
        prob = make_problem([q], cb, [0])
        np.testing.assert_allclose(prob.effective_flat[:, 0], np.eye(4)[:, 0])

    def test_isometry_preserves_norm(self, rng):
        prob, _ = random_problem(rng)
        np.testing.assert_allclose(np.linalg.norm(prob.effective_flat, axis=0), 1.0, atol=1e-12)

    def test_matches_direct_product(self):
        rng = np.random.default_rng(7)
        q = designs.haar_stiefel(4, 2, rng)
        cb = model.Codebook(V=np.eye(2))
        prob = make_problem([q], cb, [0])
        np.testing.assert_allclose(prob.effective_flat[:, 0], q @ np.eye(2)[:, 0], atol=1e-14)


class TestGain:
    def test_zero_input(self, rng):
        prob, _ = random_problem(rng)
        assert np.all(model.all_gains(prob, np.zeros(prob.d)) == 0.0)

    def test_aligned_unit_vector(self, rng):
        prob, _, q = designed_problem(rng)
        assert abs(model.all_gains(prob, lifted(prob, q, 0, 1))[0, 1] - 1.0) < 1e-12

    def test_entrywise_oracle(self, rng):
        prob, _, q = designed_problem(rng, d=5, p=4, n=2, r=2)
        X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        gains = model.all_gains(prob, X)
        assert gains.shape == (prob.T, prob.n_codewords)
        for t in range(prob.T):
            for i in range(prob.n_codewords):
                proj = prob.codebook.codeword(i).conj().T @ q[t].conj().T @ X
                brute = sum(
                    abs(proj[a, b]) ** 2 for a in range(proj.shape[0]) for b in range(proj.shape[1])
                )
                assert abs(gains[t, i] - brute) < 1e-12

    def test_shape_mismatch(self, rng):
        prob, _ = random_problem(rng)
        with pytest.raises(ValueError):
            model.all_gains(prob, np.zeros(prob.d + 1))

    @pytest.mark.parametrize("complex_problem", [False, True])
    @pytest.mark.parametrize("complex_x", [False, True])
    @pytest.mark.parametrize("m", [1, 2])
    def test_projection_is_conjugate_transpose_product(self, rng, complex_problem, complex_x, m):
        # Gains cannot see a missing conjugate; the projections themselves can.
        prob, _ = random_problem(rng, d=5, p=4, n=3, T=7, complex_mode=complex_problem)
        X = rng.standard_normal((prob.d, m))
        if complex_x:
            X = X + 1j * rng.standard_normal((prob.d, m))
        C = model._project(prob, X)
        assert C.shape == (prob.T * prob.n_codewords, m)
        np.testing.assert_allclose(C, prob.effective_flat.conj().T @ X, rtol=1e-13)


class TestSoftmaxPmf:
    def test_zero_input_uniform(self, rng):
        prob, _ = random_problem(rng)
        pmf = model.softmax_pmf(prob, np.zeros(prob.d))
        np.testing.assert_allclose(pmf, np.full((prob.T, prob.n_codewords), 1 / prob.n_codewords))

    def test_two_codeword_formula(self):
        # gains (1, 0), tau=1 -> (e/(1+e), 1/(1+e))
        cb = model.Codebook(V=np.eye(2))
        prob = make_problem([np.eye(2)], cb, [0], tau=1.0)
        pmf = model.softmax_pmf(prob, np.array([1.0, 0.0]))
        np.testing.assert_allclose(pmf, [[np.e / (1 + np.e), 1 / (1 + np.e)]], rtol=1e-12)

    def test_sums_to_one_and_positive(self, rng):
        for _ in range(20):
            prob, x = random_problem(rng)
            pmf = model.softmax_pmf(prob, 3.0 * x)
            np.testing.assert_allclose(pmf.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(pmf > 0)

    def test_matches_scipy_softmax_of_oracle_gains(self, rng):
        for r in (1, 2):
            prob, _, q = designed_problem(rng, d=6, p=4, n=2, r=r, T=5, tau=0.4)
            X = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
            pmf = model.softmax_pmf(prob, X)
            assert pmf.shape == (prob.T, prob.n_codewords)
            np.testing.assert_allclose(pmf, softmax(oracle_gains(prob, q, X) / prob.tau, axis=1), atol=1e-12)

    def test_per_round_call_is_a_type_error(self, rng):
        prob, x = random_problem(rng)
        with pytest.raises(TypeError):
            model.softmax_pmf(prob, 0, x)

    def test_phase_invariance(self, rng):
        prob, x = random_problem(rng)
        for phi in (0.3, 1.2, 4.0):
            np.testing.assert_allclose(
                model.softmax_pmf(prob, x),
                model.softmax_pmf(prob, np.exp(1j * phi) * x),
                atol=1e-12,
            )

    def test_overflow_safe(self, rng):
        prob, x = random_problem(rng, tau=1e-8)
        pmf = model.softmax_pmf(prob, 10.0 * x)
        assert np.isfinite(pmf).all()
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, atol=1e-12)

    def test_mass_concentrates_as_tau_drops(self, rng):
        prob, x, q = designed_problem(rng)
        win = np.argmax(oracle_gains(prob, q, x), axis=1)
        last = np.zeros(prob.T)
        for tau in (2.0, 1.0, 0.5, 0.1, 0.02):
            prob_t = model.EstimationProblem.from_arrays(q, prob.pmi_array, prob.codebook, tau)
            val = model.softmax_pmf(prob_t, x)[np.arange(prob.T), win]
            assert np.all(val >= last - 1e-12)
            last = val
        assert last[0] > 0.999


class TestSamplePmi:
    """The softmax rule of simulate_problem."""

    def test_single_codeword(self, rng):
        prob, x, q = designed_problem(rng, p=2, n=1, T=20)
        sim = model.simulate_problem(q, prob.codebook, x, prob.tau, rng)
        assert np.all(sim.pmi_array == 0)

    def test_degenerate_temperature_gives_argmax(self, rng):
        prob, x, q = designed_problem(rng)
        win = np.argmax(oracle_gains(prob, q, x), axis=1)
        for _ in range(20):
            sim = model.simulate_problem(q, prob.codebook, x, 1e-6, rng)
            np.testing.assert_array_equal(sim.pmi_array, win)

    def test_frequencies_match_pmf(self):
        rng = np.random.default_rng(5)
        prob, x, q = designed_problem(rng, d=4, p=4, n=4, tau=0.8)
        pmf = model.softmax_pmf(prob, x)[0]
        draws = 20000
        # One design repeated: every round is an independent draw from round 0's pmf.
        qs = np.broadcast_to(q[0], (draws, 4, 4))
        sim = model.simulate_problem(qs, prob.codebook, x, prob.tau, np.random.default_rng(99))
        counts = np.bincount(sim.pmi_array, minlength=4)
        stat = chisquare(counts, pmf * draws)
        assert stat.pvalue > 0.001

    def test_bit_reproducible(self, rng):
        prob, x, q = designed_problem(rng, T=10)
        a, b = (
            model.simulate_problem(q, prob.codebook, x, prob.tau, np.random.default_rng(3))
            for _ in range(2)
        )
        np.testing.assert_array_equal(a.pmi_array, b.pmi_array)


class TestHardPmiAndCqi:
    """The hard rule and the CQI reports of simulate_problem."""

    def test_aligned_channel_selects_codeword(self, rng):
        prob, _, q = designed_problem(rng, n=3)
        sim = model.simulate_problem(
            q[:1], prob.codebook, lifted(prob, q, 0, 2), prob.tau, rule="hard"
        )
        assert sim.pmi_array[0] == 2

    def test_tie_breaks_to_smallest_index(self):
        # codewords e_1 and e_2; x has equal overlap with both
        cb = model.Codebook(V=np.eye(3)[:, 1:])
        x = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        sim = model.simulate_problem([np.eye(3)], cb, x, 1.0, rule="hard")
        assert sim.pmi_array[0] == 0

    def test_exhaustive_scan_oracle(self, rng):
        for _ in range(10):
            prob, _, q = designed_problem(rng, d=5, p=4, n=4)
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            sim = model.simulate_problem(q, prob.codebook, x, prob.tau, rule="hard")
            np.testing.assert_array_equal(sim.pmi_array, np.argmax(oracle_gains(prob, q, x), axis=1))

    def test_cqi_zero_channel(self, rng):
        prob, _, q = designed_problem(rng)
        sim = model.simulate_problem(
            q, prob.codebook, np.zeros(prob.d), prob.tau, rule="hard", attach_cqi=True
        )
        assert np.all(sim.cqi_array == 0.0)

    def test_cqi_unit_at_selected_codeword(self, rng):
        prob, _, q = designed_problem(rng)
        i = prob.pmi_array[0]
        sim = model.simulate_problem(
            q[:1], prob.codebook, lifted(prob, q, 0, i), prob.tau, rule="hard", attach_cqi=True
        )
        assert sim.pmi_array[0] == i
        assert abs(sim.cqi_array[0] - 1.0) < 1e-6

    def test_cqi_is_float32_rounded_gain(self, rng):
        prob, x, q = designed_problem(rng, T=8)
        for rule in ("hard", "softmax"):
            sim = model.simulate_problem(
                q, prob.codebook, 1.7 * x, prob.tau, rng, rule=rule, attach_cqi=True
            )
            g = model.all_gains(sim, 1.7 * x)[np.arange(sim.T), sim.pmi_array]
            np.testing.assert_array_equal(sim.cqi_array, g.astype(np.float32).astype(float))


class TestSimulate:
    def test_hard_rule_matches_hard_pmi(self, rng):
        prob, x, q = designed_problem(rng, rule="hard")
        np.testing.assert_array_equal(prob.pmi_array, np.argmax(oracle_gains(prob, q, x), axis=1))

    @pytest.mark.parametrize("rule", ["softmax", "hard"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_channel_refused(self, rng, rule, bad):
        prob, x, q = designed_problem(rng)
        x[1] = bad
        with pytest.raises(ValueError, match="channel must be finite with d=4"):
            model.simulate_problem(q, prob.codebook, x, prob.tau, rng, rule=rule)

    @pytest.mark.parametrize("shape", [(3,), (5,), (5, 2), (4, 2, 1), ()])
    def test_channel_of_wrong_length_refused(self, rng, shape):
        prob, _, q = designed_problem(rng)
        with pytest.raises(ValueError, match="d=4"):
            model.simulate_problem(q, prob.codebook, np.ones(shape), prob.tau, rng)

    def test_softmax_needs_rng(self, rng):
        cb = designs.dft_codebook(2)
        with pytest.raises(ValueError):
            model.simulate_rounds([np.eye(2)], cb, np.ones(2), 1.0, rule="softmax")

    def test_softmax_stream_matches_scalar_sampling(self, rng):
        # One uniform per round in round order, inverse-CDF over that round's pmf.
        prob, x, q = designed_problem(rng, T=50, tau=0.3)
        sim = model.simulate_problem(q, prob.codebook, x, prob.tau, np.random.default_rng(8))
        gen = np.random.default_rng(8)
        expected = []
        for pmf in model.softmax_pmf(prob, x):
            idx = int(np.searchsorted(np.cumsum(pmf), gen.random(), side="right"))
            expected.append(min(idx, prob.n_codewords - 1))
        assert sim.pmi_array.tolist() == expected

    def test_attach_cqi(self, rng):
        prob, x, q = designed_problem(rng, rule="hard", attach_cqi=True)
        g = oracle_gains(prob, q, x)[np.arange(prob.T), prob.pmi_array]
        np.testing.assert_allclose(prob.cqi_array, g, rtol=1e-6)
        assert all(float(np.float32(c)) == c for c in prob.cqi_array)
