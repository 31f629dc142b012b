"""The descents' stop and step rules: parity with the aligned change, zero-iterate edges,
the phase-retrieval trial steps, config boundaries.

``solve_mle`` and the phase-retrieval descents, all runs of
``likelihood._descend``, stop on the plain relative change
||S_new - S||_F / ||S||_F.  Their objectives are invariant under S -> S U and
each step is along a gradient G with S^H G Hermitian, so the plain change and
the change minimized over the gauge cross ``rel_tol`` at the same iteration.
The AM step is preconditioned by the inverse Gram matrix and drifts along the
phase orbit, so the AM loop keeps the phase-aligned change.  Phase retrieval
takes ``solve_mle``'s Barzilai-Borwein first trial step after a first
iteration that only halves step0.
"""

import math
from functools import partial

import numpy as np
import pytest

from conftest import random_problem
from pmichannel import baselines, designs, experiments, likelihood, model


def _aligned_rel_change(X_new, X_old):
    """min over unitary R of ||X_new R - X_old||_F / ||X_old||_F; +inf for a zero X_old.

    One column: the phase arg(X_old^H X_new), a sign for real input.  More
    columns: the polar factor of X_new^H X_old.
    """
    X_new, X_old = np.asarray(X_new), np.asarray(X_old)
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


def _plain_rel_change(X_new, X_old):
    return float(np.linalg.norm(X_new - X_old) / np.linalg.norm(X_old))


def _first_below(iterates, rel_tol, ratio):
    """First iteration k >= 1 with ratio(S_k, S_{k-1}) < rel_tol, or None."""
    for k in range(1, len(iterates)):
        if ratio(iterates[k], iterates[k - 1]) < rel_tol:
            return k
    return None


# ----------------------------------------------------------------------
# Iterate sequences of the three descents
# ----------------------------------------------------------------------


def _mle_iterates(monkeypatch, problem, cfg, prior=None):
    """Iterates S_0 .. S_K of one solve, from a spy on the line-search trials, and the report."""
    seen = []
    orig = likelihood._trial

    # A one-problem solve passes its iterate to the trials as the first k rows of a stack of one.
    def spy(value, data, X, D, s, k, *rest):
        if not seen or X is not seen[-1][0]:
            seen.append((X, k))
        return orig(value, data, X, D, s, k, *rest)

    monkeypatch.setattr(likelihood, "_trial", spy)
    X, rep = likelihood.solve_mle(problem, cfg, prior)
    monkeypatch.undo()
    iterates = [S[0, :k] for S, k in seen] + [X if prior is None else rep.coefficients]
    assert len(iterates) == rep.iterations + 1
    return iterates, rep


def _captured_calls(monkeypatch, name, run):
    """Arguments and results of every call ``run()`` makes to ``baselines.<name>``."""
    calls = []
    orig = getattr(baselines, name)

    def spy(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(baselines, name, spy)
    run()
    monkeypatch.undo()
    return orig, calls


# The loops carry nothing across iterations that max_iters changes, so a
# replay with max_iters = k ends at the k-th iterate of the full call.


def _pr_iterates(monkeypatch, problem, prior, r, cfg):
    """(iterates, iterations, stop, loss name) of every descent of one phase-retrieval estimate."""
    run = partial(baselines.subspace_pr_estimate, problem, prior, r, cfg)
    orig, calls = _captured_calls(monkeypatch, "_descend", run)
    runs = []
    # A one-problem estimate runs each descent as a stack of one.
    for (X, data, value, grad, step0, max_iters, rel_tol), [(_, _, iters, _, stop, _)] in calls:
        replays = [orig(X, data, value, grad, step0, k, rel_tol) for k in range(1, iters + 1)]
        its = [X[0]] + [replay[0][0] for replay in replays]
        runs.append((its, iters, stop, value.__name__))
    return runs


def _am_iterates(monkeypatch, problem, r, cfg):
    """(iterates, iterations, stop) of every ``_am_phase_ls_loop`` of one AM estimate."""
    if r == 1:
        run = partial(baselines.am_estimate_single, problem, cfg)
    else:
        run = partial(baselines.am_estimate_multi, problem, r, cfg, np.random.default_rng(3))
    orig, calls = _captured_calls(monkeypatch, "_am_phase_ls_loop", run)
    runs = []
    for (rows, targets, lam, x0, max_iters, rel_tol), [(_, rep)] in calls:
        its = [x0[0]] + [
            orig(rows, targets, lam, x0, k, rel_tol)[0][0] for k in range(1, rep.iterations + 1)
        ]
        runs.append((its, rep.iterations, rep.stop_reason))
    return runs


# ----------------------------------------------------------------------
# Seeded problems of the fdd and crb drivers' shapes
# ----------------------------------------------------------------------

_FDD_CHANNELS = {}


def _fdd_problem(sample, r, T):
    """Sample ``sample`` of criterion 11's fdd run (d=32, 8 ports, tau=1) at T rounds, and its prior."""
    if not _FDD_CHANNELS:
        _FDD_CHANNELS.update(enumerate(experiments._load_channels(None, 40, 32, 4, 4, 0)))
    H, Sigma = _FDD_CHANNELS[sample]
    U = designs.eigvecs_descending(Sigma, 8)
    qs = designs._fdd_design(U, T, False, np.random.default_rng([0, 4, sample]))
    history = model.simulate_problem(
        qs, designs.dft_codebook(8, r), H, 1.0, rule="hard", attach_cqi=True, radius=4.0
    )
    return history, likelihood.SubspacePrior(U)


def _crb_problem(seed, T=2000):
    """A crb-experiment problem: d=16, complex, DFT codebook p=4, tau=0.05, radius 2, with CQI."""
    rng = np.random.default_rng([seed, 7])
    g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    h = g / np.linalg.norm(g)
    rng = np.random.default_rng([seed, T, 0])
    qs = designs.haar_stiefel_stack(T, 16, 4, rng, real=False)
    problem = model.simulate_problem(
        qs, designs.dft_codebook(4), h, 0.05, rng, rule="softmax", attach_cqi=True, radius=2.0
    )
    return problem, likelihood.SubspacePrior(designs.haar_stiefel(16, 8, rng))


_FDD_CASES = [(s, r, T) for s in (0, 1, 2) for r in (1, 2) for T in (5, 10)]


def _assert_parity(iterates, iterations, stop, rel_tol):
    plain = _first_below(iterates, rel_tol, _plain_rel_change)
    aligned = _first_below(iterates, rel_tol, _aligned_rel_change)
    assert plain == aligned
    assert plain == (iterations if stop == "converged" else None)


class TestStopPointParity:
    """The plain and the aligned change first fall below rel_tol at the same iteration."""

    @pytest.mark.parametrize("sample, r, T", _FDD_CASES)
    @pytest.mark.parametrize("method", ["mle", "subspace-mle"])
    def test_mle_fdd_shape(self, monkeypatch, method, sample, r, T):
        problem, prior = _fdd_problem(sample, r, T)
        init = "spectral" if method == "mle" else "identity"
        cfg = likelihood.MleConfig(init=init, n_streams=r)
        iterates, rep = _mle_iterates(
            monkeypatch, problem, cfg, prior if method == "subspace-mle" else None
        )
        _assert_parity(iterates, rep.iterations, rep.stop_reason, cfg.rel_tol)
        # The report's rel_change is the last iteration's plain ratio.
        assert rep.rel_change == _plain_rel_change(iterates[-1], iterates[-2])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mle_crb_shape(self, monkeypatch, seed):
        problem, _ = _crb_problem(seed)
        cfg = likelihood.MleConfig(init="spectral", max_iters=1000, rel_tol=1e-9)
        iterates, rep = _mle_iterates(monkeypatch, problem, cfg)
        assert rep.stop_reason == "converged"
        _assert_parity(iterates, rep.iterations, rep.stop_reason, cfg.rel_tol)

    @pytest.mark.parametrize("sample, r, T", _FDD_CASES)
    def test_pr_descent_fdd_shape(self, monkeypatch, sample, r, T):
        problem, prior = _fdd_problem(sample, r, T)
        cfg = baselines.BaselineConfig()
        runs = _pr_iterates(monkeypatch, problem, prior, r, cfg)
        assert [name for *_, name in runs] == ["_wf_value", "_af_value"]
        for iterates, iterations, stop, _ in runs:
            _assert_parity(iterates, iterations, stop, cfg.rel_tol)

    def test_pr_descent_crb_shape(self, monkeypatch):
        problem, prior = _crb_problem(0)
        cfg = baselines.BaselineConfig(rel_tol=1e-9)
        for iterates, iterations, stop, _ in _pr_iterates(monkeypatch, problem, prior, 1, cfg):
            _assert_parity(iterates, iterations, stop, cfg.rel_tol)


class TestAmStopRule:
    """The AM loop stops on the phase-aligned change, which the plain one does not match."""

    @pytest.mark.parametrize("sample, r, T", _FDD_CASES)
    def test_stops_on_aligned_change_fdd_shape(self, monkeypatch, sample, r, T):
        problem, _ = _fdd_problem(sample, r, T)
        cfg = baselines.BaselineConfig()
        for iterates, iterations, stop in _am_iterates(monkeypatch, problem, r, cfg):
            aligned = _first_below(iterates, cfg.rel_tol, _aligned_rel_change)
            assert aligned == (iterations if stop == "converged" else None)

    def test_stops_on_aligned_change_crb_shape(self, monkeypatch):
        problem, _ = _crb_problem(0)
        cfg = baselines.BaselineConfig(rel_tol=1e-9, max_iters=300)
        for iterates, iterations, stop in _am_iterates(monkeypatch, problem, 1, cfg):
            aligned = _first_below(iterates, cfg.rel_tol, _aligned_rel_change)
            assert aligned == (iterations if stop == "converged" else None)

    def test_plain_change_would_stop_later(self, monkeypatch):
        # Sample 20 of criterion 11 at T=5: the aligned change crosses 1e-3 at
        # iteration 9, where the plain change still reads 1.0025e-3.
        problem, _ = _fdd_problem(20, 1, 5)
        cfg = baselines.BaselineConfig()
        [(iterates, iterations, stop)] = _am_iterates(monkeypatch, problem, 1, cfg)
        assert (iterations, stop) == (9, "converged")
        assert _first_below(iterates, cfg.rel_tol, _aligned_rel_change) == 9
        assert _first_below(iterates, cfg.rel_tol, _plain_rel_change) is None


def _pr_step_trace(S0, step0, value, grad, data, max_iters, rel_tol):
    """Trial steps of one phase-retrieval ``_descend``, read off spies on its callbacks.

    Each trial point is S - t grad for the iterate S and its gradient, so t is
    recovered from the point.  Returns, per iteration, (dS, dG, steps): the
    accepted move, the gradient change along it and the trial steps in order.
    """
    points, grads = [], []

    # The descent runs a stack of one problem.
    def value_spy(data, Z, at):
        out = value(data, Z, at)
        points.append((Z[0], out[0][0]))
        return out

    def grad_spy(data, Z, state):
        grads.append(grad(data, Z, state)[0])
        return grads[-1][None]

    [(_, _, iterations, *_)] = likelihood._descend(
        S0[None], data, value_spy, grad_spy, [step0], max_iters, rel_tol
    )
    # Gradients are taken at the start and at each accepted point only.
    (S, loss), *trials = points
    grads = iter(grads)
    grad = next(grads)
    iters, steps = [], []
    for Z, loss_z in trials:
        steps.append(float(np.vdot(grad, S - Z).real / np.vdot(grad, grad).real))
        if not loss_z > loss:
            grad_z = next(grads)
            iters.append((Z - S, grad_z - grad, steps))
            S, loss, grad, steps = Z, loss_z, grad_z, []
    assert not steps and len(iters) == iterations
    return iters


def _assert_halves(steps):
    np.testing.assert_allclose(steps[1:], np.asarray(steps[:-1]) / 2.0, rtol=1e-9)


def _captured_pr_runs(monkeypatch, sample, r, T):
    """One-problem (S0, step0, value, grad, data, max_iters, rel_tol) and result of each descent."""
    problem, prior = _fdd_problem(sample, r, T)
    run = partial(baselines.subspace_pr_estimate, problem, prior, r)
    runs = []
    for (X, data, value, grad, step0, max_iters, rel_tol), [result] in _captured_calls(
        monkeypatch, "_descend", run
    )[1]:
        runs.append(((X[0], step0[0], value, grad, data, max_iters, rel_tol), result))
    return runs


def _toy_descent(loss_grad):
    """``_descend``'s value and gradient callbacks of a loss_grad(S) on one problem, and its data."""
    return (
        lambda data, S, at: ([loss_grad(S[0])[0]], ()),
        lambda data, S, state: loss_grad(S[0])[1][None],
        (),
    )


class TestPrStepRule:
    """Phase retrieval halves step0 in its first iteration and then starts from the BB1 step."""

    @pytest.mark.parametrize("scale", [1.0, 64.0])
    @pytest.mark.parametrize("sample, r, T", _FDD_CASES)
    def test_first_iteration_tries_step0_then_halves(self, monkeypatch, sample, r, T, scale):
        # subspace_pr_estimate's step0, and one 64 times larger that must be halved.
        for (S0, step0, *loss, max_iters, rel_tol), _ in _captured_pr_runs(monkeypatch, sample, r, T):
            (_, _, steps), *_ = _pr_step_trace(S0, scale * step0, *loss, max_iters, rel_tol)
            np.testing.assert_allclose(steps[0], scale * step0, rtol=1e-9)
            _assert_halves(steps)
            assert len(steps) > 1 or scale == 1.0

    @pytest.mark.parametrize("sample, r, T", _FDD_CASES)
    def test_later_first_trial_is_clamped_bb1_step(self, monkeypatch, sample, r, T):
        for args, (_, _, iterations, *_) in _captured_pr_runs(monkeypatch, sample, r, T):
            step0 = args[1]
            iters = _pr_step_trace(*args)
            assert len(iters) == iterations >= 2
            for (dS, dG, _), (_, _, steps) in zip(iters, iters[1:]):
                curv = np.sum(dS.conj() * dG).real
                assert curv > 0
                want = np.clip(np.sum(np.abs(dS) ** 2) / curv, 1e-20 * step0, 1e9 * step0)
                np.testing.assert_allclose(steps[0], want, rtol=1e-9)
                _assert_halves(steps)

    @pytest.mark.parametrize(
        "loss_grad",
        [
            # Linear: the gradient never changes, Re<s, y> = 0.
            lambda S: (-float(S.real.sum()), -np.ones_like(S)),
            # Concave: Re<s, y> = -2 ||s||^2 < 0.
            lambda S: (-float(np.vdot(S, S).real), -2.0 * S),
        ],
        ids=["zero-curvature", "negative-curvature"],
    )
    def test_non_positive_curvature_doubles_up_to_the_cap(self, loss_grad):
        # A start small against the steps keeps the recovered steps exact to rounding.
        step0 = 1e-6
        S0 = np.full((3, 1), 1e-12, complex)
        iters = _pr_step_trace(S0, step0, *_toy_descent(loss_grad), 40, 1e-300)
        assert len(iters) == 40
        firsts = [steps[0] for _, _, steps in iters]
        want = [min(2.0**k, 1e9) * step0 for k in range(40)]
        np.testing.assert_allclose(firsts, want, rtol=1e-9)
        assert all(len(steps) == 1 for _, _, steps in iters)

    @pytest.mark.parametrize("T", [5, 10])
    def test_no_cap_hits_at_criterion_11_r1(self, monkeypatch, T):
        for sample in range(10):
            runs = _captured_pr_runs(monkeypatch, sample, 1, T)
            assert [args[2].__name__ for args, _ in runs] == ["_wf_value", "_af_value"]
            assert all(stop == "converged" for _, (_, _, _, _, stop, _) in runs)


class TestZeroIterates:
    """A zero old iterate reads +inf in ``_descend``; the AM loop reads two zero iterates as 0.0."""

    def _pr_losses(self):
        problem, prior = _fdd_problem(0, 1, 5)
        Ms = model._reduced(problem, prior.B)[None]
        eta = problem.cqi_array[None]
        return (
            (baselines._wf_value, baselines._wf_grad, (Ms, Ms.conj(), eta)),
            (baselines._af_value, baselines._af_grad, (Ms, Ms.conj(), np.sqrt(eta))),
            prior.k,
        )

    def test_pr_descent_from_zero_reads_inf(self):
        # Both losses have a zero gradient at S = 0, so the descent cannot move.
        wf, af, k = self._pr_losses()
        for value, grad, data in (wf, af):
            [(S, _, iters, rel, stop, _)] = likelihood._descend(
                np.zeros((1, k, 1), complex), data, value, grad, [1.0], 50, 1e-3
            )
            assert (iters, stop, rel) == (50, "max-iters", math.inf)
            assert not S.any()

    def test_am_loop_two_zero_iterates_read_zero(self):
        rows = np.eye(4, dtype=complex)
        [(x, rep)] = baselines._am_phase_ls_loop(
            rows[None], np.zeros((1, 4)), 1.0, np.zeros((1, 4), complex), 50, 1e-3
        )
        assert (rep.iterations, rep.stop_reason) == (1, "converged")
        assert not x.any()

    def test_am_loop_zero_old_iterate_reads_inf(self):
        rows = np.eye(4, dtype=complex)
        [(x, rep)] = baselines._am_phase_ls_loop(
            rows[None], np.ones((1, 4)), 1.0, np.zeros((1, 4), complex), 1, 1e300
        )
        assert (rep.iterations, rep.stop_reason) == (1, "max-iters")
        assert x.any()

    def test_mle_from_zero_reads_inf(self):
        problem, _ = _fdd_problem(0, 1, 5)
        cfg = likelihood.MleConfig(init="explicit", x0=np.zeros(32, complex), max_iters=3)
        X, rep = likelihood.solve_mle(problem, cfg)
        assert (rep.iterations, rep.stop_reason, rep.rel_change) == (3, "max-iters", math.inf)
        assert not X.any()


_BAD_STOP_RULES = [
    {"max_iters": 0},
    {"max_iters": -3},
    {"max_iters": 2.5},
    {"max_iters": True},
    {"max_iters": "3"},
    {"rel_tol": 0.0},
    {"rel_tol": -1e-3},
    {"rel_tol": math.nan},
    {"rel_tol": math.inf},
]


class TestConfigBoundaries:
    """Solver configs refuse a stop rule or a variant that would silently misbehave."""

    @pytest.mark.parametrize("kw", _BAD_STOP_RULES)
    def test_mle_config_refuses_bad_stop_rule(self, kw):
        with pytest.raises(ValueError):
            likelihood.MleConfig(**kw)

    @pytest.mark.parametrize("kw", _BAD_STOP_RULES)
    def test_baseline_config_refuses_bad_stop_rule(self, kw):
        with pytest.raises(ValueError):
            baselines.BaselineConfig(**kw)

    def test_baseline_config_refuses_unknown_pr_variant(self):
        with pytest.raises(ValueError, match="phase-retrieval variant"):
            baselines.BaselineConfig(pr_variant="gerchberg-saxton")

    def test_baseline_config_refuses_unknown_init(self):
        with pytest.raises(ValueError, match="initialization"):
            baselines.BaselineConfig(init="identity")

    @pytest.mark.parametrize("n_streams", [0, -1, 1.5, True, np.float64(2.0)])
    def test_mle_config_refuses_fewer_than_one_stream(self, n_streams):
        with pytest.raises(ValueError, match="stream"):
            likelihood.MleConfig(n_streams=n_streams)

    def test_numpy_integer_counts_are_accepted(self):
        problem, _ = random_problem(np.random.default_rng(4), d=4, T=6)
        cfg = likelihood.MleConfig(max_iters=np.int64(2), n_streams=np.int32(2))
        X, rep = likelihood.solve_mle(problem, cfg)
        assert X.shape == (4, 2) and rep.iterations <= 2
        baselines.BaselineConfig(max_iters=np.int64(2))

    def test_prior_with_no_column_is_refused(self):
        with pytest.raises(ValueError, match=r"\(4, 0\)"):
            likelihood.SubspacePrior(np.zeros((4, 0)))

    @pytest.mark.parametrize("k", [None, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_explicit_start_must_be_finite_and_shaped(self, monkeypatch, k, m):
        rng = np.random.default_rng(4)
        problem, _ = random_problem(rng, d=4, T=6)
        prior = None if k is None else likelihood.SubspacePrior(designs.haar_stiefel(4, k, rng))
        dim = k or 4
        good = np.ones((dim, m))
        likelihood.solve_mle(problem, likelihood.MleConfig(init="explicit", x0=good, n_streams=m, max_iters=1), prior)
        if m == 1:
            likelihood.solve_mle(problem, likelihood.MleConfig(init="explicit", x0=good[:, 0], max_iters=1), prior)

        def no_work(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(likelihood, "_start", no_work)
        nan = good.copy()
        nan[0, 0] = np.nan
        for x0 in (None, np.ones(dim + 1), np.ones((dim, m + 1)), np.ones((dim + 2, m)), nan, np.full((dim, m), np.inf)):
            cfg = likelihood.MleConfig(init="explicit", x0=x0, n_streams=m)
            with pytest.raises(ValueError, match=rf"finite x0 of shape \({dim}, {m}\)"):
                likelihood.solve_mle(problem, cfg, prior)

    def test_mle_config_refuses_unknown_init(self):
        with pytest.raises(ValueError, match="initialization"):
            likelihood.MleConfig(init="zeros")

    @pytest.mark.parametrize("n_streams, k", [(5, None), (7, None), (3, 2)])
    def test_solve_mle_refuses_more_streams_than_the_dimension(self, monkeypatch, n_streams, k):
        rng = np.random.default_rng(4)
        problem, _ = random_problem(rng, d=4, T=6)
        prior = None if k is None else likelihood.SubspacePrior(designs.haar_stiefel(4, k, rng))

        def no_work(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(likelihood, "_start", no_work)
        with pytest.raises(ValueError, match="streams exceed"):
            likelihood.solve_mle(problem, likelihood.MleConfig(n_streams=n_streams), prior)

    def test_every_valid_stream_count_solves(self):
        rng = np.random.default_rng(4)
        problem, _ = random_problem(rng, d=4, T=6)
        prior = likelihood.SubspacePrior(designs.haar_stiefel(4, 2, rng))
        for n_streams in (None, 1, 2, 3, 4):
            X, _ = likelihood.solve_mle(problem, likelihood.MleConfig(n_streams=n_streams, max_iters=2))
            assert X.shape == (4, n_streams or 1)
        for n_streams in (1, 2):
            X, _ = likelihood.solve_mle(problem, likelihood.MleConfig(n_streams=n_streams, max_iters=2), prior)
            assert X.shape == (4, n_streams)

    def test_defaults_and_every_named_choice_construct(self):
        likelihood.MleConfig()
        baselines.BaselineConfig()
        for init in ("identity", "random", "spectral", "explicit"):
            likelihood.MleConfig(init=init)
        for variant in ("wirtinger", "amplitude", "best-of-both"):
            baselines.BaselineConfig(pr_variant=variant)
        for init in ("spectral", "random"):
            baselines.BaselineConfig(init=init)
        likelihood.MleConfig(max_iters=1, rel_tol=1e-300)
        baselines.BaselineConfig(max_iters=1, rel_tol=1e300)
