"""``solve_mle`` over a stack of problems: each problem gets the bits of its own solve.

A stack shares every kernel call, but each problem keeps its own step,
Barzilai-Borwein state, trial loop, stop test and report, and leaves the
stack once it stops.  These tests solve stacks and the same problems one at
a time and compare estimates and reports byte for byte, and compare the
stacked start with the one-problem start it replaced.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmichannel import designs, experiments, likelihood, model
from conftest import traced


def _codebook(rng, p, n, r, complex_mode):
    """A random codebook of n codewords of width r in p dimensions, unit-norm columns."""
    V = rng.standard_normal((p, n * r))
    if complex_mode:
        V = V + 1j * rng.standard_normal((p, n * r))
    return model.Codebook(V=V / np.linalg.norm(V, axis=0), r=r)


def _stack(seed, B, n, r, complex_mode, d=5, p=3, T=8, tau=0.5, radii=None):
    """B problems sharing one codebook, with their own designs, channels and feedback."""
    rng = np.random.default_rng(seed)
    cb = _codebook(rng, p, n, r, complex_mode)
    problems = []
    for b in range(B):
        qs = designs.haar_stiefel_stack(T, d, p, rng, real=not complex_mode)
        x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if complex_mode else 0.0)
        radius = None if radii is None else radii[b]
        x /= np.linalg.norm(x)
        problems.append(model.simulate_problem(qs, cb, x, tau, rng, radius=radius))
    bases = [designs.haar_stiefel(d, 3, rng, real=not complex_mode) for _ in range(B)]
    priors = [likelihood.SubspacePrior(basis) for basis in bases]
    return problems, priors


def _fields(X, rep):
    """Estimate bytes and every report field, floats as hex."""
    coeffs = rep.coefficients
    coeffs = None if coeffs is None else (coeffs.shape, coeffs.tobytes())
    return (
        X.shape, X.tobytes(), rep.iterations, float.hex(rep.nll), float.hex(rep.rel_change),
        rep.stop_reason, rep.radius, rep.n_obj_evals, rep.n_grad_evals, rep.n_scale_evals,
        rep.scale_fallback, coeffs,
    )


def _assert_stack_equals_singles(problems, cfg, priors=None):
    stacked = likelihood.solve_mle(problems, cfg, priors)
    assert len(stacked) == len(problems)
    for b, (problem, got) in enumerate(zip(problems, stacked)):
        want = likelihood.solve_mle(problem, cfg, None if priors is None else priors[b])
        assert _fields(*got) == _fields(*want), f"problem {b} of the stack"
    return [rep for _, rep in stacked]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(2, 5),
    n=st.sampled_from([3, 4, 8, 16]),
    r=st.sampled_from([1, 2]),
    complex_mode=st.booleans(),
    prior=st.booleans(),
    init=st.sampled_from(["identity", "random", "spectral"]),
    one_stream=st.booleans(),
    radius=st.sampled_from([None, "each"]),
    max_iters=st.integers(1, 60),
    log_tol=st.floats(-9.0, -2.0),
)
def test_stack_equals_single_solves(
    seed, B, n, r, complex_mode, prior, init, one_stream, radius, max_iters, log_tol
):
    # radius=None gives each problem its own ball of 10x its start norm.
    radii = None if radius is None else list(np.random.default_rng(seed).uniform(0.5, 4.0, B))
    problems, priors = _stack(seed, B, n, r, complex_mode, radii=radii)
    cfg = likelihood.MleConfig(
        init=init, n_streams=1 if one_stream else r, max_iters=max_iters, rel_tol=10.0**log_tol
    )
    _assert_stack_equals_singles(problems, cfg, priors if prior else None)


@pytest.mark.parametrize("complex_mode, seed, max_iters", [(False, 7, 12), (True, 16, 20)])
def test_problems_stop_at_different_iterations(complex_mode, seed, max_iters):
    problems, priors = _stack(seed, 6, 4, 1, complex_mode, T=12)
    cfg = likelihood.MleConfig(init="identity", max_iters=max_iters, rel_tol=1e-3)
    for prior in (None, priors):
        reports = _assert_stack_equals_singles(problems, cfg, prior)
        stops = [(rep.iterations, rep.stop_reason) for rep in reports]
        # Some stop early, at different iterations, and one runs into max_iters.
        assert (max_iters, "max-iters") in stops
        assert len({it for it, stop in stops if stop == "converged"}) >= 2


def test_prior_may_be_shared_by_the_stack():
    problems, priors = _stack(3, 3, 3, 1, True)
    cfg = likelihood.MleConfig(init="spectral")
    shared = likelihood.solve_mle(problems, cfg, priors[0])
    each = likelihood.solve_mle(problems, cfg, [priors[0]] * 3)
    assert [_fields(*a) for a in shared] == [_fields(*b) for b in each]


def _mismatched():
    """Stacks of two problems and their priors that differ in one shared property."""
    problems, priors = _stack(5, 2, 3, 1, True)
    other_d, _ = _stack(5, 1, 3, 1, True, d=6)
    other_T, _ = _stack(5, 1, 3, 1, True, T=9)
    other_cb, _ = _stack(6, 1, 3, 1, True)
    other_tau, _ = _stack(5, 1, 3, 1, True, tau=0.7)
    other_dtype, _ = _stack(5, 1, 3, 1, False)
    wide = likelihood.SubspacePrior(designs.haar_stiefel(5, 4, np.random.default_rng(1)))
    return {
        "d": ([problems[0], other_d[0]], None),
        "T": ([problems[0], other_T[0]], None),
        "codebook": ([problems[0], other_cb[0]], None),
        "tau": ([problems[0], other_tau[0]], None),
        "dtype": ([problems[0], other_dtype[0]], None),
        "prior width": (problems, [priors[0], wide]),
        "prior and none": (problems, [priors[0], None]),
        "prior count": (problems, priors[:1]),
    }


@pytest.mark.parametrize("case", sorted(_mismatched()))
def test_mismatched_stack_refused_before_any_work(monkeypatch, case):
    problems, priors = _mismatched()[case]

    def no_work(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(likelihood, "_start", no_work)
    monkeypatch.setattr(likelihood, "_value_from_scores", no_work)
    with pytest.raises(ValueError, match="must share"):
        likelihood.solve_mle(problems, likelihood.MleConfig(), priors)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_objective_names_the_problem():
    # Scores of a start of norm 1.3e154 overflow; only problem 2's ball lets it stand.
    problems, _ = _stack(9, 3, 3, 1, False, tau=0.01, radii=[2.0, 2.0, 1.3e154])
    x0 = np.full(5, 1.3e154 / np.sqrt(5))
    cfg = likelihood.MleConfig(init="explicit", x0=x0)
    likelihood.solve_mle(problems[0], cfg)
    with pytest.raises(likelihood.NumericalFailureError, match="iteration 1"):
        likelihood.solve_mle(problems[2], cfg)
    with pytest.raises(likelihood.NumericalFailureError, match="problem 2$"):
        likelihood.solve_mle(problems, cfg)


# The stacked start against the one-problem start it replaced.


def _reference_start(problem, config, basis, m):
    """One problem's start, computed alone: S, radius and A^H lift(S).

    The per-problem code that ``likelihood._start`` stacks: one covariance,
    one 2-D eigendecomposition and one full 41-scale scan per problem, with
    norms from ``np.linalg.norm``.
    """
    dim = problem.d if basis is None else basis.shape[1]
    dtype = problem.dtype
    if config.init == "explicit":
        S = model._as_matrix(np.array(config.x0, dtype=dtype))
    elif config.init == "identity":
        S = np.eye(dim, m, dtype=dtype)
    elif config.init == "random":
        S = designs.haar_stiefel(dim, m, np.random.default_rng(0), real=dtype is float)
    else:
        X = designs.eigvecs_descending(model.pmi_covariance(problem, basis), m)
        hi = problem.radius if problem.radius is not None else 10.0
        scores = model.all_gains(problem, X if basis is None else basis @ X) / problem.tau
        alphas = np.geomspace(0.05, hi, 41)
        a2, sel = (alphas * alphas)[:, None], scores.take(problem.pmi_flat)
        f = np.add.reduce(model._row_lse(a2[..., None] * scores)[2] - a2 * sel, axis=-1) / problem.T
        f[np.isnan(f)] = np.inf
        S = alphas[np.argmin(f)] * X if f.min() < np.inf else X
    radius = problem.radius if problem.radius is not None else 10.0 * float(np.linalg.norm(S))
    nrm = float(np.linalg.norm(S))
    S = S * (radius / nrm) if nrm > radius else S
    C = model._project(problem, S if basis is None else basis @ S)
    return S, radius, C


def _eig_priors(seed, B, d, k, complex_mode):
    """Priors as the fdd driver builds them: top-k eigenvectors, a view with a negative column stride."""
    rng = np.random.default_rng([seed, 1])
    priors = []
    for _ in range(B):
        H = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if complex_mode else 0.0)
        priors.append(likelihood.SubspacePrior(designs.eigvecs_descending(H @ H.conj().T, k)))
    return priors


def _start_bytes(S, radius, C):
    return S.shape, S.tobytes(), float.hex(radius), C.shape, C.tobytes()


def _assert_start_equals_references(problems, cfg, priors, m):
    """``solve_mle``'s one stacked ``_start`` gives each problem its ``_reference_start`` bytes."""
    seen, real = [], likelihood._start

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(likelihood, "_start", spy)
        likelihood.solve_mle(problems, replace(cfg, max_iters=1), priors)
    [(S, radii, C, scans)] = seen
    assert len(S) == len(radii) == len(C) == len(scans) == len(problems)
    for b, problem in enumerate(problems):
        basis = None if priors is None else priors[b].B
        want = _reference_start(problem, cfg, basis, m)
        assert _start_bytes(S[b], radii[b], C[b]) == _start_bytes(*want), f"problem {b}"


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 5),
    T=st.integers(1, 20),
    r=st.sampled_from([1, 2]),
    complex_mode=st.booleans(),
    prior=st.booleans(),
    init=st.sampled_from(["identity", "random", "spectral", "explicit"]),
    radius=st.sampled_from([None, "each"]),
)
def test_stacked_start_equals_one_problem_starts(seed, B, T, r, complex_mode, prior, init, radius):
    # radius=None gives each problem its own ball of 10x its start norm.
    rng = np.random.default_rng(seed)
    radii = None if radius is None else list(rng.uniform(0.5, 4.0, B))
    problems, _ = _stack(seed, B, 3, r, complex_mode, d=6, T=T, radii=radii)
    priors = _eig_priors(seed, B, 6, 4, complex_mode) if prior else None
    x0 = None
    if init == "explicit":
        shape = (4 if prior else 6,) + (() if r == 1 else (r,))
        x0 = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_mode else 0.0)
    _assert_start_equals_references(problems, likelihood.MleConfig(init=init, x0=x0), priors, r)


def test_fallback_scans_only_the_problems_that_fell_back(monkeypatch):
    # At T = 1 a problem whose report is the spectral direction's best codeword has an
    # NLL that underflows to 0 at the top scales, a tie that sends its search to the
    # full scan; here problems 3 and 4 of the stack fall back and the others do not.
    problems, _ = _stack(3, 6, 3, 1, False, T=1)
    cfg = likelihood.MleConfig(init="spectral")
    rows, real = [], likelihood._value_from_scores

    def spy(problem, scores, picked=None):
        rows.append(len(scores))
        return real(problem, scores, picked)

    pmi, lift = np.stack([pb.pmi_flat for pb in problems]), np.stack([pb.effective_flat for pb in problems])
    with monkeypatch.context() as mp:
        mp.setattr(likelihood, "_value_from_scores", spy)
        _, _, _, scans = likelihood._start(problems, cfg, None, 1, likelihood._stacked(problems[0], pmi, lift),
                                           lambda Z: Z)
    assert [fell for _, fell in scans] == [False, False, False, True, True, False]
    # The search evaluates the whole stack in lockstep; the full scan, the two that fell back.
    searched = len(rows) - 41
    assert rows == [6] * searched + [2] * 41 and searched <= 8
    assert all(evals <= searched for evals, fell in scans if not fell)
    assert all(searched + 41 >= evals > 41 for evals, fell in scans if fell)
    _assert_start_equals_references(problems, cfg, None, 1)
    reports = _assert_stack_equals_singles(problems, replace(cfg, max_iters=3))
    assert [(rep.n_scale_evals, rep.scale_fallback) for rep in reports] == scans


def test_other_starts_record_no_scale_search():
    problems, priors = _stack(4, 3, 3, 1, True)
    for init in ("identity", "random"):
        for prior in (None, priors):
            reports = _assert_stack_equals_singles(problems, likelihood.MleConfig(init=init, max_iters=2), prior)
            assert all((rep.n_scale_evals, rep.scale_fallback) == (0, False) for rep in reports)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("complex_mode", [False, True])
def test_stacked_spectral_start_at_large_T(B, complex_mode):
    # T = 1400, as at excess-risk's T >= 1000.
    problems, _ = _stack(21, B, 3, 1, complex_mode, T=1400)
    cfg = likelihood.MleConfig(init="spectral")
    for priors in (None, _eig_priors(21, B, 5, 3, complex_mode)):
        _assert_start_equals_references(problems, cfg, priors, 1)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.sampled_from([1, 2, 7, 40, 150]),
    n=st.integers(1, 9),
    r=st.sampled_from([1, 2]),
    tau=st.sampled_from([0.05, 0.5, 2.0]),
    complex_mode=st.booleans(),
    prior=st.booleans(),
    radii=st.lists(st.sampled_from([None, 0.01, 0.049, 0.3, 2.0, 4.0, 60.0]), min_size=1, max_size=4),
)
def test_search_picks_the_full_scan_index(seed, T, n, r, tau, complex_mode, prior, radii):
    # Stacks of mixed balls: radius None scans up to 10, one below 0.05 scans a
    # descending grid.  The stacked search start equals the full scan's start byte for byte.
    problems, _ = _stack(seed, len(radii), n, r, complex_mode, d=6, T=T, tau=tau, radii=radii)
    priors = _eig_priors(seed, len(radii), 6, 4, complex_mode) if prior else None
    _assert_start_equals_references(problems, likelihood.MleConfig(init="spectral"), priors, r)


def test_search_evaluates_at_most_9_scales_at_excess_risk_shapes(monkeypatch):
    # excess_risk_slope's problems: d = 6, identity codebook p = N = 3, tau = 0.5, radius 2.
    real, counts = likelihood._value_from_scores, []

    def spy(problem, scores, picked=None):
        counts[-1] += picked is not None  # the scan passes its gathered reported scores
        return real(problem, scores, picked)

    monkeypatch.setattr(likelihood, "_value_from_scores", spy)
    rng = np.random.default_rng(5)
    cb = designs.identity_codebook(3, 3)
    for T in (250, 1000, 4000):
        for _ in range(4):
            h = rng.standard_normal(6)
            qs = designs.haar_stiefel_stack(T, 6, 3, rng, real=True)
            problem = model.simulate_problem(qs, cb, h / np.linalg.norm(h), 0.5, rng, radius=2.0)
            counts.append(0)
            likelihood.solve_mle(problem, likelihood.MleConfig(init="spectral", max_iters=1))
    assert max(counts) <= 9, counts


def test_stacked_spectral_start_makes_one_eigendecomposition(monkeypatch):
    problems, priors = _stack(11, 4, 3, 1, True, T=6)
    calls, real = [], designs.eigvecs_descending

    def spy(A, k):
        calls.append(np.shape(A))
        return real(A, k)

    monkeypatch.setattr(designs, "eigvecs_descending", spy)
    monkeypatch.setattr(likelihood, "eigvecs_descending", spy, raising=False)
    for prior, dim in ((None, 5), (priors, 3)):
        calls.clear()
        likelihood.solve_mle(problems, likelihood.MleConfig(init="spectral", max_iters=2), prior)
        assert calls == [(4, dim, dim)]


# The one descent loop on its own, on random convex quadratics.


def _quadratics(seed, B, k, m, complex_mode, carry):
    """Starts, data and ``_descend`` callbacks of B quadratics f(S) = Re<S, Q S>/2 - Re<Y, S>, Q > 0.

    With ``carry`` the loop carries Q S below S, as ``solve_mle`` carries its
    projections, and the values read it there; otherwise each value forms Q S.
    """
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_mode else 0.0)

    L = draw(B, k, k)
    Q, Y, S0 = L @ L.conj().swapaxes(1, 2) + 0.1 * np.eye(k), draw(B, k, m), draw(B, k, m)

    def value(data, Z, at):
        Q, Y = data if at is None else (a[at] for a in data)
        S, QS = (Z[:, :k], Z[:, k:]) if carry else (Z, Q @ Z)
        flat, qflat, yflat = (a.reshape(len(S), -1) for a in (S, QS, Y))
        return (0.5 * np.vecdot(flat, qflat).real - np.vecdot(yflat, flat).real).tolist(), (QS,)

    def gradient(data, Z, state):
        return state[0] - data[1]

    def direction(data, G):
        return np.concatenate((G, data[0] @ G), axis=1)

    X0 = np.concatenate((S0, Q @ S0), axis=1) if carry else S0
    step0 = (rng.uniform(0.1, 10.0, B) / np.linalg.eigvalsh(Q)[:, -1]).tolist()
    return X0, (Q, Y), value, gradient, direction if carry else None, step0, rng.uniform(0.2, 3.0, B).tolist()


def _descent_fields(S, f, iterations, rel, stop, trials):
    return S.shape, S.tobytes(), float.hex(f), iterations, float.hex(rel), stop, trials


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(2, 16),
    k=st.integers(1, 5),
    m=st.integers(1, 2),
    complex_mode=st.booleans(),
    carry=st.booleans(),
    two_way=st.booleans(),
    ball=st.booleans(),
    max_iters=st.integers(1, 40),
    rel_tol=st.sampled_from([1e-2, 1e-5, 1e-9]),
    own=st.booleans(),
)
def test_descend_stack_equals_one_problem_runs(
    seed, B, k, m, complex_mode, carry, two_way, ball, max_iters, rel_tol, own
):
    X0, data, value, gradient, direction, step0, radii = _quadratics(seed, B, k, m, complex_mode, carry)
    radius = radii if ball else None
    rule = (max_iters, rel_tol, direction, radius, two_way)
    # An owned stack is compacted in place, so it gets a copy of data.
    mine = tuple(a.copy() for a in data) if own else data
    stacked = likelihood._descend(X0, mine, value, gradient, step0, *rule, own=own)
    for b in range(B):
        one = (max_iters, rel_tol, direction, radius and radius[b : b + 1], two_way)
        [want] = likelihood._descend(
            X0[b : b + 1], tuple(a[b : b + 1] for a in data), value, gradient, step0[b : b + 1], *one
        )
        assert _descent_fields(*stacked[b]) == _descent_fields(*want), f"problem {b} of the stack"


def _trial_rounds(monkeypatch) -> list:
    """A spy on ``_trial``: each round's (stack size, steps, rows' problems or None)."""
    rounds, real = [], likelihood._trial

    def spy(value, data, X, D, s, k, radius, at):
        rounds.append((len(data[0]), list(s), None if at is None else at.tolist()))
        return real(value, data, X, D, s, k, radius, at)

    monkeypatch.setattr(likelihood, "_trial", spy)
    return rounds


def test_descend_rounds_fill_the_stack(monkeypatch):
    # After an iteration's first trial, each of the g problems still searching gets its next
    # n // g steps in one round: doublings in the two-way iteration 1, halvings later.
    X0, data, value, gradient, direction, step0, radii = _quadratics(3, 16, 4, 2, True, True)
    rounds = _trial_rounds(monkeypatch)
    stacked = likelihood._descend(X0, data, value, gradient, step0, 30, 1e-9, direction, radii, True)
    monkeypatch.undo()
    assert all(len(steps) <= n for n, steps, _ in rounds)
    ran = {"doubled": False, "halved": False}
    for _, steps, at in rounds:
        for a, b, i, j in zip(steps, steps[1:], at or [], (at or [])[1:]):
            ran["doubled"] |= i == j and b == 2.0 * a
            ran["halved"] |= i == j and b == a / 2.0
    assert ran == {"doubled": True, "halved": True}
    for b in range(16):
        one = (30, 1e-9, direction, radii[b : b + 1], True)
        [want] = likelihood._descend(
            X0[b : b + 1], tuple(a[b : b + 1] for a in data), value, gradient, step0[b : b + 1], *one
        )
        assert _descent_fields(*stacked[b]) == _descent_fields(*want), f"problem {b} of the stack"


def test_fdd_slice_solve_takes_fewer_rounds(monkeypatch):
    # One fdd slice's stacked MLE (16 samples, r = 2, T = 5, seed 0).  With one step per
    # problem per round the search took 362 rounds; filling the stack takes about half.
    calls, orig = [], likelihood.solve_mle

    def spy(problems, *args):
        calls.append((list(problems), *args))
        return orig(problems, *args)

    monkeypatch.setattr(likelihood, "solve_mle", spy)
    experiments.run_fdd_experiment(rounds=(5,), n_samples=16, methods=("mle",), r=2, seed=0)
    monkeypatch.undo()
    [(problems, *args)] = calls
    rounds = _trial_rounds(monkeypatch)
    solved = likelihood.solve_mle(problems, *args)
    assert all(len(steps) <= n for n, steps, _ in rounds)
    assert len(rounds) < 362
    # Every row a report counts was evaluated, and some were evaluated ahead of the rule.
    assert sum(len(steps) for _, steps, _ in rounds) > sum(rep.n_obj_evals for _, rep in solved)


def test_search_evaluates_only_the_probes_on_the_grid(monkeypatch):
    # Mixed balls put some problems' probes past index 40, on the +inf padding: those problems
    # sit the round out, so the rows the scan evaluates are the scales the reports count.
    real, rows = likelihood._value_from_scores, []

    def spy(problem, scores, picked=None):
        rows.append(0 if picked is None else len(scores))  # the scan passes its gathered reported scores
        return real(problem, scores, picked)

    monkeypatch.setattr(likelihood, "_value_from_scores", spy)
    for seed in range(12):
        problems, _ = _stack(seed, 5, 3, 1, False, T=8, radii=[0.01, 0.3, 4.0, 100.0, None])
        rows.clear()
        solved = likelihood.solve_mle(problems, likelihood.MleConfig(init="spectral", max_iters=1))
        assert sum(rows) == sum(rep.n_scale_evals for _, rep in solved), f"seed {seed}"


@pytest.mark.parametrize("method", ["mle", "subspace-mle"])
@pytest.mark.parametrize("r", [1, 2])
def test_stacked_fdd_solve_holds_one_lift_stack(monkeypatch, r, method):
    # One fdd chunk's stacked solve at T = 20: the driver's 16 prefix problems,
    # whose lifts are views of their histories' lifts.  The solve copies them
    # into one stack and compacts it in place as problems stop; the rest of its
    # peak is the spectral start's eigendecompositions and the descent's
    # (B, k + T*N*r, m) arrays.  Holding a compacted copy next to the first
    # stack, as before, peaked at 2.7-3.2 stacks.
    calls, orig = [], likelihood.solve_mle

    def spy(problems, *args):
        calls.append((list(problems), *args))
        return orig(problems, *args)

    monkeypatch.setattr(likelihood, "solve_mle", spy)
    experiments.run_fdd_experiment(rounds=(20,), n_samples=16, methods=(method,), r=r, seed=0)
    monkeypatch.undo()
    [(problems, *args)] = calls
    assert len(problems) == 16 == experiments._FDD_CHUNK
    solved, peak = traced(lambda: likelihood.solve_mle(problems, *args))
    assert len({rep.iterations for _, rep in solved}) > 1  # problems leave the stack at different steps
    assert peak <= 2.2 * sum(pb.effective_flat.nbytes for pb in problems)
