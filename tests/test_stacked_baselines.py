"""The baselines over a stack of problems: each problem gets the bits of its own call.

``spectral_estimate``, ``am_estimate_single``, ``am_estimate_multi`` and
``subspace_pr_estimate`` take one problem or a sequence of problems of one
shape.  A stack shares every kernel call, but each problem keeps its own
step, halvings, stop, report and warnings, and leaves the stack when it
stops.  These tests solve stacks and the same problems one at a time and
compare estimates and reports byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmichannel import baselines, designs, likelihood, model

Degenerate = baselines.DegenerateEstimateWarning


def _codebook(rng, p, n, r, complex_mode):
    """A random codebook of n codewords of width r in p dimensions, unit-norm columns."""
    V = rng.standard_normal((p, n * r))
    if complex_mode:
        V = V + 1j * rng.standard_normal((p, n * r))
    return model.Codebook(V=V / np.linalg.norm(V, axis=0), r=r)


def _stack(seed, B, r, T, complex_mode, d=5, p=3, n=3, zero_cqi=(), singular=()):
    """B problems with CQI sharing one codebook, and one subspace prior each.

    Members in ``zero_cqi`` report zero CQI in every round.  Members in
    ``singular`` have designs with a zero last row, so their AM gram has an
    exactly zero row and column and is singular at lam = 0.
    """
    rng = np.random.default_rng(seed)
    cb = _codebook(rng, p, n, r, complex_mode)
    problems = []
    for b in range(B):
        qs = designs.haar_stiefel_stack(T, d, p, rng, real=not complex_mode)
        if b in singular:
            qs = np.concatenate([designs.haar_stiefel_stack(T, d - 1, p, rng, real=not complex_mode),
                                 np.zeros((T, 1, p))], axis=1)
        H = rng.standard_normal((d, r)) + (1j * rng.standard_normal((d, r)) if complex_mode else 0.0)
        problem = model.simulate_problem(qs, cb, H, 0.5, rng, rule="softmax", attach_cqi=True)
        if b in zero_cqi:
            problem = model.EstimationProblem.from_arrays(qs, problem.pmi_array, cb, problem.tau, np.zeros(T))
        problems.append(problem)
    priors = [
        likelihood.SubspacePrior(designs.haar_stiefel(d, 3, rng, real=not complex_mode))
        for _ in range(B)
    ]
    return problems, priors


def _fields(est, rep=None):
    """Estimate bytes and every report field, floats as hex."""
    out = (est.shape, est.tobytes())
    if rep is None:
        return out
    return out + (
        rep.iterations, float.hex(float(rep.objective)), rep.stop_reason, rep.degenerate, rep.variant,
    )


def _rngs(seed, B):
    return [np.random.default_rng([seed, b]) for b in range(B)]


def _assert_stack_equals_singles(method, problems, priors, r, cfg, seed, shared_rng=False):
    """Solve the stack and each problem alone; return the stack's reports."""
    B = len(problems)
    if method == "spectral":
        stacked = baselines.spectral_estimate(problems, r)
        singles = [baselines.spectral_estimate(pb, r) for pb in problems]
        assert [_fields(e) for e in stacked] == [_fields(e) for e in singles]
        return []
    if method == "subspace-pr":
        stacked = baselines.subspace_pr_estimate(problems, priors, r, cfg)
        singles = [baselines.subspace_pr_estimate(pb, pr, r, cfg) for pb, pr in zip(problems, priors)]
    else:
        estimate = baselines.am_estimate_single if method == "am-single" else baselines.am_estimate_multi
        extra = () if method == "am-single" else (r,)
        if shared_rng:
            stacked = estimate(problems, *extra, cfg, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            singles = [estimate(pb, *extra, cfg, rng) for pb in problems]
        else:
            stacked = estimate(problems, *extra, cfg, _rngs(seed, B))
            singles = [estimate(pb, *extra, cfg, g) for pb, g in zip(problems, _rngs(seed, B))]
    assert len(stacked) == B
    for b, (got, want) in enumerate(zip(stacked, singles)):
        assert _fields(*got) == _fields(*want), f"problem {b} of the stack"
    return [rep for _, rep in stacked]


@pytest.mark.filterwarnings("ignore::pmichannel.baselines.DegenerateEstimateWarning")
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(2, 5),
    method=st.sampled_from(["spectral", "am-single", "am-multi", "subspace-pr"]),
    r=st.sampled_from([1, 2]),
    T=st.integers(1, 20),
    complex_mode=st.booleans(),
    variant=st.sampled_from(["wirtinger", "amplitude", "best-of-both"]),
    init=st.sampled_from(["spectral", "random"]),
    lam=st.sampled_from([None, 0.0, 0.3]),
    shared_rng=st.booleans(),
    zero_cqi=st.booleans(),
    singular=st.booleans(),
    max_iters=st.integers(1, 60),
    log_tol=st.floats(-9.0, -2.0),
)
def test_stack_equals_single_calls(
    seed, B, method, r, T, complex_mode, variant, init, lam, shared_rng, zero_cqi, singular,
    max_iters, log_tol,
):
    if method == "am-single":
        r = 1
    problems, priors = _stack(
        seed, B, r, T, complex_mode, zero_cqi=(1,) if zero_cqi else (), singular=(0,) if singular else ()
    )
    cfg = baselines.BaselineConfig(
        lambda_am=lam, max_iters=max_iters, rel_tol=10.0**log_tol, pr_variant=variant, init=init
    )
    _assert_stack_equals_singles(method, problems, priors, r, cfg, seed, shared_rng)


@pytest.mark.parametrize(
    "method, complex_mode, max_iters",
    [
        ("am-single", False, 4), ("am-single", True, 30), ("am-multi", False, 4),
        ("am-multi", True, 15), ("subspace-pr", False, 15), ("subspace-pr", True, 30),
    ],
)
def test_problems_stop_at_different_iterations(method, complex_mode, max_iters):
    r = 1 if method == "am-single" else 2
    problems, priors = _stack(4, 8, r, 12, complex_mode)
    cfg = baselines.BaselineConfig(max_iters=max_iters, init="random")
    reports = _assert_stack_equals_singles(method, problems, priors, r, cfg, 4)
    # Some stop early, at different iterations, and some run into max_iters.
    stops = [(rep.iterations, rep.stop_reason) for rep in reports]
    assert len({it for it, _ in stops}) >= 3
    assert {stop for _, stop in stops} == {"converged", "max-iters"}


def test_zero_cqi_member_takes_the_degenerate_exit_alone():
    problems, priors = _stack(2, 4, 1, 6, True, zero_cqi=(2,))
    cfg = baselines.BaselineConfig()
    with pytest.warns(Degenerate, match="all CQI values vanish") as caught:
        reports = _assert_stack_equals_singles("subspace-pr", problems, priors, 1, cfg, 2)
    # One warning from the stack and one from the member's own call.
    assert len(caught) == 2
    assert [rep.stop_reason == "degenerate" for rep in reports] == [False, False, True, False]
    assert [rep.degenerate for rep in reports] == [False, False, True, False]


@pytest.mark.parametrize("name", ["_wf_value", "_af_value"])
def test_non_finite_loss_names_the_callers_problem(monkeypatch, name):
    # Problem 0 takes the degenerate exit, so problem 2 is row 1 of the stack.
    problems, priors = _stack(2, 4, 1, 6, True, zero_cqi=(0,))
    # Each problem's row of the loss's data: eta, or sqrt(eta) for the amplitude loss.
    real, eta = getattr(baselines, name), problems[2].cqi_array
    target = eta if name == "_wf_value" else np.sqrt(eta)

    def nan_at_problem_2(data, S, at=None):
        f, state = real(data, S, at)
        rows = data[2] if at is None else data[2][at]
        return [math.nan if np.array_equal(row, target) else v for row, v in zip(rows, f)], state

    monkeypatch.setattr(baselines, name, nan_at_problem_2)
    cfg = baselines.BaselineConfig(pr_variant="wirtinger" if name == "_wf_value" else "amplitude")
    failure = pytest.raises(likelihood.NumericalFailureError, match="iteration 1 in problem 2$")
    with pytest.warns(Degenerate), failure:
        baselines.subspace_pr_estimate(problems, priors, 1, cfg)


@pytest.mark.parametrize("method", ["am-single", "am-multi"])
def test_singular_gram_member_alone_falls_back_to_pinv(method):
    r = 1 if method == "am-single" else 2
    problems, priors = _stack(6, 4, r, 8, True, singular=(1,))
    cfg = baselines.BaselineConfig(lambda_am=0.0, init="random")
    reports = _assert_stack_equals_singles(method, problems, priors, r, cfg, 6)
    assert [rep.degenerate for rep in reports] == [False, True, False, False]


def _mismatched():
    """Stacks of two problems and their priors that differ in one shared property."""
    problems, priors = _stack(5, 2, 1, 4, True)
    other_d, _ = _stack(5, 1, 1, 4, True, d=6)
    other_T, _ = _stack(5, 1, 1, 5, True)
    other_cb, _ = _stack(6, 1, 1, 4, True)
    other_dtype, _ = _stack(5, 1, 1, 4, False)
    wide = likelihood.SubspacePrior(designs.haar_stiefel(5, 4, np.random.default_rng(1)))
    return {
        "d": ([problems[0], other_d[0]], priors),
        "T": ([problems[0], other_T[0]], priors),
        "codebook": ([problems[0], other_cb[0]], priors),
        "dtype": ([problems[0], other_dtype[0]], priors),
        "prior width": (problems, [priors[0], wide]),
        "prior count": (problems, priors[:1] * 3),
    }


def _no_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the estimate started")

    for name in ("_am_phase_ls_loop", "_descend", "_reduced", "_spectral", "haar_stiefel"):
        monkeypatch.setattr(baselines, name, no_work)


@pytest.mark.parametrize(
    "method, case",
    [
        (method, case)
        for method in ("spectral", "am-single", "am-multi", "subspace-pr")
        for case in sorted(_mismatched())
        if method == "subspace-pr" or not case.startswith("prior")
    ],
)
def test_mismatched_stack_refused_before_any_work(monkeypatch, method, case):
    problems, priors = _mismatched()[case]
    _no_work(monkeypatch)
    cfg = baselines.BaselineConfig(init="random")
    with pytest.raises(ValueError, match="must share"):
        if method == "spectral":
            baselines.spectral_estimate(problems, 1)
        elif method == "am-single":
            baselines.am_estimate_single(problems, cfg)
        elif method == "am-multi":
            baselines.am_estimate_multi(problems, 1, cfg)
        else:
            baselines.subspace_pr_estimate(problems, priors, 1, cfg)


@pytest.mark.parametrize("method", ["am-single", "am-multi"])
def test_wrong_generator_count_refused_before_any_work(monkeypatch, method):
    problems, _ = _stack(5, 3, 1, 4, True)
    _no_work(monkeypatch)
    cfg = baselines.BaselineConfig(init="random")
    with pytest.raises(ValueError, match="one generator or one per problem"):
        if method == "am-single":
            baselines.am_estimate_single(problems, cfg, _rngs(0, 2))
        else:
            baselines.am_estimate_multi(problems, 1, cfg, _rngs(0, 2))
