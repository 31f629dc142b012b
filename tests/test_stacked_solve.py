"""``solve_mle`` over a stack of problems: each problem gets the bits of its own solve.

A stack shares every kernel call, but each problem keeps its own step,
Barzilai-Borwein state, trial loop, stop test and report, and leaves the
stack once it stops.  These tests solve stacks and the same problems one at
a time and compare estimates and reports byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmichannel import designs, likelihood, model


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
        rep.stop_reason, rep.radius, rep.n_obj_evals, rep.n_grad_evals, coeffs,
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
    monkeypatch.setattr(likelihood, "_initial_point", no_work)
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
