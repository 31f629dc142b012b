"""Property tests for the projection kernel shared by gains, NLL, gradient and Fisher."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pmichannel import crb, likelihood, model
from conftest import random_problem

SETTINGS = settings(max_examples=25, deadline=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 5)
rounds = st.integers(1, 6)


def _problem(seed, d, T, r=1, **kw):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(r, d + 1))
    n = int(rng.integers(1, p // r + 1))
    prob, x = random_problem(rng, d=d, p=p, n=n, T=T, r=r, **kw)
    return prob, x, rng


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


@SETTINGS
@given(seed=seeds, d=dims, T=rounds, phi=st.floats(0.0, 2 * np.pi))
def test_nll_phase_invariance(seed, d, T, phi):
    prob, x, _ = _problem(seed, d, T)
    _close(likelihood.nll(prob, x * np.exp(1j * phi)), likelihood.nll(prob, x))


@SETTINGS
@given(seed=seeds, d=st.integers(2, 5), T=rounds)
def test_nll_right_unitary_invariance(seed, d, T):
    prob, _, rng = _problem(seed, d, T, r=2)
    X = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    _close(likelihood.nll(prob, X @ U), likelihood.nll(prob, X))


@SETTINGS
@given(seed=seeds, d=dims, T=rounds)
def test_round_permutation_invariance(seed, d, T):
    prob, x, rng = _problem(seed, d, T)
    perm = rng.permutation(T)
    shuffled = model.EstimationProblem.from_arrays(
        prob.q_stack[perm], prob.pmi_array[perm], prob.codebook, prob.tau
    )
    _close(likelihood.nll(shuffled, 1.5 * x), likelihood.nll(prob, 1.5 * x))
    _close(likelihood.nll_gradient(shuffled, 1.5 * x), likelihood.nll_gradient(prob, 1.5 * x))
    _close(crb.fisher(shuffled, x).F, crb.fisher(prob, x).F)


@SETTINGS
@given(seed=seeds, d=dims, T=rounds, alpha=st.floats(-3.0, 3.0))
def test_gains_quadratic_scaling(seed, d, T, alpha):
    prob, x, _ = _problem(seed, d, T)
    _close(model.all_gains(prob, alpha * x), alpha**2 * model.all_gains(prob, x))


@SETTINGS
@given(seed=seeds, d=dims, T=st.integers(2, 6), data=st.data())
def test_prefix_matches_rebuilt_problem(seed, d, T, data):
    prob, x, _ = _problem(seed, d, T, rule="hard", attach_cqi=True, radius=2.0)
    k = data.draw(st.integers(1, T))
    pre = prob.prefix(k)
    rebuilt = model.EstimationProblem(prob.rounds[:k], prob.codebook, prob.tau, radius=2.0)
    np.testing.assert_array_equal(model.all_gains(pre, x), model.all_gains(rebuilt, x))
    assert likelihood.nll(pre, 2 * x) == likelihood.nll(rebuilt, 2 * x)
    np.testing.assert_array_equal(
        likelihood.nll_gradient(pre, 2 * x), likelihood.nll_gradient(rebuilt, 2 * x)
    )
    np.testing.assert_array_equal(crb.fisher(pre, x).F, crb.fisher(rebuilt, x).F)
