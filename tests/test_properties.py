"""Property tests for the projection kernel shared by gains, NLL, gradient and Fisher."""

from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from pmichannel import baselines, crb, designs, likelihood, model
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


@SETTINGS
@given(seed=seeds, d=dims, T=rounds, scale=st.floats(0.1, 3.0))
def test_fisher_psd_and_gauge_null(seed, d, T, scale):
    prob, x, _ = _problem(seed, d, T)
    fm = crb.fisher(prob, scale * x)
    lam = np.linalg.eigvalsh(fm.F)
    # F sums T rounds, so its roundoff is T times the per-round noise floor.
    tol = 1e-10 * lam[-1] + T * fm.noise_floor
    assert lam[0] >= -tol
    u = fm.gauge
    assert abs(u @ fm.F @ u) <= tol * (u @ u)


@SETTINGS
@given(seed=seeds, d=st.integers(2, 4), extra=st.integers(0, 6))
def test_crb_trace_matches_svd_complement_reference(seed, d, extra):
    # One gauge rule: tr((D^T F D)^{-1}) with D an orthonormal complement of
    # u = J theta, here taken from an SVD rather than crb_trace's QR.
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, d + 1))
    n = int(rng.integers(2, p + 1))
    prob, x = random_problem(rng, d=d, p=p, n=n, T=3 * d + extra)
    fm = crb.fisher(prob, x)
    D = np.linalg.svd(fm.gauge[:, None])[0][:, 1:]
    expected = np.trace(np.linalg.inv(D.T @ fm.F @ D))
    np.testing.assert_allclose(crb.crb_trace(fm), expected, rtol=1e-8)


def _draw(rng, shape, complex_mode):
    return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_mode else 0.0)


def _assert_gauge_free(X, G):
    """X^H G is Hermitian: the first-order change of X^H X along -G has no skew part."""
    M = X.conj().T @ G
    scale = np.linalg.norm(X) * np.linalg.norm(G)
    np.testing.assert_allclose(M, M.conj().T, rtol=1e-10, atol=1e-10 * scale)


@SETTINGS
@given(seed=seeds, d=dims, T=rounds, r=st.integers(1, 2), complex_mode=st.booleans())
def test_descent_gradients_are_gauge_free(seed, d, T, r, complex_mode):
    prob, _, rng = _problem(seed, d, T, r=r, complex_mode=complex_mode, attach_cqi=True)
    X = _draw(rng, (d, r), complex_mode)
    _assert_gauge_free(X, likelihood.nll_gradient(prob, X))
    # The phase-retrieval losses, bound as ``subspace_pr_estimate`` binds them.
    B = designs.haar_stiefel(d, int(rng.integers(r, d + 1)), rng, real=not complex_mode)
    Ms, eta = baselines._pr_data(prob, B), prob.cqi_array
    S = _draw(rng, (B.shape[1], r), complex_mode)
    for loss_grad in (
        partial(baselines._wf_loss_grad, Ms, Ms.conj(), eta),
        partial(baselines._af_loss_grad, Ms, Ms.conj(), np.sqrt(eta)),
    ):
        _assert_gauge_free(S, loss_grad(S)[1])
