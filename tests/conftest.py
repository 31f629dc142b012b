import tracemalloc

import numpy as np
import pytest

from pmichannel import designs, model


def designed_problem(
    rng,
    d=4,
    p=3,
    n=3,
    T=3,
    tau=0.7,
    complex_mode=True,
    r=1,
    rule="softmax",
    attach_cqi=False,
    radius=None,
):
    """Random orthonormal codebook + Haar designs + simulated feedback: (problem, x, q).

    ``q`` is the problem's own (T, d, p) design stack, which the problem
    itself does not keep.
    """
    V = designs.haar_stiefel(p, n * r, rng, real=not complex_mode)
    cb = model.Codebook(V=V, r=r)
    q = np.stack([designs.haar_stiefel(d, p, rng, real=not complex_mode) for _ in range(T)])
    if complex_mode:
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    else:
        x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    problem = model.simulate_problem(
        q, cb, x, tau, rng, rule=rule, attach_cqi=attach_cqi, radius=radius
    )
    return problem, x, q


def random_problem(rng, **kwargs):
    """``designed_problem`` without its design stack: (problem, x)."""
    return designed_problem(rng, **kwargs)[:2]


def records(problem, q):
    """The history of ``problem`` over its design stack ``q`` as FeedbackRound records."""
    cqi = problem.cqi_array.tolist() if problem.has_cqi else [None] * problem.T
    return tuple(model.FeedbackRound(Q, int(i), c) for Q, i, c in zip(q, problem.pmi_array, cqi))


def oracle_gains(problem, q, X):
    """(T, N) gains ||V_i^H Q_t^H X||_F^2 from q[t] @ codebook.codeword(i), one entry at a time."""
    X = np.asarray(X).reshape(problem.d, -1)
    return np.array(
        [
            [
                np.linalg.norm((q[t] @ problem.codebook.codeword(i)).conj().T @ X) ** 2
                for i in range(problem.n_codewords)
            ]
            for t in range(problem.T)
        ]
    )


def pr_loss_grad(value, grad, data):
    """A phase-retrieval loss and its gradient at one S, from a ``baselines`` value and gradient pair."""

    def loss_grad(S):
        loss, state = value(data, S)
        return loss, grad(data, S, state)

    return loss_grad


def lifted(problem, q, t, i):
    """Single-stream codeword i lifted through round t's design, Q_t v_i, from the design stack q."""
    return q[t] @ problem.codebook.codeword(i)[:, 0]


def qr_reference(G):
    """One-shot LAPACK QR of a whole (n, d, p) stack with R's diagonal phases absorbed into Q."""
    Q, R = np.linalg.qr(G)
    diag = np.einsum("nii->ni", R)
    return Q * (diag / np.abs(diag)).conj()[:, None, :]


def ref_lift(q, V):
    """The lift Q_t V of every round as (d, T*N*r) columns, from one ``np.matmul``."""
    A = np.matmul(q, V)
    return np.ascontiguousarray(A.transpose(1, 0, 2).reshape(A.shape[1], -1))


def ref_fisher(problem, q, h):
    """``crb.fisher``'s matrix from the one-shot lift of the design stack q and W, with the
    per-round mean as one ``sum(axis=2)``."""
    h = np.asarray(h).ravel().astype(complex)
    C = model._project(problem, h[:, None])
    P = model._softmax(model._gains_from_proj(C, problem.codebook) / problem.tau)
    W = ref_lift(q, problem.codebook.V) * C[:, 0]
    G = np.concatenate([W.real, W.imag])
    GP = G * P.ravel()
    mean = GP.reshape(G.shape[0], problem.T, -1).sum(axis=2)
    F = (4.0 / problem.tau**2) * (GP @ G.T - mean @ mean.T)
    return 0.5 * (F + F.T)


def traced(fn):
    """``fn()`` and its traced peak allocation above what was held when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
