import numpy as np
import pytest

from pmichannel import designs, model


def random_problem(
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
    """Random orthonormal codebook + Haar designs + simulated feedback."""
    V = designs.haar_stiefel(p, n * r, rng, real=not complex_mode)
    cb = model.Codebook(V=V, r=r)
    qs = [designs.haar_stiefel(d, p, rng, real=not complex_mode) for _ in range(T)]
    if complex_mode:
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    else:
        x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    problem = model.simulate_problem(
        qs, cb, x, tau, rng, rule=rule, attach_cqi=attach_cqi, radius=radius
    )
    return problem, x


def oracle_gains(problem, X):
    """(T, N) gains ||V_i^H Q_t^H X||_F^2 from q_stack[t] @ codebook.codeword(i), one entry at a time."""
    X = np.asarray(X).reshape(problem.d, -1)
    return np.array(
        [
            [
                np.linalg.norm((problem.q_stack[t] @ problem.codebook.codeword(i)).conj().T @ X) ** 2
                for i in range(problem.n_codewords)
            ]
            for t in range(problem.T)
        ]
    )


def lifted(problem, t, i):
    """Single-stream codeword i lifted through round t's design, Q_t v_i, from the raw arrays."""
    return problem.q_stack[t] @ problem.codebook.codeword(i)[:, 0]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
