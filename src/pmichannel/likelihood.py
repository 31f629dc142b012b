"""Negative log-likelihood of PMI feedback and the projected-gradient solver.

The observation model assigns round t's feedback index i probability
proportional to exp(gain(t, i, x)/tau).  Minimizing the resulting negative
log-likelihood over a Frobenius ball recovers the channel up to a global
phase (single stream) or a right-unitary factor (multi-stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .metrics import procrustes_rel_change
from .model import (
    EstimationProblem,
    _as_matrix,
    _gains_from_proj,
    _softmax,
    all_gains,
    pmi_covariance,
)

__all__ = [
    "MleConfig",
    "SubspacePrior",
    "MleReport",
    "NumericalFailureError",
    "nll",
    "relaxed_loss",
    "nll_gradient",
    "nll_hessian_real",
    "solve_mle",
    "population_excess_risk",
]


class NumericalFailureError(RuntimeError):
    """Raised when the solver produces a non-finite objective value."""


@dataclass(frozen=True)
class SubspacePrior:
    """Orthonormal basis of a subspace the estimate is constrained to."""

    B: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B)
        if B.ndim != 2:
            raise ValueError("basis must be 2-D")
        if not np.allclose(B.conj().T @ B, np.eye(B.shape[1]), atol=1e-10):
            raise ValueError("basis columns must be orthonormal")
        object.__setattr__(self, "B", B)

    @property
    def k(self) -> int:
        return self.B.shape[1]


@dataclass
class MleConfig:
    """Solver knobs.

    ``init`` is one of "identity" (first columns of an identity matrix),
    "random" (a Haar Stiefel draw from ``default_rng(0)``), "spectral"
    (dominant eigenvectors of the PMI sample covariance, with a 1-D
    objective scan over the scale) or "explicit" (use ``x0``).  The step
    starts at tau/(4 R^2) and is halved whenever a step would increase the
    objective.
    """

    max_iters: int = 100
    rel_tol: float = 1e-3
    init: str = "identity"
    x0: Optional[np.ndarray] = None
    n_streams: Optional[int] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if self.rel_tol <= 0:
            raise ValueError("relative tolerance must be positive")


@dataclass
class MleReport:
    iterations: int
    nll: float
    rel_change: float
    stop_reason: str
    radius: float
    coefficients: Optional[np.ndarray] = None


def _nll_from_scores(problem: EstimationProblem, scores: np.ndarray) -> float:
    mx = scores.max(axis=1, keepdims=True)
    z = np.exp(scores - mx).sum(axis=1)
    sel = scores[np.arange(problem.T), problem.pmi_array]
    return float(np.mean(np.log(z) + mx[:, 0] - sel))


def nll(problem: EstimationProblem, x: np.ndarray) -> float:
    """Average negative log-likelihood of the observed PMI sequence at x.

    (1/T) sum_t log sum_j exp((gain(t,j,x) - gain(t,I_t,x)) / tau); always
    nonnegative, evaluated through log-sum-exp.
    """
    return _nll_from_scores(problem, all_gains(problem, x) / problem.tau)


def relaxed_loss(problem: EstimationProblem, x: np.ndarray) -> float:
    """Smoothed decision-error objective.

    Replacing the indicator of a wrong decision by the gain margin and the
    max by its log-sum-exp envelope gives
    (1/T) sum_t (tau * lse_j(gain/tau) - gain(t, I_t)) - tau * log N,
    which equals tau * nll - tau * log N, so both objectives share their
    minimizers.
    """
    tau = problem.tau
    G = all_gains(problem, x)
    sel = G[np.arange(problem.T), problem.pmi_array]
    per_round = tau * logsumexp(G / tau, axis=1) - sel
    return float(np.mean(per_round) - tau * np.log(problem.n_codewords))


def _value_and_grad(problem: EstimationProblem, X: np.ndarray) -> tuple[float, np.ndarray]:
    """Fused NLL value and gradient in the convention d nll = Re<G, dX>_F.

    For real inputs the gradient is exactly
    (2 / (tau T)) sum_t (sum_j p_t(j) A_{t,j} - A_{t,I_t}) x
    with A_{t,j} = a_{t,j} a_{t,j}^T; complex inputs use the same formula
    with Hermitian A, which is the conjugate-coordinate (Wirtinger) gradient
    scaled so finite differences of the realified coordinates match.
    """
    T, r = problem.T, problem.codebook.r
    C = problem.effective_flat_h @ X  # (T*N*r, m) projections
    gains = _gains_from_proj(C, problem.codebook)
    scores = gains / problem.tau
    mx = scores.max(axis=1, keepdims=True)
    ex = np.exp(scores - mx)
    z = ex.sum(axis=1)
    sel = scores[np.arange(T), problem.pmi_array]
    value = float(np.mean(np.log(z) + mx[:, 0] - sel))
    P = ex / z[:, None]
    weights = np.repeat(P, r, axis=1)
    cols = problem.pmi_array[:, None] * r + np.arange(r)[None, :]
    weights[np.arange(T)[:, None], cols] -= 1.0
    D = weights.reshape(-1, 1) * C
    G = (2.0 / (problem.tau * T)) * (problem.effective_flat @ D)
    return value, G


def nll_gradient(problem: EstimationProblem, x: np.ndarray) -> np.ndarray:
    """Gradient of ``nll`` at x, with the same shape as x."""
    G = _value_and_grad(problem, _as_matrix(x))[1]
    return G[:, 0] if np.asarray(x).ndim == 1 else G


def nll_hessian_real(problem: EstimationProblem, x: np.ndarray) -> np.ndarray:
    """Hessian of ``nll`` for the real single-stream model.

    -(2/tau T) sum A_{t,I_t} + (2/tau T) sum C_t + (4/tau^2 T) sum S_t
    - (4/tau^2 T) sum v_t v_t^T, where C_t, S_t, v_t are the
    probability-weighted moments of the effective codewords.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x) or problem.dtype is complex:
        raise ValueError("real-mode Hessian requires real-valued data")
    if problem.codebook.r != 1 or x.ndim != 1:
        raise ValueError("real-mode Hessian requires a single stream")
    tau, T = problem.tau, problem.T
    A = problem.effective_flat  # column (t, n) is a_{t,n}
    s = (problem.effective_flat_h @ x).reshape(T, -1)
    P = _softmax(s**2 / tau)
    a_sel = problem.selected[:, :, 0]
    v = np.einsum("tn,dtn->td", P * s, A.reshape(A.shape[0], T, -1))
    c1, c2 = 2.0 / (tau * T), 4.0 / (tau**2 * T)
    # The C_t and S_t moments share one weighted GEMM over the columns of A.
    w = (c1 + c2 * s**2) * P
    H = (A * w.ravel()) @ A.T - c1 * (a_sel.T @ a_sel) - c2 * (v.T @ v)
    return 0.5 * (H + H.T)


def population_excess_risk(
    problem: EstimationProblem, h: np.ndarray, x: np.ndarray
) -> float:
    """Expected NLL gap E[L_T(x)] - E[L_T(h)] under the softmax model at h.

    Equals the average over rounds of KL(p_t(.; h) || p_t(.; x)), computed
    exactly as a finite sum over the N outcomes; zero iff the pmfs agree.
    """
    tau = problem.tau
    Gh = all_gains(problem, h) / tau
    Gx = all_gains(problem, x) / tau
    lp_h = Gh - logsumexp(Gh, axis=1, keepdims=True)
    lp_x = Gx - logsumexp(Gx, axis=1, keepdims=True)
    kl = np.sum(np.exp(lp_h) * (lp_h - lp_x), axis=1)
    return max(float(np.mean(kl)), 0.0)


def _initial_point(
    problem: EstimationProblem,
    config: MleConfig,
    basis: Optional[np.ndarray],
    m: int,
    radius_hint: Optional[float],
) -> np.ndarray:
    from .designs import eigvecs_descending, haar_stiefel

    dim = problem.d if basis is None else basis.shape[1]
    dtype = problem.dtype
    if config.init == "explicit":
        if config.x0 is None:
            raise ValueError("explicit initialization needs x0")
        return _as_matrix(np.array(config.x0, dtype=dtype))
    if config.init == "identity":
        return np.eye(dim, m, dtype=dtype)
    if config.init == "random":
        rng = np.random.default_rng(0)
        return haar_stiefel(dim, m, rng, real=dtype is float)
    if config.init == "spectral":
        # Top-m eigenvectors of the selected-codeword covariance, formed in
        # coefficient space under a subspace prior.
        X = eigvecs_descending(pmi_covariance(problem, basis), m)
        # Scan the scale along the spectral direction; the likelihood is not
        # scale invariant, so a decent starting norm matters.
        hi = radius_hint if radius_hint is not None else 10.0
        best, best_f = X, np.inf
        for alpha in np.geomspace(0.05, hi, 41):
            cand = alpha * X
            f = nll(problem, cand if basis is None else basis @ cand)
            if f < best_f:
                best, best_f = cand, f
        return best
    raise ValueError(f"unknown initialization {config.init!r}")


def solve_mle(
    problem: EstimationProblem,
    config: Optional[MleConfig] = None,
    prior: Optional[SubspacePrior] = None,
) -> tuple[np.ndarray, MleReport]:
    """Constrained maximum-likelihood estimate by projected gradient descent.

    Minimizes ``nll`` over the Frobenius ball of radius ``problem.radius``
    (default 10x the initial norm); after every step the iterate is rescaled
    onto the ball if needed.  Stops at ``max_iters`` or when the phase- or
    Procrustes-aligned relative change drops below ``rel_tol``.  With a
    subspace prior the coefficient matrix S is optimized and B @ S returned.
    """
    config = config or MleConfig()
    basis = prior.B if prior is not None else None
    m = config.n_streams or problem.codebook.r
    S = _initial_point(problem, config, basis, m, problem.radius)
    radius = problem.radius if problem.radius is not None else 10.0 * float(np.linalg.norm(S))
    if radius <= 0:
        raise ValueError("radius must be positive")

    def lift(Z: np.ndarray) -> np.ndarray:
        return Z if basis is None else basis @ Z

    def objective(Z: np.ndarray) -> float:
        return nll(problem, lift(Z))

    def value_grad(Z: np.ndarray) -> tuple[float, np.ndarray]:
        f, G = _value_and_grad(problem, lift(Z))
        return f, (G if basis is None else basis.conj().T @ G)

    def project(Z: np.ndarray) -> np.ndarray:
        nrm = float(np.linalg.norm(Z))
        return Z * (radius / nrm) if nrm > radius else Z

    S = project(S)
    f, G = value_grad(S)
    step0 = problem.tau / (4.0 * radius**2)
    step = step0
    rel = np.inf
    stop = "max-iters"
    it = 0
    for it in range(1, config.max_iters + 1):
        trial = step
        S_new = project(S - trial * G)
        f_new = objective(S_new)
        if f_new > f:
            while f_new > f and trial > 1e-20 * step0:
                trial /= 2.0
                S_new = project(S - trial * G)
                f_new = objective(S_new)
        else:
            # Two-way search: the crude initial scale can be far too small,
            # so keep doubling while the objective strictly improves.
            while trial < 1e9 * step0:
                S_big = project(S - 2.0 * trial * G)
                f_big = objective(S_big)
                if not f_big < f_new:
                    break
                trial, S_new, f_new = 2.0 * trial, S_big, f_big
        if not np.isfinite(f_new):
            raise NumericalFailureError(f"non-finite objective at iteration {it}")
        rel = procrustes_rel_change(S_new, S)
        step = trial
        S = S_new
        f, G = value_grad(S)
        if rel < config.rel_tol:
            stop = "converged"
            break
    X = lift(S)
    report = MleReport(
        iterations=it,
        nll=f,
        rel_change=float(rel),
        stop_reason=stop,
        radius=radius,
        coefficients=S if basis is not None else None,
    )
    return X, report
