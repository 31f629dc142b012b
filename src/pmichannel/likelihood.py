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

from .metrics import _fro_norm
from .model import (
    EstimationProblem,
    _as_matrix,
    _gains_from_proj,
    _project,
    _row_lse,
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


def _check_stop_rule(max_iters: int, rel_tol: float) -> None:
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    if not 0.0 < rel_tol < np.inf:
        raise ValueError(f"relative tolerance must be finite and positive, got {rel_tol}")


@dataclass
class MleConfig:
    """Solver knobs.

    ``init`` is one of "identity" (first columns of an identity matrix),
    "random" (a Haar Stiefel draw from ``default_rng(0)``), "spectral"
    (dominant eigenvectors of the PMI sample covariance, with a 1-D
    objective scan over the scale) or "explicit" (use ``x0``).  The first
    iteration searches from the step tau/(4 R^2) both ways: it halves while
    the objective rises, otherwise it doubles while the objective strictly
    improves.  Every later iteration first tries the Barzilai-Borwein step
    <s, s>/Re<s, y> of the last move s and gradient change y (twice the last
    accepted step when Re<s, y> <= 0), clamped to [1e-20, 1e9] tau/(4 R^2),
    and halves it while the objective rises.  The solve stops after
    ``max_iters`` >= 1 iterations, or at the first whose unaligned relative
    change ||S_new - S||_F / ||S||_F is below the finite, positive ``rel_tol``.
    ``n_streams`` (default: the codebook's r) is in 1..d, or 1..k under a prior.
    """

    max_iters: int = 100
    rel_tol: float = 1e-3
    init: str = "identity"
    x0: Optional[np.ndarray] = None
    n_streams: Optional[int] = None

    def __post_init__(self):
        _check_stop_rule(self.max_iters, self.rel_tol)
        if self.init not in ("identity", "random", "spectral", "explicit"):
            raise ValueError(f"unknown initialization {self.init!r}")
        if self.n_streams is not None and self.n_streams < 1:
            raise ValueError(f"need at least one stream, got {self.n_streams}")


@dataclass
class MleReport:
    """Outcome of ``solve_mle``.

    ``n_obj_evals`` counts the line-search trial objectives, each computed
    from carried projections without a new one: the first iteration's two-way
    search may take many, a later iteration takes one plus one per halving
    of its Barzilai-Borwein step.  ``n_grad_evals`` counts the gradients
    (one at the start and one per iteration, each one GEMM); the spectral
    start's scale scan is in neither.  ``nll`` is the objective at
    the returned estimate, taken from the carried projections.
    ``rel_change`` is the last iteration's unaligned ||S_new - S||_F / ||S||_F.
    """

    iterations: int
    nll: float
    rel_change: float
    stop_reason: str
    radius: float
    n_obj_evals: int
    n_grad_evals: int
    coefficients: Optional[np.ndarray] = None


# The objective kernel in two steps, so the solver can carry projections:
# the projection step C = A^H X, shape (T*N*r, m), is ``model._project``; from
# C come the value and, through the same softmax, the gradient's weights and GEMM.


def _value_from_scores(
    problem: EstimationProblem, scores: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """NLL of a (T, N) score matrix, and the ``(ex, z)`` its gradient needs."""
    ex, z, lse = _row_lse(scores)
    return float((lse - scores.take(problem.pmi_flat)).sum() / lse.size), (ex, z)


def _nll_from_scores(problem: EstimationProblem, scores: np.ndarray) -> float:
    return _value_from_scores(problem, scores)[0]


def _value_from_proj(
    problem: EstimationProblem, C: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """NLL at the projections C, and the ``(ex, z)`` of ``_grad_from_proj``."""
    return _value_from_scores(problem, _gains_from_proj(C, problem.codebook) / problem.tau)


def _grad_from_proj(
    problem: EstimationProblem, C: np.ndarray, ex: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Gradient at the projections C from their ``_row_lse`` output: one GEMM."""
    # Softmax weights minus the one-hot of the reported codeword.  ex may be
    # a transposed view; the flat in-place subtraction needs a C-ordered W.
    W = np.ascontiguousarray(ex / z[:, None])
    W.reshape(-1)[problem.pmi_flat] -= 1.0
    # Row (t, i, k) of C takes the weight W[t, i].
    D = (W[:, :, None] * C.reshape(*W.shape, -1)).reshape(C.shape)
    return (2.0 / (problem.tau * problem.T)) * (problem.effective_flat @ D)


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
    minimizers.  The row log-sum-exp is the package's one kernel, ``_row_lse``.
    """
    tau = problem.tau
    G = all_gains(problem, x)
    sel = G[np.arange(problem.T), problem.pmi_array]
    per_round = tau * _row_lse(G / tau)[2] - sel
    return float(np.mean(per_round) - tau * np.log(problem.n_codewords))


def nll_gradient(problem: EstimationProblem, x: np.ndarray) -> np.ndarray:
    """Gradient of ``nll`` at x, shaped like x, in the convention d nll = Re<G, dX>_F.

    For real inputs the gradient is exactly
    (2 / (tau T)) sum_t (sum_j p_t(j) A_{t,j} - A_{t,I_t}) x
    with A_{t,j} = a_{t,j} a_{t,j}^T; complex inputs use the same formula
    with Hermitian A, which is the conjugate-coordinate (Wirtinger) gradient
    scaled so finite differences of the realified coordinates match.
    """
    C = _project(problem, _as_matrix(x))
    G = _grad_from_proj(problem, C, *_value_from_proj(problem, C)[1])
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
    proj = _project(problem, x[:, None])  # a_{t,n}^T x, round-major
    gains = _gains_from_proj(proj, problem.codebook)
    P = _softmax(gains / tau)
    a_sel = problem.selected[:, :, 0]
    v = np.einsum("tn,dtn->td", P * proj.reshape(T, -1), A.reshape(A.shape[0], T, -1))
    c1, c2 = 2.0 / (tau * T), 4.0 / (tau**2 * T)
    # The C_t and S_t moments share one weighted GEMM over the columns of A.
    w = (c1 + c2 * gains) * P
    H = (A * w.ravel()) @ A.T - c1 * (a_sel.T @ a_sel) - c2 * (v.T @ v)
    return 0.5 * (H + H.T)


def population_excess_risk(
    problem: EstimationProblem, h: np.ndarray, x: np.ndarray
) -> float:
    """Expected NLL gap E[L_T(x)] - E[L_T(h)] under the softmax model at h.

    Equals the average over rounds of KL(p_t(.; h) || p_t(.; x)), computed
    exactly as a finite sum over the N outcomes; zero iff the pmfs agree.
    """
    sh = all_gains(problem, h) / problem.tau
    sx = all_gains(problem, x) / problem.tau
    ex_h, z_h, lse_h = _row_lse(sh)
    lse_x = _row_lse(sx)[2]
    # log p = scores - lse, so log p_h - log p_x = (sh - sx) - (lse_h - lse_x).
    kl = np.sum((ex_h / z_h[:, None]) * ((sh - lse_h[:, None]) - (sx - lse_x[:, None])), axis=1)
    return max(float(np.mean(kl)), 0.0)


def _bb_step(dS: np.ndarray, dG: np.ndarray, last: float, s_min: float, s_max: float) -> float:
    """BB1 step <dS, dS>/Re<dS, dG> clamped to [s_min, s_max]; min(2 last, s_max) if Re <= 0."""
    curv = float(np.vdot(dS, dG).real)
    if curv > 0:
        return min(max(float(np.vdot(dS, dS).real) / curv, s_min), s_max)
    return min(2.0 * last, s_max)


def _line_search_point(
    problem: EstimationProblem,
    S: np.ndarray,
    C: np.ndarray,
    G: np.ndarray,
    P: np.ndarray,
    s: float,
    radius: float,
) -> tuple[float, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One line-search trial: S - s G projected onto the ball, without a GEMV.

    C = A^H lift(S) and P = A^H lift(G) are the projections of the iterate
    and of the gradient.  Lift and projection are linear and the ball
    projection is a rescale by c(s) = min(1, radius / ||S - s G||), so the
    trial point Z has the projections c(s) (C - s P).  Returns the NLL at
    Z, Z, its projections and the ``(ex, z)`` that ``_grad_from_proj``
    needs there.
    """
    Z, CZ = S - s * G, C - s * P
    nrm = float(_fro_norm(Z))
    if nrm > radius:
        Z, CZ = Z * (radius / nrm), CZ * (radius / nrm)
    f, softmax_state = _value_from_proj(problem, CZ)
    return f, Z, CZ, softmax_state


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
        # scale invariant, so a decent starting norm matters.  Gains are
        # quadratic, gains(aX) = a^2 gains(X), so one projection serves the
        # whole scan.  The first minimum wins; if no candidate has a finite
        # objective, the unscaled direction is returned.
        hi = radius_hint if radius_hint is not None else 10.0
        scores = all_gains(problem, X if basis is None else basis @ X) / problem.tau
        best, best_f = None, np.inf
        for alpha in np.geomspace(0.05, hi, 41):
            f = _nll_from_scores(problem, (alpha * alpha) * scores)
            if f < best_f:
                best, best_f = alpha, f
        return X if best is None else best * X


def solve_mle(
    problem: EstimationProblem,
    config: Optional[MleConfig] = None,
    prior: Optional[SubspacePrior] = None,
) -> tuple[np.ndarray, MleReport]:
    """Constrained maximum-likelihood estimate by projected gradient descent.

    Minimizes ``nll`` over the Frobenius ball of radius ``problem.radius``
    (default 10x the initial norm); after every step the iterate is rescaled
    onto the ball if needed.  Stops at ``max_iters`` or when the plain
    relative change ||S_new - S||_F / ||S||_F drops below ``rel_tol`` (+inf
    from a zero iterate).  With a subspace prior the coefficient matrix S is
    optimized and B @ S returned.  The objective is invariant under S -> S U
    for unitary U, so S^H G is Hermitian: a step does not drift along that
    orbit to first order, and the change needs no alignment.

    The step rule is in ``MleConfig``.  It is monotone: no accepted step
    raises the objective, except one halved down to the lower clamp.  The
    Barzilai-Borwein step's s and y are the last changes of the iterate and
    of the gradient in the solver's own coordinates (coefficients under a
    subspace prior), so it costs no evaluation beyond those the solver holds.

    Each iteration costs one projection P = A^H G (``model._project``) and
    one gradient GEMM, however many line-search trials it takes: the
    projections C = A^H S of the iterate are carried along, every trial
    point's projections are a rescaled C - s P (``_line_search_point``), and
    the value and gradient at the accepted point come from its projections.
    """
    config = config or MleConfig()
    basis = prior.B if prior is not None else None
    m = config.n_streams or problem.codebook.r
    if m > (problem.d if basis is None else basis.shape[1]):
        raise ValueError(f"{m} streams exceed the dimension of the solve")
    S = _initial_point(problem, config, basis, m, problem.radius)
    radius = problem.radius if problem.radius is not None else 10.0 * float(_fro_norm(S))
    if radius <= 0:
        raise ValueError("radius must be positive")

    evals = {"obj": 0, "grad": 0}

    def lift(Z: np.ndarray) -> np.ndarray:
        return Z if basis is None else basis @ Z

    def gradient(C: np.ndarray, softmax_state: tuple) -> np.ndarray:
        evals["grad"] += 1
        G = _grad_from_proj(problem, C, *softmax_state)
        return G if basis is None else basis.conj().T @ G

    def project(Z: np.ndarray) -> np.ndarray:
        nrm = float(_fro_norm(Z))
        return Z * (radius / nrm) if nrm > radius else Z

    def trial(s: float) -> tuple:
        evals["obj"] += 1
        return _line_search_point(problem, S, C, G, P, s, radius)

    S = project(S)
    C = _project(problem, lift(S))
    f, softmax_state = _value_from_proj(problem, C)
    G = gradient(C, softmax_state)
    step0 = problem.tau / (4.0 * radius**2)
    s_min, s_max = 1e-20 * step0, 1e9 * step0
    s = step0
    rel = np.inf
    stop = "max-iters"
    it = 0
    for it in range(1, config.max_iters + 1):
        P = _project(problem, lift(G))
        new = trial(s)
        if new[0] > f:
            while new[0] > f and s > s_min:
                s /= 2.0
                new = trial(s)
        elif it == 1:
            # Two-way search: the crude initial scale can be far too small,
            # so keep doubling while the objective strictly improves.
            while s < s_max:
                big = trial(2.0 * s)
                if not big[0] < new[0]:
                    break
                s, new = 2.0 * s, big
        f_new, S_new, C, softmax_state = new
        if not np.isfinite(f_new):
            raise NumericalFailureError(f"non-finite objective at iteration {it}")
        dS = S_new - S
        nrm = _fro_norm(S)
        rel = _fro_norm(dS) / nrm if nrm > 0 else np.inf
        G_new = gradient(C, softmax_state)
        dG = G_new - G
        S, f, G = S_new, f_new, G_new
        if rel < config.rel_tol:
            stop = "converged"
            break
        s = _bb_step(dS, dG, s, s_min, s_max)
    X = lift(S)
    report = MleReport(
        iterations=it,
        nll=f,
        rel_change=float(rel),
        stop_reason=stop,
        radius=radius,
        n_obj_evals=evals["obj"],
        n_grad_evals=evals["grad"],
        coefficients=S if basis is not None else None,
    )
    return X, report
