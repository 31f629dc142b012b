"""Comparison estimators: spectral, alternating minimization, subspace PR.

All three consume the same feedback rounds as the likelihood solver; AM and
the phase-retrieval solvers additionally require the CQI values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .designs import eigvecs_descending, haar_stiefel
from .likelihood import NumericalFailureError, SubspacePrior, _bb_step, _check_stop_rule
from .metrics import _fro_norm
from .model import EstimationProblem, pmi_covariance

__all__ = [
    "BaselineConfig",
    "BaselineReport",
    "DegenerateEstimateWarning",
    "two_stage_estimate",
    "spectral_estimate",
    "am_estimate_single",
    "am_estimate_multi",
    "subspace_pr_estimate",
]


class DegenerateEstimateWarning(UserWarning):
    pass


@dataclass
class BaselineConfig:
    """Knobs shared by the iterative baselines.

    ``lambda_am`` defaults to 1 for single-stream AM and 100 for the
    multi-stream variant when left unset.  ``init`` starts single-stream AM
    from the spectral estimate ("spectral") or a Haar draw ("random").
    ``pr_variant`` is "wirtinger", "amplitude" or "best-of-both".  Each solve
    stops as ``MleConfig`` says, on the unaligned change of its own iterate.
    Phase retrieval takes ``MleConfig``'s step rule, but its first iteration
    only halves step0 = 1/lambda_max, and the clamps are [1e-20, 1e9] step0.
    """

    lambda_am: Optional[float] = None
    max_iters: int = 100
    rel_tol: float = 1e-3
    pr_variant: str = "best-of-both"
    init: str = "spectral"
    seed: int = 0

    def __post_init__(self):
        if self.lambda_am is not None and self.lambda_am < 0:
            raise ValueError("regularizer must be nonnegative")
        _check_stop_rule(self.max_iters, self.rel_tol)
        if self.pr_variant not in ("wirtinger", "amplitude", "best-of-both"):
            raise ValueError(f"unknown phase-retrieval variant {self.pr_variant!r}")
        if self.init not in ("spectral", "random"):
            raise ValueError(f"unknown initialization {self.init!r}")


@dataclass
class BaselineReport:
    iterations: int
    objective: float
    stop_reason: str
    degenerate: bool = False
    variant: Optional[str] = None


def two_stage_estimate(problem: EstimationProblem) -> np.ndarray:
    """Single-round estimate Q_1 V_{I_1}: outer reduction times the codeword."""
    return problem.selected[0].copy()


def _require_cqi(problem: EstimationProblem) -> np.ndarray:
    if not problem.has_cqi:
        raise ValueError("not every round carries a CQI value")
    return problem.cqi_array


def spectral_estimate(problem: EstimationProblem, r: Optional[int] = None) -> np.ndarray:
    """Top-r eigenvectors of the sample covariance of selected codewords.

    At T = 1 the column space equals range(Q_1 V_{I_1}), i.e. the two-stage
    precoding estimate.
    """
    r = r if r is not None else problem.codebook.r
    cov = pmi_covariance(problem)
    w = np.linalg.eigvalsh(cov)[::-1]
    if r > np.sum(w > w[0] * 1e-12):
        warnings.warn(
            "requested more beams than the PMI covariance rank; "
            "extra columns filled from the eigenbasis",
            DegenerateEstimateWarning,
        )
    return eigvecs_descending(cov, r)


def _am_phase_ls_loop(
    rows: np.ndarray,
    targets: np.ndarray,
    lam: float,
    x0: np.ndarray,
    max_iters: int,
    rel_tol: float,
) -> tuple[np.ndarray, BaselineReport]:
    """Alternate exact phase and regularized least-squares updates.

    rows[t] is the sensing vector b_t, so the residual model is
    |b_t^H x| ~ targets[t].  Both block updates are exact minimizers, so the
    objective sum_t (|b_t^H x| - targets_t)^2 + lam ||x||^2 never increases.
    Stops once min over phi of ||exp(-j phi) x_new - x|| / ||x|| < rel_tol.
    Unlike a gradient step, x_new - x = -gram^{-1} grad / 2 has a first-order
    component along the phase orbit, so the change needs this alignment.  Two
    zero iterates read as 0.0, a zero old iterate alone as +inf.
    """
    T, dim = rows.shape
    rows_h = rows.conj()
    gram = rows.T @ rows_h + lam * np.eye(dim)
    singular = False
    x = x0
    nrm = _fro_norm(x)
    obj = np.inf
    stop = "max-iters"
    it = 0
    for it in range(1, max_iters + 1):
        z = rows_h @ x  # b_t^H x
        mag = np.abs(z)
        phases = np.where(mag > 0, z / np.where(mag > 0, mag, 1.0), 1.0)
        rhs = rows.T @ (phases * targets)  # sum_t b_t e^{-j phi_t} y_t
        try:
            x_new = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            singular = True
            x_new = np.linalg.pinv(gram) @ rhs
        nrm_new = _fro_norm(x_new)
        obj = float(np.sum((np.abs(rows_h @ x_new) - targets) ** 2) + lam * nrm_new**2)
        if nrm == 0:
            rel = 0.0 if nrm_new == 0 else np.inf
        else:
            inner = np.vdot(x, x_new)
            if np.iscomplexobj(x):
                phase = np.exp(-1j * np.angle(inner)) if inner != 0 else 1.0
            else:
                phase = np.sign(inner) or 1.0
            rel = _fro_norm(phase * x_new - x) / nrm
        x, nrm = x_new, nrm_new
        if rel < rel_tol:
            stop = "converged"
            break
    return x, BaselineReport(iterations=it, objective=obj, stop_reason=stop, degenerate=singular)


def am_estimate_single(
    problem: EstimationProblem,
    config: Optional[BaselineConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, BaselineReport]:
    """Single-stream alternating minimization on CQI-matched magnitudes.

    Minimizes sum_t (|v_{I_t}^H Q_t^H x| - sqrt(eta_t))^2 + lambda ||x||^2 by
    alternating an exact phase assignment with a regularized least-squares
    solve; spectral initialization by default.
    """
    config = config or BaselineConfig()
    if problem.codebook.r != 1:
        raise ValueError("single-stream AM requires a width-1 codebook")
    eta = _require_cqi(problem)
    lam = config.lambda_am if config.lambda_am is not None else 1.0
    rows = problem.selected[:, :, 0]
    if config.init == "spectral":
        x0 = spectral_estimate(problem, 1)[:, 0]
    else:
        rng = rng or np.random.default_rng(config.seed)
        x0 = haar_stiefel(problem.d, 1, rng, real=not np.iscomplexobj(rows))[:, 0]
    return _am_phase_ls_loop(
        rows, np.sqrt(eta), lam, x0.astype(rows.dtype), config.max_iters, config.rel_tol
    )


def am_estimate_multi(
    problem: EstimationProblem,
    r: int,
    config: Optional[BaselineConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, BaselineReport]:
    """Sequential multi-stream AM under an equal CQI partition.

    Stream k is solved in the orthogonal complement of the previously
    returned columns with per-stream targets eta_t / r and random
    initialization, then normalized, so the output has orthonormal columns.
    """
    config = config or BaselineConfig()
    rng = rng or np.random.default_rng(config.seed)
    eta = _require_cqi(problem)
    lam = config.lambda_am if config.lambda_am is not None else (1.0 if r == 1 else 100.0)
    d = problem.d
    if not 1 <= r <= d:
        raise ValueError(f"stream count must be in 1..{d}, got {r}")
    dtype = problem.dtype
    cols = []
    total_iters = 0
    for k in range(r):
        if cols:
            prev = np.stack(cols, axis=1)
            Qc, _ = np.linalg.qr(prev, mode="complete")
            P = Qc[:, len(cols) :]
        else:
            P = np.eye(d, dtype=dtype)
        # rows[t] = P^H Q_t V_{I_t} e_k, the stream-k column of the codeword.
        rows = problem.selected[:, :, min(k, problem.codebook.r - 1)] @ P.conj()
        u0 = haar_stiefel(P.shape[1], 1, rng, real=dtype is float)[:, 0]
        u, rep = _am_phase_ls_loop(
            rows, np.sqrt(eta / r), lam, u0.astype(rows.dtype), config.max_iters, config.rel_tol
        )
        total_iters += rep.iterations
        nrm = np.linalg.norm(u)
        if nrm == 0:
            warnings.warn("AM stream collapsed to zero; using a complement basis vector", DegenerateEstimateWarning)
            u = np.eye(P.shape[1], 1, dtype=rows.dtype)[:, 0]
            nrm = 1.0
        cols.append(P @ (u / nrm))
    H = np.stack(cols, axis=1)
    return H, BaselineReport(total_iters, rep.objective, rep.stop_reason, rep.degenerate)


def _pr_data(problem: EstimationProblem, basis: np.ndarray) -> np.ndarray:
    """M_t = B^H Q_t V_{I_t}, stacked as (T, k, r)."""
    return np.matmul(basis.conj().T, problem.selected)


def _intensities(Ms_h: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intensities y_t = ||M_t^H S||_F^2 and the projections M_t^H S, shape (T, r, m).

    ``Ms_h`` is ``Ms.conj()``.
    """
    proj = np.einsum("tkr,km->trm", Ms_h, S)
    return np.einsum("trm,trm->t", proj, proj.conj()).real, proj


def _wf_loss_grad(
    Ms: np.ndarray, Ms_h: np.ndarray, eta: np.ndarray, S: np.ndarray
) -> tuple[float, np.ndarray]:
    """Intensity loss mean((y_t - eta_t)^2) and its gradient in S; ``Ms_h`` is ``Ms.conj()``."""
    y, MhS = _intensities(Ms_h, S)
    resid = y - eta
    loss = float((resid**2).sum() / resid.size)
    grad = (4.0 / Ms.shape[0]) * np.einsum("t,tkr,trm->km", resid, Ms, MhS)
    return loss, grad


def _af_loss_grad(
    Ms: np.ndarray, Ms_h: np.ndarray, root_eta: np.ndarray, S: np.ndarray
) -> tuple[float, np.ndarray]:
    """Amplitude loss mean((sqrt(y_t) - root_eta_t)^2) and its gradient in S.

    ``Ms_h`` is ``Ms.conj()`` and ``root_eta`` is ``sqrt(eta)``.
    """
    y, MhS = _intensities(Ms_h, S)
    amp = np.sqrt(y)
    sq_err = (amp - root_eta) ** 2
    loss = float(sq_err.sum() / sq_err.size)
    live = amp > 1e-15
    safe = np.where(live, amp, 1.0)
    factor = np.where(live, 1.0 - root_eta / safe, 0.0)
    grad = (2.0 / Ms.shape[0]) * np.einsum("t,tkr,trm->km", factor, Ms, MhS)
    return loss, grad


def _pr_descent(
    S0: np.ndarray,
    step0: float,
    loss_grad,
    max_iters: int,
    rel_tol: float,
) -> tuple[np.ndarray, float, int, str]:
    """Backtracking gradient descent on ``loss_grad(S) -> (loss, grad)`` from S0.

    The first iteration halves ``step0`` while the loss rises.  Every later
    one first tries the Barzilai-Borwein step <s, s>/Re<s, y> of the last
    move s and gradient change y (twice the last accepted step when
    Re<s, y> <= 0), clamped to [1e-20, 1e9] step0, and halves it while the
    loss rises.  Stops once ||S_new - S||_F / ||S||_F < rel_tol (0.0 from a
    zero S), unaligned: both losses are invariant under S -> S U, so S^H grad
    is Hermitian and a step does not drift along that orbit to first order.
    """
    S = S0
    loss, grad = loss_grad(S)
    s_min, s_max = 1e-20 * step0, 1e9 * step0
    step = step0
    stop = "max-iters"
    it = 0
    for it in range(1, max_iters + 1):
        S_new = S - step * grad
        loss_new, grad_new = loss_grad(S_new)
        while loss_new > loss and step > s_min:
            step /= 2.0
            S_new = S - step * grad
            loss_new, grad_new = loss_grad(S_new)
        if not np.isfinite(loss_new):
            raise NumericalFailureError(f"non-finite phase-retrieval loss at iteration {it}")
        dS, dG = S_new - S, grad_new - grad
        nrm = _fro_norm(S)
        rel = _fro_norm(dS) / nrm if nrm > 0 else 0.0
        S, loss, grad = S_new, loss_new, grad_new
        if rel < rel_tol:
            stop = "converged"
            break
        step = _bb_step(dS, dG, step, s_min, s_max)
    return S, loss, it, stop


def subspace_pr_estimate(
    problem: EstimationProblem,
    prior: SubspacePrior,
    r: Optional[int] = None,
    config: Optional[BaselineConfig] = None,
) -> tuple[np.ndarray, BaselineReport]:
    """Phase retrieval of B_k S from CQI magnitudes inside a subspace prior.

    Runs gradient descent on the intensity loss (Wirtinger flow) and/or the
    amplitude loss (amplitude flow) from a subspace-aware spectral
    initialization; "best-of-both" keeps whichever solution has the lower
    amplitude residual.
    """
    config = config or BaselineConfig()
    B = prior.B
    r = r if r is not None else problem.codebook.r
    eta = _require_cqi(problem)
    Ms = _pr_data(problem, B)
    if np.max(eta) <= 0:
        warnings.warn("all CQI values vanish; returning the zero estimate", DegenerateEstimateWarning)
        S = np.zeros((B.shape[1], r), dtype=Ms.dtype)
        return B @ S, BaselineReport(0, 0.0, "degenerate", degenerate=True)
    cov = pmi_covariance(problem, B)
    lam_max = float(np.linalg.eigvalsh(cov)[-1].real)
    S0 = eigvecs_descending(cov, r).astype(Ms.dtype)
    Ms_h = Ms.conj()
    y0 = _intensities(Ms_h, S0)[0]
    scale = np.sqrt(np.sum(eta) / np.sum(y0)) if np.sum(y0) > 0 else 1.0
    S0 = scale * S0
    step0 = 1.0 / lam_max if lam_max > 0 else 1.0
    wf_loss = partial(_wf_loss_grad, Ms, Ms_h, eta)
    af_loss = partial(_af_loss_grad, Ms, Ms_h, np.sqrt(eta))

    runs = {}
    if config.pr_variant in ("wirtinger", "best-of-both"):
        runs["wirtinger"] = _pr_descent(S0, step0, wf_loss, config.max_iters, config.rel_tol)
    if config.pr_variant in ("amplitude", "best-of-both"):
        runs["amplitude"] = _pr_descent(S0, step0, af_loss, config.max_iters, config.rel_tol)
    # Compare candidates on the common amplitude residual, which amplitude flow returns.
    name = min(runs, key=lambda k: runs[k][1] if k == "amplitude" else af_loss(runs[k][0])[0])
    S, loss, iters, stop = runs[name]
    return B @ S, BaselineReport(iterations=iters, objective=loss, stop_reason=stop, variant=name)
