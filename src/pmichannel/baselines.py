"""Comparison estimators: spectral, alternating minimization, subspace PR.

All three consume the same feedback rounds as the likelihood solver; AM and
the phase-retrieval solvers additionally require the CQI values.  Like
``solve_mle``, each takes one problem or a sequence of problems of one shape,
solved as one stack in which every problem keeps the bits of its own call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .designs import eigvecs_descending, haar_stiefel
from .likelihood import NumericalFailureError, _as_stack, _bb_step, _check_stop_rule, _norms
from .model import EstimationProblem, _covariance, pmi_covariance

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
    """Knobs shared by the iterative baselines, and by every problem of a stacked call.

    ``lambda_am`` defaults to 1 for single-stream AM and 100 for the
    multi-stream variant when left unset.  ``init`` starts single-stream AM
    from the spectral estimate ("spectral") or a Haar draw ("random").
    ``pr_variant`` is "wirtinger", "amplitude" or "best-of-both".  Each solve
    stops as ``MleConfig`` says, on the unaligned change of its own iterate.
    Phase retrieval takes ``MleConfig``'s step rule, but its first iteration
    only halves step0 = 1/lambda_max, and the clamps are [1e-20, 1e9] step0.
    In a stack each problem keeps its own step and stop.
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


def _rngs(rng, n: int, seed: int) -> list:
    """One generator per problem: a fresh ``default_rng(seed)`` each for None, else rng's.

    ``rng`` is one generator, drawn in problem order as by one call per
    problem, or one per problem.
    """
    if rng is None:
        return [np.random.default_rng(seed) for _ in range(n)]
    rngs = [rng] * n if isinstance(rng, np.random.Generator) else list(rng)
    if len(rngs) != n:
        raise ValueError("need one generator or one per problem")
    return rngs


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A_b x_b for a (B, m, n) stack of matrices and a (B, n) stack of vectors: one GEMV each."""
    return np.matmul(A, x[..., None])[..., 0]


def spectral_estimate(problem, r: Optional[int] = None):
    """Top-r eigenvectors of the sample covariance of selected codewords.

    At T = 1 the column space equals range(Q_1 V_{I_1}), i.e. the two-stage
    precoding estimate.  A sequence of problems of one shape gives a list of
    estimates from one batched eigendecomposition, each with the bits of its
    own call.
    """
    single, problems, _ = _as_stack(problem)
    r = r if r is not None else problems[0].codebook.r
    covs = np.stack([pmi_covariance(pb) for pb in problems])
    for w in np.linalg.eigvalsh(covs)[:, ::-1]:
        if r > np.sum(w > w[0] * 1e-12):
            warnings.warn(
                "requested more beams than the PMI covariance rank; "
                "extra columns filled from the eigenbasis",
                DegenerateEstimateWarning,
            )
    ests = list(eigvecs_descending(covs, r))
    return ests[0] if single else ests


def _am_phase_ls_loop(rows, targets, lam: float, x0, max_iters: int, rel_tol: float) -> list:
    """Alternate exact phase and regularized least-squares updates over a stack of problems.

    rows[b, t] is problem b's sensing vector b_t, so the residual model is
    |b_t^H x| ~ targets[b, t].  Both block updates are exact minimizers, so
    the objective sum_t (|b_t^H x| - targets_t)^2 + lam ||x||^2 never
    increases.  Stops once min over phi of ||exp(-j phi) x_new - x|| / ||x||
    < rel_tol.  Unlike a gradient step, x_new - x = -gram^{-1} grad / 2 has a
    first-order component along the phase orbit, so the change needs this
    alignment.  Two zero iterates read as 0.0, a zero old iterate alone as +inf.

    Takes (B, T, dim) rows, (B, T) targets and (B, dim) starts and returns B
    (x, BaselineReport) pairs.  A problem leaves the stack when it stops and
    keeps the bits of a stack of one; a singular gram (lam = 0) sends only its
    own problem to ``pinv``.
    """
    n, _, dim = rows.shape
    rows_h = rows.conj()
    gram = rows.swapaxes(1, 2) @ rows_h + lam * np.eye(dim)
    x, nrm, z = x0, _norms(x0), _mv(rows_h, x0)  # z = b_t^H x, carried to the next iteration
    ids, singular, results = list(range(n)), [False] * n, [None] * n
    for it in range(1, max_iters + 1):
        mag = np.abs(z)
        phases = np.where(mag > 0, z / np.where(mag > 0, mag, 1.0), 1.0)
        rhs = _mv(rows.swapaxes(1, 2), phases * targets)  # sum_t b_t e^{-j phi_t} y_t
        try:
            x_new = np.linalg.solve(gram, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            x_new = np.empty_like(rhs)
            for i, (g, b) in enumerate(zip(gram, rhs)):
                try:
                    x_new[i] = np.linalg.solve(g, b)
                except np.linalg.LinAlgError:
                    singular[i] = True
                    x_new[i] = np.linalg.pinv(g) @ b
        z_new = _mv(rows_h, x_new)
        inner = np.vecdot(x, x_new)  # vdot(x, x_new) of each problem
        if rows.dtype.kind == "c":
            phase = np.where(inner != 0, np.exp(-1j * np.angle(inner)), 1.0)
        else:
            phase = np.sign(inner)
            phase[phase == 0] = 1.0
        norms = _norms(np.concatenate((x_new, phase[:, None] * x_new - x)))
        nrm_new, nd = norms[: len(x)], norms[len(x) :]
        sq = np.sum((np.abs(z_new) - targets) ** 2, axis=1).tolist()
        obj = [a + lam * b**2 for a, b in zip(sq, nrm_new)]
        rel = [c / a if a else (0.0 if b == 0 else math.inf) for a, b, c in zip(nrm, nrm_new, nd)]
        x, nrm, z = x_new, nrm_new, z_new
        keep = []
        for i, r in enumerate(rel):
            if r < rel_tol or it == max_iters:
                stop = "converged" if r < rel_tol else "max-iters"
                results[ids[i]] = (x[i], BaselineReport(it, obj[i], stop, singular[i]))
            else:
                keep.append(i)
        if not keep:
            break
        if len(keep) < len(ids):
            rows, rows_h, gram, targets, x, z = (a[keep] for a in (rows, rows_h, gram, targets, x, z))
            ids, nrm, singular = ([a[i] for i in keep] for a in (ids, nrm, singular))
    return results


def am_estimate_single(problem, config: Optional[BaselineConfig] = None, rng=None):
    """Single-stream alternating minimization on CQI-matched magnitudes.

    Minimizes sum_t (|v_{I_t}^H Q_t^H x| - sqrt(eta_t))^2 + lambda ||x||^2 by
    alternating an exact phase assignment with a regularized least-squares
    solve; spectral initialization by default.  Returns ``(x, BaselineReport)``;
    a sequence of problems of one shape is solved as one stack into a list of
    such pairs, each with the bits of its own call.  ``rng`` (random starts)
    is None, one generator drawn in problem order, or one per problem.
    """
    config = config or BaselineConfig()
    single, problems, _ = _as_stack(problem)
    if problems[0].codebook.r != 1:
        raise ValueError("single-stream AM requires a width-1 codebook")
    eta = np.stack([_require_cqi(pb) for pb in problems])
    rngs = _rngs(rng, len(problems), config.seed) if config.init == "random" else None
    lam = config.lambda_am if config.lambda_am is not None else 1.0
    rows = np.stack([pb.selected[:, :, 0] for pb in problems])
    if config.init == "spectral":
        x0 = np.stack([est[:, 0] for est in spectral_estimate(problems, 1)])
    else:
        real = rows.dtype.kind != "c"
        x0 = np.stack([haar_stiefel(problems[0].d, 1, g, real=real)[:, 0] for g in rngs])
    out = _am_phase_ls_loop(
        rows, np.sqrt(eta), lam, x0.astype(rows.dtype), config.max_iters, config.rel_tol
    )
    return out[0] if single else out


def am_estimate_multi(problem, r: int, config: Optional[BaselineConfig] = None, rng=None):
    """Sequential multi-stream AM under an equal CQI partition.

    Stream k is solved in the orthogonal complement of the previously
    returned columns with per-stream targets eta_t / r and random
    initialization, then normalized, so the output has orthonormal columns.
    The report sums the streams' iterations and gives the last stream's
    objective; it reads "max-iters" if any stream hit the cap and is
    degenerate if any stream's gram was singular or its solution collapsed
    to zero.  A sequence of problems of one shape is solved one stacked AM
    loop per stream into a list of ``(H, BaselineReport)`` pairs, each with
    the bits of its own call; ``rng`` is as for ``am_estimate_single``.
    """
    config = config or BaselineConfig()
    single, problems, _ = _as_stack(problem)
    rngs = _rngs(rng, len(problems), config.seed)
    eta = np.stack([_require_cqi(pb) for pb in problems])
    lam = config.lambda_am if config.lambda_am is not None else (1.0 if r == 1 else 100.0)
    d, dtype = problems[0].d, problems[0].dtype
    if not 1 <= r <= d:
        raise ValueError(f"stream count must be in 1..{d}, got {r}")
    # Each problem draws its streams' starts in stream order, as its own call does.
    u0 = [[haar_stiefel(d - k, 1, g, real=dtype is float)[:, 0] for k in range(r)] for g in rngs]
    n = len(problems)
    cols, iters, capped, degenerate = [[] for _ in problems], [0] * n, [False] * n, [False] * n
    for k in range(r):
        if k:
            P = [np.linalg.qr(np.stack(c, axis=1), mode="complete")[0][:, k:] for c in cols]
        else:
            P = [np.eye(d, dtype=dtype)] * n
        # rows[t] = P^H Q_t V_{I_t} e_k, the stream-k column of the codeword.
        sel = [pb.selected[:, :, min(k, pb.codebook.r - 1)] for pb in problems]
        rows = np.stack([s @ Pb.conj() for s, Pb in zip(sel, P)])
        x0 = np.stack([u[k] for u in u0]).astype(rows.dtype)
        solved = _am_phase_ls_loop(rows, np.sqrt(eta / r), lam, x0, config.max_iters, config.rel_tol)
        for i, (u, rep) in enumerate(solved):
            iters[i] += rep.iterations
            capped[i] |= rep.stop_reason == "max-iters"
            degenerate[i] |= rep.degenerate
            nrm = np.linalg.norm(u)
            if nrm == 0:
                msg = "AM stream collapsed to zero; using a complement basis vector"
                warnings.warn(msg, DegenerateEstimateWarning)
                u, nrm, degenerate[i] = np.eye(d - k, 1, dtype=rows.dtype)[:, 0], 1.0, True
            cols[i].append(P[i] @ (u / nrm))
    out = [
        (np.stack(c, axis=1), BaselineReport(it, rep.objective, "max-iters" if cap else "converged", deg))
        for c, it, (_, rep), cap, deg in zip(cols, iters, solved, capped, degenerate)
    ]
    return out[0] if single else out


def _pr_data(problem: EstimationProblem, basis: np.ndarray) -> np.ndarray:
    """M_t = B^H Q_t V_{I_t}, stacked as (T, k, r)."""
    return np.matmul(basis.conj().T, problem.selected)


def _intensities(Ms_h: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intensities y_t = ||M_t^H S||_F^2 and the projections M_t^H S, shape (..., T, r, m).

    ``Ms_h`` is ``Ms.conj()``; leading axes are a stack of problems.
    """
    proj = np.einsum("...tkr,...km->...trm", Ms_h, S)
    return np.einsum("...trm,...trm->...t", proj, proj.conj()).real, proj


def _wf_loss_grad(Ms: np.ndarray, Ms_h: np.ndarray, eta: np.ndarray, S: np.ndarray) -> tuple:
    """Intensity loss mean((y_t - eta_t)^2) and its gradient in S; ``Ms_h`` is ``Ms.conj()``.

    The loss is a float, or a list of floats for a stack of problems.
    """
    y, MhS = _intensities(Ms_h, S)
    resid = y - eta
    loss = ((resid**2).sum(axis=-1) / resid.shape[-1]).tolist()
    grad = (4.0 / Ms.shape[-3]) * np.einsum("...t,...tkr,...trm->...km", resid, Ms, MhS)
    return loss, grad


def _af_loss_grad(Ms: np.ndarray, Ms_h: np.ndarray, root_eta: np.ndarray, S: np.ndarray) -> tuple:
    """Amplitude loss mean((sqrt(y_t) - root_eta_t)^2) and its gradient in S.

    ``Ms_h`` is ``Ms.conj()`` and ``root_eta`` is ``sqrt(eta)``; the loss is
    as for ``_wf_loss_grad``.
    """
    y, MhS = _intensities(Ms_h, S)
    amp = np.sqrt(y)
    sq_err = (amp - root_eta) ** 2
    loss = (sq_err.sum(axis=-1) / sq_err.shape[-1]).tolist()
    live = amp > 1e-15
    safe = np.where(live, amp, 1.0)
    factor = np.where(live, 1.0 - root_eta / safe, 0.0)
    grad = (2.0 / Ms.shape[-3]) * np.einsum("...t,...tkr,...trm->...km", factor, Ms, MhS)
    return loss, grad


def _pr_descent(S0, step0: list, loss_grad, data: tuple, max_iters: int, rel_tol: float, ids) -> dict:
    """Backtracking gradient descent of a (B, k, m) stack of starts on ``loss_grad``.

    ``loss_grad(*data, S)`` gives the losses (a list) and the gradients of a
    stack of iterates S whose problems' data are the rows of ``data``.  The
    first iteration halves ``step0`` while the loss rises.  Every later one
    first tries the Barzilai-Borwein step <s, s>/Re<s, y> of the last move s
    and gradient change y (twice the last accepted step when Re<s, y> <= 0),
    clamped to [1e-20, 1e9] step0, and halves it while the loss rises.  Stops
    once ||S_new - S||_F / ||S||_F < rel_tol (0.0 from a zero S), unaligned:
    both losses are invariant under S -> S U, so S^H grad is Hermitian and a
    step does not drift along that orbit to first order.

    Each problem keeps its own step, halvings and stop and leaves the stack
    when it stops, so it has the bits of a stack of one.  Returns
    ``{ids[b]: (S, loss, iterations, stop)}``; NumericalFailureError names
    the id of a problem whose loss is not finite.
    """
    S = S0
    loss, grad = loss_grad(*data, S)
    step, ids, results = list(step0), list(ids), {}
    s_min, s_max = [1e-20 * x for x in step], [1e9 * x for x in step]
    for it in range(1, max_iters + 1):
        S_new = S - np.array(step)[:, None, None] * grad
        loss_new, grad_new = loss_grad(*data, S_new)
        go = [i for i, (a, b) in enumerate(zip(loss_new, loss)) if a > b and step[i] > s_min[i]]
        while go:
            # Each round halves the step of every problem whose loss still rises.
            for i in go:
                step[i] /= 2.0
            if len(go) == len(ids):
                S_new = S - np.array(step)[:, None, None] * grad
                loss_new, grad_new = loss_grad(*data, S_new)
            else:
                at = np.array(go)
                Z = S[at] - np.array([step[i] for i in go])[:, None, None] * grad[at]
                loss_t, grad_t = loss_grad(*(a[at] for a in data), Z)
                S_new[at], grad_new[at] = Z, grad_t
                for i, f in zip(go, loss_t):
                    loss_new[i] = f
            go = [i for i in go if loss_new[i] > loss[i] and step[i] > s_min[i]]
        if not all(map(math.isfinite, loss_new)):
            bad = next(b for b, f in zip(ids, loss_new) if not math.isfinite(f))
            msg = f"non-finite phase-retrieval loss at iteration {it} in problem {bad}"
            raise NumericalFailureError(msg)
        dS, dG = S_new - S, grad_new - grad
        norms = _norms(np.concatenate((dS, S)))
        rel = [a / b if b > 0 else 0.0 for a, b in zip(norms, norms[len(S) :])]
        S, loss, grad = S_new, loss_new, grad_new
        flat = dS.reshape(len(ids), -1)
        ss = np.vecdot(flat, flat).real.tolist()
        sy = np.vecdot(flat, dG.reshape(len(ids), -1)).real.tolist()
        step = list(map(_bb_step, ss, sy, step, s_min, s_max))
        keep = []
        for i, r in enumerate(rel):
            if r < rel_tol or it == max_iters:
                results[ids[i]] = (S[i], loss[i], it, "converged" if r < rel_tol else "max-iters")
            else:
                keep.append(i)
        if not keep:
            break
        if len(keep) < len(ids):
            S, grad = S[keep], grad[keep]
            data = tuple(a[keep] for a in data)
            loss, step, s_min, s_max, ids = ([a[i] for i in keep] for a in (loss, step, s_min, s_max, ids))
    return results


def subspace_pr_estimate(
    problem, prior, r: Optional[int] = None, config: Optional[BaselineConfig] = None
):
    """Phase retrieval of B_k S from CQI magnitudes inside a subspace prior.

    Runs gradient descent on the intensity loss (Wirtinger flow) and/or the
    amplitude loss (amplitude flow) from a subspace-aware spectral
    initialization; "best-of-both" keeps whichever solution has the lower
    amplitude residual.  Returns ``(B S, BaselineReport)``.  A sequence of
    problems of one shape, with one prior or one each, is solved as one
    stacked descent per loss into a list of such pairs, each with the bits of
    its own call; a problem whose CQI values all vanish takes the zero
    estimate and leaves the others to the stack.
    """
    config = config or BaselineConfig()
    single, problems, priors = _as_stack(problem, prior)
    r = r if r is not None else problems[0].codebook.r
    etas = [_require_cqi(pb) for pb in problems]
    Ms = [_pr_data(pb, pr.B) for pb, pr in zip(problems, priors)]
    out, live = [None] * len(problems), []
    for i, (eta, M, pr) in enumerate(zip(etas, Ms, priors)):
        if np.max(eta) <= 0:
            warnings.warn("all CQI values vanish; returning the zero estimate", DegenerateEstimateWarning)
            S = np.zeros((pr.k, r), dtype=M.dtype)
            out[i] = (pr.B @ S, BaselineReport(0, 0.0, "degenerate", degenerate=True))
        else:
            live.append(i)
    if live:
        covs = np.stack([_covariance(Ms[i]) for i in live])
        lam_max = np.linalg.eigvalsh(covs)[:, -1].tolist()
        M, eta = np.stack([Ms[i] for i in live]), np.stack([etas[i] for i in live])
        M_h = M.conj()
        S0 = eigvecs_descending(covs, r).astype(M.dtype)
        y0 = _intensities(M_h, S0)[0].sum(axis=-1).tolist()
        scale = [np.sqrt(e / y) if y > 0 else 1.0 for e, y in zip(eta.sum(axis=-1).tolist(), y0)]
        S0 = np.array(scale)[:, None, None] * S0
        step0 = [1.0 / lam if lam > 0 else 1.0 for lam in lam_max]
        af, limits = (M, M_h, np.sqrt(eta)), (config.max_iters, config.rel_tol, live)
        runs = {}
        if config.pr_variant in ("wirtinger", "best-of-both"):
            runs["wirtinger"] = _pr_descent(S0, step0, _wf_loss_grad, (M, M_h, eta), *limits)
        if config.pr_variant in ("amplitude", "best-of-both"):
            runs["amplitude"] = _pr_descent(S0, step0, _af_loss_grad, af, *limits)
        # Compare candidates on the common amplitude residual, which amplitude flow returns.
        score = {name: [res[i][1] for i in live] for name, res in runs.items()}
        if len(runs) == 2:
            score["wirtinger"] = _af_loss_grad(*af, np.stack([runs["wirtinger"][i][0] for i in live]))[0]
        for j, i in enumerate(live):
            name = min(runs, key=lambda k: score[k][j])
            S, loss, iters, stop = runs[name][i]
            out[i] = (priors[i].B @ S, BaselineReport(iters, loss, stop, variant=name))
    return out[0] if single else out
