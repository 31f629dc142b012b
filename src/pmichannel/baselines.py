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

from .designs import haar_stiefel
from .likelihood import _as_stack, _check_stop_rule, _descend, _norms, _pmi_eig, _spectral
from .model import EstimationProblem, _reduced

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
    stops as ``MleConfig`` says, on the unaligned change of its own iterate:
    both phase-retrieval losses are invariant under S -> S U, so a gradient
    step does not drift along that orbit to first order.
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
    own call.  The decomposition is ``likelihood._pmi_eig``'s, kept on the
    problem; its eigenvalues decide the rank warning.
    """
    single, problems, _ = _as_stack(problem)
    r = r if r is not None else problems[0].codebook.r
    out = []
    for w, U in _pmi_eig(problems):
        if r > np.sum(w > w[0] * 1e-12):
            msg = "requested more beams than the PMI covariance rank; extra columns filled from the eigenbasis"
            warnings.warn(msg, DegenerateEstimateWarning)
        out.append(U[:, :r].copy())
    return out[0] if single else out


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


def _intensities(Ms_h: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intensities y_t = ||M_t^H S||_F^2 and the projections M_t^H S, shape (..., T, r, m).

    ``Ms_h`` is ``Ms.conj()``; leading axes are a stack of problems.
    """
    proj = np.einsum("...tkr,...km->...trm", Ms_h, S)
    return np.einsum("...trm,...trm->...t", proj, proj.conj()).real, proj


def _wf_value(data: tuple, S: np.ndarray, at=None) -> tuple:
    """Intensity loss mean((y_t - eta_t)^2) at each iterate of S, and the state ``_wf_grad`` reads.

    ``data`` is (Ms, Ms.conj(), eta), ``at`` picks its rows for a subset of the
    stack, and the loss is a list, or a float for one problem without a stack axis.
    """
    Ms_h, eta = data[1:] if at is None else (a[at] for a in data[1:])
    y, MhS = _intensities(Ms_h, S)
    resid = y - eta
    return ((resid**2).sum(axis=-1) / resid.shape[-1]).tolist(), (resid, MhS)


def _wf_grad(data: tuple, S: np.ndarray, state: tuple) -> np.ndarray:
    """Gradient in S of the intensity loss, from ``_wf_value``'s state at S."""
    resid, MhS = state
    return (4.0 / data[0].shape[-3]) * np.einsum("...t,...tkr,...trm->...km", resid, data[0], MhS)


def _af_value(data: tuple, S: np.ndarray, at=None) -> tuple:
    """Amplitude loss mean((sqrt(y_t) - root_eta_t)^2) at each iterate of S, and ``_af_grad``'s state.

    ``data`` is (Ms, Ms.conj(), sqrt(eta)); ``at`` and the loss are as for ``_wf_value``.
    """
    Ms_h, root_eta = data[1:] if at is None else (a[at] for a in data[1:])
    y, MhS = _intensities(Ms_h, S)
    amp = np.sqrt(y)
    sq_err = (amp - root_eta) ** 2
    return (sq_err.sum(axis=-1) / sq_err.shape[-1]).tolist(), (amp, MhS)


def _af_grad(data: tuple, S: np.ndarray, state: tuple) -> np.ndarray:
    """Gradient in S of the amplitude loss, from ``_af_value``'s state at S."""
    amp, MhS = state
    live = amp > 1e-15
    safe = np.where(live, amp, 1.0)
    factor = np.where(live, 1.0 - data[2] / safe, 0.0)
    return (2.0 / data[0].shape[-3]) * np.einsum("...t,...tkr,...trm->...km", factor, data[0], MhS)


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
    Ms = [_reduced(pb, pr.B) for pb, pr in zip(problems, priors)]  # M_t = B^H Q_t V_{I_t}
    out, live = [None] * len(problems), []
    for i, (eta, M, pr) in enumerate(zip(etas, Ms, priors)):
        if np.max(eta) <= 0:
            warnings.warn("all CQI values vanish; returning the zero estimate", DegenerateEstimateWarning)
            S = np.zeros((pr.k, r), dtype=M.dtype)
            out[i] = (pr.B @ S, BaselineReport(0, 0.0, "degenerate", degenerate=True))
        else:
            live.append(i)
    if live:
        M, eta = np.stack([Ms[i] for i in live]), np.stack([etas[i] for i in live])
        covs, S0 = _spectral(M, r)
        lam_max = np.linalg.eigvalsh(covs)[:, -1].tolist()
        M_h, S0 = M.conj(), S0.astype(M.dtype)
        y0 = _intensities(M_h, S0)[0].sum(axis=-1).tolist()
        scale = [np.sqrt(e / y) if y > 0 else 1.0 for e, y in zip(eta.sum(axis=-1).tolist(), y0)]
        S0 = np.array(scale)[:, None, None] * S0
        step0 = [1.0 / lam if lam > 0 else 1.0 for lam in lam_max]
        af, runs, limits = (M, M_h, np.sqrt(eta)), {}, (config.max_iters, config.rel_tol)
        for name, value, grad, data in (
            ("wirtinger", _wf_value, _wf_grad, (M, M_h, eta)),
            ("amplitude", _af_value, _af_grad, af),
        ):
            if config.pr_variant in (name, "best-of-both"):
                runs[name] = _descend(S0, data, value, grad, step0, *limits, ids=live)
        # Compare candidates on the common amplitude residual, which amplitude flow returns.
        score = {name: [res[1] for res in solved] for name, solved in runs.items()}
        if len(runs) == 2:
            score["wirtinger"] = _af_value(af, np.stack([res[0] for res in runs["wirtinger"]]))[0]
        for j, i in enumerate(live):
            name = min(runs, key=lambda k: score[k][j])
            S, loss, iters, _, stop, _ = runs[name][j]
            out[i] = (priors[i].B @ S, BaselineReport(iters, loss, stop, variant=name))
    return out[0] if single else out
