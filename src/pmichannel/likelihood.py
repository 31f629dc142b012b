"""Negative log-likelihood of PMI feedback and the projected-gradient solver.

The observation model assigns round t's feedback index i probability
proportional to exp(gain(t, i, x)/tau).  Minimizing the resulting negative
log-likelihood over a Frobenius ball recovers the channel up to a global
phase (single stream) or a right-unitary factor (multi-stream).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence, Union

import numpy as np

from .designs import eigvecs_descending, haar_stiefel
from .model import (
    EstimationProblem,
    _as_matrix,
    _covariance,
    _gains_from_proj,
    _orthonormal,
    _positive_int,
    _project,
    _reduced,
    _row_lse,
    _softmax,
    all_gains,
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
        if B.ndim != 2 or B.shape[1] == 0:
            raise ValueError(f"basis must be a 2-D (d, k) array with k >= 1, got shape {B.shape}")
        if not _orthonormal(B[None]):
            raise ValueError("basis columns must be orthonormal")
        object.__setattr__(self, "B", B)

    @property
    def k(self) -> int:
        return self.B.shape[1]


def _check_stop_rule(max_iters: int, rel_tol: float) -> None:
    if not _positive_int(max_iters):
        raise ValueError(f"max_iters must be a positive int, got {max_iters!r}")
    if not 0.0 < rel_tol < np.inf:
        raise ValueError(f"relative tolerance must be finite and positive, got {rel_tol}")


@dataclass
class MleConfig:
    """Solver knobs.

    ``init`` is one of "identity" (first columns of an identity matrix),
    "random" (a Haar Stiefel draw from ``default_rng(0)``), "spectral"
    (dominant eigenvectors of the PMI sample covariance, scaled to the first
    objective minimum on a 41-point grid, found by a Fibonacci search that
    falls back to all 41 values on a near-tie or a non-finite value) or
    "explicit" (use ``x0``: a finite (dim, m) matrix, or a (dim,) vector when
    m = 1).  The first iteration searches from the step tau/(4 R^2) both
    ways: it halves while the objective rises, otherwise it doubles while the
    objective strictly improves.  Every later iteration first tries the
    Barzilai-Borwein step <s, s>/Re<s, y> of the last move s and gradient
    change y (twice the last accepted step when Re<s, y> <= 0), clamped to
    [1e-20, 1e9] tau/(4 R^2), and halves it while the objective rises.  The
    solve stops after ``max_iters`` iterations (a positive int), or at the
    first whose unaligned relative change ||S_new - S||_F / ||S||_F is below
    the finite, positive ``rel_tol``.  ``n_streams`` = m (default: the
    codebook's r) is an int in 1..d, or 1..k under a prior.
    A stacked solve applies one config, ``x0`` included, to all its problems.
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
        if self.n_streams is not None and not _positive_int(self.n_streams):
            raise ValueError(f"n_streams must be a positive int, got {self.n_streams!r}")


@dataclass
class MleReport:
    """Outcome of ``solve_mle``.

    ``n_obj_evals`` counts the line-search trial objectives, each computed
    from carried projections without a new one: the first iteration's two-way
    search may take many, a later iteration takes one plus one per halving
    of its Barzilai-Borwein step.  ``n_grad_evals`` counts the gradients
    (one at the start and one per iteration, each one GEMM); the spectral
    start's scale search (at most 8 objective values, plus all 41 on its
    fallback) is in neither.  ``nll`` is the objective at the returned
    estimate, taken from the carried projections.
    ``rel_change`` is the last iteration's unaligned ||S_new - S||_F / ||S||_F.
    A stacked solve gives each problem the report of its own solve.
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
# Each step also takes B problems of one shape as a stack (``_stacked``), every
# array with a leading B axis, and gives each problem its one-problem bits.


def _stacked(problem: EstimationProblem, pmi: np.ndarray, lift: Optional[np.ndarray] = None):
    """B problems shaped like ``problem``, as the objective kernels read one problem.

    ``pmi`` (B, T) holds their ``pmi_flat`` and ``lift`` (B, d, T*N*r) their
    ``effective_flat``, which only the gradient reads.
    """
    TN = problem.T * problem.n_codewords
    return SimpleNamespace(
        codebook=problem.codebook, tau=problem.tau, T=problem.T, effective_flat=lift,
        pmi_flat=pmi + np.arange(0, len(pmi) * TN, TN)[:, None],
    )


def _value_from_scores(problem, scores: np.ndarray, picked=None) -> tuple[np.ndarray, tuple]:
    """NLL of a (T, N) score matrix or a stack, and ``(ex, z)``; ``picked`` gives the reported scores if gathered."""
    ex, z, lse = _row_lse(scores)
    picked = scores.take(problem.pmi_flat) if picked is None else picked
    return np.add.reduce(lse - picked, axis=-1) / problem.T, (ex, z)


def _value_from_proj(problem, C: np.ndarray) -> tuple[np.ndarray, tuple]:
    """NLL at the projections C, and the ``(ex, z)`` of ``_grad_from_proj``."""
    return _value_from_scores(problem, _gains_from_proj(C, problem.codebook) / problem.tau)


def _grad_from_proj(problem, C: np.ndarray, ex: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gradient at the projections C from their ``_row_lse`` output: one GEMM."""
    # Softmax weights minus the one-hot of the reported codeword.  ex may be
    # a transposed view; the flat in-place subtraction needs a C-ordered W.
    W = np.ascontiguousarray(ex / z[..., None])
    W.reshape(-1)[problem.pmi_flat] -= 1.0
    # Row (t, i, k) of C takes the weight W[t, i].
    D = (W[..., None] * C.reshape(*W.shape, -1)).reshape(C.shape)
    return (2.0 / (problem.tau * problem.T)) * np.matmul(problem.effective_flat, D)


def nll(problem: EstimationProblem, x: np.ndarray) -> float:
    """Average negative log-likelihood of the observed PMI sequence at x.

    (1/T) sum_t log sum_j exp((gain(t,j,x) - gain(t,I_t,x)) / tau); always
    nonnegative, evaluated through log-sum-exp.
    """
    return float(_value_from_scores(problem, all_gains(problem, x) / problem.tau)[0])


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


def _bb_step(ss: float, sy: float, last: float, s_min: float, s_max: float) -> float:
    """BB1 step ss/sy = <dS, dS>/Re<dS, dG> in [s_min, s_max]; min(2 last, s_max) if sy <= 0."""
    return min(max(ss / sy, s_min), s_max) if sy > 0 else min(2.0 * last, s_max)


def _norms(Z: np.ndarray) -> list:
    """The one norm kernel: ``np.linalg.norm`` of each row of a C-contiguous (B, ...) stack, bit for bit.

    ``np.vecdot`` takes one BLAS dot per row, the dot of ``np.linalg.norm`` and of ``vdot``;
    a reduction such as ``einsum``, or a strided row, would add in another order.
    """
    Z = Z.reshape(len(Z), -1)
    if Z.dtype.kind == "c":
        return np.sqrt(np.vecdot(Z.real, Z.real) + np.vecdot(Z.imag, Z.imag)).tolist()
    return np.sqrt(np.vecdot(Z, Z)).tolist()


def _trial(value, data, X, D, s: list, k: int, radius: Optional[list], at) -> tuple:
    """One ``_descend`` round: value's objectives and state, S norms (None off a ball) and Z = X - s D."""
    Z = X - np.array(s).reshape(-1, 1, 1) * D
    if radius is None:
        return (*value(data, Z, at), [None] * len(s), Z)
    nrm = _norms(Z[:, :k])
    if any(map(float.__gt__, nrm, radius)):
        Z = Z * np.array([r / a if a > r else 1.0 for a, r in zip(nrm, radius)]).reshape(-1, 1, 1)
        nrm = _norms(Z[:, :k])
    return (*value(data, Z, at), nrm, Z)


def _keep(a, keep: list, own: bool):
    """Rows ``keep`` (ascending) of a stack; an owned array's move to its front, in place, as a view."""
    if not isinstance(a, np.ndarray):
        return [a[i] for i in keep]
    for j, i in enumerate(keep if own else ()):
        a[j] = a[i]
    return a[: len(keep)] if own else a[keep]


def _descend(X, data, value, gradient, step0: list, max_iters: int, rel_tol: float,
             direction=None, radius: Optional[list] = None, two_way: bool = False, ids=None,
             own: bool = False) -> list:
    """The one backtracking descent of a stack of B problems, each with the bits of a stack of one.

    X (B, k + c, m) holds each iterate S in its first k rows and, below them,
    any c rows linear in S (``solve_mle``'s projections C).  A trial point is
    X - s D, D = ``direction(data, G)`` or G, scaled onto ||S|| <= radius if
    ``radius``.  ``data``, a tuple of per-problem stacks, reaches the callbacks
    without the problems that have stopped.  ``value(data, Z, at)`` gives the
    objectives at the points Z (``at``: their rows, if a subset), as a list,
    and the state ``gradient(data, Z, state)`` needs at an accepted point.
    The step and stop rules are ``MleConfig``'s, with step0 for tau/(4 R^2),
    the iteration-1 doubling only if ``two_way`` and +inf for the change from
    a zero S.  Returns (S, objective, iterations, rel_change, stop_reason,
    trials) per problem; NumericalFailureError names its label in ``ids``
    (default: its position).  ``own`` lets compaction overwrite data's arrays (``_keep``).
    """
    n = len(step0)
    labels = ids = list(range(n)) if ids is None else list(ids)
    f, state = value(data, X, None)
    G = gradient(data, X, state)
    k, results, s, extra = G.shape[1], {}, list(step0), [0] * n
    nrm = None if radius is None else _norms(X[:, :k])
    s_min, s_max = [1e-20 * x for x in s], [1e9 * x for x in s]
    for it in range(1, max_iters + 1):
        D = G if direction is None else direction(data, G)
        f_new, state, nrm_new, Z = _trial(value, data, X, D, s, k, radius, None)
        n, up = len(ids), two_way and it == 1
        rose = list(map(float.__gt__, f_new, f))
        go = [i for i in range(n) if (s[i] > s_min[i] if rose[i] else up and s[i] < s_max[i])]
        while go:
            # Each round tries the next step of every problem still searching.
            step = [s[i] / 2.0 if rose[i] else 2.0 * s[i] for i in go]
            if len(go) == n:
                f_t, state_t, nrm_t, Z_t = _trial(value, data, X, D, step, k, radius, None)
            else:
                at = np.array(go)
                sub = radius and [radius[i] for i in go]
                f_t, state_t, nrm_t, Z_t = _trial(value, data, X[at], D[at], step, k, sub, at)
            took, nxt = [], []
            for j, i in enumerate(go):
                extra[i] += 1
                if rose[i] or f_t[j] < f_new[i]:
                    took.append(j)
                    s[i], f_new[i], nrm_new[i] = step[j], f_t[j], nrm_t[j]
                    if (f_t[j] > f[i] and s[i] > s_min[i]) if rose[i] else s[i] < s_max[i]:
                        nxt.append(i)
            if len(took) == n:
                Z, state = Z_t, state_t
            elif took:
                at = np.array([go[j] for j in took])
                for arr, val in zip((Z, *state), (Z_t, *state_t)):
                    arr[at] = val if len(took) == len(go) else val[took]
            go = nxt
        if not all(map(math.isfinite, f_new)):
            bad = next(b for b, f_i in zip(ids, f_new) if not math.isfinite(f_i))
            raise NumericalFailureError(f"non-finite objective at iteration {it} in problem {bad}")
        G_new = gradient(data, Z, state)
        dS, dG = Z[:, :k] - X[:, :k], G_new - G
        # vdot(dS, dS) and Re vdot(dS, dG) of each problem; for a real stack
        # vdot(dS, dS) is also the dot under ||dS||_F.  With no ball to carry
        # the norms of S, one call takes them with those of dS.
        flat = dS.reshape(n, -1)
        ss = np.vecdot(flat, flat).real
        sy = np.vecdot(flat, dG.reshape(n, -1)).real.tolist()
        if radius is None:
            norms = _norms(np.concatenate((dS, X[:, :k])))
            nd, nrm = norms[:n], norms[n:]
        else:
            nd = np.sqrt(ss).tolist() if dS.dtype.kind == "f" else _norms(dS)
        rel = [a / b if b > 0 else math.inf for a, b in zip(nd, nrm)]
        X, f, G, nrm = Z, f_new, G_new, nrm_new
        s = list(map(_bb_step, ss.tolist(), sy, s, s_min, s_max))
        if it < max_iters and not any(r < rel_tol for r in rel):
            continue
        keep = []
        for i, r in enumerate(rel):
            if r < rel_tol or it == max_iters:
                stop = "converged" if r < rel_tol else "max-iters"
                results[ids[i]] = (X[i, :k].copy(), f[i], it, r, stop, it + extra[i])
            else:
                keep.append(i)
        if not keep:
            break
        X, G = X[keep], G[keep]
        data = tuple(_keep(a, keep, own) for a in data)
        f, s, s_min, s_max, ids, extra, nrm = (
            [x[i] for i in keep] for x in (f, s, s_min, s_max, ids, extra, nrm)
        )
        radius = radius and [radius[i] for i in keep]
    return [results[b] for b in labels]


# The spectral start compares two scan values only if they differ by more than this share of
# the larger one times 1 + the scan's largest b s.  A round's term lse(b s_t) - b s_{t,I_t} is
# exactly log z_t when I_t holds the row max, else at least log 2, so its relative error is a
# few ulps of 1 + b s + log N, plus a few of log T in the mean: far below half the gap.
_SCAN_MARGIN = 1e-9


def _spectral(reduced: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Covariances of a (B, T, n, r) stack of ``model._reduced`` codewords and their top m eigenvectors.

    The one spectral kernel, for the spectral baseline and the starts of ``solve_mle``,
    AM and phase retrieval; each problem gets its own call's bits.
    """
    covs = _covariance(reduced)
    return covs, eigvecs_descending(covs, m)


def _start(problems, config: MleConfig, bases: Optional[list], m: int, stack, lift) -> tuple:
    """Projected starts of a stack: S (B, dim, m), radii, ``_norms(S)`` and C = A^H lift(S).

    Identity, random and explicit starts are one matrix for all.  A spectral start
    is ``_spectral``'s X at the first NLL minimizer alpha in geomspace(0.05, radius
    or 10, 41), or X if none is finite; one projection serves every scale (gains(aX)
    = a^2 gains(X)), of which a Fibonacci search visits at most 8 (plus all 41 on its
    fallback).  A radius left None is 10 ||S||_F; a start outside its ball is
    rescaled onto it.  Each problem gets the bits of a start computed alone.
    """
    p0, n = problems[0], len(problems)
    if config.init == "spectral":
        X = _spectral(np.stack([_reduced(pb, B) for pb, B in zip(problems, bases or [None] * n)]), m)[1]
        scores = _gains_from_proj(_project(stack, lift(X)), p0.codebook) / p0.tau
        # Codeword-major, so ``_row_lse`` copies nothing, and the reported entries gathered once.
        by_codeword, picked = np.ascontiguousarray(scores.mT).mT, scores.take(stack.pmi_flat)
        alphas = np.stack([np.geomspace(0.05, pb.radius or 10.0, 41) for pb in problems])
        a2, rows = alphas * alphas, np.arange(n)
        tol = _SCAN_MARGIN * (1.0 + a2.max(axis=1) * scores.max(axis=(-2, -1)))

        def f(j):  # each problem's NLL at its own scale index j, +inf past the grid
            a = a2[rows, np.minimum(j, 40), None]
            return np.where(j > 40, np.inf, _value_from_scores(stack, a[..., None] * by_codeword, a * picked)[0])

        # Kiefer's Fibonacci search on the grid padded with +inf to F_10 = 55 indices, in lockstep: x is
        # each problem's best index in its open bracket (lo, lo + length).  The exact NLL is convex in
        # b = alpha^2, which is monotone in the index, so it falls to its minimizers, then rises.  A
        # comparison decided by more than tol orders the exact values as the computed ones, so every
        # exact minimizer stays in the bracket, and the last x beats both ends of its last bracket, hence
        # every grid value: the full scan's first minimum.  Closer or non-finite takes the full scan.
        lo, x, bad = np.full(n, -1), np.full(n, 20), np.zeros(n, bool)
        fx = f(x)
        for length in (55, 34, 21, 13, 8, 5, 3):
            y = 2 * lo + length - x
            fy = f(y) if (y <= 40).any() else np.full(n, np.inf)
            bad |= (y <= 40) & ~(np.abs(fy - fx) > tol * np.maximum(fx, fy))
            lo = np.where((fy < fx) == (y < x), lo, np.minimum(x, y))
            x, fx = np.where(fy < fx, y, x), np.minimum(fx, fy)
        if bad.any():  # NaN reads +inf here, as it did in the full scan
            full = np.fmin(np.stack([f(np.full(n, j)) for j in range(41)]), np.inf)
            x, bad = np.where(bad, full.argmin(axis=0), x), bad & (full.min(axis=0) == np.inf)
        S = np.where(bad[:, None, None], X, alphas[rows, x][:, None, None] * X)
    else:
        dim = p0.d if bases is None else bases[0].shape[1]
        if config.init == "explicit":
            S = _as_matrix(np.asarray(config.x0, dtype=p0.dtype))
        elif config.init == "identity":
            S = np.eye(dim, m, dtype=p0.dtype)
        else:
            S = haar_stiefel(dim, m, np.random.default_rng(0), real=p0.dtype is float)
        S = np.repeat(S[None], n, axis=0)
    nrm = _norms(S)
    radii = [10.0 * a if pb.radius is None else pb.radius for pb, a in zip(problems, nrm)]
    if any(r <= 0 for r in radii):
        raise ValueError("radius must be positive")
    if any(map(float.__gt__, nrm, radii)):
        S = S * np.array([r / a if a > r else 1.0 for a, r in zip(nrm, radii)]).reshape(-1, 1, 1)
        nrm = _norms(S)
    return S, radii, nrm, _project(stack, lift(S))


def _as_stack(problem, prior=None) -> tuple:
    """(single, problems, priors) of a one-problem or stacked call, one prior per problem.

    ``prior`` is None, one prior or one per problem.  Raises ValueError
    unless the problems share d, T, codebook, tau, dtype and prior width.
    """
    single = isinstance(problem, EstimationProblem)
    problems = [problem] if single else list(problem)
    shared = prior is None or isinstance(prior, SubspacePrior)
    priors = [prior] * len(problems) if shared else list(prior)
    shape = {
        (pb.d, pb.T, pb.tau, pb.dtype, pb.codebook.r, pb.codebook.V.shape,
         pb.codebook.V.tobytes(), None if pr is None else pr.k)
        for pb, pr in zip(problems, priors)
    }
    if len(shape) != 1 or len(priors) != len(problems):
        raise ValueError("stacked problems must share d, T, codebook, tau, dtype and prior width")
    return single, problems, priors


def solve_mle(
    problem: Union[EstimationProblem, Sequence[EstimationProblem]],
    config: Optional[MleConfig] = None,
    prior: Union[None, SubspacePrior, Sequence[SubspacePrior]] = None,
):
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
    point's projections are a rescaled C - s P (``_descend`` moves C with S),
    and the value and gradient at the accepted point come from its projections.

    ``solve_mle(problem, config, prior)`` returns ``(X, MleReport)``.  A
    sequence of B problems, with None, one prior or B priors, is solved as
    one stack into a list of B such pairs, each with the bits of its own
    solve: a problem keeps its step, trials and stop, and leaves the stack
    when it stops.  The problems must share d, T, codebook, tau, dtype and
    prior width (radii may differ), or ValueError is raised before any work.
    NumericalFailureError names the failing problem's index.
    """
    config = config or MleConfig()
    single, problems, priors = _as_stack(problem, prior)
    p0, n = problems[0], len(problems)
    m, dim = config.n_streams or p0.codebook.r, p0.d if priors[0] is None else priors[0].k
    if m > dim:
        raise ValueError(f"{m} streams exceed the dimension of the solve")
    x0 = None if config.x0 is None else _as_matrix(config.x0)
    if config.init == "explicit" and (x0 is None or x0.shape != (dim, m) or not np.isfinite(x0).all()):
        got = "none" if x0 is None else f"shape {np.shape(config.x0)}"
        raise ValueError(f"explicit initialization needs a finite x0 of shape ({dim}, {m}), got {got}")
    A = p0.effective_flat[None] if n == 1 else np.stack([pb.effective_flat for pb in problems])
    pmi = np.stack([pb.pmi_flat for pb in problems])
    # With one column, NumPy's use of BLAS, and so the bits, of a product
    # with a basis follow the basis's strides: each problem takes its own.
    bases = None if priors[0] is None else [pr.B for pr in priors]
    data = (pmi, A) if bases is None else (pmi, A, bases)
    # The loop compacts data in place (one problem never compacts) into a new tuple; so is the view built.
    view = [data, _stacked(p0, pmi, A)]

    def stack_of(data: tuple):
        if data is not view[0]:
            view[:] = data, _stacked(p0, *data[:2])
        return view[1]

    def lift(data: tuple, Z: np.ndarray) -> np.ndarray:
        return Z if len(data) == 2 else np.stack([B @ z for B, z in zip(data[2], Z)])

    def value(data: tuple, Z: np.ndarray, at) -> tuple:
        stack = stack_of(data) if at is None else _stacked(p0, data[0][at])
        f, state = _value_from_proj(stack, Z[:, k:])
        return f.tolist(), state

    def gradient(data: tuple, Z: np.ndarray, state: tuple) -> np.ndarray:
        G = _grad_from_proj(stack_of(data), Z[:, k:], *state)
        return G if len(data) == 2 else np.stack([B.conj().T @ g for B, g in zip(data[2], G)])

    def direction(data: tuple, G: np.ndarray) -> np.ndarray:
        return np.concatenate((G, _project(stack_of(data), lift(data, G))), axis=1)

    # Per-problem scalars are Python numbers, as in a one-problem solve.
    S, radii, _, C = _start(problems, config, bases, m, view[1], lambda Z: lift(data, Z))
    k = S.shape[1]
    step0 = [pb.tau / (4.0 * r**2) for pb, r in zip(problems, radii)]
    # That first step can be far too small, so iteration 1 also doubles it (two_way).
    solved = _descend(np.concatenate((S, C), axis=1), data, value, gradient, step0, config.max_iters,
                      config.rel_tol, direction=direction, radius=radii, two_way=True, own=True)
    results = [
        (S if B is None else B @ S, MleReport(it, f, rel, stop, r, trials, it + 1, None if B is None else S))
        for (S, f, it, rel, stop, trials), r, B in zip(solved, radii, bases or [None] * n)
    ]
    return results[0] if single else results
