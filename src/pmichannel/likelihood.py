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


def _value_from_scores(problem, scores: np.ndarray) -> tuple[np.ndarray, tuple]:
    """NLL of a (T, N) score matrix, or the B NLLs of a stack, and the gradient's ``(ex, z)``."""
    ex, z, lse = _row_lse(scores)
    return np.add.reduce(lse - scores.take(problem.pmi_flat), axis=-1) / problem.T, (ex, z)


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
    """``metrics._fro_norm`` of each C-ordered row of a (B, ...) stack, bit for bit.

    ``np.vecdot`` takes one BLAS dot per row, the dot of ``_fro_norm`` and of
    ``vdot``; a reduction such as ``einsum`` would add in another order.
    """
    Z = Z.reshape(len(Z), -1)
    if Z.dtype.kind == "c":
        return np.sqrt(np.vecdot(Z.real, Z.real) + np.vecdot(Z.imag, Z.imag)).tolist()
    return np.sqrt(np.vecdot(Z, Z)).tolist()


def _trial_points(stack, S, C, G, P, s: list, radius: list) -> tuple:
    """Line-search trials of a stack: each S - s G projected onto its ball, without a GEMV.

    C = A^H lift(S) and P = A^H lift(G) are the projections of the iterates
    and of the gradients; s and radius hold a float per problem.  Lift and
    projection are linear and the ball projection is a rescale by
    c = min(1, radius / ||S - s G||), so a trial point Z has the projections
    c (C - s P).  Returns the NLLs at the Z and the Z's norms, as lists, then
    the Z, their projections and the ``(ex, z)`` that ``_grad_from_proj``
    needs there.
    """
    steps = np.array(s).reshape(-1, 1, 1)
    Z, CZ = S - steps * G, C - steps * P
    nrm = _norms(Z)
    if any(map(float.__gt__, nrm, radius)):
        c = np.array([r / a if a > r else 1.0 for a, r in zip(nrm, radius)]).reshape(-1, 1, 1)
        Z, CZ = Z * c, CZ * c
        nrm = _norms(Z)
    f, (ex, z) = _value_from_proj(stack, CZ)
    return f.tolist(), nrm, Z, CZ, ex, z


# The spectral start scans its 41 scales in stacked blocks of at most this
# many score entries (32 KB), and at least one scale: an fdd problem
# (T*N <= 160) takes one or two blocks, excess-risk's from T = 1000 on and
# crb's one scale per block, with the temporaries of a one-scale scan.
_SCAN_BLOCK = 2**12


def _scan_values(scores: np.ndarray, sel: np.ndarray, a2: np.ndarray, T: int) -> np.ndarray:
    """NLLs at a2 * scores for a (n, 1) block of squared scales, as one (n, T, N) stack.

    ``sel`` is the reported entries of ``scores``; a2 * sel has the bits of the
    reported entries of a2 * scores.
    """
    return np.add.reduce(_row_lse(a2[..., None] * scores)[2] - a2 * sel, axis=-1) / T


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
        alphas = np.geomspace(0.05, hi, 41)
        a2, sel = (alphas * alphas)[:, None], scores.take(problem.pmi_flat)
        n = max(1, _SCAN_BLOCK // scores.size)
        blocks = (a2[i : i + n] for i in range(0, 41, n))
        f = np.concatenate([_scan_values(scores, sel, block, problem.T) for block in blocks])
        f[np.isnan(f)] = np.inf
        return alphas[np.argmin(f)] * X if f.min() < np.inf else X


def _start(problem: EstimationProblem, config: MleConfig, prior: Optional[SubspacePrior], m: int):
    """A problem's projected start S, radius, ||S||_F and A^H lift(S), from S in its own layout."""
    basis = prior.B if prior is not None else None
    S = _initial_point(problem, config, basis, m, problem.radius)
    radius = problem.radius if problem.radius is not None else 10.0 * float(_fro_norm(S))
    if radius <= 0:
        raise ValueError("radius must be positive")
    nrm = float(_fro_norm(S))
    S = S * (radius / nrm) if nrm > radius else S
    return S, radius, float(_fro_norm(S)), _project(problem, S if basis is None else basis @ S)


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
    point's projections are a rescaled C - s P (``_trial_points``), and
    the value and gradient at the accepted point come from its projections.

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
    m = config.n_streams or p0.codebook.r
    if m > (p0.d if priors[0] is None else priors[0].k):
        raise ValueError(f"{m} streams exceed the dimension of the solve")
    # Per-problem scalars are Python numbers, as in a one-problem solve.
    S, radii, nrm, C = zip(*(_start(pb, config, pr, m) for pb, pr in zip(problems, priors)))
    S, C, nrm = np.stack(S), np.stack(C), list(nrm)
    s = [pb.tau / (4.0 * r**2) for pb, r in zip(problems, radii)]
    s_min, s_max = [1e-20 * x for x in s], [1e9 * x for x in s]
    ids, results = list(range(n)), [None] * n
    A = p0.effective_flat[None] if n == 1 else np.stack([pb.effective_flat for pb in problems])
    pmi = np.stack([pb.pmi_flat for pb in problems])
    stack = _stacked(p0, pmi, A)
    # With one column, NumPy's use of BLAS, and so the bits, of a product
    # with a basis follow the basis's strides: each problem takes its own.
    bases = None if priors[0] is None else [pr.B for pr in priors]

    def lift(Z: np.ndarray) -> np.ndarray:
        return Z if bases is None else np.stack([B @ z for B, z in zip(bases, Z)])

    def gradient(C: np.ndarray, ex: np.ndarray, z: np.ndarray) -> np.ndarray:
        G = _grad_from_proj(stack, C, ex, z)
        return G if bases is None else np.stack([B.conj().T @ g for B, g in zip(bases, G)])

    f, (ex, z) = _value_from_proj(stack, C)
    f, G, rad, extra = f.tolist(), gradient(C, ex, z), list(radii), [0] * n
    for it in range(1, config.max_iters + 1):
        P = _project(stack, lift(G))
        f_new, nrm_new, *new = _trial_points(stack, S, C, G, P, s, rad)
        n, first = len(ids), it == 1
        rose = list(map(float.__gt__, f_new, f))
        # A rising trial halves down to s_min.  The first iteration searches
        # both ways: the crude initial scale can be far too small, so it
        # doubles while the objective strictly improves, up to s_max.
        go = [i for i in range(n) if (s[i] > s_min[i] if rose[i] else first and s[i] < s_max[i])]
        while go:
            # Each round tries the next step of every problem still searching.
            step = [s[i] / 2.0 if rose[i] else 2.0 * s[i] for i in go]
            if len(go) == n:
                f_t, nrm_t, *trial = _trial_points(stack, S, C, G, P, step, rad)
            else:
                at = np.array(go)
                sub = _stacked(p0, pmi[at])
                f_t, nrm_t, *trial = _trial_points(
                    sub, S[at], C[at], G[at], P[at], step, [rad[i] for i in go]
                )
            took, nxt = [], []
            for j, i in enumerate(go):
                extra[i] += 1
                if rose[i] or f_t[j] < f_new[i]:
                    took.append(j)
                    s[i], f_new[i], nrm_new[i] = step[j], f_t[j], nrm_t[j]
                    if (f_t[j] > f[i] and s[i] > s_min[i]) if rose[i] else s[i] < s_max[i]:
                        nxt.append(i)
            if len(took) == n:
                new = trial
            elif took:
                at = np.array([go[j] for j in took])
                for arr, val in zip(new, trial):
                    arr[at] = val if len(took) == len(go) else val[took]
            go = nxt
        Z, CZ, ex, z = new
        if not all(map(math.isfinite, f_new)):
            bad = next(b for b, f_i in zip(ids, f_new) if not math.isfinite(f_i))
            msg = f"non-finite objective at iteration {it} in problem {bad}"
            raise NumericalFailureError(msg)
        dS = Z - S
        G_new = gradient(CZ, ex, z)
        dG = G_new - G
        # vdot(dS, dS) and Re vdot(dS, dG) of each problem; for a real stack
        # vdot(dS, dS) is also the dot under ||dS||_F.
        flat = dS.reshape(n, -1)
        ss = np.vecdot(flat, flat).real
        sy = np.vecdot(flat, dG.reshape(n, -1)).real.tolist()
        nd = np.sqrt(ss).tolist() if dS.dtype.kind == "f" else _norms(dS)
        rel = [a / b if b > 0 else math.inf for a, b in zip(nd, nrm)]
        S, C, f, G, nrm = Z, CZ, f_new, G_new, nrm_new
        s = list(map(_bb_step, ss.tolist(), sy, s, s_min, s_max))
        if it < config.max_iters and not any(r < config.rel_tol for r in rel):
            continue
        keep = []
        for i, r in enumerate(rel):
            if r < config.rel_tol or it == config.max_iters:
                stop = "converged" if r < config.rel_tol else "max-iters"
                coefficients = None if bases is None else S[i]
                evals = (it + extra[i], it + 1)
                report = MleReport(it, f[i], r, stop, radii[ids[i]], *evals, coefficients)
                results[ids[i]] = (S[i] if bases is None else bases[i] @ S[i], report)
            else:
                keep.append(i)
        if not keep:
            break
        S, C, G, A, pmi = (x[keep] for x in (S, C, G, A, pmi))
        f, s, s_min, s_max, nrm, ids, extra, rad = (
            [x[i] for i in keep] for x in (f, s, s_min, s_max, nrm, ids, extra, rad)
        )
        bases = None if bases is None else [bases[i] for i in keep]
        stack = _stacked(p0, pmi, A)
    return results[0] if single else results
