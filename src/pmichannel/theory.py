"""Computable theoretical constants and numerical certification helpers.

These routines instantiate the constants appearing in the recovery analysis
of the real-valued model (probability floor, secant curvature, local strong
convexity, Hessian smoothness) and verify the identities they rest on by
enumeration or Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .designs import haar_stiefel_stack
from .metrics import dist
from .model import Codebook, _orthonormal, _positive_int

__all__ = [
    "TheoryConstants",
    "p_min_value",
    "kappa0_value",
    "beta0_value",
    "hessian_smoothness",
    "theory_constants",
    "traceless_symmetric_basis",
    "SecantReport",
    "certify_secant",
    "MomentReport",
    "sphere_fourth_moment_check",
    "secant_expectation_check",
    "rank1_distance_bound_check",
]


def p_min_value(N: int, R: float, tau: float) -> float:
    """Probability floor 1 / (1 + (N-1) exp(R^2/tau)) over the radius-R ball.

    Evaluated in the exp(-R^2/tau) form so large exponents underflow
    gracefully instead of overflowing.
    """
    if N < 1 or R <= 0 or tau <= 0:
        raise ValueError("need N >= 1, R > 0, tau > 0")
    if N == 1:
        return 1.0
    e = math.exp(-(R**2) / tau)
    return e / (e + (N - 1))


def kappa0_value(N: int, d: int, mu: float, delta: float) -> float:
    """Secant-curvature constant (1 - delta) 4N(N-1)(1 - mu^2) / (d(d+2)).

    This is the stated high-probability constant for Haar-random designs;
    the proof-side bound for the traceless operator carries the larger
    denominator (d-1)(d+2), which ``certify_secant`` reports alongside.
    """
    if not 0 <= mu < 1:
        raise ValueError("coherence must lie in [0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return (1.0 - delta) * 4.0 * N * (N - 1) * (1.0 - mu**2) / (d * (d + 2))


def beta0_value(kappa0: float, p_min: float, h_norm: float, tau: float) -> float:
    """Local strong-convexity constant kappa0 * p_min^2 * ||h||^2 / tau^2."""
    return kappa0 * p_min**2 * h_norm**2 / tau**2


def hessian_smoothness(R: float, tau: float) -> float:
    """Lipschitz constant of the sample Hessian: 48 R^3/tau^3 + 24 R/tau^2."""
    return 48.0 * R**3 / tau**3 + 24.0 * R / tau**2


@dataclass(frozen=True)
class TheoryConstants:
    p_min: float
    kappa0: float
    beta0: float
    hessian_lipschitz: float
    delta: float


def theory_constants(
    N: int, d: int, mu: float, delta: float, R: float, tau: float, h_norm: float
) -> TheoryConstants:
    """Bundle the computable constants for one problem configuration."""
    p_min = p_min_value(N, R, tau)
    kappa0 = kappa0_value(N, d, mu, delta)
    return TheoryConstants(
        p_min=p_min,
        kappa0=kappa0,
        beta0=beta0_value(kappa0, p_min, h_norm, tau),
        hessian_lipschitz=hessian_smoothness(R, tau),
        delta=delta,
    )


def traceless_symmetric_basis(d: int) -> np.ndarray:
    """Orthonormal basis of symmetric traceless d x d matrices.

    Built from consecutive diagonal differences E_ii - E_{i+1,i+1}
    (Gram-Schmidt in order) plus the symmetrized off-diagonal pairs (i < j,
    row-major); returned as an (m, d, d) array with m = d(d+1)/2 - 1.
    """
    ortho = []
    for v in np.eye(d)[:-1] - np.eye(d)[1:]:
        for u in ortho:
            v = v - (u @ v) * u
        ortho.append(v / np.linalg.norm(v))
    i, j = np.triu_indices(d, 1)
    k = np.arange(len(ortho), len(ortho) + len(i))
    basis = np.zeros((len(ortho) + len(i), d, d))
    basis[: len(ortho), range(d), range(d)] = np.reshape(ortho, (len(ortho), d))
    basis[k, i, j] = basis[k, j, i] = 1.0 / math.sqrt(2.0)
    return basis


@dataclass(frozen=True)
class SecantReport:
    """Empirical secant-curvature certification for a fixed design."""

    operator_min: float
    random_min: float
    kappa0_stated: float
    kappa0_proof: float
    trials: int

    @property
    def certified(self) -> bool:
        return self.operator_min >= self.kappa0_stated


def _codeword_coords(qs: np.ndarray, V: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """q[t, n, m] = a_{t,n}^T B_m a_{t,n} for the lifted codewords a_{t,n} = Q_t v_n.

    A_{t,n} = a a^T has unit trace, so every difference A_{t,i} - A_{t,j}
    is traceless and its basis coordinates are q[t, i] - q[t, j] exactly.
    """
    A = np.einsum("tdp,pn->tdn", qs, V)
    return np.einsum("tdn,mde,ten->tnm", A, basis, A)


def certify_secant(
    qs: Sequence[np.ndarray],
    codebook: Codebook,
    h: np.ndarray,
    trials: int = 200,
    rng: Optional[np.random.Generator] = None,
    delta: float = 0.5,
    radius: Optional[float] = None,
) -> SecantReport:
    """Empirical lower bound for the secant condition over a fixed design.

    Reports the smallest eigenvalue of the averaged secant operator on the
    traceless symmetric subspace and the smallest ratio
    (1/T) sum_{t,i,j} <A_{t,i} - A_{t,j}, xx^T - hh^T>^2 / ||xx^T - hh^T||_F^2
    over random probes x, together with the stated and proof-side reference
    constants for Haar designs.  ``trials=0`` gives the operator alone.
    A complex or multi-stream codebook, complex or non-orthonormal designs,
    designs that are not (T, d, p), a channel without d finite real entries
    and a negative ``trials`` raise ValueError before any work.
    """
    qs, h = np.stack([np.asarray(Q) for Q in qs]), np.asarray(h).ravel()
    if codebook.r != 1 or any(map(np.iscomplexobj, (codebook.V, qs, h))):
        raise ValueError("the secant certificate takes a real single-stream codebook, designs and channel")
    if qs.ndim != 3 or qs.shape[2] != codebook.p or h.shape != qs.shape[1:2] or not np.isfinite(h).all():
        shapes = f"got {qs.shape} and {h.shape}"
        raise ValueError(f"need (T, d, {codebook.p}) designs and d finite channel entries, {shapes}")
    if not _orthonormal(qs):
        raise ValueError("design matrices must have orthonormal columns")
    if isinstance(trials, bool) or not _positive_int(trials + 1):
        raise ValueError(f"trials must be a nonnegative int, got {trials!r}")
    rng = rng or np.random.default_rng(0)
    qs, h = qs.astype(float), h.astype(float)
    T, d = qs.shape[:2]
    N = codebook.n_codewords
    R = radius if radius is not None else 2.0 * max(np.linalg.norm(h), 1.0)

    # sum_{i,j} (q_i - q_j)(q_i - q_j)^T = 2N sum_n q_n q_n^T - 2 s s^T, s = sum_n q_n.
    basis = traceless_symmetric_basis(d)
    q = _codeword_coords(qs, codebook.V.astype(float), basis)
    s = q.sum(axis=1)
    op = (2.0 * N * np.einsum("tnm,tnk->mk", q, q) - 2.0 * s.T @ s) / T
    operator_min = float(np.linalg.eigvalsh(op)[0])

    hh = np.outer(h, h)
    random_min = np.inf
    for _ in range(trials):
        x = rng.standard_normal(d)
        x *= rng.uniform(0.1, 1.0) * R / np.linalg.norm(x)
        delta_x = np.outer(x, x) - hh
        nrm2 = float(np.sum(delta_x**2))
        if nrm2 < 1e-24:
            continue
        coords = np.einsum("mde,de->m", basis, delta_x)
        ratio = float(coords @ op @ coords) / nrm2
        random_min = min(random_min, ratio)

    mu = codebook.coherence
    stated = kappa0_value(N, d, mu, delta)
    proof = (1.0 - delta) * 4.0 * N * (N - 1) * (1.0 - mu**2) / ((d - 1) * (d + 2))
    return SecantReport(
        operator_min=operator_min,
        random_min=float(random_min),
        kappa0_stated=stated,
        kappa0_proof=proof,
        trials=trials,
    )


@dataclass(frozen=True)
class MomentReport:
    max_dev_se: float
    max_rel_dev: float
    samples: int


def _monte_carlo(draw, samples: int, batch: int, target) -> tuple[np.ndarray, float]:
    """|mean - target| over ``samples`` draws, and its worst ratio to the standard error (+inf if only it is 0).

    ``draw(n)`` takes n <= ``batch`` more samples and returns their sum and the sum of their squares.
    """
    if not _positive_int(samples):
        raise ValueError(f"samples must be a positive int, got {samples!r}")
    total = total_sq = 0.0
    for start in range(0, samples, batch):
        s, sq = draw(min(batch, samples - start))
        total, total_sq = total + s, total_sq + sq
    mean = total / samples
    se = np.sqrt(np.maximum(total_sq / samples - mean**2, 0.0) / samples)
    dev = np.abs(mean - target)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_se = np.where(se > 0, dev / se, np.where(dev > 0, np.inf, 0.0))
    return dev, float(np.max(dev_se))


def sphere_fourth_moment_check(
    d: int, samples: int, rng: Optional[np.random.Generator] = None
) -> MomentReport:
    """Monte-Carlo check of E[u_i u_j u_k u_l] on the unit sphere.

    Targets (delta_ij delta_kl + delta_ik delta_jl + delta_il delta_jk)
    / (d(d+2)); returns the worst deviation in standard-error units over all
    index quadruples, and the worst relative deviation among nonzero targets.
    """
    rng = rng or np.random.default_rng(0)

    def draw(n):
        g = rng.standard_normal((n, d))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        M = np.einsum("si,sj->sij", u, u).reshape(n, d * d)
        P = M**2
        return M.T @ M, P.T @ P

    di = np.eye(d)
    target = (
        np.einsum("ij,kl->ijkl", di, di)
        + np.einsum("ik,jl->ijkl", di, di)
        + np.einsum("il,jk->ijkl", di, di)
    ).reshape(d * d, d * d) / (d * (d + 2))
    dev, dev_se = _monte_carlo(draw, samples, 100_000, target)
    nonzero = target > 0
    rel = np.max(dev[nonzero] / target[nonzero]) if np.any(nonzero) else 0.0
    return MomentReport(max_dev_se=dev_se, max_rel_dev=float(rel), samples=samples)


def secant_expectation_check(
    codebook: Codebook,
    d: int,
    samples: int,
    rng: Optional[np.random.Generator] = None,
) -> MomentReport:
    """Monte-Carlo check that Haar designs make the secant operator isotropic.

    For every element M of the traceless symmetric basis, the average of
    sum_{i,j} <A_i - A_j, M>^2 over Haar-random Q must equal
    mu_V = (1/m) sum_{i,j} ||v_i v_i^T - v_j v_j^T||_F^2.
    """
    if codebook.r != 1:
        raise ValueError("the expectation identity is for single-stream codewords")
    rng = rng or np.random.default_rng(0)
    V = codebook.V.astype(float)
    basis = traceless_symmetric_basis(d)
    mu_v = float(np.sum(2.0 * (1.0 - (V.T @ V) ** 2))) / basis.shape[0]

    def draw(n):
        quad = _codeword_coords(haar_stiefel_stack(n, d, codebook.p, rng, real=True), V, basis)
        vals = 2.0 * quad.shape[1] * np.sum(quad**2, axis=1) - 2.0 * np.sum(quad, axis=1) ** 2
        return vals.sum(axis=0), (vals**2).sum(axis=0)

    dev, dev_se = _monte_carlo(draw, samples, 20_000, mu_v)
    rel = float(np.max(dev) / mu_v) if mu_v > 0 else float(np.max(dev))
    return MomentReport(max_dev_se=dev_se, max_rel_dev=rel, samples=samples)


def rank1_distance_bound_check(x: np.ndarray, h: np.ndarray) -> bool:
    """||xx^T - hh^T||_F >= min(||x||, ||h||) * dist(x, h) for real vectors."""
    x = np.asarray(x, dtype=float).ravel()
    h = np.asarray(h, dtype=float).ravel()
    lhs = np.linalg.norm(np.outer(x, x) - np.outer(h, h))
    rhs = min(np.linalg.norm(x), np.linalg.norm(h)) * dist(x, h)
    return bool(lhs >= rhs - 1e-10 * max(1.0, rhs))
