"""Fisher information and the Cramer-Rao bound for the softmax PMI model.

The complex channel is realified to theta = [Re h; Im h].  The model is
invariant under a global phase rotation of h, so the Fisher matrix is
singular along the gauge direction u = J theta; the bound on phase-aligned
MSE is the trace of the Moore-Penrose pseudoinverse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import EstimationProblem, _gains_from_proj, _project, _softmax

__all__ = [
    "FisherMatrix",
    "realify",
    "realify_vector",
    "gauge_direction",
    "fisher",
    "gauge_nullity",
    "rotation_equivariance_check",
    "crb_trace",
    "IdentifiabilityWarning",
]


class IdentifiabilityWarning(UserWarning):
    """Fisher matrix has more near-zero eigenvalues than the single gauge."""


@dataclass(frozen=True)
class FisherMatrix:
    """Fisher information in realified coordinates with its gauge direction."""

    F: np.ndarray
    theta: np.ndarray
    tau: float = 1.0

    @property
    def gauge(self) -> np.ndarray:
        return gauge_direction(self.theta)

    @property
    def noise_floor(self) -> float:
        """Roundoff scale of the entries: eps times the per-round magnitude."""
        scale = (4.0 / self.tau**2) * float(np.linalg.norm(self.theta)) ** 4
        return 256.0 * np.finfo(float).eps * scale


def realify(A: np.ndarray) -> np.ndarray:
    """Map a Hermitian d x d matrix to the real symmetric 2d x 2d block form.

    [[Re A, -Im A], [Im A, Re A]]; quadratic forms satisfy
    theta^T M(A) theta = h^H A h for theta = [Re h; Im h], and each
    eigenvalue of A appears twice in the output.
    """
    A = np.asarray(A)
    if not np.allclose(A, A.conj().T, atol=1e-10):
        raise ValueError("realification requires a Hermitian matrix")
    Re, Im = A.real, A.imag
    return np.block([[Re, -Im], [Im, Re]])


def realify_vector(h: np.ndarray) -> np.ndarray:
    """theta = [Re h; Im h]."""
    h = np.asarray(h).ravel()
    return np.concatenate([h.real, h.imag])


def gauge_direction(theta: np.ndarray) -> np.ndarray:
    """u = J theta with J = [[0, -I], [I, 0]], tangent to the phase circle."""
    theta = np.asarray(theta).ravel()
    d = theta.size // 2
    return np.concatenate([-theta[d:], theta[:d]])


def fisher(problem: EstimationProblem, h: np.ndarray, tau: float | None = None) -> FisherMatrix:
    """Fisher information matrix of the T-round softmax PMI observations.

    F = (4/tau^2) sum_t [ sum_i p_t(i) g_{t,i} g_{t,i}^T
                          - (sum_i p_t(i) g_{t,i})(sum_i p_t(i) g_{t,i})^T ]
    with g_{t,i} = M(a_{t,i} a_{t,i}^H) theta, i.e. the realification of
    a_{t,i} (a_{t,i}^H h), with a_{t,i}^H h from ``model._project``.  Single stream only.

    The drivers call this with numpy's OpenBLAS held at one thread.  Called
    outside them, the last bits of F (and of the CRB) follow the BLAS thread
    count, because the (2d, T*N) GEMM splits its sum differently per thread.
    """
    if problem.codebook.r != 1:
        raise ValueError("Fisher matrix is defined for the single-stream model")
    tau = problem.tau if tau is None else tau
    h = np.asarray(h).ravel().astype(complex)
    C = _project(problem, h[:, None])  # a_{t,i}^H h, round-major, (T*N, 1)
    P = _softmax(_gains_from_proj(C, problem.codebook) / tau)
    W = problem.effective_flat * C[:, 0]  # columns a_{t,i} (a_{t,i}^H h)
    G = np.concatenate([W.real, W.imag])  # (2d, T*N)
    GP = G * P.ravel()
    by_round = GP.reshape(G.shape[0], problem.T, -1)
    mean = by_round[:, :, 0].copy()  # (2d, T); plane by plane is ~3x faster than .sum(axis=2)
    for i in range(1, by_round.shape[2]):
        mean += by_round[:, :, i]
    F = (4.0 / tau**2) * (GP @ G.T - mean @ mean.T)
    F = 0.5 * (F + F.T)
    return FisherMatrix(F=F, theta=realify_vector(h), tau=tau)


def gauge_nullity(F: np.ndarray | FisherMatrix, theta: np.ndarray | None = None) -> float:
    """u^T F u / (||F|| ||u||^2) for the gauge direction u = J theta.

    The phase invariance of the model forces this ratio to vanish for every
    valid Fisher matrix.  A matrix whose norm sits at the roundoff level of
    its own construction (an uninformative design) counts as exactly zero.
    """
    floor = 0.0
    if isinstance(F, FisherMatrix):
        theta = F.theta
        floor = F.noise_floor
        F = F.F
    if theta is None:
        raise ValueError("need the parameter vector theta")
    u = gauge_direction(theta)
    norm_f = np.linalg.norm(F, 2)
    norm_u = np.linalg.norm(u) ** 2
    if norm_f <= floor or norm_f == 0 or norm_u == 0:
        return 0.0
    return float(abs(u @ F @ u) / (norm_f * norm_u))


def _rotation_block(phi: float, d: int) -> np.ndarray:
    I = np.eye(d)
    return np.block(
        [[np.cos(phi) * I, -np.sin(phi) * I], [np.sin(phi) * I, np.cos(phi) * I]]
    )


def rotation_equivariance_check(
    problem: EstimationProblem, h: np.ndarray, tau: float, phi: float
) -> float:
    """Relative deviation of F(theta_phi) from R_phi F(theta) R_phi^T.

    Rotating h by a global phase rotates the Fisher matrix by the block
    rotation R_phi; the returned ratio should be at numerical-noise level.
    """
    h = np.asarray(h).ravel().astype(complex)
    fm0 = fisher(problem, h, tau)
    F0 = fm0.F
    F1 = fisher(problem, h * np.exp(1j * phi), tau).F
    R = _rotation_block(phi, h.size)
    denom = np.linalg.norm(F0)
    if denom <= fm0.noise_floor:
        return 0.0
    return float(np.linalg.norm(F1 - R @ F0 @ R.T) / denom)


def crb_trace(F: np.ndarray | FisherMatrix, rank_tol: float | None = None) -> float:
    """tr(F^+) via symmetric eigendecomposition.

    Eigenvalues above ``rank_tol`` (default 2d * eps * lambda_max) are
    inverted, the rest dropped.  A FisherMatrix knows its gauge direction
    u = J theta, which is always projected out first, so the tolerance
    applies only to the other eigenvalues and dropping any of them raises
    an identifiability warning.  A bare matrix has no known gauge: one
    dropped eigenvalue is taken to be the gauge and more than one raises
    the warning.
    """
    u = F.gauge if isinstance(F, FisherMatrix) else None
    F = np.asarray(F.F if u is not None else F)
    tol_scale = F.shape[0] * np.finfo(float).eps
    allowed = 1
    if u is not None and np.any(u):
        # Restrict F to an orthonormal basis of u's complement.
        D = np.linalg.qr(u[:, None], mode="complete")[0][:, 1:]
        F, allowed = D.T @ F @ D, 0
    w = np.linalg.eigvalsh(F)
    lam_max = w[-1] if w.size else 0.0
    if lam_max <= 0:
        return 0.0
    tol = rank_tol if rank_tol is not None else tol_scale * lam_max
    keep = w > tol
    if np.sum(~keep) > allowed:
        warnings.warn(
            f"Fisher matrix has {int(np.sum(~keep))} near-zero eigenvalues; "
            "parameters are not identifiable beyond the phase gauge",
            IdentifiabilityWarning,
        )
    return float(np.sum(1.0 / w[keep]))
