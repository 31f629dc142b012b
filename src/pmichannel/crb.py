"""Fisher information and the Cramer-Rao bound for the softmax PMI model.

The complex channel is realified to theta = [Re h; Im h].  The model is
invariant under a global phase rotation of h, so the Fisher matrix is
singular along the gauge direction u = J theta; the bound on phase-aligned
MSE is the trace of the Moore-Penrose pseudoinverse.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .model import _ROUND_BLOCK, EstimationProblem, _channel, _gains_from_proj, _project, _softmax

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
    tau: float

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


@functools.lru_cache(maxsize=None)
def _openblas_threads() -> Optional[tuple]:
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None if not found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# The BLAS thread count is process-wide: the first holder saves it and sets
# one thread, the last one to leave restores it.
_BLAS_LOCK = threading.Lock()
_blas_hold = {"holders": 0, "saved": 1}


@contextlib.contextmanager
def _single_threaded_blas():
    """Hold numpy's OpenBLAS at one thread, restoring its count on exit.

    Without the library or its symbols this does nothing.
    """
    funcs = _openblas_threads()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    with _BLAS_LOCK:
        if _blas_hold["holders"] == 0:
            _blas_hold["saved"] = get()
            set_(1)
        _blas_hold["holders"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_hold["holders"] -= 1
            if _blas_hold["holders"] == 0:
                set_(_blas_hold["saved"])


def fisher(problem: EstimationProblem, h: np.ndarray) -> FisherMatrix:
    """Fisher information matrix of the T-round softmax PMI observations.

    F = (4/tau^2) sum_t [ sum_i p_t(i) g_{t,i} g_{t,i}^T
                          - (sum_i p_t(i) g_{t,i})(sum_i p_t(i) g_{t,i})^T ]
    with g_{t,i} = M(a_{t,i} a_{t,i}^H) theta, i.e. the realification of
    a_{t,i} (a_{t,i}^H h), with a_{t,i}^H h from ``model._project``, at the
    problem's temperature tau.  Single stream only.

    G = [Re; Im] of those columns is filled per block of ``model._ROUND_BLOCK``
    rounds.  The (2d, T*N) GEMM is one call, as a split sum would change its
    bits, run with numpy's OpenBLAS held at one thread: more threads split
    its sum differently, so the last bits of F (and of the CRB) would follow
    the caller's BLAS thread count.
    """
    if problem.codebook.r != 1:
        raise ValueError("Fisher matrix is defined for the single-stream model")
    tau = problem.tau
    h = np.asarray(h).ravel().astype(complex)
    C = _project(problem, _channel(h, problem.d))  # a_{t,i}^H h, round-major, (T*N, 1)
    P = _softmax(_gains_from_proj(C, problem.codebook) / tau)
    A, d, k = problem.effective_flat, problem.d, _ROUND_BLOCK * problem.n_codewords
    G = np.empty((2 * d, A.shape[1]))
    for s in range(0, A.shape[1], k):
        W = A[:, s : s + k] * C[s : s + k, 0]  # columns a_{t,i} (a_{t,i}^H h)
        G[:d, s : s + k], G[d:, s : s + k] = W.real, W.imag
    del W  # the last block is not kept alive through the full-size GP
    GP = G * P.ravel()
    by_round = GP.reshape(G.shape[0], problem.T, -1)
    mean = by_round[:, :, 0].copy()  # (2d, T); plane by plane is ~3x faster than .sum(axis=2)
    for i in range(1, by_round.shape[2]):
        mean += by_round[:, :, i]
    with _single_threaded_blas():
        F = (4.0 / tau**2) * (GP @ G.T - mean @ mean.T)
    F = 0.5 * (F + F.T)
    return FisherMatrix(F=F, theta=realify_vector(h), tau=tau)


def gauge_nullity(fm: FisherMatrix) -> float:
    """u^T F u / (||F|| ||u||^2) for the gauge direction u = J theta.

    The phase invariance of the model forces this ratio to vanish for every
    valid Fisher matrix.  A matrix whose norm sits at the roundoff level of
    its own construction (an uninformative design) counts as exactly zero.
    """
    u = fm.gauge
    norm_f = np.linalg.norm(fm.F, 2)
    norm_u = np.linalg.norm(u) ** 2
    if norm_f <= fm.noise_floor or norm_u == 0:
        return 0.0
    return float(abs(u @ fm.F @ u) / (norm_f * norm_u))


def _rotation_block(phi: float, d: int) -> np.ndarray:
    I = np.eye(d)
    return np.block(
        [[np.cos(phi) * I, -np.sin(phi) * I], [np.sin(phi) * I, np.cos(phi) * I]]
    )


def rotation_equivariance_check(problem: EstimationProblem, h: np.ndarray, phi: float) -> float:
    """Relative deviation of F(theta_phi) from R_phi F(theta) R_phi^T.

    Rotating h by a global phase rotates the Fisher matrix by the block
    rotation R_phi; the returned ratio should be at numerical-noise level.
    """
    h = np.asarray(h).ravel().astype(complex)
    fm0 = fisher(problem, h)
    F0 = fm0.F
    F1 = fisher(problem, h * np.exp(1j * phi)).F
    R = _rotation_block(phi, h.size)
    denom = np.linalg.norm(F0)
    if denom <= fm0.noise_floor:
        return 0.0
    return float(np.linalg.norm(F1 - R @ F0 @ R.T) / denom)


def crb_trace(fm: FisherMatrix) -> float:
    """tr(F^+) with the phase gauge u = J theta projected out.

    F is restricted to an orthonormal basis of u's complement, and the
    eigenvalues of the restriction above 2d * eps * lambda_max are
    inverted.  Any other eigenvalue is dropped with an identifiability
    warning: the parameters are then not identifiable beyond the gauge.
    A zero channel has F = 0 and gives 0.
    """
    F, u = fm.F, fm.gauge
    tol_scale = F.shape[0] * np.finfo(float).eps
    if np.any(u):
        D = np.linalg.qr(u[:, None], mode="complete")[0][:, 1:]
        F = D.T @ F @ D
    w = np.linalg.eigvalsh(F)
    lam_max = w[-1] if w.size else 0.0
    if lam_max <= 0:
        return 0.0
    keep = w > tol_scale * lam_max
    if not np.all(keep):
        warnings.warn(
            f"Fisher matrix has {int(np.sum(~keep))} near-zero eigenvalues; "
            "parameters are not identifiable beyond the phase gauge",
            IdentifiabilityWarning,
        )
    return float(np.sum(1.0 / w[keep]))
