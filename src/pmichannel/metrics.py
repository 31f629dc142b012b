"""Phase-invariant distances and reconstruction-quality metrics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "dist",
    "phase_aligned_mse",
    "beam_precision",
]


def dist(x: np.ndarray, y: np.ndarray) -> float:
    """Distance up to a global phase: min over phi of ||x - y*exp(j*phi)||.

    Equals sqrt(||x||^2 + ||y||^2 - 2|x^H y|); evaluated at the minimizing
    phase alignment, which stays accurate when the distance is tiny.  For
    real vectors this is min(||x - y||, ||x + y||).
    """
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    if x.shape != y.shape:
        raise ValueError("vectors must have equal length")
    inner = np.vdot(x, y)
    phase = np.exp(-1j * np.angle(inner)) if inner != 0 else 1.0
    if not np.iscomplexobj(x) and not np.iscomplexobj(y):
        phase = np.sign(np.real(inner)) or 1.0
    return float(np.linalg.norm(y * phase - x))


def phase_aligned_mse(x_hat: np.ndarray, h: np.ndarray) -> float:
    """||x_hat * exp(-j*arg(h^H x_hat)) - h||^2, the squared phase-invariant error.

    This is ``dist(h, x_hat) ** 2``.  When h^H x_hat vanishes every phase is
    equally good and zero is used.
    """
    return dist(h, x_hat) ** 2


def beam_precision(h_hat: np.ndarray, H: np.ndarray) -> float:
    """Energy of the true channel captured by the estimated beam space.

    tr(Qhat^H H H^H Qhat) / tr(U^H H H^H U), with U the top-r left singular
    vectors of H and Qhat an orthonormal basis of h_hat's column space, so
    the metric ignores the power scaling of the estimate.
    """
    return _beam_precision(np.asarray(h_hat)[None], *(a[None] for a in _channel_svd(H)))[0]


def _channel_svd(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and values of a nonzero channel, ``beam_precision``'s use of H."""
    H = np.asarray(H)
    H = H[:, None] if H.ndim == 1 else H
    if np.linalg.norm(H) == 0:
        raise ValueError("true channel must be nonzero")
    U, s, _ = np.linalg.svd(H, full_matrices=False)
    return U, s


def _beam_precision(h_hats: np.ndarray, U: np.ndarray, s: np.ndarray) -> list:
    """``beam_precision`` of B estimates, a (B, d) or (B, d, r) stack, from their channels' stacked
    ``_channel_svd``s, (B, d, q) and (B, q): one batched QR, each value with the bits of its own call.
    A Q column whose |R_jj| is at most max(d, r) eps times the largest spans nothing and adds 0."""
    Hh = np.asarray(h_hats)
    Q, R = np.linalg.qr(Hh[..., None] if Hh.ndim == 2 else Hh)
    rjj = np.abs(np.diagonal(R, axis1=1, axis2=2))
    spanned = rjj > max(Q.shape[1], R.shape[2]) * np.finfo(R.dtype).eps * rjj.max(axis=1, keepdims=True)
    Q = np.where(spanned[:, None], Q, 0)
    num = np.add.reduce((np.abs(U.conj().mT @ Q) ** 2 * (s**2)[..., None]).reshape(len(Q), -1), axis=1)
    return (num / np.add.reduce(s[:, : Q.shape[2]] ** 2, axis=1)).tolist()
