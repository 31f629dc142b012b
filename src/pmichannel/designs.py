"""Generators for codebooks, dimensionality-reduction matrices and channels.

Everything here is a pure function of its arguments plus a caller-owned RNG,
so experiments stay reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .model import Codebook

__all__ = [
    "dft_codebook",
    "identity_codebook",
    "haar_stiefel",
    "haar_stiefel_stack",
    "structured_q",
    "type1_q1",
    "synthetic_channel",
    "eigvecs_descending",
]

_HERM_TOL = 1e-10
TYPE1_PORTS = 8  # columns of the first-round reduction ``type1_q1``
# The unitary inner factor of ``type1_q1``: I_2 kron (DFT(2) kron DFT(2)) / 2.
_F2 = np.array([[1.0, 1.0], [1.0, -1.0]])
_TYPE1_INNER = np.kron(np.eye(2), np.kron(_F2, _F2) / 2.0)


def eigvecs_descending(A: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenvectors of a Hermitian matrix, deterministically ordered.

    Eigenvalues descend; each eigenvector's phase is fixed by making its
    first non-negligible component real and positive, so repeated calls on
    the same input give bit-identical output.  A (..., n, n) stack takes one
    batched ``eigh`` and gives each matrix the bits of its own call.
    """
    A = np.asarray(A)
    if not np.allclose(A, A.conj().swapaxes(-1, -2), atol=_HERM_TOL):
        raise ValueError("input must be Hermitian")
    w, U = np.linalg.eigh(A)
    U = U[..., ::-1][..., :k]
    V = U.reshape(-1, *U.shape[-2:])  # a view: the fix writes into U and keeps its strides
    big = np.abs(V) > 1e-12
    piv = V[np.arange(len(V))[:, None], big.argmax(axis=1), np.arange(V.shape[2])]
    piv[~big.any(axis=1)] = 1.0
    V *= (np.conj(piv) / np.abs(piv))[:, None, :]
    return U


def dft_codebook(p: int, r: int = 1) -> Codebook:
    """Normalized DFT codebook: V = DFT(p)/sqrt(p).

    Columns are orthonormal, so the coherence is zero.  For r > 1 the
    columns are grouped into p // r codewords of width r.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if p % r != 0:
        raise ValueError("r must divide p")
    n = np.arange(p)
    V = np.exp(-2j * np.pi * np.outer(n, n) / p) / np.sqrt(p)
    return Codebook(V=V, r=r)


def identity_codebook(p: int, n: int | None = None, r: int = 1) -> Codebook:
    """First n columns of I_p as a real orthonormal codebook (coherence zero)."""
    n = p if n is None else n
    if not 1 <= n * r <= p:
        raise ValueError("need 1 <= n*r <= p")
    return Codebook(V=np.eye(p)[:, : n * r], r=r)


def haar_stiefel(
    d: int, p: int, rng: np.random.Generator, real: bool = False
) -> np.ndarray:
    """Haar-random d x p matrix with orthonormal columns; one ``haar_stiefel_stack`` draw."""
    return haar_stiefel_stack(1, d, p, rng, real)[0]


def haar_stiefel_stack(
    n: int, d: int, p: int, rng: np.random.Generator, real: bool = False
) -> np.ndarray:
    """n independent Haar Stiefel matrices as an (n, d, p) array.

    Orthonormalizes i.i.d. Gaussian matrices with ``_haar_from_gaussian``,
    whose Q factor has a positive real R diagonal, so every result is the
    unique Haar representative (Mezzadri 2007).  Set ``real=True`` for the
    real Stiefel manifold.
    """
    if p > d:
        raise ValueError("need p <= d")
    if real:
        G = rng.standard_normal((n, d, p))
    else:
        G = rng.standard_normal((n, d, p)) + 1j * rng.standard_normal((n, d, p))
    return _haar_from_gaussian(G)


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in place, pairwise in an order fixed by the row count alone.

    Overwrites ``x`` and returns its first row.  ``x.sum(axis=0)`` adds a
    contiguous row pairwise but sums across rows in sequence, so its bits
    would depend on the trailing (batch) shape.
    """
    k = len(x)
    while k > 1:
        h = k // 2
        np.add(x[:h], x[h : 2 * h], out=x[:h])
        if k % 2:
            x[0] += x[k - 1]
        k = h
    return x[0]


def _haar_from_gaussian(G: np.ndarray) -> np.ndarray:
    """Q factor of an (n, d, p) Gaussian stack with R's diagonal real positive.

    A complex stack goes through LAPACK's batched QR, with R's diagonal
    phases absorbed into Q.  A real stack is orthonormalized by modified
    Gram-Schmidt in two sweeps over the whole stack, with no per-matrix
    LAPACK call: the second sweep re-orthogonalizes the first sweep's Q,
    which keeps the columns orthonormal to working precision ("twice is
    enough", Giraud, Langou & Rozloznik 2005), and R stays upper triangular
    with a positive diagonal.  The (d, p, n) array keeps the batch on the
    contiguous axis, and only elementwise operations and ``_sum_rows`` touch
    it, so each matrix's bits do not depend on n.  Complex stacks keep LAPACK:
    a realified form of this kernel was slower there.
    """
    if np.iscomplexobj(G):
        Q, R = np.linalg.qr(G)
        diag = np.einsum("nii->ni", R)
        phases = diag / np.abs(diag)
        return Q * phases.conj()[:, None, :]
    p = G.shape[2]
    X = G.transpose(1, 2, 0).copy()  # not ascontiguousarray: at n = 1 that would alias G
    for _ in range(2):
        for j in range(p):
            q = X[:, j]
            q *= 1.0 / np.sqrt(_sum_rows(q * q))
            if j + 1 < p:
                rest = X[:, j + 1 :]
                rest -= q[:, None] * _sum_rows(q[:, None] * rest)
    return np.ascontiguousarray(X.transpose(2, 0, 1))


def structured_q(sigma_ul: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """Fixed covariance-aware outer transform times a random inner unitary.

    Q = Q_out @ U with Q_out the top-p eigenvectors of the uplink covariance
    and U a Haar-random p x p unitary; the column space is the dominant
    uplink subspace while the inner layer injects per-round diversity.
    """
    q_out = eigvecs_descending(sigma_ul, p)
    return q_out @ haar_stiefel(p, p, rng)


def type1_q1(sigma_ul: np.ndarray) -> np.ndarray:
    """First-round reduction matrix compatible with a dual-polarized codebook.

    Q1 = eigvecs(Sigma_ul, 8) @ (I_2 kron (DFT(2) kron DFT(2)) / 2); the
    inner 8 x 8 factor is unitary, so Q1 spans the top-8 uplink subspace.
    """
    if sigma_ul.shape[0] < TYPE1_PORTS:
        raise ValueError(f"need at least {TYPE1_PORTS} antenna ports")
    return eigvecs_descending(sigma_ul, TYPE1_PORTS) @ _TYPE1_INNER


def _fdd_design(basis: np.ndarray, T: int, haar: bool, rng: np.random.Generator) -> list:
    """T reduction matrices: ``type1_q1`` then T - 1 random rounds, from one basis.

    ``basis`` is ``eigvecs_descending(Sigma, 8)``.  The list equals
    ``[type1_q1(Sigma)]`` followed by T - 1 calls of ``structured_q(Sigma, 8,
    rng)``, or of ``haar_stiefel(d, 8, rng)`` when ``haar``, bit for bit and
    leaving ``rng`` at the same point: each of those calls draws its real
    part and then its imaginary part, so the T - 1 draws are one
    (T - 1, 2, 8, 8) Gaussian draw, or (T - 1, 2, d, 8) when ``haar``.
    """
    d, p = basis.shape[0], TYPE1_PORTS
    if basis.shape[1] < p:
        raise ValueError(f"need at least {p} antenna ports")
    g = rng.standard_normal((T - 1, 2, d if haar else p, p))
    rest = _haar_from_gaussian(g[:, 0] + 1j * g[:, 1])
    if not haar:
        rest = basis @ rest
    return [basis @ _TYPE1_INNER, *rest]


def _ula_steering(d: int, angle: float) -> np.ndarray:
    """Uniform-linear-array steering vector at half-wavelength spacing."""
    return np.exp(1j * np.pi * np.sin(angle) * np.arange(d))


def synthetic_channel(
    d: int,
    n_rx: int,
    paths: int,
    rng: np.random.Generator,
    angle_jitter: float = 0.03,
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-ray geometric channel plus a partially matching uplink covariance.

    The downlink channel is a sum of ``paths`` rays with ULA steering vectors
    and random receive signatures, normalized to unit Frobenius norm.  The
    uplink covariance is built from the same ray directions (slightly
    jittered) with independent gains, so the uplink subspace prior is
    informative but not exact.  Returns the arrays ``(H, Sigma)``: H is
    d x n_rx and Sigma is d x d, exactly Hermitian and positive definite.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    angles = rng.uniform(-np.pi / 3, np.pi / 3, size=paths)
    # Power-decaying complex path gains.
    powers = np.exp(-0.5 * np.arange(paths))
    g = np.sqrt(powers) * (rng.standard_normal(paths) + 1j * rng.standard_normal(paths))
    H = np.zeros((d, n_rx), dtype=complex)
    for ell in range(paths):
        b = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
        b /= np.linalg.norm(b)
        H += g[ell] * np.outer(_ula_steering(d, angles[ell]), b.conj())
    H /= np.linalg.norm(H)

    ul_angles = angles + angle_jitter * rng.standard_normal(paths)
    ul_powers = powers * rng.uniform(0.5, 1.5, size=paths)
    Sigma = np.zeros((d, d), dtype=complex)
    for ell in range(paths):
        s = _ula_steering(d, ul_angles[ell])
        Sigma += ul_powers[ell] * np.outer(s, s.conj())
    Sigma /= np.trace(Sigma).real
    # Small isotropic floor keeps the covariance strictly PSD.
    Sigma += 1e-8 * np.eye(d)
    Sigma = 0.5 * (Sigma + Sigma.conj().T)
    return H, Sigma
