"""Probabilistic PMI feedback model.

A user observes the channel through a per-round dimensionality-reduction
matrix Q_t, picks the codebook entry with the largest effective gain and
reports only its index (the PMI).  This module holds the domain types and
the softmax relaxation of that hard selection rule, including sampling of
feedback indices and generation of complete feedback histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Codebook",
    "FeedbackRound",
    "EstimationProblem",
    "all_gains",
    "softmax_pmf",
    "pmi_covariance",
    "simulate_rounds",
    "simulate_problem",
]

_ORTHO_TOL = 1e-10
_ROUND_BLOCK = 1024  # rounds per block of the kernels that fill a large-T output block by block


def _positive_int(value) -> bool:
    """Whether ``value`` is an int or ``np.integer`` of at least 1; a bool is not."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 1


def _orthonormal(q: np.ndarray) -> bool:
    """Whether each matrix of a (T, d, p) stack has Q^H Q = I to ``_ORTHO_TOL`` per entry (NaN fails)."""
    blocks = (q[s : s + _ROUND_BLOCK] for s in range(0, len(q), _ROUND_BLOCK))
    return all(np.abs(b.conj().mT @ b - np.eye(q.shape[2])).max() <= _ORTHO_TOL for b in blocks)


def _as_matrix(x: np.ndarray) -> np.ndarray:
    """View a vector as a single-column matrix; matrices pass through."""
    x = np.asarray(x)
    return x[:, None] if x.ndim == 1 else x


def _channel(x: np.ndarray, d: int) -> np.ndarray:
    """A channel as a (d, m) matrix (``_as_matrix``), refused unless finite with d rows."""
    X = _as_matrix(x)
    if X.ndim != 2 or X.shape[0] != d or not np.all(np.isfinite(X)):
        raise ValueError(f"channel must be finite with d={d} entries per column, got shape {X.shape}")
    return X


@dataclass(frozen=True)
class Codebook:
    """Shared codebook in the reduced p-dimensional domain.

    ``V`` is p x (N*r); columns are grouped into N blocks of width r, one
    block per codeword.  Single-stream codewords must be unit norm.
    """

    V: np.ndarray
    r: int = 1

    def __post_init__(self):
        V = np.asarray(self.V)
        if V.ndim != 2 or V.shape[1] == 0 or not np.all(np.isfinite(V)):
            raise ValueError("codebook must be a finite 2-D array with at least one codeword")
        r = self.r
        if not _positive_int(r) or V.shape[1] % r:
            raise ValueError(f"codeword width r must be a positive int dividing the column count, got {r!r}")
        norms = np.linalg.norm(V, axis=0)
        if self.r == 1 and not np.allclose(norms, 1.0, atol=1e-8):
            raise ValueError("single-stream codewords must have unit norm")
        object.__setattr__(self, "V", V)

    @property
    def p(self) -> int:
        return self.V.shape[0]

    @property
    def n_codewords(self) -> int:
        return self.V.shape[1] // self.r

    def codeword(self, i: int) -> np.ndarray:
        """The i-th codeword block, shape (p, r)."""
        if not 0 <= i < self.n_codewords:
            raise IndexError(f"codeword index {i} out of range")
        return self.V[:, i * self.r : (i + 1) * self.r]

    @cached_property
    def coherence(self) -> float:
        """max over i != j of the largest singular value of V_i^H V_j.

        Reduces to max |v_i^H v_j| for single-stream codebooks.
        """
        n = self.n_codewords
        if n < 2:
            return 0.0
        G = self.V.conj().T @ self.V
        mu = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                blk = G[i * self.r : (i + 1) * self.r, j * self.r : (j + 1) * self.r]
                s = np.abs(blk[0, 0]) if self.r == 1 else np.linalg.norm(blk, 2)
                mu = max(mu, float(s))
        return mu


@dataclass(frozen=True)
class FeedbackRound:
    """One communication round: reduction matrix, reported PMI, optional CQI.

    A plain record.  Rounds are validated, and their CQI values rounded to
    the nearest IEEE-754 32-bit value (a 32-bit quantized report), when an
    EstimationProblem is built from them.
    """

    Q: np.ndarray
    pmi: int
    cqi: Optional[float] = None


class EstimationProblem:
    """Immutable feedback history of T rounds, codebook and model parameters.

    The history is held as arrays: ``pmi_array`` (T,) reported indices,
    ``cqi_array`` (T,) 32-bit rounded CQI values or None unless every round
    carries one, and the (T, d, p) reduction matrices only as the lift
    ``effective_flat`` and ``selected``: the problem holds no reference to
    them.  ``radius`` is the norm bound of the constrained likelihood
    problem; it may be left None and chosen at solve time.

    Build a problem from FeedbackRound records with the constructor, or from
    arrays with ``from_arrays``; both pass the same batched validation.
    """

    def __init__(
        self,
        rounds: Sequence[FeedbackRound],
        codebook: Codebook,
        tau: float,
        radius: Optional[float] = None,
    ):
        rounds = tuple(rounds)
        if not rounds:
            raise ValueError("need at least one feedback round")
        qs, pmi, cqi = zip(*((fb.Q, fb.pmi, fb.cqi) for fb in rounds))
        self._validate(
            np.stack(qs), np.array(pmi), None if None in cqi else cqi, codebook, tau, radius
        )

    @classmethod
    def from_arrays(
        cls,
        q_stack: np.ndarray,
        pmi: np.ndarray,
        codebook: Codebook,
        tau: float,
        cqi: Optional[np.ndarray] = None,
        radius: Optional[float] = None,
    ) -> "EstimationProblem":
        """Problem from a (T, d, p) design stack, T PMIs and optional T CQI values."""
        problem = cls.__new__(cls)
        problem._validate(q_stack, pmi, cqi, codebook, tau, radius)
        return problem

    def _validate(self, q_stack, pmi, cqi, codebook, tau, radius, select=True) -> None:
        """The one boundary check; stores what it accepts, the lift and, with ``select``, ``selected``."""
        q = np.asarray(q_stack)
        if q.ndim != 3 or q.shape[0] < 1:
            raise ValueError("q_stack must be a (T, d, p) array with T >= 1")
        T, d, p = q.shape
        if p != codebook.p:
            raise ValueError("codebook dimension does not match Q columns")
        if not _orthonormal(q):
            raise ValueError("Q must have orthonormal columns (Q^H Q = I)")
        pmi = np.asarray(pmi)
        if pmi.shape != (T,) or not np.issubdtype(pmi.dtype, np.integer):
            raise ValueError("need one integer PMI per round")
        if np.any((pmi < 0) | (pmi >= codebook.n_codewords)):
            raise ValueError("PMI out of codebook range")
        if cqi is not None:
            cqi = np.asarray(cqi, dtype=np.float32).astype(float)
            if cqi.shape != (T,) or not np.all((cqi >= 0) & (cqi < np.inf)):
                raise ValueError("need one finite nonnegative CQI per round")
        if not 0 < tau < np.inf:
            raise ValueError("temperature must be positive and finite")
        if radius is not None and not 0 < radius < np.inf:
            raise ValueError("radius must be positive and finite")
        pmi, V = pmi.astype(np.intp, copy=False), codebook.V
        # The lift: Q_t V of every round as (d, T*N*r) columns, for fast GEMMs;
        # column t*N*r + j is column j of Q_t V.  One ``np.matmul`` per block of rounds.
        A = np.empty((d, T, V.shape[1]), dtype=np.result_type(q, V))
        for s in range(0, T, _ROUND_BLOCK):
            np.matmul(q[s : s + _ROUND_BLOCK], V, out=A[:, s : s + _ROUND_BLOCK].transpose(1, 0, 2))
        self.__dict__.update(
            pmi_array=pmi, cqi_array=cqi, codebook=codebook, tau=tau, radius=radius,
            effective_flat=A.reshape(d, -1),
        )
        if select:
            self.__dict__["selected"] = _selected(q, pmi, codebook)

    def __setattr__(self, name, value):
        raise AttributeError("EstimationProblem is immutable")

    def prefix(self, T: int, tau: Optional[float] = None) -> "EstimationProblem":
        """The first T rounds as a problem sharing this one's arrays and lift, at temperature
        ``tau`` if given: sound only where the feedback did not read tau (the hard rule)."""
        tau = self.tau if tau is None else tau
        if not 1 <= T <= self.T or not 0 < tau < np.inf:
            raise ValueError(f"need 1 <= T <= {self.T} and a positive finite tau, got T={T}, tau={tau}")
        k = T * self.n_codewords * self.codebook.r
        out = EstimationProblem.__new__(EstimationProblem)
        out.__dict__.update(
            pmi_array=self.pmi_array[:T], cqi_array=None if self.cqi_array is None else self.cqi_array[:T],
            codebook=self.codebook, tau=tau, radius=self.radius,
            effective_flat=self.effective_flat[:, :k], selected=self.selected[:T],
        )
        return out

    @property
    def T(self) -> int:
        return len(self.pmi_array)

    @property
    def d(self) -> int:
        return self.effective_flat.shape[0]

    @property
    def p(self) -> int:
        return self.codebook.p

    @property
    def n_codewords(self) -> int:
        return self.codebook.n_codewords

    @property
    def has_cqi(self) -> bool:
        return self.cqi_array is not None

    @cached_property
    def dtype(self) -> type:
        """complex if the designs or the codebook are complex, else float."""
        return complex if np.iscomplexobj(self.effective_flat) else float

    @cached_property
    def pmi_flat(self) -> np.ndarray:
        """Flat indices t*N + I_t of the reported entries of a C-ordered (T, N) array."""
        return np.arange(self.T) * self.n_codewords + self.pmi_array


def _selected(q: np.ndarray, pmi: np.ndarray, codebook: Codebook) -> np.ndarray:
    """``selected``: the lifted reported codewords Q_t V_{I_t}, (T, d, r), one (d, p) x (p, r)
    product per round, so each entry has the bits of ``Q_t @ codebook.codeword(I_t)``."""
    cols = pmi[:, None] * codebook.r + np.arange(codebook.r)
    blocks = np.ascontiguousarray(codebook.V[:, cols].transpose(1, 0, 2))  # (T, p, r): V_{I_t}
    return np.matmul(q, blocks)


def pmi_covariance(problem: EstimationProblem, basis: Optional[np.ndarray] = None) -> np.ndarray:
    """(1/T) sum_t W_t V_{I_t} V_{I_t}^H W_t^H, the covariance of the ``_reduced`` codewords.

    W_t = Q_t, or B^H Q_t for a basis B; ``likelihood._spectral`` takes it over a stack.
    """
    return _covariance(_reduced(problem, basis))


def _reduced(problem: EstimationProblem, basis: Optional[np.ndarray] = None) -> np.ndarray:
    """The reduced codewords W_t V_{I_t}, (T, n, r): ``selected``, or B^H Q_t V_{I_t} for a basis B."""
    return problem.selected if basis is None else np.matmul(basis.conj().T, problem.selected)


def _covariance(E: np.ndarray) -> np.ndarray:
    """(1/T) sum_t E_t E_t^H of (..., T, n, r) reduced codewords; each matrix has its own bits."""
    T, n = E.shape[-3:-1]
    E = E.swapaxes(-3, -2).reshape(*E.shape[:-3], n, -1)
    return (E @ E.conj().swapaxes(-1, -2)) / T


def _gains_from_proj(C: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Reduce projections C = A^H X, shape (..., T*N*r, m), to per-codeword gains (..., T, N)."""
    sq = C.real**2
    if C.dtype.kind == "c":
        sq = sq + C.imag**2
    gains = sq.reshape(*C.shape[:-2], -1, codebook.n_codewords, codebook.r * C.shape[-1])
    # A sum of one term is that term: one column per codeword needs no reduction.
    return gains[..., 0] if gains.shape[-1] == 1 else np.add.reduce(gains, axis=-1)


def _project(problem: EstimationProblem, X: np.ndarray) -> np.ndarray:
    """The one projection kernel: A^H X = (X^H A)^H, C-ordered (T*N*r, m), for a (d, m) X.

    A (B, d, m) stack of X with a (B, d, T*N*r) stack of lifts gives (B, T*N*r, m).
    """
    C = np.matmul(X.conj().swapaxes(-1, -2), problem.effective_flat)
    if C.dtype.kind == "c":
        np.conjugate(C, out=C)
    return np.ascontiguousarray(C.swapaxes(-1, -2))  # kernels view it as (..., T, N, r*m)


def all_gains(problem: EstimationProblem, x: np.ndarray) -> np.ndarray:
    """Gain matrix of shape (T, N); entry (t, i) is ||V_i^H Q_t^H X||_F^2."""
    return _gains_from_proj(_project(problem, _as_matrix(x)), problem.codebook)


def _row_lse(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one log-sum-exp reduction of a (T, N) score matrix, or of a (..., T, N) stack of them.

    Returns ``ex = exp(scores - m)`` with m the row max, its row sums z and
    the row log-sum-exp ``lse = log z + m``.

    The max runs over a codeword-major (N, T) copy: a max is exact in any
    order, and N long rows reduce far faster than T short ones.  For short
    codebooks (N < 8) exp and the sum run over that copy too, and ``ex``
    comes back as its transposed (T, N) view, which is not C-contiguous:
    NumPy adds a row shorter than 8 in sequence, so the codeword-major sum
    e_0 + e_1 + ... has the bits of the row-wise ``sum(axis=1)``.  From
    N = 8 on NumPy adds each row pairwise, so exp and the sum run in the
    (T, N) layout and ``ex`` is C-contiguous.  Codeword-major scores (the
    .mT of a C-ordered (N, T) array) skip the copy, with the same bits.
    Each matrix of a stack gets the bits it gets alone.
    """
    by_codeword = np.ascontiguousarray(scores.swapaxes(-1, -2))
    # The ufunc reductions are the ndarray max and sum without their wrappers.
    mx = np.maximum.reduce(by_codeword, axis=-2)
    if scores.shape[-1] < 8:
        ex_by_codeword = np.exp(by_codeword - mx[..., None, :])
        ex, z = ex_by_codeword.swapaxes(-1, -2), np.add.reduce(ex_by_codeword, axis=-2)
    else:
        ex = np.exp(np.subtract(scores, mx[..., None], order="C"))
        z = np.add.reduce(ex, axis=-1)
    return ex, z, np.log(z) + mx


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (T, N) score matrix, C-contiguous; safe for large scores."""
    ex, z, _ = _row_lse(scores)
    return np.ascontiguousarray(ex / z[:, None])


def softmax_pmf(problem: EstimationProblem, x: np.ndarray) -> np.ndarray:
    """Selection probabilities of every round, shape (T, N).

    Row t is the temperature-tau softmax of round t's gains at x: entry
    (t, i) is proportional to exp(||V_i^H Q_t^H X||_F^2 / tau).
    """
    return _softmax(all_gains(problem, x) / problem.tau)


def simulate_problem(
    qs: Sequence[np.ndarray],
    codebook: Codebook,
    x_true: np.ndarray,
    tau: float,
    rng: Optional[np.random.Generator] = None,
    rule: str = "softmax",
    attach_cqi: bool = False,
    radius: Optional[float] = None,
) -> EstimationProblem:
    """Simulate the feedback of a known channel over the designs ``qs``.

    rule="softmax" draws each PMI from the temperature-tau softmax model by
    inverse-CDF sampling with one uniform per round, in round order
    (requires ``rng``); rule="hard" applies the deterministic argmax rule,
    ties broken by the smallest index.  With ``attach_cqi`` every round
    reports the 32-bit rounded gain at its PMI.
    """
    if rule not in ("softmax", "hard"):
        raise ValueError(f"unknown feedback rule {rule!r}")
    if rule == "softmax" and rng is None:
        raise ValueError("softmax sampling needs an rng")
    q_stack = np.asarray(qs)
    T = len(q_stack)
    problem = EstimationProblem.__new__(EstimationProblem)
    problem._validate(q_stack, np.zeros(T, dtype=np.intp), None, codebook, tau, radius, select=False)
    gains = all_gains(problem, _channel(x_true, problem.d))
    if rule == "hard":
        pmi = np.argmax(gains, axis=1)
    else:
        cdf = np.cumsum(_softmax(gains / tau), axis=1)
        # Counting cdf entries <= u is searchsorted(cdf, u, side="right").
        pmi = np.minimum((cdf <= rng.random(T)[:, None]).sum(axis=1), codebook.n_codewords - 1)
    cqi = gains[np.arange(T), pmi].astype(np.float32).astype(float) if attach_cqi else None
    del gains  # not held while ``selected`` is built
    # The validated placeholder PMIs give way to the simulated feedback,
    # which is in range by construction.
    problem.__dict__.update(pmi_array=pmi, cqi_array=cqi, selected=_selected(q_stack, pmi, codebook))
    return problem


def simulate_rounds(
    qs: Sequence[np.ndarray],
    codebook: Codebook,
    x_true: np.ndarray,
    tau: float,
    rng: Optional[np.random.Generator] = None,
    rule: str = "softmax",
    attach_cqi: bool = False,
) -> tuple:
    """The feedback rounds of ``simulate_problem`` as FeedbackRound records over ``qs``."""
    q = np.asarray(qs)
    problem = simulate_problem(q, codebook, x_true, tau, rng, rule, attach_cqi)
    cqi = problem.cqi_array.tolist() if attach_cqi else [None] * problem.T
    return tuple(FeedbackRound(Q, int(i), c) for Q, i, c in zip(q, problem.pmi_array, cqi))
