"""The large-T kernels that fill their output in blocks of ``model._ROUND_BLOCK`` rounds.

Each kernel is compared byte for byte with the one-shot formula it replaced,
at T on both sides of the block edges, and its traced memory is pinned at
the CRB experiment's shape (T = 10000, d = 16, p = 4, complex).
"""

import numpy as np
import pytest

from pmichannel import crb, designs, likelihood, model
from conftest import qr_reference, ref_fisher, ref_lift, traced

EDGES = [1, 1023, 1024, 1025, 2049]


def test_block_size():
    assert model._ROUND_BLOCK == 1024


def _stack(T, d, p, complex_):
    return designs.haar_stiefel_stack(T, d, p, np.random.default_rng([T, d, p]), real=not complex_)


def _codebook(p, n, r, complex_):
    V = designs.haar_stiefel(p, n * r, np.random.default_rng([p, n, r]), real=not complex_)
    return model.Codebook(V=V, r=r)


@pytest.mark.parametrize("T", EDGES)
def test_haar_draw_matches_one_shot(T):
    shape = (T, 6, 3)
    rng, ref_rng = np.random.default_rng(T), np.random.default_rng(T)
    Q = designs.haar_stiefel_stack(*shape, rng)
    G = ref_rng.standard_normal(shape) + 1j * ref_rng.standard_normal(shape)
    assert Q.flags.c_contiguous and Q.tobytes() == qr_reference(G).tobytes()
    assert rng.random() == ref_rng.random()  # the stream is left at the same point


@pytest.mark.parametrize("T", EDGES)
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("r", [1, 2])
def test_lift_matches_one_shot(T, complex_, r):
    q, cb = _stack(T, 7, 4, complex_), _codebook(4, 4 // r, r, complex_)
    problem = model.EstimationProblem.from_arrays(q, np.zeros(T, dtype=int), cb, tau=0.5)
    A, ref = problem.effective_flat, ref_lift(q, cb.V)
    assert (A.dtype, A.shape) == (ref.dtype, ref.shape) and A.flags.c_contiguous
    assert A.tobytes() == ref.tobytes()


@pytest.mark.parametrize("T", EDGES)
@pytest.mark.parametrize("complex_", [False, True])
def test_fisher_matches_one_shot(T, complex_):
    rng = np.random.default_rng([T, complex_])
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    q, cb = _stack(T, 5, 3, complex_), _codebook(3, 3, 1, complex_)
    problem = model.simulate_problem(q, cb, h, 0.4, rng)
    assert crb.fisher(problem, h).F.tobytes() == ref_fisher(problem, h).tobytes()


class TestOrthonormalityCheck:
    """Q^H Q = I to 1e-10 in every entry, in every block; NaN fails."""

    @pytest.mark.parametrize("fault", [1 + 1e-6, np.nan])
    @pytest.mark.parametrize("at", [0, 1023, 1024, 2048])
    def test_design_refused_in_any_block(self, fault, at):
        q = _stack(2049, 5, 3, True)
        cb = _codebook(3, 3, 1, True)
        model.EstimationProblem.from_arrays(q, np.zeros(2049, dtype=int), cb, tau=0.5)
        q[at] *= fault
        with pytest.raises(ValueError, match="orthonormal"):
            model.EstimationProblem.from_arrays(q, np.zeros(2049, dtype=int), cb, tau=0.5)

    @pytest.mark.parametrize("scale, ok", [(1 + 2e-11, True), (1 + 1e-9, False), (1 + 1e-6, False)])
    def test_tolerance_is_absolute(self, scale, ok):
        # allclose's default rtol let the diagonal drift by 1e-5; the check no longer does.
        q = _stack(3, 5, 3, True) * scale
        cb = _codebook(3, 3, 1, True)
        B = designs.haar_stiefel(6, 2, np.random.default_rng(1)) * scale
        if ok:
            model.EstimationProblem.from_arrays(q, np.zeros(3, dtype=int), cb, tau=0.5)
            likelihood.SubspacePrior(B)
            return
        with pytest.raises(ValueError):
            model.EstimationProblem.from_arrays(q, np.zeros(3, dtype=int), cb, tau=0.5)
        with pytest.raises(ValueError):
            likelihood.SubspacePrior(B)

    def test_nan_prior_refused(self):
        B = designs.haar_stiefel(6, 2, np.random.default_rng(1))
        B[0, 0] = np.nan
        with pytest.raises(ValueError):
            likelihood.SubspacePrior(B)


class TestMemory:
    """Traced peaks at (T, d, p) = (10000, 16, 4), complex, against the array each stage builds."""

    SHAPE = (10000, 16, 4)

    def test_haar_draw(self):
        Q, peak = traced(lambda: designs.haar_stiefel_stack(*self.SHAPE, np.random.default_rng(0)))
        assert peak <= 2.6 * Q.nbytes

    def test_simulate_problem(self):
        q = designs.haar_stiefel_stack(*self.SHAPE, np.random.default_rng(0))
        h = np.random.default_rng(1).standard_normal(16) + 0j
        cb = designs.dft_codebook(4)
        _, peak = traced(lambda: model.simulate_problem(q, cb, h, 0.05, np.random.default_rng(2)))
        assert peak <= 1.4 * q.nbytes

    def test_fisher(self):
        q = designs.haar_stiefel_stack(*self.SHAPE, np.random.default_rng(0))
        h = np.random.default_rng(1).standard_normal(16) + 0j
        problem = model.simulate_problem(q, designs.dft_codebook(4), h, 0.05, np.random.default_rng(2))
        lift = problem.effective_flat
        _, peak = traced(lambda: crb.fisher(problem, h))
        assert peak <= 2.6 * lift.nbytes
