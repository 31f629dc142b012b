"""Downlink channel estimation from PMI-only codebook feedback.

The package models the limited-feedback loop of an FDD system (codebook,
per-round reduction matrices, reported indices), provides the constrained
maximum-likelihood estimator for the softmax feedback model together with
its Fisher-information / Cramer-Rao machinery, several baseline estimators,
and deterministic Monte-Carlo experiment drivers.
"""

from .baselines import (
    BaselineConfig,
    am_estimate_multi,
    am_estimate_single,
    spectral_estimate,
    subspace_pr_estimate,
    two_stage_estimate,
)
from .crb import (
    FisherMatrix,
    crb_trace,
    fisher,
    gauge_nullity,
    realify,
    rotation_equivariance_check,
)
from .dataset import ChannelDataset, read_dataset, write_dataset
from .designs import (
    UplinkCovariance,
    dft_codebook,
    haar_stiefel,
    haar_stiefel_stack,
    identity_codebook,
    structured_q,
    synthetic_channel,
    type1_q1,
)
from .likelihood import (
    MleConfig,
    SubspacePrior,
    nll,
    nll_gradient,
    nll_hessian_real,
    population_excess_risk,
    relaxed_loss,
    solve_mle,
)
from .metrics import beam_precision, dist, phase_aligned_mse
from .model import (
    Channel,
    Codebook,
    EstimationProblem,
    FeedbackRound,
    simulate_problem,
    simulate_rounds,
    softmax_pmf,
)
from .theory import (
    TheoryConstants,
    beta0_value,
    certify_secant,
    hessian_smoothness,
    kappa0_value,
    p_min_value,
    rank1_distance_bound_check,
    secant_expectation_check,
    sphere_fourth_moment_check,
    theory_constants,
)

__version__ = "0.1.0"
