"""Walk through the PMI feedback loop on a toy channel.

A base station with d antennas probes the channel through per-round
reduction matrices Q_t; the user reports the index of the codebook entry
with the largest effective gain.  This script shows the softmax relaxation
of that rule, how temperature controls its sharpness, and how a feedback
history is generated and consumed.
"""

import numpy as np

from pmichannel import designs, likelihood, metrics, model

rng = np.random.default_rng(0)
d, p, T, tau = 8, 4, 1000, 0.1

codebook = designs.dft_codebook(p)
print(f"codebook: {codebook.n_codewords} codewords in C^{p}, coherence {codebook.coherence:.2e}")

h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
h /= np.linalg.norm(h)

# One measurement round: Haar-random reduction followed by the hard rule.
Q = designs.haar_stiefel(d, p, rng)
probe = model.simulate_problem([Q], codebook, h, tau, rule="hard")
print("\nround 0 effective gains:", np.round(model.all_gains(probe, h)[0], 4))
print("hard PMI (argmax):", probe.pmi_array[0])

# softmax_pmf returns every round's pmf at once, shape (T, N).
for temp in (1.0, 0.3, 0.05):
    pm = model.EstimationProblem.from_arrays(probe.q_stack, probe.pmi_array, codebook, temp)
    print(f"softmax pmf at tau={temp}:", np.round(model.softmax_pmf(pm, h)[0], 3))

# A full feedback history drawn from the softmax model, then the MLE.
qs = designs.haar_stiefel_stack(T, d, p, rng)
problem = model.simulate_problem(qs, codebook, h, tau, rng, rule="softmax", radius=2.0)
print(f"\nsimulated {problem.T} rounds; first ten PMIs: {problem.pmi_array[:10].tolist()}")
pmf = model.softmax_pmf(problem, h)
print(f"softmax pmf of the whole history: shape {pmf.shape}; "
      f"mean probability of the reported PMI {pmf[np.arange(T), problem.pmi_array].mean():.3f}")
print(f"negative log-likelihood at the true channel: {likelihood.nll(problem, h):.4f}")
print(f"negative log-likelihood at zero:             {likelihood.nll(problem, np.zeros(d)):.4f}"
      f"  (= log N = {np.log(codebook.n_codewords):.4f})")

x_hat, report = likelihood.solve_mle(
    problem, likelihood.MleConfig(init="spectral", max_iters=300, rel_tol=1e-8)
)
print(f"\nMLE solve: {report.stop_reason} after {report.iterations} iterations, "
      f"nll {report.nll:.4f}")
print(f"phase-invariant distance to the truth: {metrics.dist(x_hat[:, 0], h):.4f}")
print(f"phase-aligned MSE:                     {metrics.phase_aligned_mse(x_hat[:, 0], h):.5f}")
