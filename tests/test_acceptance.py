"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; the heavy Monte-Carlo criteria use a small thread pool but stay
byte-deterministic.
"""

import time

import numpy as np
import pytest
from scipy.special import logsumexp

from pmichannel import (
    baselines,
    crb,
    designs,
    experiments,
    likelihood,
    metrics,
    model,
    theory,
)
from conftest import designed_problem, random_problem

WORKERS = 4


def _report(num, name, passed, detail, elapsed, limit=None):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} [{elapsed:.1f}s]")
    assert passed, f"criterion {num} ({name}): {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_gradient_and_hessian_fd():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_grad, worst_hess = 0.0, 0.0
    for trial in range(50):
        cm = trial % 2 == 0
        d = int(rng.integers(2, 7))
        p = int(rng.integers(2, d + 1))
        n = int(rng.integers(2, min(p, 5) + 1))
        T = int(rng.integers(1, 5))
        prob, _ = random_problem(rng, d=d, p=p, n=n, T=T, tau=0.8, complex_mode=cm)
        x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if cm else 0.0)
        x *= 0.8 / np.linalg.norm(x)
        g = likelihood.nll_gradient(prob, x)
        fd = experiments._fd_gradient_realified(prob, x)
        denom = max(np.linalg.norm(fd), 1e-9)
        worst_grad = max(worst_grad, float(np.linalg.norm(g - fd)) / denom)
        if not cm:
            H = likelihood.nll_hessian_real(prob, x)
            eps = 1e-6
            Hfd = np.zeros_like(H)
            for i in range(d):
                e = np.zeros(d)
                e[i] = eps
                Hfd[:, i] = (
                    likelihood.nll_gradient(prob, x + e)
                    - likelihood.nll_gradient(prob, x - e)
                ) / (2 * eps)
            worst_hess = max(worst_hess, float(np.max(np.abs(H - 0.5 * (Hfd + Hfd.T)))))
    elapsed = time.time() - t0
    ok = worst_grad < 1e-6 and worst_hess < 1e-5
    _report(
        1, "gradient correctness", ok,
        f"grad rel err {worst_grad:.2e} (<1e-6), hessian abs err {worst_hess:.2e} (<1e-5)",
        elapsed, limit=10.0,
    )


def test_criterion_2_gauge_and_equivariance():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_gauge, worst_rot = 0.0, 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        p = int(rng.integers(2, d + 1))
        n = int(rng.integers(2, p + 1))
        prob, h = random_problem(rng, d=d, p=p, n=n, T=int(rng.integers(1, 4)), tau=0.7)
        F = crb.fisher(prob, h)
        worst_gauge = max(worst_gauge, crb.gauge_nullity(F))
        phi = float(rng.uniform(0, 2 * np.pi))
        worst_rot = max(worst_rot, crb.rotation_equivariance_check(prob, h, phi))
    elapsed = time.time() - t0
    ok = worst_gauge <= 1e-10 and worst_rot <= 1e-10
    _report(
        2, "gauge and equivariance", ok,
        f"gauge {worst_gauge:.2e}, equivariance {worst_rot:.2e} (both <=1e-10)",
        elapsed, limit=10.0,
    )


def test_criterion_3_exact_crb_scaling():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(5):
        prob, h, q = designed_problem(rng, d=5, p=4, n=4, T=8)
        base = crb.crb_trace(crb.fisher(prob, h))
        for k in (2, 3, 5):
            rep = model.EstimationProblem.from_arrays(
                np.tile(q, (k, 1, 1)), np.tile(prob.pmi_array, k), prob.codebook, prob.tau
            )
            val = crb.crb_trace(crb.fisher(rep, h))
            worst = max(worst, abs(val - base / k) / (base / k))
    elapsed = time.time() - t0
    _report(
        3, "exact CRB scaling", worst <= 1e-10,
        f"max relative replication error {worst:.2e} (<=1e-10)", elapsed, limit=5.0,
    )


def test_criterion_4_crb_convergence():
    t0 = time.time()
    t_grid = (2000, 5000, 10000)
    rows = experiments.run_crb_experiment(
        d=16, p=4, tau=0.05, rounds=t_grid, trials=50, seed=0, radius=2.0,
        max_iters=1000, rel_tol=1e-9, workers=WORKERS,
    )
    summary = experiments.summarize_crb(rows)
    mse = np.array([rec["mse"] for rec in summary])
    bound = np.array([rec["crb"] for rec in summary])
    ratio = mse[-1] / bound[-1]
    slope = float(np.polyfit(np.log(t_grid), np.log(mse), 1)[0])
    elapsed = time.time() - t0
    ok = 0.8 <= ratio <= 1.6 and -1.2 <= slope <= -0.8
    _report(
        4, "CRB convergence", ok,
        f"mse/crb at T={t_grid[-1]}: {ratio:.3f} (in [0.8,1.6]), slope {slope:.3f} (in [-1.2,-0.8])",
        elapsed, limit=600.0,
    )


def test_criterion_5_kl_identity():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(30):
        prob, h = random_problem(rng, d=4, p=3, n=3, T=3, tau=0.6)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        risk = likelihood.population_excess_risk(prob, h, x)
        enum = 0.0
        pmf_h = model.softmax_pmf(prob, h)
        gains_x = model.all_gains(prob, x) / prob.tau
        gains_h = model.all_gains(prob, h) / prob.tau
        for t in range(prob.T):
            pmf, gx, gh = pmf_h[t], gains_x[t], gains_h[t]
            for i in range(3):
                enum += pmf[i] * (logsumexp(gx - gx[i]) - logsumexp(gh - gh[i]))
        worst = max(worst, abs(risk - enum / prob.T))
    elapsed = time.time() - t0
    _report(
        5, "KL identity", worst <= 1e-12,
        f"max |risk - enumeration| {worst:.2e} (<=1e-12)", elapsed, limit=1.0,
    )


def test_criterion_6_loss_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        cm = bool(rng.integers(0, 2))
        d = int(rng.integers(2, 6))
        p = int(rng.integers(2, d + 1))
        n = int(rng.integers(2, p + 1))
        tau = float(rng.uniform(0.1, 3.0))
        prob, _ = random_problem(rng, d=d, p=p, n=n, T=3, tau=tau, complex_mode=cm)
        x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if cm else 0.0)
        lhs = likelihood.relaxed_loss(prob, x)
        rhs = tau * likelihood.nll(prob, x) - tau * np.log(n)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    elapsed = time.time() - t0
    _report(
        6, "loss equivalence", worst <= 1e-10,
        f"max identity residual {worst:.2e} (<=1e-10)", elapsed, limit=1.0,
    )


def test_criterion_7_structural_baselines():
    t0 = time.time()
    worst_angle, worst_gap = 0.0, 0.0
    for r in (1, 2):
        cb = designs.dft_codebook(8, r)
        for s in range(6):
            rng = np.random.default_rng([707, r, s])
            H, Sigma = designs.synthetic_channel(32, 4, 4, rng)
            prior = likelihood.SubspacePrior(designs.eigvecs_descending(Sigma, 8))
            q1 = designs.type1_q1(Sigma)
            rounds = model.simulate_rounds([q1], cb, H, 1.0, rule="hard", attach_cqi=True)
            prob = model.EstimationProblem(tuple(rounds), cb, 1.0, radius=4.0)
            two = baselines.two_stage_estimate(prob)
            bp_two = metrics.beam_precision(two, H)
            spec = baselines.spectral_estimate(prob, r)
            qa, _ = np.linalg.qr(two)
            sin_angle = np.linalg.norm(spec - qa @ (qa.conj().T @ spec), 2)
            worst_angle = max(worst_angle, float(sin_angle))
            for prior_arg in (None, prior):
                est, _ = likelihood.solve_mle(
                    prob, likelihood.MleConfig(init="spectral", n_streams=r), prior_arg
                )
                worst_gap = max(worst_gap, abs(metrics.beam_precision(est, H) - bp_two))
    elapsed = time.time() - t0
    ok = worst_angle < 1e-6 and worst_gap < 1e-6
    _report(
        7, "structural baselines at T=1", ok,
        f"spectral angle {worst_angle:.2e} (<1e-6), MLE precision gap {worst_gap:.2e} (<1e-6)",
        elapsed, limit=30.0,
    )


def test_criterion_8_theory_constants():
    t0 = time.time()
    # Spot values from direct formula evaluation.
    spot_ok = (
        theory.kappa0_value(4, 6, 0.0, 0.5) == 0.5
        and abs(theory.p_min_value(2, 1.0, 1.0) - 1 / (1 + np.e)) < 1e-15
        and theory.p_min_value(1, 2.0, 0.3) == 1.0
    )
    tc = theory.theory_constants(N=4, d=6, mu=0.0, delta=0.5, R=1.5, tau=0.5, h_norm=1.0)
    bundle_ok = (
        tc.beta0 == tc.kappa0 * tc.p_min**2 / 0.25
        and tc.hessian_lipschitz == 48 * 1.5**3 / 0.5**3 + 24 * 1.5 / 0.5**2
    )
    rng = np.random.default_rng(808)
    floor_ok = True
    R = 1.3
    for _ in range(100):
        d = int(rng.integers(2, 7))
        p = int(rng.integers(2, d + 1))
        n = int(rng.integers(2, p + 1))
        prob, _ = random_problem(rng, d=d, p=p, n=n, T=2, tau=0.7, complex_mode=False)
        floor = theory.p_min_value(n, R, 0.7)
        x = rng.standard_normal(d)
        x *= rng.uniform(0, R) / np.linalg.norm(x)
        if model.softmax_pmf(prob, x).min() < floor:
            floor_ok = False
    elapsed = time.time() - t0
    ok = spot_ok and bundle_ok and floor_ok
    _report(
        8, "theory constants", ok,
        f"spot values {spot_ok}, bundle {bundle_ok}, probability floor on 100 draws {floor_ok}",
        elapsed, limit=10.0,
    )


def test_criterion_9_moment_identities():
    t0 = time.time()
    rep1 = theory.sphere_fourth_moment_check(5, 1_000_000, np.random.default_rng(909))
    rep2 = theory.secant_expectation_check(
        designs.identity_codebook(2, 2), 4, 100_000, np.random.default_rng(910)
    )
    elapsed = time.time() - t0
    ok = rep1.max_dev_se <= 4.0 and rep2.max_dev_se <= 4.0
    _report(
        9, "moment identities", ok,
        f"sphere dev {rep1.max_dev_se:.2f} se, secant dev {rep2.max_dev_se:.2f} se (both <=4)",
        elapsed, limit=120.0,
    )


def test_criterion_10_excess_risk_rate():
    t0 = time.time()
    # The design is certified before the rate is measured.
    rng = np.random.default_rng(1010)
    d, p, n, tau, radius = 6, 3, 3, 0.5, 2.0
    cb = designs.identity_codebook(p, n)
    h = np.random.default_rng([0, 11]).standard_normal(d)
    h /= np.linalg.norm(h)
    qs = designs.haar_stiefel_stack(200, d, p, rng, real=True)
    cert = theory.certify_secant(qs, cb, h, trials=50, rng=rng, radius=radius)
    slope, _ = experiments.excess_risk_slope(
        d=d, p=p, n_codewords=n, tau=tau, radius=radius,
        t_grid=(250, 500, 1000, 2000, 4000), trials=50, seed=0, workers=WORKERS,
    )
    elapsed = time.time() - t0
    ok = cert.operator_min > 0 and -1.15 <= slope <= -0.85
    _report(
        10, "excess-risk rate", ok,
        f"design curvature {cert.operator_min:.3f} (>0), slope {slope:.3f} (in [-1.15,-0.85])",
        elapsed, limit=600.0,
    )


def test_criterion_11_fdd_dominance():
    t0 = time.time()
    details = []
    ok = True
    for r in (1, 2):
        rows = experiments.run_fdd_experiment(
            r=r, rounds=(1, 5, 10), n_samples=40, seed=0,
            scheme="structured-outer-inner", workers=WORKERS,
        )
        summ = experiments.summarize_fdd(rows)
        mean = {(rec["method"], rec["T"]): rec["mean"] for rec in summ}
        for T in (5, 10):
            for m in ("mle", "subspace-mle"):
                if mean[(m, T)] < mean[("spectral", T)]:
                    ok = False
                    details.append(f"{m}@T={T},r={r} below spectral")
        for method in ("spectral", "am", "subspace-pr", "mle", "subspace-mle"):
            vals = [mean[(method, T)] for T in (1, 5, 10)]
            if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
                ok = False
                details.append(f"{method} not monotone for r={r}: {np.round(vals,3)}")
        details.append(
            f"r={r}: mle {mean[('mle',5)]:.3f}/{mean[('mle',10)]:.3f} vs "
            f"spectral {mean[('spectral',5)]:.3f}/{mean[('spectral',10)]:.3f}"
        )
    elapsed = time.time() - t0
    _report(11, "FDD dominance", ok, "; ".join(details), elapsed, limit=600.0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    kw = dict(rounds=(1, 4), n_samples=4, seed=11)
    files = {}
    for tag, wk in (("a", 1), ("b", 1), ("c", 4)):
        rows = experiments.run_fdd_experiment(workers=wk, **kw)
        path = tmp_path / f"{tag}.csv"
        experiments.write_results_csv(rows, path)
        files[tag] = path.read_bytes()
    crb_files = {}
    for tag, wk in (("a", 1), ("b", 3)):
        rows = experiments.run_crb_experiment(
            d=5, p=2, tau=0.3, rounds=(30,), trials=3, seed=5, radius=1.5,
            max_iters=30, rel_tol=1e-4, workers=wk,
        )
        path = tmp_path / f"crb_{tag}.csv"
        experiments.write_results_csv(rows, path)
        crb_files[tag] = path.read_bytes()
    elapsed = time.time() - t0
    ok = files["a"] == files["b"] == files["c"] and crb_files["a"] == crb_files["b"]
    _report(
        12, "determinism", ok,
        "byte-identical CSVs across repeated runs and 1 vs 4 worker threads",
        elapsed, limit=600.0,
    )


def test_criterion_12_fdd_chunk_boundaries(tmp_path, monkeypatch):
    # The fdd driver stacks every method's estimates over chunks of samples.
    # A run over one full chunk and a partial one must give the bytes, the
    # row order and every solve's path of the per-sample run (chunk 1) and of
    # the old chunk of 8, at any worker count, for single- (r = 1) and
    # multi-stream (r = 2) AM.
    n_samples = experiments._FDD_CHUNK + 3
    files, orders, paths = {}, {}, {}

    def recorded(tag, name, orig):
        def spy(problems, *args):
            solved = orig(problems, *args)
            for problem, (_, rep) in zip(problems, solved):
                if name == "solve_mle":
                    key = (problem.effective_flat.tobytes(), args[1] is None)
                    path = (rep.iterations, rep.stop_reason, rep.n_obj_evals, rep.n_grad_evals)
                else:
                    key = (problem.effective_flat.tobytes(), name)
                    path = (rep.iterations, rep.stop_reason, rep.degenerate, rep.variant)
                paths[tag][key] = path
            return solved
        return spy

    baseline_solvers = ("am_estimate_single", "am_estimate_multi", "subspace_pr_estimate")
    for r in (1, 2):
        kw = dict(rounds=(1, 4), n_samples=n_samples, seed=11, r=r)
        runs = [(f"w1-r{r}", 1, None), (f"w2-r{r}", 2, None), (f"w3-r{r}", 3, None),
                (f"per-sample-r{r}", 1, 1), (f"chunk8-r{r}", 1, 8)]
        for tag, workers, chunk in runs:
            if chunk is not None:
                monkeypatch.setattr(experiments, "_FDD_CHUNK", chunk)
            paths[tag] = {}
            monkeypatch.setattr(likelihood, "solve_mle", recorded(tag, "solve_mle", likelihood.solve_mle))
            for name in baseline_solvers:
                monkeypatch.setattr(baselines, name, recorded(tag, name, getattr(baselines, name)))
            rows = experiments.run_fdd_experiment(workers=workers, **kw)
            monkeypatch.undo()
            experiments.write_results_csv(rows, tmp_path / f"{tag}.csv")
            files[tag] = (tmp_path / f"{tag}.csv").read_bytes()
            orders[tag] = [(row.method, row.T, row.trial, row.metric, row.value) for row in rows]
        # Two MLEs, AM and subspace PR per sample and T.
        assert len(paths[f"w1-r{r}"]) == 4 * len(kw["rounds"]) * n_samples
        for tag, _, _ in runs[1:]:
            assert files[tag] == files[f"w1-r{r}"], tag
            assert orders[tag] == orders[f"w1-r{r}"], tag
            assert paths[tag] == paths[f"w1-r{r}"], tag
