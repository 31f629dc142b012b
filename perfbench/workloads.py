"""The benchmark's workloads.

Each workload is a sequence of units.  A unit is one call of the public
entry point a user runs (the ``pmichannel`` CLI drivers, or
``certify_secant`` plus ``excess_risk_slope``), with a seed derived from the
workload seed.  ``call`` is the timed part; ``check`` parses and checks its
outputs afterwards.  ``replay`` re-runs the unit's task loop from this file,
with a span around every call into a pmichannel module, and returns the
same ``results.csv`` bytes the driver wrote, so the per-layer numbers are
measured from outside ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pmichannel import (
    baselines,
    cli,
    crb,
    designs,
    experiments,
    likelihood,
    metrics,
    model,
    theory,
)
from pmichannel.dataset import ChannelDataset, read_dataset, write_dataset

import checks


@dataclass
class Unit:
    index: int
    seed: int


@dataclass
class Outcome:
    """Checked outputs of one unit."""

    tasks: int
    failed: dict
    rows: list
    csv: bytes
    call_failed: bool = False


@dataclass
class Replay:
    """Outputs of one traced replay: the task count, failures and kernel probes."""

    tasks: int
    failed: dict
    csv: bytes
    probes: list = field(default_factory=list)


def run_cli(argv: list) -> None:
    """Call the CLI as a user would, keeping its progress lines off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"pmichannel {argv[0]} exited with code {code}")


def csv_bytes(rows: list, path: Path) -> bytes:
    experiments.write_results_csv(rows, path)
    return path.read_bytes()


def kernel_probe(problem: model.EstimationProblem, X: np.ndarray) -> dict:
    """Time ``nll`` and ``nll_gradient`` once at X.

    Operation and byte counts are computed from the shapes, not measured:
    with K = T*N*r projection columns, the value is one (K x d)(d x m) GEMM
    plus the gain and log-sum-exp reductions, and the gradient is two GEMMs
    plus the same reductions and the softmax weighting.  Bytes count each
    operand and intermediate once.
    """
    t0 = time.perf_counter()
    likelihood.nll(problem, X)
    t1 = time.perf_counter()
    likelihood.nll_gradient(problem, X)
    t2 = time.perf_counter()
    d, T, N = problem.d, problem.T, problem.n_codewords
    K = T * N * problem.codebook.r
    m = 1 if np.ndim(X) == 1 else np.shape(X)[1]
    cplx = np.iscomplexobj(problem.effective_flat)
    es, mac = (16, 8) if cplx else (8, 2)
    gemm = mac * K * d * m
    reduce = (3 if cplx else 1) * K * m + 4 * T * N
    return {
        "nll_s": t1 - t0,
        "grad_s": t2 - t1,
        "nll_flops": gemm + reduce,
        "grad_flops": 2 * gemm + reduce + 2 * K * m,
        "nll_bytes": es * (K * d + d * m + 2 * K * m) + 8 * T * N,
        "grad_bytes": es * (2 * K * d + 2 * d * m + 4 * K * m) + 16 * T * N,
    }


class Workload:
    """Shared state of a workload.

    Subclasses define ``tasks_per_unit`` and the methods ``setup()`` (inputs
    and one warm-up task), ``call(unit)`` (the timed public call),
    ``check(unit, raw) -> Outcome``, ``quality(rows) -> (figures, failures)``
    and ``replay(unit, recorder) -> Replay``.
    """

    name = ""
    workers = 1

    def __init__(self, seed: int, workdir: Path, nproc: int):
        self.seed = seed
        self.workdir = workdir

    def unit(self, index: int) -> Unit:
        return Unit(index, self.seed * 1000 + index)

    def _out(self, unit: Unit, tag: str = "") -> Path:
        return self.workdir / f"{self.name}-{unit.index}{tag}"


class CrbWorkload(Workload):
    """``crb-experiment`` at criterion 4's configuration, run on the thread pool."""

    name = "crb"
    D, P, TAU, ROUNDS, TRIALS = 16, 4, 0.05, (2000, 5000, 10000), 2
    # run_crb_experiment's defaults, which are criterion 4's values.
    RADIUS, MAX_ITERS, REL_TOL = 2.0, 1000, 1e-9
    tasks_per_unit = len(ROUNDS) * TRIALS

    def __init__(self, seed, workdir, nproc):
        super().__init__(seed, workdir, nproc)
        self.workers = min(2, nproc)

    def _argv(self, seed: int, rounds, trials: int, out: Path) -> list:
        return [
            "crb-experiment", "--d", str(self.D), "--p", str(self.P), "--tau", repr(self.TAU),
            "--rounds", ",".join(map(str, rounds)), "--trials", str(trials),
            "--seed", str(seed), "--out", str(out), "--workers", str(self.workers),
        ]

    def setup(self) -> None:
        # The channel is drawn inside the driver; the warm-up is one trial.
        run_cli(self._argv(self.seed * 1000 + 999, self.ROUNDS[:1], 1, self.workdir / "warmup"))

    def call(self, unit: Unit) -> Path:
        out = self._out(unit)
        run_cli(self._argv(unit.seed, self.ROUNDS, self.TRIALS, out))
        return out / "results.csv"

    def check(self, unit: Unit, raw: Path) -> Outcome:
        data = raw.read_bytes()
        rows = checks.parse_results_csv(data.decode())
        failed = checks.check_crb_rows(rows, self.ROUNDS, self.TRIALS)
        return Outcome(self.tasks_per_unit, failed, rows, data)

    def quality(self, rows: list) -> tuple[dict, list]:
        ratio = checks.crb_ratio(rows)
        return {"mse_over_crb": ratio, "crb_gap": abs(ratio - 1.0)}, checks.check_crb_ratio(ratio)

    def replay(self, unit: Unit, rec) -> Replay:
        seed = unit.seed
        cb = designs.dft_codebook(self.P)
        rng_h = np.random.default_rng([seed, 7])
        g = rng_h.standard_normal(self.D) + 1j * rng_h.standard_normal(self.D)
        h = g / np.linalg.norm(g)
        cfg = likelihood.MleConfig(init="spectral", max_iters=self.MAX_ITERS, rel_tol=self.REL_TOL)

        def task(key):
            T, trial = key
            tid = [seed, T, trial]
            try:
                with rec.span("task", tid):
                    t0 = time.perf_counter()
                    rng = np.random.default_rng([seed, T, trial])
                    with rec.span("designs.haar_stiefel_stack"):
                        qs = designs.haar_stiefel_stack(T, self.D, self.P, rng)
                    with rec.span("model.simulate_problem"):
                        problem = model.simulate_problem(
                            qs, cb, h, self.TAU, rng, rule="softmax", radius=self.RADIUS
                        )
                    with rec.span("likelihood.solve_mle") as s:
                        x_hat, report = likelihood.solve_mle(problem, cfg)
                        s.counts["iters"] = report.iterations
                        s.counts["converged"] = int(report.stop_reason == "converged")
                    with rec.span("metrics.phase_aligned_mse"):
                        mse = metrics.phase_aligned_mse(x_hat[:, 0], h)
                    with rec.span("crb.fisher"):
                        F = crb.fisher(problem, h)
                    with rec.span("crb.crb_trace"):
                        bound = crb.crb_trace(F)
                    dt = time.perf_counter() - t0
                with rec.span("probe", tid):
                    probe = kernel_probe(problem, x_hat)
                    reason = checks.check_nll_vs_truth(
                        likelihood.nll(problem, x_hat), likelihood.nll(problem, h)
                    ) or checks.check_gauge(crb.gauge_nullity(F))
            except Exception as exc:  # a failed task is counted, not fatal
                return key, [], None, f"{type(exc).__name__}: {exc}"
            rows = [
                experiments.ExperimentResult("mle", T, trial, seed, "mse", mse, dt),
                experiments.ExperimentResult("crb", T, trial, seed, "crb", bound, dt),
            ]
            return key, rows, probe, reason

        keys = [(T, i) for T in self.ROUNDS for i in range(self.TRIALS)]
        if self.workers <= 1:
            results = [task(k) for k in keys]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                results = list(pool.map(task, keys))
        rows = [r for _, chunk, _, _ in results for r in chunk]
        with rec.span("experiments.write_results_csv", [seed]):
            data = csv_bytes(rows, self._out(unit, "-replay.csv"))
        failed = {key: reason for key, _, _, reason in results if reason}
        probes = [p for _, _, p, _ in results if p is not None]
        return Replay(self.tasks_per_unit, failed, data, probes)


class FddWorkload(Workload):
    """``fdd-experiment`` over a dataset file, every method, r=1 then r=2."""

    name = "fdd"
    D, P, N_RX, PATHS, K = 32, 8, 4, 4, 8
    TAU, RADIUS, ROUNDS = 1.0, 4.0, (1, 5, 10, 20)
    SAMPLES = 16
    STREAMS = (1, 2)
    SCHEME = "structured-outer-inner"
    METHODS = experiments.FDD_METHODS
    tasks_per_unit = SAMPLES * len(STREAMS)

    def _argv(self, dataset: Path, r: int, seed: int, out: Path) -> list:
        return [
            "fdd-experiment", "--dataset", str(dataset), "--r", str(r), "--tau", repr(self.TAU),
            "--rounds", ",".join(map(str, self.ROUNDS)), "--scheme", self.SCHEME,
            "--methods", ",".join(self.METHODS), "--seed", str(seed), "--out", str(out),
            "--workers", "1",
        ]

    def setup(self) -> None:
        data = experiments.make_synthetic_dataset(
            self.SAMPLES, d=self.D, n_rx=self.N_RX, paths=self.PATHS, seed=self.seed
        )
        self.dataset = self.workdir / "channels.bin"
        write_dataset(self.dataset, data)
        warm = self.workdir / "warmup.bin"
        write_dataset(warm, ChannelDataset(data.channels[:1], data.covariances[:1]))
        for r in self.STREAMS:
            run_cli(self._argv(warm, r, self.seed * 1000 + 999, self.workdir / f"warmup-r{r}"))

    def call(self, unit: Unit) -> list:
        paths = []
        for r in self.STREAMS:
            out = self._out(unit, f"-r{r}")
            run_cli(self._argv(self.dataset, r, unit.seed, out))
            paths.append(out / "results.csv")
        return paths

    def check(self, unit: Unit, raw: list) -> Outcome:
        rows, failed, data = [], {}, b""
        for r, path in zip(self.STREAMS, raw):
            text = path.read_bytes()
            part = checks.parse_results_csv(text.decode())
            for s, reason in checks.check_fdd_rows(part, self.SAMPLES, self.ROUNDS, self.METHODS).items():
                failed[(r, s)] = reason
            rows += part
            data += text
        return Outcome(self.tasks_per_unit, failed, rows, data)

    def quality(self, rows: list) -> tuple[dict, list]:
        t_max = max(self.ROUNDS)
        vals = [r["value"] for r in rows if r["method"] == "mle" and r["T"] == t_max]
        return {"mle_beam_precision": float(np.mean(vals))}, []

    def _estimate(self, method, problem, prior, r, rng, rec):
        """The fdd driver's per-method dispatch, with a span on each estimator."""
        if method == "two-stage":
            if problem.T != 1:
                return None
            with rec.span("baselines.two_stage_estimate"):
                return baselines.two_stage_estimate(problem)
        if method == "spectral":
            with rec.span("baselines.spectral_estimate"):
                return baselines.spectral_estimate(problem, r)
        if method == "am":
            cfg = baselines.BaselineConfig(lambda_am=None)
            name = "am_estimate_single" if r == 1 else "am_estimate_multi"
            with rec.span(f"baselines.{name}") as s:
                if r == 1:
                    est, report = baselines.am_estimate_single(problem, cfg)
                else:
                    est, report = baselines.am_estimate_multi(problem, r, cfg, rng)
                s.counts["iters"] = report.iterations
                s.counts["degenerate"] = int(report.degenerate)
            return est
        if method == "subspace-pr":
            with rec.span("baselines.subspace_pr_estimate") as s:
                est, report = baselines.subspace_pr_estimate(problem, prior, r)
                s.counts["iters"] = report.iterations
                s.counts["degenerate"] = int(report.degenerate)
            return est
        init = "spectral" if problem.T == 1 or method == "mle" else "identity"
        cfg = likelihood.MleConfig(init=init, n_streams=r)
        with rec.span("likelihood.solve_mle") as s:
            est, report = likelihood.solve_mle(
                problem, cfg, prior if method == "subspace-mle" else None
            )
            s.counts["iters"] = report.iterations
            s.counts["converged"] = int(report.stop_reason == "converged")
        return est

    def replay(self, unit: Unit, rec) -> Replay:
        seed, t_max = unit.seed, max(self.ROUNDS)
        failed, probes, data = {}, [], b""
        for r in self.STREAMS:
            with rec.span("dataset.read_dataset", [seed, r]):
                ds = read_dataset(self.dataset)
            cb = designs.dft_codebook(self.P, r)
            rows = []
            for i in range(ds.n_samples):
                tid = [seed, r, i]
                try:
                    with rec.span("task", tid):
                        H = ds.channels[i]
                        Sigma = ds.covariances[i]
                        Sigma = 0.5 * (Sigma + Sigma.conj().T)
                        rng = np.random.default_rng([seed, 4, i])
                        prior = likelihood.SubspacePrior(designs.eigvecs_descending(Sigma, self.K))
                        with rec.span("designs.type1_q1"):
                            qs = [designs.type1_q1(Sigma)]
                        for _ in range(1, t_max):
                            with rec.span("designs.structured_q"):
                                qs.append(designs.structured_q(Sigma, self.P, rng))
                        with rec.span("model.simulate_rounds"):
                            all_rounds = model.simulate_rounds(
                                qs, cb, H, self.TAU, rule="hard", attach_cqi=True
                            )
                        problems = []
                        for T in self.ROUNDS:
                            with rec.span("model.EstimationProblem"):
                                problem = model.EstimationProblem(
                                    tuple(all_rounds[:T]), cb, self.TAU, radius=self.RADIUS
                                )
                            for method in self.METHODS:
                                rng_m = np.random.default_rng([seed, 5, i, T])
                                t0 = time.perf_counter()
                                est = self._estimate(method, problem, prior, r, rng_m, rec)
                                if est is None:
                                    continue
                                with rec.span("metrics.beam_precision"):
                                    bp = metrics.beam_precision(est, H)
                                rows.append(
                                    experiments.ExperimentResult(
                                        method, T, i, seed, "beam_precision", bp,
                                        time.perf_counter() - t0,
                                    )
                                )
                                if method == "mle":
                                    problems.append((problem, est))
                    with rec.span("probe", tid):
                        probes += [kernel_probe(p, x) for p, x in problems]
                except Exception as exc:  # a failed task is counted, not fatal
                    failed[(r, i)] = f"{type(exc).__name__}: {exc}"
            with rec.span("experiments.write_results_csv", [seed, r]):
                data += csv_bytes(rows, self._out(unit, f"-r{r}-replay.csv"))
        return Replay(self.tasks_per_unit, failed, data, probes)


class ExcessRiskWorkload(Workload):
    """``certify_secant`` on criterion 10's design, then ``excess_risk_slope``."""

    name = "excess-risk"
    D, P, N, TAU, RADIUS = 6, 3, 3, 0.5, 2.0
    T_GRID = (250, 500, 1000, 2000, 4000)
    TRIALS = 2
    CERT_ROUNDS, CERT_TRIALS = 200, 50
    # excess_risk_slope's defaults.
    MAX_ITERS, REL_TOL = 400, 1e-9
    tasks_per_unit = len(T_GRID) * TRIALS

    def _truth(self, seed: int) -> np.ndarray:
        h = np.random.default_rng([seed, 11]).standard_normal(self.D)
        return h / np.linalg.norm(h)

    def _certify(self, seed: int):
        rng = np.random.default_rng([seed, 1010])
        cb = designs.identity_codebook(self.P, self.N)
        qs = designs.haar_stiefel_stack(self.CERT_ROUNDS, self.D, self.P, rng, real=True)
        return theory.certify_secant(
            qs, cb, self._truth(seed), trials=self.CERT_TRIALS, rng=rng, radius=self.RADIUS
        )

    def _slope(self, seed: int, t_grid, trials: int):
        return experiments.excess_risk_slope(
            d=self.D, p=self.P, n_codewords=self.N, tau=self.TAU, radius=self.RADIUS,
            t_grid=t_grid, trials=trials, seed=seed, workers=1,
        )

    def setup(self) -> None:
        self._certify(self.seed * 1000 + 999)
        self._slope(self.seed * 1000 + 999, self.T_GRID[:2], 1)

    def call(self, unit: Unit):
        cert = self._certify(unit.seed)
        _, rows = self._slope(unit.seed, self.T_GRID, self.TRIALS)
        return cert, rows

    def check(self, unit: Unit, raw) -> Outcome:
        cert, results = raw
        data = csv_bytes(results, self._out(unit, ".csv"))
        rows = checks.parse_results_csv(data.decode())
        failed = checks.check_excess_rows(rows, self.T_GRID, self.TRIALS)
        reason = checks.check_certificate(cert.operator_min)
        if reason:
            failed = {(T, i): reason for T in self.T_GRID for i in range(self.TRIALS)}
        return Outcome(self.tasks_per_unit, failed, rows, data)

    def quality(self, rows: list) -> tuple[dict, list]:
        slope = checks.excess_slope(rows)
        return {"slope": slope, "slope_err": abs(slope + 1.0)}, checks.check_slope(slope)

    def replay(self, unit: Unit, rec) -> Replay:
        seed = unit.seed
        keys = [(T, i) for T in self.T_GRID for i in range(self.TRIALS)]
        with rec.span("certify", [seed]):
            rng = np.random.default_rng([seed, 1010])
            cb = designs.identity_codebook(self.P, self.N)
            with rec.span("designs.haar_stiefel_stack"):
                qs = designs.haar_stiefel_stack(self.CERT_ROUNDS, self.D, self.P, rng, real=True)
            with rec.span("theory.certify_secant"):
                cert = theory.certify_secant(
                    qs, cb, self._truth(seed), trials=self.CERT_TRIALS, rng=rng, radius=self.RADIUS
                )
        reason = checks.check_certificate(cert.operator_min)
        h = self._truth(seed)
        cfg = likelihood.MleConfig(init="spectral", max_iters=self.MAX_ITERS, rel_tol=self.REL_TOL)
        rows, failed, probes = [], {}, []
        for T, trial in keys:
            tid = [seed, T, trial]
            try:
                with rec.span("task", tid):
                    t0 = time.perf_counter()
                    rng = np.random.default_rng([seed, T, trial])
                    with rec.span("designs.haar_stiefel_stack"):
                        qs = designs.haar_stiefel_stack(T, self.D, self.P, rng, real=True)
                    with rec.span("model.simulate_problem"):
                        problem = model.simulate_problem(
                            qs, cb, h, self.TAU, rng, rule="softmax", radius=self.RADIUS
                        )
                    with rec.span("likelihood.solve_mle") as s:
                        x_hat, report = likelihood.solve_mle(problem, cfg)
                        s.counts["iters"] = report.iterations
                        s.counts["converged"] = int(report.stop_reason == "converged")
                    with rec.span("likelihood.population_excess_risk"):
                        risk = likelihood.population_excess_risk(problem, h, x_hat[:, 0])
                    dt = time.perf_counter() - t0
                rows.append(
                    experiments.ExperimentResult("mle", T, trial, seed, "excess_risk", risk, dt)
                )
                with rec.span("probe", tid):
                    probes.append(kernel_probe(problem, x_hat))
                    task_reason = reason or checks.check_nll_vs_truth(
                        likelihood.nll(problem, x_hat), likelihood.nll(problem, h)
                    )
                if task_reason:
                    failed[(T, trial)] = task_reason
            except Exception as exc:  # a failed task is counted, not fatal
                failed[(T, trial)] = f"{type(exc).__name__}: {exc}"
        with rec.span("experiments.write_results_csv", [seed]):
            data = csv_bytes(rows, self._out(unit, "-replay.csv"))
        return Replay(self.tasks_per_unit, failed, data, probes)


WORKLOADS = {w.name: w for w in (CrbWorkload, FddWorkload, ExcessRiskWorkload)}
