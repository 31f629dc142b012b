"""Monte-Carlo experiment drivers and deterministic CSV emission.

Every driver maps a (config, seed) pair to a list of result rows through
per-task RNG streams keyed by (seed, task indices), so output bytes do not
depend on worker count or execution order.
"""

from __future__ import annotations

import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import baselines, crb, designs, likelihood, metrics, model, theory
from .dataset import ChannelDataset, DatasetFormatError, read_dataset

__all__ = [
    "ExperimentResult",
    "FDD_METHODS",
    "InvalidOptionError",
    "run_crb_experiment",
    "run_fdd_experiment",
    "run_ablation",
    "run_theory_verification",
    "excess_risk_slope",
    "write_results_csv",
    "write_timings_csv",
    "summarize_crb",
    "summarize_fdd",
    "summarize_ablation",
    "write_summary_csv",
    "fit_inverse_t",
    "make_synthetic_dataset",
]

FDD_METHODS = ("two-stage", "spectral", "am", "subspace-pr", "mle", "subspace-mle")
_DESIGN_SCHEMES = ("haar-random", "structured-outer-inner")
_MLE_INITS = ("identity", "random", "spectral")


class InvalidOptionError(ValueError):
    """A driver option out of range, refused before any work starts."""


def _check_distinct(name: str, values: Sequence) -> None:
    if len(set(values)) < len(values):
        raise InvalidOptionError(f"repeated {name} in {list(values)}")


def _check_counts(**counts: int) -> None:
    for name, count in counts.items():
        if count < 1:
            raise InvalidOptionError(f"{name} must be at least 1, got {count}")


def _check_rounds(rounds: Sequence[int]) -> None:
    if not rounds or min(rounds) < 1:
        raise InvalidOptionError(f"every round count must be at least 1, got {list(rounds)}")
    _check_distinct("round count", rounds)


def _check_tau(taus: Sequence[float]) -> None:
    if not taus:
        raise InvalidOptionError("need at least one tau")
    bad = [t for t in taus if not 0 < t < math.inf]
    if bad:
        raise InvalidOptionError(f"tau must be positive and finite, got {bad[0]}")
    _check_distinct("tau", taus)


def _check_choice(name: str, values: Sequence[str], choices: Sequence[str]) -> None:
    if not values or not set(values) <= set(choices):
        raise InvalidOptionError(
            f"{name} must be chosen from {', '.join(choices)}, got {list(values)}"
        )
    _check_distinct(name, values)


def _reason(exc: Exception) -> str:
    """An exception's message; an OSError's without the file name it repeats."""
    return (exc.strerror if isinstance(exc, OSError) else None) or str(exc)


def _read_dataset(path: str) -> ChannelDataset:
    """``read_dataset``, refusing a missing, unreadable or malformed file as a bad option."""
    try:
        return read_dataset(path)
    except (OSError, DatasetFormatError) as exc:
        raise InvalidOptionError(f"dataset {path}: {_reason(exc)}") from exc


@dataclass(frozen=True)
class ExperimentResult:
    """One (method, T, trial, metric) record."""

    method: str
    T: int
    trial: int
    seed: int
    metric: str
    value: float
    wall_time: float


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _sorted_rows(rows: Iterable[ExperimentResult]) -> list:
    return sorted(rows, key=lambda r: (r.method, r.T, r.trial, r.metric))


def write_results_csv(rows: Iterable[ExperimentResult], path) -> None:
    """Deterministic per-row output; wall times go to a separate file."""
    lines = ["method,T,trial,seed,metric,value"]
    for r in _sorted_rows(rows):
        lines.append(f"{r.method},{r.T},{r.trial},{r.seed},{r.metric},{_fmt(r.value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_timings_csv(rows: Iterable[ExperimentResult], path) -> None:
    """Wall-time sidecar; excluded from the determinism guarantee."""
    lines = ["method,T,trial,metric,wall_time"]
    for r in _sorted_rows(rows):
        lines.append(f"{r.method},{r.T},{r.trial},{r.metric},{_fmt(r.wall_time)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _run_tasks(tasks: Sequence, fn: Callable, workers: int) -> list:
    """``[fn(t) for t in tasks]`` on ``workers`` threads, with BLAS at one thread.

    Worker threads each run their own GEMMs, so BLAS threads on top of them
    only oversubscribe the cores.  The cap holds for one worker too: a GEMM
    may round differently with more BLAS threads, and output bytes must not
    depend on the worker count.
    """
    with crb._single_threaded_blas():
        if workers <= 1:
            return [fn(t) for t in tasks]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))


def fit_inverse_t(t_values: np.ndarray, y_values: np.ndarray) -> float:
    """Least-squares coefficient of y ~ c / T (regression through the origin)."""
    x = 1.0 / np.asarray(t_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    return float(np.sum(x * y) / np.sum(x * x))


# ----------------------------------------------------------------------
# CRB experiment
# ----------------------------------------------------------------------

def _mle_trials(
    h: np.ndarray,
    codebook: model.Codebook,
    tau: float,
    radius: float,
    rounds: Sequence[int],
    trials: int,
    seed: int,
    max_iters: int,
    rel_tol: float,
    workers: int,
    score: Callable,
) -> list:
    """One spectral-start MLE per (T, trial) on a fresh Haar design.

    Designs are real exactly when h is; each trial draws its design and
    softmax feedback from the stream [seed, T, trial].  ``score(problem, x)``
    maps the problem and the estimate's first column to the trial's
    (method, metric, value) triples; every row carries the whole trial's
    wall time.
    """
    _check_rounds(rounds)
    _check_tau([tau])
    _check_counts(trials=trials, workers=workers)
    d, p = h.shape[0], codebook.p
    real = not np.iscomplexobj(h)
    cfg = likelihood.MleConfig(init="spectral", max_iters=max_iters, rel_tol=rel_tol)

    def task(key):
        T, trial = key
        t0 = time.perf_counter()
        rng = np.random.default_rng([seed, T, trial])
        qs = designs.haar_stiefel_stack(T, d, p, rng, real=real)
        problem = model.simulate_problem(qs, codebook, h, tau, rng, rule="softmax", radius=radius)
        del qs  # the problem keeps the lift, not the stack
        x_hat, _ = likelihood.solve_mle(problem, cfg)
        scores = score(problem, x_hat[:, 0])
        dt = time.perf_counter() - t0
        return [ExperimentResult(m, T, trial, seed, k, v, dt) for m, k, v in scores]

    keys = [(T, i) for T in rounds for i in range(trials)]
    return [row for chunk in _run_tasks(keys, task, workers) for row in chunk]


def run_crb_experiment(
    d: int = 16,
    p: int = 4,
    tau: float = 0.05,
    rounds: Sequence[int] = (2000, 5000, 10000),
    trials: int = 100,
    seed: int = 0,
    radius: float = 2.0,
    max_iters: int = 1000,
    rel_tol: float = 1e-9,
    workers: int = 1,
) -> list:
    """Phase-aligned MSE of the MLE against the trace CRB, per round count.

    A fixed unit-norm complex Gaussian channel is estimated from
    softmax-sampled PMI feedback over fresh Haar designs in every trial;
    the CRB is the trace pseudoinverse of the per-trial Fisher matrix.
    """
    if not 1 <= p <= d:
        raise InvalidOptionError(f"need 1 <= p <= d, got d={d}, p={p}")
    rng_h = np.random.default_rng([seed, 7])
    g = rng_h.standard_normal(d) + 1j * rng_h.standard_normal(d)
    h = g / np.linalg.norm(g)

    def score(problem, x):
        return [
            ("mle", "mse", metrics.phase_aligned_mse(x, h)),
            ("crb", "crb", crb.crb_trace(crb.fisher(problem, h))),
        ]

    return _mle_trials(
        h, designs.dft_codebook(p), tau, radius, rounds, trials, seed,
        max_iters, rel_tol, workers, score,
    )


def summarize_crb(rows: Sequence[ExperimentResult]) -> list:
    """Per-T mean MSE and mean CRB, sorted by T."""
    ts = sorted({r.T for r in rows})
    out = []
    for T in ts:
        mse = np.mean([r.value for r in rows if r.T == T and r.metric == "mse"])
        bound = np.mean([r.value for r in rows if r.T == T and r.metric == "crb"])
        out.append({"T": T, "mse": float(mse), "crb": float(bound)})
    return out


# ----------------------------------------------------------------------
# FDD-style comparison
# ----------------------------------------------------------------------

def _load_channels(
    dataset: Optional[str],
    n_samples: int,
    d: int,
    n_rx: int,
    paths: int,
    seed: int,
) -> list:
    """Per-sample (H, Sigma_ul) pairs from a dataset file or the ray model; needs >= 8 ports.

    A file's covariances must be Hermitian (to ``eigvecs_descending``'s
    tolerance) and positive semidefinite: smallest eigenvalue at least
    -1e-10 * max(1, largest).  The roundoff left is symmetrized away.
    """
    if dataset is not None:
        data = _read_dataset(dataset)
    else:
        data = make_synthetic_dataset(n_samples, d, n_rx, paths, seed)
    if data.d < designs.TYPE1_PORTS:
        raise InvalidOptionError(f"need at least {designs.TYPE1_PORTS} antenna ports, got {data.d}")
    if dataset is not None and data.covariances is not None:
        covs, tol = data.covariances, designs._HERM_TOL
        herm = np.isclose(covs, covs.conj().swapaxes(1, 2), atol=tol).all(axis=(1, 2))
        w = np.linalg.eigvalsh(covs)
        for s in range(len(covs)):
            if not herm[s] or w[s, 0] < -tol * max(1.0, w[s, -1]):
                kind = "positive semidefinite" if herm[s] else "Hermitian"
                raise InvalidOptionError(f"dataset {dataset}: covariance of sample {s} is not {kind}")
    out = []
    for s, H in enumerate(data.channels):
        if data.covariances is not None:
            Sigma = data.covariances[s]
        else:
            Sigma = H @ H.conj().T + 1e-8 * np.eye(H.shape[0])
        out.append((H, 0.5 * (Sigma + Sigma.conj().T)))
    return out


def _fdd_estimates(
    method: str, problems: list, priors: Sequence, r: int, rngs: list, init: Optional[str]
) -> Optional[list]:
    """Every sample's estimate of one (T, method) slice from one stacked call, or None where the
    method does not apply (two-stage past one round).  An MLE ``init`` of None is the method's own."""
    if method == "two-stage":
        return [baselines.two_stage_estimate(pb) for pb in problems] if problems[0].T == 1 else None
    if method == "spectral":
        return baselines.spectral_estimate(problems, r)
    if method == "am":
        cfg = baselines.BaselineConfig()
        if r == 1:
            solved = baselines.am_estimate_single(problems, cfg)
        else:
            solved = baselines.am_estimate_multi(problems, r, cfg, rngs)
    elif method == "subspace-pr":
        solved = baselines.subspace_pr_estimate(problems, priors, r)
    else:
        # With one round the likelihood is minimized along the reported
        # effective codeword, which the spectral start hits exactly;
        # identity-column starts have no gradient toward unseen directions.
        init = init or ("spectral" if problems[0].T == 1 or method == "mle" else "identity")
        cfg = likelihood.MleConfig(init=init, n_streams=r)
        solved = likelihood.solve_mle(problems, cfg, priors if method == "subspace-mle" else None)
    return [est for est, _ in solved]


# Samples per fdd task, whose estimates are solved as one stack per (T, method).
# The chunk, not the worker count, sets the stacks; results depend on neither.
# Solves spend their time in Python under the GIL, so wider stacks pay and threads
# do not: on a 2-vCPU VM 16 samples at r = 1 and 2 took 0.50 s in one chunk and 0.59 s
# (0.65 s on 2 workers) in chunks of 8, for a traced peak of 6.3 MB against 3.4 MB.
_FDD_CHUNK = 16
_FDD_RADIUS = 4.0  # the MLE's ball radius on every fdd problem


def run_fdd_experiment(
    d: int = 32,
    n_rx: int = 4,
    r: int = 1,
    tau: float = 1.0,
    rounds: Sequence[int] = (1, 5, 10, 20),
    n_samples: int = 100,
    paths: int = 4,
    scheme: str = "structured-outer-inner",
    methods: Sequence[str] = FDD_METHODS,
    seed: int = 0,
    dataset: Optional[str] = None,
    workers: int = 1,
    *,
    _variants: Sequence[tuple] = (),
) -> list:
    """Beam precision of every method versus the number of feedback rounds.

    PMIs follow the hard argmax rule on the full receive channel, with CQI
    (32-bit rounded) always attached for the magnitude-based baselines.  Designs
    start from the codebook-compatible first round and are nested, so every
    T-round problem is a prefix of one simulated max(rounds)-round history.  Their
    8-port basis (the top uplink eigenvectors) is the subspace prior, the MLE's
    radius is ``_FDD_RADIUS`` and the one DFT codebook is 8-port, so r must divide 8.

    A task takes ``_FDD_CHUNK`` (16) samples and makes one stacked call per
    (T, method) for every method, and one beam-precision call over the slice's
    estimates, so a row's wall time is its share of both.  Rows come in
    sample, T, method order.  The solves hold the GIL, so ``workers`` gains little
    (see ``_FDD_CHUNK``).  A ``dataset`` file sets the sample count, not ``n_samples``.
    ``run_ablation`` passes ``_variants`` of (label, method, tau, init) in place of
    ``methods``; a None tau is the run's own, a None init the method's own.
    """
    _check_rounds(rounds)
    _check_tau([tau])
    _check_counts(n_samples=n_samples, workers=workers)
    if r < 1 or designs.TYPE1_PORTS % r:
        raise InvalidOptionError(f"r must divide {designs.TYPE1_PORTS}, got {r}")
    _check_choice("design scheme", [scheme], _DESIGN_SCHEMES)
    _check_choice("method", methods, FDD_METHODS)
    variants = _variants or [(m, m, None, None) for m in methods]
    channels = _load_channels(dataset, n_samples, d, n_rx, paths, seed)
    t_max = max(rounds)
    cb = designs.dft_codebook(designs.TYPE1_PORTS, r)

    def prepare(sample_index: int) -> tuple:
        H, Sigma = channels[sample_index]
        rng = np.random.default_rng([seed, 4, sample_index])
        # One eigendecomposition serves the prior and every design round.
        U = designs.eigvecs_descending(Sigma, designs.TYPE1_PORTS)
        qs = designs._fdd_design(U, t_max, scheme == "haar-random", rng)
        history = model.simulate_problem(qs, cb, H, tau, rule="hard", attach_cqi=True, radius=_FDD_RADIUS)
        return history, likelihood.SubspacePrior(U), metrics._channel_svd(H)

    def task(chunk: range) -> list:
        histories, priors, svds = zip(*(prepare(i) for i in chunk))
        Us, ss = (np.stack(a) for a in zip(*svds))
        out = {i: [] for i in chunk}
        for T in rounds:
            problems = [history.prefix(T) for history in histories]
            for label, method, v_tau, v_init in variants:
                t0 = time.perf_counter()
                rngs = [np.random.default_rng([seed, 5, i, T]) for i in chunk] if method == "am" and r > 1 else None
                views = [h.prefix(T, v_tau) for h in histories] if v_tau is not None else problems
                ests = _fdd_estimates(method, views, priors, r, rngs, v_init)
                if ests is not None:
                    bps = metrics._beam_precision(np.stack(ests), Us, ss)
                    dt = (time.perf_counter() - t0) / len(chunk)
                    for i, bp in zip(chunk, bps):
                        out[i].append(ExperimentResult(label, T, i, seed, "beam_precision", bp, dt))
        return [row for i in chunk for row in out[i]]

    n = len(channels)
    chunks = [range(i, min(i + _FDD_CHUNK, n)) for i in range(0, n, _FDD_CHUNK)]
    return [row for rows in _run_tasks(chunks, task, workers) for row in rows]


def summarize_fdd(rows: Sequence[ExperimentResult]) -> list:
    """Mean and standard error of beam precision per (method, T)."""
    keys = sorted({(r.method, r.T) for r in rows if r.metric == "beam_precision"})
    out = []
    for method, T in keys:
        vals = np.array(
            [r.value for r in rows if r.method == method and r.T == T and r.metric == "beam_precision"]
        )
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        out.append(
            {
                "method": method,
                "T": T,
                "mean": float(np.mean(vals)),
                "stderr": se,
                "n": len(vals),
            }
        )
    return out


def write_summary_csv(records: Sequence[dict], path) -> None:
    if not records:
        Path(path).write_text("\n")
        return
    cols = list(records[0].keys())
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(_fmt(rec[c]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------

def run_ablation(
    kind: str,
    grid: Optional[Sequence] = None,
    rounds: Sequence[int] = (5, 10),
    n_samples: int = 50,
    seed: int = 0,
    workers: int = 1,
    **fdd_kwargs,
) -> list:
    """Improvement of the subspace MLE over the spectral method per grid point.

    kind="tau" sweeps the temperature; kind="init" compares identity, random
    and spectral starts.  The spectral reference and every grid point are
    variants of one ``run_fdd_experiment`` loop, which prepares each sample
    once; a variant's rows have the bytes of its own fdd run, since the hard
    PMI rule does not read tau.  ``fdd_kwargs`` go to that driver, except
    ``methods`` and the swept ``tau`` or ``init``, which are refused.
    """
    if kind not in ("tau", "init"):
        raise InvalidOptionError(f"ablation kind must be tau or init, got {kind!r}")
    clash = sorted({"methods", kind} & fdd_kwargs.keys())
    if clash:
        raise InvalidOptionError(f"the {kind} ablation sets {' and '.join(clash)} itself")
    if kind == "tau":
        grid = tuple(grid) if grid is not None else (0.1, 0.5, 1.0, 5.0, 10.0, 100.0)
        _check_tau([float(g) for g in grid])
        variants = [(f"subspace-mle[tau={g}]", "subspace-mle", float(g), None) for g in grid]
    else:
        grid = tuple(grid) if grid is not None else _MLE_INITS
        _check_choice("initialization", [str(g) for g in grid], _MLE_INITS)
        variants = [(f"subspace-mle[init={g}]", "subspace-mle", None, str(g)) for g in grid]
    run = dict(rounds=rounds, n_samples=n_samples, seed=seed, workers=workers, **fdd_kwargs)
    return run_fdd_experiment(**run, _variants=[("spectral", "spectral", None, None), *variants])


def summarize_ablation(rows: Sequence[ExperimentResult]) -> list:
    """Mean beam-precision improvement over the spectral method per variant and T."""
    summary = summarize_fdd(rows)
    spectral = {rec["T"]: rec["mean"] for rec in summary if rec["method"] == "spectral"}
    out = []
    for rec in summary:
        if rec["method"] == "spectral":
            continue
        out.append(
            {
                "method": rec["method"],
                "T": rec["T"],
                "improvement": rec["mean"] - spectral[rec["T"]],
                "mean": rec["mean"],
                "n": rec["n"],
            }
        )
    return out


# ----------------------------------------------------------------------
# Theory verification
# ----------------------------------------------------------------------

# How a check's value must compare with its threshold; the slope's rule is its
# band.  A rule's text has no comma: report.csv is written unquoted.
_SLOPE_BAND = "in [-1.15; -0.85]"
_PASS_RULES = {
    "<": operator.lt, "<=": operator.le, ">=": operator.ge,
    _SLOPE_BAND: lambda value, _: -1.15 <= value <= -0.85,
}


def _central_diff(f, x: np.ndarray, units: Sequence, h: float = 1e-6) -> list:
    """(f(x + h u e_i) - f(x - h u e_i)) / 2h along each coordinate e_i of the vector x, one array per unit u."""
    steps = h * np.eye(len(x), dtype=np.result_type(x, *units))
    return [np.array([(f(x + u * e) - f(x - u * e)) / (2 * h) for e in steps]) for u in units]


def _fd_gradient_realified(problem, x, h=1e-6):
    """Central finite differences of the NLL at a vector x in realified coordinates."""
    units = (1.0, 1j) if np.iscomplexobj(x) or problem.dtype is complex else (1.0,)
    diffs = _central_diff(lambda y: likelihood.nll(problem, y), np.asarray(x), units, h)
    return sum(u * diff for u, diff in zip(units, diffs))


def _random_problem(rng, d_hi, T, tau, complex_mode):
    """A softmax-feedback problem of random shape and its unit-norm channel.

    Draws d in [2, d_hi), p in [1, d], n in [2, p] (1 if p = 1) and, if T is
    None, T in [1, 4], then a Haar codebook, T Haar designs and the channel.
    """
    d = int(rng.integers(2, d_hi))
    p = int(rng.integers(1, d + 1))
    n = int(rng.integers(2, p + 1)) if p > 1 else 1
    T = int(rng.integers(1, 5)) if T is None else T
    cb = model.Codebook(V=designs.haar_stiefel(p, n, rng, real=not complex_mode))
    qs = designs.haar_stiefel_stack(T, d, p, rng, real=not complex_mode)
    x_true = rng.standard_normal(d) + 1j * rng.standard_normal(d) if complex_mode else rng.standard_normal(d)
    x_true /= np.linalg.norm(x_true)
    return model.simulate_problem(qs, cb, x_true, tau, rng, rule="softmax"), x_true


def excess_risk_slope(
    d: int = 6,
    p: int = 3,
    n_codewords: int = 3,
    tau: float = 0.5,
    radius: float = 2.0,
    t_grid: Sequence[int] = (250, 500, 1000, 2000, 4000),
    trials: int = 50,
    seed: int = 0,
    workers: int = 1,
    max_iters: int = 400,
    rel_tol: float = 1e-9,
) -> tuple[float, list]:
    """Log-log slope of the mean population excess risk of the MLE versus T.

    Real-valued certified design: Haar real reduction matrices with an
    orthonormal codebook.  The local theory predicts a slope of -1; ``t_grid`` needs two distinct T,
    and the codebook two codewords: with one, the excess risk is 0 at every T and has no slope.
    """
    if len(set(t_grid)) < 2:
        raise InvalidOptionError(f"a slope needs two or more distinct round counts, got {list(t_grid)}")
    if n_codewords < 2:
        raise InvalidOptionError(f"a slope needs two or more codewords, got n_codewords={n_codewords}")
    rng_h = np.random.default_rng([seed, 11])
    h = rng_h.standard_normal(d)
    h /= np.linalg.norm(h)

    def score(problem, x):
        return [("mle", "excess_risk", likelihood.population_excess_risk(problem, h, x))]

    rows = _mle_trials(
        h, designs.identity_codebook(p, n_codewords), tau, radius, t_grid, trials, seed,
        max_iters, rel_tol, workers, score,
    )
    means = [np.mean([r.value for r in rows if r.T == T]) for T in t_grid]
    slope = float(np.polyfit(np.log(np.asarray(t_grid, float)), np.log(means), 1)[0])
    return slope, rows


def run_theory_verification(
    seed: int = 0,
    moment_samples: int = 1_000_000,
    secant_samples: int = 100_000,
    slope_trials: int = 50,
    workers: int = 1,
    include_slope: bool = True,
) -> list:
    """Execute every analytic-identity check and report measured values.

    Returns records {check, value, threshold, passed, rule}: ``passed`` is
    the rule (``_PASS_RULES``) applied to the value and threshold, and the
    CLI maps any failure to a nonzero exit code.  A sample, trial or worker count below 1
    is refused before any check runs: with no samples a moment check has no
    deviation to report.  ``slope_trials`` is read, and checked, only with ``include_slope``.
    """
    slope = {"slope_trials": slope_trials} if include_slope else {}
    _check_counts(moment_samples=moment_samples, secant_samples=secant_samples, workers=workers, **slope)
    rng = np.random.default_rng([seed, 13])
    records = []

    def add(check: str, value: float, threshold: float, rule: str):
        value = float(value)
        passed = bool(_PASS_RULES[rule](value, threshold))
        records.append(dict(check=check, value=value, threshold=threshold, passed=passed, rule=rule))

    # Gauge and rotation equivariance over random designs.
    worst_gauge = worst_rot = 0.0
    for _ in range(100):
        problem, h = _random_problem(rng, 9, None, 0.7, True)
        worst_gauge = max(worst_gauge, crb.gauge_nullity(crb.fisher(problem, h)))
        worst_rot = max(worst_rot, crb.rotation_equivariance_check(problem, h, float(rng.uniform(0, 2 * np.pi))))
    add("gauge_nullity", worst_gauge, 1e-10, "<=")
    add("rotation_equivariance", worst_rot, 1e-10, "<=")

    # Gradient and Hessian against finite differences.
    worst_grad = worst_hess = 0.0
    for _ in range(10):
        cm = bool(rng.integers(0, 2))
        problem, _ = _random_problem(rng, 6, 3, 0.8, cm)
        x = rng.standard_normal(problem.d) + (1j * rng.standard_normal(problem.d) if cm else 0.0)
        x = 0.7 * x / np.linalg.norm(x)
        g, fd = likelihood.nll_gradient(problem, x), _fd_gradient_realified(problem, x)
        worst_grad = max(worst_grad, float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)))
        if not cm:
            H = likelihood.nll_hessian_real(problem, x)
            Hfd = _central_diff(lambda y: likelihood.nll_gradient(problem, y), x, (1.0,))[0]
            worst_hess = max(worst_hess, float(np.max(np.abs(H - 0.5 * (Hfd + Hfd.T)))))
    add("gradient_fd", worst_grad, 1e-6, "<")
    add("hessian_fd", worst_hess, 1e-5, "<")

    # Loss-equivalence and KL identities.
    worst_eq = worst_kl = 0.0
    for _ in range(25):
        cm = bool(rng.integers(0, 2))
        problem, h = _random_problem(rng, 6, 3, 0.6, cm)
        x = rng.standard_normal(problem.d) + (1j * rng.standard_normal(problem.d) if cm else 0.0)
        rhs = problem.tau * likelihood.nll(problem, x) - problem.tau * np.log(problem.n_codewords)
        worst_eq = max(worst_eq, abs(likelihood.relaxed_loss(problem, x) - rhs) / max(1.0, abs(rhs)))
        gx = model.all_gains(problem, x) / problem.tau
        gh = model.all_gains(problem, h) / problem.tau
        # The reference log-sum-exp is written out here, not taken from
        # `_row_lse`: `population_excess_risk` is built on `_row_lse`.
        mx, mh = gx.max(axis=1, keepdims=True), gh.max(axis=1, keepdims=True)
        lse_x = np.log(np.exp(gx - mx).sum(axis=1, keepdims=True)) + mx
        lse_h = np.log(np.exp(gh - mh).sum(axis=1, keepdims=True)) + mh
        enum = (model.softmax_pmf(problem, h) * ((lse_x - gx) - (lse_h - gh))).sum() / problem.T
        worst_kl = max(worst_kl, abs(likelihood.population_excess_risk(problem, h, x) - enum))
    add("loss_equivalence", worst_eq, 1e-10, "<=")
    add("kl_identity", worst_kl, 1e-12, "<=")

    # Probability floor certification on the ball of radius 1.5.
    ok = True
    for _ in range(100):
        problem, _ = _random_problem(rng, 7, 2, 0.7, False)
        x = rng.standard_normal(problem.d)
        x *= rng.uniform(0, 1.5) / np.linalg.norm(x)
        floor = theory.p_min_value(problem.n_codewords, 1.5, problem.tau)
        ok = ok and model.softmax_pmf(problem, x).min() >= floor
    add("p_min_floor", 1.0 if ok else 0.0, 1.0, ">=")

    # Moment identities.
    rep = theory.sphere_fourth_moment_check(5, moment_samples, np.random.default_rng([seed, 17]))
    add("sphere_fourth_moment", rep.max_dev_se, 4.0, "<=")
    rep2 = theory.secant_expectation_check(
        designs.identity_codebook(2, 2), 4, secant_samples, np.random.default_rng([seed, 19])
    )
    add("secant_expectation", rep2.max_dev_se, 4.0, "<=")

    # Secant certification on a Haar design.
    rng_s = np.random.default_rng([seed, 23])
    h = rng_s.standard_normal(6)
    h /= np.linalg.norm(h)
    qs = designs.haar_stiefel_stack(300, 6, 3, rng_s, real=True)
    sec = theory.certify_secant(qs, designs.identity_codebook(3, 3), h, trials=200, rng=rng_s)
    add("secant_operator_vs_kappa0", sec.operator_min, sec.kappa0_stated, ">=")
    add("secant_random_vs_operator", sec.random_min - sec.operator_min, -1e-8, ">=")

    # Rank-one distance bound sweep.
    ok = all(
        theory.rank1_distance_bound_check(rng.standard_normal(5), rng.standard_normal(5))
        for _ in range(10_000)
    )
    add("rank1_distance_bound", 1.0 if ok else 0.0, 1.0, ">=")

    if include_slope:
        slope, _ = excess_risk_slope(trials=slope_trials, seed=seed, workers=workers)
        add("excess_risk_slope", slope, -1.0, _SLOPE_BAND)
    return records


# ----------------------------------------------------------------------
# Dataset synthesis
# ----------------------------------------------------------------------

def make_synthetic_dataset(
    n_samples: int = 100, d: int = 32, n_rx: int = 4, paths: int = 4, seed: int = 0
) -> ChannelDataset:
    """Ray-model channels plus uplink covariances, ready for serialization."""
    _check_counts(n_samples=n_samples, d=d, n_rx=n_rx, paths=paths)
    chans = np.zeros((n_samples, d, n_rx), dtype=complex)
    covs = np.zeros((n_samples, d, d), dtype=complex)
    for s in range(n_samples):
        rng = np.random.default_rng([seed, 3, s])
        chans[s], covs[s] = designs.synthetic_channel(d, n_rx, paths, rng)
    return ChannelDataset(channels=chans, covariances=covs)
