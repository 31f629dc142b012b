"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Self times are per task: the summed self time of a layer's spans divided by
the replayed task count.  A layer that does not run on a workload reads 0.
Units and directions are declared in BENCHMARK.json; TABLE records which
end-to-end metric a change to the layer should move, and on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

TABLE = {
    "designs.haar_stiefel_stack.self_s": ("tasks_per_s", "crb; little on excess-risk"),
    "designs.structured_q.self_s": ("tasks_per_s", "fdd only"),
    "designs.type1_q1.self_s": ("tasks_per_s", "fdd only"),
    "model.simulate_problem.self_s": ("tasks_per_s", "crb, excess-risk"),
    "model.simulate_rounds.self_s": ("tasks_per_s", "fdd"),
    "model.EstimationProblem.self_s": ("tasks_per_s", "fdd"),
    "likelihood.solve_mle.self_s": ("tasks_per_s", "all three"),
    "likelihood.solve_mle.calls": ("tasks_per_s", "all three"),
    "likelihood.solve_mle.iters": ("tasks_per_s; guarded by crb_gap, slope_err, mle_beam_precision", "all three"),
    "likelihood.solve_mle.converged_frac": ("crb_gap, slope_err, mle_beam_precision", "all three"),
    "likelihood.solve_mle.numerical_failures": ("failed_frac", "all three"),
    "likelihood.nll.us_per_call": ("tasks_per_s", "crb (GEMM-bound); near zero on excess-risk"),
    "likelihood.nll_gradient.us_per_call": ("tasks_per_s", "crb (GEMM-bound); near zero on excess-risk"),
    "likelihood.nll.gflops_computed": ("tasks_per_s", "crb (GEMM-bound); near zero on excess-risk"),
    "likelihood.nll_gradient.gflops_computed": ("tasks_per_s", "crb (GEMM-bound); near zero on excess-risk"),
    "likelihood.nll.flops_computed": ("none: a count of the work per call", "all three"),
    "likelihood.nll.bytes_computed": ("none: a count of the work per call", "all three"),
    "likelihood.nll_gradient.flops_computed": ("none: a count of the work per call", "all three"),
    "likelihood.nll_gradient.bytes_computed": ("none: a count of the work per call", "all three"),
    "likelihood.population_excess_risk.self_s": ("tasks_per_s (small)", "excess-risk"),
    "theory.certify_secant.self_s": ("tasks_per_s (small)", "excess-risk"),
    "crb.fisher.self_s": ("tasks_per_s", "crb; no change predicted elsewhere"),
    "crb.crb_trace.self_s": ("tasks_per_s", "crb; no change predicted elsewhere"),
    "crb.crb_trace.identifiability_warnings": ("crb_gap", "crb"),
    "baselines.two_stage_estimate.self_s": ("tasks_per_s", "fdd only"),
    "baselines.spectral_estimate.self_s": ("tasks_per_s", "fdd only"),
    "baselines.am_estimate_single.self_s": ("tasks_per_s", "fdd only"),
    "baselines.am_estimate_multi.self_s": ("tasks_per_s", "fdd only"),
    "baselines.subspace_pr_estimate.self_s": ("tasks_per_s", "fdd only"),
    "baselines.am.iters": ("tasks_per_s", "fdd only"),
    "baselines.subspace_pr_estimate.iters": ("tasks_per_s", "fdd only"),
    "baselines.degenerate_warnings": ("failed_frac", "fdd only"),
    "baselines.degenerate_reports": ("failed_frac", "fdd only"),
    "baselines.numerical_failures": ("failed_frac", "fdd only"),
    "metrics.beam_precision.self_s": ("tasks_per_s (small)", "fdd"),
    "metrics.phase_aligned_mse.self_s": ("tasks_per_s (small)", "crb"),
    "dataset.read_dataset.self_s": ("setup_s, tasks_per_s", "fdd"),
    "experiments.cpu_per_wall": ("tasks_per_s", "crb; stays about 1 on the others"),
    "experiments.write_results_csv.self_s": ("tasks_per_s", "all three"),
    "experiments.write_results_csv.bytes": ("tasks_per_s", "all three"),
    "experiments.task.s_p50": ("tasks_per_s", "all three"),
    "experiments.task.s_p90": ("tasks_per_s", "all three"),
    "experiments.untraced_tasks_per_s": ("tasks_per_s", "all three"),
    "experiments.traced_tasks_per_s": ("none: the traced replay's rate", "all three"),
    "experiments.tracing_overhead": ("none: untraced over traced rate, minus 1", "all three"),
    "experiments.replay_mismatches": ("none: units whose replay differs from the driver", "all three"),
}

_SELF_TIMED = [name[: -len(".self_s")] for name in TABLE if name.endswith(".self_s")]


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _quantile(values, q: int) -> float:
    """The q-th percentile (q a multiple of 10) by statistics.quantiles."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def per_layer(rec, replays, replay_wall: float, workers: int, phase_a: dict) -> dict:
    """Every metric in TABLE, from the recorder's spans and the replays' probes.

    ``phase_a`` holds the untraced rate and CPU share of the same units, run
    through the public entry points just before the replay.
    """
    tasks = sum(r.tasks for r in replays)
    completed = tasks - sum(len(r.failed) for r in replays)
    self_time = rec.self_times()
    spans = defaultdict(list)
    for s in rec.spans:
        spans[s.name].append(s)

    def counts(names, key):
        return [s.counts[key] for n in names for s in spans[n]]

    def errors(names, exc):
        return sum(1 for n in names for s in spans[n] if s.error == exc)

    out = {f"{n}.self_s": sum(self_time[s.id] for s in spans[n]) / tasks for n in _SELF_TIMED}

    solve = ["likelihood.solve_mle"]
    base = [n for n in spans if n.startswith("baselines.")]
    out["likelihood.solve_mle.calls"] = len(spans["likelihood.solve_mle"]) / tasks
    out["likelihood.solve_mle.iters"] = _mean(counts(solve, "iters"))
    out["likelihood.solve_mle.converged_frac"] = _mean(counts(solve, "converged"))
    out["likelihood.solve_mle.numerical_failures"] = errors(solve, "NumericalFailureError")

    probes = [p for r in replays for p in r.probes]
    for layer, key in (("likelihood.nll", "nll"), ("likelihood.nll_gradient", "grad")):
        secs = [p[f"{key}_s"] for p in probes]
        flops = [p[f"{key}_flops"] for p in probes]
        out[f"{layer}.us_per_call"] = 1e6 * statistics.median(secs) if secs else 0.0
        out[f"{layer}.gflops_computed"] = sum(flops) / sum(secs) / 1e9 if secs else 0.0
        out[f"{layer}.flops_computed"] = _mean(flops)
        out[f"{layer}.bytes_computed"] = _mean(p[f"{key}_bytes"] for p in probes)

    out["crb.crb_trace.identifiability_warnings"] = sum(
        counts(["crb.crb_trace"], "IdentifiabilityWarning")
    )
    out["baselines.am.iters"] = _mean(
        counts(["baselines.am_estimate_single", "baselines.am_estimate_multi"], "iters")
    )
    out["baselines.subspace_pr_estimate.iters"] = _mean(
        counts(["baselines.subspace_pr_estimate"], "iters")
    )
    out["baselines.degenerate_warnings"] = sum(counts(base, "DegenerateEstimateWarning"))
    out["baselines.degenerate_reports"] = sum(counts(base, "degenerate"))
    out["baselines.numerical_failures"] = errors(base, "NumericalFailureError")

    task_s = [s.duration for s in spans["task"]]
    out["experiments.cpu_per_wall"] = phase_a["cpu_per_wall"]
    out["experiments.write_results_csv.bytes"] = sum(len(r.csv) for r in replays) / tasks
    out["experiments.task.s_p50"] = _quantile(task_s, 50)
    out["experiments.task.s_p90"] = _quantile(task_s, 90)

    # Probes run inside the replay but are not driver work; take them out.
    probe_s = sum(s.duration for s in spans["probe"])
    traced = completed / (replay_wall - probe_s / workers)
    untraced = phase_a["tasks_per_s"]
    out["experiments.untraced_tasks_per_s"] = untraced
    out["experiments.traced_tasks_per_s"] = traced
    out["experiments.tracing_overhead"] = untraced / traced - 1.0
    out["experiments.replay_mismatches"] = phase_a["replay_mismatches"]
    return out
