"""Output checks that hold for any seed, and a self-test that corrupts outputs.

Every check is a property of the model, not a golden value.  A call-level
check takes the rows of one driver call, as dicts with the columns of
``results.csv``, and returns {task key: reason} for the tasks whose outputs
fail; an empty dict means every task passed.  The run-level checks return a
list of reasons.  ``python3 perfbench/checks.py`` runs the self-test.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

# Loose sanity bands.  Over seeds 0-3 at the benchmark's sizes, mse/crb at
# the largest T ran 0.96-1.21 and the excess-risk slope -1.11 to -0.90.
CRB_RATIO_BAND = (0.5, 2.0)
SLOPE_BAND = (-1.5, -0.5)
CRB_SCALED_BAND = (0.5, 2.0)
# At T=1 the MLE's spectral start is the two-stage beam (criterion 7).
T1_GAP_TOL = 1e-6
GAUGE_TOL = 1e-10
# Rounding slack for quantities that are exact in real arithmetic.
ROUNDING = 1e-12

CSV_HEADER = ["method", "T", "trial", "seed", "metric", "value"]


def parse_results_csv(text: str) -> list:
    """Rows of a ``results.csv`` as dicts; raises ValueError on a bad layout."""
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",") != CSV_HEADER:
        raise ValueError("results.csv has an unexpected header")
    rows = []
    for line in lines[1:]:
        method, T, trial, seed, metric, value = line.split(",")
        rows.append(
            {"method": method, "T": int(T), "trial": int(trial), "seed": int(seed),
             "metric": metric, "value": float(value)}
        )
    return rows


def _all(keys, reason: str) -> dict:
    return {k: reason for k in keys}


def check_crb_rows(rows: list, rounds, trials: int) -> dict:
    """One mse and one crb row per (T, trial); both finite, mse >= 0, crb > 0,
    and T*crb close to the other trials of the call."""
    keys = [(T, i) for T in rounds for i in range(trials)]
    if len(rows) != 2 * len(keys):
        return _all(keys, f"{len(rows)} rows, expected {2 * len(keys)}")
    got = defaultdict(dict)
    for r in rows:
        got[(r["T"], r["trial"])][(r["method"], r["metric"])] = r["value"]
    failed = {}
    for k in keys:
        mse, bound = got[k].get(("mle", "mse")), got[k].get(("crb", "crb"))
        if mse is None or bound is None:
            failed[k] = "missing mse or crb row"
        elif not (math.isfinite(mse) and mse >= 0):
            failed[k] = f"mse {mse!r}"
        elif not (math.isfinite(bound) and bound > 0):
            failed[k] = f"crb {bound!r}"
    # The Fisher matrix sums T independent rounds, so T*crb concentrates: over
    # seeds it stayed within 1% of the call's median at d=16, p=4.
    scaled = {k: k[0] * got[k][("crb", "crb")] for k in keys if k not in failed}
    if scaled:
        mid = float(np.median(list(scaled.values())))
        lo, hi = CRB_SCALED_BAND
        for k, v in scaled.items():
            if not lo * mid <= v <= hi * mid:
                failed[k] = f"T*crb {v:.4g} is not within [{lo}, {hi}] x the call's median {mid:.4g}"
    return failed


def fdd_rows_per_sample(rounds, methods) -> int:
    """The two-stage method answers only at T=1; every other method at every T."""
    return sum(1 for T in rounds for m in methods if m != "two-stage" or T == 1)


def check_fdd_rows(rows: list, n_samples: int, rounds, methods) -> dict:
    """Beam precisions finite in [0, 1]; at T=1 mle and subspace-mle equal two-stage."""
    per_sample = fdd_rows_per_sample(rounds, methods)
    keys = list(range(n_samples))
    if len(rows) != per_sample * n_samples:
        return _all(keys, f"{len(rows)} rows, expected {per_sample * n_samples}")
    got = defaultdict(dict)
    for r in rows:
        got[r["trial"]][(r["method"], r["T"])] = (r["metric"], r["value"])
    failed = {}
    for s in keys:
        vals = got[s]
        if len(vals) != per_sample:
            failed[s] = f"{len(vals)} rows, expected {per_sample}"
            continue
        bad = [
            (m, T, v) for (m, T), (metric, v) in vals.items()
            if metric != "beam_precision" or not (-ROUNDING <= v <= 1 + ROUNDING)
        ]
        if bad:
            failed[s] = f"beam precision out of [0, 1]: {bad[0]}"
            continue
        if "two-stage" in methods and min(rounds) == 1:
            two = vals[("two-stage", 1)][1]
            for m in ("mle", "subspace-mle"):
                if (m, 1) in vals and abs(vals[(m, 1)][1] - two) > T1_GAP_TOL:
                    failed[s] = f"{m} differs from two-stage at T=1 by {abs(vals[(m, 1)][1] - two):.3g}"
    return failed


def check_excess_rows(rows: list, t_grid, trials: int) -> dict:
    """One finite, nonnegative excess risk per (T, trial)."""
    keys = [(T, i) for T in t_grid for i in range(trials)]
    if len(rows) != len(keys):
        return _all(keys, f"{len(rows)} rows, expected {len(keys)}")
    got = {(r["T"], r["trial"]): r["value"] for r in rows if r["metric"] == "excess_risk"}
    failed = {}
    for k in keys:
        v = got.get(k)
        if v is None or not (math.isfinite(v) and v >= 0):
            failed[k] = f"excess risk {v!r}"
    return failed


def crb_ratio(rows: list) -> float:
    """Mean mse over mean crb at the largest T."""
    t_max = max(r["T"] for r in rows)
    mse = np.mean([r["value"] for r in rows if r["T"] == t_max and r["metric"] == "mse"])
    bound = np.mean([r["value"] for r in rows if r["T"] == t_max and r["metric"] == "crb"])
    return float(mse / bound)


def excess_slope(rows: list) -> float:
    """Log-log slope of the mean excess risk against T, as the driver fits it."""
    t_grid = sorted({r["T"] for r in rows})
    means = [np.mean([r["value"] for r in rows if r["T"] == T]) for T in t_grid]
    return float(np.polyfit(np.log(np.asarray(t_grid, float)), np.log(means), 1)[0])


def check_crb_ratio(ratio: float) -> list:
    lo, hi = CRB_RATIO_BAND
    return [] if lo <= ratio <= hi else [f"mse/crb {ratio:.4g} outside [{lo}, {hi}]"]


def check_slope(slope: float) -> list:
    lo, hi = SLOPE_BAND
    return [] if lo <= slope <= hi else [f"excess-risk slope {slope:.4g} outside [{lo}, {hi}]"]


def check_nll_vs_truth(nll_hat: float, nll_true: float) -> str:
    """The constrained MLE fits the observed feedback at least as well as the truth."""
    if math.isfinite(nll_hat) and nll_hat <= nll_true + ROUNDING * max(1.0, abs(nll_true)):
        return ""
    return f"nll(x_hat) {nll_hat!r} > nll(h) {nll_true!r}"


def check_gauge(nullity: float) -> str:
    return "" if nullity <= GAUGE_TOL else f"gauge nullity {nullity:.3g} > {GAUGE_TOL}"


def check_certificate(operator_min: float) -> str:
    return "" if operator_min > 0 else f"secant operator minimum {operator_min:.3g} <= 0"


def self_test() -> list:
    """Feed every check a valid output and a corrupted one.

    Returns one message per check that rejected the valid output or
    accepted a corrupted one; an empty list means every check works.
    """
    problems = []

    def expect(name, on_valid, on_corrupt):
        if on_valid:
            problems.append(f"{name}: rejected a valid output ({on_valid})")
        if not on_corrupt:
            problems.append(f"{name}: accepted a corrupted output")

    def with_value(rows, index, value):
        out = [dict(r) for r in rows]
        out[index]["value"] = value
        return out

    rounds, trials = (20, 50), 2
    crb_rows = [
        {"method": m, "T": T, "trial": i, "seed": 0, "metric": metric, "value": 1.0 / T}
        for T in rounds for i in range(trials) for m, metric in (("mle", "mse"), ("crb", "crb"))
    ]
    ok = check_crb_rows(crb_rows, rounds, trials)
    expect("crb finite mse", ok, check_crb_rows(with_value(crb_rows, 0, math.nan), rounds, trials))
    expect("crb finite bound", ok, check_crb_rows(with_value(crb_rows, 1, math.inf), rounds, trials))
    expect("crb nonnegative mse", ok, check_crb_rows(with_value(crb_rows, 2, -1e-3), rounds, trials))
    expect("crb row count", ok, check_crb_rows(crb_rows[:-1], rounds, trials))
    expect("crb scales as 1/T", ok, check_crb_rows(with_value(crb_rows, 1, 1e6), rounds, trials))
    expect("crb ratio band", check_crb_ratio(crb_ratio(crb_rows)), check_crb_ratio(3.0))
    expect("crb ratio band (low)", check_crb_ratio(1.0), check_crb_ratio(0.2))

    methods = ("two-stage", "spectral", "mle", "subspace-mle")
    fdd_rounds, n_samples = (1, 5), 2
    fdd_rows = [
        {"method": m, "T": T, "trial": s, "seed": 0, "metric": "beam_precision",
         "value": 0.5 if T == 1 else 0.9}
        for s in range(n_samples) for T in fdd_rounds for m in methods
        if m != "two-stage" or T == 1
    ]
    ok = check_fdd_rows(fdd_rows, n_samples, fdd_rounds, methods)
    expect("fdd finite precision", ok,
           check_fdd_rows(with_value(fdd_rows, 5, math.nan), n_samples, fdd_rounds, methods))
    expect("fdd precision above 1", ok,
           check_fdd_rows(with_value(fdd_rows, 5, 1.5), n_samples, fdd_rounds, methods))
    expect("fdd precision below 0", ok,
           check_fdd_rows(with_value(fdd_rows, 5, -0.1), n_samples, fdd_rounds, methods))
    expect("fdd row count", ok, check_fdd_rows(fdd_rows[:-1], n_samples, fdd_rounds, methods))
    i_mle = next(i for i, r in enumerate(fdd_rows) if r["method"] == "mle" and r["T"] == 1)
    expect("fdd T=1 equals two-stage", ok,
           check_fdd_rows(with_value(fdd_rows, i_mle, 0.5 + 1e-3), n_samples, fdd_rounds, methods))

    t_grid = (250, 500, 1000)
    ex_rows = [
        {"method": "mle", "T": T, "trial": i, "seed": 0, "metric": "excess_risk", "value": 2.0 / T}
        for T in t_grid for i in range(trials)
    ]
    ok = check_excess_rows(ex_rows, t_grid, trials)
    expect("excess finite risk", ok, check_excess_rows(with_value(ex_rows, 0, math.nan), t_grid, trials))
    expect("excess nonnegative risk", ok, check_excess_rows(with_value(ex_rows, 0, -1.0), t_grid, trials))
    expect("excess row count", ok, check_excess_rows(ex_rows[:-1], t_grid, trials))
    expect("slope band", check_slope(excess_slope(ex_rows)), check_slope(0.0))
    expect("slope band (steep)", check_slope(-1.0), check_slope(-2.0))

    expect("nll below truth", check_nll_vs_truth(1.0, 1.0), check_nll_vs_truth(1.001, 1.0))
    expect("nll finite", check_nll_vs_truth(0.5, 1.0), check_nll_vs_truth(math.nan, 1.0))
    expect("gauge nullity", check_gauge(1e-14), check_gauge(1e-6))
    expect("secant certificate", check_certificate(0.3), check_certificate(-0.1))
    return problems


if __name__ == "__main__":
    import sys

    found = self_test()
    for line in found:
        print(line)
    print("self-test:", "FAIL" if found else "every check rejects its corrupted output")
    sys.exit(1 if found else 0)
