"""Golden-output regression tests for the drivers and the feedback simulator.

The files under ``tests/golden/`` hold small runs of every driver and the
PMI/CQI streams of the simulator.  Feedback streams and ``two-stage`` rows
must match byte for byte; the MLE's CRB-experiment MSE and its excess risk
are solver outputs run to a relative tolerance of 1e-9 and are compared at
rtol 1e-6; every other value is compared at rtol 1e-12.

``PYTHONPATH=src python tests/test_golden.py`` prints, per file and method,
how many rows the current code changes, the largest |delta| and the largest
relative |delta| (to read against the rtols above), and writes nothing.  ``PYTHONPATH=src python tests/test_golden.py fdd_r1 crb`` rewrites
only the named files; do that only when a change of behaviour is intended
and explained.
"""

from pathlib import Path

import numpy as np
import pytest

from pmichannel import designs, experiments, model

GOLDEN = Path(__file__).parent / "golden"

# Values that come out of an MLE solve stopped at rel_tol 1e-9.
_SOLVER_METRICS = {("mle", "mse"), ("mle", "excess_risk")}


def _crb_rows():
    return experiments.run_crb_experiment(
        d=6, p=3, tau=0.3, rounds=(50, 200), trials=2, seed=1, radius=1.5,
        max_iters=1000, rel_tol=1e-9,
    )


def _fdd_rows(r, scheme="structured-outer-inner"):
    return experiments.run_fdd_experiment(
        r=r, rounds=(1, 3, 6), n_samples=2, seed=4, scheme=scheme
    )


def _ablate_tau_rows():
    return experiments.run_ablation("tau", grid=(0.5, 1.0, 5.0), rounds=(3, 6), n_samples=2, seed=2)


def _ablate_init_rows():
    return experiments.run_ablation(
        "init", grid=("identity", "random", "spectral"), rounds=(3, 6), n_samples=2, seed=2
    )


def _excess_risk_rows():
    return experiments.excess_risk_slope(t_grid=(100, 200), trials=2, seed=3)[1]


def _stream_text(problem) -> str:
    cqis = problem.cqi_array.tolist() if problem.has_cqi else [None] * problem.T
    lines = ["pmi,cqi"] + [f"{int(i)},{c!r}" for i, c in zip(problem.pmi_array, cqis)]
    return "\n".join(lines) + "\n"


def _softmax_stream() -> str:
    rng = np.random.default_rng([9, 1])
    d, p, T, tau = 8, 4, 400, 0.2
    cb = designs.dft_codebook(p)
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    h /= np.linalg.norm(h)
    qs = designs.haar_stiefel_stack(T, d, p, rng)
    problem = model.simulate_problem(qs, cb, h, tau, rng, rule="softmax", attach_cqi=True)
    return _stream_text(problem)


def _hard_fdd_stream(r) -> str:
    # The FDD drivers' feedback path: ray-model channel, codebook-compatible
    # first round, structured later rounds, hard argmax rule with CQI.
    rng = np.random.default_rng([9, 2, r])
    ch, ul = designs.synthetic_channel(16, 2, 3, rng)
    qs = [designs.type1_q1(ul.Sigma)] + [designs.structured_q(ul.Sigma, 8, rng) for _ in range(40)]
    problem = model.simulate_problem(
        qs, designs.dft_codebook(8, r), ch.H, 1.0, rule="hard", attach_cqi=True
    )
    return _stream_text(problem)


def _csv_text(rows, tmp_path) -> str:
    path = tmp_path / "results.csv"
    experiments.write_results_csv(rows, path)
    return path.read_text()


DRIVERS = {
    "crb": _crb_rows,
    "fdd_r1": lambda: _fdd_rows(1),
    "fdd_r2": lambda: _fdd_rows(2),
    "fdd_haar_r1": lambda: _fdd_rows(1, "haar-random"),
    "ablate_tau": _ablate_tau_rows,
    "ablate_init": _ablate_init_rows,
    "excess_risk": _excess_risk_rows,
}

STREAMS = {
    "stream_softmax_complex": _softmax_stream,
    "stream_hard_fdd_r1": lambda: _hard_fdd_stream(1),
    "stream_hard_fdd_r2": lambda: _hard_fdd_stream(2),
}


def _parse(text: str) -> list:
    lines = text.strip().split("\n")
    assert lines[0] == "method,T,trial,seed,metric,value"
    return [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_matches_golden(name, tmp_path):
    want = _parse((GOLDEN / f"{name}.csv").read_text())
    got = _parse(_csv_text(DRIVERS[name](), tmp_path))
    assert [row[:5] for row in got] == [row[:5] for row in want]
    for g, w in zip(got, want):
        method, metric = g[0], g[4]
        if method == "two-stage":
            assert g[5] == w[5], g
        else:
            rtol = 1e-6 if (method, metric) in _SOLVER_METRICS else 1e-12
            np.testing.assert_allclose(float(g[5]), float(w[5]), rtol=rtol, atol=0, err_msg=str(g))


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_feedback_stream_matches_golden(name):
    assert STREAMS[name]() == (GOLDEN / f"{name}.csv").read_text()


def _changes(old: str, new: str) -> dict:
    """Per method: (rows changed, rows, max |delta|, max |delta| / |old|) of the value.

    Streams have no method column and count as one method, "stream".  A row
    whose key columns changed has deltas inf, as has a moved value whose old
    value is 0; a changed row count is reported as "(layout)":
    (new rows, old rows, inf, inf).
    """
    old_rows = [line.split(",") for line in old.strip().split("\n")[1:]]
    new_rows = [line.split(",") for line in new.strip().split("\n")[1:]]
    if len(old_rows) != len(new_rows):
        return {"(layout)": (len(new_rows), len(old_rows), float("inf"), float("inf"))}
    out = {}
    for o, n in zip(old_rows, new_rows):
        method = o[0] if len(o) == 6 else "stream"
        changed, rows, delta, rel = out.get(method, (0, 0, 0.0, 0.0))
        if o != n:
            changed += 1
            moved = rel_moved = float("inf")
            if o[:-1] == n[:-1]:
                was = float(o[-1])
                moved = abs(float(n[-1]) - was)
                rel_moved = moved / abs(was) if was else float("inf")
            delta, rel = max(delta, moved), max(rel, rel_moved)
        out[method] = (changed, rows + 1, delta, rel)
    return out


if __name__ == "__main__":
    import sys
    import tempfile

    names = [Path(arg).stem for arg in sys.argv[1:]]
    unknown = sorted(set(names) - set(DRIVERS) - set(STREAMS))
    if unknown:
        sys.exit(f"unknown golden files: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or [*DRIVERS, *STREAMS]:
            text = _csv_text(DRIVERS[name](), Path(tmp)) if name in DRIVERS else STREAMS[name]()
            path = GOLDEN / f"{name}.csv"
            old = path.read_text() if path.exists() else ""
            for method, (changed, rows, delta, rel) in _changes(old, text).items():
                print(
                    f"{name:24s} {method:28s} {changed:4d}/{rows:<4d} rows changed, "
                    f"max |delta| {delta:.2g}, max relative |delta| {rel:.2g}"
                )
            if names:
                path.write_text(text)
