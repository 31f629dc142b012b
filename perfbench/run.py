#!/usr/bin/env python3
"""Benchmark of the pmichannel Monte-Carlo drivers.

    python3 perfbench/run.py --workload {crb,fdd,excess-risk} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
./src and nowhere else.  The loop is closed: one driver call at a time, each
with a seed derived from --seed.

--trace 0 calls the public entry points for S seconds with tracing off and
prints the end-to-end metrics.  --trace 1 makes the same calls for S/2
seconds, then replays their task loops with a span around every call into a
pmichannel module, and prints the per-layer metrics.

Every output is checked (see checks.py); the last line of stdout is a JSON
object {correct, attempted, failed, metrics}.  The lines before it list every
metric with its unit, the quality figures and the environment.  A full
record goes to .perfbench_out/, with the spans of a traced run.
"""

import os
import sys

# One BLAS thread per process; numpy reads this when it is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Set-up is timed in this process and in this many fresh child processes.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def import_package():
    """Import pmichannel from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "pmichannel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pmichannel sources under {src}")
    sys.path.insert(0, str(src))
    import pmichannel

    if Path(pmichannel.__file__).resolve().parent != (src / "pmichannel").resolve():
        sys.exit(f"perfbench: pmichannel was imported from {pmichannel.__file__}, not {src}")


def environment(args, workers: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter: imports, inputs and one warm-up task."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def measure(wl, seconds: float):
    """Call units back to back until ``seconds`` have passed; time only the calls."""
    from workloads import Outcome

    units, outcomes, unit_s = [], [], []
    cpu = 0.0
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while not units or time.perf_counter() - start < seconds:
            unit = wl.unit(len(units))
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                raw, error = wl.call(unit), None
            except Exception as exc:  # a failed call is counted, not fatal
                raw, error = None, exc
            unit_s.append(time.perf_counter() - t0)
            cpu += cpu_seconds() - c0
            if error is None:
                try:
                    outcome = wl.check(unit, raw)
                except (ValueError, OSError) as exc:
                    error = exc
            if error is not None:
                reason = f"{type(error).__name__}: {error}"
                outcome = Outcome(wl.tasks_per_unit, {"call": reason}, [], b"", call_failed=True)
            units.append(unit)
            outcomes.append(outcome)
    tasks = sum(o.tasks for o in outcomes)
    failed = sum(o.tasks if o.call_failed else len(o.failed) for o in outcomes)
    wall = sum(unit_s)
    return units, outcomes, {
        "tasks": tasks,
        "failed": failed,
        "wall_s": wall,
        "unit_s": unit_s,
        "tasks_per_s": (tasks - failed) / wall,
        "cpu_per_wall": cpu / wall,
        "warnings": dict(Counter(w.category.__name__ for w in caught)),
    }


def failure_list(outcomes) -> list:
    return [f"unit {i} task {k}: {why}" for i, o in enumerate(outcomes) for k, why in o.failed.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["crb", "fdd", "excess-risk"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    import_package()
    from workloads import WORKLOADS

    workdir = OUT / f"work-{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, nproc)
        wl.setup()
        own_setup = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0

        import checks
        import layers
        from spans import Recorder

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup_samples = [own_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        broken_checks = checks.self_test()
        env = environment(args, wl.workers, nproc)

        seconds = args.seconds if args.trace == 0 else args.seconds / 2
        units, outcomes, phase_a = measure(wl, seconds)
        rows = [r for o in outcomes for r in o.rows]
        quality, run_failures = wl.quality(rows) if rows else ({}, ["no rows to check"])
        failures = failure_list(outcomes)
        attempted, failed = phase_a["tasks"], phase_a["failed"]

        if args.trace == 0:
            values = {
                "tasks_per_s": phase_a["tasks_per_s"],
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            declared = spec["end_to_end"]
        else:
            rec = Recorder()
            t0 = time.perf_counter()
            with rec.capturing_warnings():
                replays = [wl.replay(unit, rec) for unit in units]
            replay_wall = time.perf_counter() - t0
            phase_a["replay_mismatches"] = sum(
                rp.csv != o.csv for rp, o in zip(replays, outcomes) if not o.call_failed
            )
            values = layers.per_layer(rec, replays, replay_wall, wl.workers, phase_a)
            for i, rp in enumerate(replays):
                failures += [f"replay {i} task {k}: {why}" for k, why in rp.failed.items()]
            attempted += sum(rp.tasks for rp in replays)
            failed += sum(len(rp.failed) for rp in replays)
            rec.write_jsonl(OUT / f"spans-{run_id}.jsonl")
            if rec.unattributed:
                phase_a["warnings"]["replay_outside_spans"] = dict(rec.unattributed)
            declared = spec["per_layer"]

        if sorted(values) != sorted(m["name"] for m in declared):
            raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
        units_of = {m["name"]: m["unit"] for m in declared}
        correct = not broken_checks and not run_failures and failed == 0

        print(" ".join(f"{k}={v}" for k, v in env.items()))
        print(f"units={len(units)} attempted={attempted} failed={failed} "
              f"failed_frac={failed / attempted:.6g} measured_s={phase_a['wall_s']:.3f}")
        for name in sorted(values):
            moves = ""
            if name in layers.TABLE:
                moves = "  moves {} on {}".format(*layers.TABLE[name])
            print(f"  {name:44s} {values[name]:.6g} {units_of[name]}{moves}")
        for name, v in quality.items():
            print(f"  quality {name} = {v:.6g}")
        print(f"  warnings {phase_a['warnings'] or 'none'}")
        for line in broken_checks + run_failures + failures[:20]:
            print(f"  FAILED {line}")
        if args.trace == 1 and phase_a["replay_mismatches"]:
            print(f"  NOTE {phase_a['replay_mismatches']} replayed units differ from the driver's output")

        metrics = {k: {"value": float(v), "unit": units_of[k]} for k, v in sorted(values.items())}
        record = {
            "environment": env,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "unit_s": phase_a["unit_s"],
            "setup_samples_s": setup_samples,
            "quality": quality,
            "warnings": phase_a["warnings"],
            "self_test_problems": broken_checks,
            "failures": run_failures + failures,
            "metrics": metrics,
        }
        (OUT / f"result-{run_id}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
