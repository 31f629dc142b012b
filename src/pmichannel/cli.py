"""Command-line entry points for the experiment drivers.

Subcommands: crb-experiment, fdd-experiment, ablate-tau, ablate-init,
verify-theory, dataset-make, dataset-inspect.  Options may also be given
through a JSON config file (--config); explicit flags override it, and
options given in neither take the driver's own defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import experiments
from .dataset import write_dataset


def _str_list(value) -> list:
    """A comma string's non-empty items, or the items of a config file's JSON list as text."""
    if isinstance(value, str):
        items = [v.strip() for v in value.split(",") if v.strip()]
    elif isinstance(value, list):
        items = [str(v) for v in value]
    else:
        raise ValueError(f"expected a comma-separated string or a list, got {value!r}")
    if not items:
        raise ValueError("expected at least one item")
    return items


def _int_list(value) -> list:
    return [int(v) for v in _str_list(value)]


def _float_list(value) -> list:
    return [float(v) for v in _str_list(value)]


_LIST_TYPES = (_int_list, _float_list, _str_list)


def _add_common(sp: argparse.ArgumentParser, outputs: bool = True) -> None:
    sp.add_argument("--config", type=str, default=None, help="JSON file of options")
    sp.add_argument("--seed", type=int, default=None)
    if outputs:
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--workers", type=int, default=None)


def _options(ap: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The config file's keys, then the flags given on top; nothing else.

    Options left unset take the driver's own defaults; samples and a dataset
    (whose file sets the count) exclude each other, as do slope trials and
    skip-slope.  A config key must name one of the subcommand's flags;
    ``samples`` becomes ``n_samples``.
    A list-valued flag's key takes a JSON list or the flag's comma string,
    either one parsed by the flag's own converter.  A scalar flag's key takes
    a JSON number or string, passed to the converter as the flag's text would
    be, and an on/off flag's key takes only JSON true or false.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    opts = {}
    if args.config:
        try:
            opts = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            ap.error(f"{args.command}: config {args.config}: {experiments._reason(exc)}")
        if not isinstance(opts, dict):
            ap.error(f"{args.command}: config {args.config} is not a JSON object")
        unknown = sorted(set(opts) - set(flags))
        if unknown:
            ap.error(f"{args.command}: unknown config key(s) in {args.config}: {', '.join(unknown)}")
        (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        for action in sub.choices[args.command]._actions:
            if action.dest not in opts:
                continue
            value = opts[action.dest]
            try:
                if isinstance(action, argparse._StoreTrueAction):
                    if not isinstance(value, bool):
                        raise ValueError(f"expected true or false, got {value!r}")
                elif action.type in _LIST_TYPES:
                    opts[action.dest] = action.type(value)
                elif isinstance(value, bool) or not isinstance(value, (int, float, str)):
                    raise ValueError(f"expected a number or a string, got {value!r}")
                else:
                    opts[action.dest] = action.type(str(value))
            except ValueError as exc:
                ap.error(f"{args.command}: config key {action.dest!r} in {args.config}: {exc}")
    opts.update({k: v for k, v in flags.items() if v is not None})
    if "samples" in opts and "dataset" in opts:
        ap.error(f"{args.command}: samples cannot be given with a dataset, whose file sets the count")
    if opts.get("skip_slope") and "slope_trials" in opts:
        ap.error(f"{args.command}: slope trials cannot be given with skip-slope, which runs none")
    if "samples" in opts:
        opts["n_samples"] = opts.pop("samples")
    return opts


def _writable(dest: str, directory: bool = True) -> Path:
    """``dest``, checked before any work: a usage error unless the command can write it.

    An output directory is made, with its parents, once the driver has returned,
    so the nearest existing path on its way must be a writable directory.  An
    output file needs a writable directory to be in and must not be one itself.
    """
    out = Path(dest)
    if directory:
        here = next(p for p in (out, *out.parents) if p.exists())
    elif out.is_dir():
        raise experiments.InvalidOptionError(f"cannot write {dest}: it is a directory")
    else:
        here = out.parent
    if not here.is_dir() or not os.access(here, os.W_OK | os.X_OK):
        raise experiments.InvalidOptionError(f"cannot write {dest}: {here} is not a writable directory")
    return out


def build_parser() -> argparse.ArgumentParser:
    # No flag abbreviations: fdd-experiment would read --d as --dataset.
    ap = argparse.ArgumentParser(prog="pmichannel", allow_abbrev=False)
    parser_class = partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=parser_class)

    sp = sub.add_parser("crb-experiment", help="MSE of the MLE against the trace CRB")
    _add_common(sp)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--rounds", type=_int_list, default=None, help="comma-separated T values")
    sp.add_argument("--trials", type=int, default=None)

    sp = sub.add_parser("fdd-experiment", help="beam precision of all methods vs rounds")
    _add_common(sp)
    sp.add_argument("--r", type=int, default=None, help="streams (1 or 2)")
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--rounds", type=_int_list, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--scheme", type=str, default=None, choices=experiments._DESIGN_SCHEMES)
    sp.add_argument("--methods", type=_str_list, default=None, help="comma-separated method names")
    sp.add_argument("--dataset", type=str, default=None)

    for name, help_text, grid_type in (
        ("ablate-tau", "temperature sweep for the subspace MLE", _float_list),
        ("ablate-init", "initialization comparison for the subspace MLE", _str_list),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        sp.add_argument("--grid", type=grid_type, default=None, help="comma-separated grid")
        sp.add_argument("--rounds", type=_int_list, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--dataset", type=str, default=None)

    sp = sub.add_parser("verify-theory", help="run every analytic-identity check")
    _add_common(sp)
    sp.add_argument("--moment-samples", type=int, default=None, dest="moment_samples")
    sp.add_argument("--secant-samples", type=int, default=None, dest="secant_samples")
    sp.add_argument("--slope-trials", type=int, default=None, dest="slope_trials")
    sp.add_argument("--skip-slope", action="store_true", default=None, dest="skip_slope")

    sp = sub.add_parser("dataset-make", help="write a synthetic ray-model dataset")
    _add_common(sp, outputs=False)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--n-rx", type=int, default=None, dest="n_rx")
    sp.add_argument("--paths", type=int, default=None)
    sp.add_argument("path", type=str, help="output file")

    sp = sub.add_parser("dataset-inspect", help="print dataset header and statistics")
    sp.add_argument("path", type=str)
    return ap


def _cmd_crb(opts: dict) -> int:
    out = _writable(opts.pop("out", "results"))
    rows = experiments.run_crb_experiment(**opts)
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_results_csv(rows, out / "results.csv")
    experiments.write_timings_csv(rows, out / "timings.csv")
    summary = experiments.summarize_crb(rows)
    experiments.write_summary_csv(summary, out / "summary.csv")
    c = experiments.fit_inverse_t(
        np.array([rec["T"] for rec in summary]), np.array([rec["crb"] for rec in summary])
    )
    (out / "fit.txt").write_text(f"c = {c!r}\n")
    print(f"wrote {out}/results.csv, summary.csv, fit.txt (c = {c:.6g})")
    return 0


def _cmd_fdd(opts: dict) -> int:
    out = _writable(opts.pop("out", "results"))
    rows = experiments.run_fdd_experiment(**opts)
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_results_csv(rows, out / "results.csv")
    experiments.write_timings_csv(rows, out / "timings.csv")
    experiments.write_summary_csv(experiments.summarize_fdd(rows), out / "summary.csv")
    print(f"wrote {out}/results.csv and summary.csv")
    return 0


def _cmd_ablate(opts: dict, kind: str) -> int:
    out = _writable(opts.pop("out", "results"))
    rows = experiments.run_ablation(kind, **opts)
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_results_csv(rows, out / "results.csv")
    experiments.write_timings_csv(rows, out / "timings.csv")
    experiments.write_summary_csv(experiments.summarize_ablation(rows), out / "summary.csv")
    print(f"wrote {out}/results.csv and summary.csv")
    return 0


def _cmd_verify(opts: dict) -> int:
    out = _writable(opts.pop("out", "results"))
    opts["include_slope"] = not opts.pop("skip_slope", False)
    records = experiments.run_theory_verification(**opts)
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_summary_csv(records, out / "report.csv")
    for rec in records:
        print("[{}] {check}: value={value:.4g} threshold={threshold:.4g} rule={rule}".format(
            "pass" if rec["passed"] else "FAIL", **rec))
    print(f"wrote {out}/report.csv")
    return 0 if all(rec["passed"] for rec in records) else 1


def _cmd_dataset_make(opts: dict) -> int:
    path = _writable(opts.pop("path"), directory=False)
    data = experiments.make_synthetic_dataset(**opts)
    write_dataset(path, data)
    print(f"wrote {path}: {data.n_samples} samples, d={data.d}, n_rx={data.n_rx}")
    return 0


def _cmd_dataset_inspect(path: str) -> int:
    data = experiments._read_dataset(path)
    norms = np.linalg.norm(data.channels.reshape(data.n_samples, -1), axis=1)
    print(f"samples: {data.n_samples}")
    print(f"d: {data.d}")
    print(f"n_rx: {data.n_rx}")
    print(f"covariances: {'yes' if data.covariances is not None else 'no'}")
    print(f"channel norms: min={norms.min():.6g} mean={norms.mean():.6g} max={norms.max():.6g}")
    return 0


_COMMANDS = {
    "crb-experiment": _cmd_crb,
    "fdd-experiment": _cmd_fdd,
    "ablate-tau": lambda opts: _cmd_ablate(opts, "tau"),
    "ablate-init": lambda opts: _cmd_ablate(opts, "init"),
    "verify-theory": _cmd_verify,
    "dataset-make": _cmd_dataset_make,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "dataset-inspect":
            return _cmd_dataset_inspect(args.path)
        return _COMMANDS[args.command](_options(ap, args))
    except experiments.InvalidOptionError as exc:
        ap.error(f"{args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
