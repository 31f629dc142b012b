import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmichannel
from pmichannel import baselines, cli, crb, experiments, likelihood, theory
from pmichannel.dataset import ChannelDataset, read_dataset, write_dataset


class TestCrbDriver:
    def test_rows_and_summary(self):
        rows = experiments.run_crb_experiment(
            d=6, p=3, tau=0.3, rounds=(50, 100), trials=2, seed=1, radius=1.5,
            max_iters=60, rel_tol=1e-6,
        )
        assert len(rows) == 2 * 2 * 2  # (mse + crb) x T x trials
        summary = experiments.summarize_crb(rows)
        assert [rec["T"] for rec in summary] == [50, 100]
        for rec in summary:
            assert np.isfinite(rec["mse"]) and rec["crb"] > 0

    def test_fit_through_origin(self):
        t = np.array([100.0, 200.0, 400.0])
        c = experiments.fit_inverse_t(t, 5.0 / t)
        assert abs(c - 5.0) < 1e-12


class TestFddDriver:
    def test_two_stage_only_at_t1(self):
        rows = experiments.run_fdd_experiment(
            rounds=(1, 3), n_samples=2, seed=0, methods=("two-stage", "spectral")
        )
        two = [r for r in rows if r.method == "two-stage"]
        assert {r.T for r in two} == {1}
        spec = [r for r in rows if r.method == "spectral"]
        assert {r.T for r in spec} == {1, 3}

    def test_slice_decomposes_each_covariance_once(self, monkeypatch):
        # spectral, mle's start and, at r = 1, am's start share each problem's decomposition
        # of its basis-free PMI covariance (d = 32); the starts under a prior (k = 8) take
        # their own.  spectral_estimate makes no eigvalsh: its warning reads the kept eigenvalues.
        shapes, real = [], likelihood.eigvecs_descending
        monkeypatch.setattr(likelihood, "eigvecs_descending", lambda A, k: shapes.append(A.shape) or real(A, k))
        inside, eigvalsh, real_spectral, real_eigvalsh = [], [], baselines.spectral_estimate, np.linalg.eigvalsh

        def spectral(*args):
            inside.append(True)
            try:
                return real_spectral(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(baselines, "spectral_estimate", spectral)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: eigvalsh.append(bool(inside)) or real_eigvalsh(A))
        rows = experiments.run_fdd_experiment(rounds=(1, 5), n_samples=3, r=1, seed=0)
        assert {r.method for r in rows} == set(experiments.FDD_METHODS)
        assert sum(B for B, d, _ in shapes if d == 32) == 3 * 2
        assert eigvalsh and not any(eigvalsh)

    def test_missing_cqi_flags_skip(self):
        rows = experiments.run_fdd_experiment(
            rounds=(2,), n_samples=1, seed=0, methods=("am", "subspace-pr", "mle"),
            attach_cqi=False,
        )
        skipped = {r.method for r in rows if r.metric == "skipped"}
        assert skipped == {"am", "subspace-pr"}
        assert any(r.method == "mle" and r.metric == "beam_precision" for r in rows)

    def test_dataset_ingestion(self, tmp_path):
        data = experiments.make_synthetic_dataset(3, d=16, n_rx=2, paths=2, seed=5)
        from pmichannel.dataset import write_dataset

        path = tmp_path / "chan.bin"
        write_dataset(path, data)
        rows = experiments.run_fdd_experiment(
            d=16, n_rx=2, rounds=(1, 2), n_samples=99, dataset=str(path),
            methods=("spectral",), seed=0,
        )
        # sample count comes from the file, not the argument
        assert {r.trial for r in rows} == {0, 1, 2}

    def test_rank_deficient_dataset_covariance_accepted(self, tmp_path):
        # h h^H has roundoff-negative eigenvalues, inside the PSD tolerance.
        data = experiments.make_synthetic_dataset(2, d=16, n_rx=2, paths=2, seed=5)
        h = data.channels[:, :, :1]
        covs = h @ h.conj().swapaxes(1, 2)
        assert np.linalg.eigvalsh(covs).min() < 0
        path = tmp_path / "rank1.bin"
        write_dataset(path, ChannelDataset(data.channels, covs))
        rows = experiments.run_fdd_experiment(
            rounds=(1,), dataset=str(path), methods=("spectral",), seed=0
        )
        assert {r.trial for r in rows} == {0, 1}

    @pytest.mark.parametrize("command", ["fdd-experiment", "ablate-tau"])
    @pytest.mark.parametrize(
        "sample, bad, kind",
        [(1, "upper-triangular", "Hermitian"), (0, "negative", "positive semidefinite")],
    )
    def test_bad_dataset_covariance_refused_before_any_task(
        self, monkeypatch, tmp_path, capsys, command, sample, bad, kind
    ):
        data = experiments.make_synthetic_dataset(2, d=16, n_rx=2, paths=2, seed=5)
        covs = data.covariances.copy()
        if bad == "upper-triangular":
            covs[sample] = np.triu(np.random.default_rng(0).standard_normal((16, 16)))
        else:
            covs[sample] = -np.eye(16)
        path = tmp_path / "bad.bin"
        write_dataset(path, ChannelDataset(data.channels, covs))

        def no_work(*args, **kwargs):
            raise AssertionError("a task ran before the covariances were checked")

        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--dataset", str(path), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"pmichannel: error: {command}: dataset {path}: " in err
        assert f"covariance of sample {sample} is not {kind}" in err
        assert not (tmp_path / "o").exists()

    # Each kw is (driver, options).
    @pytest.mark.parametrize(
        "kw",
        [
            ("fdd", {"rounds": (0,)}),
            ("fdd", {"rounds": (3, -1)}),
            ("fdd", {"rounds": ()}),
            ("fdd", {"r": 3}),
            ("fdd", {"r": 0}),
            ("fdd", {"methods": ("spectral", "bogus")}),
            ("fdd", {"methods": ()}),
            ("fdd", {"scheme": "bogus"}),
            ("fdd", {"rounds": (1,), "scheme": "bogus"}),
            ("fdd", {"tau": 0.0}),
            ("fdd", {"tau": -1.0}),
            ("fdd", {"tau": float("inf")}),
            ("fdd", {"n_samples": 0}),
            ("fdd", {"mle_init": "bogus"}),
            ("ablate-tau", {"grid": (0.0,)}),
            ("ablate-tau", {"grid": (1.0, -2.0)}),
            ("ablate-tau", {"grid": ()}),
            ("ablate-init", {"grid": ("identity", "bogus")}),
            ("ablate-init", {"grid": ()}),
            ("ablate-init", {"n_samples": 0}),
            ("fdd", {"workers": 0}),
            ("ablate-tau", {"workers": 0}),
            ("ablate-init", {"workers": -1}),
            ("crb", {"workers": -2}),
            ("excess-risk", {"workers": 0}),
            ("crb", {"trials": 0}),
            ("crb", {"d": 2, "p": 4}),
            ("crb", {"p": 0}),
            ("crb", {"tau": 0.0}),
            ("crb", {"rounds": (0,)}),
        ],
    )
    def test_bad_rounds_or_r_refused_before_loading(self, monkeypatch, kw):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr(experiments, "_load_channels", no_work)
        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        driver, options = kw
        run = {
            "fdd": lambda **o: experiments.run_fdd_experiment(**{"n_samples": 1, **o}),
            "ablate-tau": lambda **o: experiments.run_ablation("tau", **{"n_samples": 1, **o}),
            "ablate-init": lambda **o: experiments.run_ablation("init", **{"n_samples": 1, **o}),
            "crb": lambda **o: experiments.run_crb_experiment(**{"trials": 1, **o}),
            "excess-risk": lambda **o: experiments.excess_risk_slope(**{"trials": 1, **o}),
        }[driver]
        with pytest.raises(experiments.InvalidOptionError):
            run(**options)

    @pytest.mark.parametrize(
        "driver, options, what",
        [
            ("fdd", {"rounds": (5, 5)}, "round count"),
            ("fdd", {"rounds": (1, 5, 1)}, "round count"),
            ("fdd", {"methods": ("spectral", "mle", "spectral")}, "method"),
            ("ablate-tau", {"grid": (0.5, 0.5)}, "tau"),
            ("ablate-tau", {"rounds": (5, 5)}, "round count"),
            ("ablate-init", {"grid": ("random", "random")}, "initialization"),
            ("crb", {"rounds": (50, 50)}, "round count"),
        ],
    )
    def test_repeated_value_refused_before_any_work(self, monkeypatch, driver, options, what):
        # A repeated value would solve the same problems twice and count every row twice.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr(experiments, "_load_channels", no_work)
        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        run = {
            "fdd": lambda **o: experiments.run_fdd_experiment(n_samples=1, **o),
            "ablate-tau": lambda **o: experiments.run_ablation("tau", n_samples=1, **o),
            "ablate-init": lambda **o: experiments.run_ablation("init", n_samples=1, **o),
            "crb": lambda **o: experiments.run_crb_experiment(trials=1, **o),
        }[driver]
        with pytest.raises(experiments.InvalidOptionError, match=f"repeated {what} in"):
            run(**options)

    @pytest.mark.parametrize("command", ["fdd-experiment", "ablate-tau", "ablate-init"])
    def test_dataset_with_too_few_ports_refused_before_any_task(
        self, monkeypatch, tmp_path, capsys, command
    ):
        path = tmp_path / "d4.bin"
        assert cli.main(["dataset-make", "--samples", "2", "--d", "4", str(path)]) == 0

        def no_work(*args, **kwargs):
            raise AssertionError("a task ran before the dataset was checked")

        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--dataset", str(path), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "need at least 8 antenna ports, got 4" in capsys.readouterr().err


class TestAblationDriver:
    # d = 16 keeps 17 samples cheap; 17 crosses the 16-sample chunk into a lone one-sample chunk.
    _SMALL = dict(rounds=(1, 4), n_samples=17, seed=2, d=16, n_rx=2, paths=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize(
        "kind, grid",
        [("tau", (0.5, 1.0, 5.0)), ("init", ("identity", "random", "spectral"))],
        ids=["tau", "init"],
    )
    def test_single_grid_point_matches_fdd(self, monkeypatch, kind, grid, r, workers):
        """Every variant's rows have the bytes of its own ``run_fdd_experiment``, and no lift is written."""
        lifts = []
        simulate = experiments.model.simulate_problem

        def keep_lift(*args, **kwargs):
            history = simulate(*args, **kwargs)
            lifts.append((history, history.effective_flat.copy()))
            return history

        monkeypatch.setattr(experiments.model, "simulate_problem", keep_lift)
        kw = dict(self._SMALL, r=r, workers=workers)
        ab = experiments.run_ablation(kind, grid=grid, **kw)
        assert len(lifts) == kw["n_samples"]
        assert all(h.effective_flat.tobytes() == before.tobytes() for h, before in lifts)
        monkeypatch.undo()

        def rows(run, method):
            return [(x.T, x.trial, x.seed, x.metric, repr(x.value)) for x in run if x.method == method]

        option = {"tau": "tau", "init": "mle_init"}[kind]
        spectral = experiments.run_fdd_experiment(methods=("spectral",), **kw)
        assert rows(ab, "spectral") == rows(spectral, "spectral")
        for g in grid:
            alone = experiments.run_fdd_experiment(methods=("subspace-mle",), **{option: g}, **kw)
            assert rows(ab, f"subspace-mle[{kind}={g}]") == rows(alone, "subspace-mle")
        assert len(ab) == len(rows(ab, "spectral")) * (len(grid) + 1)
        sum_ab = experiments.summarize_ablation(ab)
        assert all("improvement" in rec for rec in sum_ab)

    @pytest.mark.parametrize(
        "kind, grid",
        [("tau", (1.0,)), ("tau", (0.1, 0.5, 1.0, 5.0)), ("init", ("random",)), ("init", None)],
        ids=["tau-1", "tau-4", "init-1", "init-3"],
    )
    def test_each_sample_prepared_once(self, monkeypatch, kind, grid):
        """One fdd loop and one design per sample, whatever the grid length."""
        calls = {"run_fdd_experiment": 0, "_fdd_design": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(experiments, "run_fdd_experiment")
        counted(experiments.designs, "_fdd_design")
        experiments.run_ablation(kind, grid=grid, rounds=(2,), n_samples=3, seed=0, d=16, n_rx=2, paths=2)
        assert calls == {"run_fdd_experiment": 1, "_fdd_design": 3}

    @pytest.mark.parametrize(
        "kind, options, match",
        [
            ("tau", {"methods": ("mle",)}, "the tau ablation sets methods itself"),
            ("init", {"methods": ("spectral", "mle")}, "the init ablation sets methods itself"),
            ("init", {"mle_init": "random"}, "the init ablation sets mle_init itself"),
            ("tau", {"tau": 5.0}, "the tau ablation sets tau itself"),
            ("tau", {"tau": 5.0, "methods": ("mle",)}, "sets methods and tau itself"),
            ("temperature", {}, "ablation kind must be tau or init, got 'temperature'"),
        ],
        ids=["tau-methods", "init-methods", "init-mle_init", "tau-tau", "tau-both", "unknown-kind"],
    )
    def test_option_the_grid_sets_refused_before_loading(self, monkeypatch, kind, options, match):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr(experiments, "_load_channels", no_work)
        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        with pytest.raises(experiments.InvalidOptionError, match=match):
            experiments.run_ablation(kind, n_samples=1, **options)

    def test_init_grid(self):
        rows = experiments.run_ablation(
            "init", grid=("identity", "spectral"), rounds=(3,), n_samples=2, seed=0
        )
        methods = {r.method for r in rows}
        assert "subspace-mle[init=identity]" in methods
        assert "subspace-mle[init=spectral]" in methods

    def test_init_choice_insensitive(self):
        # the three starts land within 0.05 mean beam precision of each other
        rows = experiments.run_ablation(
            "init", grid=("identity", "random", "spectral"),
            rounds=(5, 10), n_samples=30, seed=0, workers=4,
        )
        summ = experiments.summarize_fdd(rows)
        for T in (5, 10):
            vals = [
                rec["mean"] for rec in summ
                if rec["T"] == T and rec["method"].startswith("subspace-mle")
            ]
            assert len(vals) == 3
            assert max(vals) - min(vals) < 0.05


class TestDeterminism:
    def test_tasks_run_with_one_blas_thread(self):
        funcs = crb._openblas_threads()
        if funcs is None:
            pytest.skip("this numpy has no bundled OpenBLAS")
        get, set_ = funcs
        old = get()
        set_(3)
        try:
            for workers in (1, 2):
                assert experiments._run_tasks(range(4), lambda _: get(), workers) == [1] * 4
                assert get() == 3
            with pytest.raises(ZeroDivisionError):
                experiments._run_tasks([0], lambda t: 1 / t, 2)
            assert get() == 3
        finally:
            set_(old)

    def test_fisher_bits_independent_of_blas_threads(self):
        # At T=500, d=16 the Fisher GEMM rounds differently with two BLAS threads
        # unless fisher holds BLAS at one thread itself.
        if crb._openblas_threads() is None:
            pytest.skip("this numpy has no bundled OpenBLAS")
        src = str(Path(pmichannel.__file__).resolve().parent.parent)
        code = (
            "import hashlib, numpy as np\n"
            "from pmichannel import crb, designs, model\n"
            "rng = np.random.default_rng(0)\n"
            "h = rng.standard_normal(16) + 1j * rng.standard_normal(16)\n"
            "qs = designs.haar_stiefel_stack(500, 16, 4, rng)\n"
            "prob = model.simulate_problem(qs, designs.dft_codebook(4), h, 0.05, rng)\n"
            "print(hashlib.sha256(crb.fisher(prob, h).F.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]

    def test_crb_rows_identical_across_workers(self):
        kw = dict(d=5, p=2, tau=0.3, rounds=(30, 60), trials=3, seed=7,
                  radius=1.5, max_iters=30, rel_tol=1e-4)
        a = experiments.run_crb_experiment(workers=1, **kw)
        b = experiments.run_crb_experiment(workers=3, **kw)
        ka = [(r.method, r.T, r.trial, r.metric, r.value) for r in experiments._sorted_rows(a)]
        kb = [(r.method, r.T, r.trial, r.metric, r.value) for r in experiments._sorted_rows(b)]
        assert ka == kb

    def test_csv_bytes_identical(self, tmp_path):
        kw = dict(rounds=(1, 2), n_samples=3, seed=3)
        for wk, name in ((1, "a"), (4, "b")):
            rows = experiments.run_fdd_experiment(workers=wk, **kw)
            experiments.write_results_csv(rows, tmp_path / f"{name}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_schema(self, tmp_path):
        rows = experiments.run_fdd_experiment(rounds=(1,), n_samples=1, seed=0, methods=("spectral",))
        experiments.write_results_csv(rows, tmp_path / "r.csv")
        text = (tmp_path / "r.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "method,T,trial,seed,metric,value"
        assert all(len(line.split(",")) == 6 for line in lines[1:])


class TestTheoryVerification:
    def test_fast_run_all_pass(self):
        records = experiments.run_theory_verification(
            seed=0, moment_samples=40_000, secant_samples=10_000, include_slope=False
        )
        failed = [r for r in records if not r["passed"]]
        assert failed == []
        names = {r["check"] for r in records}
        assert "gauge_nullity" in names and "kl_identity" in names

    @pytest.mark.parametrize("t_grid", [(250,), (250, 250), (250, 500, 250)])
    def test_slope_needs_two_distinct_round_counts(self, monkeypatch, t_grid):
        # One point has no slope; np.polyfit would fit one anyway, with only a warning.
        def no_work(*args, **kwargs):
            raise AssertionError("a trial ran before the grid was checked")

        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        with pytest.raises(experiments.InvalidOptionError, match="round count"):
            experiments.excess_risk_slope(t_grid=t_grid, trials=1)

    @pytest.mark.parametrize("option", ["moment_samples", "secant_samples", "slope_trials", "workers"])
    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("include_slope", [True, False])
    def test_count_below_one_refused_before_any_check(self, monkeypatch, option, count, include_slope):
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran before the options were checked")

        monkeypatch.setattr(experiments, "_random_problem", no_check)
        monkeypatch.setattr(experiments, "excess_risk_slope", no_check)
        for name in (
            "sphere_fourth_moment_check", "secant_expectation_check", "certify_secant",
            "rank1_distance_bound_check", "p_min_value",
        ):
            monkeypatch.setattr(experiments.theory, name, no_check)
        if option == "slope_trials" and not include_slope:
            # Without the slope no trial runs, so its count is not read.
            with pytest.raises(AssertionError, match="a check ran"):
                experiments.run_theory_verification(**{option: count, "include_slope": include_slope})
            return
        with pytest.raises(experiments.InvalidOptionError, match=option):
            experiments.run_theory_verification(**{option: count, "include_slope": include_slope})


# The report's rules, read here from their text, apart from the driver's table.
_COMPARE = {"<": lambda v, t: v < t, "<=": lambda v, t: v <= t, ">=": lambda v, t: v >= t}
_SMALL_THEORY = ["--seed", "0", "--moment-samples", "20000", "--secant-samples", "5000", "--slope-trials", "2"]


def _rule_holds(rule: str, value: float, threshold: float) -> bool:
    band = re.fullmatch(r"in \[(\S+); (\S+)\]", rule)
    return float(band[1]) <= value <= float(band[2]) if band else _COMPARE[rule](value, threshold)


def _theory_report(out: Path, *patches) -> tuple:
    """(exit status, report.csv rows split at commas) of a small verify-theory run under the patches."""
    with pytest.MonkeyPatch.context() as mp:
        for patch in patches:
            mp.setattr(*patch)
        status = cli.main(["verify-theory", *_SMALL_THEORY, "--out", str(out)])
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "check,value,threshold,passed,rule"
    return status, [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def theory_report(tmp_path_factory):
    return _theory_report(tmp_path_factory.mktemp("theory"))


_real_certify_secant = theory.certify_secant


def _secant_probes_below_operator(*args, **kwargs):
    rep = _real_certify_secant(*args, **kwargs)
    return dataclasses.replace(rep, random_min=rep.operator_min - 1e-7)


def _sphere_off_by_five_se(*args):
    return theory.MomentReport(max_dev_se=5.0, max_rel_dev=0.0, samples=1)


class TestTheoryReport:
    def test_every_row_carries_a_rule_that_gives_passed(self, theory_report):
        status, rows = theory_report
        assert status == 0 and len(rows) == 13
        for row in rows:
            check, value, threshold, passed, rule = row
            assert passed == str(_rule_holds(rule, float(value), float(threshold))), check
        rules = ["<=", "<=", "<", "<", "<=", "<=", ">=", "<=", "<=", ">=", ">=", ">=", "in [-1.15; -0.85]"]
        assert [row[4] for row in rows] == rules

    @pytest.mark.parametrize(
        "value, threshold, rule, passed",
        [
            (1e-10, 1e-10, "<=", True), (1e-6, 1e-6, "<", False), (-1e-8, -1e-8, ">=", True),
            (-1.15, -1.0, "in [-1.15; -0.85]", True), (-0.85, -1.0, "in [-1.15; -0.85]", True),
            (-0.849, -1.0, "in [-1.15; -0.85]", False), (-1.151, -1.0, "in [-1.15; -0.85]", False),
            (float("nan"), 1.0, ">=", False), (float("nan"), -1.0, "in [-1.15; -0.85]", False),
        ],
    )
    def test_rule_table(self, value, threshold, rule, passed):
        assert experiments._PASS_RULES[rule](value, threshold) is passed
        assert _rule_holds(rule, value, threshold) is passed

    @pytest.mark.parametrize(
        "check, patch",
        [
            ("gauge_nullity", (crb, "gauge_nullity", lambda F: 1.0)),
            ("gradient_fd", (experiments, "_fd_gradient_realified", lambda problem, x: np.zeros_like(x))),
            ("p_min_floor", (theory, "p_min_value", lambda N, R, tau: 2.0)),
            ("sphere_fourth_moment", (theory, "sphere_fourth_moment_check", _sphere_off_by_five_se)),
            ("secant_random_vs_operator", (theory, "certify_secant", _secant_probes_below_operator)),
            ("rank1_distance_bound", (theory, "rank1_distance_bound_check", lambda x, h: False)),
            ("excess_risk_slope", (experiments, "excess_risk_slope", lambda **kw: (-0.5, []))),
        ],
    )
    def test_a_failing_check_flips_only_its_row(self, theory_report, tmp_path, capsys, check, patch):
        status, rows = _theory_report(tmp_path, patch)
        assert status == 1
        changed = [new for old, new in zip(theory_report[1], rows) if old != new]
        assert [row[0] for row in changed] == [check] and changed[0][3] == "False"
        assert f"[FAIL] {check}: " in capsys.readouterr().out


class TestCli:
    def test_crb_command_and_outputs(self, tmp_path, capsys):
        rc = cli.main(
            [
                "crb-experiment", "--d", "5", "--p", "2", "--tau", "0.3",
                "--rounds", "30,60", "--trials", "2",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        for name in ("results.csv", "summary.csv", "fit.txt", "timings.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"samples": 2, "rounds": [1], "r": 1}')
        rc = cli.main(
            [
                "fdd-experiment", "--config", str(cfg),
                "--methods", "spectral", "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        text = (tmp_path / "o" / "results.csv").read_text()
        assert "spectral" in text and "mle" not in text

    def test_dataset_make_and_inspect(self, tmp_path, capsys):
        path = tmp_path / "d.bin"
        rc = cli.main(["dataset-make", "--samples", "2", "--d", "16", "--paths", "2", str(path)])
        assert rc == 0
        data = read_dataset(path)
        assert data.n_samples == 2
        rc = cli.main(["dataset-inspect", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "samples: 2" in out

    @pytest.mark.parametrize("flag", ["--samples", "--d", "--n-rx", "--paths"])
    def test_dataset_make_zero_count_is_a_usage_error(self, tmp_path, capsys, monkeypatch, flag):
        def no_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn before the options were checked")

        monkeypatch.setattr(experiments.designs, "synthetic_channel", no_draw)
        path = tmp_path / "d.bin"
        with pytest.raises(SystemExit) as exc:
            cli.main(["dataset-make", flag, "0", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "dataset-make: " in err and "at least 1" in err
        assert not path.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch, below
    ):
        def no_run(**kwargs):
            raise AssertionError("the driver ran")

        monkeypatch.setattr(experiments, "run_crb_experiment", no_run)
        (tmp_path / "f").write_text("x")
        out = tmp_path / "f" / "sub" if below else tmp_path / "f"
        with pytest.raises(SystemExit) as exc:
            cli.main(["crb-experiment", "--trials", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"crb-experiment: cannot write {out}: " in err

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_dataset_make_to_an_unwritable_path_is_a_usage_error(self, tmp_path, capsys, monkeypatch, where):
        def no_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn before the path was checked")

        monkeypatch.setattr(experiments.designs, "synthetic_channel", no_draw)
        path = tmp_path / "missing" / "d.bin" if where == "missing-dir" else tmp_path
        with pytest.raises(SystemExit) as exc:
            cli.main(["dataset-make", "--samples", "2", str(path)])
        assert exc.value.code == 2
        assert f"dataset-make: cannot write {path}: " in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_ablate_cli(self, tmp_path):
        rc = cli.main(
            [
                "ablate-init", "--grid", "identity,spectral", "--rounds", "2",
                "--samples", "2", "--out", str(tmp_path / "ab"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "ab" / "summary.csv").exists()
        results = (tmp_path / "ab" / "results.csv").read_text().splitlines()
        timings = (tmp_path / "ab" / "timings.csv").read_text().splitlines()
        assert timings[0] == "method,T,trial,metric,wall_time"
        # One wall time per result row, in the same order.
        assert len(timings) == len(results)
        assert [t.split(",")[:3] for t in timings[1:]] == [r.split(",")[:3] for r in results[1:]]

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d": 16, "smaples": 5}')
        with pytest.raises(SystemExit) as exc:
            cli.main(["fdd-experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(": d, smaples")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["crb-experiment", "--dataset", "x.bin"],
            ["dataset-make", "--out", "somewhere", "d.bin"],
            ["dataset-make", "--workers", "7", "d.bin"],
        ],
    )
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_overrides_reach_the_driver_unchanged(self, tmp_path):
        # Only the options given reach the driver; everything else is its default.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"samples": 2, "rounds": [1, 3]}')
        rc = cli.main(
            [
                "fdd-experiment", "--config", str(cfg), "--tau", "0.5",
                "--methods", "spectral,mle", "--seed", "4", "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        rows = experiments.run_fdd_experiment(
            n_samples=2, rounds=(1, 3), tau=0.5, methods=("spectral", "mle"), seed=4
        )
        experiments.write_results_csv(rows, tmp_path / "direct.csv")
        assert (tmp_path / "o" / "results.csv").read_bytes() == (
            tmp_path / "direct.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "command, config, flags",
        [
            (
                "fdd-experiment",
                {"methods": ["spectral"], "samples": 1, "rounds": [1, 2]},
                ["--methods", "spectral", "--samples", "1", "--rounds", "1,2"],
            ),
            (
                "fdd-experiment",
                {"methods": "spectral, mle", "samples": 1, "rounds": "1,2"},
                ["--methods", "spectral,mle", "--samples", "1", "--rounds", "1,2"],
            ),
            (
                "ablate-tau",
                {"grid": [0.5, 1.0], "samples": 1, "rounds": [2]},
                ["--grid", "0.5,1.0", "--samples", "1", "--rounds", "2"],
            ),
            (
                "ablate-init",
                {"grid": "identity,spectral", "samples": 1, "rounds": [2]},
                ["--grid", "identity,spectral", "--samples", "1", "--rounds", "2"],
            ),
        ],
    )
    def test_config_lists_and_comma_strings_match_flags(self, tmp_path, command, config, flags):
        # A list-valued option reads the same from a JSON list, a comma string or the flag.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
        assert cli.main([command, *flags, "--out", str(tmp_path / "flags")]) == 0
        for name in ("results.csv", "summary.csv"):
            assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    # Each case is (command, config, the flags it stands for or None for a usage error).
    @pytest.mark.parametrize(
        "command, config, flags",
        [
            ("crb-experiment", {"trials": "1"}, ["--trials", "1"]),
            ("crb-experiment", {"trials": 2, "tau": 1, "seed": "3"}, ["--trials", "2", "--tau", "1", "--seed", "3"]),
            ("fdd-experiment", {"workers": "2", "dataset": "x.bin"}, ["--workers", "2", "--dataset", "x.bin"]),
            ("verify-theory", {"skip_slope": True}, ["--skip-slope"]),
            ("crb-experiment", {"trials": 1.7}, None),
            ("crb-experiment", {"trials": "1.7"}, None),
            ("crb-experiment", {"trials": True}, None),
            ("crb-experiment", {"tau": None}, None),
            ("crb-experiment", {"d": [4]}, None),
            ("verify-theory", {"skip_slope": "false"}, None),
            ("verify-theory", {"skip_slope": 0}, None),
        ],
    )
    def test_config_scalars_read_as_flag_text(self, tmp_path, capsys, monkeypatch, command, config, flags):
        seen = []
        monkeypatch.setattr(cli, "_COMMANDS", {command: lambda opts: seen.append(opts) or 0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        if flags is None:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--config", str(cfg)])
            assert exc.value.code == 2
            (key,) = config
            assert f"pmichannel: error: {command}: config key {key!r} in {cfg}: " in capsys.readouterr().err
            assert seen == []
            return
        assert cli.main([command, "--config", str(cfg)]) == 0
        assert cli.main([command, *flags]) == 0
        got, want = seen
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}

    @pytest.mark.parametrize(
        "config",
        [{"rounds": [1.5]}, {"rounds": 3}, {"grid": ["a"]}, {"rounds": "1,x"}, {"grid": []}, {"grid": " , "}],
    )
    def test_bad_list_option_in_config_is_a_usage_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate-tau", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "in " + str(cfg) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fdd-experiment", "--methods", ""],
            ["fdd-experiment", "--rounds", ","],
            ["ablate-tau", "--grid", ""],
            ["ablate-init", "--grid", " "],
        ],
    )
    def test_empty_list_flag_is_a_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    # Each argv is (arguments, config file contents or None).
    @pytest.mark.parametrize(
        "argv",
        [
            (["fdd-experiment", "--rounds", "0", "--samples", "1"], None),
            (["fdd-experiment", "--r", "3", "--samples", "1"], None),
            (["ablate-tau", "--rounds", "1,0", "--samples", "1"], None),
            (["ablate-init", "--r", "3", "--samples", "1"], None),
            (["fdd-experiment", "--methods", "spectral,bogus", "--samples", "1"], None),
            (["fdd-experiment", "--samples", "1"], {"scheme": "bogus"}),
            (["fdd-experiment", "--samples", "1"], {"rounds": [1], "scheme": "bogus"}),
            (["ablate-init", "--grid", "identity,bogus", "--samples", "1"], None),
            (["fdd-experiment", "--tau", "0", "--samples", "1"], None),
            (["fdd-experiment", "--tau", "-0.5", "--samples", "1"], None),
            (["ablate-tau", "--grid", "0", "--samples", "1"], None),
            (["crb-experiment", "--tau", "0"], None),
            (["fdd-experiment", "--samples", "0"], None),
            (["ablate-tau", "--samples", "0"], None),
            (["crb-experiment", "--trials", "0"], None),
            (["crb-experiment", "--d", "2", "--p", "4"], None),
        ],
    )
    def test_bad_rounds_or_r_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr(experiments, "_load_channels", no_work)
        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        args, config = argv
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = [*args, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"{args[0]}: " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["fdd-experiment", "--rounds", "5,5", "--samples", "2"], None),
            (["fdd-experiment", "--samples", "2"], {"methods": ["spectral", "spectral"]}),
            (["ablate-tau", "--grid", "0.5,0.5", "--samples", "2"], None),
            (["ablate-tau", "--samples", "2"], {"grid": [0.5, 1, 0.5]}),
            (["ablate-init", "--grid", "spectral,spectral", "--samples", "2"], None),
            (["crb-experiment", "--rounds", "50,50"], None),
            (["crb-experiment"], {"rounds": "50,100,50"}),
        ],
    )
    def test_repeated_value_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, config):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr(experiments, "_load_channels", no_work)
        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"pmichannel: error: {argv[0]}: repeated " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fdd-experiment", "ablate-tau", "ablate-init"])
    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--samples", "1", "--dataset", "DS"], None),
            ([], {"samples": 1, "dataset": "DS"}),
            (["--dataset", "DS"], {"samples": 1}),
        ],
    )
    def test_samples_with_dataset_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command, flags, config):
        # The file sets the sample count, so a --samples beside it would be ignored.
        path = str(tmp_path / "ds.bin")
        assert cli.main(["dataset-make", "--samples", "2", "--d", "16", path]) == 0

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr(experiments, "_load_channels", no_work)
        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        argv = [command, *(path if a == "DS" else a for a in flags)]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({k: path if v == "DS" else v for k, v in config.items()}))
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"pmichannel: error: {command}: samples cannot be given with a dataset" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag", ["--moment-samples", "--secant-samples", "--slope-trials"]
    )
    def test_verify_theory_zero_count_is_a_usage_error(self, tmp_path, capsys, monkeypatch, flag):
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran before the options were checked")

        monkeypatch.setattr(experiments, "_random_problem", no_check)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-theory", flag, "0", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "verify-theory: " in err and "at least 1" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--skip-slope", "--slope-trials", "7"], None),
            ([], {"skip_slope": True, "slope_trials": 7}),
            (["--skip-slope"], {"slope_trials": 7}),
        ],
    )
    def test_slope_trials_with_skip_slope_is_a_usage_error(self, tmp_path, capsys, monkeypatch, flags, config):
        # With the slope skipped no trial runs, so a trial count would be ignored.
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran before the options were checked")

        monkeypatch.setattr(experiments, "_random_problem", no_check)
        argv = ["verify-theory", *flags, "--out", str(tmp_path / "o")]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "pmichannel: error: verify-theory: slope trials cannot be given with skip-slope" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fdd-experiment", "--d", "4"],
            ["ablate-tau", "--data", "x.bin"],
            ["crb-experiment", "--tri", "2"],
        ],
    )
    def test_flag_abbreviations_are_not_expanded(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started on an abbreviated flag")

        monkeypatch.setattr(experiments, "_load_channels", no_work)
        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, name",
        [
            ("fdd-experiment", "--config", "missing.json"),
            ("fdd-experiment", "--config", "malformed.json"),
            ("fdd-experiment", "--dataset", "missing.bin"),
            ("ablate-tau", "--dataset", "malformed.bin"),
            ("ablate-init", "--dataset", "malformed.bin"),
            ("dataset-inspect", None, "missing.bin"),
            ("dataset-inspect", None, "malformed.bin"),
        ],
    )
    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command, option, name):
        def no_work(*args, **kwargs):
            raise AssertionError("a task ran before the file was read")

        monkeypatch.setattr(experiments, "_run_tasks", no_work)
        (tmp_path / "malformed.json").write_text('{"samples": 1,')
        (tmp_path / "malformed.bin").write_bytes(b"PMICH01\x00" + bytes(4))
        path = str(tmp_path / name)
        if option is None:
            argv = [command, path]
        else:
            # A dataset file sets the sample count, so --samples goes with --config only.
            samples = ["--samples", "1"] if option == "--config" else []
            argv = [command, option, path, *samples, "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"pmichannel: error: {command}: " in err and path in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["crb-experiment", "--workers", "0"], None),
            (["crb-experiment", "--workers", "-3"], None),
            (["fdd-experiment", "--samples", "1"], {"workers": 0}),
            (["verify-theory", "--workers", "0"], None),
        ],
    )
    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, config):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        for name in ("_load_channels", "_run_tasks", "_random_problem"):
            monkeypatch.setattr(experiments, name, no_work)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"pmichannel: error: {argv[0]}: workers must be at least 1" in err
        assert not (tmp_path / "o").exists()


_MODULES = [
    "baselines", "crb", "dataset", "designs", "experiments", "likelihood", "metrics", "model", "theory"
]


@pytest.mark.parametrize("name", _MODULES)
def test_public_names_resolve_and_are_listed(name):
    mod = importlib.import_module(f"pmichannel.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = {
        n
        for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    assert sorted(defined - set(mod.__all__)) == []


def test_package_exports_are_listed_by_their_modules():
    exports = {
        n: obj for n, obj in vars(pmichannel).items() if not n.startswith("_") and not inspect.ismodule(obj)
    }
    assert exports
    for n, obj in exports.items():
        assert n in importlib.import_module(obj.__module__).__all__, n


def test_package_imports_without_scipy():
    """numpy is the package's only runtime dependency: scipy is never imported."""
    src = str(Path(pmichannel.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, pmichannel, pmichannel.cli; "
        "assert pmichannel.__file__.startswith(sys.argv[1]), pmichannel.__file__; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
