import json

import numpy as np
import pytest

from pmichannel import cli, experiments
from pmichannel.dataset import read_dataset


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

    @pytest.mark.parametrize(
        "kw", [{"rounds": (0,)}, {"rounds": (3, -1)}, {"rounds": ()}, {"r": 3}, {"r": 0}]
    )
    def test_bad_rounds_or_r_refused_before_loading(self, monkeypatch, kw):
        def no_load(*args, **kwargs):
            raise AssertionError("channels loaded before the options were checked")

        monkeypatch.setattr(experiments, "_load_channels", no_load)
        with pytest.raises(experiments.InvalidOptionError):
            experiments.run_fdd_experiment(n_samples=1, **kw)


class TestAblationDriver:
    def test_single_grid_point_matches_fdd(self):
        ab = experiments.run_ablation(
            "tau", grid=(1.0,), rounds=(3,), n_samples=3, seed=2
        )
        fdd = experiments.run_fdd_experiment(
            rounds=(3,), n_samples=3, seed=2, tau=1.0,
            methods=("spectral", "subspace-mle"),
        )
        ab_m = {
            (r.trial, r.metric): r.value
            for r in ab
            if r.method == "subspace-mle[tau=1.0]"
        }
        fdd_m = {
            (r.trial, r.metric): r.value for r in fdd if r.method == "subspace-mle"
        }
        assert ab_m == fdd_m
        sum_ab = experiments.summarize_ablation(ab)
        assert all("improvement" in rec for rec in sum_ab)

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
        funcs = experiments._openblas_threads()
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

    def test_ablate_cli(self, tmp_path):
        rc = cli.main(
            [
                "ablate-init", "--grid", "identity,spectral", "--rounds", "2",
                "--samples", "2", "--out", str(tmp_path / "ab"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "ab" / "summary.csv").exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["fdd-experiment", "--rounds", "0"],
            ["fdd-experiment", "--r", "3"],
            ["ablate-tau", "--rounds", "1,0"],
            ["ablate-init", "--r", "3"],
        ],
    )
    def test_bad_rounds_or_r_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--samples", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"{argv[0]}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
