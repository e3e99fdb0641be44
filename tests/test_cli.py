import json
import subprocess
import sys

import numpy as np
import pytest

from cncflsa import (
    CncConfig,
    NoiseSpec,
    PenaltySpec,
    add_awgn,
    cli,
    cnc,
    default_pulse_spec,
    fused_lasso_l1,
    generate_pulses,
    lambda0_grid,
    prox,
    rmse,
    solve,
    tvd,
)
from cncflsa.cli import collect_run_records, read_signal, write_signal
from cncflsa.prox import TVD_BACKEND

from clirun import child_env, run_cli


def test_cached_kernel_import_loads_neither_subprocess_nor_hashlib():
    """Each CLI run pays for every module its import loads; with the kernel
    cache warm (this process built it), the import needs neither module, nor
    sysconfig, which only a build reads for the header paths."""
    code = ("import sys, cncflsa.cli, cncflsa.prox as p; "
            "print(p.TVD_BACKEND, *sorted({'subprocess', 'hashlib', 'sysconfig'} & "
            "set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    backend, *loaded = proc.stdout.split()
    assert backend == TVD_BACKEND
    # Without a compiler there is no cache, and the failed build imports
    # subprocess and sysconfig before it looks for one.
    assert loaded == ([] if backend == "c" else ["subprocess", "sysconfig"])


def assert_write_error(proc):
    """An output file that cannot be written exits 4 with one error line."""
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestSignalIO:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1e3, 200) * 10.0 ** rng.integers(-8, 8, 200)
        path = tmp_path / "sig.txt"
        write_signal(path, x)
        np.testing.assert_array_equal(read_signal(path), x)

    @pytest.mark.parametrize("x", [np.array([1 + 2j]), np.array([1.0, np.inf]), np.array([]),
                                   np.ones((2, 3))], ids=["complex", "inf", "empty", "2-d"])
    def test_a_signal_that_read_signal_rejects_is_not_written(self, tmp_path, x):
        path = tmp_path / "sig.txt"
        path.write_text("1.5\n")
        with pytest.raises(ValueError):
            write_signal(path, x)
        assert path.read_text() == "1.5\n"

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\nnot-a-number\n")
        with pytest.raises(ValueError):
            read_signal(path)

    @pytest.mark.parametrize("text", ["1.5\nnan\n", "inf\n2\n", "1e308\n-1e308\n-inf\n"])
    def test_non_finite_samples_are_a_parse_error(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(cli.SignalParseError, match=r"bad\.txt: non-finite samples$"):
            read_signal(path)

    def test_samples_whose_squares_overflow_are_read(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("1e308\n-1e308\n1e200\n")
        assert read_signal(path).tolist() == [1e308, -1e308, 1e200]


class TestGenerate:
    def test_default_fixture_exact(self, tmp_path):
        out = tmp_path / "clean.txt"
        proc = run_cli("generate", "--output", str(out), "--default")
        assert proc.returncode == 0
        np.testing.assert_array_equal(read_signal(out), generate_pulses(default_pulse_spec()))

    def test_repeat_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        flags = ("--default", "--sigma", "0.5", "--seed", "1")
        assert run_cli("generate", "--output", str(a), *flags).returncode == 0
        assert run_cli("generate", "--output", str(b), *flags).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library_noise(self, tmp_path):
        out = tmp_path / "noisy.txt"
        run_cli("generate", "--output", str(out), "--default", "--sigma", "0.5", "--seed", "7")
        expected = add_awgn(generate_pulses(default_pulse_spec()), NoiseSpec(0.5, 7))
        np.testing.assert_array_equal(read_signal(out), expected)

    def test_explicit_pulses(self, tmp_path):
        out = tmp_path / "p.txt"
        proc = run_cli("generate", "--output", str(out), "--n", "6", "--pulses", "1:2:3.0")
        assert proc.returncode == 0
        np.testing.assert_array_equal(read_signal(out), [0.0, 3.0, 3.0, 0.0, 0.0, 0.0])

    def test_invalid_spec_exit_code(self, tmp_path):
        out = tmp_path / "p.txt"
        proc = run_cli("generate", "--output", str(out), "--n", "4", "--pulses", "0:3:1.0,2:2:1.0")
        assert proc.returncode == 4

    def test_missing_spec_exit_code(self, tmp_path):
        proc = run_cli("generate", "--output", str(tmp_path / "p.txt"))
        assert proc.returncode == 4

    def test_unwritable_output_exit_code(self, tmp_path):
        assert_write_error(run_cli("generate", "--output", str(tmp_path / "absent" / "p.txt"),
                                   "--default"))

    def test_overflowing_sigma_exit_code(self, tmp_path):
        """At sigma = 1e308 the noisy samples overflow: generate exits 4 with
        one error line, writes nothing and warns of nothing, instead of
        writing inf samples that denoise then rejects."""
        out = tmp_path / "p.txt"
        proc = run_cli("generate", "--output", str(out), "--default", "--sigma", "1e308",
                       "--seed", "1")
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not out.exists()


class TestDenoise:
    @pytest.fixture
    def noisy(self, tmp_path):
        path = tmp_path / "noisy.txt"
        run_cli("generate", "--output", str(path), "--default", "--sigma", "0.5", "--seed", "3")
        return path

    def test_lambda0_zero_reproduces_tvd(self, tmp_path, noisy):
        out = tmp_path / "out.txt"
        proc = run_cli(
            "denoise", str(noisy), str(out),
            "--lambda0", "0", "--lambda1", "2.0", "--a0", "0",
        )
        assert proc.returncode == 0
        np.testing.assert_array_equal(read_signal(out), tvd(read_signal(noisy), 2.0))

    @pytest.mark.parametrize("lam0, lam1, a0", [("0", "2.0", 0.0), ("0.4", "0", 0.5 / 0.4)])
    def test_zero_weight_config_writes_the_denoise_bytes(self, tmp_path, noisy, lam0, lam1, a0):
        """A config with a zero weight needs no opt-in, and its solve writes
        what denoise (cnc, atan) writes for the same weights: a0 is 0 when
        lambda0 is, and a1 is 0 when either weight is."""
        cfg = CncConfig(float(lam0), float(lam1), PenaltySpec("atan", a0), PenaltySpec("atan", 0.0))
        expected, out = tmp_path / "expected.txt", tmp_path / "out.txt"
        write_signal(expected, solve(read_signal(noisy), cfg).x)
        assert cli.main(["denoise", str(noisy), str(out),
                         "--lambda0", lam0, "--lambda1", lam1]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_huge_max_iter_writes_the_default_cap_bytes(self, tmp_path, noisy):
        """A cap far beyond the updates run, 1e11 or past a C long, costs
        only the updates run: the solve converges as under the default cap."""
        outs = [tmp_path / f"out{i}.txt" for i in range(3)]
        flags = ("--lambda0", "0.2", "--lambda1", "2")
        for out, cap in zip(outs, ([], ["--max-iter", "100000000000"], ["--max-iter", str(2**70)])):
            proc = run_cli("denoise", str(noisy), str(out), *flags, *cap)
            assert proc.returncode == 0, proc.stderr
        assert outs[1].read_bytes() == outs[2].read_bytes() == outs[0].read_bytes()
        assert json.loads((tmp_path / "out1.txt.json").read_text())["converged"]

    def test_default_a1_puts_margin_on_boundary(self, tmp_path, noisy):
        out = tmp_path / "out.txt"
        proc = run_cli(
            "denoise", str(noisy), str(out),
            "--lambda0", "0.5", "--lambda1", "2.0", "--a0", "0",
        )
        assert proc.returncode == 0
        meta = json.loads((tmp_path / "out.txt.json").read_text())
        assert meta["a1"] == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert abs(meta["convexity_margin"]) <= 1e-12
        assert meta["method"] == "cnc"

    def test_metadata_fields(self, tmp_path, noisy):
        clean = tmp_path / "clean.txt"
        run_cli("generate", "--output", str(clean), "--default")
        out = tmp_path / "out.txt"
        proc = run_cli(
            "denoise", str(noisy), str(out),
            "--lambda0", "0.4", "--lambda1", "2.165",
            "--reference", str(clean),
        )
        assert proc.returncode == 0
        meta = json.loads((tmp_path / "out.txt.json").read_text())
        for key in ("method", "lambda0", "lambda1", "a0", "a1", "penalty",
                    "convexity_margin", "iterations", "converged", "certificate",
                    "newton_steps", "objective_history", "rmse"):
            assert key in meta
        assert len(meta["objective_history"]) == meta["iterations"] + 1
        assert meta["converged"] and meta["certificate"] <= 1e-9
        assert list(meta).index("certificate") == list(meta).index("converged") + 1
        assert meta["rmse"] > 0

    def test_metadata_reports_tvd_backend(self, tmp_path, noisy):
        out = tmp_path / "out.txt"
        proc = run_cli("denoise", str(noisy), str(out), "--lambda0", "0.4", "--lambda1", "2.0")
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((tmp_path / "out.txt.json").read_text())
        assert meta["tvd_backend"] == TVD_BACKEND

    def test_metadata_reports_the_backend_that_ran(self, tmp_path, noisy, monkeypatch):
        """With the library switched off after import, the solve runs the
        Python loop, and the metadata must say so."""
        monkeypatch.setattr(prox, "_tvd_c", None)
        out = tmp_path / "out.txt"
        assert cli.main(["denoise", str(noisy), str(out), "--lambda0", "0.4",
                         "--lambda1", "2.0"]) == 0
        meta = json.loads((tmp_path / "out.txt.json").read_text())
        assert meta["tvd_backend"] == "python"

    def test_an_overflowing_objective_writes_strict_json_quietly(self, tmp_path):
        """The README parameterization (cnc, atan, lambda1 = 0.25*sqrt(300)*0.5,
        lambda0 = lambda1/10) on the fixture at sigma = 0.5, noise seed 1, with
        y and the weights times 1e154: F overflows, so the history was written
        as Infinity, which strict JSON rejects, and numpy warned on stderr.
        The solve certifies; each history entry is null, and stderr is
        empty."""
        noisy, scaled, out = tmp_path / "noisy.txt", tmp_path / "scaled.txt", tmp_path / "out.txt"
        run_cli("generate", "--output", str(noisy), "--default", "--sigma", "0.5", "--seed", "1")
        write_signal(scaled, read_signal(noisy) * 1e154)
        lam1 = 0.25 * float(np.sqrt(300.0)) * 0.5
        proc = run_cli("denoise", str(scaled), str(out), "--lambda0", repr(0.1 * lam1 * 1e154),
                       "--lambda1", repr(lam1 * 1e154))
        assert proc.returncode == 0 and proc.stderr == ""

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        meta = json.loads((tmp_path / "out.txt.json").read_text(), parse_constant=reject)
        assert meta["converged"] and meta["certificate"] <= 1e-9
        assert meta["objective_history"] == [None] * (meta["iterations"] + 1)

    def test_l1_denoise_of_own_output_converges_immediately(self, tmp_path, noisy):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        flags = ("--lambda0", "0.4", "--lambda1", "2.0", "--method", "l1", "--tol", "1e-9")
        assert run_cli("denoise", str(noisy), str(first), *flags).returncode == 0
        assert run_cli("denoise", str(first), str(second), *flags).returncode == 0
        meta = json.loads((tmp_path / "second.txt.json").read_text())
        assert meta["method"] == "l1"
        assert meta["iterations"] == 1
        h = meta["objective_history"]
        assert len(h) == 2
        assert abs(h[0] - h[1]) <= 1e-9 * max(1.0, abs(h[0]))

    def test_deterministic_rerun_bytes(self, tmp_path, noisy):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        flags = ("--lambda0", "0.4", "--lambda1", "2.165", "--penalty", "log")
        assert run_cli("denoise", str(noisy), str(a), *flags).returncode == 0
        assert run_cli("denoise", str(noisy), str(b), *flags).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.txt.json").read_bytes() == (tmp_path / "b.txt.json").read_bytes()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("hello\n")
        proc = run_cli("denoise", str(bad), str(tmp_path / "o.txt"),
                       "--lambda0", "1", "--lambda1", "1")
        assert proc.returncode == 2

    def test_missing_file_exit_code(self, tmp_path):
        proc = run_cli("denoise", str(tmp_path / "absent.txt"), str(tmp_path / "o.txt"),
                       "--lambda0", "1", "--lambda1", "1")
        assert proc.returncode == 2

    def test_convexity_violation_exit_code(self, tmp_path, noisy):
        proc = run_cli(
            "denoise", str(noisy), str(tmp_path / "o.txt"),
            "--lambda0", "1", "--lambda1", "1", "--a0", "0.9", "--a1", "0.3",
        )
        assert proc.returncode == 3

    def test_nonconvex_override_runs(self, tmp_path, noisy):
        proc = run_cli(
            "denoise", str(noisy), str(tmp_path / "o.txt"),
            "--lambda0", "1", "--lambda1", "1", "--a0", "0.9", "--a1", "0.3",
            "--allow-nonconvex",
        )
        assert proc.returncode == 0

    def test_invalid_parameter_exit_code(self, tmp_path, noisy):
        proc = run_cli("denoise", str(noisy), str(tmp_path / "o.txt"),
                       "--lambda0", "-1", "--lambda1", "1")
        assert proc.returncode == 4

    def test_unwritable_output_exit_code(self, tmp_path, noisy):
        assert_write_error(run_cli("denoise", str(noisy), str(tmp_path / "absent" / "o.txt"),
                                   "--lambda0", "0.4", "--lambda1", "2.0"))

    @pytest.mark.parametrize("reference, code", [("hello\n", 2), ("0\n1\n", 4)])
    def test_failed_reference_writes_nothing(self, tmp_path, noisy, reference, code):
        """An unparsable reference exits 2 and one of the wrong length 4,
        both before the output signal is written."""
        ref, out = tmp_path / "ref.txt", tmp_path / "out.txt"
        ref.write_text(reference)
        assert cli.main(["denoise", str(noisy), str(out), "--lambda0", "0.4", "--lambda1", "2.0",
                         "--reference", str(ref)]) == code
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.txt", "ref.txt"]

    def test_unwritable_metadata_writes_nothing(self, tmp_path, noisy):
        """A directory in place of the .json exits 4 before the signal is
        written."""
        (tmp_path / "out.txt.json").mkdir()
        assert cli.main(["denoise", str(noisy), str(tmp_path / "out.txt"),
                         "--lambda0", "0.4", "--lambda1", "2.0"]) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.txt", "out.txt.json"]

    def test_unwritable_signal_keeps_the_older_metadata(self, tmp_path, noisy):
        """A directory in place of the signal exits 4, leaves an older
        .json of the same name as it was, and leaves no temporary file."""
        (tmp_path / "out.txt").mkdir()
        (tmp_path / "out.txt.json").write_text("older\n")
        assert cli.main(["denoise", str(noisy), str(tmp_path / "out.txt"),
                         "--lambda0", "0.4", "--lambda1", "2.0"]) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.txt", "out.txt",
                                                               "out.txt.json"]
        assert (tmp_path / "out.txt.json").read_text() == "older\n"

    def test_failed_metadata_write_keeps_both_older_files(self, tmp_path, noisy, monkeypatch):
        """A write that fails part-way leaves both older files as they were
        and no temporary file."""
        out = tmp_path / "out.txt"
        out.write_text("older signal\n")
        (tmp_path / "out.txt.json").write_text("older\n")

        def full_disk(obj, fh, **kwargs):
            fh.write("{")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.json, "dump", full_disk)
        assert cli.main(["denoise", str(noisy), str(out), "--lambda0", "0.4",
                         "--lambda1", "2.0"]) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.txt", "out.txt",
                                                               "out.txt.json"]
        assert out.read_text() == "older signal\n"
        assert (tmp_path / "out.txt.json").read_text() == "older\n"

    def test_unwritable_signal_leaves_no_metadata(self, tmp_path, noisy):
        (tmp_path / "out.txt").mkdir()
        assert cli.main(["denoise", str(noisy), str(tmp_path / "out.txt"),
                         "--lambda0", "0.4", "--lambda1", "2.0"]) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.txt", "out.txt"]

    def test_subnormal_a0_exit_code(self, tmp_path, noisy):
        proc = run_cli("denoise", str(noisy), str(tmp_path / "o.txt"),
                       "--lambda0", "0.4", "--lambda1", "2.0", "--a0", "1e-310")
        assert proc.returncode == 4, proc.stderr
        assert "normal" in proc.stderr

    def test_huge_atan_a0_exit_code(self, tmp_path, noisy):
        proc = run_cli("denoise", str(noisy), str(tmp_path / "o.txt"), "--penalty", "atan",
                       "--lambda0", "0.4", "--lambda1", "2.0", "--a0", "1e308", "--a1", "0",
                       "--allow-nonconvex")
        assert proc.returncode == 4, proc.stderr
        assert "atan" in proc.stderr and not (tmp_path / "o.txt").exists()


class TestCheckConvexity:
    def test_boundary_convex(self):
        proc = run_cli("check-convexity", "--lambda0", "1", "--lambda1", "1",
                       "--a0", "0.5", "--a1", "0.125")
        assert proc.returncode == 0
        assert "CONVEX" in proc.stdout
        assert "margin 0" in proc.stdout

    def test_violation(self):
        proc = run_cli("check-convexity", "--lambda0", "1", "--lambda1", "1",
                       "--a0", "0.5", "--a1", "0.333333")
        assert proc.returncode == 1
        assert "NONCONVEX" in proc.stdout

    def test_pure_l1(self):
        proc = run_cli("check-convexity", "--lambda0", "3", "--lambda1", "9",
                       "--a0", "0", "--a1", "0")
        assert proc.returncode == 0
        assert "margin 1" in proc.stdout

    def test_invalid_params(self):
        proc = run_cli("check-convexity", "--lambda0", "-3", "--lambda1", "9",
                       "--a0", "0", "--a1", "0")
        assert proc.returncode == 4


class TestSweep:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--axis", "sigma", "--values", "0.25,0.5",
            "--trials", "2", "--methods", "l1,cnc", "--output", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + methods x sigmas

    def test_a0_axis(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--axis", "a0", "--values", "0.5,1.0", "--sigma", "0.5",
            "--trials", "2", "--output", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        i_a0, i_a1, i_l0 = header.index("a0"), header.index("a1"), header.index("lambda0")
        for ln, a0 in zip(lines[1:], (0.5, 1.0)):
            row = ln.split(",")
            assert row[0] == "cnc"
            assert float(row[i_a0]) == a0
            # a1 recomputed from the boundary rule at the tuned lambda0
            lam0, lam1 = float(row[i_l0]), 0.25 * np.sqrt(300) * 0.5
            assert float(row[i_a1]) == pytest.approx((1 - a0 * lam0) / (4 * lam1), rel=1e-10)

    @pytest.mark.parametrize("method, max_iter, converged", [
        ("l1", 1, True), ("cnc", 50, True), ("cnc", 1, False)])
    def test_run_records_keep_converged(self, method, max_iter, converged):
        clean = generate_pulses(default_pulse_spec())
        noisy = [add_awgn(clean, NoiseSpec(0.5, seed)) for seed in (0, 1)]
        lam1 = 0.25 * np.sqrt(300) * 0.5
        # Its one polished update certifies at the default tol 1e-9, not at
        # 1e-15.
        tol = 1e-15 if max_iter == 1 else 1e-9
        records = collect_run_records(method, noisy, clean, 0.3 * lam1, lam1, "atan", 0.5, 0,
                                      max_iter=max_iter, tol=tol)
        assert [r.converged for r in records] == [converged, converged]

    def test_l1_tuning_runs_one_tvd_per_trial(self, monkeypatch):
        """lambda1 is fixed, so the l1 trials of all 20 lambda0 share one
        tvd per realization, and each cell's records are those of
        fused_lasso_l1 per trial, byte for byte."""
        clean = generate_pulses(default_pulse_spec())
        trials, sigma, beta = 4, 0.5, 0.25
        noisy = cli._noisy(clean, sigma, trials, 7)
        cells = []

        def count(fn):
            def counted(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return counted

        def collect(*args, **kwargs):
            records = collect_run_records(*args, **kwargs)
            cells.append((args, kwargs, records))
            return records

        calls = []
        with monkeypatch.context() as m:
            m.setattr(prox, "tvd", count(prox.tvd))
            m.setattr(cli, "tvd", count(cli.tvd))
            m.setattr(cli, "collect_run_records", collect)
            best = cli._tune_lambda0("l1", noisy, clean, sigma, beta, "atan", 7)
        assert len(calls) == trials and len(cells) == 20
        lam1 = cells[0][0][4]
        for args, kwargs, records in cells:
            assert kwargs["denoised"] is not None
            lam0 = args[3]
            for t, (y, record) in enumerate(zip(noisy, records)):
                x = fused_lasso_l1(y, lam0, lam1)
                assert np.float64(record.rmse).tobytes() == np.float64(rmse(x, clean)).tobytes()
                assert record.seed == 7 + t
        assert best in [records for _, _, records in cells]

    def test_a0_tuning_keeps_a_lambda0_that_select_a1_accepts(self, monkeypatch):
        """The 10th grid point at sigma 0.5 puts a0*lambda0 one ulp above 1,
        within MARGIN_TOL, where method_params gives a1 = 0; the tuning
        tries it, so 10 lambda0 are candidates, not 9."""
        clean = generate_pulses(default_pulse_spec())
        noisy = cli._noisy(clean, 0.5, 1, 0)
        a0 = 0.9237604307034013
        assert 0.0 < a0 * lambda0_grid(300, 0.5)[9] - 1.0 <= cnc.MARGIN_TOL
        tried = []

        def collect(*args, **kwargs):
            tried.append(args[3])
            return collect_run_records(*args, **kwargs)

        monkeypatch.setattr(cli, "collect_run_records", collect)
        cli._tune_lambda0("cnc", noisy, clean, 0.5, 0.25, "atan", 0, a0)
        assert len(tried) == 10

    @pytest.mark.parametrize("methods", ["l1", "cnc"])
    @pytest.mark.parametrize("option", [("--tol", "-1"), ("--max-iter", "0")])
    def test_invalid_solve_options_exit_code(self, tmp_path, methods, option):
        """CncConfig checks the options for every method, l1 included,
        and the failed sweep leaves neither the CSV nor its temporary."""
        assert cli.main(["sweep", "--axis", "sigma", "--values", "0.5", "--trials", "1",
                         "--methods", methods, *option, "--output", str(tmp_path / "s.csv")]) == 4
        assert list(tmp_path.iterdir()) == []

    def test_empty_axis_exit_code(self, tmp_path):
        proc = run_cli("sweep", "--axis", "sigma", "--values", ",",
                       "--trials", "2", "--output", str(tmp_path / "s.csv"))
        assert proc.returncode == 4

    @pytest.mark.parametrize("methods", [",", "cnc,cnc"])
    def test_empty_or_repeated_methods_exit_code(self, tmp_path, methods):
        """An empty --methods, or one that names a method twice, is
        rejected before the output is opened, as an empty --values is, not
        written as a header-only CSV or with repeated rows."""
        proc = run_cli("sweep", "--axis", "sigma", "--values", "0.5", "--methods", methods,
                       "--trials", "1", "--output", str(tmp_path / "s.csv"))
        assert proc.returncode == 4
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("methods", ["l1", "mdfl,cnc", "cnc,l1"])
    def test_a0_axis_rejects_methods_other_than_cnc(self, tmp_path, methods):
        """The a0 axis sweeps cnc alone, so any other --methods is rejected
        rather than written as cnc rows."""
        proc = run_cli("sweep", "--axis", "a0", "--values", "0.5", "--methods", methods,
                       "--trials", "1", "--output", str(tmp_path / "s.csv"))
        assert proc.returncode == 4
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_exit_code(self, tmp_path):
        assert_write_error(run_cli("sweep", "--axis", "sigma", "--values", "0.5", "--trials", "1",
                                   "--methods", "l1", "--output", str(tmp_path / "absent" / "s.csv")))

    def test_unwritable_output_fails_before_any_solve(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran before its output was opened")

        monkeypatch.setattr(cli, "sweep_sigma", unreachable)
        code = cli.main(["sweep", "--axis", "sigma", "--values", "0.5",
                         "--output", str(tmp_path / "absent" / "s.csv")])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_directory_output_fails_before_any_solve(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran before its output was checked")

        monkeypatch.setattr(cli, "sweep_sigma", unreachable)
        assert cli.main(["sweep", "--axis", "sigma", "--values", "0.5",
                         "--output", str(tmp_path)]) == 4
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [None, b"method,axis\nl1,a0\n"])
    def test_failed_sweep_leaves_the_output_as_it_was(self, tmp_path, existing):
        out = tmp_path / "s.csv"
        if existing is not None:
            out.write_bytes(existing)
        # With a0 = 1000 no lambda0 of the grid has a0*lambda0 <= 1.
        assert cli.main(["sweep", "--axis", "a0", "--values", "1000", "--trials", "1",
                         "--output", str(out)]) == 4
        assert list(tmp_path.iterdir()) == ([] if existing is None else [out])
        assert existing is None or out.read_bytes() == existing

    @pytest.mark.parametrize("flags", [("--axis", "a0", "--values", "1e308"),
                                       ("--axis", "sigma", "--values", "1e300",
                                        "--beta", "1e300")])
    def test_overflowing_lambda_arithmetic_fails_without_a_warning(self, tmp_path, flags):
        """a0*lambda0 past the largest float leaves no feasible lambda0, and
        beta*sqrt(n)*sigma past it is rejected by lambda1_heuristic: each
        sweep exits 4 with one error line, even with every warning an
        error.  numpy's overflow warnings of the two products came first,
        and the second error named lam, a parameter never given."""
        proc = subprocess.run(
            [sys.executable, "-m", "cncflsa.cli", "sweep", *flags, "--trials", "1",
             "--output", str(tmp_path / "s.csv")],
            capture_output=True, text=True, env={**child_env(), "PYTHONWARNINGS": "error"})
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr and "lam " not in proc.stderr

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ("--axis", "sigma", "--values", "0.5", "--trials", "2", "--methods", "cnc")
        assert run_cli("sweep", *flags, "--output", str(a)).returncode == 0
        assert run_cli("sweep", *flags, "--output", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
