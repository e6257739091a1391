import argparse
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from udwitness import cli, response
from udwitness.cli import main, parse_state, parse_traj
from udwitness.errors import InvalidParameterError, NumericalFailure
from udwitness.trajectory import TrajectoryKind
from udwitness.witness import StateFamily, StateSpec, asymptote_value

HEADER = "tau,re_chi,im_chi,re_w,im_w,abs_w,violates"

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    text = path.read_text()
    lines = text.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestParsers:
    def test_states(self):
        assert parse_state("fock:2").family is StateFamily.FOCK
        assert parse_state("cat:1.5").alpha0 == 1.5
        assert parse_state("coherent:0.5,-0.25").alpha0 == 0.5 - 0.25j
        assert parse_state("thermal:0.7").nbar == 0.7

    def test_bad_states(self):
        for text in ("fock", "fock:x", "squeezed:1", "coherent:1", "cat:-2"):
            with pytest.raises(InvalidParameterError):
                parse_state(text)

    def test_readme_commands_parse(self):
        # Every command of README.md's CLI block names only options that exist.
        block = README.read_text().split("## CLI", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("udwitness ")]
        commands = [line.split()[1:] for line in lines]
        assert len(commands) == 6
        parser = cli._build_parser()
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]

    def test_trajs(self):
        assert parse_traj("static", 1.0, 4.0).kind is TrajectoryKind.STATIC
        assert parse_traj("inertial:0.5", 1.0, 4.0).v == 0.5
        assert parse_traj("accel:0.8", 1.0, 4.0).a == 0.8

    def test_bad_trajs(self):
        for text in ("orbit", "inertial:1.5", "accel:-1", "inertial:x"):
            with pytest.raises(InvalidParameterError):
                parse_traj(text, 1.0, 4.0)


class TestWitnessCommand:
    def test_coherent_run_all_classical(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main([
            "witness", "--state", "coherent:1,0", "--traj", "inertial:0.6",
            "--tau-max", "20", "--samples", "50", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == HEADER
        assert len(rows) == 50
        assert all(float(r[5]) == 1.0 for r in rows)
        assert all(r[6] == "false" for r in rows)

    def test_omega_override_reproduces_oscillations(self, tmp_path):
        out = tmp_path / "intro.csv"
        rc = main([
            "witness", "--state", "fock:1", "--omega-override", f"{4.0 / math.sqrt(math.pi)}",
            "--lambda", "1.7", "--tau-max", "6", "--samples", "600", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        abs_w = np.array([float(r[5]) for r in rows])
        assert abs_w.max() > 8.0
        assert any(r[6] == "true" for r in rows)

    def test_omega_override_needs_static(self, tmp_path):
        rc = main([
            "witness", "--state", "fock:1", "--omega-override", "2.0",
            "--traj", "inertial:0.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_omega_override_bad_tolerance_is_invalid(self, tmp_path, capsys, tol):
        rc = main([
            "witness", "--state", "fock:1", "--omega-override", "2.2", "--lambda", "1.7",
            "--tol=" + tol, "--out", str(tmp_path / "w.csv"),
        ])
        assert rc == 2
        assert "tol" in capsys.readouterr().err

    def test_empty_grid_is_invalid(self, tmp_path):
        rc = main(["witness", "--samples", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_state_is_invalid(self, tmp_path):
        rc = main(["witness", "--state", "plasma:1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["--lambda", "nan"],
        ["--lambda", "inf"],
        ["--m", "nan"],
        ["--L", "inf"],
        ["--state", "thermal:nan"],
        ["--state", "coherent:nan,0"],
        ["--state", "cat:nan"],
        ["--omega-override", "nan"],
        ["--omega-override", "2.2", "--lambda", "nan"],
        ["--traj", "accel:inf"],
    ])
    def test_non_finite_parameter_is_invalid(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        rc = main(["witness", "--samples", "5", *args, "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_mass_is_invalid_without_runtime_warning(self, tmp_path, capsys):
        # omega = 1e308 is finite, but its phase omega*tau over the grid is not.
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([
                "witness", "--m", "1e308", "--k0", "2", "--L", "4", "--samples", "3",
                "--out", str(out),
            ])
        assert rc == 2
        assert "omega=1e+308 at tau=50.0" in capsys.readouterr().err
        assert not out.exists()

    def test_lf_endings_and_format(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["witness", "--samples", "5", "--tau-max", "2", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        header, rows = read_csv(out)
        assert rows[0][0] == "0"  # canonical zero, no minus sign

    def test_accelerated_run(self, tmp_path):
        out = tmp_path / "acc.csv"
        rc = main([
            "witness", "--traj", "accel:0.8", "--tau-max", "20", "--samples", "40",
            "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 40

    def test_tiny_acceleration_follows_the_static_curve(self, tmp_path):
        # At a = 1e-21 the wall is 4.5e12 time units away (1 + a*d rounds
        # to 1): over tau <= 30 the detector barely moves, so |W| is the
        # static detector's, not the frozen |W| = 1 of a detector at the wall.
        rows = []
        for traj in ("accel:1e-21", "static"):
            out = tmp_path / f"{traj}.csv"
            argv = ["witness", "--traj", traj, "--tau-max", "30", "--samples", "31", "--out", str(out)]
            assert main(argv) == 0
            rows.append(np.array([r[:6] for r in read_csv(out)[1]], dtype=float))
        tiny, static = rows
        assert abs(tiny[-1, 5] - 0.335857262959) < 1e-9
        np.testing.assert_allclose(tiny, static, rtol=0, atol=1e-9)

    def test_unreachable_tolerance_exits_3(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        rc = main([
            "witness", "--traj", "accel:1.0", "--k0", "2", "--L", "4", "--lambda", "1",
            "--tau-max", "2", "--samples", "5", "--tol", "1e-300", "--out", str(out),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure at tau=" in err and "quadrature" in err
        assert out.exists()  # CSV still written, invalid samples hold NaN

    def test_starting_panels_over_the_cap_exit_3(self, tmp_path, capsys):
        rc = main([
            "witness", "--traj", "static", "--force-quadrature", "--tau-max", "1e9",
            "--samples", "3", "--out", str(tmp_path / "w.csv"),
        ])
        assert rc == 3
        assert "panel cap" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_is_invalid(self, tmp_path, capsys, tol):
        rc = main([
            "witness", "--traj", "accel:0.8", "--tol=" + tol, "--out", str(tmp_path / "w.csv"),
        ])
        assert rc == 2
        assert "tol" in capsys.readouterr().err


class TestScanCommands:
    def test_velocity_scan_small(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main([
            "scan-velocity", "--scan-min", "0.5", "--scan-max", "0.9", "--scan-steps", "5",
            "--tau-max", "30", "--samples", "400", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == "velocity,avg_abs_w"
        assert len(rows) == 5
        vels = [float(r[0]) for r in rows]
        assert vels == sorted(vels)
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_velocity_scan_range_validation(self, tmp_path):
        rc = main([
            "scan-velocity", "--scan-min", "0.5", "--scan-max", "1.2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    def test_acceleration_scan_zero_coupling(self, tmp_path):
        out = tmp_path / "acc.csv"
        rc = main([
            "scan-acceleration", "--lambda", "0", "--scan-min", "0.5", "--scan-max", "2.0",
            "--scan-steps", "4", "--eval-at", "500", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == "acceleration,asymptote_abs_w"
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_tiny_acceleration_scan_refuses_eval_before_wall(self, tmp_path, capsys):
        # The wall is 4.5e12 time units away at a = 1e-21, not at tau = 0.
        out = tmp_path / "x.csv"
        rc = main([
            "scan-acceleration", "--scan-min", "1e-21", "--scan-max", "2e-21",
            "--scan-steps", "2", "--eval-at", "500", "--out", str(out),
        ])
        assert rc == 2
        assert "precedes the wall-arrival time 4.47" in capsys.readouterr().err
        assert not out.exists()

    def test_acceleration_scan_eval_before_wall(self, tmp_path):
        rc = main([
            "scan-acceleration", "--scan-min", "0.01", "--scan-max", "0.1",
            "--scan-steps", "3", "--eval-at", "10", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("scan", [
        ["scan-acceleration", "--scan-min", "0.5", "--scan-max", "2.0"],
        ["scan-alpha", "--state", "cat:1", "--traj", "accel:0.8"],
    ])
    def test_nan_eval_at_is_named(self, tmp_path, capsys, scan):
        out = tmp_path / "x.csv"
        rc = main(scan + ["--scan-steps", "3", "--eval-at", "nan", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--eval-at nan " in err and "time grid" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scan", [
        ["scan-acceleration", "--scan-min", "0.5", "--scan-max", "2.0"],
        ["scan-alpha", "--state", "cat:1", "--traj", "accel:0.8"],
    ])
    def test_infinite_eval_at_reads_the_wall(self, tmp_path, scan):
        # Every scanned trajectory reaches the wall before T = 500, so
        # T = inf reads the same frozen values.
        texts = []
        for eval_at in ("500", "inf"):
            out = tmp_path / f"at-{eval_at}.csv"
            assert main(scan + ["--scan-steps", "4", "--eval-at", eval_at, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert b"nan" not in texts[0]

    @pytest.mark.parametrize("extra,failing", [
        ([], "none"),
        # the cat witness's cosh overflows at the larger amplitudes
        (["--lambda", "300", "--scan-max", "400"], "some"),
        # no point meets the tolerance: every one stalls
        (["--k0", "2", "--L", "4", "--lambda", "1", "--eval-at", "60", "--tol", "1e-300"], "all"),
    ], ids=["plain", "cosh-overflow", "stall"])
    def test_alpha_scan_takes_chi_once(self, tmp_path, capsys, monkeypatch, extra, failing):
        # One quadrature for the whole scan, and the CSV and warnings of
        # asymptote_value point by point.
        args = [
            "scan-alpha", "--state", "cat:1", "--traj", "accel:0.8", "--scan-min", "0.5",
            "--scan-max", "40", "--scan-steps", "30", "--eval-at", "100", *extra,
        ]
        calls = []
        quadrature = response._quadrature
        monkeypatch.setattr(
            response, "_quadrature", lambda *a: calls.append(a) or quadrature(*a)
        )
        out = tmp_path / "al.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert len(calls) == 1
        warned = capsys.readouterr().err
        parsed = cli._build_parser().parse_args(args)
        cavity, coupling = cli._cavity_and_coupling(parsed)
        traj = parse_traj(parsed.traj, cavity.x0, cavity.L)
        alphas = np.linspace(parsed.scan_min, parsed.scan_max, parsed.scan_steps)
        metrics = cli._run_scan(alphas, lambda a0: asymptote_value(
            StateSpec.cat(a0), cavity, coupling, traj, parsed.eval_at, tol=parsed.tol
        ))
        assert len(calls) == 1 + alphas.size
        rows = cli._scan_lines("alpha0,asymptote_abs_w", alphas, metrics)
        assert out.read_text() == "".join(f"{row}\n" for row in rows)
        assert capsys.readouterr().err == warned
        failed = warned.count("failed: asymptote evaluation did not meet the tolerance")
        assert {"none": failed == 0, "some": 0 < failed < alphas.size,
                "all": failed == alphas.size}[failing]

    def test_alpha_scan_failure_to_take_chi_fails_every_point(self, tmp_path, capsys, monkeypatch):
        # A chi refused at the panel cap is one NumericalFailure, reported at
        # every point as asymptote_value raises it point by point.
        monkeypatch.setattr(response, "_MAX_PANELS", 4)
        out = tmp_path / "al.csv"
        rc = main([
            "scan-alpha", "--state", "cat:1", "--traj", "accel:0.8", "--scan-steps", "3",
            "--eval-at", "100", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert [r[1] for r in rows] == ["nan"] * 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        assert all("failed: the starting panel count of mode k=" in line for line in lines)

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_acceleration_scan_bad_tolerance_is_invalid(self, tmp_path, capsys, tol):
        rc = main(["scan-acceleration", "--tol=" + tol, "--out", str(tmp_path / "acc.csv")])
        assert rc == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["witness", "scan-velocity", "scan-acceleration", "scan-alpha", "oracle"]
    )
    def test_no_command_takes_jobs(self, capsys, command):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--jobs", "2"])
        assert exc_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_alpha_scan_requires_cat(self, tmp_path):
        rc = main([
            "scan-alpha", "--state", "fock:1", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    def test_failing_scan_point_becomes_nan_with_warning(self, tmp_path, capsys):
        # an unreachable tolerance fails every point; the scan still completes
        out = tmp_path / "nan.csv"
        rc = main([
            "scan-acceleration", "--k0", "2", "--L", "4", "--lambda", "1",
            "--scan-min", "0.8", "--scan-max", "1.6", "--scan-steps", "3",
            "--eval-at", "60", "--tol", "1e-300", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert all(r[1] == "nan" for r in rows)
        assert "failed" in capsys.readouterr().err

    def test_alpha_scan_small(self, tmp_path):
        out = tmp_path / "al.csv"
        rc = main([
            "scan-alpha", "--state", "cat:1", "--traj", "accel:0.8",
            "--scan-min", "0.5", "--scan-max", "1.5", "--scan-steps", "3",
            "--eval-at", "100", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == "alpha0,asymptote_abs_w"
        assert len(rows) == 3

    def test_alpha_scan_violations_only_at_small_alpha(self, tmp_path):
        out = tmp_path / "al_wide.csv"
        rc = main([
            "scan-alpha", "--state", "cat:1", "--traj", "accel:0.8",
            "--scan-min", "0.1", "--scan-max", "3.0", "--scan-steps", "30",
            "--eval-at", "100", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        alphas = np.array([float(r[0]) for r in rows])
        metrics = np.array([float(r[1]) for r in rows])
        violating = alphas[metrics > 1.0]
        classical = alphas[metrics <= 1.0]
        assert violating.size > 0 and classical.size > 0
        assert violating.max() < classical.min()


class TestOracleCommand:
    def test_coherent_subset_passes(self, capsys):
        rc = main(["oracle", "--states", "coherent", "--kmax", "8", "--no-trotter"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_small_cutoff_fails_with_exit_3(self, capsys):
        rc = main(["oracle", "--states", "coherent", "--kmax", "4", "--cutoff", "4",
                   "--no-trotter"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "first failing check" in captured.err

    def test_unknown_state_rejected(self):
        assert main(["oracle", "--states", "squeezed"]) == 2

    def test_basis_over_the_cap_fails_its_checks_with_exit_3(self, capsys):
        rc = main(["oracle", "--states", "coherent", "--kmax", "4", "--cutoff", "20000",
                   "--no-trotter"])
        assert rc == 3
        out = capsys.readouterr().out
        assert out.count("FAIL") == 4 and out.count("over the basis cap 4096") == 4


class TestWorkCaps:
    """Grid sizes, scan sizes and the Fock degree are refused before any work."""

    def test_samples_over_the_cap_fail_before_the_grid(self, fails_fast):
        args = argparse.Namespace(samples=2_000_000_000, tau_max=50.0)
        fails_fast(
            lambda: cli._grid(args),
            NumericalFailure,
            "--samples is 2000000000, over the sample cap 5000000",
        )

    def test_scan_steps_over_the_cap_fail_before_the_scan(self, fails_fast):
        args = argparse.Namespace(scan_min=0.1, scan_max=2.0, scan_steps=2_000_000_000)
        fails_fast(
            lambda: cli._scan_values(args, "acceleration", "must be positive and increasing"),
            NumericalFailure,
            "--scan-steps is 2000000000, over the scan step cap 1000000",
        )

    @pytest.mark.parametrize("argv, cap", [
        (["witness", "--samples", "2000000000"], "sample cap 5000000"),
        (["witness", "--state", "fock:100000000"], "degree cap 1000000"),
        (["scan-velocity", "--scan-steps", "2000000000"], "scan step cap 1000000"),
        (["scan-acceleration", "--scan-steps", "2000000000"], "scan step cap 1000000"),
        (["scan-alpha", "--state", "cat:1", "--scan-steps", "2000000000"], "scan step cap 1000000"),
    ])
    def test_oversized_run_exits_3(self, tmp_path, capsys, argv, cap):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 3
        assert cap in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["scan-acceleration", "--scan-max", "inf"], "--scan-max inf"),
        (["scan-acceleration", "--scan-min=-inf"], "--scan-min -inf"),
        (["scan-alpha", "--state", "cat:1", "--scan-max", "inf"], "--scan-max inf"),
        (["scan-velocity", "--scan-min", "nan"], "--scan-min nan"),
        (["witness", "--tau-max", "inf"], "--tau-max inf"),
        (["scan-velocity", "--tau-max", "inf"], "--tau-max inf"),
    ])
    def test_non_finite_grid_or_scan_bound_is_invalid(self, tmp_path, capsys, argv, option):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert option in err and "finite" in err
        assert not out.exists()


class TestDeterminism:
    def test_witness_repeat_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["witness", "--traj", "accel:1.2", "--tau-max", "15", "--samples", "60"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scan_repeat_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            rc = main([
                "scan-acceleration", "--scan-min", "0.5", "--scan-max", "2.5",
                "--scan-steps", "6", "--eval-at", "60", "--k0", "40", "--L", "80",
                "--lambda", "2.0", "--out", str(path),
            ])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestStreamedOutput:
    """CSV rows are written as they are formatted, a block of samples at a time."""

    @staticmethod
    def _reference_text(series):
        """The rows formatted sample by sample from the arrays, joined at once."""
        lines = [HEADER]
        for i, tau in enumerate(series.taus):
            row = [
                cli._fmt(tau), cli._fmt(series.chi[i].real), cli._fmt(series.chi[i].imag),
                cli._fmt(series.w[i].real), cli._fmt(series.w[i].imag),
                cli._fmt(series.w_abs[i]), "true" if series.violates[i] else "false",
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("argv", [
        ["--state", "cat:1.5", "--samples", "31", "--tau-max", "20"],
        ["--traj", "accel:1.0", "--k0", "2", "--L", "4", "--lambda", "1",
         "--tau-max", "2", "--samples", "23", "--tol", "1e-300"],  # NaN rows
    ])
    def test_blocks_match_sample_by_sample_formatting(self, tmp_path, capsys, monkeypatch, argv):
        series, lines_of = [], cli._series_lines

        def capture(s):
            series.append(s)
            return lines_of(s)

        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        monkeypatch.setattr(cli, "_series_lines", capture)
        out = tmp_path / "w.csv"
        rc = main(["witness", *argv, "--out", str(out)])
        s = series[0]
        assert rc == (0 if s.ok.all() else 3)
        assert out.read_bytes() == self._reference_text(s).encode()
        capsys.readouterr()
        main(["witness", *argv])
        assert capsys.readouterr().out == self._reference_text(s)

    def test_scan_to_stdout_equals_file(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        argv = ["scan-velocity", "--scan-steps", "5", "--samples", "200", "--tau-max", "20"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert out.read_text() == text
        assert text.startswith("velocity,avg_abs_w\n") and text.count("\n") == 6

    def test_witness_does_not_hold_its_text(self, tmp_path):
        # Holding every row as text traced about 358 bytes a sample; the
        # numeric arrays and one block of rows trace about 100.
        n = 20_000
        tracemalloc.start()
        try:
            assert main(["witness", "--samples", str(n), "--out", str(tmp_path / "w.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 150 * n

