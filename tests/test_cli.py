import math

import numpy as np
import pytest

from udwitness import cli
from udwitness.cli import main, parse_state, parse_traj
from udwitness.errors import InvalidParameterError
from udwitness.trajectory import TrajectoryKind
from udwitness.witness import StateFamily

HEADER = "tau,re_chi,im_chi,re_w,im_w,abs_w,violates"


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

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
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
    ])
    def test_non_finite_parameter_is_invalid(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        rc = main(["witness", "--samples", "5", *args, "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
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

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
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

    def test_acceleration_scan_eval_before_wall(self, tmp_path):
        rc = main([
            "scan-acceleration", "--scan-min", "0.01", "--scan-max", "0.1",
            "--scan-steps", "3", "--eval-at", "10", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_acceleration_scan_bad_tolerance_is_invalid(self, tmp_path, capsys, tol):
        rc = main(["scan-acceleration", "--tol=" + tol, "--out", str(tmp_path / "acc.csv")])
        assert rc == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["scan-velocity", "--scan-steps", "3", "--samples", "50"],
            ["scan-acceleration", "--scan-steps", "3"],
            ["scan-alpha", "--state", "cat:1", "--scan-steps", "3"],
        ],
        ids=["velocity", "acceleration", "alpha"],
    )
    def test_jobs_below_one_is_invalid(self, tmp_path, capsys, monkeypatch, command, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        out = tmp_path / "x.csv"
        assert main(command + ["--jobs", jobs, "--out", str(out)]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_witness_takes_no_jobs(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["witness", "--jobs", "2"])
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


class TestDeterminism:
    def test_witness_repeat_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["witness", "--traj", "accel:1.2", "--tau-max", "15", "--samples", "60"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scan_jobs_do_not_change_bytes(self, tmp_path):
        outs = []
        for jobs, name in [("1", "j1.csv"), ("4", "j4.csv")]:
            path = tmp_path / name
            rc = main([
                "scan-acceleration", "--scan-min", "0.5", "--scan-max", "2.5",
                "--scan-steps", "6", "--eval-at", "60", "--k0", "40", "--L", "80",
                "--lambda", "2.0", "--jobs", jobs, "--out", str(path),
            ])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
