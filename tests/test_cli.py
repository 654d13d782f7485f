"""CLI contract: subcommands, exit codes, output formats."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from pvbatsim import cli, engine, pv
from pvbatsim.errors import ConvergenceError

SHORT_CONFIG = """\
simulation:
  t_end_s: 600
profiles:
  synthetic:
    g_peak_wm2: 900.0
"""

#: SHA-256 of the default day's CSV and ledger.
DEFAULT_DAY_SHA256 = ("5a18b1177bf1edc2ff458fc6fc904ed7767b27f08007712793c6e84f046d3c77",
                      "6633012b10f919155d2801b1bc950893d4ce9e31fe499af43b64405bbb91d956")


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def short_config(tmp_path):
    path = tmp_path / "short.yaml"
    path.write_text(SHORT_CONFIG, encoding="utf-8")
    return str(path)


def write_csv_profiles(tmp_path, irr_rows, t_end=60):
    """Constant temperature/load plus the given irradiance rows; returns a config path."""
    irr = tmp_path / "irr.csv"
    irr.write_text("time_s,irradiance_wm2\n" + irr_rows, encoding="utf-8")
    temp = tmp_path / "temp.csv"
    temp.write_text(f"time_s,temperature_c\n0,25\n{t_end},25\n", encoding="utf-8")
    load = tmp_path / "load.csv"
    load.write_text(f"time_s,load_w\n0,100\n{t_end},100\n", encoding="utf-8")
    cfg = tmp_path / "cmp.yaml"
    cfg.write_text(
        f"simulation:\n  t_end_s: {t_end}\n"
        "profiles:\n"
        f"  irradiance: {{csv: {irr}}}\n"
        f"  temperature: {{csv: {temp}}}\n"
        f"  load: {{csv: {load}}}\n",
        encoding="utf-8",
    )
    return str(cfg)


class TestModesCheck:
    def test_golden_table(self, capsys):
        assert cli.main(["modes-check"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "Mode1 On On Off\n"
            "Mode2 Off On On\n"
            "Mode3 Off Off On\n"
            "Mode4 Off On Off\n"
            "Mode5 Off Off Off\n"
        )

    def test_repeatable(self, capsys):
        cli.main(["modes-check"])
        first = capsys.readouterr().out
        cli.main(["modes-check"])
        assert capsys.readouterr().out == first


class TestIvCurve:
    def test_dark_curve(self, tmp_path, capsys):
        out = tmp_path / "dark.csv"
        assert cli.main(["iv-curve", "--g", "0", "--points", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "v,i,p"
        assert lines[-1].startswith("mpp,")
        assert lines[-1].split(",")[2] == "0.0"
        for line in lines[1:-1]:
            assert float(line.split(",")[1]) == 0.0

    def test_two_point_sweep(self, tmp_path, capsys):
        out = tmp_path / "two.csv"
        assert cli.main(["iv-curve", "--points", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header, short-circuit, open-circuit, trailer
        assert float(lines[1].split(",")[0]) == 0.0
        assert abs(float(lines[2].split(",")[1])) <= 1e-9

    def test_trailer_matches_oracle(self, tmp_path, capsys):
        from pvbatsim import pv
        from pvbatsim.config import build_sim_config

        out = tmp_path / "curve.csv"
        assert cli.main(["iv-curve", "--out", str(out)]) == 0
        trailer = out.read_text().splitlines()[-1].split(",")
        panel = build_sim_config().panel
        v_mpp, p_mpp = pv.mpp_oracle(1000.0, 298.15, panel)
        assert abs(float(trailer[2]) - p_mpp) <= 1e-4 * p_mpp

    def test_bad_flags(self, tmp_path, capsys):
        assert cli.main(["iv-curve", "--g", "-5", "--out", str(tmp_path / "x.csv")]) == 1
        assert cli.main(["iv-curve", "--points", "1", "--out", str(tmp_path / "x.csv")]) == 1

    def test_extreme_temperature_finishes(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pvbatsim", "iv-curve", "--t", "1e6", "--points", "5",
             "--out", str(tmp_path / "hot.csv")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert "--t" in proc.stderr
        assert "Traceback" not in proc.stderr

    # the default day's profile (15-35 degC) passes both panels; --t 200 does not
    @pytest.mark.parametrize("panel,key", [
        ("{k_i: -0.01}", "panel.k_i"),  # photocurrent factor negative above 126 degC
        # (t_j / t_ref)**10 puts the saturation current at 5e4 A at 35 degC, 4e6 A at 200
        ("{t_ref: 20, i_0_temp_exp: 10}", "panel.t_ref"),
    ], ids=["k-i", "t-ref"])
    def test_t_checked_against_panel_laws(self, panel, key, tmp_path, capsys):
        from pvbatsim.config import build_sim_config, load_config_file

        cfg = tmp_path / "panel.yaml"
        cfg.write_text(f"panel: {panel}\n", encoding="utf-8")
        build_sim_config(load_config_file(str(cfg)))
        out = tmp_path / "hot.csv"
        argv = ["iv-curve", "--config", str(cfg), "--t", "200", "--points", "5", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"config error: {key}" in err and "--t" in err
        assert not out.exists()

    def test_huge_photocurrent_converges(self, tmp_path, capsys):
        # 1e6 A of photocurrent per panel: the solve ends about 2e-9 A off, which the
        # relative tolerance accepts
        cfg = tmp_path / "bright.yaml"
        cfg.write_text("panel: {i_ph_ref: 1000}\n", encoding="utf-8")
        out = tmp_path / "bright.csv"
        argv = ["iv-curve", "--config", str(cfg), "--g", "1e6", "--points", "5", "--out", str(out)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 7

    def test_file_ends_with_newline(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        cli.main(["iv-curve", "--points", "5", "--out", str(out)])
        assert out.read_text().endswith("\n")

    def test_peak_memory_does_not_grow_with_points(self, tmp_path, capsys):
        out = str(tmp_path / "curve.csv")

        def sweep(points):
            assert cli.main(["iv-curve", "--points", str(points), "--out", out]) == 0

        sweep(2000)  # imports and first-call caches, untraced
        peaks = {}
        tracemalloc.start()
        try:
            for points in (2000, 20000):
                tracemalloc.reset_peak()
                sweep(points)
                peaks[points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[20000] <= peaks[2000] + 0.2e6, peaks

    @pytest.mark.parametrize("flags,digest", [
        ([], "3c1e261b4b9f7259b21397cf27c35d110b5e60d979001f2b7a6ddd1cd8e7930a"),
        (["--g", "300", "--t", "-10", "--points", "500"],
         "4cb826eb0b95a619f6f67f99965d3c6cdd84589bc74032a4d2a513e26b846168"),
    ], ids=["default", "g300-cold-500"])
    def test_bytes_pinned(self, flags, digest, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert cli.main(["iv-curve", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSimulate:
    def test_short_run(self, short_config, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main(["simulate", "--config", short_config, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 601  # header + 600 rows
        assert lines[0].startswith("t_s,")
        assert (tmp_path / "run.csv.ledger").exists()

    def test_mppt_override_in_csv(self, short_config, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cli.main(["simulate", "--config", short_config, "--out", str(out), "--mppt", "po"])
        rows = out.read_text().splitlines()[1:]
        assert all(row.endswith(",po") for row in rows)

    def test_invalid_thresholds_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("supervisor:\n  soc_min: 0.9\n  soc_max: 0.3\n", encoding="utf-8")
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "soc_min" in err and "soc_max" in err

    @pytest.mark.parametrize("section,key,value", [
        ("simulation", "dt_s", ".nan"),
        ("simulation", "t_end_s", ".inf"),
        ("battery", "c_10_ah", ".nan"),
    ])
    def test_non_finite_number_exit_1(self, section, key, value, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"{section}:\n  {key}: {value}\n", encoding="utf-8")
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err
        assert "Traceback" not in err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_unwritable_out_exit_2(self, short_config, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "o.csv"
        assert cli.main(["simulate", "--config", short_config, "--out", str(out)]) == 2

    def test_env_var_config(self, short_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, short_config)
        out = tmp_path / "env.csv"
        assert cli.main(["simulate", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 601

    def test_full_default_day_row_count(self, tmp_path, capsys):
        # 24 h at 1 s: header + 86400 rows, newline-terminated files
        out = tmp_path / "day.csv"
        assert cli.main(["simulate", "--out", str(out)]) == 0
        text = out.read_text()
        assert len(text.splitlines()) == 86401
        assert text.endswith("\n")
        ledger = (tmp_path / "day.csv.ledger").read_bytes()
        assert ledger.endswith(b"\n")
        # byte-identity pin of the default day
        assert (hashlib.sha256(text.encode()).hexdigest(),
                hashlib.sha256(ledger).hexdigest()) == DEFAULT_DAY_SHA256


class TestSimulateStreaming:
    """Rows go to disk as the run makes them; only a finished run replaces --out."""

    @staticmethod
    def simulate_default_day(tmp_path, dt_s):
        cfg = tmp_path / f"dt{dt_s}.yaml"
        cfg.write_text(f"simulation:\n  dt_s: {dt_s}\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0

    def test_peak_memory_does_not_grow_with_steps(self, tmp_path, capsys):
        self.simulate_default_day(tmp_path, 60)  # imports and first-call caches, untraced
        peaks = {}
        tracemalloc.start()
        try:
            for dt_s in (60, 15):  # 1,440 and 5,760 steps
                tracemalloc.reset_peak()
                self.simulate_default_day(tmp_path, dt_s)
                peaks[dt_s] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[15] <= peaks[60] + 0.5e6, peaks

    def test_failed_run_leaves_outputs_untouched(self, short_config, tmp_path, capsys,
                                                 monkeypatch):
        out = tmp_path / "run.csv"
        out.write_bytes(b"previous records\n")
        ledger = tmp_path / "run.csv.ledger"
        ledger.write_bytes(b"previous ledger\n")
        real_solve = pv.operating_point
        solves = []

        def failing_solve(*args):
            solves.append(args)
            if len(solves) == 6:  # the PV solve of step 5
                raise ConvergenceError("injected failure")
            return real_solve(*args)

        monkeypatch.setattr(pv, "operating_point", failing_solve)
        assert cli.main(["simulate", "--config", short_config, "--out", str(out)]) == 3
        assert "step 5 (t=5.0): PV solve failed: injected failure" in capsys.readouterr().err
        assert out.read_bytes() == b"previous records\n"
        assert ledger.read_bytes() == b"previous ledger\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.ledger",
                                                              "short.yaml"]


    @pytest.mark.parametrize("directory", ["run.csv", "run.csv.ledger"], ids=["out", "ledger"])
    def test_output_directory_fails_before_step_0(self, directory, short_config, tmp_path,
                                                  capsys, monkeypatch):
        out = tmp_path / "run.csv"
        ledger = tmp_path / "run.csv.ledger"
        for path in (out, ledger):
            if path.name == directory:
                path.mkdir()
            else:
                path.write_bytes(b"previous " + path.name.encode() + b"\n")

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        # every step solves the PV point
        monkeypatch.setattr(pv, "operating_point", no_step)
        assert cli.main(["simulate", "--config", short_config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / directory) in err
        assert "Traceback" not in err
        for path in (out, ledger):
            if path.name == directory:
                assert path.is_dir() and not any(path.iterdir())
            else:
                assert path.read_bytes() == b"previous " + path.name.encode() + b"\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.ledger",
                                                              "short.yaml"]


class TestCsvWriterProcess:
    """``simulate`` formats the CSV in a forked child, or in process without ``os.fork``."""

    def test_default_day_in_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "day.csv"
        assert cli.main(["simulate", "--out", str(out)]) == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256((tmp_path / "day.csv.ledger").read_bytes()).hexdigest()
                ) == DEFAULT_DAY_SHA256

    def test_failed_run_reaps_writer(self, tmp_path, capsys):
        cfg = tmp_path / "small.yaml"
        cfg.write_text("battery: {c_10_ah: 3}\n", encoding="utf-8")
        out = tmp_path / "run.csv"
        out.write_bytes(b"previous records\n")
        ledger = tmp_path / "run.csv.ledger"
        ledger.write_bytes(b"previous ledger\n")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert "invariant violation: step 1396 " in capsys.readouterr().err
        assert_no_child_process()
        assert out.read_bytes() == b"previous records\n"
        assert ledger.read_bytes() == b"previous ledger\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.ledger",
                                                              "small.yaml"]

    def test_failed_writer_exits_2(self, short_config, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run.csv"
        out.write_bytes(b"previous records\n")
        ledger = tmp_path / "run.csv.ledger"
        ledger.write_bytes(b"previous ledger\n")

        def failing_writer(rows, controller, fh):
            raise OSError("injected writer failure")

        monkeypatch.setattr(engine, "write_records_csv", failing_writer)
        assert cli.main(["simulate", "--config", short_config, "--out", str(out)]) == 2
        assert "i/o error: CSV writer exited with status 1" in capsys.readouterr().err
        assert_no_child_process()
        assert out.read_bytes() == b"previous records\n"
        assert ledger.read_bytes() == b"previous ledger\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.ledger",
                                                              "short.yaml"]


class TestOutputWriter:
    """Every command stages its outputs as ``<target>.part`` and replaces them at the end."""

    @pytest.mark.parametrize("command", ["simulate", "mppt-compare", "iv-curve"])
    def test_symlink_out_is_kept(self, command, short_config, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_bytes(b"previous rows\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        config = [] if command == "iv-curve" else ["--config", short_config]
        assert cli.main([command, *config, "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().splitlines()[0].startswith(("t_s,", "v,i,p"))
        assert not any(p.name.endswith(".part") for p in tmp_path.iterdir())

    def test_dangling_ledger_link_leaves_out_untouched(self, short_config, tmp_path, capsys):
        out = tmp_path / "run.csv"
        out.write_bytes(b"previous records\n")
        (tmp_path / "run.csv.ledger").symlink_to(tmp_path / "missing" / "run.csv.ledger")
        assert cli.main(["simulate", "--config", short_config, "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_bytes() == b"previous records\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.ledger",
                                                              "short.yaml"]


class TestMpptCompare:
    def test_constant_irradiance(self, tmp_path, capsys):
        cfg = write_csv_profiles(tmp_path, "0,1000\n60,1000\n")
        out = tmp_path / "cmp.csv"
        code = cli.main(["mppt-compare", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "flc ripple" in captured
        # constant profile: a single segment with both efficiencies reported
        seg_lines = [l for l in captured.splitlines() if l.startswith("segment")]
        assert len(seg_lines) == 1
        assert "eff=0.99" in seg_lines[0] or "eff=1.0" in seg_lines[0]
        header = out.read_text().splitlines()[0]
        assert header == "t_s,g_wm2,t_c,d_po,v_po,p_po,d_flc,v_flc,p_flc"

    def test_zero_irradiance_na(self, tmp_path, capsys):
        cfg = tmp_path / "dark.yaml"
        cfg.write_text(
            "simulation:\n  t_end_s: 10\nprofiles:\n  synthetic:\n    g_peak_wm2: 0.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "dark.csv"
        code = cli.main(["mppt-compare", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "n/a" in captured

    def test_irradiance_step_two_segments(self, tmp_path, capsys):
        # step 1000 -> 600 W/m2 halfway through; the ramp knots sit between
        # controller samples so both plateaus stay exactly constant
        cfg = write_csv_profiles(tmp_path, "0,1000\n29.99,1000\n30,600\n60,600\n")
        out = tmp_path / "step.csv"
        code = cli.main(["mppt-compare", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr().out
        seg_lines = [l for l in captured.splitlines() if l.startswith("segment")]
        assert len(seg_lines) == 2
        # both controllers report a per-segment efficiency after the step
        assert seg_lines[1].count("eff=") == 2
        assert code in (0, 3)  # ripple ordering is asserted on the constant bench

    def test_two_plateau_bytes_pinned(self, tmp_path, capsys):
        # recorded with a PV solve at every tracking step
        cfg = write_csv_profiles(tmp_path, "0,1000\n29.99,1000\n30,600\n60,600\n")
        out = tmp_path / "step.csv"
        assert cli.main(["mppt-compare", "--config", cfg, "--out", str(out)]) == 0
        seg_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("segment")]
        assert seg_lines == [
            "segment t=[0.0,29.9]s g=1000 W/m2:  po: eff=0.9998 ripple=0.2097 W"
            "  flc: eff=1.0000 ripple=0.0001 W",
            "segment t=[30.0,59.9]s g=600 W/m2:  po: eff=0.9998 ripple=0.1284 W"
            "  flc: eff=1.0000 ripple=0.0000 W",
        ]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a14c59ba59d3f7ae5b5b8c5388e49faaacd67a3e69df11eb15f787dd8816b4f5"
        )

    def test_step_count_floor_rule(self, tmp_path, capsys):
        # 1.2 / 0.1 rounds to 11.999999999999998; like simulate, count 12 steps
        cfg = tmp_path / "short.yaml"
        cfg.write_text("simulation:\n  t_end_s: 1.2\n", encoding="utf-8")
        out = tmp_path / "short.csv"
        assert cli.main(["mppt-compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 12

    def test_directory_out_exits_before_tracking(self, tmp_path, capsys, monkeypatch):
        cfg = write_csv_profiles(tmp_path, "0,1000\n60,1000\n")
        out = tmp_path / "adir"
        out.mkdir()

        def no_tracking(*args, **kwargs):
            raise AssertionError("engine.run_tracking called")

        monkeypatch.setattr(engine, "run_tracking", no_tracking)
        assert cli.main(["mppt-compare", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err
        assert not any(out.iterdir())

    def test_missing_directory_exits_before_tracking(self, tmp_path, capsys, monkeypatch):
        cfg = write_csv_profiles(tmp_path, "0,1000\n60,1000\n")
        out = tmp_path / "missing" / "cmp.csv"

        def no_tracking(*args, **kwargs):
            raise AssertionError("engine.run_tracking called")

        monkeypatch.setattr(engine, "run_tracking", no_tracking)
        assert cli.main(["mppt-compare", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err
        assert not out.parent.exists()

    def test_failed_run_leaves_out_untouched(self, tmp_path, capsys, monkeypatch):
        cfg = write_csv_profiles(tmp_path, "0,1000\n29.99,1000\n30,600\n60,600\n")
        out = tmp_path / "cmp.csv"
        out.write_bytes(b"previous comparison\n")
        real_oracle = pv.mpp_oracle
        calls = []

        def failing_oracle(g, t_j, params):
            calls.append(g)
            if len(calls) == 2:
                raise ConvergenceError("injected oracle failure")
            return real_oracle(g, t_j, params)

        monkeypatch.setattr(pv, "mpp_oracle", failing_oracle)
        assert cli.main(["mppt-compare", "--config", cfg, "--out", str(out)]) == 3
        assert "injected oracle failure" in capsys.readouterr().err
        assert calls == [1000.0, 600.0]
        assert out.read_bytes() == b"previous comparison\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cmp.csv", "cmp.yaml", "irr.csv", "load.csv", "temp.csv"]

    def test_signed_zero_plateau_pinned(self, tmp_path, capsys):
        # the profile reads 0.0 between the knots and -0.0 from t=1 on: one
        # plateau, but each row keeps the sign its own step sampled
        cfg = write_csv_profiles(tmp_path, "0,-0\n1,-0\n", t_end=2)
        out = tmp_path / "zero.csv"
        assert cli.main(["mppt-compare", "--config", cfg, "--out", str(out)]) == 0
        seg_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("segment")]
        assert seg_lines == ["segment t=[0.0,1.9]s g=0 W/m2:  po: eff=n/a ripple=n/a"
                             "  flc: eff=n/a ripple=n/a"]
        rows = out.read_text().splitlines()
        assert rows[10].startswith("0.9,0.0,") and rows[11].startswith("1.0,-0.0,")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "848076050dcea8c63a8d4d9577c792b8332245358f7aeddbb72f4ec5861bcc8b"
        )

    def test_peak_memory_does_not_grow_with_plateaus(self, tmp_path, capsys):
        def compare(plateaus):
            # 30 s plateaus alternating between two irradiances
            rows = "".join(f"{30 * i},{g}\n{30 * i + 29.99},{g}\n"
                           for i, g in zip(range(plateaus), [1000, 600] * plateaus))
            cfg = write_csv_profiles(tmp_path, rows, t_end=30 * plateaus)
            out = str(tmp_path / "cmp.csv")
            assert cli.main(["mppt-compare", "--config", cfg, "--out", out]) in (0, 3)

        compare(4)  # imports and first-call caches, untraced
        peaks = {}
        tracemalloc.start()
        try:
            for plateaus in (4, 16):  # 2,400 and 9,600 tracking steps
                tracemalloc.reset_peak()
                compare(plateaus)
                peaks[plateaus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[16] <= peaks[4] + 0.2e6, peaks


SIMULATE = ["simulate", "--config", "{tmp}/case.yaml", "--out", "{tmp}/o.csv"]
MPPT_COMPARE = ["mppt-compare", "--config", "{tmp}/case.yaml", "--out", "{tmp}/o.csv"]
IV_CURVE = ["iv-curve", "--out", "{tmp}/o.csv"]
IV_CURVE_CONFIG = IV_CURVE + ["--config", "{tmp}/case.yaml", "--points", "5"]
CSV_LOAD = ("profiles:\n  irradiance: {csv: {tmp}/irr.csv}\n"
            "  temperature: {csv: {tmp}/temp.csv}\n  load: {csv: %s}\n")
CSV_TEMP = ("profiles:\n  irradiance: {csv: {tmp}/irr.csv}\n"
            "  temperature: {csv: %s}\n  load: {csv: {tmp}/load.csv}\n")


@pytest.fixture
def input_files(tmp_path):
    """Valid irradiance/temperature CSVs and the malformed files the cases name."""
    (tmp_path / "irr.csv").write_text("time_s,irradiance_wm2\n0,800\n60,800\n", encoding="utf-8")
    (tmp_path / "temp.csv").write_text("time_s,temperature_c\n0,25\n60,25\n", encoding="utf-8")
    (tmp_path / "load.csv").write_text("time_s,load_w\n0,100\n60,100\n", encoding="utf-8")
    (tmp_path / "cold.csv").write_text("time_s,temperature_c\n0,25\n60,-300\n",
                                       encoding="utf-8")
    (tmp_path / "hot.csv").write_text("time_s,temperature_c\n0,25\n60,201\n", encoding="utf-8")
    # the second knot lies one ulp above absolute zero; step 1 reads one ulp before it
    (tmp_path / "zero_k.csv").write_text(
        "time_s,temperature_c\n330.5358996403058,186.2008905575974\n"
        f"1007.513119579341,{math.nextafter(-273.15, 0.0)!r}\n", encoding="utf-8")
    (tmp_path / "header.csv").write_text("time_s,power_w\n0,100\n", encoding="utf-8")
    (tmp_path / "row.csv").write_text("time_s,load_w\n0,100\nabc,100\n", encoding="utf-8")
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbftime_s,load_w\n0,100\n")
    (tmp_path / "latin1.csv").write_bytes(b"time_s,load_w\n0,100\xff\n")
    (tmp_path / "huge.csv").write_text("time_s,load_w\n0,1e300\n60,1e300\n", encoding="utf-8")
    (tmp_path / "latin1.yaml").write_bytes(b"\xff\xfe")
    (tmp_path / "adir").mkdir()
    return tmp_path


SUNLIT_HOUR = "simulation: {t_end_s: 3600}\nprofiles: {synthetic: {sunrise_h: 0.0}}\n"


class TestBadInputs:
    """Each bad input exits with its documented code and names its key, flag or path."""

    @pytest.mark.parametrize("yaml_text,argv,code,needle", [
        pytest.param("profiles: {synthetic: {g_peak_wm2: abc}}", SIMULATE, 1,
                     "config error: profiles.synthetic.g_peak_wm2", id="synthetic-not-number"),
        pytest.param("profiles: {synthetic: {load_blocks: 5}}", SIMULATE, 1,
                     "config error: profiles.synthetic.load_blocks", id="blocks-not-list"),
        pytest.param("profiles: {synthetic: {load_blocks: [5]}}", SIMULATE, 1,
                     "config error: profiles.synthetic.load_blocks[0]", id="block-not-list"),
        pytest.param("profiles: {synthetic: {load_blocks: [[6, 0, 500]]}}", SIMULATE, 1,
                     "config error: profiles.synthetic.load_blocks[0]", id="block-end-before-start"),
        pytest.param("profiles: {synthetic: {load_blocks: [[-3, 2, 500]]}}", SIMULATE, 1,
                     "config error: profiles.synthetic.load_blocks[0]", id="block-negative-start"),
        pytest.param("profiles: {synthetic: {g_peak_wm2: -1}}", SIMULATE, 1,
                     "config error: profiles.synthetic.g_peak_wm2", id="synthetic-negative-peak"),
        pytest.param("battery: {r_bat_ohm: 0.002}", SIMULATE, 1,
                     "config error: unknown config key 'battery.r_bat_ohm'", id="removed-key"),
        pytest.param("profiles: {synthetic: {t_min_c: 40, t_max_c: 10}}", SIMULATE, 1,
                     "config error: profiles.synthetic.t_min_c", id="synthetic-t-min-above-max"),
        pytest.param("profiles: {synthetic: {t_min_c: 40}}", SIMULATE, 1,
                     "config error: profiles.synthetic.t_min_c", id="synthetic-t-min-above-default"),
        pytest.param("profiles: {synthetic: {sunrise_h: -5, sunset_h: 12}}", SIMULATE, 1,
                     "config error: profiles.synthetic.sunrise_h", id="synthetic-sunrise-negative"),
        pytest.param("profiles: {synthetic: {sunrise_h: 6, sunset_h: 30}}", SIMULATE, 1,
                     "config error: profiles.synthetic.sunset_h", id="synthetic-sunset-past-24"),
        pytest.param("profiles: {synthetic: 3}", SIMULATE, 1,
                     "config error: profiles.synthetic", id="synthetic-not-mapping"),
        pytest.param(CSV_LOAD % "5", SIMULATE, 1,
                     "config error: profiles.load.csv", id="csv-number"),
        pytest.param(CSV_LOAD % "[a]", SIMULATE, 1,
                     "config error: profiles.load.csv", id="csv-list"),
        pytest.param(CSV_LOAD % "{tmp}/header.csv", SIMULATE, 1,
                     "config error: profiles.load.csv", id="csv-wrong-header"),
        pytest.param(CSV_LOAD % "{tmp}/row.csv", SIMULATE, 1,
                     "config error: profiles.load.csv", id="csv-unparseable-row"),
        pytest.param(CSV_LOAD % "{tmp}/bom.csv", SIMULATE, 1,
                     "config error: profiles.load.csv", id="csv-bom-header"),
        pytest.param(CSV_LOAD % "{tmp}/latin1.csv", SIMULATE, 1,
                     "config error: profiles.load.csv", id="csv-not-utf8"),
        pytest.param(CSV_LOAD % "{tmp}/adir", SIMULATE, 2, "{tmp}/adir", id="csv-directory"),
        pytest.param("simulation: {t_end_s: 60}\nprofiles:\n"
                     "  irradiance: {csv: {tmp}/irr.csv, column: oops}\n"
                     "  temperature: {csv: {tmp}/temp.csv}\n  load: {csv: {tmp}/load.csv}\n",
                     SIMULATE, 1, "config error: unknown config key 'profiles.irradiance.column'",
                     id="csv-entry-unknown-key"),
        pytest.param("profiles: {synthetic: {}, wind: {csv: {tmp}/load.csv}}", SIMULATE, 1,
                     "config error: unknown config key 'profiles.wind'", id="profiles-unknown-key"),
        # profile values have no upper bound: the battery solve overflows
        pytest.param(CSV_LOAD % "{tmp}/huge.csv", SIMULATE, 3,
                     "invariant violation: step 0 (t=0.0): battery solve for 1e+300 W failed",
                     id="csv-load-overflows-battery-solve"),
        pytest.param(None, ["simulate", "--config", "{tmp}/adir", "--out", "{tmp}/o.csv"], 2,
                     "{tmp}/adir", id="config-directory"),
        pytest.param(None, ["simulate", "--config", "{tmp}/latin1.yaml", "--out", "{tmp}/o.csv"],
                     1, "config error: {tmp}/latin1.yaml", id="config-not-utf8"),
        pytest.param(None, IV_CURVE + ["--g", "nan"], 1, "config error: iv-curve: --g",
                     id="iv-g-nan"),
        pytest.param(None, IV_CURVE + ["--g", "inf"], 1, "config error: iv-curve: --g",
                     id="iv-g-inf"),
        pytest.param(None, IV_CURVE + ["--g", "1e10"], 1, "config error: iv-curve: --g",
                     id="iv-g-above-max"),
        pytest.param(None, IV_CURVE + ["--t", "nan"], 1, "--t", id="iv-t-nan"),
        pytest.param(None, IV_CURVE + ["--t", "-300"], 1, "--t", id="iv-t-below-zero-k"),
        pytest.param(None, IV_CURVE + ["--t", "200.5"], 1, "--t", id="iv-t-above-max"),
        pytest.param(None, IV_CURVE + ["--t", "1e400"], 1,
                     "config error: iv-curve: --t must be a temperature in (-273.15, 200] degC",
                     id="iv-t-inf"),
        pytest.param(None, IV_CURVE + ["--points", "1"], 1,
                     "config error: iv-curve: --points must be >= 2", id="iv-points-one"),
        pytest.param(None, IV_CURVE + ["--points", "-5"], 1,
                     "config error: iv-curve: --points must be >= 2", id="iv-points-negative"),
        pytest.param("panel: {preset: generic_80w}", SIMULATE, 1,
                     "config error: unknown config key 'panel.preset'", id="preset-not-string"),
        pytest.param("battery: {c_10_ah: -1}", SIMULATE, 1,
                     "config error: battery.c_10_ah", id="battery-single-prefix"),
        # a subnormal capacity makes the 10-hour current c_10_ah / 10 underflow to 0
        pytest.param("battery: {c_10_ah: 5.0e-324}", SIMULATE, 1,
                     "config error: battery.c_10_ah", id="c10-subnormal"),
        pytest.param("battery: {c_10_ah: 9.0e-4}", SIMULATE, 1,
                     "config error: battery.c_10_ah", id="c10-below-1mah"),
        # g / g_ref is infinite on a subnormal reference: an hour of daylight reaches it
        pytest.param(SUNLIT_HOUR + "panel: {g_ref: 5.0e-324}", SIMULATE, 1,
                     "config error: panel.g_ref", id="g-ref-subnormal"),
        pytest.param(SUNLIT_HOUR + "panel: {g_ref: 0.5}", SIMULATE, 1,
                     "config error: panel.g_ref", id="g-ref-below-1"),
        pytest.param("mppt: {fuzzy: {e_range: -1}}", SIMULATE, 1,
                     "config error: mppt.fuzzy.e_range", id="fuzzy-single-prefix"),
        pytest.param("supervisor: {p_epsilon_w: 0}", SIMULATE, 1,
                     "config error: supervisor.p_epsilon_w", id="supervisor-single-prefix"),
        pytest.param("battery: {n_serial: 24.7}", SIMULATE, 1,
                     "config error: battery.n_serial", id="fractional-n-serial"),
        pytest.param("battery: {n_parallel: 1.5}", SIMULATE, 1,
                     "config error: battery.n_parallel", id="fractional-n-parallel"),
        pytest.param("panel: {n_panels_series: 1.9}", SIMULATE, 1,
                     "config error: panel.n_panels_series", id="fractional-panels-series"),
        pytest.param("panel: {n_panels_parallel: 2.5}", SIMULATE, 1,
                     "config error: panel.n_panels_parallel", id="fractional-panels-parallel"),
        pytest.param("panel: {n_s: 36.5}", SIMULATE, 1,
                     "config error: panel.n_s", id="fractional-n-s"),
        pytest.param(CSV_TEMP % "{tmp}/cold.csv", SIMULATE, 1,
                     "config error: profiles.temperature.csv", id="csv-below-absolute-zero"),
        pytest.param("profiles: {synthetic: {t_min_c: -400}}", SIMULATE, 1,
                     "config error: profiles.synthetic.t_min_c", id="synthetic-below-absolute-zero"),
        # the diode solve and the MPP search are checked to converge up to 200 degC
        pytest.param(CSV_TEMP % "{tmp}/hot.csv", SIMULATE, 1,
                     "config error: profiles.temperature.csv: {tmp}/hot.csv: row 3: temperature "
                     "201.0 degC", id="csv-above-max-temperature"),
        pytest.param("profiles: {synthetic: {t_max_c: 1.0e+6}}", SIMULATE, 1,
                     "config error: profiles.synthetic.t_max_c must be <= 200",
                     id="synthetic-above-max-temperature"),
        pytest.param("panel: {t_ref: 0, i_0_temp_exp: 3}", SIMULATE, 1,
                     "config error: panel.t_ref", id="panel-t-ref-zero"),
        pytest.param("panel: {t_ref: -5}", SIMULATE, 1,
                     "config error: panel.t_ref", id="panel-t-ref-negative"),
        pytest.param("panel: {a: 3}", SIMULATE, 1,
                     "config error: panel.a", id="panel-ideality-above-2"),
        pytest.param("panel: {r_sh: 0}", SIMULATE, 1,
                     "config error: panel.r_sh", id="panel-shunt-zero"),
        # the battery's temperature factors change sign outside -200 < delta_t_c < 40
        pytest.param("battery: {delta_t_c: 1.0e+6}", SIMULATE, 1,
                     "config error: battery.delta_t_c", id="delta-t-huge"),
        pytest.param("battery: {delta_t_c: -250.0}", SIMULATE, 1,
                     "config error: battery.delta_t_c", id="delta-t-below-range"),
        pytest.param("battery: {delta_t_c: 40.0}", SIMULATE, 1,
                     "config error: battery.delta_t_c", id="delta-t-at-max"),
        pytest.param("battery: {delta_t_c: -200.0}", SIMULATE, 1,
                     "config error: battery.delta_t_c", id="delta-t-at-min"),
        # an hour of daylight, so that the battery and temperature laws run
        pytest.param(SUNLIT_HOUR + "battery: {discharge_exp: 1.0e+6}", SIMULATE, 1,
                     "config error: battery.discharge_exp", id="discharge-exp-huge"),
        pytest.param(SUNLIT_HOUR + "panel: {i_0_temp_exp: -100000}", SIMULATE, 1,
                     "config error: panel.i_0_temp_exp", id="i0-temp-exp-huge"),
        # 1 + k_i * (t_j - t_ref) is negative above 26 degC, and the day reaches 35
        pytest.param("panel: {k_i: -1}", SIMULATE, 1,
                     "config error: panel.k_i", id="k-i-negative-photocurrent"),
        pytest.param("panel: {t_ref: 1.0e+6}", SIMULATE, 1,
                     "config error: panel.k_i (0.0005) and panel.t_ref (1e+06 K)",
                     id="t-ref-negative-photocurrent"),
        pytest.param("converter: {d_max: 0}", SIMULATE, 1,
                     "config error: mppt.d0 (0.4) must be <= converter.d_max (0)",
                     id="d-max-below-d0"),
        # (t_j / t_ref) ** i_0_temp_exp overflows, or underflows to a zero saturation current
        pytest.param("panel: {t_ref: 1.0e-300, i_0_temp_exp: 10}", SIMULATE, 1,
                     "config error: panel.t_ref", id="t-ref-saturation-overflow"),
        pytest.param("panel: {t_ref: 1.0e-300, i_0_temp_exp: 10}", IV_CURVE_CONFIG, 1,
                     "config error: panel.t_ref", id="iv-t-ref-saturation-overflow"),
        pytest.param("panel: {t_ref: 1.0e-300, i_0_temp_exp: -10}", SIMULATE, 1,
                     "config error: panel.t_ref", id="t-ref-saturation-underflow"),
        pytest.param("panel: {t_ref: 1.0e-300, i_0_temp_exp: -10}", IV_CURVE_CONFIG, 1,
                     "config error: panel.t_ref", id="iv-t-ref-saturation-underflow"),
        pytest.param("panel: {i_0_ref: 1.0e+300, t_ref: 10, i_0_temp_exp: 10}", SIMULATE, 1,
                     "config error: panel.t_ref", id="saturation-current-infinite"),
        # finite saturation currents outside the range where the diode solve converges
        pytest.param("panel: {i_0_ref: 5.0e-324}", SIMULATE, 1,
                     "config error: panel.i_0_ref", id="i0-ref-subnormal"),
        pytest.param("panel: {i_0_ref: 5.0e-324}", IV_CURVE_CONFIG, 1,
                     "config error: panel.i_0_ref", id="iv-i0-ref-subnormal"),
        pytest.param("panel: {i_0_ref: 1.0e+300}", SIMULATE, 1,
                     "config error: panel.i_0_ref", id="i0-ref-huge"),
        pytest.param("panel: {i_0_ref: 1.0e+300}", IV_CURVE_CONFIG, 1,
                     "config error: panel.i_0_ref", id="iv-i0-ref-huge"),
        pytest.param("panel: {t_ref: 5.0e-29, i_0_temp_exp: 10}", SIMULATE, 1,
                     "config error: panel.t_ref", id="saturation-current-huge"),
        pytest.param("panel: {t_ref: 5.0e-29, i_0_temp_exp: 10}", IV_CURVE_CONFIG, 1,
                     "config error: panel.t_ref", id="iv-saturation-current-huge"),
        pytest.param("supervisor: {soc_min_release: 0.1}", SIMULATE, 1,
                     "config error: supervisor.soc_min_release",
                     id="supervisor-release-below-min"),
        pytest.param("profiles: {synthetic: {load_blocks: [[0, 24, -5]]}}", SIMULATE, 1,
                     "config error: profiles.synthetic.load_blocks[0]", id="block-negative-watts"),
        pytest.param("profiles: {synthetic: {load_blocks: [[0, 8, 100], [6, 12, 200]]}}",
                     SIMULATE, 1, "config error: profiles.synthetic.load_blocks[1]",
                     id="blocks-overlap"),
        pytest.param("profiles: {synthetic: {sunrise_h: 18, sunset_h: 6}}", SIMULATE, 1,
                     "config error: profiles.synthetic.sunrise_h",
                     id="synthetic-sunrise-after-sunset"),
        # step counts and the controller period in steps that overflow to infinity
        pytest.param("simulation: {dt_s: 5.0e-324, t_end_s: 60}", SIMULATE, 1,
                     "config error: simulation.dt_s", id="step-count-infinite"),
        pytest.param("simulation: {t_end_s: 60}\nmppt: {t_mppt_s: 5.0e-324}", MPPT_COMPARE, 1,
                     "config error: mppt.t_mppt_s", id="tracking-step-count-infinite"),
        pytest.param("simulation: {dt_s: 1.0e-10, t_end_s: 60}\nmppt: {t_mppt_s: 1.0e+300}",
                     SIMULATE, 1, "config error: mppt.t_mppt_s", id="mppt-period-infinite"),
        # --mppt replaces the configured controller, which is still checked
        pytest.param("simulation: {mppt: 42, t_end_s: 5}", SIMULATE + ["--mppt", "po"], 1,
                     "config error: simulation.mppt must be 'po' or 'flc', got 42",
                     id="bad-mppt-under-override"),
    ])
    def test_exit_code_and_name(self, yaml_text, argv, code, needle, input_files, capsys):
        tmp = str(input_files)
        if yaml_text is not None:
            (input_files / "case.yaml").write_text(yaml_text.replace("{tmp}", tmp), encoding="utf-8")
        assert cli.main([arg.replace("{tmp}", tmp) for arg in argv]) == code
        err = capsys.readouterr().err
        assert needle.replace("{tmp}", tmp) in err
        assert "Traceback" not in err

    def test_csv_next_to_absolute_zero_runs(self, input_files, capsys):
        # every read lies between two valid knots, so no junction reaches 0 K
        tmp = str(input_files)
        (input_files / "case.yaml").write_text(
            "simulation: {dt_s: 1007.5131195793409, t_end_s: 3000}\n"
            + (CSV_TEMP % "{tmp}/zero_k.csv").replace("{tmp}", tmp), encoding="utf-8")
        assert cli.main([arg.replace("{tmp}", tmp) for arg in SIMULATE]) == 0
        rows = (input_files / "o.csv").read_text().splitlines()[1:]
        assert float(rows[1].split(",")[2]) == math.nextafter(-273.15, 0.0)


class TestVerdictFailures:
    """A verdict that fails after a complete run exits 3 with its outputs written."""

    def test_ledger_closure(self, short_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine.EnergyLedger, "closes", lambda self: False)
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", short_config, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "ledger closure=" in captured.out and "(FAILED)" in captured.out
        assert captured.err.startswith("invariant violation: simulate: ledger closure ")
        assert len(out.read_text().splitlines()) == 601
        assert (tmp_path / "run.csv.ledger").read_text()

    def test_ripple_verdict(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "steady_stats", lambda samples: (1.0, 0.5))
        cfg = write_csv_profiles(tmp_path, "0,1000\n2,1000\n", t_end=2)
        out = tmp_path / "cmp.csv"
        assert cli.main(["mppt-compare", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "invariant violation: mppt-compare: flc ripple 0.5000 W is not below "
            "po ripple 0.5000 W\n")
        assert len(out.read_text().splitlines()) == 1 + 20

    def test_switch_table(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SWITCH_TABLE", {**cli.SWITCH_TABLE, 4: (1, 1, 1)})
        assert cli.main(["modes-check"]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines()[3] == "Mode4 On On On"
        assert len(captured.out.splitlines()) == 5
        assert captured.err.startswith("invariant violation: modes-check: ")


class TestArgumentErrors:
    def test_unknown_command_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate"])
        assert exc.value.code == 1


class TestDeterminismViaSubprocess:
    def test_bit_identical_outputs(self, short_config, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "pvbatsim", "simulate",
                 "--config", short_config, "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": "0"},
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestGoldenOutput:
    """Byte-identity pin.

    1,440 steps through modes 1, 2, 3 and 5 (the lower latch); FLC also
    visits mode 4.
    """

    HASHES = {
        "flc": ("ab7d5ee1035f833d7544a6bb80102c8508f39d487f5ea5e634ed805408a7049a",
                "9dad728ccc2062b50bf2c3a8699b0203e9d8433736515b2feb5d99475f124d0e"),
        "po": ("3ea1e0d9488e60339aaf2a5f7e3744e84f0b6e7c847a1a4fdc26d5ef48457307",
               "f74b2435c77353ad77c8bac35f3b4171f98e058bd4ed7c38d3d1ff401e658b5e"),
    }

    @pytest.mark.parametrize("mppt", ["flc", "po"])
    def test_sha256(self, mppt, tmp_path):
        cfg = tmp_path / "golden.yaml"
        cfg.write_text("simulation:\n  dt_s: 60\n  initial_soc: 0.3\n", encoding="utf-8")
        out = tmp_path / "golden.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pvbatsim", "simulate",
             "--config", str(cfg), "--out", str(out), "--mppt", mppt],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        csv_bytes = out.read_bytes()
        modes = {line.split(",")[12] for line in csv_bytes.decode().splitlines()[1:]}
        assert {"1", "2", "3", "5"} <= modes
        digests = tuple(
            hashlib.sha256(data).hexdigest()
            for data in (csv_bytes, (tmp_path / "golden.csv.ledger").read_bytes())
        )
        assert digests == self.HASHES[mppt]
