"""End-to-end command line checks driving main() directly."""

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qos_energy
from oracles import csv_artifact, json_artifact
from qos_energy import (
    DivergentInverseMoment,
    NakagamiM,
    NumericalError,
    QosConfig,
    Rayleigh,
    delay_limited_limit,
    lowpower_csir,
    shannon_limit,
)
from qos_energy.effcap import LN2
from qos_energy.cli import (
    _COMMANDS,
    _KEYS,
    MAX_GRID_POINTS,
    _model_tag,
    _write,
    build_parser,
    main,
)
from qos_energy.fading import _MODELS


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def load_json(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def notes(capsys) -> list:
    """The note lines that a run printed, after checking that it printed
    nothing to stderr."""
    out, err = capsys.readouterr()
    assert err == ""
    return [line for line in out.splitlines() if line.startswith("note: ")]


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency; scipy serves the tests alone.

    concurrent.futures, which the queue's service stream uses, is imported
    on the stream's first call, not at start-up.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(qos_energy.__file__)))
    code = (
        "import sys, qos_energy.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'"
        " or m.startswith('concurrent.futures')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_module_runs_as_a_program(tmp_path):
    """python -m qos_energy.cli runs console_main, which exits with main's code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qos_energy.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "qos_energy.cli", "limits", *argv,
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        for argv in ([], ["--config", str(tmp_path / "missing.json")])
    ]
    assert [r.returncode for r in runs] == [0, 2]
    assert f"wrote {tmp_path / 'limits_rayleigh.json'}" in runs[0].stdout
    assert "cannot read config file" in runs[1].stderr


class TestLimitsCommand:
    def test_divergent_inverse_moment_is_a_note(self, tmp_path):
        # Rayleigh's E{1/z} diverges: the delay-limited CSIT rate is 0, which
        # a note on stdout tells, with nothing on stderr
        src = os.path.dirname(os.path.dirname(os.path.abspath(qos_energy.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "qos_energy.cli", "limits", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == (
            "note: E{1/z} diverges; delay-limited rate with transmitter CSI is 0"
        )
        ray, qos = Rayleigh(), QosConfig(0.0, 2e-3, 1e5)
        with pytest.warns(DivergentInverseMoment):
            delay_csit = delay_limited_limit(1.0, "csit", ray)
        assert load_json(tmp_path, "limits_rayleigh.json")["results"] == {
            "snr": 1.0,
            "shannon_csir": shannon_limit(1.0, "csir", qos, ray),
            "shannon_csit": shannon_limit(1.0, "csit", qos, ray),
            "delay_limited_csir": delay_limited_limit(1.0, "csir", ray),
            "delay_limited_csit": delay_csit,
        }

    def test_no_note_when_inverse_moment_is_finite(self, tmp_path, capsys):
        code, _ = run(tmp_path, "limits", "--model", "nakagami", "--m", "2")
        assert code == 0
        assert "note:" not in capsys.readouterr().out

    def test_csit_shannon_limit_past_the_doubles(self, tmp_path):
        # snr z0 = 2.5e308 passes the doubles; the water-filling rate is
        # log2(snr z0) all the same
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"snr": 1e308, "model": {"kind": "deterministic", "z0": 2.5}}',
            encoding="utf-8",
        )
        code, out = run(tmp_path, "limits", "--config", str(cfg))
        assert code == 0
        results = load_json(out, "limits_deterministic.json")["results"]
        want = math.log2(2.5) + 308.0 * math.log2(10.0)
        assert results["shannon_csit"] == pytest.approx(want, rel=1e-12)

    def test_water_filling_above_the_nodes_is_a_numerical_failure(self, tmp_path, capsys):
        # at snr 1e-40 the threshold lies above the top of the Rayleigh
        # nodes, so shannon_csit is refused; the three other values
        # resolve, and the refused one is a null with a note
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"snr": 1e-40}', encoding="utf-8")
        code, out = run(tmp_path, "limits", "--config", str(cfg))
        assert code == 0
        stdout = capsys.readouterr().out
        assert any(line.startswith("note: shannon_csit failed: ")
                   and "is not resolved" in line for line in stdout.splitlines())
        ray, qos = Rayleigh(), QosConfig(0.0, 2e-3, 1e5)
        with pytest.warns(DivergentInverseMoment):
            delay_csit = delay_limited_limit(1e-40, "csit", ray)
        assert load_json(out, "limits_rayleigh.json")["results"] == {
            "snr": 1e-40,
            "shannon_csir": shannon_limit(1e-40, "csir", qos, ray),
            "shannon_csit": None,
            "delay_limited_csir": delay_limited_limit(1e-40, "csir", ray),
            "delay_limited_csit": delay_csit,
        }
        rows = (out / "limits_rayleigh.csv").read_text(encoding="utf-8").splitlines()
        assert rows[2] == "shannon_csit,"

    def test_every_limit_refused_is_a_numerical_failure(self, tmp_path, capsys,
                                                        monkeypatch):
        import qos_energy.cli as cli_mod

        def refuse(*args):
            raise NumericalError("synthetic refusal")

        monkeypatch.setattr(cli_mod, "shannon_limit", refuse)
        monkeypatch.setattr(cli_mod, "delay_limited_limit", refuse)
        code, out = run(tmp_path, "limits")
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "limits: numerical failure: every limit failed"
        assert sum(line.endswith("failed: synthetic refusal") for line in err) == 4
        assert not out.exists() or not os.listdir(out)

    def test_a_value_error_of_a_command_is_exit_3(self, tmp_path, capsys, monkeypatch):
        import qos_energy.cli as cli_mod

        help_text, _, defaults = cli_mod._COMMANDS["limits"]

        def bad(cfg, model):
            raise ValueError("synthetic value error")

        monkeypatch.setitem(cli_mod._COMMANDS, "limits", (help_text, bad, defaults))
        code, _ = run(tmp_path, "limits")
        assert code == 3
        assert capsys.readouterr().err == "limits: synthetic value error\n"

    def test_other_warnings_are_not_notes(self, tmp_path, capsys, monkeypatch):
        # a warning that is not the package's reaches the warnings machinery
        # as before (here pytest.warns records it), and no note tells it
        import qos_energy.cli as cli_mod

        help_text, compute, defaults = cli_mod._COMMANDS["limits"]

        def noisy(cfg, model):
            np.log(np.zeros(1))
            return compute(cfg, model)

        monkeypatch.setitem(cli_mod._COMMANDS, "limits", (help_text, noisy, defaults))
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            code, _ = run(tmp_path, "limits")
        assert code == 0
        assert notes(capsys) == [
            "note: E{1/z} diverges; delay-limited rate with transmitter CSI is 0"
        ]


class TestAsymptoticsCommand:
    def test_a_failed_theta_is_a_row_of_nulls(self, tmp_path, capsys):
        # alpha* at theta = 1e-60 lies above the top of the Rayleigh nodes;
        # the run exited 3 and wrote nothing
        code, out = run(tmp_path, "asymptotics", "--mode", "csit", "--regime", "wideband",
                        "--theta", "1e-60,0.1")
        assert code == 0
        (text,) = notes(capsys)
        assert text.startswith("note: asymptote failed for theta=1e-60: ")
        assert "is not resolved" in text
        failed, ok = load_json(out, "asymptotics_csit_wideband_rayleigh.json")["results"]
        assert failed == {**dict.fromkeys(ok), "theta": 1e-60}
        assert ok["ebn0_min_db"] == pytest.approx(1.21707640593, rel=1e-10)
        with open(os.path.join(out, "asymptotics_csit_wideband_rayleigh.csv"),
                  encoding="utf-8") as fh:
            assert fh.read().splitlines()[1] == "1e-60,,,"

    def test_a_run_with_every_theta_failed_is_exit_3(self, tmp_path, capsys):
        code, out = run(tmp_path, "asymptotics", "--mode", "csit", "--regime", "wideband",
                        "--theta", "1e-60")
        assert code == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        note, last = captured.err.splitlines()
        assert note.startswith("note: asymptote failed for theta=1e-60: ")
        assert last == "asymptotics: numerical failure: the asymptote failed for every theta"

    def test_wideband_csir_slope_anchor(self, tmp_path):
        code, out = run(
            tmp_path, "asymptotics", "--mode", "csir", "--regime", "wideband",
            "--theta", "1",
        )
        assert code == 0
        data = load_json(out, "asymptotics_csir_wideband_rayleigh.json")
        assert data["results"][0]["s0"] == pytest.approx(12.3484, abs=1e-3)
        assert data["results"][0]["theta"] == 1.0

    def test_lowpower_floor(self, tmp_path):
        code, out = run(
            tmp_path, "asymptotics", "--mode", "csir", "--regime", "lowpower",
            "--theta", "0.01",
        )
        assert code == 0
        data = load_json(out, "asymptotics_csir_lowpower_rayleigh.json")
        assert data["results"][0]["ebn0_min_db"] == pytest.approx(-1.59, abs=0.005)

    def test_json_embeds_resolved_config(self, tmp_path):
        code, out = run(tmp_path, "asymptotics", "--theta", "0.1")
        assert code == 0
        cfg = load_json(out, "asymptotics_csir_lowpower_rayleigh.json")["config"]
        assert cfg["model"] == {"kind": "rayleigh", "mean": 1.0}
        assert cfg["T"] == 2e-3
        assert cfg["B"] == 1e5
        assert cfg["seed"] == 12345
        assert cfg["mode"] == "csir"
        assert cfg["regime"] == "lowpower"
        assert cfg["format"] == "both"

    def test_csv_roundtrips_against_json(self, tmp_path):
        code, out = run(
            tmp_path, "asymptotics", "--mode", "csir", "--regime", "wideband",
            "--theta", "0.001,0.01,0.1,1",
        )
        assert code == 0
        data = load_json(out, "asymptotics_csir_wideband_rayleigh.json")
        with open(
            os.path.join(out, "asymptotics_csir_wideband_rayleigh.csv"),
            encoding="utf-8",
        ) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "theta,ebn0_min_linear,ebn0_min_db,slope_s0"
        assert len(lines) == 5
        for line, res in zip(lines[1:], data["results"]):
            _, lin, db, s0 = (float(tok) for tok in line.split(","))
            assert lin == pytest.approx(res["ebn0_min_linear"], rel=1e-11)
            assert db == pytest.approx(res["ebn0_min_db"], rel=1e-11)
            assert s0 == pytest.approx(res["s0"], rel=1e-11)

    def test_csit_lowpower_rayleigh_writes_minus_inf(self, tmp_path):
        code, out = run(
            tmp_path, "asymptotics", "--mode", "csit", "--regime", "lowpower",
            "--theta", "0.1",
        )
        assert code == 0
        res = load_json(out, "asymptotics_csit_lowpower_rayleigh.json")["results"][0]
        assert res["ebn0_min_db"] == "-inf"
        assert res["unbounded_support"] is True
        with open(
            os.path.join(out, "asymptotics_csit_lowpower_rayleigh.csv"),
            encoding="utf-8",
        ) as fh:
            assert ",-inf," in fh.read().splitlines()[1]


class TestExitCodes:
    def test_negative_theta_is_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "asymptotics", "--theta", "-0.5")
        assert code == 2
        assert "theta" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        code, _ = run(tmp_path, "asymptotics", "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err

    def test_unstable_queue_is_numerical_failure(self, tmp_path, capsys):
        # constant service fed at exactly its own capacity has no tail
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 1000}), encoding="utf-8")
        code, _ = run(
            tmp_path, "simulate-queue", "--model", "deterministic",
            "--config", str(cfg),
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["grid_points", "seed", "frames", "warmup_frames"])
    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "1e400"])
    def test_non_finite_integer_is_config_error(self, tmp_path, capsys, key, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {raw}}}', encoding="utf-8")
        command = "sweep" if key == "grid_points" else "simulate-queue"
        code, _ = run(tmp_path, command, "--config", str(cfg))
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["1e20", str(MAX_GRID_POINTS + 1)])
    def test_oversized_grid_is_config_error(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"grid_points": {raw}}}', encoding="utf-8")
        code, _ = run(tmp_path, "sweep", "--config", str(cfg))
        assert code == 2
        assert f"grid_points must be <= {MAX_GRID_POINTS}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [("limits",), ("sweep", "--mode", "csit"), ("alpha-star",)]
    )
    @pytest.mark.parametrize(
        "points", ["[[0.5, NaN], [1, 1]]", "[[NaN, 1]]", "[[1e400, 1]]"]
    )
    def test_non_finite_table_entry_is_config_error(
        self, tmp_path, capsys, argv, points
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            f'{{"model": {{"kind": "table", "points": {points}}}}}', encoding="utf-8"
        )
        code, _ = run(tmp_path, *argv, "--config", str(cfg))
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("limits",),
            ("sweep", "--mode", "csit"),
            ("alpha-star",),
            ("surface", "--mode", "csit"),
        ],
    )
    @pytest.mark.parametrize("points", [[[0, 1]], [[0, 1], [1, 0]]])
    def test_table_without_mass_on_a_positive_gain_is_config_error(
        self, tmp_path, capsys, argv, points
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model": {"kind": "table", "points": points}}), encoding="utf-8"
        )
        code, _ = run(tmp_path, *argv, "--config", str(cfg))
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_subnormal_theta_row_is_written_as_gaps(self, tmp_path, capsys):
        # theta*T*(Pbar/N0) underflows; the row used to end the run with
        # "float division by zero" (exit 3) instead of writing gaps
        cfg = tmp_path / "table.json"
        cfg.write_text(json.dumps({"model": {"kind": "table", "points": [
            [0.0, 0.1], [0.3, 0.2], [1.0, 0.4], [2.5, 0.3]]}}), encoding="utf-8")
        code, out = run(tmp_path, "surface", "--mode", "csit", "--config",
                        str(cfg), "--grid-points", "2", "--theta", "5e-324,1",
                        "--T", "1")
        assert code == 0
        texts = notes(capsys)
        assert len(texts) == 3
        assert "is below the normal doubles" in texts[0]
        assert "is below the normal doubles" in texts[1]
        assert texts[2] == "note: 2 surface cell(s) failed"
        rows = load_json(out, "surface_csit_table.json")["ebn0_min_db"]
        assert rows[0] == [None, None]
        assert all(math.isfinite(v) for v in rows[1])

    @pytest.mark.parametrize(
        "argv, name, gaps",
        [
            (("sweep", "--theta", "1e-310", "--T", "1e-20", "--B", "1e9"),
             "sweep_csir_lowpower_rayleigh.json", 3),
            (("sweep", "--mode", "csit", "--theta", "1e-310", "--T", "1e-20",
              "--B", "1e9"), "sweep_csit_lowpower_rayleigh.json", 3),
            # c = theta T (Pbar/N0)/ln2 = exp(-750.276) is below the normal doubles
            (("sweep", "--mode", "csit", "--regime", "wideband", "--model",
              "deterministic", "--mean", "1.3", "--theta", "1e-310", "--T",
              "1e-20"), "sweep_csit_wideband_deterministic.json", 4),
        ],
    )
    def test_underflowing_theta_t_b_points_are_gaps(
        self, tmp_path, capsys, argv, name, gaps
    ):
        # theta*T underflows before B multiplies it; these used to end the
        # run with "float division by zero" (exit 3)
        code, out = run(tmp_path, *argv, "--grid-points", "3")
        assert code == 0
        texts = notes(capsys)
        assert sum("leaves the normal doubles" in t for t in texts) == 3
        assert sum("exp(-750.276) is below the normal doubles" in t
                   for t in texts) == (gaps == 4)
        assert texts[-1] == f"note: {gaps} grid point(s) failed and were written as gaps"
        (curve,) = load_json(out, name)["curves"]
        assert curve["points"] == [{"ebn0_db": None, "spectral_efficiency": None}] * 3
        assert (curve["asymptote"] is None) == (gaps == 4)

    @pytest.mark.parametrize("command", ["asymptotics", "sweep"])
    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_overflowing_theta_t_b_row_is_a_gap(self, tmp_path, capsys, command, mode):
        # theta*T*B = inf used to end the low-power run, before it wrote
        # anything, with "beta must be finite and >= 0, got inf" (exit 3)
        argv = (command, "--mode", mode, "--B", "1e300", "--grid-points", "3")
        argv = argv[:-2] if command == "asymptotics" else argv
        code, out = run(tmp_path / "both", *argv, "--theta", "0.1,1e300")
        assert code == 0
        want = ("theta*T*B = inf leaves the normal doubles "
                "(theta=1e+300, T=0.002, B=1e+300)")
        assert sum(t.endswith(want) for t in notes(capsys)) == (
            1 if command == "asymptotics" else 4)
        assert run(tmp_path / "alone", *argv, "--theta", "0.1")[0] == 0
        capsys.readouterr()
        name = f"{command}_{mode}_lowpower_rayleigh.json"
        key = "results" if command == "asymptotics" else "curves"
        (alone,) = load_json(tmp_path / "alone" / "out", name)[key]
        first, gap = load_json(out, name)[key]
        # the 0.1 row is the row of a run without the 1e300 one
        assert first == alone
        if command == "asymptotics":
            assert [k for k, v in gap.items() if v is not None] == ["theta"]
        else:
            assert gap["asymptote"] is None
            assert gap["points"] == [{"ebn0_db": None, "spectral_efficiency": None}] * 3

    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_subnormal_theta_t_b_asymptote_resolves(self, tmp_path, capsys, mode):
        # the low-power asymptotes read beta alone: a subnormal theta makes
        # theta*T*B = 1e-325 round to 0, and beta = 0 is its limit
        code, out = run(tmp_path, "asymptotics", "--mode", mode, "--theta", "0.1,1e-320",
                        "--T", "1e-10")
        assert code == 0
        assert notes(capsys) == []
        rows = load_json(out, f"asymptotics_{mode}_lowpower_rayleigh.json")["results"]
        assert [row["theta"] for row in rows] == [0.1, 1e-320]
        assert all(row["s0"] is not None for row in rows)

    def test_out_path_collision_is_filesystem_error(self, tmp_path, capsys):
        target = tmp_path / "occupied"
        target.write_text("not a directory", encoding="utf-8")
        code = main(["limits", "--out", str(target)])
        assert code == 4
        assert "filesystem error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main([]) == 2

    def test_help_lists_every_command_and_main_builds_one_parser(
        self, monkeypatch, capsys
    ):
        assert main(["--help"]) == 0
        listing = capsys.readouterr().out
        assert all(name in listing for name in _COMMANDS)
        [commands] = [a for a in build_parser()._actions if a.dest == "command"]
        assert list(commands.choices) == list(_COMMANDS)
        built = []
        real = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["bogus"]) == 2
        assert main(["limits", "--bogus"]) == 2
        assert built == []
        capsys.readouterr()

    def test_bad_format_rejected_by_parser(self, tmp_path, capsys):
        code, _ = run(tmp_path, "limits", "--format", "xml")
        assert code == 2
        capsys.readouterr()

    def test_multi_theta_simulation_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "simulate-queue", "--theta", "0.01,0.05")
        assert code == 2
        assert "exactly one theta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--model", "nakagami", "--m", "0.2"],
            ["limits", "--model", "deterministic", "--mean", "-2"],
            ["limits", "--model", "rayleigh", "--mean", "0"],
        ],
    )
    def test_bad_model_parameter_is_config_error(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert "model:" in capsys.readouterr().err
        assert not out.exists()

    # Every flag a command does not use; each used to be dropped silently.
    # Flags are spelled in full: `--mode` is not an abbreviation of `--model`.
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("asymptotics", "--grid-points", "1"),
            ("alpha-star", "--B", "5"),
            ("alpha-star", "--mode", "csit"),
            ("alpha-star", "--regime", "wideband"),
            ("surface", "--B", "5"),
            ("surface", "--pn0", "5"),
            ("surface", "--regime", "wideband"),
            ("simulate-queue", "--pn0", "5"),
            ("simulate-queue", "--regime", "wideband"),
            ("simulate-queue", "--grid-points", "4"),
            ("limits", "--theta", "1"),
            ("limits", "--pn0", "5"),
            ("limits", "--mode", "csit"),
            ("limits", "--regime", "wideband"),
            ("limits", "--grid-points", "4"),
            ("alpha-star", "--mode", "rayleigh"),
            ("sweep", "--grid", "4"),
        ],
    )
    def test_unused_flag_is_rejected(self, tmp_path, capsys, command, flag, value):
        code, out = run(tmp_path, command, flag, value)
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    # (command, config, default): default None means the config is rejected
    # (exit 2); otherwise the run succeeds and records that default.
    @pytest.mark.parametrize(
        "command, doc, default",
        [
            # a boolean is not a number
            ("asymptotics", {"theta": [True]}, None),
            ("limits", {"snr": True}, None),
            ("simulate-queue", {"thresholds": [True, 2]}, None),
            # out is a string
            ("limits", {"out": 7}, None),
            # numbers are JSON numbers: numeric text is rejected for every
            # numeric key, and a JSON integer is a number
            ("limits", {"T": "0.01"}, None),
            ("limits", {"T": "1_0"}, None),
            ("limits", {"snr": "1"}, None),
            ("asymptotics", {"theta": "0.1"}, None),
            ("asymptotics", {"theta": ["0.1"]}, None),
            ("sweep", {"grid_points": "4"}, None),
            ("surface", {"pbar_grid": ["1e3", "1e4"]}, None),
            ("simulate-queue", {"thresholds": ["20", "40"]}, None),
            ("limits", {"T": 1}, 1.0),
            # exactly one of arrival_rate and arrival_ratio
            ("simulate-queue", {"arrival_rate": 1e3, "arrival_ratio": 0.5}, None),
            # null means the key's default
            ("limits", {"T": None}, 2e-3),
            ("limits", {"B": None}, 1e5),
            ("limits", {"snr": None}, 1.0),
            ("limits", {"seed": None}, 12345),
            ("limits", {"format": None}, "both"),
            ("limits", {"out": None}, "."),
            ("asymptotics", {"pbar_over_n0": None}, 1e4),
            ("asymptotics", {"mode": None}, "csir"),
            ("asymptotics", {"regime": None}, "lowpower"),
            ("sweep", {"grid_points": None}, 60),
            ("simulate-queue", {"frames": None}, 1_000_000),
            ("simulate-queue", {"arrival_ratio": None}, 1.0),
            # the model records each key it defaults, for every kind
            ("limits", {"model": {"kind": "rayleigh"}},
             {"kind": "rayleigh", "mean": 1.0}),
            ("limits", {"model": {"kind": "nakagami", "m": 2}},
             {"kind": "nakagami", "m": 2, "mean": 1.0}),
            ("limits", {"model": {"kind": "deterministic"}},
             {"kind": "deterministic", "z0": 1.0}),
            ("limits", {"model": {"kind": "table", "points": [[1.0, 1.0]]}},
             {"kind": "table", "points": [[1.0, 1.0]]}),
            ("limits", {"model": {"kind": "rayleigh", "z0": 1.0}}, None),
            # model keys take JSON numbers too, and a null model key its default
            ("limits", {"model": {"kind": "nakagami", "m": "2"}}, None),
            ("limits", {"model": {"kind": "rayleigh", "mean": "2"}}, None),
            ("limits", {"model": {"kind": "rayleigh", "mean": True}}, None),
            ("limits", {"model": {"kind": "table", "points": [["1", "1"]]}}, None),
            ("limits", {"model": {"kind": "rayleigh", "mean": None}},
             {"kind": "rayleigh", "mean": 1.0}),
            ("limits", {"model": {"kind": "deterministic", "z0": None}},
             {"kind": "deterministic", "z0": 1.0}),
            ("limits", {"model": {"kind": "deterministic", "mean": None}},
             {"kind": "deterministic", "z0": 1.0}),
        ],
    )
    def test_config_value_rules(
        self, tmp_path, monkeypatch, capsys, command, doc, default
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, "--config", "cfg.json"])
        capsys.readouterr()
        if default is None:
            assert code == 2
            assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
            return
        assert code == 0
        [name] = [
            n for n in os.listdir(tmp_path) if n.endswith(".json") and n != "cfg.json"
        ]
        [key] = doc
        assert load_json(tmp_path, name)["config"][key] == default

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            pytest.param(("limits",), None, "cannot read config file", id="unreadable"),
            pytest.param(("limits",), '{"T":', "is not valid JSON", id="not-json"),
            pytest.param(("limits",), "[1, 2]", "must hold a JSON object", id="array"),
            pytest.param(("limits",), '{"model": {"m": 2}}',
                         "model: expected an object with a 'kind' key", id="no-kind"),
            pytest.param(("asymptotics", "--theta", "0.1,abc"), "{}",
                         "'0.1,abc' is not a list of numbers", id="theta-text"),
            pytest.param(("simulate-queue",), '{"thresholds": [40, 20]}',
                         "thresholds must be strictly increasing", id="thresholds"),
            pytest.param(("simulate-queue",), '{"thresholds": [10.0], "frames": 20000}',
                         "thresholds needs at least two values", id="one-threshold"),
            pytest.param(("simulate-queue", "--seed", "-1"), "{}",
                         "seed must be >= 0, got -1", id="seed"),
            pytest.param(("asymptotics",), '{"mode": "blind"}',
                         "mode must be one of csir, csit, got 'blind'", id="mode"),
            pytest.param(("simulate-queue", "--theta", "0"), "{}",
                         "simulate-queue needs theta > 0", id="queue-theta"),
            pytest.param(("simulate-queue",), '{"frames": 1000, "warmup_frames": 1000}',
                         "warmup_frames must be below frames", id="warmup"),
            pytest.param(("limits",), '{"T": 1e400}',
                         "T must be positive and finite, got inf", id="infinite-T"),
        ],
    )
    def test_rejected_input_exits_2_with_its_message(
        self, tmp_path, capsys, argv, text, message
    ):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text, encoding="utf-8")
        code, out = run(tmp_path, *argv, "--config", str(cfg))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_bare_number_theta_is_a_one_element_list(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"theta": 0.1}', encoding="utf-8")
        code, out = run(tmp_path, "asymptotics", "--config", str(cfg))
        assert code == 0
        data = load_json(out, "asymptotics_csir_lowpower_rayleigh.json")
        assert data["config"]["theta"] == [0.1]
        assert [r["theta"] for r in data["results"]] == [0.1]


class TestModelResolution:
    def test_limits_nakagami(self, tmp_path):
        code, out = run(tmp_path, "limits", "--model", "nakagami", "--m", "2")
        assert code == 0
        res = load_json(out, "limits_nakagami2.json")["results"]
        # E{1/z} = m/(m-1) = 2 for m = 2, so the CSIT delay-limited rate
        # at snr 1 is log2(1 + 1/2)
        assert res["delay_limited_csit"] == pytest.approx(math.log2(1.5), abs=1e-9)
        with open(os.path.join(out, "limits_nakagami2.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "quantity,spectral_efficiency_bps_hz"
        assert len(lines) == 5

    def test_nakagami_needs_shape(self, tmp_path, capsys):
        code, _ = run(tmp_path, "limits", "--model", "nakagami")
        assert code == 2
        assert "--m" in capsys.readouterr().err

    def test_deterministic_mean_flag_sets_the_gain(self, tmp_path):
        code, out = run(
            tmp_path, "limits", "--model", "deterministic", "--mean", "2.0",
        )
        assert code == 0
        res = load_json(out, "limits_deterministic.json")["results"]
        assert res["shannon_csir"] == pytest.approx(math.log2(3.0), rel=1e-12)

    def test_table_model_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model": {"kind": "table",
                                  "points": [[0.5, 0.5], [2.0, 0.5]]}}),
            encoding="utf-8",
        )
        code, out = run(tmp_path, "limits", "--config", str(cfg))
        assert code == 0
        res = load_json(out, "limits_table.json")["results"]
        want = 0.5 * math.log2(1.5) + 0.5 * math.log2(3.0)
        assert res["shannon_csir"] == pytest.approx(want, rel=1e-12)

    def test_table_model_needs_config_file(self, tmp_path, capsys):
        code, _ = run(tmp_path, "limits", "--model", "table")
        assert code == 2
        assert "points" in capsys.readouterr().err

    def test_model_choices_are_the_model_table(self):
        parser = build_parser()
        [commands] = [a for a in parser._actions if a.dest == "command"]
        for sub in commands.choices.values():
            [model] = [a for a in sub._actions if a.dest == "model"]
            assert list(model.choices) == list(_MODELS)

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["--model", "rayleigh"], {"kind": "rayleigh", "mean": 1.0}),
            (["--model", "nakagami", "--m", "2"],
             {"kind": "nakagami", "m": 2.0, "mean": 1.0}),
            (["--model", "deterministic"], {"kind": "deterministic", "z0": 1.0}),
            (["--model", "deterministic", "--mean", "2"],
             {"kind": "deterministic", "z0": 2.0}),
        ],
    )
    def test_flags_record_the_defaulted_model_keys(self, tmp_path, argv, spec):
        code, out = run(tmp_path, "limits", *argv)
        assert code == 0
        doc = load_json(out, f"limits_{_model_tag(spec)}.json")
        assert doc["config"]["model"] == spec


class TestSweepCommand:
    def test_reruns_are_byte_identical(self, tmp_path):
        argv = ["sweep", "--theta", "0,0.1", "--grid-points", "8"]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == [
            "sweep_csir_lowpower_rayleigh.json",
            "sweep_csir_lowpower_rayleigh_theta0.1.csv",
            "sweep_csir_lowpower_rayleigh_theta0.csv",
        ]
        first = {n: (tmp_path / "a" / n).read_bytes() for n in names}

        # same destination twice: every artifact byte-identical
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == first[name]

        # fresh destination: CSVs byte-identical; the JSON differs only in
        # the embedded output path of its resolved config
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert sorted(os.listdir(tmp_path / "b")) == names
        for name in names:
            clone = (tmp_path / "b" / name).read_bytes()
            if name.endswith(".csv"):
                assert clone == first[name]
            else:
                doc_a = json.loads(first[name])
                doc_b = json.loads(clone)
                assert doc_a["config"].pop("out") != doc_b["config"].pop("out")
                assert doc_a == doc_b

    def test_csv_shape_and_gapless_content(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--theta", "0.05", "--grid-points", "6")
        assert code == 0
        path = os.path.join(out, "sweep_csir_lowpower_rayleigh_theta0.05.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "ebn0_db,spectral_efficiency_bps_hz"
        assert len(lines) == 7
        ses = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(ses, ses[1:]))

    def test_format_selects_outputs(self, tmp_path):
        _, out_csv = run(
            tmp_path / "c", "sweep", "--theta", "0.05", "--grid-points", "4",
            "--format", "csv",
        )
        assert sorted(os.listdir(out_csv)) == [
            "sweep_csir_lowpower_rayleigh_theta0.05.csv"
        ]
        _, out_json = run(
            tmp_path / "j", "sweep", "--theta", "0.05", "--grid-points", "4",
            "--format", "json",
        )
        assert sorted(os.listdir(out_json)) == ["sweep_csir_lowpower_rayleigh.json"]


    def test_failed_point_is_a_gap_row(self, tmp_path, capsys, monkeypatch):
        import qos_energy.sweep as sweep_mod
        from qos_energy.errors import NumericalError

        real = sweep_mod._sweep_se

        def flaky(spec):
            lines = real(spec)
            lines[0][1] = NumericalError("synthetic failure")
            return lines

        monkeypatch.setattr(sweep_mod, "_sweep_se", flaky)
        code, out = run(tmp_path, "sweep", "--theta", "0.01", "--grid-points", "4")
        assert code == 0
        texts = notes(capsys)
        assert len(texts) == 2 and "synthetic failure" in texts[0]
        assert texts[1] == "note: 1 grid point(s) failed and were written as gaps"
        path = os.path.join(out, "sweep_csir_lowpower_rayleigh_theta0.01.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 5
        assert lines[2] == ","
        assert "," in lines[1] and lines[1] != ","
        curve = load_json(out, "sweep_csir_lowpower_rayleigh.json")["curves"][0]
        assert curve["points"][1] == {"ebn0_db": None, "spectral_efficiency": None}

    def test_points_below_the_node_floor_are_gaps(self, tmp_path, capsys):
        # At theta = 100 the top two thresholds lie below the 1e-280 node
        # floor; the closed form there gave the rate 0.0380040 at snr 10,
        # where mpmath gives 0.0375142.
        code, out = run(tmp_path, "sweep", "--mode", "csit", "--theta", "100")
        assert code == 0
        texts = notes(capsys)
        assert len(texts) == 3
        assert all("tradeoff point failed" in t and "1e-280 floor" in t for t in texts[:2])
        assert texts[2] == "note: 2 grid point(s) failed and were written as gaps"
        (curve,) = load_json(out, "sweep_csit_lowpower_rayleigh.json")["curves"]
        gap = {"ebn0_db": None, "spectral_efficiency": None}
        assert curve["points"][-2:] == [gap] * 2
        assert gap not in curve["points"][:-2]


class TestAlphaStarCommand:
    def test_theta_zero_row_spells_infinity(self, tmp_path):
        code, out = run(
            tmp_path, "alpha-star", "--theta", "0,0.1", "--grid-points", "4",
        )
        assert code == 0
        with open(os.path.join(out, "alpha_star_rayleigh.csv"),
                  encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "theta,alpha_star,xi,alpha_dot_zero"
        assert lines[1] == "0,inf,1,"
        data = load_json(out, "alpha_star_rayleigh.json")
        assert data["results"][0]["alpha_star"] == "inf"
        assert data["results"][0]["alpha_dot_zero"] is None
        assert data["results"][1]["alpha_star"] == pytest.approx(
            0.0711571, abs=1e-6
        )
        names = sorted(os.listdir(out))
        assert "alpha_vs_zeta_rayleigh_theta0.1.csv" in names

    @staticmethod
    def failing_threshold(monkeypatch):
        """Make the second threshold of the alpha-star batch fail."""
        import qos_energy.sweep as sweep_mod
        from qos_energy.errors import NumericalError

        real = sweep_mod._power_rows

        def flaky(*args):
            roots, errors = real(*args)
            errors[1] = NumericalError("synthetic failure")
            return roots, errors

        monkeypatch.setattr(sweep_mod, "_power_rows", flaky)

    def test_gap_thresholds_are_notes(self, tmp_path, capsys, monkeypatch):
        self.failing_threshold(monkeypatch)
        code, _ = run(tmp_path, "alpha-star", "--theta", "0.1", "--grid-points", "4")
        assert code == 0
        assert notes(capsys) == [
            "note: threshold failed at theta=0.1, zeta=1e-07: synthetic failure"
        ]

    def test_a_failed_alpha_star_is_a_gap_row(self, tmp_path, capsys, monkeypatch):
        # the second theta's alpha* and thresholds lie below the node floor
        self.failing_threshold(monkeypatch)
        code, out = run(tmp_path, "alpha-star", "--theta", "0.1,1e4", "--grid-points", "4")
        assert code == 0
        texts = notes(capsys)
        assert texts[0] == "note: threshold failed at theta=0.1, zeta=1e-07: synthetic failure"
        assert [t.startswith("note: threshold failed at theta=10000") for t in texts[1:5]] == [
            True] * 4
        assert texts[5].startswith("note: alpha* failed for theta=10000: ")
        assert all("1e-280 floor" in t for t in texts[1:])
        assert len(texts) == 6
        with open(os.path.join(out, "alpha_star_rayleigh.csv"), encoding="utf-8") as fh:
            assert fh.read().splitlines()[2] == "10000,,,"
        data = load_json(out, "alpha_star_rayleigh.json")
        assert set(data["results"][1].values()) == {10000, None}
        assert data["curves"][1]["alpha_star"] is None
        assert data["curves"][1]["alphas"] == [None] * 4

    def test_notes_of_a_failed_run_go_to_stderr(self, tmp_path, capsys, monkeypatch):
        # every alpha* of the run lies below the node floor
        self.failing_threshold(monkeypatch)
        code, _ = run(tmp_path, "alpha-star", "--theta", "1e4", "--grid-points", "4")
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        *texts, last = err.splitlines()
        assert texts[1] == "note: threshold failed at theta=10000, zeta=1e-07: synthetic failure"
        assert texts[4].startswith("note: alpha* failed for theta=10000: ")
        assert "1e-280 floor" in texts[4]
        assert len(texts) == 5
        assert last == "alpha-star: numerical failure: alpha* failed for every theta"


class TestSurfaceCommand:
    def test_unresolved_weak_qos_row_is_written_as_gaps(self, tmp_path, capsys):
        # theta = 1e-300 puts alpha* beyond the last expectation node; the
        # row used to end the run with "float division by zero" (exit 3).
        # At theta = 1e6 alpha* lies below the 1e-280 node floor, where the
        # closed form gave 24.1787 and 26.4978 dB for the true 24.2389 and
        # 44.2047 dB (small-alpha expansion of L1).
        code, out = run(tmp_path, "surface", "--mode", "csit",
                        "--grid-points", "2", "--theta", "1e-300,1e6")
        assert code == 0
        texts = notes(capsys)
        assert [("not resolved" in t, "1e-280 floor" in t) for t in texts[:4]] == [
            (True, False)] * 2 + [(False, True)] * 2
        assert texts[4:] == ["note: 4 surface cell(s) failed"]
        rows = load_json(out, "surface_csit_rayleigh.json")["ebn0_min_db"]
        assert rows == [[None, None], [None, None]]

    def test_long_format_rows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"pbar_grid": [1e3, 1e4, 1e5]}), encoding="utf-8"
        )
        code, out = run(
            tmp_path, "surface", "--theta", "0.01,0.1", "--config", str(cfg),
        )
        assert code == 0
        with open(os.path.join(out, "surface_csir_rayleigh.csv"),
                  encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "theta,pbar_over_n0,ebn0_min_db"
        assert len(lines) == 1 + 2 * 3
        data = load_json(out, "surface_csir_rayleigh.json")
        assert data["theta_grid"] == [0.01, 0.1]
        assert data["pbar_grid"] == [1e3, 1e4, 1e5]
        assert len(data["ebn0_min_db"]) == 2
        assert all(len(row) == 3 for row in data["ebn0_min_db"])


class TestSimulateQueueCommand:
    def test_a_zero_predicted_capacity_is_exit_3(self, tmp_path, capsys):
        # at snr 1e-300 and theta 1e-300 the predicted effective capacity,
        # and with it the derived arrival rate, is 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"snr": 1e-300}', encoding="utf-8")
        code, _ = run(tmp_path, "simulate-queue", "--config", str(cfg), "--theta", "1e-300")
        assert code == 3
        assert "derived arrival rate is not positive" in capsys.readouterr().err

    def test_smoke_run_reports_decay(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"frames": 30000, "thresholds": [20.0, 40.0, 60.0],
                        "seed": 7}),
            encoding="utf-8",
        )
        code, out = run(tmp_path, "simulate-queue", "--config", str(cfg))
        assert code == 0
        note = capsys.readouterr().out
        assert "ratio" in note and "r^2" in note
        data = load_json(out, "queue_csir_rayleigh_theta0.05.json")
        res = data["results"]
        assert res["fitted_decay"] > 0
        assert res["decay_over_theta"] == pytest.approx(
            res["fitted_decay"] / 0.05, rel=1e-12
        )
        assert res["predicted_effective_capacity"] > 0
        assert data["config"]["arrival_rate"] == pytest.approx(
            res["predicted_effective_capacity"], rel=1e-12
        )
        with open(os.path.join(out, "queue_csir_rayleigh_theta0.05.csv"),
                  encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "q_threshold,log_tail_prob"
        assert len(lines) == 4


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# name -> (argv, config file or None).  tests/golden/<name>/ holds what this
# call wrote with `--out .`; run_golden(name, ".", confdir) started from
# inside that directory rewrites it.
GOLDEN = {
    "sweep": (
        ["sweep", "--mode", "csit", "--theta", "0,0.1", "--grid-points", "4"], None
    ),
    "asymptotics": (["asymptotics", "--mode", "csit", "--theta", "0,0.1"], None),
    "alpha-star": (["alpha-star", "--theta", "0,0.1", "--grid-points", "4"], None),
    "surface": (
        ["surface", "--mode", "csit", "--grid-points", "3"],
        {"model": {"kind": "table", "points": [[0.5, 0.5], [2.0, 0.5]]}},
    ),
    "simulate-queue": (
        ["simulate-queue", "--mode", "csit"],
        {"frames": 30000, "warmup_frames": 1000, "arrival_ratio": 0.9,
         "thresholds": [10.0, 20.0, 30.0], "seed": 7},
    ),
    "limits": (["limits", "--model", "nakagami", "--m", "2"], None),
    "format-csv": (
        ["sweep", "--regime", "wideband", "--theta", "0.05", "--grid-points", "4",
         "--format", "csv"],
        None,
    ),
    "format-json": (["asymptotics", "--regime", "wideband", "--format", "json"], None),
}


def run_golden(name, outdir, confdir):
    argv, doc = GOLDEN[name]
    if doc is not None:
        path = os.path.join(confdir, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [*argv, "--config", path]
    return main([*argv, "--out", outdir])


def assert_same_cell(got, want, where):
    """Numbers to 1e-9 relative; empty, inf and text cells exactly."""
    try:
        num = float(want)
    except ValueError:
        num = math.nan
    if math.isfinite(num):
        assert got not in ("", "inf", "-inf"), where
        assert float(got) == pytest.approx(num, rel=1e-9), where
    else:
        assert got == want, where


def assert_same_json(got, want, where="$"):
    """Same keys, lengths, types, nulls and strings; floats to 1e-9 relative."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9), where
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert run_golden(name, str(out), str(tmp_path)) == 0
    capsys.readouterr()
    golden = os.path.join(GOLDEN_DIR, name)
    names = sorted(os.listdir(golden))
    assert sorted(os.listdir(out)) == names
    for fname in names:
        with open(os.path.join(golden, fname), encoding="utf-8") as fh:
            want = fh.read()
        with open(out / fname, encoding="utf-8") as fh:
            got = fh.read()
        if fname.endswith(".json"):
            doc_w, doc_g = json.loads(want), json.loads(got)
            assert doc_w["config"]["out"] == "."
            assert doc_g["config"]["out"] == str(out)
            doc_g["config"]["out"] = "."
            assert_same_json(doc_g, doc_w, fname)
            continue
        lines_w, lines_g = want.splitlines(), got.splitlines()
        assert got.endswith("\n")
        assert lines_g[0] == lines_w[0]
        assert len(lines_g) == len(lines_w)
        for i, (lg, lw) in enumerate(zip(lines_g[1:], lines_w[1:]), start=2):
            cells_g, cells_w = lg.split(","), lw.split(",")
            assert len(cells_g) == len(cells_w), f"{fname}:{i}"
            for g, w in zip(cells_g, cells_w):
                assert_same_cell(g, w, f"{fname}:{i}")


INF, NAN = math.inf, math.nan

# Payloads whose JSON must be what json.dumps(indent=2, sort_keys=True)
# writes for the sanitized document; each takes one of the writer's paths.
WRITER_PAYLOADS = {
    "non-finite": {"x": [INF, -INF, NAN], "y": -INF, "z": [1.0, NAN, 2.0]},
    "gap-points": {"points": [
        {"ebn0_db": -1.25, "spectral_efficiency": 0.5},
        {"ebn0_db": None, "spectral_efficiency": None},
        {"ebn0_db": 3.75, "spectral_efficiency": INF},
    ]},
    "numpy": {"f": np.float64(0.1), "i": np.int64(-3), "g": np.float32(0.1),
              "mixed": [np.float64(1.5), 2.5, np.int64(7), np.float64(NAN)],
              "all": [np.float64(0.25), np.float64(-0.75)]},
    "booleans": {"t": True, "f": False, "row": [True, 1, 1.0, False, None]},
    "tuples-and-empties": {"t": (1.0, 2.0), "l": [], "d": {}, "e": (),
                           "in": [[], {}, ()], "rec": [{}, {}]},
    "lists-of-lists": {"rows": [[1.0, 2.0], [3.0, INF], [None, 4.0], []]},
    "overflowing-sum": {"big": [1e308, 1e308], "low": [-1e308, -1e308, 0.5]},
    "edge-floats": {"v": [-0.0, 5e-324, 1.5e300], "s": -0.0, "t": 5e-324},
    "same-keys": {"c": [{"b": 2.0, "a": 1.0, "s": "x"},
                        {"b": 4.0, "a": 3.0, "s": "y"}],
                  "n": [{"a": {"u": 1.0, "v": [1.0]}}, {"a": {"u": 2.0, "v": []}}]},
    "different-keys": {"c": [{"a": 1.0}, {"b": 2.0}],
                       "order": [{"a": 1.0, "b": 2.0}, {"b": 4.0, "a": 3.0}],
                       "extra": [{"a": 1.0}, {"a": 2.0, "b": 3.0}],
                       "mixed": [{"a": 1.0}, [1.0], 2.0]},
    "percent-keys": {"p": [{"50%": 1.0, "%s": 2.0, "a%%d": 3.0},
                           {"50%": 4.0, "%s": 5.0, "a%%d": 6.0}],
                     "%d": 1},
}

# CSV tables the writer must write as the cell-by-cell join does.
WRITER_TABLES = {
    "unequal-rows": [(1.0, 2.0), (3.0,)],
    "strings": [("shannon_csir", 1.0), ("delay_limited_csit", 0.0)],
    "empty": [],
    "empty-rows": [(), ()],
    "gaps": [(1.0, 2.0), (None, None), (INF, -INF), (NAN, 0.5)],
    "numbers": [(np.float64(1.0), 2), (3.5, np.int64(4)), (True, 0.5)],
    "overflowing-sum": [(1e308, 1.0), (1e308, 2.0)],
    "edge-floats": [(-0.0, 5e-324), (1.5e300, 0.1)],
    "floats": [(0.1, 1.0 / 3.0, 2e-7), (1e22, -2.5, 123456789012.5)],
}


class TestWriter:
    """The artifacts, byte for byte, against the json.dumps writer."""

    @staticmethod
    def write(out, payload, tables, fmt="both"):
        cfg = {"out": str(out), "format": fmt, "theta": [0.0, 0.1], "seed": 1}
        written = _write("cmd", cfg, "base", payload, tables)
        return cfg, written

    @pytest.mark.parametrize("case", sorted(WRITER_PAYLOADS))
    def test_json_matches_the_oracle(self, tmp_path, case):
        payload = WRITER_PAYLOADS[case]
        cfg, written = self.write(tmp_path / "out", payload, [], "json")
        assert written == [str(tmp_path / "out" / "base.json")]
        want = json_artifact({"command": "cmd", "config": cfg, **payload})
        assert (tmp_path / "out" / "base.json").read_bytes() == want.encode()

    @pytest.mark.parametrize("case", sorted(WRITER_TABLES))
    def test_csv_matches_the_oracle(self, tmp_path, case):
        rows = WRITER_TABLES[case]
        tables = [("t1", "a,b", rows), ("t2", "x", [(0.5,)])]
        _, written = self.write(tmp_path / "out", {}, tables, "csv")
        assert written == [str(tmp_path / "out" / n) for n in ("t1.csv", "t2.csv")]
        got = (tmp_path / "out" / "t1.csv").read_bytes()
        assert got == csv_artifact("a,b", rows).encode()

    def test_out_path_with_quote_backslash_and_non_ascii(self, tmp_path):
        out = tmp_path / 'd\u00efr "q" \\ \u00e9'
        payload = {"v": [1.0, INF], "p": [{"a": 1.0}, {"a": None}]}
        tables = [("t\u00e9", "h\u00e9", [("\u00e9", 1.0)])]
        cfg, written = self.write(out, payload, tables)
        assert written == [str(out / "base.json"), str(out / "t\u00e9.csv")]
        want = json_artifact({"command": "cmd", "config": cfg, **payload})
        assert (out / "base.json").read_bytes() == want.encode()
        assert (out / "t\u00e9.csv").read_bytes() == csv_artifact(
            "h\u00e9", [("\u00e9", 1.0)]).encode("utf-8")


class TestExtremeLaws:
    """Laws that ended a run with exit 3 and nothing written, or warned:
    each run now exits 0, with warnings as errors, as in the CI smokes."""

    @pytest.mark.parametrize("mean", ("1e160", "1.8e-200"))
    def test_a_sweep_of_a_law_whose_mean_squared_leaves_the_doubles(self, tmp_path, mean):
        # the low-power asymptote squared the mean: "(34, 'Numerical result
        # out of range')" at 1e160, "float division by zero" at 1.8e-200
        argv = ["sweep", "--mean", mean, "--theta", "0.1,1", "--grid-points", "3",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        names = sorted(os.listdir(tmp_path))
        first = {n: (tmp_path / n).read_bytes() for n in names}
        assert main(argv) == 0
        assert {n: (tmp_path / n).read_bytes() for n in names} == first
        rows = load_json(tmp_path, "sweep_csir_lowpower_rayleigh.json")["curves"]
        want = [lowpower_csir(Rayleigh(), QosConfig(t, 2e-3, 1e5).beta).slope_s0
                for t in (0.1, 1.0)]
        assert [c["asymptote"]["s0"] for c in rows] == want

    def test_a_deterministic_slope_at_a_huge_beta(self, tmp_path):
        # (beta+1) kappa - beta cancelled to 0: "float division by zero"
        code, out = run(tmp_path, "asymptotics", "--model", "deterministic", "--mean", "1.3",
                        "--theta", "0.1,1e20")
        assert code == 0
        rows = load_json(out, "asymptotics_csir_lowpower_deterministic.json")["results"]
        assert [row["s0"] for row in rows] == [2.0, 2.0]

    def test_a_deterministic_gain_past_the_square_root_of_the_doubles(self, tmp_path):
        # squaring the atom warned "overflow encountered in square"
        code, out = run(tmp_path, "asymptotics", "--model", "deterministic", "--mean", "4.9e199")
        assert code == 0
        rows = load_json(out, "asymptotics_csir_lowpower_deterministic.json")["results"]
        assert {(row["s0"], row["ebn0_min_linear"]) for row in rows} == {(2.0, LN2 / 4.9e199)}

    def test_a_shape_whose_nodes_lose_mass(self, tmp_path, capsys):
        # the Shannon limits read 0.41 and 0.73 where they are about 1.0:
        # they are nulls with a note, and the closed-form delay-limited
        # values stand
        code, out = run(tmp_path, "limits", "--model", "nakagami", "--m", "1e5")
        assert code == 0
        lines = notes(capsys)
        assert len(lines) == 2
        assert all("Nakagami law at m = 100000 hold" in line for line in lines)
        results = load_json(out, "limits_nakagami100000.json")["results"]
        assert results["shannon_csir"] is None and results["shannon_csit"] is None
        assert results["delay_limited_csit"] == delay_limited_limit(1.0, "csit", NakagamiM(1e5))
        code, out = run(tmp_path / "b", "limits", "--model", "nakagami", "--m", "700")
        assert code == 0 and notes(capsys) == []
        results = load_json(out, "limits_nakagami700.json")["results"]
        assert None not in results.values()


FUZZ_SEED, FUZZ_COUNT = 0, 300


def fuzz_argv(rnd, config_path) -> list:
    """One argv drawn from _COMMANDS and _KEYS: a command, a model (Rayleigh,
    Nakagami with m from 0.5 to 1e3, deterministic, or a table of 1-4 atoms
    from 1e-300 to 1e300, with or without a zero atom), sometimes --mean,
    and each of the command's flags left at its default or drawn: theta,
    T, B and --pn0 log-uniform from 1e-300 to 1e300, --grid-points 4.
    Tables, and simulate-queue's small frame count, go in a config file."""

    def log_uniform():
        return 10.0 ** rnd.uniform(-300.0, 300.0)

    command = rnd.choice(sorted(_COMMANDS))
    defaults = _COMMANDS[command][2]
    argv, config = [command], {}
    kind = rnd.choice(["rayleigh", "nakagami", "deterministic", "table"])
    if kind == "table":
        zs = sorted({log_uniform() for _ in range(rnd.randint(1, 4))})
        if rnd.random() < 0.5:
            zs[0] = 0.0
        ws = [rnd.random() + 0.01 for _ in zs]
        config["model"] = {"kind": "table", "points": [[z, w / sum(ws)] for z, w in zip(zs, ws)]}
    else:
        argv += ["--model", kind]
        if kind == "nakagami":
            argv += ["--m", repr(10.0 ** rnd.uniform(math.log10(0.5), 3.0))]
        if rnd.random() < 0.5:
            argv += ["--mean", repr(log_uniform())]
    for key, (parse, flag, _) in _KEYS.items():
        if flag is None or key not in defaults or key == "out":
            continue
        if key == "grid_points":
            argv += [flag, "4"]
        elif rnd.random() < 0.5:
            continue
        elif key == "theta":
            thetas = [0.0 if rnd.random() < 0.1 else log_uniform()
                      for _ in range(rnd.randint(1, 3))]
            argv += [flag, ",".join(map(repr, thetas))]
        elif getattr(parse, "choices", None):
            argv += [flag, rnd.choice(parse.choices)]
        elif key == "seed":
            argv += [flag, str(rnd.randint(0, 99))]
        else:
            argv += [flag, repr(log_uniform())]
    if command == "simulate-queue":
        config["frames"] = 2000
    if config:
        config_path.write_text(json.dumps(config))
        argv += ["--config", str(config_path)]
    return argv


class TestSeededFuzz:
    """Seeded argvs over every command, key and model, run in process: each
    exits 0, 2 or 3, a 3 with a numerical failure, without a warning other
    than the package's notes, with no NaN in what it writes, and a rerun
    writes the same bytes."""

    @staticmethod
    def run(argv, out, capsys):
        shutil.rmtree(out, ignore_errors=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        return code, err, [str(w.message) for w in caught], files

    def test_seeded_argvs(self, tmp_path, capsys):
        rnd = random.Random(FUZZ_SEED)
        out = tmp_path / "out"
        for _ in range(FUZZ_COUNT):
            argv = fuzz_argv(rnd, tmp_path / "config.json")
            first = self.run(argv, out, capsys)
            code, err, caught, files = first
            assert code in (0, 2, 3), (argv, err)
            assert code != 3 or "numerical failure" in err, (argv, err)
            assert caught == [], (argv, caught)
            for name, text in files.items():
                assert b'"nan"' not in text and b",nan" not in text.lower(), (argv, name)
            assert self.run(argv, out, capsys) == first, argv
