"""End-to-end command line checks driving main() directly."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qos_energy
from oracles import csv_artifact, json_artifact
from qos_energy.cli import (
    _COMMANDS,
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


class TestAsymptoticsCommand:
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
        with pytest.warns(UserWarning, match="not resolved"):
            code, out = run(tmp_path, "surface", "--mode", "csit", "--config",
                            str(cfg), "--grid-points", "2", "--theta", "5e-324,1",
                            "--T", "1")
        assert code == 0
        assert "2 surface cell(s) failed" in capsys.readouterr().out
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
            # alpha* at c = theta T (Pbar/N0)/ln2 = exp(-750) is not resolved
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
        with pytest.warns(UserWarning) as caught:
            code, out = run(tmp_path, *argv, "--grid-points", "3")
        texts = [str(w.message) for w in caught]
        assert sum("leaves the normal doubles" in t for t in texts) == 3
        assert sum("alpha* = exp(0.262364) is not resolved" in t for t in texts) == (gaps == 4)
        assert code == 0
        assert f"{gaps} grid point(s) failed" in capsys.readouterr().out
        (curve,) = load_json(out, name)["curves"]
        assert curve["points"] == [{"ebn0_db": None, "spectral_efficiency": None}] * 3
        assert (curve["asymptote"] is None) == (gaps == 4)

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

        real = sweep_mod._line_se

        def flaky(spec, theta):
            rows = real(spec, theta)
            rows[1] = NumericalError("synthetic failure")
            return rows

        monkeypatch.setattr(sweep_mod, "_line_se", flaky)
        with pytest.warns(UserWarning, match="synthetic failure"):
            code, out = run(tmp_path, "sweep", "--theta", "0.01", "--grid-points", "4")
        assert code == 0
        assert "1 grid point(s) failed" in capsys.readouterr().out
        path = os.path.join(out, "sweep_csir_lowpower_rayleigh_theta0.01.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 5
        assert lines[2] == ","
        assert "," in lines[1] and lines[1] != ","
        curve = load_json(out, "sweep_csir_lowpower_rayleigh.json")["curves"][0]
        assert curve["points"][1] == {"ebn0_db": None, "spectral_efficiency": None}


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


class TestSurfaceCommand:
    def test_unresolved_weak_qos_row_is_written_as_gaps(self, tmp_path, capsys):
        # theta = 1e-300 puts alpha* beyond the last expectation node; the
        # row used to end the run with "float division by zero" (exit 3).
        with pytest.warns(UserWarning, match="not resolved"):
            code, out = run(tmp_path, "surface", "--mode", "csit",
                            "--grid-points", "2", "--theta", "1e-300,1e6")
        assert code == 0
        assert "2 surface cell(s) failed" in capsys.readouterr().out
        rows = load_json(out, "surface_csit_rayleigh.json")["ebn0_min_db"]
        assert rows[0] == [None, None]
        assert all(math.isfinite(v) for v in rows[1])

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
