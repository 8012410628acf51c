"""End-to-end command line checks driving main() directly."""

import json
import math
import os
import subprocess
import sys

import pytest

import qos_energy
from qos_energy.cli import MAX_GRID_POINTS, main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def load_json(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency; scipy serves the tests alone."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qos_energy.__file__)))
    code = (
        "import sys, qos_energy.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


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

    def test_bad_format_rejected_by_parser(self, tmp_path, capsys):
        code, _ = run(tmp_path, "limits", "--format", "xml")
        assert code == 2
        capsys.readouterr()

    def test_multi_theta_simulation_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "simulate-queue", "--theta", "0.01,0.05")
        assert code == 2
        assert "exactly one theta" in capsys.readouterr().err


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
