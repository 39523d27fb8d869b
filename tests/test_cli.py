import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cohentropy import cli
from cohentropy.acceptance import CriterionResult
from cohentropy.cli import main
from cohentropy.scenarios import CSV_HEADER, config_from_json, parse_config
from cohentropy.exceptions import ConfigError


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {"scenario": "heat-flow-reversal", "beta_0": 1.1, "beta_B": 1.0,
           "time_grid": {"points": 12}}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_shipped_configs_parse(self):
        configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert len(configs) >= 5
        for path in configs:
            cfg = config_from_json(path.read_text())
            assert cfg.scenario

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"scenario": "collective-spins", "gama": 0.1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"scenario": "collective-spins", "time_grid": {"tmin": 0.1}})

    @pytest.mark.parametrize("section, key", [
        ("time_grid", "t_min"), ("time_grid", "t_max"), ("time_grid", "include_zero"), ("sweep", "parameter"),
    ])
    def test_removed_knob_rejected(self, section, key, tmp_path, capsys):
        """Grid spans and the sweep parameter are set by each scenario, not by a config."""
        with pytest.raises(ConfigError, match=f"unknown keys at {section}: \\['{key}'\\]"):
            parse_config({"scenario": "collective-spins", section: {key: 1.0}})
        path = write_config(tmp_path, **{section: {key: 1.0}})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "unknown keys" in capsys.readouterr().err
        assert not out.exists()

    def test_time_grid_needs_three_points(self):
        with pytest.raises(ConfigError, match="points >= 3"):
            parse_config({"scenario": "collective-spins", "time_grid": {"points": 2}})

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "collective-spins", "gamma": -0.1})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config({"scenario": "custom"})

    def test_budget_enforced(self):
        with pytest.raises(ConfigError, match="budget"):
            parse_config({"scenario": "collective-spins", "n": 8, "s": 0.5})

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            config_from_json("{not json")


BAD_VALUES = [
    ('"n": true', "n must be an integer"),
    ('"n": 2.5', "n must be an integer"),
    ('"gamma": NaN', "gamma must be finite"),
    ('"beta_B": Infinity', "beta_B must be finite"),
    ('"otto": {"lam": NaN}', "otto.lam must be finite"),
]


class TestConfigValues:
    @pytest.mark.parametrize("entry,message", BAD_VALUES)
    def test_rejected_by_parser(self, entry, message):
        with pytest.raises(ConfigError, match=message):
            config_from_json('{"scenario": "collective-spins", %s}' % entry)

    @pytest.mark.parametrize("entry,message", BAD_VALUES)
    def test_run_exits_1_without_outputs(self, tmp_path, capsys, entry, message):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"scenario": "collective-spins", %s}' % entry)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_field_accepted(self):
        assert parse_config({"scenario": "collective-spins", "beta_B": 2}).beta_B == 2


class TestRunCommand:
    def test_reversal_run_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", str(cfg), "--out", str(out)])
        assert code == 0
        csv_text = (out / "timeseries.csv").read_text()
        assert csv_text.splitlines()[0] == CSV_HEADER
        summary = (out / "summary.txt").read_text()
        assert "heat_flow_reversed: yes" in summary
        assert "iii_reversal_bound: pass" in summary

    def test_malformed_config_exits_1_without_outputs(self, tmp_path):
        cfg = write_config(tmp_path, gamma=-0.5)
        out = tmp_path / "out"
        code = main(["run", str(cfg), "--out", str(out)])
        assert code == 1
        assert not (out / "timeseries.csv").exists()
        assert not (out / "summary.txt").exists()

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "timeseries.csv").read_bytes() + (out / "summary.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_thermal_operation_run(self, tmp_path):
        cfg = write_config(
            tmp_path, scenario="thermal-operation", beta_0=0.7, beta_B=1.3, seeds=24
        )
        out = tmp_path / "ops"
        code = main(["run", str(cfg), "--out", str(out)])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "conservation laws: qubit*qubit" in summary
        assert "conservation laws: qutrit*qubit" in summary
        assert "24/24 pass" in summary
        csv_text = (out / "timeseries.csv").read_text()
        assert "finite-operation" in csv_text

    def test_csv_has_17_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "digits"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        line = (out / "timeseries.csv").read_text().splitlines()[2]
        entry = line.split(",")[1]  # entropy column: irrational value
        mantissa = entry.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) == 17

    @pytest.mark.parametrize("name", ["otto.json", "near_degenerate.json"])
    def test_shipped_config_runs_clean(self, tmp_path, name):
        cfg = Path(__file__).parent.parent / "configs" / name
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert "FAIL" not in (out / "summary.txt").read_text()

    def test_otto_at_infinite_hot_temperature(self, tmp_path):
        cfg = tmp_path / "otto.json"
        cfg.write_text(json.dumps({"scenario": "otto-cycle", "otto": {"beta_hot": 0}}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rows = [l.split(",") for l in (out / "timeseries.csv").read_text().splitlines()[1:]]
        hot = [r for r in rows if r[-1].endswith("stroke=after-hot-isochore")]
        assert len(hot) == 2
        assert all(r[6] == "nan" for r in hot)  # F_D is undefined at beta = 0

    def test_single_spin_passes_finite_difference_check(self, tmp_path):
        cfg = tmp_path / "n1.json"
        cfg.write_text(json.dumps({"scenario": "collective-spins", "n": 1}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_out_naming_a_file_is_an_output_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("keep")
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert "output error:" in capsys.readouterr().err
        assert out.read_text() == "keep"

    def test_failed_summary_write_removes_the_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        (out / "summary.txt").mkdir(parents=True)
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert "output error:" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["summary.txt"]

    def test_non_finite_state_is_a_scenario_failure(self, tmp_path, capsys):
        """exp(t L) at t = 1e300 loses the state (all zero here); the Otto stroke reports it."""
        cfg = tmp_path / "otto.json"
        cfg.write_text(json.dumps({"scenario": "otto-cycle", "otto": {"stroke_time": 1e300}}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning ahead of the error line
            assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "scenario failed: propagated state has trace 0.000e+00\n"
        assert not out.exists()

    def test_linalg_error_is_a_scenario_failure(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "run_scenario_config", broken)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "scenario failed: Eigenvalues did not converge\n"
        assert not out.exists()

    def test_collective_run_sweep_table(self, tmp_path):
        cfg = write_config(
            tmp_path, scenario="collective-spins", beta_0=50.0, beta_B=1.0,
            sweep={"minimum": 0.1, "maximum": 6.0, "points": 7},
        )
        out = tmp_path / "coll"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "beta_B_omega,Pi_th,Pi_col,ratio" in summary
        assert "ratio_within_5_percent: pass" in summary


class TestVerifyCommand:
    def test_installed_entry_point_perturbed(self):
        """Tolerance injection must flip the targeted criterion to FAIL (exit 2)."""
        proc = subprocess.run(
            [sys.executable, "-m", "cohentropy.cli", "verify", "--perturb", "5"],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 2
        lines = [l for l in proc.stdout.splitlines() if "criterion  5" in l]
        assert lines and lines[0].startswith("[FAIL]")
        assert sum(1 for l in proc.stdout.splitlines() if l.startswith("[")) == 14

    def test_out_naming_a_file_is_an_output_error(self, tmp_path, capsys, monkeypatch):
        stub = [CriterionResult(k, "stub", True, "ok") for k in range(1, 15)]
        monkeypatch.setattr("cohentropy.cli.run_all", lambda perturb=None: stub)
        out = tmp_path / "taken"
        out.write_text("keep")
        assert main(["verify", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert sum(1 for l in captured.out.splitlines() if l.startswith("[PASS]")) == 14
        assert "output error:" in captured.err
        assert out.read_text() == "keep"
