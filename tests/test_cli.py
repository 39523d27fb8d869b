import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohentropy import cli
from cohentropy.acceptance import CriterionResult
from cohentropy.cli import main
from cohentropy import scenarios, thermo
from cohentropy.scenarios import (
    CONFIGS,
    CSV_HEADER,
    LINDBLAD_DIM_BUDGET,
    MAX_GRID_POINTS,
    NearDegenerateScenario,
    ReversalScenario,
    config_from_json,
    geometric_times,
    parse_config,
    run_scenario_config,
)
from cohentropy.thermo import ComplementarityReport, OttoCycleReport, ThermoSeries
from cohentropy.exceptions import ConfigError
from conftest import csv_reference


SHIPPED = Path(__file__).parent.parent / "configs"


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {"scenario": "heat-flow-reversal", "beta_0": 1.1, "beta_B": 1.0,
           "time_grid": {"points": 12}}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def benchmark_workloads() -> dict:
    """The scenario configs of the benchmark's workloads, as it declares them."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: cfg for name, cfg in module.WORKLOADS.items() if cfg is not None}


def settable_values(cls, prefix="") -> list[str]:
    """The dotted names a config of ``cls`` can set, sections expanded."""
    out = []
    for f in dataclasses.fields(cls):
        section = scenarios._SECTIONS.get(f.type)
        out += settable_values(section, f"{f.name}.") if section else [prefix + f.name]
    return out


class TestConfigParsing:
    def test_shipped_configs_parse(self):
        configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert len(configs) >= 5
        for path in configs:
            raw = json.loads(path.read_text())
            assert config_from_json(path.read_text()).scenario == raw["scenario"]

    def test_benchmark_workload_configs_parse(self):
        workloads = benchmark_workloads()
        assert set(workloads) == {"collective-d32", "reversal-3k"}
        for raw in workloads.values():
            assert config_from_json(json.dumps(raw)).scenario == raw["scenario"]

    def test_each_scenario_accepts_only_what_it_reads(self):
        sweep = ["sweep.minimum", "sweep.maximum", "sweep.points"]
        otto = ["otto.lam", "otto.beta_cold", "otto.beta_hot", "otto.stroke_time", "otto.prep_beta"]
        expected = {
            "collective-spins":
                ["n", "s", "omega", "beta_0", "beta_B", "gamma", "time_grid.points", *sweep],
            "heat-flow-reversal":
                ["omega", "beta_0", "beta_B", "gamma", "coherence_amplitude", "time_grid.points"],
            "thermal-operation": ["omega", "beta_0", "beta_B", "seeds", "seed"],
            "near-degenerate": ["omega", "delta", "beta_0", "beta_B", "gamma", "time_grid.points"],
            "otto-cycle": ["omega", "gamma", *otto],
        }
        got = {name: settable_values(cls) for name, cls in CONFIGS.items()}
        assert got == expected
        assert sum(map(len, got.values())) == 34

    def test_scenario_defaults_to_collective_spins(self):
        assert parse_config({}).scenario == "collective-spins"

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

    def test_tolerances_section_rejected(self, tmp_path, capsys):
        """Check tolerances are fixed: a config cannot loosen an invariant gate."""
        section = {"invariant": 1e-3, "ratio_relative": 0.1, "trace_distance": 0.5}
        path = write_config(tmp_path, tolerances=section)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "unknown keys at <root>: ['tolerances']" in capsys.readouterr().err
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
    ("collective-spins", '"n": true', "n must be an integer"),
    ("collective-spins", '"n": 2.5', "n must be an integer"),
    ("collective-spins", '"gamma": NaN', "gamma must be finite"),
    ("collective-spins", '"beta_B": Infinity', "beta_B must be finite"),
    ("otto-cycle", '"otto": {"lam": NaN}', "otto.lam must be finite"),
]
BAD_VALUE_IDS = [f"{entry}-{message}" for _, entry, message in BAD_VALUES]


class TestConfigValues:
    @pytest.mark.parametrize("scenario,entry,message", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_rejected_by_parser(self, scenario, entry, message):
        with pytest.raises(ConfigError, match=message):
            config_from_json('{"scenario": "%s", %s}' % (scenario, entry))

    @pytest.mark.parametrize("scenario,entry,message", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_run_exits_1_without_outputs(self, tmp_path, capsys, scenario, entry, message):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"scenario": "%s", %s}' % (scenario, entry))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, extra", [
        ('{"scenario": "thermal-operation", "seed": -1, "seeds": 1}', []),
        (None, ["--seed", "-3"]),
    ])
    def test_negative_seed_exits_1_without_outputs(self, tmp_path, capsys, config, extra):
        """A negative seed is a configuration error, never a numpy traceback."""
        path = Path(__file__).parent.parent / "configs" / "thermal_operation.json"
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(config)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), *extra]) == 1
        assert "configuration error: seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, extra, message", [
        # one key per scenario that the scenario does not read
        pytest.param({"scenario": "otto-cycle", "beta_B": 7}, [],
                     "unknown keys at <root>: ['beta_B']", id="otto+beta_B"),
        pytest.param({"scenario": "thermal-operation", "gamma": 0.1}, [],
                     "unknown keys at <root>: ['gamma']", id="thermal-operation+gamma"),
        pytest.param({"scenario": "collective-spins", "delta": 0.2}, [],
                     "unknown keys at <root>: ['delta']", id="collective+delta"),
        pytest.param({"scenario": "heat-flow-reversal", "n": 7}, [],
                     "unknown keys at <root>: ['n']", id="reversal+n"),
        pytest.param({"scenario": "near-degenerate", "sweep": {"points": 4}}, [],
                     "unknown keys at <root>: ['sweep']", id="near-degenerate+sweep"),
        # --seed goes through the same parse: only thermal-operation has a seed
        *(pytest.param(json.loads((SHIPPED / f"{name}.json").read_text()), ["--seed", "5"],
                       "unknown keys at <root>: ['seed']", id=f"{name}+--seed")
          for name in ("collective", "reversal", "near_degenerate", "otto")),
        # the 0.1/delta horizon falls below the first time 0.01/gamma
        pytest.param({"scenario": "near-degenerate", "delta": 0.3, "gamma": 0.001}, [],
                     "the time span needs 0 < 0.01/gamma < 0.1/delta < inf, "
                     "got 0.01/gamma = 10, 0.1/delta = 0.333333", id="near-degenerate-inverted"),
        # 0.1/delta is within a few ulps of 0.01/gamma: np.geomspace repeats times
        pytest.param({"scenario": "near-degenerate", "omega": 10, "gamma": 0.1,
                      "delta": 0.9999999999999999}, [],
                     "the time span 0.01/gamma = 0.099999999999999992 to 0.1/delta = "
                     "0.10000000000000002 is too narrow for 60 strictly increasing times",
                     id="near-degenerate-narrow"),
    ])
    def test_config_error_exits_1_without_outputs(self, tmp_path, capsys, config, extra, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, field", [
        ({"scenario": "collective-spins", "time_grid": {"points": 10**20}}, "time_grid.points"),
        ({"scenario": "near-degenerate", "time_grid": {"points": 10**20}}, "time_grid.points"),
        ({"sweep": {"points": 2**63 - 1}}, "sweep.points"),
        ({"time_grid": {"points": MAX_GRID_POINTS + 1}}, "time_grid.points"),
    ])
    def test_huge_point_count_exits_1_without_outputs(self, tmp_path, capsys, config, field):
        """A point count beyond the ceiling is a configuration error naming its field,
        never an np.geomspace traceback; nothing is allocated."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"configuration error: {field} must be at most {MAX_GRID_POINTS}, got "
        )
        assert not out.exists()

    def test_point_ceiling_is_shared(self):
        """The ceiling itself parses; the one time-span helper refuses one point more."""
        cfg = parse_config({"time_grid": {"points": MAX_GRID_POINTS},
                            "sweep": {"points": MAX_GRID_POINTS}})
        assert cfg.time_grid.points == cfg.sweep.points == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match="time_grid.points must be at most"):
            geometric_times(0.1, 1.0, MAX_GRID_POINTS + 1)

    @pytest.mark.parametrize("t_min, t_max", [(1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (1.0, np.inf)])
    def test_empty_or_unbounded_span_rejected(self, t_min, t_max):
        with pytest.raises(ConfigError, match="the time span needs 0 < t_min < t_max < inf"):
            geometric_times(t_min, t_max, 3)

    def test_span_is_stated_once_per_scenario(self):
        """Each Lindblad scenario's times come from its config, zero first for reversal."""
        coll = CONFIGS["collective-spins"]().times()
        rev = CONFIGS["heat-flow-reversal"](time_grid=scenarios.GridSpec(5)).times()
        near = CONFIGS["near-degenerate"](delta=0.01).times()
        assert (len(coll), coll[0], coll[-1]) == (60, 0.01 / 0.1, 30.0 / 0.1)
        assert (len(rev), rev[:2], rev[-1]) == (6, [0.0, 0.01 / 0.1], 20.0 / 0.1)
        assert (near[0], near[-1]) == (0.01 / 0.1, 0.1 / 0.01)

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

    def test_reversal_runs_at_its_defaults(self, tmp_path):
        """The scenario name alone finds a reversing amplitude at the default beta_0 and passes."""
        cfg = tmp_path / "reversal.json"
        cfg.write_text(json.dumps({"scenario": "heat-flow-reversal"}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert "heat_flow_reversed: yes" in (out / "summary.txt").read_text()

    def test_unclosed_rates_are_counted_not_raised(self, tmp_path, capsys, monkeypatch):
        """Rates that do not close are judged once, by ThermoSeries.verdicts: the run counts
        them in closure_failures, writes both files and exits 2."""
        real = thermo.rate_rows

        def unclosed(gen, states):
            table, divergent, read = real(gen, states)
            table[0, thermo.RATE_COLUMNS.index("Pi")] += 1.0
            return table, divergent, read

        monkeypatch.setattr(thermo, "rate_rows", unclosed)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2
        summary = (out / "summary.txt").read_text()
        assert "closure_failures: 1" in summary and "positivity_failures: 0" in summary
        assert (out / "timeseries.csv").read_text().startswith(CSV_HEADER)
        assert capsys.readouterr().err.startswith("1 invariant failure(s); see ")

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
        cfg = tmp_path / "ops.json"
        cfg.write_text(json.dumps(
            {"scenario": "thermal-operation", "beta_0": 0.7, "beta_B": 1.3, "seeds": 24}
        ))
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

    def test_csv_rows_equal_the_per_cell_reference(self):
        """Each row is one %-format of its twelve floats and flags: byte for byte the
        per-cell format(x, ".17g") reference, at signed zeros, infinities, nan, the least
        subnormal and values whose shortest repr has fewer digits."""
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1 / 3, -1e-300,
                   0.1, -2.5, 1e-5, 123456789.125]  # the 13 float fields, rotated per row
        flags = [(), ("pi-divergent",), ("pi-divergent", "not-applicable")]
        rows = [thermo.ThermoSnapshot(*special[k:], *special[:k], flags=flags[k % 3])
                for k in range(len(special))]
        assert scenarios.series_to_csv(rows) == csv_reference(rows)

    @pytest.mark.parametrize("name", ["otto.json", "near_degenerate.json"])
    def test_shipped_config_runs_clean(self, tmp_path, name):
        cfg = Path(__file__).parent.parent / "configs" / name
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert "FAIL" not in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("entries", [
        {"delta": 1e-5},
        {"delta": 3e-9},
        {"omega": 0.3},
        {"omega": 0.65},
        {"omega": 11.205092991419518, "delta": 0.0043714565009282, "beta_0": -50,
         "beta_B": 30, "gamma": 0.0031119294894022403, "time_grid": {"points": 3}},
    ])
    def test_near_degenerate_doublet_clusters_at_its_delta(self, tmp_path, entries):
        """(omega + delta) - omega may round to just above delta; the doublet is still one
        level, as its Bohr frequency is one, and the run matches the degenerate twin."""
        cfg = tmp_path / "near.json"
        cfg.write_text(json.dumps({"scenario": "near-degenerate", **entries}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "positivity_failures: 0" in summary
        assert "within_tolerance: pass" in summary

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
        """exp(t L) at t = 1e300 loses the state (all zero here); the Otto stroke reports its
        drift, naming the machine, the isochore and t."""
        cfg = tmp_path / "otto.json"
        cfg.write_text(json.dumps({"scenario": "otto-cycle", "otto": {"stroke_time": 1e300}}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning ahead of the error line
            assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "scenario failed: incoherent: cold isochore: invariant drift at t = 1e+300: state "
            "drift beyond 1.0e-08: hermiticity 0.000e+00, trace deviation 1.000e+00\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("entries", [{"n": 20000}, {"n": 10**12}, {"n": 2000}, {"s": 1e300}])
    def test_large_ensemble_is_one_configuration_error(self, tmp_path, capsys, entries):
        """(2s+1)^n is judged against the budget by its logarithm, so no power of a large n or
        s is formed or printed: one line naming n, s and the budget, exit 1, no outputs."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": "collective-spins", **entries}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        n, s = entries.get("n", 2), float(entries.get("s", 0.5))
        assert capsys.readouterr().err == (
            f"configuration error: (2s+1)^n exceeds the Lindblad budget 64 at n = {n}, s = {s}\n"
        )
        assert not out.exists()

    def test_integer_past_the_digit_limit_is_one_configuration_error(self, tmp_path, capsys):
        """An n of 5000 digits, past the interpreter's integer conversion limit, is rejected
        where the JSON is read: one line, exit 1, no outputs."""
        cfg = tmp_path / "config.json"
        cfg.write_text('{"scenario": "collective-spins", "n": ' + "9" * 5000 + "}")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: configuration is not valid JSON: Exceeds ")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("entries, message", [
        ({"beta_B": -800}, "G(-1.0) overflows to inf at beta_B = -800"),
        ({"beta_B": -300}, "propagated state is not finite at t = 0.09999999999999999"),
        # rates near 1e18 over times near 1e8: the expm fallback overflows
        ({"omega": 0.17906776516898695, "delta": 4.80340180867457e-10, "beta_0": -0.01,
          "beta_B": -300, "gamma": 3.334694933543093e-06, "time_grid": {"points": 4}},
         "propagated state is not finite at t = 123247.92638462444"),
        # an Otto machine whose cold isochore loses its state names the machine, isochore and t
        ({"scenario": "otto-cycle", "omega": 0.6531559426494649, "gamma": 100,
          "otto": {"stroke_time": 0.1, "lam": 0.01, "beta_cold": -300, "prep_beta": 0.01,
                   "beta_hot": 0.0168527851461938}},
         "incoherent: cold isochore: propagated state is not finite at t = 0.1"),
        # a block whose eig residual overflows is rejected without a warning
        ({"scenario": "heat-flow-reversal", "beta_B": -700, "coherence_amplitude": 0.01},
         "propagated state is not finite at t = 0.09999999999999999"),
    ])
    def test_overflowing_rates_are_a_scenario_failure(self, tmp_path, capsys, entries, message):
        """A bath at beta_B * omega far below -1 (a negative temperature) gives an upward
        rate that overflows, or a state its propagation loses: one line, no outputs.  The
        scenario is near-degenerate unless the entries name another."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": "near-degenerate", **entries}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"scenario failed: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("poison, message", [
        ("leak", "population drift at t = 0.09999999999999999: total 0.9971935330983"),
        ("nan", "propagated populations are not finite at t = 0.09999999999999999"),
    ])
    def test_poisoned_population_chain_is_a_scenario_failure(
        self, tmp_path, capsys, monkeypatch, poison, message
    ):
        """The collective run's (J, m) populations are checked as ``evolve`` checks states:
        a chain that leaks weight out of its ground state, or one whose rate is nan, ends
        in one line that names t, with no outputs."""
        from cohentropy import collective

        build = collective.population_chains

        def poisoned(*args):
            chains = build(*args)
            rates = chains.rates.copy()
            if poison == "leak":
                rates[0, 0] -= 0.05
            else:
                rates[0, 1] = np.nan
            return chains._replace(rates=rates)

        monkeypatch.setattr(collective, "population_chains", poisoned)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(write_config(tmp_path, scenario="collective-spins")),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario failed: {message}") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("entries, threshold, p_1, c_max", [
        ({"beta_0": 2}, "0.324027", "0.104994", "0.0142093"),  # beyond what positivity allows
        ({"beta_0": 1.1, "beta_B": 0}, None, None, None),  # chi moves no heat: no a*
        ({"beta_0": 1.1, "beta_B": 300}, "-0.24974", "0.18737", "0.06237"),  # c < 0 only
        ({"beta_0": 0.5}, "-0.235004", "0.235004", "0.142537"),
    ])
    def test_no_reversal_names_its_threshold(
        self, tmp_path, capsys, entries, threshold, p_1, c_max
    ):
        """E_dot = Tr(L(rho) H) is linear, so the heat flow of rho_th + c chi reverses only
        beyond a* = -E_dot(rho_th) / E_dot(chi): a scan without a reversal names a*, the
        doublet weight p_1 that bounds |c| and the scan's c_max, on one line; where chi
        moves no heat (E_dot(chi) = 0 at beta_B = 0) there is no a*, and the line says so."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": "heat-flow-reversal", **entries}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        reason = "E_dot(chi) = 0, so the coherence does not move the heat flow"
        if threshold is not None:
            reason = (f"the heat flow reverses only beyond c = {threshold}; positivity allows "
                      f"|c| <= {p_1}, and the scan tries 0 < c < c_max = {c_max}")
        assert capsys.readouterr().err == (
            f"scenario failed: no reversing coherence amplitude found in scan: {reason}\n"
        )
        assert not out.exists()

    def test_linalg_error_is_a_scenario_failure(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "run_scenario_config", broken)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "scenario failed: Eigenvalues did not converge\n"
        assert not out.exists()

    def test_memory_error_is_one_line_without_outputs(self, tmp_path, capsys, monkeypatch):
        """A grid too large for memory ends in one stderr line, not a traceback; the
        allocation is simulated, since a real one may be killed on an overcommitting host."""
        def too_big(cfg):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

        monkeypatch.setattr(cli, "run_scenario_config", too_big)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"scenario": "collective-spins", "n": 2, "time_grid": {"points": 100000000000}}
        ))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "out of memory: Unable to allocate 745. GiB for an array with shape (100000000000,)\n"
        )
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


@pytest.mark.parametrize(
    "config, failure",
    [
        # beta_B omega = 20: the rates and the FD check read ln rho_th of weight e^-40
        ({"scenario": "collective-spins", "n": 2, "beta_0": 1.0, "beta_B": 20.0},
         "ratio_within_5_percent: FAIL"),
        # a beta_0 = 50 thermal start: the backtrack reads ln p_0 of weight e^-100
        ({"scenario": "heat-flow-reversal", "beta_0": 50, "coherence_amplitude": 0},
         "heat_flow_reversed: no"),
    ],
)
def test_cold_thermal_weights_keep_exact_logs(config, failure):
    """A Boltzmann weight below the clip floor keeps its exact log, so the run fails only
    its genuine physics limit: the ratio at beta_0 omega = 1, no reversal without coherence."""
    out = run_scenario_config(parse_config(config))
    assert re.findall(r"^\w+: (?:FAIL|no)$", out.summary_text, re.M) == [failure]
    assert out.invariant_failures == 1


@pytest.mark.parametrize("config", [
    *(pytest.param(json.loads((SHIPPED / f"{name}.json").read_text()), id=name)
      for name in ("collective", "reversal", "near_degenerate", "otto")),
    pytest.param({"scenario": "collective-spins", "n": 2, "beta_0": 1.0, "beta_B": 20.0},
                 id="cold-collective"),
    pytest.param({"scenario": "heat-flow-reversal", "beta_0": 50, "coherence_amplitude": 0},
                 id="cold-reversal"),
])
def test_invariant_failures_count_the_reports_verdicts(monkeypatch, config):
    """A run's invariant_failures is the number of failing verdicts its reports return, a
    series' verdicts counting their failing snapshots, and the summary shows each: a FAIL/no
    line or its share of a *_failures count."""
    returned, per_snapshot = [], []

    def recording(method, into):
        def wrapper(*args, **kwargs):
            verdicts = method(*args, **kwargs)
            into.extend([verdicts] if isinstance(verdicts, tuple) else verdicts)
            return verdicts
        return wrapper

    for owner in (ComplementarityReport, OttoCycleReport, ReversalScenario,
                  NearDegenerateScenario):
        monkeypatch.setattr(owner, "verdicts", recording(owner.verdicts, returned))
    monkeypatch.setattr(ThermoSeries, "verdicts", recording(ThermoSeries.verdicts, per_snapshot))
    monkeypatch.setattr(scenarios, "ratio_verdict", recording(scenarios.ratio_verdict, returned))
    out = run_scenario_config(parse_config(config))
    failing = sum(not v.passed for v in returned) + sum(v.value for v in per_snapshot)
    assert returned and out.invariant_failures == failing
    shown = len(re.findall(r"^\w+: (?:FAIL|no)$", out.summary_text, re.M))
    shown += sum(int(k) for k in re.findall(r"^\w+_failures: (\d+)$", out.summary_text, re.M))
    assert shown == failing


def decades(lo: float, hi: float):
    """Log-uniform between lo and hi, both ends included."""
    inner = st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)
    return inner | st.sampled_from((lo, hi))


def signed_decades(lo: float, hi: float):
    return st.just(0.0) | decades(lo, hi) | decades(lo, hi).map(lambda x: -x)


BETA = signed_decades(1e-2, 3e2)
GRID = st.fixed_dictionaries({"points": st.integers(3, 5)})
SWEEP_KEYS = {
    "collective-spins": {
        "n": st.integers(1, 7), "s": st.integers(1, 4).map(lambda k: k / 2),
        "omega": decades(1e-3, 1e3), "beta_0": BETA, "beta_B": BETA, "gamma": decades(1e-6, 1e2),
        "time_grid": GRID,
        "sweep": st.tuples(decades(1e-3, 1e2), decades(2.0, 1e3) | st.just(1.0),
                           st.integers(2, 4)).map(
            lambda x: {"minimum": x[0], "maximum": x[0] * x[1], "points": x[2]}
        ),
    },
    "heat-flow-reversal": {
        "omega": decades(1e-3, 1e3), "beta_0": BETA, "beta_B": BETA, "gamma": decades(1e-6, 1e2),
        "coherence_amplitude": st.none() | st.just(0.0) | decades(1e-6, 1.0), "time_grid": GRID,
    },
    "thermal-operation": {
        "omega": decades(1e-3, 1e3), "beta_0": BETA, "beta_B": BETA,
        "seeds": st.integers(1, 4), "seed": st.just(0) | decades(1.0, 1e9).map(int),
    },
    "near-degenerate": {
        "omega": decades(1e-3, 1e3), "delta": st.just(0.0) | decades(1e-12, 1.0),
        "beta_0": BETA, "beta_B": BETA, "gamma": decades(1e-6, 1e2), "time_grid": GRID,
    },
    "otto-cycle": {
        "omega": decades(1e-3, 1e3), "gamma": decades(1e-6, 1e2),
        "otto": st.fixed_dictionaries({"lam": decades(1e-2, 1e2), "beta_cold": BETA,
                                       "beta_hot": BETA, "stroke_time": decades(1e-1, 1e4),
                                       "prep_beta": BETA}),
    },
}


def dotted_keys(config: dict, prefix: str = "") -> list[str]:
    return [k for key, value in config.items()
            for k in (dotted_keys(value, f"{key}.") if isinstance(value, dict) else [prefix + key])]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.one_of(*(st.fixed_dictionaries({"scenario": st.just(name), **keys})
                   for name, keys in SWEEP_KEYS.items())))
def test_config_sweep_ends_cleanly(tmp_path_factory, config):
    """Every documented key drawn across its decades: the run exits 0, 1 or 2 with no
    exception (RuntimeWarnings are errors in tier-1), writes both outputs or none, and an
    exit 1 names a key.  A delta below about 1e-9 omega may exit 2 with invariant drift."""
    keys = [key for key in dotted_keys(config) if key != "scenario"]
    assert sorted(keys) == sorted(settable_values(CONFIGS[config["scenario"]]))
    config = {key: value for key, value in config.items() if value is not None}
    path = tmp_path_factory.mktemp("sweep") / "config.json"
    path.write_text(json.dumps(config))
    out = path.parent / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(path), "--out", str(out)])
    assert code in (0, 1, 2)
    assert sorted(p.name for p in out.glob("*")) in ([], ["summary.txt", "timeseries.csv"])
    if code == 1:
        names = {name for key in keys for name in (key, *key.split("."))}
        assert any(re.search(rf"\b{re.escape(name)}\b", err.getvalue()) for name in names), (
            err.getvalue()
        )


def test_cli_import_loads_no_scipy():
    """Only a non-diagonalizable generator block (its expm fallback) imports scipy."""
    code = "import sys, cohentropy.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_imports_load_no_process_pool():
    """verify's worker is a bare os.fork: importing the package loads neither
    multiprocessing nor concurrent.futures, whose import alone costs setup time."""
    code = (
        "import sys, cohentropy, cohentropy.acceptance, cohentropy.cli\n"
        "print([m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_collective_spins_at_the_dimension_budget(tmp_path):
    """n = 6, d = 2^6 = LINDBLAD_DIM_BUDGET: the largest documented run exits 0 in its own
    process and reports a peak resident set (VmHWM) under 400 MiB."""
    assert 2 ** 6 == LINDBLAD_DIM_BUDGET
    cfg = tmp_path / "n6.json"
    cfg.write_text(json.dumps({"scenario": "collective-spins", "n": 6}))
    code = (
        "import sys\n"
        "from cohentropy.cli import main\n"
        f"rc = main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(proc.stdout.split("VmHWM:")[1].split()[0])
    assert peak_kib < 400 * 1024


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
