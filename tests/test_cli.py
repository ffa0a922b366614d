"""End-to-end checks of the command-line interface.

Most tests drive ``python -m cavityq`` in a subprocess so exit codes,
stream separation, and file outputs are exercised exactly as a user
would see them.
"""

import csv
import json
import subprocess
import sys
from dataclasses import replace

import jsonschema
import pytest

from cavityq.cli import (
    SCHEMA_PATH,
    config_document,
    dump_json,
    load_config,
    parse_config,
    write_run_outputs,
)
from cavityq.experiments import ExperimentConfig, run_trials

SMALL_RUN = {
    "protocol": "joint_measure",
    "trials": 20,
    "seed": 5,
    "max_attempts": 25,
    "noise": {"backend": "analytic", "eta_local": 0.05},
    "protocol_params": {"amps": [0.6, 0.8]},
    "sweep": None,
}
# a stationarity scan on a two-mode bath: runs in milliseconds
SCAN = {
    "protocol": "stationarity_scan",
    "noise": {
        "backend": "bath",
        "eta_local": 0.2,
        "bath": {"couplings": [0.25, 0.35], "detunings": [0.0, 0.9]},
    },
}
P_THERM = {"parameter": "p_therm"}
# an integer too large for a float
BIG = 10**400


def invoke(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cavityq", *argv],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_round_trip_through_echo(self):
        cfg = parse_config(SMALL_RUN)
        assert parse_config(config_document(cfg)) == cfg

    def test_preset_names_resolve(self):
        cfg = load_config("epr_ideal")
        assert cfg.protocol == "epr"
        assert load_config("epr_ideal.json") == cfg

    def test_every_preset_parses_and_round_trips(self):
        result = invoke("list-presets")
        assert result.returncode == 0
        names = [line.split()[0] for line in result.stdout.splitlines()]
        assert "epr_ideal" in names and "gate_eta05" in names
        for name in names:
            cfg = load_config(name)
            assert parse_config(config_document(cfg)) == cfg

    def test_unknown_keys_rejected_at_each_level(self):
        for doc in (
            {**SMALL_RUN, "extra": 1},
            {**SMALL_RUN, "noise": {"backend": "analytic", "oops": 2}},
            {
                **SMALL_RUN,
                "noise": {"bath": {"couplings": [0.1], "huh": []}},
            },
        ):
            with pytest.raises(ValueError, match="unknown"):
                parse_config(doc)

    def test_type_errors(self):
        with pytest.raises(ValueError, match="integer"):
            parse_config({**SMALL_RUN, "trials": 2.5})
        with pytest.raises(ValueError, match="integer"):
            parse_config({**SMALL_RUN, "seed": True})
        with pytest.raises(ValueError, match="number"):
            parse_config({**SMALL_RUN, "noise": {"eta_local": "big"}})

    def test_complex_amps(self):
        doc = {
            "protocol": "joint_measure",
            "protocol_params": {"amps": [[0.6, 0.0], [0.0, 0.8]]},
        }
        cfg = parse_config(doc)
        assert cfg.protocol_params["amps"] == (0.6, 0.8j)
        with pytest.raises(ValueError, match="pair"):
            parse_config(
                {
                    "protocol": "joint_measure",
                    "protocol_params": {"amps": [[0.6, 0.0, 0.1], [1.0, 0.0]]},
                }
            )


class TestJsonSerializer:
    def test_seventeen_digit_floats(self):
        assert dump_json(0.1) == "0.10000000000000001"
        assert dump_json(1.0) == "1"
        assert dump_json({"b": 2, "a": [1.5]}).index('"a"') < dump_json(
            {"b": 2, "a": [1.5]}
        ).index('"b"')

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            dump_json(float("nan"))


class TestRunCommand:
    def test_reports_are_byte_stable(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        for d in ("a", "b"):
            result = invoke(
                "run", "--config", str(cfg), "--out", str(tmp_path / d)
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout == ""
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()
        assert (tmp_path / "a/trials.csv").read_bytes() == (
            tmp_path / "b/trials.csv"
        ).read_bytes()

    def test_report_validates_against_shipped_schema(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        assert invoke(
            "run", "--config", str(cfg), "--out", str(tmp_path)
        ).returncode == 0
        report = json.loads((tmp_path / "report.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(report, schema)
        assert report["artifact"]["name"] == "cavityq"
        assert parse_config(report["config"]) == parse_config(SMALL_RUN)

    def test_trials_csv_shape(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        invoke("run", "--config", str(cfg), "--out", str(tmp_path))
        with open(tmp_path / "trials.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "success", "attempts", "fidelity", "outcomes"]
        assert len(rows) == 1 + SMALL_RUN["trials"]
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(20)]
        assert set(r[1] for r in rows[1:]) <= {"0", "1"}
        ok = next(r for r in rows[1:] if r[1] == "1")
        assert "=" in ok[4]

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        invoke(
            "run", "--config", str(cfg), "--seed", "123", "--trials", "7",
            "--out", str(tmp_path),
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["seed"] == 123
        assert report["config"]["trials"] == 7
        assert report["summary"]["trials"] == 7

    def test_check_passes_for_purified_presets(self, tmp_path):
        for preset in ("epr_ideal", "gate_eta05"):
            result = invoke(
                "run", "--config", preset, "--check",
                "--out", str(tmp_path / preset),
            )
            assert result.returncode == 0, result.stderr

    def test_check_passes_on_two_mode_bath(self, tmp_path):
        # each slot of the joint measurement gets both modes of the bath
        doc = {
            "protocol": "joint_measure",
            "trials": 50,
            "seed": 3,
            "noise": {
                "backend": "bath",
                "bath": {"couplings": [0.2, 0.3], "detunings": [0.0, 0.7]},
            },
        }
        cfg = write_config(tmp_path, doc)
        result = invoke(
            "run", "--config", str(cfg), "--check", "--out", str(tmp_path)
        )
        assert result.returncode == 0, result.stderr

    def test_check_flags_unpurified_run(self, tmp_path):
        doc = {
            "protocol": "gate_raw",
            "trials": 30,
            "seed": 2,
            "noise": {"backend": "analytic", "eta_local": 0.2},
        }
        cfg = write_config(tmp_path, doc)
        result = invoke(
            "run", "--config", str(cfg), "--check", "--out", str(tmp_path)
        )
        assert result.returncode == 2
        assert "fidelity" in result.stderr
        # the report is still written before the check verdict
        assert (tmp_path / "report.json").exists()

    def test_exit_codes_for_bad_inputs(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"protocol": ', encoding="utf-8")
        assert invoke(
            "run", "--config", str(bad), "--out", str(tmp_path)
        ).returncode == 1
        assert invoke(
            "run", "--config", str(tmp_path / "ghost.json"),
            "--out", str(tmp_path),
        ).returncode == 1
        unk = write_config(tmp_path, {**SMALL_RUN, "mystery": 0}, "unk.json")
        assert invoke(
            "run", "--config", str(unk), "--out", str(tmp_path)
        ).returncode == 1

    def test_sweep_config_rejected_by_run(self, tmp_path):
        result = invoke(
            "run", "--config", "stationarity_default", "--out", str(tmp_path)
        )
        assert result.returncode == 1
        assert "sweep" in result.stderr

    @pytest.mark.parametrize(
        "doc",
        [
            {**SMALL_RUN, "protocol_params": {"amps": 5}},
            {**SMALL_RUN, "sweep": {"parameter": "eta_local", "values": 3}},
            {
                **SMALL_RUN,
                "noise": {
                    "backend": "bath",
                    "bath": {"couplings": 1, "detunings": 2},
                },
            },
            {
                "protocol": "stationarity_scan",
                "noise": {"backend": "bath", "eta_local": 0.2},
                "protocol_params": {"durations": 7},
            },
            {
                "protocol": "stationarity_scan",
                "noise": {"backend": "bath", "eta_local": 0.2},
                "protocol_params": {"start_times": [0.0, float("nan")]},
            },
            {
                "protocol": "stationarity_scan",
                "noise": {"backend": "bath", "eta_local": 0.2},
                "protocol_params": {"durations": [float("inf"), 1.0]},
            },
            {
                "protocol": "stationarity_scan",
                "noise": {"backend": "analytic"},
                "protocol_params": {"durations": [-1.0, 2.0]},
            },
            {
                **SMALL_RUN,
                "noise": {
                    "backend": "bath",
                    "bath": {"couplings": [], "detunings": []},
                },
            },
        ],
        ids=[
            "amps",
            "sweep_values",
            "bath",
            "durations",
            "nan_start_time",
            "infinite_duration",
            "negative_analytic_duration",
            "empty_bath",
        ],
    )
    def test_malformed_config_exits_one_without_traceback(self, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        result = invoke("run", "--config", str(cfg), "--out", str(tmp_path))
        assert result.returncode == 1
        assert result.stderr.startswith("error:"), result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("run", {**SCAN, "protocol_params": {"durations": "12"}}),
            ("run", {**SCAN, "protocol_params": {"durations": [True, 1]}}),
            ("run", {**SCAN, "protocol_params": {"durations": [BIG, 1]}}),
            ("sweep", {**SCAN, "sweep": {**P_THERM, "values": ["0.05", False]}}),
            ("sweep", {**SCAN, "sweep": {**P_THERM, "values": [BIG]}}),
            ("run", {**SMALL_RUN, "noise": {"eta_local": BIG}}),
            ("run", {**SMALL_RUN, "protocol_params": {"amps": [BIG, 0]}}),
            ("run", {**SMALL_RUN, "protocol_params": {"amps": [[0.6, BIG], 0]}}),
            (
                "run",
                {
                    **SMALL_RUN,
                    "noise": {
                        "backend": "bath",
                        "bath": {"couplings": [BIG], "detunings": [0.0]},
                    },
                },
            ),
        ],
        ids=[
            "string_durations",
            "bool_duration",
            "big_duration",
            "string_and_bool_sweep_values",
            "big_sweep_value",
            "big_noise_scalar",
            "big_amp",
            "big_imaginary_part",
            "big_coupling",
        ],
    )
    def test_non_numbers_exit_one_without_report(self, tmp_path, command, doc):
        # strings, bools and integers too large for a float are no numbers
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        result = invoke(command, "--config", str(cfg), "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("error:"), result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--out", "unused"], 1),
            (["run", "--config", "jm_ideal", "--jobs", "2"], 1),
            (["run", "--help"], 0),
        ],
        ids=["no_config", "unknown_flag", "help"],
    )
    def test_usage_exit_codes(self, argv, code):
        # 2 is reserved for --check violations
        result = invoke(*argv)
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("key", ["couplings", "detunings"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_bath_exits_one_with_one_line(self, tmp_path, key, value):
        bath = {"couplings": [0.2], "detunings": [0.0]}
        bath[key] = [value]
        noise = {"backend": "bath", "eta_local": 0.05, "bath": bath}
        cfg = write_config(tmp_path, {**SMALL_RUN, "noise": noise})
        result = invoke("run", "--config", str(cfg), "--out", str(tmp_path))
        assert result.returncode == 1
        assert result.stderr == f"error: bath {key} must be finite\n"

    def test_invalid_report_raises_before_writing(self, tmp_path):
        cfg = parse_config({**SMALL_RUN, "trials": 3})
        stats, results = run_trials(cfg)
        bad = replace(stats, success_probability=1.5)
        # twice: the validator is built once and must reject every call
        for name in ("first", "second"):
            with pytest.raises(jsonschema.ValidationError):
                write_run_outputs(tmp_path / name, cfg, bad, results)
            assert not (tmp_path / name / "report.json").exists()
        write_run_outputs(tmp_path / "good", cfg, stats, results)
        assert (tmp_path / "good" / "report.json").is_file()

    def test_write_failure_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        result = invoke(
            "run", "--config", str(cfg), "--out", str(blocker / "sub")
        )
        assert result.returncode == 3


class TestSweepCommand:
    def test_stationarity_default_sweep(self, tmp_path):
        result = invoke(
            "sweep", "--config", "stationarity_default", "--check",
            "--out", str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "parameter" and rows[0][1] == "value"
        assert len(rows) == 5
        devs = [float(r[-1]) for r in rows[1:]]
        assert devs[0] < 1e-12
        assert devs == sorted(devs)
        for k in range(4):
            point = tmp_path / f"point_{k}" / "report.json"
            report = json.loads(point.read_text())
            assert report["config"]["sweep"] is None
            assert report["config"]["noise"]["p_therm"] == pytest.approx(
                [0.0, 0.02, 0.05, 0.1][k]
            )

    def test_sweep_requires_axis(self, tmp_path):
        result = invoke(
            "sweep", "--config", "jm_ideal", "--out", str(tmp_path)
        )
        assert result.returncode == 1
        assert "sweep" in result.stderr

    def test_point_reports_are_self_contained(self, tmp_path):
        doc = {
            "protocol": "epr",
            "trials": 10,
            "seed": 3,
            "noise": {
                "backend": "analytic",
                "eta_trans": 0.1,
                "eta_local": 0.05,
            },
            "sweep": {"parameter": "eta_trans", "values": [0.1, 0.2]},
        }
        cfg = write_config(tmp_path, doc)
        result = invoke(
            "sweep", "--config", str(cfg), "--out", str(tmp_path)
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "point_1/report.json").read_text())
        assert report["config"]["noise"]["eta_trans"] == 0.2
        rerun = ExperimentConfig(**vars(parse_config(report["config"])))
        assert rerun.sweep is None


class TestListPresets:
    def test_record_format(self):
        result = invoke("list-presets")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 14
        by_name = {line.split()[0]: line for line in lines}
        assert "protocol=epr" in by_name["epr_ideal"]
        assert "p_therm=0.1" in by_name["epr_therm10"]
        assert "sweep=p_therm" in by_name["stationarity_default"]


def test_cli_import_loads_no_scipy():
    # numpy and jsonschema are the only runtime dependencies
    probe = (
        "import sys, cavityq.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
