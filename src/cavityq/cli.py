"""Command-line front end: parse configs, run experiments, emit reports.

Subcommands
-----------
run
    Run one experiment config; writes ``report.json`` and ``trials.csv``
    into the output directory.
sweep
    Run a config once per sweep grid value; writes one report directory
    per point plus a ``sweep.csv`` overview.
list-presets
    Print the shipped preset configs, one record per line.

Trials run serially in this process. Exit codes: 0 success, 1 invalid
config or usage error, 2 tolerance violation under ``--check``, 3 output
I/O failure. Reports are deterministic: numbers are serialized with 17
significant digits, keys are sorted, and wall-clock timing goes to
stderr only, so rerunning a config with the same seed reproduces
report.json byte for byte.
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import jsonschema

from . import __version__
from .channels import NOISE_SCALARS, BathSpec, NoiseConfig
from .dynamics import finite_float
from .experiments import (
    ExperimentConfig,
    run_sweep,
    run_trials,
    sweep_point,
)

PRESET_DIR = Path(__file__).parent / "presets"
SCHEMA_PATH = Path(__file__).parent / "report_schema.json"

# --check tolerances: heralded runs must purify, vacuum baths must commute
FIDELITY_FLOOR = 1.0 - 1e-9
STATIONARITY_CEILING = 1e-12

_CONFIG_KEYS = {
    "protocol",
    "noise",
    "trials",
    "seed",
    "max_attempts",
    "protocol_params",
    "sweep",
}
_NOISE_KEYS = {"backend", "bath", *NOISE_SCALARS}


# ---------------------------------------------------------------------------
# config parsing


def _reject_unknown(doc, allowed, where):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _as_list(value, name):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list")
    return value


def _as_amp(value):
    """An amplitude is a number or a [real, imaginary] pair."""
    if not isinstance(value, (list, tuple)):
        return value
    if len(value) != 2:
        raise ValueError("complex amplitudes are [real, imaginary] pairs")
    real, imag = (finite_float(v, "amplitude") for v in value)
    return complex(real, imag)


def _parse_noise(doc) -> NoiseConfig:
    if not isinstance(doc, dict):
        raise ValueError("noise must be an object")
    _reject_unknown(doc, _NOISE_KEYS, "noise")
    kwargs = dict(doc)
    bath = kwargs.pop("bath", None)
    if bath is not None:
        if not isinstance(bath, dict):
            raise ValueError("bath must be an object or null")
        _reject_unknown(bath, {"couplings", "detunings"}, "bath")
        if "couplings" not in bath or "detunings" not in bath:
            raise ValueError("bath needs couplings and detunings")
        kwargs["bath"] = BathSpec(
            *(_as_list(bath[key], key) for key in ("couplings", "detunings"))
        )
        # the report schema needs a mode; the Python API allows none
        if kwargs["bath"].n_modes == 0:
            raise ValueError("bath needs at least one mode")
    return NoiseConfig(**kwargs)


def parse_config(doc) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    The document mirrors the config field for field; unknown keys at any
    level are hard errors so protocol configs cannot silently drift. Only
    the document's shape is checked here: the dataclasses own every type
    and range rule for the values they hold.
    """
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    _reject_unknown(doc, _CONFIG_KEYS, "config")
    if "protocol" not in doc:
        raise ValueError("config needs a protocol")
    kwargs = dict(doc)
    if "noise" in doc:
        kwargs["noise"] = _parse_noise(doc["noise"])
    params = doc.get("protocol_params", {})
    if not isinstance(params, dict):
        raise ValueError("protocol_params must be an object")
    parsed = {}
    for key, value in params.items():
        value = _as_list(value, key)
        parsed[key] = [_as_amp(v) for v in value] if key == "amps" else value
    kwargs["protocol_params"] = parsed
    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ValueError("sweep must be an object or null")
        _reject_unknown(sweep, {"parameter", "values"}, "sweep")
        if "parameter" not in sweep or "values" not in sweep:
            raise ValueError("sweep needs parameter and values")
        values = _as_list(sweep["values"], "sweep values")
        kwargs["sweep"] = (sweep["parameter"], tuple(values))
    return ExperimentConfig(**kwargs)


def resolve_config_path(token) -> Path:
    """A config is a readable path or the name of a shipped preset."""
    path = Path(token)
    if path.is_file():
        return path
    for candidate in (token, f"{token}.json"):
        preset = PRESET_DIR / candidate
        if preset.is_file():
            return preset
    raise ValueError(f"config {token!r} is neither a file nor a preset name")


def load_config(token) -> ExperimentConfig:
    path = resolve_config_path(token)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_number(value) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans are not report numbers")
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        raise ValueError("reports cannot carry non-finite numbers")
    return "%.17g" % value


def dump_json(value, indent=0) -> str:
    """Serialize with sorted keys and 17-significant-digit numbers."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return _format_number(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{json.dumps(key)}: {dump_json(value[key], indent + 1)}"
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{dump_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def config_document(cfg: ExperimentConfig) -> dict:
    """Normalized config echo; parsing it back yields an equal config."""
    params = {}
    for key, value in cfg.protocol_params.items():
        if key == "amps":
            params[key] = [[a.real, a.imag] for a in value]
        else:
            params[key] = list(value)
    noise = cfg.noise
    return {
        "protocol": cfg.protocol,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "max_attempts": cfg.max_attempts,
        "noise": {
            "backend": noise.backend,
            **{name: getattr(noise, name) for name in NOISE_SCALARS},
            "bath": None
            if noise.bath is None
            else {
                "couplings": list(noise.bath.couplings),
                "detunings": list(noise.bath.detunings),
            },
        },
        "protocol_params": params,
        "sweep": None
        if cfg.sweep is None
        else {"parameter": cfg.sweep[0], "values": list(cfg.sweep[1])},
    }


def summary_document(stats) -> dict:
    return {
        "trials": stats.trials,
        "success_probability": stats.success_probability,
        "stderr": stats.stderr,
        "mean_fidelity": stats.mean_fidelity,
        "min_fidelity": stats.min_fidelity,
        "attempts_histogram": [list(row) for row in stats.attempts_histogram],
        "stationarity_deviation": stats.stationarity_deviation,
    }


def build_report(cfg: ExperimentConfig, stats) -> dict:
    return {
        "artifact": {"name": "cavityq", "version": __version__},
        "config": config_document(cfg),
        "summary": summary_document(stats),
        "trials_csv": "trials.csv",
    }


def _outcome_cell(outcomes) -> str:
    return "|".join(f"{name}={index}" for name, index in outcomes)


@lru_cache(maxsize=1)
def _report_validator():
    """The report schema's validator, checked and built once per process."""
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def write_run_outputs(outdir: Path, cfg, stats, results):
    """Write report.json and trials.csv; validates the report first."""
    report = build_report(cfg, stats)
    # the error jsonschema.validate would raise for this report
    error = jsonschema.exceptions.best_match(
        _report_validator().iter_errors(report)
    )
    if error is not None:
        raise error
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(
        dump_json(report) + "\n", encoding="utf-8"
    )
    with open(outdir / "trials.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "success", "attempts", "fidelity", "outcomes"])
        for k, r in enumerate(results):
            writer.writerow(
                [
                    k,
                    int(r.success),
                    r.attempts,
                    _format_number(float(r.fidelity)),
                    _outcome_cell(r.outcomes),
                ]
            )


SWEEP_CSV_COLUMNS = (
    "parameter",
    "value",
    "trials",
    "success_probability",
    "stderr",
    "mean_fidelity",
    "min_fidelity",
    "stationarity_deviation",
)


def _sweep_cell(value) -> str:
    return "" if value is None else _format_number(float(value))


def write_sweep_csv(path: Path, parameter, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for value, stats, _ in rows:
            # the columns after "trials" are SummaryStats fields
            writer.writerow(
                [
                    parameter,
                    _sweep_cell(value),
                    stats.trials,
                    *(
                        _sweep_cell(getattr(stats, name))
                        for name in SWEEP_CSV_COLUMNS[3:]
                    ),
                ]
            )


# ---------------------------------------------------------------------------
# checks


def point_violations(cfg: ExperimentConfig, stats) -> list:
    """Tolerance violations for one run's summary under --check."""
    out = []
    if cfg.protocol == "stationarity_scan":
        if (
            cfg.noise.p_therm == 0.0
            and stats.stationarity_deviation > STATIONARITY_CEILING
        ):
            out.append(
                f"stationarity deviation {stats.stationarity_deviation!r} "
                f"above {STATIONARITY_CEILING} for a vacuum bath"
            )
        return out
    if stats.min_fidelity is None:
        out.append("no successful trials to certify")
    elif stats.min_fidelity < FIDELITY_FLOOR:
        out.append(
            f"min conditional fidelity {stats.min_fidelity!r} "
            f"below {FIDELITY_FLOOR!r}"
        )
    return out


def sweep_violations(cfg: ExperimentConfig, rows) -> list:
    out = []
    for value, stats, _ in rows:
        for v in point_violations(sweep_point(cfg, value), stats):
            out.append(f"{cfg.sweep[0]}={value}: {v}")
    if cfg.protocol == "stationarity_scan" and cfg.sweep[0] == "p_therm":
        devs = [stats.stationarity_deviation for _, stats, _ in rows]
        if any(b < a for a, b in zip(devs, devs[1:])):
            out.append(
                "stationarity deviation is not nondecreasing over the "
                "p_therm grid"
            )
    return out


# ---------------------------------------------------------------------------
# commands


def _fail(code, message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _verdict(violations) -> int:
    """The --check exit code: 2 if there are violations, each on stderr."""
    for v in violations:
        print(f"check failed: {v}", file=sys.stderr)
    return 2 if violations else 0


def _effective_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def cmd_run(args) -> int:
    try:
        cfg = _effective_config(args)
        if cfg.sweep is not None:
            raise ValueError("config has a sweep axis; use the sweep command")
        started = time.monotonic()
        stats, results = run_trials(cfg)
    except ValueError as exc:
        return _fail(1, exc)
    elapsed = time.monotonic() - started
    outdir = Path(args.out)
    try:
        write_run_outputs(outdir, cfg, stats, results)
    except OSError as exc:
        return _fail(3, exc)
    print(
        f"wrote {outdir / 'report.json'} in {elapsed:.2f}s wall clock",
        file=sys.stderr,
    )
    return _verdict(point_violations(cfg, stats)) if args.check else 0


def cmd_sweep(args) -> int:
    try:
        cfg = _effective_config(args)
        started = time.monotonic()
        rows = run_sweep(cfg)
    except ValueError as exc:
        return _fail(1, exc)
    elapsed = time.monotonic() - started
    outdir = Path(args.out)
    try:
        for k, (value, stats, results) in enumerate(rows):
            write_run_outputs(
                outdir / f"point_{k}", sweep_point(cfg, value), stats, results
            )
        write_sweep_csv(outdir / "sweep.csv", cfg.sweep[0], rows)
    except OSError as exc:
        return _fail(3, exc)
    print(
        f"wrote {len(rows)} sweep points under {outdir} "
        f"in {elapsed:.2f}s wall clock",
        file=sys.stderr,
    )
    return _verdict(sweep_violations(cfg, rows)) if args.check else 0


def cmd_list_presets(args) -> int:
    for path in sorted(PRESET_DIR.glob("*.json")):
        cfg = load_config(path.stem)
        noise = cfg.noise
        fields = [
            f"protocol={cfg.protocol}",
            f"backend={noise.backend}",
            f"trials={cfg.trials}",
            f"seed={cfg.seed}",
        ]
        for name in NOISE_SCALARS:
            value = getattr(noise, name)
            if value != 0.0:
                fields.append(f"{name}={value!r}")
        if noise.bath is not None:
            fields.append(f"bath_modes={noise.bath.n_modes}")
        if cfg.sweep is not None:
            fields.append(f"sweep={cfg.sweep[0]}")
        print(f"{path.stem} " + " ".join(fields))
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cavityq",
        description="Run heralded cavity-QED protocol experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("run", cmd_run, "run one experiment config"),
        ("sweep", cmd_sweep, "run a config once per sweep grid value"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config",
            required=True,
            help="config file path or shipped preset name",
        )
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--trials", type=int, help="override the config trial count"
        )
        p.add_argument(
            "--check",
            action="store_true",
            help="exit 2 unless the run meets its tolerances",
        )
        p.add_argument(
            "--out", default=".", help="output directory (default: .)"
        )
        p.set_defaults(func=func)
    p = sub.add_parser("list-presets", help="print the shipped presets")
    p.set_defaults(func=cmd_list_presets)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 is the --check verdict
        return 1 if exc.code == 2 else exc.code
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
