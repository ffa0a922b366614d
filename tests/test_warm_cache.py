"""Warm caches change no result.

Hamiltonians, propagators, single-atom operators, the compiled copy and
gate-application sequences, and channels are built once per process and
shared. The byte-stability tests in ``test_cli.py`` start a fresh
process per run and so only meet cold caches; these run in one process,
so each config meets caches that other configs filled, and every result
is compared with a run made after clearing every cache.
"""

from dataclasses import replace

import numpy as np
import pytest

from cavityq import channels, cli, dynamics, experiments, hilbert, protocols
from cavityq.channels import NoiseConfig
from cavityq.dynamics import BathSpec
from cavityq.experiments import ExperimentConfig, run_sweep, run_trials
from cavityq.protocols import (
    EprCircuit,
    SampleChooser,
    run_epr,
    run_gate,
    run_joint_measure,
)

BASE = NoiseConfig(backend="bath", eta_local=0.05, eta_trans=0.2)
# each variant differs from BASE in one field
VARIANTS = (
    BASE,
    replace(BASE, eta_local=0.1),
    replace(BASE, eta_trans=0.3),
    replace(BASE, phase_offset=0.4),
    replace(BASE, p_therm=0.05),
    replace(BASE, bath=BathSpec((0.2,), (0.5,))),
)
AMPS = {"joint_measure": (0.6, 0.8), "gate_purified": (0.5, 0.5, 0.5, 0.5)}


def clear_caches():
    """Empty every lru_cache table in the package; returns how many."""
    cleared = 0
    for mod in (hilbert, dynamics, channels, protocols, experiments, cli):
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
                cleared += 1
    return cleared


def config(protocol, noise):
    params = {"amps": AMPS[protocol]} if protocol in AMPS else {}
    return ExperimentConfig(
        protocol, noise, trials=3, seed=5, max_attempts=4, protocol_params=params
    )


@pytest.mark.parametrize("protocol", ["joint_measure", "epr", "gate_purified"])
def test_interleaved_bath_configs_match_cold_runs(protocol):
    # the scan must reach every table, or "cold" would not be cold
    assert clear_caches() >= 8
    cold = []
    for noise in VARIANTS:
        clear_caches()
        cold.append(run_trials(config(protocol, noise)))
    clear_caches()
    # two warm passes in opposite orders, so each config runs after the
    # others have filled the caches
    order = list(range(len(VARIANTS)))
    for k in order + order[::-1]:
        assert run_trials(config(protocol, VARIANTS[k])) == cold[k], VARIANTS[k]


def _direct_run(kind, noise):
    """One protocol run, fully recorded; the trace names the herald level
    and any failed checkpoint."""
    chooser = SampleChooser(np.random.default_rng(11))
    attempts = 1
    if kind == "joint_measure":
        out = run_joint_measure(noise, chooser)
    elif kind == "epr":
        attempts, out = run_epr(EprCircuit(noise), chooser, 3)
    else:
        out = run_gate(noise, chooser, amps=AMPS["gate_purified"])
    amps = None if out.state is None else out.state.amplitudes.tobytes()
    return (out.ok, attempts, out.fidelity), amps, tuple(chooser.trace)


def test_final_states_and_g_dwell_interleaved():
    # run_trials drops the final state; compare its amplitudes bit for bit,
    # over the noise variants
    kinds = ("joint_measure", "epr", "gate_purified")
    runs = [(kind, noise) for kind in kinds for noise in VARIANTS]
    cold = []
    for run in runs:
        clear_caches()
        cold.append(_direct_run(*run))
    clear_caches()
    order = list(range(len(runs)))
    for k in order + order[::-1]:
        assert _direct_run(*runs[k]) == cold[k], runs[k]


@pytest.mark.parametrize(
    "preset",
    ["jm_eta05_bath", "epr_lossy_bath", "gate_eta05_bath", "epr_therm10"],
)
def test_cli_reports_identical_cold_and_warm(preset, tmp_path):
    def run(out, name=preset):
        argv = ["run", "--config", name, "--trials", "5", "--out", str(out)]
        assert cli.main(argv) == 0

    clear_caches()
    run(tmp_path / "cold")
    for other in ("jm_eta20_bath", "gate_eta05_bath", "epr_lossy_bath"):
        run(tmp_path / other, other)
    run(tmp_path / "warm")
    for name in ("report.json", "trials.csv"):
        cold = (tmp_path / "cold" / name).read_bytes()
        assert (tmp_path / "warm" / name).read_bytes() == cold, name


def test_stationarity_sweep_interleaved_with_thermal_configs():
    # local-channel blocks and gate folds do not depend on p_therm, so
    # configs that differ only in p_therm share them
    scan = cli.load_config("stationarity_default")
    runs = [("scan", None)] + [
        (protocol, replace(BASE, p_therm=p))
        for p in (0.02, 0.05, 0.1)
        for protocol in ("joint_measure", "epr", "gate_purified")
    ]

    def run(protocol, noise):
        if protocol == "scan":
            return run_sweep(scan)
        return run_trials(config(protocol, noise))

    cold = []
    for run_args in runs:
        clear_caches()
        cold.append(run(*run_args))
    clear_caches()
    order = list(range(len(runs)))
    for k in order + order[::-1]:
        assert run(*runs[k]) == cold[k], runs[k]

    clear_caches()
    misses = channels._compiled.cache_info().misses
    rows = run_sweep(scan)
    assert len(rows) == 4
    assert channels._compiled.cache_info().misses == misses + 1
