"""Trial running, exact branch enumeration, statistics, and sweeps.

Every protocol routes its branch decisions through a chooser, so the same
code runs two ways: Monte Carlo sampling with per-trial seeded streams,
and an exhaustive walk of the branch tree with exact weights. The second
is the oracle for the first; tests hold them against each other.
"""

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .channels import NoiseConfig, check_stationarity, make_local_channel
from .protocols import (
    DEFAULT_JM_AMPS,
    DEFAULT_MAX_ATTEMPTS,
    EprCircuit,
    ScriptedChooser,
    SampleChooser,
    WEIGHT_FLOOR,
    run_epr,
    run_gate,
    run_joint_measure,
    trace_probability,
)

PROTOCOLS = (
    "joint_measure",
    "epr",
    "gate_raw",
    "gate_purified",
    "stationarity_scan",
)

# noise scalars a sweep may vary; each value must yield a valid NoiseConfig
SWEEP_PARAMETERS = (
    "eta_local",
    "eta_trans",
    "delta",
    "pulse_area_error",
    "phase_offset",
    "p_therm",
)

_PARAM_KEYS = {
    "joint_measure": ("amps",),
    "epr": (),
    "gate_raw": ("amps",),
    "gate_purified": ("amps",),
    "stationarity_scan": ("durations", "start_times"),
}

DEFAULT_GATE_AMPS = (0.5, 0.5, 0.5, 0.5)

# enumeration refuses trees past this many branch-tree runs
MAX_BRANCHES = 10**6

_HALF = 1.0 / np.sqrt(2.0)
# the four computational inputs plus six standard superpositions
PROBE_AMPS = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (_HALF, 0.0, _HALF, 0.0),
    (0.0, _HALF, 0.0, _HALF),
    (_HALF, _HALF, 0.0, 0.0),
    (0.0, 0.0, _HALF, _HALF),
    (0.5, 0.5, 0.5, 0.5),
    (_HALF, 0.0, 0.0, _HALF),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a protocol, its noise, and how to drive it.

    ``protocol_params`` carries the per-protocol knobs (input amplitudes
    for the joint measurement and the gates, slot timing for the
    stationarity scan); unknown keys are rejected so configs cannot drift
    silently. ``sweep`` optionally names a noise parameter and a value
    grid for :func:`run_sweep`.
    """

    protocol: str
    noise: NoiseConfig = NoiseConfig()
    trials: int = 1
    seed: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    protocol_params: dict = field(default_factory=dict)
    sweep: tuple | None = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValueError("max_attempts must be a positive integer")
        allowed = _PARAM_KEYS[self.protocol]
        params = dict(self.protocol_params)
        unknown = set(params) - set(allowed)
        if unknown:
            raise ValueError(
                f"unknown protocol_params for {self.protocol}: "
                f"{sorted(unknown)}"
            )
        if "amps" in params:
            want = 2 if self.protocol == "joint_measure" else 4
            amps = tuple(complex(a) for a in params["amps"])
            if len(amps) != want:
                raise ValueError(f"amps must hold {want} amplitudes")
            params["amps"] = amps
        for key in ("durations", "start_times"):
            if key in params:
                pair = tuple(float(v) for v in params[key])
                if len(pair) != 2:
                    raise ValueError(f"{key} must hold two values")
                params[key] = pair
        # a normalized copy: the caller's dict is never written
        object.__setattr__(self, "protocol_params", params)
        if self.sweep is not None:
            name, values = self.sweep
            if name not in SWEEP_PARAMETERS:
                raise ValueError(
                    f"sweep parameter must be one of {SWEEP_PARAMETERS}"
                )
            values = tuple(float(v) for v in values)
            if not values:
                raise ValueError("sweep grid is empty")
            for v in values:
                replace(self.noise, **{name: v})
            object.__setattr__(self, "sweep", (name, values))


@dataclass(frozen=True)
class TrialResult:
    """One sampled run. Failed trials record fidelity 0; the summary's
    fidelity statistics are conditional on success and skip them."""

    success: bool
    attempts: int
    fidelity: float
    outcomes: tuple

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        f = self.fidelity
        if not -1e-9 <= f <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {f} is outside [0, 1]")
        object.__setattr__(self, "fidelity", min(max(f, 0.0), 1.0))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))


@dataclass(frozen=True)
class SummaryStats:
    """Reduction of a trial list; fidelity fields are None when no trial
    succeeded, stationarity_deviation is None outside scan runs."""

    trials: int
    success_probability: float
    stderr: float
    mean_fidelity: float | None
    min_fidelity: float | None
    attempts_histogram: tuple
    stationarity_deviation: float | None = None


@dataclass(frozen=True)
class BranchRecord:
    """One leaf of the exact branch tree."""

    weight: float
    success: bool
    attempts: int
    fidelity: float | None
    outcomes: tuple
    state: object | None


@dataclass(frozen=True)
class AttemptStatistics:
    """Truncated-geometric law for repeat-until-success attempt counts."""

    success_probability: float
    mean_attempts: float
    std_attempts: float


def attempt_statistics(p_success, max_attempts) -> AttemptStatistics:
    """Exact attempt-count statistics for i.i.d. attempts capped at
    ``max_attempts``, conditioned on eventual success."""
    p = float(p_success)
    if not 0.0 < p <= 1.0:
        raise ValueError("per-attempt success probability must be in (0, 1]")
    q = 1.0 - p
    ks = np.arange(1, int(max_attempts) + 1)
    pk = q ** (ks - 1) * p
    norm = pk.sum()
    mean = float((ks * pk).sum() / norm)
    var = float((ks**2 * pk).sum() / norm) - mean**2
    return AttemptStatistics(float(norm), mean, math.sqrt(max(var, 0.0)))


@lru_cache(maxsize=8)
def _epr_circuit(noise: NoiseConfig) -> EprCircuit:
    return EprCircuit(noise)


def _run_full(cfg: ExperimentConfig, chooser):
    """One protocol run; returns (success, attempts, fidelity, state)."""
    p = cfg.protocol
    if p == "joint_measure":
        amps = cfg.protocol_params.get("amps", DEFAULT_JM_AMPS)
        out = run_joint_measure(cfg.noise, chooser, amps=amps)
        return out.ok, 1, out.fidelity, out.state
    if p == "epr":
        res = run_epr(_epr_circuit(cfg.noise), chooser, cfg.max_attempts)
        return res.success, res.attempts, res.fidelity, res.state
    amps = cfg.protocol_params.get("amps", DEFAULT_GATE_AMPS)
    rec = run_gate(
        cfg.noise, chooser, amps=amps, purified=(p == "gate_purified")
    )
    return rec.ok, 1, rec.fidelity, rec.state


def _run_single(cfg: ExperimentConfig, trial: int) -> TrialResult:
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,))
    chooser = SampleChooser(np.random.default_rng(seq))
    if cfg.protocol == "stationarity_scan":
        return TrialResult(True, 1, 1.0, ())
    success, attempts, fid, _ = _run_full(cfg, chooser)
    outcomes = tuple((pt.name, pt.index) for pt in chooser.trace)
    return TrialResult(success, attempts, fid if success else 0.0, outcomes)


def _scan_deviation(cfg: ExperimentConfig) -> float:
    noise = cfg.noise
    if noise.backend == "analytic":
        ch = make_local_channel(noise, flag_labels=("fl0", "fl1"))
    else:
        n = 1 if noise.bath is None else noise.bath.n_modes
        ch = make_local_channel(
            noise,
            cavity="cav",
            bath_labels=tuple(f"m{k}" for k in range(n)),
        )
    return check_stationarity(
        ch,
        durations=cfg.protocol_params.get("durations"),
        start_times=cfg.protocol_params.get("start_times"),
    )


def summarize(results, *, stationarity_deviation=None) -> SummaryStats:
    results = tuple(results)
    if not results:
        raise ValueError("no trials to summarize")
    n = len(results)
    wins = [r for r in results if r.success]
    p = len(wins) / n
    fids = [r.fidelity for r in wins]
    hist = Counter(r.attempts for r in results)
    return SummaryStats(
        trials=n,
        success_probability=p,
        stderr=math.sqrt(p * (1.0 - p) / n),
        mean_fidelity=float(np.mean(fids)) if fids else None,
        min_fidelity=float(min(fids)) if fids else None,
        attempts_histogram=tuple(sorted(hist.items())),
        stationarity_deviation=stationarity_deviation,
    )


def run_trials(cfg: ExperimentConfig, jobs=None):
    """Run ``cfg.trials`` seeded trials; returns (SummaryStats, results).

    Each trial samples from its own counter-derived stream, so the result
    list is a pure function of (cfg, seed) no matter how many worker
    processes share the load.
    """
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be a positive integer")
    worker = partial(_run_single, cfg)
    if jobs is None or jobs == 1 or cfg.trials == 1:
        results = tuple(worker(t) for t in range(cfg.trials))
    else:
        chunk = max(1, cfg.trials // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = tuple(
                pool.map(worker, range(cfg.trials), chunksize=chunk)
            )
    deviation = None
    if cfg.protocol == "stationarity_scan":
        deviation = _scan_deviation(cfg)
    return summarize(results, stationarity_deviation=deviation), results


def run_sweep(cfg: ExperimentConfig, jobs=None):
    """Run the config once per sweep grid value.

    Returns a tuple of (value, SummaryStats, results) rows in grid order.
    """
    if cfg.sweep is None:
        raise ValueError("config has no sweep axis")
    name, values = cfg.sweep
    rows = []
    for v in values:
        stats, results = run_trials(sweep_point(cfg, v), jobs=jobs)
        rows.append((v, stats, results))
    return tuple(rows)


def sweep_point(cfg: ExperimentConfig, value) -> ExperimentConfig:
    """The config with one noise parameter overridden and no sweep axis."""
    if cfg.sweep is None:
        raise ValueError("config has no sweep axis")
    name = cfg.sweep[0]
    return replace(
        cfg, noise=replace(cfg.noise, **{name: float(value)}), sweep=None
    )


def enumerate_branches(cfg: ExperimentConfig, max_branches=MAX_BRANCHES):
    """Walk every measurement branch of the protocol with exact weights.

    Runs the protocol deterministically once per leaf: a scripted chooser
    pins the path up to the script's end and rides the heaviest branch
    beyond it, and every sibling above the weight floor is scheduled with
    its own extended script. Leaf weights are the products of conditional
    branch weights and sum to one.

    For the entanglement protocol the walk covers the whole
    repeat-until-success process up to ``cfg.max_attempts``; attempts are
    independent, so per-attempt questions are best asked of a
    ``max_attempts=1`` config plus :func:`attempt_statistics`.
    """
    if cfg.protocol == "stationarity_scan":
        raise ValueError(
            "stationarity_scan has no measurement branches; use run_trials"
        )
    pending = [()]
    records = []
    runs = 0
    while pending:
        script = pending.pop()
        if runs >= max_branches:
            raise ValueError(
                f"more than {max_branches} branches; "
                "sample with run_trials instead"
            )
        runs += 1
        chooser = ScriptedChooser(script)
        success, attempts, fid, state = _run_full(cfg, chooser)
        trace = chooser.trace
        for depth in range(len(script), len(trace)):
            point = trace[depth]
            w = np.clip(np.asarray(point.weights, dtype=float), 0.0, None)
            w = w / w.sum()
            prefix = tuple(pt.index for pt in trace[:depth])
            for j in range(len(w)):
                if j != point.index and w[j] > WEIGHT_FLOOR:
                    pending.append(prefix + (j,))
        records.append(
            BranchRecord(
                weight=trace_probability(trace),
                success=success,
                attempts=attempts,
                fidelity=fid,
                outcomes=tuple((pt.name, pt.index) for pt in trace),
                state=state,
            )
        )
    total = sum(r.weight for r in records)
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(
            f"enumerated branch weights sum to {total!r}, not 1"
        )
    return tuple(records)


def estimate_process_fidelity(
    noise: NoiseConfig,
    *,
    purified=True,
    probes=PROBE_AMPS,
    max_branches=MAX_BRANCHES,
) -> float:
    """Worst-case conditional gate fidelity over a probe-input set.

    For each probe input the gate's branch tree is enumerated and the
    surviving branches' fidelities are weight-averaged; the returned
    scalar is the minimum over probes. Raw (unpurified) runs have a
    single branch, so this reduces to the worst unconditioned fidelity.
    """
    protocol = "gate_purified" if purified else "gate_raw"
    worst = 1.0
    for amps in probes:
        cfg = ExperimentConfig(
            protocol=protocol,
            noise=noise,
            protocol_params={"amps": amps},
        )
        branches = enumerate_branches(cfg, max_branches=max_branches)
        num = sum(r.weight * r.fidelity for r in branches if r.success)
        den = sum(r.weight for r in branches if r.success)
        if den <= 0.0:
            raise ValueError("no surviving branch for a probe input")
        worst = min(worst, num / den)
    return float(worst)
