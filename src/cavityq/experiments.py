"""Trial running, exact branch enumeration, statistics, and sweeps.

Every protocol routes its branch decisions through a chooser, so a run is
a deterministic function of its choices. Monte Carlo sampling with
per-trial seeded streams and the exhaustive walk of the branch tree with
exact weights both walk a lazily filled branch trie, one per call: a run
of the protocol stores the path it took, and later trials and leaves
reuse it. Since both share the trie, tests hold them against independent
references instead of each other: closed-form laws (the truncated
geometric attempt law, the loss scalars) and a direct per-trial replay.
"""

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .channels import (
    NOISE_SCALARS,
    NoiseConfig,
    check_stationarity,
    make_local_channel,
)
from .protocols import (
    DEFAULT_JM_AMPS,
    DEFAULT_MAX_ATTEMPTS,
    EprCircuit,
    ScriptedChooser,
    SampleChooser,
    WEIGHT_FLOOR,
    _normalized,
    epr_attempt,
    run_gate,
    run_joint_measure,
)

PROTOCOLS = (
    "joint_measure",
    "epr",
    "gate_raw",
    "gate_purified",
    "stationarity_scan",
)

# noise scalars a sweep may vary; each value must yield a valid NoiseConfig
SWEEP_PARAMETERS = NOISE_SCALARS

_PARAM_KEYS = {
    "joint_measure": ("amps",),
    "epr": (),
    "gate_raw": ("amps",),
    "gate_purified": ("amps",),
    "stationarity_scan": ("durations", "start_times"),
}

DEFAULT_GATE_AMPS = (0.5, 0.5, 0.5, 0.5)

# enumeration refuses trees with more leaves than this
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


def _is_int(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _converted(kind, values, name) -> tuple:
    """``values`` as a tuple of ``kind``; ValueError if they are not."""
    try:
        return tuple(kind(v) for v in values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of numbers") from None


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
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not _is_int(self.max_attempts) or self.max_attempts < 1:
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
            amps = _converted(complex, params["amps"], "amps")
            if len(amps) != want:
                raise ValueError(f"amps must hold {want} amplitudes")
            params["amps"] = amps
        for key in ("durations", "start_times"):
            if key in params:
                pair = _converted(float, params[key], key)
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
            values = _converted(float, values, "sweep values")
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


def _run_unit(cfg: ExperimentConfig, chooser, k):
    """Unit ``k`` of one protocol run; returns (ok, fidelity, state).

    The entanglement link's unit is attempt ``k``; every other protocol
    runs as a single unit.
    """
    p = cfg.protocol
    if p == "epr":
        res = epr_attempt(_epr_circuit(cfg.noise), chooser, k)
        return res.success, res.fidelity, res.state
    if p == "joint_measure":
        amps = cfg.protocol_params.get("amps", DEFAULT_JM_AMPS)
        out = run_joint_measure(cfg.noise, chooser, amps=amps)
        return out.ok, out.fidelity, out.state
    amps = cfg.protocol_params.get("amps", DEFAULT_GATE_AMPS)
    rec = run_gate(
        cfg.noise, chooser, amps=amps, purified=(p == "gate_purified")
    )
    return rec.ok, rec.fidelity, rec.state


class _Leaf(NamedTuple):
    ok: bool
    fidelity: float | None
    state: object | None


class _Node:
    """One choice point of the trie: its name, the raw weights it offered,
    their normalisation, and one child slot per branch."""

    __slots__ = ("name", "weights", "p", "children")

    def __init__(self, name, weights):
        self.name = name
        self.weights = weights
        self.p = _normalized(weights)
        self.children = [None] * len(weights)


class _BranchTrie:
    """The branch tree of one protocol, filled lazily for one call.

    Inner nodes hold a choice's name, less the unit's tag, and its raw
    weights; leaves hold the unit's outcome. An empty slot is filled by
    running the unit from its root along the slot's path, which stores
    every choice point of that run. The entanglement link's unit is one
    attempt: attempts are independent and identically distributed, so one
    attempt subtree serves them all and its failure leaves lead into the
    next attempt. States are kept only on request, for enumeration.
    """

    def __init__(self, cfg: ExperimentConfig, keep_states=False):
        self.cfg = cfg
        self.keep_states = keep_states
        self.epr = cfg.protocol == "epr"
        self.repeats = cfg.max_attempts if self.epr else 1
        self.top = [None]  # the single slot that holds the root

    def tag(self, k) -> str:
        return f"try{k}" if self.epr else ""

    def expand(self, chooser, k) -> _Leaf:
        """Run unit ``k`` through ``chooser`` and store the path it took."""
        ok, fid, state = _run_unit(self.cfg, chooser, k)
        leaf = _Leaf(ok, fid, state if self.keep_states else None)
        cut = len(self.tag(k))
        children, idx = self.top, 0
        for point in chooser.trace:
            node = children[idx]
            name = point.name[cut:]
            if node is None:
                node = children[idx] = _Node(name, point.weights)
            elif not (
                isinstance(node, _Node)
                and node.name == name
                and node.weights == point.weights
            ):
                raise AssertionError(f"a rerun diverged at {point.name!r}")
            children, idx = node.children, point.index
        children[idx] = leaf
        return leaf

    def sample(self, rng) -> TrialResult:
        """One trial, drawing from ``rng`` exactly as a direct run would.

        Stored nodes make the same ``rng.choice`` call on the same
        normalised weights that the run's chooser would make; a known leaf
        ends the unit without running it, and an empty slot reruns the
        unit along the drawn prefix and samples the rest.
        """
        outcomes = []
        for k in range(1, self.repeats + 1):
            tag = self.tag(k)
            node, path = self.top[0], []
            while isinstance(node, _Node):
                idx = int(rng.choice(len(node.p), p=node.p))
                path.append(idx)
                outcomes.append((tag + node.name, idx))
                node = node.children[idx]
            if node is None:
                chooser = SampleChooser(rng, script=path)
                node = self.expand(chooser, k)
                outcomes.extend(
                    (pt.name, pt.index) for pt in chooser.trace[len(path):]
                )
            if node.ok:
                return TrialResult(True, k, node.fidelity, outcomes)
        return TrialResult(False, self.repeats, 0.0, outcomes)

    def leaves(self, max_branches):
        """Every leaf of the full run with its exact weight, depth first.

        At each choice the heaviest branch comes first, then the others
        above the weight floor in descending index. A leaf's weight is the
        left-to-right product, from 1.0, of the normalised weights of the
        branches on its path.
        """
        records = []
        # (slot list, slot index, attempt, weight, outcomes, path in unit)
        stack = [(self.top, 0, 1, 1.0, (), ())]
        while stack:
            children, idx, k, weight, outcomes, path = stack.pop()
            node = children[idx]
            if node is None:
                self.expand(ScriptedChooser(path), k)
                node = children[idx]
            if isinstance(node, _Node):
                name = self.tag(k) + node.name
                p = node.p
                first = int(np.argmax(p))
                rest = [
                    j
                    for j in range(len(p))
                    if j != first and p[j] > WEIGHT_FLOOR
                ]
                # popped heaviest first, then the rest in descending index
                for j in rest + [first]:
                    stack.append(
                        (
                            node.children,
                            j,
                            k,
                            weight * float(p[j]),
                            outcomes + ((name, j),),
                            path + (j,),
                        )
                    )
            elif not node.ok and k < self.repeats:
                stack.append((self.top, 0, k + 1, weight, outcomes, ()))
            else:
                if len(records) >= max_branches:
                    raise ValueError(
                        f"more than {max_branches} branches; "
                        "sample with run_trials instead"
                    )
                records.append(
                    BranchRecord(
                        weight=weight,
                        success=node.ok,
                        attempts=k,
                        fidelity=node.fidelity,
                        outcomes=outcomes,
                        state=node.state,
                    )
                )
        return tuple(records)


def _trial_rng(cfg: ExperimentConfig, trial: int):
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,))
    return np.random.default_rng(seq)


def _run_share(cfg: ExperimentConfig, trials: range) -> tuple:
    """The given trials of ``cfg``, sampled through one branch trie."""
    if cfg.protocol == "stationarity_scan":
        return tuple(TrialResult(True, 1, 1.0, ()) for _ in trials)
    trie = _BranchTrie(cfg)
    return tuple(trie.sample(_trial_rng(cfg, t)) for t in trials)


def _scan_deviation(cfg: ExperimentConfig) -> float:
    ch = make_local_channel(cfg.noise, "cav", ("m",))
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
    processes share the load. The pool holds at most one worker per trial
    and per CPU, since a fork pool starts every worker at once; each
    worker samples its contiguous share of the trials through a branch
    trie of its own.
    """
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be a positive integer")
    n = cfg.trials
    workers = min(jobs or 1, n, os.cpu_count() or 1)
    if workers == 1:
        results = _run_share(cfg, range(n))
    else:
        bounds = [n * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                partial(_run_share, cfg),
                [range(a, b) for a, b in zip(bounds, bounds[1:])],
            )
            results = tuple(r for part in parts for r in part)
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
    """Every leaf of the protocol's branch tree, with exact weights.

    The tree is walked depth first, heaviest branch first, through a
    branch trie built for this call: the protocol runs once per distinct
    leaf of its unit, never once per leaf of the whole tree. For the
    entanglement link the unit is one attempt, so the walk covers the
    whole repeat-until-success process up to ``cfg.max_attempts`` at the
    cost of one attempt's leaves, and every attempt's leaves share one
    set of state and fidelity objects. Leaf weights are products
    of conditional branch weights and sum to one. Trees with more than
    ``max_branches`` leaves are refused.
    """
    if cfg.protocol == "stationarity_scan":
        raise ValueError(
            "stationarity_scan has no measurement branches; use run_trials"
        )
    records = _BranchTrie(cfg, keep_states=True).leaves(max_branches)
    total = sum(r.weight for r in records)
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(
            f"enumerated branch weights sum to {total!r}, not 1"
        )
    return records


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
