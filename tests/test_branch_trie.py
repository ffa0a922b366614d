"""The branch trie against independent references.

Sampling and enumeration both walk one lazily filled branch trie, so
holding them against each other no longer checks either independently.
These tests hold the trie against a direct per-trial replay of the
protocol, against the per-leaf prefix-replay enumerator it replaced, and
against the closed-form truncated geometric attempt law.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityq.channels import NoiseConfig
from cavityq.experiments import (
    ExperimentConfig,
    TrialResult,
    attempt_statistics,
    enumerate_branches,
    run_trials,
)
from cavityq.protocols import (
    WEIGHT_FLOOR,
    EprCircuit,
    SampleChooser,
    ScriptedChooser,
    run_epr,
    run_gate,
    run_joint_measure,
    trace_probability,
)

JM_AMPS = (0.6, 0.8)
GATE_AMPS = (0.5, 0.5, 0.5, 0.5)


def make_cfg(protocol, noise, **kwargs):
    params = {}
    if protocol == "joint_measure":
        params = {"amps": JM_AMPS}
    elif protocol != "epr":
        params = {"amps": GATE_AMPS}
    return ExperimentConfig(
        protocol=protocol, noise=noise, protocol_params=params, **kwargs
    )


def direct_run(cfg, chooser, circuit=None):
    """One whole protocol run; returns (success, attempts, fidelity, state)."""
    amps = cfg.protocol_params.get("amps")
    attempts = 1
    if cfg.protocol == "joint_measure":
        out = run_joint_measure(cfg.noise, chooser, amps=amps)
    elif cfg.protocol == "epr":
        circuit = circuit or EprCircuit(cfg.noise)
        attempts, out = run_epr(circuit, chooser, cfg.max_attempts)
    else:
        purified = cfg.protocol == "gate_purified"
        out = run_gate(cfg.noise, chooser, amps=amps, purified=purified)
    return out.ok, attempts, out.fidelity, out.state


def direct_trials(cfg):
    """Every trial replayed from the root with its own seeded stream."""
    circuit = EprCircuit(cfg.noise) if cfg.protocol == "epr" else None
    out = []
    for trial in range(cfg.trials):
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,))
        chooser = SampleChooser(np.random.default_rng(seq))
        ok, attempts, fid, _ = direct_run(cfg, chooser, circuit)
        outcomes = tuple((pt.name, pt.index) for pt in chooser.trace)
        out.append(TrialResult(ok, attempts, fid if ok else 0.0, outcomes))
    return tuple(out)


def prefix_replay_branches(cfg):
    """The enumerator the trie replaced: one run per leaf from the root.

    A scripted chooser pins the path up to the script's end and rides the
    heaviest branch beyond it; every sibling above the weight floor is
    scheduled with its own extended script.
    """
    pending = [()]
    records = []
    while pending:
        script = pending.pop()
        chooser = ScriptedChooser(script)
        success, attempts, fid, state = direct_run(cfg, chooser)
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
            (
                trace_probability(trace),
                success,
                attempts,
                fid,
                tuple((pt.name, pt.index) for pt in trace),
                state,
            )
        )
    return records


LOSSY = NoiseConfig(eta_trans=0.2, eta_local=0.05)


@pytest.mark.parametrize(
    "cfg",
    [
        make_cfg("joint_measure", NoiseConfig(eta_local=0.2)),
        make_cfg(
            "joint_measure",
            NoiseConfig(backend="bath", eta_local=0.2, p_therm=0.1),
        ),
        make_cfg("epr", LOSSY),
        # losing is the heaviest branch: the walk enters later attempts first
        make_cfg(
            "epr", NoiseConfig(eta_trans=0.7, eta_local=0.05), max_attempts=6
        ),
        make_cfg(
            "epr",
            NoiseConfig(backend="bath", eta_trans=0.2, eta_local=0.05),
            max_attempts=2,
        ),
        make_cfg(
            "epr",
            NoiseConfig(
                backend="bath", eta_trans=0.2, eta_local=0.05, p_therm=0.1
            ),
            max_attempts=2,
        ),
        make_cfg("gate_purified", NoiseConfig(eta_local=0.05)),
        make_cfg("gate_purified", NoiseConfig(eta_local=0.6)),
        make_cfg(
            "gate_raw", NoiseConfig(backend="bath", eta_local=0.1, p_therm=0.1)
        ),
    ],
    ids=lambda cfg: f"{cfg.protocol}-{cfg.noise.backend}-{cfg.noise.p_therm}",
)
def test_enumeration_matches_prefix_replay(cfg):
    got = enumerate_branches(cfg)
    want = prefix_replay_branches(cfg)
    assert len(got) == len(want)
    for rec, ref in zip(got, want):
        weight, success, attempts, fid, outcomes, state = ref
        assert rec.outcomes == outcomes
        assert (rec.weight, rec.success, rec.attempts, rec.fidelity) == (
            weight,
            success,
            attempts,
            fid,
        )
        if state is None:
            assert rec.state is None
        else:
            assert rec.state.spec == state.spec
            assert np.array_equal(rec.state.amplitudes, state.amplitudes)


@st.composite
def configs(draw):
    protocol = draw(
        st.sampled_from(("joint_measure", "epr", "gate_raw", "gate_purified"))
    )
    backend = draw(st.sampled_from(("analytic", "bath")))
    p_therm = 0.0
    # thermal purified gates have thousands of leaves: too slow for a sweep
    if backend == "bath" and protocol != "gate_purified":
        p_therm = draw(st.sampled_from((0.0, 0.05, 0.15)))
    eta_local = draw(st.floats(0.0, 0.3))
    # the link needs eta_trans > eta_local
    eta_trans = draw(st.floats(eta_local + 0.01, 0.9))
    if backend == "analytic":
        max_attempts = draw(st.integers(1, 12))
    else:
        max_attempts = draw(st.integers(1, 2 if p_therm else 3))
    noise = NoiseConfig(
        backend=backend,
        eta_local=eta_local,
        eta_trans=eta_trans,
        p_therm=p_therm,
    )
    return make_cfg(
        protocol,
        noise,
        trials=10,
        seed=draw(st.integers(0, 2**64 - 1)),
        max_attempts=max_attempts,
    )


@given(configs())
def test_trie_matches_direct_replay_and_exact_laws(cfg):
    _, results = run_trials(cfg)
    assert results == direct_trials(cfg)

    branches = enumerate_branches(cfg)
    assert abs(sum(b.weight for b in branches) - 1.0) <= 1e-10
    # every sampled trial ends on an enumerated leaf with the same outcome
    by_path = {b.outcomes: b for b in branches}
    for r in results:
        leaf = by_path[r.outcomes]
        assert (leaf.success, leaf.attempts) == (r.success, r.attempts)
        # a trial clamps its fidelity into [0, 1]; a leaf keeps it raw
        want = min(max(leaf.fidelity, 0.0), 1.0) if leaf.success else 0.0
        assert r.fidelity == want

    if cfg.protocol == "epr":
        single = enumerate_branches(replace(cfg, max_attempts=1))
        p_attempt = sum(b.weight for b in single if b.success)
        law = attempt_statistics(p_attempt, cfg.max_attempts)
        mass = sum(b.weight for b in branches if b.success)
        assert abs(mass - law.success_probability) <= 1e-12

