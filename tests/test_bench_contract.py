"""The benchmark's tracer still fits the package.

`perfbench/tracer.py` wraps layer functions by their attribute names and
pins exact call counts for one analytic joint-measurement trial. A change
that renames a traced attribute or moves a pinned count fails here, not
only in the benchmark. The bath tests reach the hooks that read traced
arguments by position, such as `dynamics.propagator`'s Hamiltonian and
duration.
"""

import importlib.util
import re
from pathlib import Path

# the tracer wraps layers in every cavityq module, the CLI included
import cavityq.cli  # noqa: F401
from cavityq import experiments
from cavityq.channels import NoiseConfig
from cavityq.experiments import ExperimentConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_selftest_repeats_without_problems():
    tracer = load_tracer()
    # the benchmark runs the self-test twice in one process
    first = tracer.selftest()
    second = tracer.selftest()
    assert first == []
    assert second == first


def test_tracer_hooks_record_a_bath_trial_and_enumeration():
    module = load_tracer()
    tracer = module.Tracer()
    # an eta_local no other test uses, so the channel build and its dwell
    # propagator cannot come from a warm cache
    jm = ExperimentConfig(
        "joint_measure", NoiseConfig(backend="bath", eta_local=0.0371), seed=1
    )
    gate = ExperimentConfig(
        "gate_purified", NoiseConfig(backend="bath", eta_local=0.05)
    )
    tracer.install()
    try:
        # through the module, where the tracer's wrappers live
        experiments.run_trials(jm)
        experiments.enumerate_branches(gate)
    finally:
        tracer.uninstall()
    counts = tracer.aggregate()
    for name in (
        "dynamics.propagator",
        "channels.make_local_channel",
        "experiments.enumerate_branches",
    ):
        assert counts[name]["calls"] > 0, name
    assert tracer.propagator_keys
    assert tracer.channel_keys
    assert tracer.leaves > 0
    assert module.surviving_wrappers() == []


def test_tracer_sees_the_folded_thermal_gate():
    module = load_tracer()
    tracer = module.Tracer()
    # an eta_local no other test uses, so the fold and its dwell
    # propagators cannot come from a warm cache
    noise = NoiseConfig(backend="bath", eta_local=0.0437, p_therm=0.05)
    gate = ExperimentConfig("gate_purified", noise, trials=3, seed=2)
    tracer.install()
    try:
        experiments.run_trials(gate)
    finally:
        tracer.uninstall()
    counts = tracer.aggregate()
    assert counts["dynamics.propagator"]["calls"] > 0
    # every application, stepped or folded, runs operators built on the
    # shared window labels, never on an application's own window labels
    supports = {key[0] for key in tracer.propagator_keys}
    assert ("cav", "w0m0") in supports
    own = [l for s in supports for l in s if re.match(r"a\d+w", l)]
    assert own == []
    assert module.surviving_wrappers() == []
