"""Protocol-level behavior: heralding, purity, retries, checkpoints."""

import numpy as np
import pytest

from cavityq.channels import NoiseConfig, make_local_channel
from cavityq.hilbert import SubsystemSpec, make_state, superpose
from cavityq.protocols import (
    DEFAULT_MAX_ATTEMPTS,
    EprCircuit,
    GateCircuit,
    SampleChooser,
    ScriptedChooser,
    establish_epr,
    gate_exposures,
    joint_measure_00,
    measure_via,
    run_gate,
    run_joint_measure,
    trace_probability,
)

TOL = 1e-12

BOTH = ("analytic", "bath")


class TestChoosers:
    def test_sampler_follows_weights(self):
        rng = np.random.default_rng(3)
        ch = SampleChooser(rng)
        picks = [ch.choose("p", (0.25, 0.75)) for _ in range(400)]
        assert 0.75 - 4 * 0.022 < np.mean(picks) < 0.75 + 4 * 0.022
        assert len(ch.trace) == 400

    def test_scripted_then_greedy(self):
        ch = ScriptedChooser([1])
        assert ch.choose("a", (0.9, 0.1)) == 1
        assert ch.choose("b", (0.3, 0.7)) == 1
        assert [p.name for p in ch.trace] == ["a", "b"]

    def test_scripted_zero_branch_rejected(self):
        ch = ScriptedChooser([1])
        with pytest.raises(ValueError, match="zero weight"):
            ch.choose("a", (1.0, 0.0))

    @pytest.mark.parametrize(
        "make",
        [
            ScriptedChooser,
            lambda script: SampleChooser(np.random.default_rng(0), script=script),
        ],
        ids=["scripted", "sample"],
    )
    @pytest.mark.parametrize("idx", [-2, -1, 3, 5])
    def test_scripted_index_out_of_range_rejected(self, make, idx):
        ch = make((idx,))
        with pytest.raises(ValueError, match=f"branch {idx} at 'm' .* 3 outcomes"):
            ch.choose("m", (0.2, 0.3, 0.5))
        assert ch.trace == []

    def test_trace_probability(self):
        ch = ScriptedChooser([0, 1])
        ch.choose("a", (0.5, 0.5))
        ch.choose("b", (0.2, 0.8))
        assert trace_probability(ch.trace) == pytest.approx(0.4, abs=TOL)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero weight"):
            SampleChooser(np.random.default_rng(0)).choose("a", (0.0, 0.0))


class TestJointMeasure:
    @pytest.mark.parametrize("backend", BOTH)
    def test_ideal_heralds_with_certainty(self, backend):
        ch = ScriptedChooser([1])
        out = run_joint_measure(NoiseConfig(backend=backend), ch)
        assert out.ok and out.herald == 1
        assert ch.trace[0].weights[1] == pytest.approx(1.0, abs=TOL)
        assert out.fidelity == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("backend", BOTH)
    @pytest.mark.parametrize("eta", [0.05, 0.2])
    def test_lossy_herald_weight_and_purity(self, backend, eta):
        ch = ScriptedChooser([1])
        out = run_joint_measure(
            NoiseConfig(backend=backend, eta_local=eta), ch
        )
        # one of the two copies rides a lossy slot; the other sees none
        assert ch.trace[0].weights[1] == pytest.approx(1.0 - eta, abs=TOL)
        assert ch.trace[0].weights[2] < TOL
        assert out.fidelity == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("backend", BOTH)
    def test_random_inputs_stay_pure(self, backend):
        rng = np.random.default_rng(11)
        noise = NoiseConfig(backend=backend, eta_local=0.2)
        for _ in range(5):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            ch = ScriptedChooser([1])
            out = run_joint_measure(noise, ch, amps=tuple(amps))
            assert out.fidelity >= 1.0 - 1e-9

    def test_00_never_heralds(self):
        spec = SubsystemSpec(
            [
                ("q1", "atom"),
                ("q2", "atom"),
                ("herald", "atom"),
                ("fl0", "bathmode"),
                ("fl1", "bathmode"),
            ]
        )
        channel = make_local_channel(
            NoiseConfig(eta_local=0.2), "cav", ("fl0", "fl1")
        )
        s = make_state(
            spec, {"q1": 0, "q2": 0, "herald": 0, "fl0": 0, "fl1": 0}
        )
        ch = ScriptedChooser([0])
        out = joint_measure_00(s, ("q1", "q2"), "herald", channel, ch)
        assert not out.ok
        assert ch.trace[0].weights[0] == pytest.approx(1.0, abs=TOL)

    def test_domain_guards(self):
        spec = SubsystemSpec(
            [
                ("q1", "atom"),
                ("q2", "atom"),
                ("herald", "atom"),
                ("fl0", "bathmode"),
                ("fl1", "bathmode"),
            ]
        )
        channel = make_local_channel(
            NoiseConfig(), "cav", ("fl0", "fl1")
        )
        filled = {"fl0": 0, "fl1": 0}
        eleven = make_state(spec, {"q1": 1, "q2": 1, "herald": 0, **filled})
        with pytest.raises(ValueError, match="span"):
            joint_measure_00(
                eleven, ("q1", "q2"), "herald", channel, ScriptedChooser()
            )
        busy = make_state(spec, {"q1": 0, "q2": 1, "herald": 1, **filled})
        with pytest.raises(ValueError, match="herald"):
            joint_measure_00(
                busy, ("q1", "q2"), "herald", channel, ScriptedChooser()
            )

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            run_joint_measure(NoiseConfig(), ScriptedChooser(), amps=(0, 0))


class TestEpr:
    @pytest.mark.parametrize("backend", BOTH)
    @pytest.mark.parametrize("ancilla", [0, 1])
    def test_ideal_bell_on_first_attempt(self, backend, ancilla):
        ch = ScriptedChooser([1, ancilla])
        res = establish_epr(NoiseConfig(backend=backend), ch)
        assert res.success and res.attempts == 1
        assert res.fidelity == pytest.approx(1.0, abs=TOL)
        # the spare copy reads + or - with equal weight
        assert ch.trace[1].weights[ancilla] == pytest.approx(0.5, abs=TOL)

    @pytest.mark.parametrize("backend", BOTH)
    def test_lossy_herald_probability(self, backend):
        noise = NoiseConfig(backend=backend, eta_trans=0.2, eta_local=0.05)
        ch = ScriptedChooser([1, 0])
        res = establish_epr(noise, ch)
        assert ch.trace[0].weights[1] == pytest.approx(0.76, abs=TOL)
        assert res.fidelity == pytest.approx(1.0, abs=TOL)

    def test_retry_until_success(self):
        noise = NoiseConfig(eta_trans=0.2, eta_local=0.05)
        ch = ScriptedChooser([0, 0, 1, 0])
        res = establish_epr(noise, ch, max_attempts=5)
        assert res.success and res.attempts == 3
        assert [p.name for p in ch.trace] == [
            "try1:herald",
            "try2:herald",
            "try3:herald",
            "try3:ancilla",
        ]

    def test_attempt_budget_exhausted(self):
        noise = NoiseConfig(eta_trans=0.2, eta_local=0.05)
        ch = ScriptedChooser([0, 0])
        res = establish_epr(noise, ch, max_attempts=2)
        assert not res.success
        assert res.attempts == 2 and res.state is None

    def test_thermal_corruption_lowers_fidelity(self):
        noise = NoiseConfig(
            backend="bath", eta_trans=0.2, eta_local=0.05, p_therm=0.1
        )
        # vacuum-config branch stays exact
        ch = ScriptedChooser([0, 0, 1, 0])
        res = establish_epr(noise, ch, max_attempts=1)
        assert res.fidelity == pytest.approx(1.0, abs=TOL)
        assert ch.trace[2].weights[1] == pytest.approx(0.76, abs=TOL)
        # a hot first-slot mode fakes copies and degrades the herald
        ch = ScriptedChooser([1, 0, 1, 0])
        res = establish_epr(noise, ch, max_attempts=1)
        assert res.fidelity == pytest.approx(0.97724399494310998, rel=1e-9)
        assert res.fidelity < 1.0 - 1e-4
        assert ch.trace[2].weights[1] == pytest.approx(0.791, abs=1e-12)

    def test_bad_attempt_budget(self):
        with pytest.raises(ValueError, match="max_attempts"):
            establish_epr(NoiseConfig(), ScriptedChooser(), max_attempts=0)

    def test_default_budget_covers_lossy_runs(self):
        # failure probability 0.24^25 is far below any tolerance in use
        assert 0.24**DEFAULT_MAX_ATTEMPTS < 1e-15


class TestRawGate:
    @pytest.mark.parametrize("backend", BOTH)
    def test_ideal_phase_action_exact(self, backend):
        circ = GateCircuit(NoiseConfig(backend=backend))
        amps = np.array([0.5, 0.5, 0.5, 0.5])
        out = circ.apply(circ.initial_state(amps))
        t = out.tensor().reshape(3, 3, -1)
        assert t[0, 0, 0] == pytest.approx(0.5, abs=TOL)
        assert t[0, 1, 0] == pytest.approx(0.5, abs=TOL)
        assert t[1, 0, 0] == pytest.approx(-0.5, abs=TOL)
        assert t[1, 1, 0] == pytest.approx(0.5, abs=TOL)

    def test_identity_signed_twin_is_identity(self):
        circ = GateCircuit(NoiseConfig(backend="bath"))
        amps = np.array([0.5, 0.5, 0.5, 0.5])
        out = circ.apply(circ.initial_state(amps), identity_signed=True)
        t = out.tensor().reshape(3, 3, -1)
        for k, (v1, v2) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            assert t[v1, v2, 0] == pytest.approx(0.5, abs=TOL)

    def test_bath_palindrome_matches_exposures(self):
        # the pulse-level run is the oracle for the closed-form survival
        # amplitudes, including the lone sign on |10>
        noise_b = NoiseConfig(backend="bath", eta_local=0.05)
        noise_a = NoiseConfig(eta_local=0.05)
        circ = GateCircuit(noise_b)
        lam = gate_exposures(noise_a)
        for k, (v1, v2) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            amps = [0.0] * 4
            amps[k] = 1.0
            t = circ.apply(circ.initial_state(amps)).tensor()
            got = t[(v1, v2) + (0,) * 4]
            sign = -1.0 if (v1, v2) == (1, 0) else 1.0
            assert got == pytest.approx(sign * lam[(v1, v2)], abs=TOL)

    def test_raw_run_scores_losses(self):
        rec = run_gate(
            NoiseConfig(backend="bath", eta_local=0.2),
            None,
            amps=(0, 0, 1, 0),
            purified=False,
        )
        # unconditioned |10> fidelity is the all-window survival weight
        assert rec.fidelity == pytest.approx(0.8**3, abs=TOL)

    def test_input_validation(self):
        circ = GateCircuit(NoiseConfig())
        with pytest.raises(ValueError, match="four"):
            circ.initial_state((1.0, 0.0))
        with pytest.raises(ValueError, match="zero norm"):
            circ.initial_state((0.0, 0.0, 0.0, 0.0))
        therm = GateCircuit(NoiseConfig(backend="bath", p_therm=0.05))
        with pytest.raises(ValueError, match="chooser"):
            therm.initial_state((1.0, 0.0, 0.0, 0.0))

    def test_thermal_windows_are_per_application(self):
        noise = NoiseConfig(backend="bath", eta_local=0.05, p_therm=0.05)
        circ = GateCircuit(noise, applications=4)
        flat = [m for app in circ.windows for w in app for m in w]
        assert len(flat) == len(set(flat)) == 12
        cold = GateCircuit(NoiseConfig(backend="bath", eta_local=0.05),
                           applications=4)
        assert cold.windows[0] is cold.windows[3]


PROBES = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0.5, 0.5, 0.5, 0.5),
    (0.3, -0.4j, 0.5, 0.2 + 0.6j),
)


class TestPurifiedGate:
    @pytest.mark.parametrize("backend", BOTH)
    def test_ideal_is_exact(self, backend):
        for amps in PROBES:
            ch = ScriptedChooser()
            rec = run_gate(NoiseConfig(backend=backend), ch, amps=amps)
            assert rec.ok
            assert rec.fidelity == pytest.approx(1.0, abs=TOL)
            assert trace_probability(ch.trace) == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("backend", BOTH)
    def test_loss_purifies_to_shared_scalar(self, backend):
        noise = NoiseConfig(backend=backend, eta_local=0.05)
        for amps in PROBES:
            ch = ScriptedChooser([0, 0, 0, 0])
            rec = run_gate(noise, ch, amps=amps)
            assert rec.ok
            assert rec.fidelity >= 1.0 - 1e-9
            # every input accumulates one exposure of each class, so the
            # all-pass weight is input-independent: (1-eta)^5
            assert trace_probability(ch.trace) == pytest.approx(
                0.95**5, abs=TOL
            )

    def test_detuning_purifies(self):
        noise = NoiseConfig(delta=0.1 / np.pi)
        for amps in PROBES:
            ch = ScriptedChooser([0, 0, 0, 0])
            rec = run_gate(noise, ch, amps=amps)
            assert rec.ok and rec.fidelity >= 1.0 - 1e-9

    def test_checkpoint_catches_loss(self):
        ch = ScriptedChooser([1])
        rec = run_gate(
            NoiseConfig(backend="bath", eta_local=0.2),
            ch,
            amps=(0, 0, 1, 0),
        )
        assert not rec.ok and rec.failed_checkpoint == 0
        assert ch.trace[0].weights[1] == pytest.approx(1 - 0.8**3, abs=TOL)

    def test_flags_record_which_application_lost(self):
        # |00> reaches the lossy (1, 0) class at the second application
        noise = NoiseConfig(eta_local=0.2)
        ch = ScriptedChooser([0, 1])
        rec = run_gate(noise, ch, amps=(1, 0, 0, 0))
        assert rec.failed_checkpoint == 1
        t = rec.state.tensor()
        # second flag burnt, the others fresh
        spec = rec.state.spec
        burnt = np.moveaxis(t, spec.axis("fg1"), 0)
        assert np.abs(burnt[0]).max() < TOL


class TestMeasureVia:
    def test_empty_branch_guard(self):
        spec = SubsystemSpec([("q", "atom")])
        s = make_state(spec, {"q": 0})
        with pytest.raises(ValueError, match="zero weight"):
            measure_via(
                ScriptedChooser([1]), s, "q", ((0,), (1,), (2,)), "m"
            )
