"""Flag-verified protocols built from copy channels and pulse palindromes.

Three constructions share one pattern: route qubits through lossy copy
operations, steer every loss branch onto an orthogonal flag (an excited
mode, a stuck transfer level, a burnt flag register), and condition on a
measurement that separates the flags from the protected subspace.

* ``joint_measure_00``: a herald atom collects copies of two qubits and
  announces, via a three-outcome readout, whether the pair survived inside
  span{|01>, |10>}.
* ``establish_epr``: repeat-until-success entanglement of two remote atoms
  over a lossy link, verified by a joint measurement at the receiving node.
* ``run_gate``: a two-qubit phase gate assembled from pulse palindromes;
  the purified variant interleaves four applications with bit flips so
  every input accumulates the same noise exposure, and mid-circuit
  checkpoints catch each loss branch by its stranded transfer level.

Branching (measurements and thermal initial conditions) goes through a
chooser object, so the same protocol code serves Monte Carlo sampling and
exhaustive branch enumeration.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channels import (
    DEFAULT_DWELL,
    DEFAULT_PULSE_RATE,
    NoiseConfig,
    default_loss_bath,
    local_channel_apply,
    make_local_channel,
    make_transmission_channel,
    transmission_apply,
    validate_channel_pair,
)
from .dynamics import (
    bath_hamiltonian,
    evolve,
    optical_pump_r_to_1,
    pi_pulse,
    raman_hamiltonian,
    single_atom_op,
    thermal_configurations,
)
from .hilbert import (
    StateVector,
    SubsystemSpec,
    extend,
    fidelity,
    from_labels_first,
    labels_first,
    make_state,
    project_subspaces,
    superpose,
)

# fine-grained atom readout and the qubit-vs-parked coarse split
ATOM_LEVELS = ((0,), (1,), (2,))
QUBIT_VS_PARKED = ((0, 1), (2,))

DEFAULT_MAX_ATTEMPTS = 25
DEFAULT_JM_AMPS = (0.6, 0.8)

# branches thinner than this are dead weight from roundoff, not outcomes
WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class ChoicePoint:
    """One recorded branch decision: who asked, what was picked, and the
    branch weights that were on offer."""

    name: str
    index: int
    weights: tuple


def _normalized(weights):
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("all branches have zero weight")
    return w / total


def _scripted(script, depth, name, n):
    """The scripted branch at ``depth``, checked against ``n`` outcomes."""
    idx = script[depth]
    if not 0 <= idx < n:
        raise ValueError(
            f"scripted branch {idx} at {name!r} is not one of its {n} outcomes"
        )
    return idx


class SampleChooser:
    """Follows a branch script, then samples from an rng stream.

    The script holds choices already drawn from the same stream, so
    following it leaves the stream untouched: a run resumed along a drawn
    prefix consumes the stream exactly as an uninterrupted run would.
    """

    def __init__(self, rng, script=()):
        self.rng = rng
        self.script = tuple(script)
        self.trace = []

    def choose(self, name, weights) -> int:
        p = _normalized(weights)
        depth = len(self.trace)
        if depth < len(self.script):
            idx = _scripted(self.script, depth, name, len(p))
        else:
            idx = int(self.rng.choice(len(p), p=p))
        self.trace.append(ChoicePoint(name, idx, tuple(map(float, weights))))
        return idx


class ScriptedChooser:
    """Follows a branch script, then rides the heaviest branch.

    The trace records every decision with its weights, which is what an
    enumerator needs to store the choice points the run passed through.
    """

    def __init__(self, script=()):
        self.script = tuple(int(i) for i in script)
        self.trace = []

    def choose(self, name, weights) -> int:
        p = _normalized(weights)
        depth = len(self.trace)
        if depth < len(self.script):
            idx = _scripted(self.script, depth, name, len(p))
        else:
            idx = int(np.argmax(p))
        if p[idx] <= 0.0:
            raise ValueError(
                f"scripted branch {idx} at {name!r} has zero weight"
            )
        self.trace.append(ChoicePoint(name, idx, tuple(map(float, weights))))
        return idx


def trace_probability(trace) -> float:
    """Probability of the recorded path: product of conditional weights."""
    prob = 1.0
    for point in trace:
        prob *= float(_normalized(point.weights)[point.index])
    return prob


def measure_via(chooser, state, label, groups, name):
    """Coarse measurement with the branch decision delegated to a chooser.

    Returns (group_index, collapsed_state). Coherence inside the chosen
    group survives, mirroring a readout that cannot resolve its members.
    Only the chosen branch's state is built.
    """
    return project_subspaces(
        state, label, groups, lambda weights: chooser.choose(name, weights)
    )


def _thermal_assignments(chooser, bath, slot_modes, tag):
    """Initial occupations for per-slot bath modes, one draw per slot."""
    out = {}
    for modes in slot_modes:
        configs, weights, _ = thermal_configurations(bath)
        idx = chooser.choose(f"{tag}:therm:{'+'.join(modes)}", weights)
        out.update(zip(modes, configs[idx]))
    return out


# ---------------------------------------------------------------------------
# joint measurement


@dataclass(frozen=True)
class JointMeasureOutcome:
    """Result of one flag-verified joint measurement.

    ``ok`` is the announced flag: True means the herald read |1> and the
    pair collapsed onto the protected span{|01>, |10>} subspace. ``herald``
    is the raw readout level. ``fidelity`` is filled by the top-level
    runner, against the ideal post-measurement state.
    """

    ok: bool
    herald: int
    state: StateVector | None
    fidelity: float | None = None


def _assert_jm_domain(state, pair, herald):
    moved = labels_first(state, (pair[0], pair[1], herald))
    if np.abs(moved[1, 1]).max(initial=0.0) > 1e-12:
        raise ValueError(
            "joint measurement needs the pair inside span{|00>, |01>, |10>}"
        )
    off = np.abs(moved[:, :, 1]).max(initial=0.0) + np.abs(
        moved[:, :, 2]
    ).max(initial=0.0)
    if off > 1e-12:
        raise ValueError("herald atom must start in |0>")


def joint_measure_00(state, pair, herald, channel, chooser, *, slots=(0, 1), tag="jm"):
    """Distinguish |00> from span{|01>, |10>} without resolving the span.

    Both pair atoms are copied onto the herald in sequence; the first copy
    parks in the transfer level while the second runs, so the two copies
    XOR on the herald: exactly one |1> in the pair leaves the herald in
    |1>. |00> leaves it in |0>, and every loss branch is flagged away from
    |1|>. A sign picked up by parking is returned to the first-listed atom.
    """
    first, second = pair
    _assert_jm_domain(state, pair, herald)
    s = local_channel_apply(state, channel, (first, herald), slot=slots[0])
    s = single_atom_op(s, herald, "exchange_1r")
    s = local_channel_apply(s, channel, (second, herald), slot=slots[1])
    s = optical_pump_r_to_1(s, herald)
    s = single_atom_op(s, first, "phase_z")
    idx, post = measure_via(chooser, s, herald, ATOM_LEVELS, f"{tag}:herald")
    return JointMeasureOutcome(ok=(idx == 1), herald=idx, state=post)


@lru_cache(maxsize=8)
def _jm_channel(noise: NoiseConfig, g, dwell):
    """The joint measurement's local channel, built once per configuration."""
    if noise.backend == "analytic":
        return make_local_channel(
            noise, flag_labels=("fl0", "fl1"), g=g, dwell=dwell
        )
    return make_local_channel(
        noise, cavity="cav", bath_labels=(("b0",), ("b1",)), g=g, dwell=dwell
    )


def run_joint_measure(
    noise: NoiseConfig,
    chooser,
    *,
    amps=DEFAULT_JM_AMPS,
    g=DEFAULT_PULSE_RATE,
    dwell=DEFAULT_DWELL,
) -> JointMeasureOutcome:
    """One joint-measurement trial on a|01> + b|10>.

    Builds the registers for the configured backend, runs the measurement,
    and scores the heralded state against the input, which an ideal
    measurement returns untouched.
    """
    a, b = amps
    scale = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if scale <= 0.0:
        raise ValueError("joint measurement input has zero norm")
    a, b = a / scale, b / scale
    atoms = [("q1", "atom"), ("q2", "atom"), ("herald", "atom")]
    channel = _jm_channel(noise, g, dwell)
    if noise.backend == "analytic":
        spec = SubsystemSpec(
            atoms + [("fl0", "bathmode"), ("fl1", "bathmode")]
        )
        env = {"fl0": 0, "fl1": 0}
    else:
        spec = SubsystemSpec(
            atoms + [("cav", "cavity"), ("b0", "bathmode"), ("b1", "bathmode")]
        )
        env = {"cav": 0, "b0": 0, "b1": 0}
        if noise.p_therm > 0.0:
            env.update(
                _thermal_assignments(
                    chooser,
                    channel.metadata["bath"],
                    channel.metadata["slot_modes"],
                    "jm",
                )
            )
    state = superpose(
        [
            (a, make_state(spec, {"q1": 0, "q2": 1, "herald": 0, **env})),
            (b, make_state(spec, {"q1": 1, "q2": 0, "herald": 0, **env})),
        ]
    )
    out = joint_measure_00(state, ("q1", "q2"), "herald", channel, chooser)
    if not out.ok:
        return out
    pair_spec = SubsystemSpec([("q1", "atom"), ("q2", "atom")])
    target = superpose(
        [
            (a, make_state(pair_spec, {"q1": 0, "q2": 1})),
            (b, make_state(pair_spec, {"q1": 1, "q2": 0})),
        ]
    )
    return JointMeasureOutcome(
        ok=True,
        herald=out.herald,
        state=out.state,
        fidelity=fidelity(out.state, target),
    )


# ---------------------------------------------------------------------------
# entanglement over a lossy link


@dataclass(frozen=True)
class EprResult:
    """Outcome of a repeat-until-success entanglement run."""

    success: bool
    attempts: int
    state: StateVector | None
    fidelity: float | None


class EprCircuit:
    """Registers and channels for one entanglement link.

    One qubit at the sending node fans out over two transmission slots,
    with a bit flip in between, so its value and its complement ride to
    the receiving node. A joint measurement there heralds the attempts in
    which both copies arrived; a basis measurement on the spare copy then
    folds it back into a phase on the pair.
    """

    def __init__(
        self,
        noise: NoiseConfig,
        *,
        g=DEFAULT_PULSE_RATE,
        dwell=DEFAULT_DWELL,
    ):
        self.noise = noise
        atoms = [
            ("a1", "atom"),
            ("a2", "atom"),
            ("aa", "atom"),
            ("herald", "atom"),
        ]
        if noise.backend == "analytic":
            self.spec = SubsystemSpec(
                atoms
                + [
                    ("ft0", "bathmode"),
                    ("ft1", "bathmode"),
                    ("fl0", "bathmode"),
                    ("fl1", "bathmode"),
                ]
            )
            self.trans = make_transmission_channel(
                noise, flag_labels=("ft0", "ft1"), g=g
            )
            self.local = make_local_channel(
                noise, flag_labels=("fl0", "fl1"), g=g, dwell=dwell
            )
        else:
            self.trans = make_transmission_channel(
                noise,
                cavity_source="cav1",
                cavity_target="cav2",
                link_labels=("lnk0", "lnk1"),
                g=g,
            )
            self.local = make_local_channel(
                noise,
                cavity="cav2",
                bath_labels=(("b0",), ("b1",)),
                g=g,
                dwell=dwell,
            )
            self.spec = SubsystemSpec(
                atoms
                + [
                    ("cav1", "cavity"),
                    ("cav2", "cavity"),
                    ("lnk0", "bathmode"),
                    ("lnk1", "bathmode"),
                    ("b0", "bathmode"),
                    ("b1", "bathmode"),
                ]
            )
        validate_channel_pair(self.local, self.trans)
        pair = SubsystemSpec([("a1", "atom"), ("a2", "atom")])
        half = 1.0 / np.sqrt(2.0)
        self.bell = superpose(
            [
                (half, make_state(pair, {"a1": 0, "a2": 0})),
                (half, make_state(pair, {"a1": 1, "a2": 1})),
            ]
        )

    def fresh_state(self, chooser, tag) -> StateVector:
        init = {label: 0 for label in self.spec.labels}
        if self.noise.backend == "bath" and self.noise.p_therm > 0.0:
            init.update(
                _thermal_assignments(
                    chooser,
                    self.local.metadata["bath"],
                    self.local.metadata["slot_modes"],
                    tag,
                )
            )
        return make_state(self.spec, init)

    def attempt(self, chooser, tag) -> JointMeasureOutcome:
        """One shot: fan out, transmit twice, verify at the receiver."""
        s = self.fresh_state(chooser, tag)
        s = single_atom_op(s, "a1", "hadamard_01")
        s = transmission_apply(s, self.trans, ("a1", "a2"), slot=0)
        s = single_atom_op(s, "a1", "not_01")
        s = transmission_apply(s, self.trans, ("a1", "aa"), slot=1)
        s = single_atom_op(s, "a1", "not_01")
        return joint_measure_00(
            s, ("a2", "aa"), "herald", self.local, chooser, tag=tag
        )

    def finish(self, state, chooser, tag) -> StateVector:
        """Fold the spare copy into the pair: measure it along |0> +/- |1>."""
        s = single_atom_op(state, "aa", "hadamard_01")
        idx, s = measure_via(chooser, s, "aa", ATOM_LEVELS, f"{tag}:ancilla")
        if idx == 1:
            s = single_atom_op(s, "a1", "phase_z")
        return s

    def bell_fidelity(self, state) -> float:
        return fidelity(state, self.bell)


def establish_epr(
    noise: NoiseConfig,
    chooser,
    *,
    max_attempts=DEFAULT_MAX_ATTEMPTS,
    g=DEFAULT_PULSE_RATE,
    dwell=DEFAULT_DWELL,
) -> EprResult:
    """Repeat fresh attempts until the receiver heralds, then fix up."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    circuit = EprCircuit(noise, g=g, dwell=dwell)
    return run_epr(circuit, chooser, max_attempts)


def epr_attempt(circuit: EprCircuit, chooser, k) -> EprResult:
    """Attempt ``k`` of the link, fixed up when it heralds.

    Attempts are independent and identically distributed: attempt ``k``
    differs from the first only in the ``try{k}`` tag that prefixes every
    choice name it makes.
    """
    tag = f"try{k}"
    out = circuit.attempt(chooser, tag=tag)
    if not out.ok:
        return EprResult(False, k, None, None)
    s = circuit.finish(out.state, chooser, tag=tag)
    return EprResult(True, k, s, circuit.bell_fidelity(s))


def run_epr(circuit: EprCircuit, chooser, max_attempts) -> EprResult:
    for k in range(1, max_attempts + 1):
        res = epr_attempt(circuit, chooser, k)
        if res.success:
            return res
    return EprResult(False, max_attempts, None, None)


# ---------------------------------------------------------------------------
# two-qubit phase gate


@dataclass(frozen=True)
class GateRunRecord:
    """Outcome of one gate run.

    ``failed_checkpoint`` is the zero-based application whose checkpoint
    caught a stranded transfer level, or None. ``fidelity`` compares the
    final (or raw, unconditioned) state against the ideal phase action on
    the same input.
    """

    ok: bool
    failed_checkpoint: int | None
    state: StateVector | None
    fidelity: float | None


def gate_exposures(noise: NoiseConfig, *, g=DEFAULT_PULSE_RATE):
    """Per-input survival amplitudes of one gate application.

    The palindrome leaves |00> untouched; |01> only parks in the transfer
    level for the two partner pulses; |10> emits a photon that rides out
    all three idle windows; |11> hands the photon to the partner after one
    window and takes it back for the third, paying four transfer halves.
    """
    window = np.pi / g
    r = np.exp(-1j * noise.delta * window)
    c = np.cos(np.pi * noise.pulse_area_error / 2.0)
    keep = 1.0 - noise.eta_local
    return {
        (0, 0): 1.0 + 0.0j,
        (0, 1): r * r,
        (1, 0): keep**1.5 * r * c * c,
        (1, 1): keep * r * r * c**4,
    }


def _analytic_gate_map(s, a1, a2, flag, lam, sign10):
    """One application as amplitude surgery, loss branches onto a flag.

    Losses strand the first atom in the transfer level: |10> losses keep
    the partner at 0, |11> losses return it to 1, matching where the pulse
    palindrome leaves them.
    """
    moved = labels_first(s, (a1, a2, flag))
    if np.abs(moved[2]).max(initial=0.0) > 1e-12:
        raise ValueError("gate input must keep the first atom in |0>/|1>")
    if np.abs(moved[:, 2]).max(initial=0.0) > 1e-12:
        raise ValueError("gate input must keep the second atom in |0>/|1>")
    if np.abs(moved[:, :, 1]).max(initial=0.0) > 1e-12:
        raise ValueError(f"loss flag {flag!r} is already set")
    out = np.zeros_like(moved)
    out[0, 0, 0] = lam[(0, 0)] * moved[0, 0, 0]
    out[0, 1, 0] = lam[(0, 1)] * moved[0, 1, 0]
    out[1, 0, 0] = sign10 * lam[(1, 0)] * moved[1, 0, 0]
    out[1, 1, 0] = lam[(1, 1)] * moved[1, 1, 0]
    out[2, 0, 1] = np.sqrt(1.0 - abs(lam[(1, 0)]) ** 2) * moved[1, 0, 0]
    out[2, 1, 1] = np.sqrt(1.0 - abs(lam[(1, 1)]) ** 2) * moved[1, 1, 0]
    return from_labels_first(s.spec, (a1, a2, flag), out)


# headroom for the thermal registers: 3 windows x 4 applications x 1 mode
GATE_DIM_CAP = 3 * 3 * 2 * 2**12


class GateCircuit:
    """Registers and per-application maps for the two-qubit phase gate.

    The bath backend reuses its three idle-window modes across
    applications when they start in vacuum: a passed checkpoint then
    certifies they are back in vacuum. Thermal occupation voids that
    certificate, so thermal runs get fresh window modes per application.
    Until an application starts, its window modes are still in the
    levels they were drawn in, so they join the register only then:
    ``specs[k]`` is the register of application ``k``, each one a prefix
    of the next, and ``spec`` is the last one. The analytic backend and
    the vacuum bath keep one register throughout.
    """

    def __init__(
        self,
        noise: NoiseConfig,
        *,
        g=DEFAULT_PULSE_RATE,
        dwell=DEFAULT_DWELL,
        applications=1,
    ):
        self.noise = noise
        self.g = float(g)
        self.dwell = float(dwell)
        atoms = [("a1", "atom"), ("a2", "atom")]
        if noise.backend == "analytic":
            self.flags = tuple(f"fg{k}" for k in range(applications))
            self.spec = SubsystemSpec(
                atoms + [(f, "bathmode") for f in self.flags]
            )
            self.specs = (self.spec,) * applications
            self.exposures = gate_exposures(noise, g=g)
            self.bath = None
            self.windows = None
            return
        self.flags = None
        self.exposures = None
        self.bath = (
            replace(noise.bath, p_therm=noise.p_therm)
            if noise.bath is not None
            else default_loss_bath(noise.eta_local, dwell, noise.p_therm)
        )
        n_modes = self.bath.n_modes
        entries = atoms + [("cav", "cavity")]
        if noise.p_therm > 0.0:
            self.windows = tuple(
                tuple(
                    tuple(f"a{k}w{w}m{m}" for m in range(n_modes))
                    for w in range(3)
                )
                for k in range(applications)
            )
            specs = []
            for app in self.windows:
                entries = entries + [(m, "bathmode") for w in app for m in w]
                specs.append(SubsystemSpec(entries, cap=GATE_DIM_CAP))
            self.specs = tuple(specs)
        else:
            shared = tuple(
                tuple(f"w{w}m{m}" for m in range(n_modes)) for w in range(3)
            )
            self.windows = (shared,) * applications
            spec = SubsystemSpec(
                entries + [(m, "bathmode") for w in shared for m in w],
                cap=GATE_DIM_CAP,
            )
            self.specs = (spec,) * applications
        self.spec = self.specs[-1]

    def draw_levels(self, chooser) -> dict:
        """Initial levels of the window modes for one run.

        Thermal runs draw every window mode's occupation through the
        chooser up front, one choice point per window, in application
        order; vacuum runs draw nothing and return an empty dict.
        """
        if self.noise.p_therm <= 0.0:
            return {}
        if chooser is None:
            raise ValueError("thermal gate runs need a chooser")
        groups = [w for app in self.windows for w in app]
        return _thermal_assignments(chooser, self.bath, groups, "gate")

    def initial_state(self, amps, levels=None) -> StateVector:
        """State with the given four amplitudes on the (a1, a2) qubits.

        The state lives on the first application's register, its window
        modes in ``levels`` from `draw_levels`. Vacuum runs may leave
        ``levels`` out; thermal runs may not.
        """
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (4,):
            raise ValueError("gate input takes four qubit amplitudes")
        norm = np.linalg.norm(amps)
        if norm <= 0.0:
            raise ValueError("gate input has zero norm")
        amps = amps / norm
        if levels is None:
            levels = self.draw_levels(None)
        spec = self.specs[0]
        base = {label: levels.get(label, 0) for label in spec.labels}
        terms = []
        for k, (v1, v2) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            if abs(amps[k]) > 0.0:
                terms.append(
                    (amps[k], make_state(spec, {**base, "a1": v1, "a2": v2}))
                )
        return superpose(terms)

    def grow(self, s, k, levels) -> StateVector:
        """The state on application ``k``'s register: window modes that
        join it enter in their drawn ``levels``."""
        spec = self.specs[k]
        if s.spec == spec:
            return s
        appended = spec.labels[len(s.spec.labels):]
        return extend(s, spec, {label: levels[label] for label in appended})

    def apply(self, s, *, slot=0, identity_signed=False) -> StateVector:
        """One application: the phase gate, or its identity-signed twin.

        The twin advances the drive phase of both second-half pulses by a
        half turn, flipping only the |10> sign; which half carries the
        flip is a convention, since only the relative phase between the
        two halves survives.
        """
        if self.noise.backend == "analytic":
            return _analytic_gate_map(
                s,
                "a1",
                "a2",
                self.flags[slot],
                self.exposures,
                +1.0 if identity_signed else -1.0,
            )
        tail = np.pi if identity_signed else 0.0
        pulses = (
            pi_pulse("a1", self.g, 0.0, 0.0, "cav"),
            pi_pulse("a2", self.g, 0.0, 0.0, "cav"),
            pi_pulse("a2", self.g, tail, 0.0, "cav"),
            pi_pulse("a1", self.g, tail, 0.0, "cav"),
        )
        s = single_atom_op(s, "a2", "exchange_1r")
        for k, pulse in enumerate(pulses):
            if k:
                h = bath_hamiltonian(
                    s.spec, self.bath, "cav", self.windows[slot][k - 1]
                )
                s = evolve(s, h, self.dwell)
            h = raman_hamiltonian(s.spec, pulse.atom, pulse.coupling, pulse.cavity)
            s = evolve(s, h, pulse.resolved_duration)
        return single_atom_op(s, "a2", "exchange_1r")

    def ideal_target(self, amps) -> StateVector:
        amps = np.asarray(amps, dtype=complex)
        amps = amps / np.linalg.norm(amps)
        pair = SubsystemSpec([("a1", "atom"), ("a2", "atom")])
        signed = amps * np.array([1.0, 1.0, -1.0, 1.0])
        return superpose(
            [
                (signed[k], make_state(pair, {"a1": v1, "a2": v2}))
                for k, (v1, v2) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1)))
                if abs(signed[k]) > 0.0
            ]
        )


GATE_FRAME_ATOMS = ("a1", "a2", "a1", "a2")


def run_gate(
    noise: NoiseConfig,
    chooser,
    *,
    amps,
    purified=True,
    g=DEFAULT_PULSE_RATE,
    dwell=DEFAULT_DWELL,
) -> GateRunRecord:
    """Run the phase gate on the given input amplitudes.

    Raw mode applies the palindrome once and scores the unconditioned
    state, losses included. Purified mode runs four applications in
    alternating bit-flip frames, so each input's path visits all four
    exposure classes exactly once and the survivors share one overall
    noise factor; a checkpoint after each application measures whether the
    first atom is still a qubit and aborts on a stranded transfer level.
    The last application is the identity-signed twin, which closes the
    frame sandwich to the same overall phase action.
    """
    if not purified:
        circ = GateCircuit(noise, g=g, dwell=dwell, applications=1)
        s = circ.initial_state(amps, circ.draw_levels(chooser))
        s = circ.apply(s, slot=0)
        return GateRunRecord(True, None, s, fidelity(s, circ.ideal_target(amps)))
    circ = GateCircuit(noise, g=g, dwell=dwell, applications=4)
    levels = circ.draw_levels(chooser)
    s = circ.initial_state(amps, levels)
    for k in range(4):
        s = circ.grow(s, k, levels)
        s = circ.apply(s, slot=k, identity_signed=(k == 3))
        idx, s = measure_via(chooser, s, "a1", QUBIT_VS_PARKED, f"cp{k}")
        if idx == 1:
            # a failed run reports its state on the full register
            return GateRunRecord(False, k, circ.grow(s, -1, levels), None)
        s = single_atom_op(s, GATE_FRAME_ATOMS[k], "not_01")
    s = single_atom_op(s, "a1", "phase_z")
    return GateRunRecord(True, None, s, fidelity(s, circ.ideal_target(amps)))
