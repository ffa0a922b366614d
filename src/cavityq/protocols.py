"""Flag-verified protocols built from copy channels and pulse palindromes.

Three constructions share one pattern: route qubits through lossy copy
operations, steer every loss branch onto an orthogonal flag (an excited
mode, a stuck transfer level, a burnt flag register), and condition on a
measurement that separates the flags from the protected subspace.

* ``joint_measure_00``: a herald atom collects copies of two qubits and
  announces, via a three-outcome readout, whether the pair survived inside
  span{|01>, |10>}.
* ``run_epr``: repeat-until-success entanglement of two remote atoms over
  a lossy link, verified by a joint measurement at the receiving node.
* ``run_gate``: a two-qubit phase gate assembled from pulse palindromes;
  the purified variant interleaves four applications with bit flips so
  every input accumulates the same noise exposure, and mid-circuit
  checkpoints catch each loss branch by its stranded transfer level.

Branching (measurements and thermal initial conditions) goes through a
chooser object, so the same protocol code serves Monte Carlo sampling and
exhaustive branch enumeration. Every run yields one `Outcome`: the
herald's verdict, the fidelity of the kept state, and the state. Which
herald level or checkpoint decided it is in the chooser's trace.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channels import (
    DWELL,
    PULSE_RATE,
    NoiseConfig,
    local_channel_apply,
    loss_bath,
    make_local_channel,
    make_transmission_channel,
    transmission_apply,
    validate_channel_pair,
)
from .dynamics import (
    BathSpec,
    bath_hamiltonian,
    cached_propagator,
    evolve,
    optical_pump_r_to_1,
    single_atom_op,
    single_atom_operator,
    thermal_configurations,
    transfer,
    transfer_op,
)
from .hilbert import (
    LinearOp,
    StateVector,
    SubsystemSpec,
    apply,
    extend,
    fidelity,
    fold,
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


class Outcome(NamedTuple):
    """What one protocol run yields: the herald's verdict, the kept
    state's fidelity to the ideal one (None for a failed run, and from
    `joint_measure_00`, whose caller scores it), and the state (None for
    a failed attempt of the entanglement link)."""

    ok: bool
    fidelity: float | None
    state: StateVector | None


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
    """Initial occupations for per-slot bath modes, one draw per slot.

    A slot without modes has nothing to occupy and records no draw.
    """
    configs, weights = thermal_configurations(bath)
    out = {}
    for modes in filter(None, slot_modes):
        idx = chooser.choose(f"{tag}:therm:{'+'.join(modes)}", weights)
        out.update(zip(modes, configs[idx]))
    return out


def _start_levels(channel, chooser, tag) -> dict:
    """Starting levels of a local channel's registers.

    Every register starts empty, except that a thermal bath's modes take
    occupations drawn through the chooser, one draw per slot.
    """
    levels = {label: 0 for label, _ in channel.registers}
    bath = channel.metadata.get("bath")
    if bath is not None and bath.p_therm > 0.0:
        slots = channel.metadata["slots"]
        levels.update(_thermal_assignments(chooser, bath, slots, tag))
    return levels


def _pair_state(spec, atoms, amps, levels) -> StateVector:
    """The four ``amps`` on |00>, |01>, |10>, |11> of the two ``atoms``,
    every other register of ``spec`` in its level from ``levels``.

    Zero amplitudes add no term.
    """
    return superpose(
        [
            (amp, make_state(spec, {**levels, **dict(zip(atoms, pair))}))
            for amp, pair in zip(amps, ((0, 0), (0, 1), (1, 0), (1, 1)))
            if abs(amp) > 0.0
        ]
    )


# ---------------------------------------------------------------------------
# joint measurement


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


def joint_measure_00(state, pair, herald, channel, chooser, *, tag="jm"):
    """Distinguish |00> from span{|01>, |10>} without resolving the span.

    Both pair atoms are copied onto the herald in sequence; the first copy
    parks in the transfer level while the second runs, so the two copies
    XOR on the herald: exactly one |1> in the pair leaves the herald in
    |1>. |00> leaves it in |0>, and every loss branch is flagged away from
    |1|>. A sign picked up by parking is returned to the first-listed atom.
    """
    first, second = pair
    _assert_jm_domain(state, pair, herald)
    s = local_channel_apply(state, channel, (first, herald), slot=0)
    s = single_atom_op(s, herald, "exchange_1r")
    s = local_channel_apply(s, channel, (second, herald), slot=1)
    s = optical_pump_r_to_1(s, herald)
    s = single_atom_op(s, first, "phase_z")
    idx, post = measure_via(chooser, s, herald, ATOM_LEVELS, f"{tag}:herald")
    return Outcome(idx == 1, None, post)


@lru_cache(maxsize=8)
def _jm_channel(noise: NoiseConfig):
    """The joint measurement's local channel, built once per configuration."""
    return make_local_channel(noise, "cav", ("b0", "b1"))


def run_joint_measure(
    noise: NoiseConfig, chooser, *, amps=DEFAULT_JM_AMPS
) -> Outcome:
    """One joint-measurement trial on a|01> + b|10>.

    Builds the atoms and the channel's registers, runs the measurement,
    and scores the heralded state against the input, which an ideal
    measurement returns untouched.
    """
    a, b = amps
    scale = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if scale <= 0.0:
        raise ValueError("joint measurement input has zero norm")
    a, b = a / scale, b / scale
    atoms = [("q1", "atom"), ("q2", "atom"), ("herald", "atom")]
    channel = _jm_channel(noise)
    spec = SubsystemSpec(atoms + list(channel.registers))
    env = _start_levels(channel, chooser, "jm")
    pair, pair_amps = ("q1", "q2"), (0.0, a, b, 0.0)
    state = _pair_state(spec, pair, pair_amps, {"herald": 0, **env})
    out = joint_measure_00(state, pair, "herald", channel, chooser)
    if not out.ok:
        return out
    target = _pair_state(SubsystemSpec(atoms[:2]), pair, pair_amps, {})
    return out._replace(fidelity=fidelity(out.state, target))


# ---------------------------------------------------------------------------
# entanglement over a lossy link


class EprCircuit:
    """Registers and channels for one entanglement link.

    One qubit at the sending node fans out over two transmission slots,
    with a bit flip in between, so its value and its complement ride to
    the receiving node. A joint measurement there heralds the attempts in
    which both copies arrived; a basis measurement on the spare copy then
    folds it back into a phase on the pair.
    """

    def __init__(self, noise: NoiseConfig):
        self.noise = noise
        atoms = (
            ("a1", "atom"),
            ("a2", "atom"),
            ("aa", "atom"),
            ("herald", "atom"),
        )
        self.trans = make_transmission_channel(
            noise, ("cav1", "cav2"), ("lnk0", "lnk1")
        )
        self.local = make_local_channel(noise, "cav2", ("b0", "b1"))
        # the receiving cavity is in both channels' registers; list it once
        registers = atoms + self.trans.registers + self.local.registers
        self.spec = SubsystemSpec(list(dict.fromkeys(registers)))
        validate_channel_pair(self.local, self.trans)
        half = 1.0 / np.sqrt(2.0)
        self.bell = _pair_state(
            SubsystemSpec(atoms[:2]), ("a1", "a2"), (half, 0.0, 0.0, half), {}
        )


def epr_attempt(circuit: EprCircuit, chooser, k) -> Outcome:
    """Attempt ``k`` of the link: fan out, transmit twice, verify at the
    receiver, and on a herald fold the spare copy into the pair by
    measuring it along |0> +/- |1>. A failed attempt keeps no state.

    Attempts are independent and identically distributed: attempt ``k``
    differs from the first only in the ``try{k}`` tag that prefixes every
    choice name it makes.
    """
    tag = f"try{k}"
    init = {label: 0 for label in circuit.spec.labels}
    init.update(_start_levels(circuit.local, chooser, tag))
    s = make_state(circuit.spec, init)
    s = single_atom_op(s, "a1", "hadamard_01")
    s = transmission_apply(s, circuit.trans, ("a1", "a2"), slot=0)
    s = single_atom_op(s, "a1", "not_01")
    s = transmission_apply(s, circuit.trans, ("a1", "aa"), slot=1)
    s = single_atom_op(s, "a1", "not_01")
    out = joint_measure_00(
        s, ("a2", "aa"), "herald", circuit.local, chooser, tag=tag
    )
    if not out.ok:
        return Outcome(False, None, None)
    s = single_atom_op(out.state, "aa", "hadamard_01")
    idx, s = measure_via(chooser, s, "aa", ATOM_LEVELS, f"{tag}:ancilla")
    if idx == 1:
        s = single_atom_op(s, "a1", "phase_z")
    return Outcome(True, fidelity(s, circuit.bell), s)


def run_epr(circuit: EprCircuit, chooser, max_attempts):
    """Repeat fresh attempts until one heralds; returns (attempts, Outcome)."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    for k in range(1, max_attempts + 1):
        out = epr_attempt(circuit, chooser, k)
        if out.ok:
            break
    return k, out


# ---------------------------------------------------------------------------
# two-qubit phase gate


def gate_exposures(noise: NoiseConfig):
    """Per-input survival amplitudes of one gate application.

    The palindrome leaves |00> untouched; |01> only parks in the transfer
    level for the two partner pulses; |10> emits a photon that rides out
    all three idle windows; |11> hands the photon to the partner after one
    window and takes it back for the third, paying four transfer halves.
    """
    window = np.pi / PULSE_RATE
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


def _shared_register(n_modes):
    """The atoms, the cavity and one set of window modes that every
    application reuses, as on a vacuum bath: (windows, spec)."""
    windows = tuple(
        tuple(f"w{w}m{m}" for m in range(n_modes)) for w in range(3)
    )
    entries = [("a1", "atom"), ("a2", "atom"), ("cav", "cavity")]
    spec = SubsystemSpec(
        entries + [(m, "bathmode") for w in windows for m in w],
        cap=GATE_DIM_CAP,
    )
    return windows, spec


def _pulses(identity_signed):
    """(atom, drive phase) of an application's four transfers."""
    tail = np.pi if identity_signed else 0.0
    return (("a1", 0.0), ("a2", 0.0), ("a2", tail), ("a1", tail))


@lru_cache(maxsize=8)
def _folded_application(couplings, detunings, identity_signed) -> np.ndarray:
    """One bath-backend application as one unitary on its own registers.

    The registers are a1, a2, cav and one set of window modes, laid out as
    in `_shared_register`. The matrix is the identity pushed through the
    nine cached operators that `GateCircuit.apply` applies step by step:
    the two a2 exchanges, four transfer propagators and three dwell
    propagators (`hilbert.fold`). Built once per (couplings, detunings,
    identity_signed); the couplings carry the mode count, and the bath's
    thermal occupation does not enter. Read-only.
    """
    bath = BathSpec(couplings, detunings)
    windows, spec = _shared_register(len(couplings))
    flip = single_atom_operator(spec, "a2", "exchange_1r")
    ops = [flip]
    for k, (atom, phase) in enumerate(_pulses(identity_signed)):
        if k:
            h = bath_hamiltonian(spec, bath, "cav", windows[k - 1])
            ops.append(cached_propagator(spec, h, DWELL))
        ops.append(transfer_op(spec, atom, "cav", PULSE_RATE, phase))
    ops.append(flip)
    return fold(ops)


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

    def __init__(self, noise: NoiseConfig, *, applications=1):
        self.noise = noise
        atoms = [("a1", "atom"), ("a2", "atom")]
        if noise.backend == "analytic":
            self.flags = tuple(f"fg{k}" for k in range(applications))
            self.spec = SubsystemSpec(
                atoms + [(f, "bathmode") for f in self.flags]
            )
            self.specs = (self.spec,) * applications
            self.exposures = gate_exposures(noise)
            self.bath = None
            self.windows = None
            return
        self.flags = None
        self.exposures = None
        self.bath = loss_bath(noise)
        n_modes = self.bath.n_modes
        if noise.p_therm > 0.0:
            entries = atoms + [("cav", "cavity")]
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
            shared, spec = _shared_register(n_modes)
            self.windows = (shared,) * applications
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
        return _pair_state(spec, ("a1", "a2"), amps, base)

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

        On a register larger than the application's own registers (a1,
        a2, cav and the slot's window modes), as thermal applications 1
        to 3 run, the nine steps act as one `_folded_application` matmul.
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
        windows = self.windows[slot]
        support = ("a1", "a2", "cav") + sum(windows, ())
        if len(s.spec.labels) > len(support):
            fold = _folded_application(
                self.bath.couplings, self.bath.detunings, identity_signed
            )
            return apply(LinearOp(s.spec, support, fold), s)
        s = single_atom_op(s, "a2", "exchange_1r")
        for k, (atom, phase) in enumerate(_pulses(identity_signed)):
            if k:
                h = bath_hamiltonian(s.spec, self.bath, "cav", windows[k - 1])
                s = evolve(s, h, DWELL)
            s = transfer(s, atom, "cav", PULSE_RATE, phase)
        return single_atom_op(s, "a2", "exchange_1r")

    def ideal_target(self, amps) -> StateVector:
        amps = np.asarray(amps, dtype=complex)
        amps = amps / np.linalg.norm(amps)
        pair = SubsystemSpec([("a1", "atom"), ("a2", "atom")])
        signed = amps * np.array([1.0, 1.0, -1.0, 1.0])
        return _pair_state(pair, ("a1", "a2"), signed, {})


GATE_FRAME_ATOMS = ("a1", "a2", "a1", "a2")


def run_gate(
    noise: NoiseConfig,
    chooser,
    *,
    amps,
    purified=True,
) -> Outcome:
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
        circ = GateCircuit(noise, applications=1)
        s = circ.initial_state(amps, circ.draw_levels(chooser))
        s = circ.apply(s, slot=0)
        return Outcome(True, fidelity(s, circ.ideal_target(amps)), s)
    circ = GateCircuit(noise, applications=4)
    levels = circ.draw_levels(chooser)
    s = circ.initial_state(amps, levels)
    for k in range(4):
        s = circ.grow(s, k, levels)
        s = circ.apply(s, slot=k, identity_signed=(k == 3))
        idx, s = measure_via(chooser, s, "a1", QUBIT_VS_PARKED, f"cp{k}")
        if idx == 1:
            # a failed run reports its state on the full register
            return Outcome(False, None, circ.grow(s, -1, levels))
        s = single_atom_op(s, GATE_FRAME_ATOMS[k], "not_01")
    s = single_atom_op(s, "a1", "phase_z")
    return Outcome(True, fidelity(s, circ.ideal_target(amps)), s)
