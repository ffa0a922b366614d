"""Lossy photon copy channels with two interchangeable environment backends.

A channel moves one qubit's excitation from a source atom onto a target
atom through a cavity photon that can be lost on the way. Every channel
realizes the same three-branch algebra: a survive operator on source |0>,
a survive-with-copy operator on source |1>, and a loss operator that
records the photon's disappearance in an environment register while the
atoms keep the telltale source-kept/target-empty configuration.

The "bath" backend runs the real pulse sequence: arm the target, emit with
an exact transfer pulse, let the photon dwell in the cavity while coupled
to explicit hard-core modes, reabsorb with a second exact pulse, restore
the source. Confining leakage to the dwell window keeps both transfers
exact, so a tuned single resonant mode loses the photon with probability
sin^2(G * dwell) and nothing else: couplings come from a closed form, not
a fit. The "analytic" backend replaces the environment with c-numbers and
per-use flag registers; it is the twin of the bath backend on a vacuum
environment and is the only backend that carries the systematic drive
offsets (detuning, pulse-area error) as pure phases and amplitudes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import (
    BathSpec,
    PulseSchedule,
    bath_hamiltonian,
    optical_pump_r_to_1,
    pi_pulse,
    propagator,
    run_pulses,
    single_atom_op,
)
from .hilbert import (
    LinearOp,
    StateVector,
    SubsystemSpec,
    apply,
    from_labels_first,
    labels_first,
    make_state,
)

BACKENDS = ("analytic", "bath")
ENV_KINDS = ("survive_0", "survive_1", "loss")

DEFAULT_PULSE_RATE = 1.0
DEFAULT_DWELL = 1.0
# Channel preconditions are asserted against this amplitude floor.
CHANNEL_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class NoiseConfig:
    """Every noise knob of one experiment, validated as a unit.

    Parameters
    ----------
    backend : str
        "analytic" for c-number environments, "bath" for explicit modes.
    eta_local : float
        Photon loss probability of a local copy channel, in [0, 1).
    eta_trans : float
        Photon loss probability of an inter-cavity transmission, in [0, 1).
    delta : float
        Transfer-drive detuning. Analytic backend only: it would leave
        residual population behind in the exact dynamics, while the
        c-number model keeps it as a pure phase per drive window.
    pulse_area_error : float
        Fractional pulse-area offset; each transfer amplitude shrinks by
        cos(pi * pulse_area_error / 2). Analytic backend only.
    phase_offset : float
        Global drive phase offset. Allowed on both backends; it cancels
        between emission and absorption of the same photon.
    p_therm : float
        Probability that each bath mode starts excited. Bath backend only.
    bath : BathSpec, optional
        Explicit mode content for the bath backend. When omitted, local
        channels tune a single resonant mode to eta_local.
    """

    backend: str = "analytic"
    eta_local: float = 0.0
    eta_trans: float = 0.0
    delta: float = 0.0
    pulse_area_error: float = 0.0
    phase_offset: float = 0.0
    p_therm: float = 0.0
    bath: BathSpec | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        values = [
            self.eta_local,
            self.eta_trans,
            self.delta,
            self.pulse_area_error,
            self.phase_offset,
            self.p_therm,
        ]
        if not np.isfinite(values).all():
            raise ValueError("noise parameters must be finite")
        for name in ("eta_local", "eta_trans", "p_therm"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.backend == "analytic":
            if self.p_therm > 0.0:
                raise ValueError("thermal occupation requires the bath backend")
            if self.bath is not None:
                raise ValueError("an explicit bath requires the bath backend")
        elif self.delta != 0.0 or self.pulse_area_error != 0.0:
            raise ValueError(
                "delta and pulse_area_error are analytic-backend knobs; the "
                "bath backend keeps its transfer pulses exact"
            )


@dataclass(frozen=True, eq=False)
class BathAction:
    """One branch's environment map for the bath backend.

    ``labels`` name the environment registers, cavity first; ``matrix``
    acts on their row-major product basis.
    """

    labels: tuple
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = 2 ** len(self.labels)
        if m.shape != (d, d):
            raise ValueError(f"environment matrix must be {d}x{d}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class EnvOperator:
    """What one channel branch does to the environment.

    Exactly one representation is set: ``scalar`` for the analytic backend,
    ``action`` for the bath backend.
    """

    backend: str
    kind: str
    scalar: complex | None = None
    action: BathAction | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.kind not in ENV_KINDS:
            raise ValueError(f"kind must be one of {ENV_KINDS}")
        if self.backend == "analytic":
            if self.scalar is None or self.action is not None:
                raise ValueError("analytic environment operators hold a scalar")
            s = complex(self.scalar)
            object.__setattr__(self, "scalar", s)
            if abs(s) > 1.0 + 1e-12:
                raise ValueError("environment scalars cannot exceed unit modulus")
            if self.kind == "loss" and not (s.imag == 0.0 and s.real >= 0.0):
                raise ValueError("loss scalars are real and nonnegative")
        else:
            if self.action is None or self.scalar is not None:
                raise ValueError("bath environment operators hold a BathAction")

    @property
    def norm(self) -> float:
        """Largest amplification over environment states."""
        if self.backend == "analytic":
            return abs(self.scalar)
        return float(np.linalg.norm(self.action.matrix, 2))


def _check_triple(first, second, loss, what):
    backends = {first.backend, second.backend, loss.backend}
    if len(backends) != 1:
        raise ValueError(f"{what} mixes backends")
    for op, kind in ((first, "survive_0"), (second, "survive_1"), (loss, "loss")):
        if op.kind != kind:
            raise ValueError(f"{what} operator order must be {ENV_KINDS}")
    if first.backend == "analytic":
        leak = abs(second.scalar) ** 2 + abs(loss.scalar) ** 2
        if leak > 1.0 + 1e-12:
            raise ValueError(f"{what} would increase the trace")


@dataclass(frozen=True, eq=False)
class LocalChannel:
    """Copy channel between two atoms sharing one cavity.

    ``l0`` acts when the source holds |0>, ``l1`` scales the successful
    copy, ``la`` scales the loss branch (source restored to |1>, target
    left in |0>, environment excited). ``metadata`` carries the register
    names and construction recipe needed to apply or rebuild the channel.
    """

    l0: EnvOperator
    l1: EnvOperator
    la: EnvOperator
    duration: float
    metadata: dict

    def __post_init__(self):
        _check_triple(self.l0, self.l1, self.la, "local channel")
        if self.duration < 0.0:
            raise ValueError("dwell duration must be nonnegative")

    @property
    def backend(self) -> str:
        return self.l0.backend


@dataclass(frozen=True, eq=False)
class TransmissionChannel:
    """Copy channel between atoms in different cavities over a lossy link."""

    t0: EnvOperator
    t1: EnvOperator
    ta: EnvOperator
    eta_trans: float
    metadata: dict

    def __post_init__(self):
        _check_triple(self.t0, self.t1, self.ta, "transmission channel")
        if not 0.0 <= self.eta_trans < 1.0:
            raise ValueError("eta_trans must lie in [0, 1)")

    @property
    def backend(self) -> str:
        return self.t0.backend


def default_loss_bath(eta, dwell=DEFAULT_DWELL, p_therm=0.0) -> BathSpec:
    """Single resonant mode tuned so one dwell window loses probability eta.

    The photon exchanges with the mode at rate G for the dwell window, so
    the leaked weight is sin^2(G * dwell) exactly and G = arcsin(sqrt(eta))
    / dwell inverts it in closed form.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    if dwell <= 0.0:
        raise ValueError("dwell must be positive")
    return BathSpec((float(np.arcsin(np.sqrt(eta)) / dwell),), (0.0,), p_therm)


def _systematic_scalars(noise: NoiseConfig, g: float):
    """(survive, copy, loss) c-numbers for one two-pulse copy.

    The target spends one full pulse window parked in the transfer level,
    giving the survive branch the detuning phase exp(-i delta pi / g); the
    copy branch collects the same phase from its two transfer halves plus
    the area-error amplitude per pulse. The drive phase offset cancels
    between emission and absorption and never appears.
    """
    window = np.pi / g
    phase = np.exp(-1j * noise.delta * window)
    area = np.cos(np.pi * noise.pulse_area_error / 2.0) ** 2
    return phase, area * phase


def _analytic_triple(survive, copy):
    loss = np.sqrt(max(0.0, 1.0 - abs(copy) ** 2))
    return (
        EnvOperator("analytic", "survive_0", scalar=survive),
        EnvOperator("analytic", "survive_1", scalar=copy),
        EnvOperator("analytic", "loss", scalar=loss),
    )


def _local_pulse_sequence(src, tgt, cavity, g, phase_offset, dwell):
    return PulseSchedule(
        (
            pi_pulse(src, g, phase_offset, 0.0, cavity),
            pi_pulse(tgt, g, phase_offset, 0.0, cavity),
        ),
        idle=dwell,
    )


def _run_local_wrapper(s, src, tgt, cavity, bath_labels, bath, g, phase_offset, dwell):
    """Arm target, emit, dwell against the bath, reabsorb, restore source."""
    s = single_atom_op(s, tgt, "exchange_0r")
    background = bath_hamiltonian(s.spec, bath, cavity, bath_labels)
    s = run_pulses(
        s,
        _local_pulse_sequence(src, tgt, cavity, g, phase_offset, dwell),
        background=background,
        concurrent=False,
    )
    s = single_atom_op(s, src, "exchange_1r")
    s = single_atom_op(s, tgt, "exchange_0r")
    return optical_pump_r_to_1(s, src)


@lru_cache(maxsize=32)
def _beamsplitter_op(spec, cavity, link, eta) -> LinearOp:
    """Partial photon swap from a cavity into a link register.

    The occupied-occupied completion picks up a sign so the map stays
    unitary on the full hard-core space; no protocol ever populates it.
    Built once per (spec, cavity, link, eta) and shared.
    """
    c = np.sqrt(1.0 - eta)
    s = np.sqrt(eta)
    m = np.array(
        [
            [1, 0, 0, 0],
            [0, c, s, 0],
            [0, -s, c, 0],
            [0, 0, 0, -1],
        ],
        dtype=complex,
    )
    return LinearOp(spec, (cavity, link), m)


@lru_cache(maxsize=32)
def _swap_op(spec, a, b) -> LinearOp:
    m = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return LinearOp(spec, (a, b), m)


def _run_trans_wrapper(s, src, tgt, cav_s, cav_t, link, eta, g, phase_offset):
    """Emit at the source cavity, route through the lossy link, reabsorb."""
    s = single_atom_op(s, tgt, "exchange_0r")
    s = run_pulses(s, [pi_pulse(src, g, phase_offset, 0.0, cav_s)])
    s = apply(_beamsplitter_op(s.spec, cav_s, link, eta), s)
    s = apply(_swap_op(s.spec, cav_s, cav_t), s)
    s = run_pulses(s, [pi_pulse(tgt, g, phase_offset, 0.0, cav_t)])
    s = single_atom_op(s, src, "exchange_1r")
    s = single_atom_op(s, tgt, "exchange_0r")
    return optical_pump_r_to_1(s, src)


def _extract_env_ops(env_labels, runner):
    """Column-by-column environment blocks of a copy wrapper.

    Runs the wrapper from source levels 0 and 1 for every environment
    basis state and reads the amplitudes that stay in each atomic block:
    (0,0) for survive_0, (1,1) for survive_1, (1,0) for loss.
    """
    n_env = len(env_labels)
    d = 2**n_env
    blocks = {k: np.zeros((d, d), dtype=complex) for k in ("l0", "l1", "la")}
    for col, occ in enumerate(itertools.product((0, 1), repeat=n_env)):
        env = dict(zip(env_labels, occ))
        out0 = runner(0, env).tensor().reshape(3, 3, d)
        blocks["l0"][:, col] = out0[0, 0]
        out1 = runner(1, env).tensor().reshape(3, 3, d)
        blocks["l1"][:, col] = out1[1, 1]
        blocks["la"][:, col] = out1[1, 0]
        if not any(occ):
            # vacuum environment: the wrapper must terminate in exactly the
            # two advertised atomic branches
            stray0 = np.abs(out0).sum() - np.abs(out0[0, 0]).sum()
            stray1 = (
                np.abs(out1).sum()
                - np.abs(out1[1, 1]).sum()
                - np.abs(out1[1, 0]).sum()
            )
            if stray0 > CHANNEL_DOMAIN_TOL or stray1 > CHANNEL_DOMAIN_TOL:
                raise AssertionError("copy wrapper left stray atomic amplitude")
    return blocks


def make_local_channel(
    noise: NoiseConfig,
    *,
    flag_labels=None,
    cavity=None,
    bath_labels=None,
    g=DEFAULT_PULSE_RATE,
    dwell=DEFAULT_DWELL,
) -> LocalChannel:
    """Build a same-cavity copy channel from a noise configuration.

    Analytic backend: pass ``flag_labels``, one loss register per use slot.
    Bath backend: pass the ``cavity`` and ``bath_labels`` the channel will
    drive; the bath defaults to a single resonant mode tuned to eta_local.
    ``bath_labels`` is either one slot's mode labels or a tuple of per-slot
    label tuples; repeated uses need fresh modes per slot.
    """
    if g <= 0.0:
        raise ValueError("pulse rate must be positive")
    if noise.backend == "analytic":
        if not flag_labels:
            raise ValueError("analytic channels need at least one flag label")
        survive, copy = _systematic_scalars(noise, g)
        copy = copy * np.sqrt(1.0 - noise.eta_local)
        l0, l1, la = _analytic_triple(survive, copy)
        meta = {
            "flag_labels": tuple(flag_labels),
            "g": float(g),
            "phase_offset": noise.phase_offset,
        }
        return LocalChannel(l0, l1, la, float(dwell), meta)

    if cavity is None or not bath_labels:
        raise ValueError("bath channels need cavity and bath_labels")
    bath_labels = tuple(bath_labels)
    if all(isinstance(b, str) for b in bath_labels):
        slot_modes = (bath_labels,)
    else:
        slot_modes = tuple(tuple(s) for s in bath_labels)
    if noise.bath is not None:
        bath = replace(noise.bath, p_therm=noise.p_therm)
        tuned_eta = None
    else:
        bath = default_loss_bath(noise.eta_local, dwell, noise.p_therm)
        tuned_eta = noise.eta_local
    for modes in slot_modes:
        if bath.n_modes != len(modes):
            raise ValueError(
                f"bath has {bath.n_modes} modes but {len(modes)} labels given"
            )
    bath_labels = slot_modes[0]
    spec = SubsystemSpec(
        [("_src", "atom"), ("_tgt", "atom"), (cavity, "cavity")]
        + [(b, "bathmode") for b in bath_labels]
    )
    env_labels = (cavity,) + bath_labels

    def runner(src_level, env):
        init = make_state(spec, {"_src": src_level, "_tgt": 0, **env})
        return _run_local_wrapper(
            init, "_src", "_tgt", cavity, bath_labels, bath,
            g, noise.phase_offset, dwell,
        )

    blocks = _extract_env_ops(env_labels, runner)
    vac_copy = blocks["l1"][0, 0]
    if tuned_eta is not None:
        expected = np.sqrt(1.0 - tuned_eta)
        if abs(vac_copy - expected) > 1e-12:
            raise AssertionError(
                "tuned bath disagrees with its closed-form survival amplitude"
            )
    meta = {
        "cavity": cavity,
        "bath_labels": bath_labels,
        "slot_modes": slot_modes,
        "bath": bath,
        "g": float(g),
        "phase_offset": noise.phase_offset,
        "vacuum_survival": complex(vac_copy),
    }
    ops = [
        EnvOperator("bath", kind, action=BathAction(env_labels, blocks[key]))
        for kind, key in (("survive_0", "l0"), ("survive_1", "l1"), ("loss", "la"))
    ]
    return LocalChannel(ops[0], ops[1], ops[2], float(dwell), meta)


def make_transmission_channel(
    noise: NoiseConfig,
    *,
    flag_labels=None,
    cavity_source=None,
    cavity_target=None,
    link_labels=None,
    g=DEFAULT_PULSE_RATE,
) -> TransmissionChannel:
    """Build an inter-cavity copy channel from a noise configuration.

    Analytic backend: pass ``flag_labels`` per use slot. Bath backend:
    pass both cavity labels and ``link_labels``, one fresh link register
    per use slot.
    """
    if g <= 0.0:
        raise ValueError("pulse rate must be positive")
    eta = noise.eta_trans
    if noise.backend == "analytic":
        if not flag_labels:
            raise ValueError("analytic channels need at least one flag label")
        survive, copy = _systematic_scalars(noise, g)
        copy = copy * np.sqrt(1.0 - eta)
        t0, t1, ta = _analytic_triple(survive, copy)
        meta = {
            "flag_labels": tuple(flag_labels),
            "g": float(g),
            "phase_offset": noise.phase_offset,
        }
        return TransmissionChannel(t0, t1, ta, float(eta), meta)

    if cavity_source is None or cavity_target is None or not link_labels:
        raise ValueError(
            "bath transmissions need cavity_source, cavity_target, link_labels"
        )
    link_labels = tuple(link_labels)
    spec = SubsystemSpec(
        [
            ("_src", "atom"),
            ("_tgt", "atom"),
            (cavity_source, "cavity"),
            (cavity_target, "cavity"),
            (link_labels[0], "bathmode"),
        ]
    )
    env_labels = (cavity_source, cavity_target, link_labels[0])

    def runner(src_level, env):
        init = make_state(spec, {"_src": src_level, "_tgt": 0, **env})
        return _run_trans_wrapper(
            init, "_src", "_tgt", cavity_source, cavity_target,
            link_labels[0], eta, g, noise.phase_offset,
        )

    blocks = _extract_env_ops(env_labels, runner)
    if abs(blocks["l1"][0, 0] - np.sqrt(1.0 - eta)) > 1e-12:
        raise AssertionError(
            "link transmission disagrees with its closed-form survival amplitude"
        )
    meta = {
        "cavity_source": cavity_source,
        "cavity_target": cavity_target,
        "link_labels": link_labels,
        "g": float(g),
        "phase_offset": noise.phase_offset,
    }
    ops = [
        EnvOperator("bath", kind, action=BathAction(env_labels, blocks[key]))
        for kind, key in (("survive_0", "l0"), ("survive_1", "l1"), ("loss", "la"))
    ]
    return TransmissionChannel(ops[0], ops[1], ops[2], float(eta), meta)


def validate_channel_pair(local: LocalChannel, trans: TransmissionChannel):
    """Loss hierarchy sanity check: the link must lose more than the cavity.

    Skipped for lossless local channels, where both norms vanish.
    """
    la = local.la.norm
    if la > 1e-15 and trans.ta.norm <= la:
        raise ValueError(
            "transmission loss must dominate local channel loss; "
            f"got ||Ta|| = {trans.ta.norm:.6g} <= ||La|| = {la:.6g}"
        )


def _assert_channel_domain(s: StateVector, src: str, tgt: str, *, scalar_map):
    """Reject inputs outside the advertised copy semantics.

    The occupied-source-with-parked-target combination is forbidden only
    for the analytic backend, whose amplitude surgery has no rule for it.
    The bath wrapper is a unitary and handles it physically (the emission
    simply finds no absorber), which thermal occupation makes reachable.
    """
    spec = s.spec
    for label in (src, tgt):
        if spec.kind(label) != "atom":
            raise ValueError(f"{label!r} is not an atom")
    if src == tgt:
        raise ValueError("source and target must differ")
    moved = labels_first(s, (src, tgt))
    if np.abs(moved[2]).max(initial=0.0) > CHANNEL_DOMAIN_TOL:
        raise ValueError("channel source must hold |0> or |1>, not |r>")
    if np.abs(moved[:, 1]).max(initial=0.0) > CHANNEL_DOMAIN_TOL:
        raise ValueError(
            "channel target already holds a qubit; park it as |r> or clear it"
        )
    if scalar_map and np.abs(moved[1, 2]).max(initial=0.0) > CHANNEL_DOMAIN_TOL:
        raise ValueError(
            "an occupied source cannot coexist with a parked target"
        )


def _analytic_copy_map(s, src, tgt, flag, survive, copy, loss):
    """Amplitude surgery for one analytic copy slot.

    Source |0> components scale by the survive c-number whether the target
    is fresh or parked; source |1> components split into the copy branch
    and the flagged loss branch. The flag register must be fresh.
    """
    moved = labels_first(s, (src, tgt, flag))
    if np.abs(moved[:, :, 1]).max(initial=0.0) > CHANNEL_DOMAIN_TOL:
        raise ValueError(f"loss flag {flag!r} is already set")
    out = np.zeros_like(moved)
    out[0, 0, 0] = survive * moved[0, 0, 0]
    out[0, 2, 0] = survive * moved[0, 2, 0]
    out[1, 1, 0] = copy * moved[1, 0, 0]
    out[1, 0, 1] = loss * moved[1, 0, 0]
    return from_labels_first(s.spec, (src, tgt, flag), out)


def _slot_label(metadata, key, slot, what):
    labels = metadata[key]
    if not 0 <= slot < len(labels):
        raise ValueError(f"{what} has no register for slot {slot}")
    return labels[slot]


def local_channel_apply(s: StateVector, ch: LocalChannel, atoms, slot=0):
    """Send one qubit through a local copy channel.

    ``atoms`` is (source, target); ``slot`` picks the loss register for
    this use. Analytic channels burn one flag per slot; bath channels
    dwell against that slot's fresh mode set, so a photon lost in an
    earlier window can never be recaptured by a later one.
    """
    src, tgt = atoms
    _assert_channel_domain(s, src, tgt, scalar_map=ch.backend == "analytic")
    if ch.backend == "analytic":
        flag = _slot_label(ch.metadata, "flag_labels", slot, "analytic channel")
        if s.spec.kind(flag) != "bathmode":
            raise ValueError(f"{flag!r} is not a flag register")
        return _analytic_copy_map(
            s, src, tgt, flag, ch.l0.scalar, ch.l1.scalar, ch.la.scalar
        )
    m = ch.metadata
    modes = _slot_label(m, "slot_modes", slot, "bath channel")
    return _run_local_wrapper(
        s, src, tgt, m["cavity"], modes, m["bath"],
        m["g"], m["phase_offset"], ch.duration,
    )


def transmission_apply(s: StateVector, ch: TransmissionChannel, atoms, slot=0):
    """Send one qubit through an inter-cavity transmission channel."""
    src, tgt = atoms
    _assert_channel_domain(s, src, tgt, scalar_map=ch.backend == "analytic")
    if ch.backend == "analytic":
        flag = _slot_label(ch.metadata, "flag_labels", slot, "analytic channel")
        if s.spec.kind(flag) != "bathmode":
            raise ValueError(f"{flag!r} is not a flag register")
        return _analytic_copy_map(
            s, src, tgt, flag, ch.t0.scalar, ch.t1.scalar, ch.ta.scalar
        )
    m = ch.metadata
    link = _slot_label(m, "link_labels", slot, "bath transmission")
    return _run_trans_wrapper(
        s, src, tgt, m["cavity_source"], m["cavity_target"], link,
        ch.eta_trans, m["g"], m["phase_offset"],
    )


def analytic_from_bath(ch, flag_labels):
    """Analytic twin of a bath channel, read off its vacuum columns.

    The survive amplitudes come straight from the vacuum-to-vacuum matrix
    elements; the loss scalar is the norm of the loss branch's vacuum
    column, which lands on a flag register instead of the explicit modes.
    """
    if ch.backend != "bath":
        raise ValueError("expected a bath-backend channel")
    if isinstance(ch, LocalChannel):
        first, second, loss = ch.l0, ch.l1, ch.la
    else:
        first, second, loss = ch.t0, ch.t1, ch.ta
    survive = complex(first.action.matrix[0, 0])
    copy = complex(second.action.matrix[0, 0])
    lost = float(np.linalg.norm(loss.action.matrix[:, 0]))
    if abs(abs(copy) ** 2 + lost**2 - 1.0) > 1e-12:
        raise AssertionError("vacuum columns do not close the trace")
    ops = (
        EnvOperator("analytic", "survive_0", scalar=survive),
        EnvOperator("analytic", "survive_1", scalar=copy),
        EnvOperator("analytic", "loss", scalar=lost),
    )
    meta = {
        "flag_labels": tuple(flag_labels),
        "g": ch.metadata["g"],
        "phase_offset": ch.metadata["phase_offset"],
    }
    if isinstance(ch, LocalChannel):
        return LocalChannel(*ops, ch.duration, meta)
    return TransmissionChannel(*ops, ch.eta_trans, meta)


def _rebuilt_local_ops(ch: LocalChannel, duration):
    """Environment blocks of a local channel at a different dwell length."""
    if duration == ch.duration:
        return ch.l0.action.matrix, ch.l1.action.matrix
    m = ch.metadata
    spec = SubsystemSpec(
        [("_src", "atom"), ("_tgt", "atom"), (m["cavity"], "cavity")]
        + [(b, "bathmode") for b in m["bath_labels"]]
    )
    env_labels = (m["cavity"],) + m["bath_labels"]

    def runner(src_level, env):
        init = make_state(spec, {"_src": src_level, "_tgt": 0, **env})
        return _run_local_wrapper(
            init, "_src", "_tgt", m["cavity"], m["bath_labels"], m["bath"],
            m["g"], m["phase_offset"], duration,
        )

    blocks = _extract_env_ops(env_labels, runner)
    return blocks["l0"], blocks["l1"]


def check_stationarity(ch, durations=None, start_times=None, p_therm=None):
    """Deviation from slot-order independence of the environment couplings.

    Applies the survive and copy environment operators in both orders
    (optionally with different slot durations and free environment
    evolution across the gap set by ``start_times``) and returns the RMS
    difference over the thermal occupation ensemble of the modes. Exactly
    zero for c-number environments and for any vacuum bath with equal
    durations; thermal occupation breaks it.
    """
    if isinstance(ch, LocalChannel):
        first, second = ch.l0, ch.l1
    elif isinstance(ch, TransmissionChannel):
        first, second = ch.t0, ch.t1
    else:
        raise TypeError("expected a LocalChannel or TransmissionChannel")
    if ch.backend == "analytic":
        a = second.scalar * first.scalar
        b = first.scalar * second.scalar
        return float(abs(a - b))

    if isinstance(ch, TransmissionChannel):
        m0 = (first.action.matrix, first.action.matrix)
        m1 = (second.action.matrix, second.action.matrix)
        gap_u = np.eye(m0[0].shape[0])
        modes = 0
        p = 0.0
    else:
        d1, d2 = durations if durations is not None else (ch.duration, ch.duration)
        l0_1, l1_1 = _rebuilt_local_ops(ch, d1)
        l0_2, l1_2 = _rebuilt_local_ops(ch, d2)
        m0 = (l0_1, l0_2)
        m1 = (l1_1, l1_2)
        bath = ch.metadata["bath"]
        modes = bath.n_modes
        p = bath.p_therm if p_therm is None else p_therm
        gap = 0.0
        if start_times is not None:
            t1, t2 = start_times
            gap = t2 - t1 - d1
            if gap < 0.0:
                raise ValueError("slots overlap: second start precedes first end")
        if gap > 0.0:
            env_spec = SubsystemSpec(
                [(ch.metadata["cavity"], "cavity")]
                + [(b, "bathmode") for b in ch.metadata["bath_labels"]]
            )
            h = bath_hamiltonian(
                env_spec, bath, ch.metadata["cavity"], ch.metadata["bath_labels"]
            )
            gap_u = propagator(env_spec, h, gap).dense()
        else:
            gap_u = np.eye(m0[0].shape[0])

    forward = m1[1] @ gap_u @ m0[0]
    backward = m0[1] @ gap_u @ m1[0]
    diff = forward - backward
    total = 0.0
    for occ in itertools.product((0, 1), repeat=modes):
        weight = 1.0
        for o in occ:
            weight *= p if o else 1.0 - p
        if weight == 0.0:
            continue
        col = int(np.ravel_multi_index((0,) + occ, (2,) * (modes + 1)))
        total += weight * float(np.linalg.norm(diff[:, col]) ** 2)
    return float(np.sqrt(total))
