"""Lossy photon copy channels with two interchangeable environment backends.

A channel moves one qubit's excitation from a source atom onto a target
atom through a cavity photon that can be lost on the way. Every channel is
one `CopyChannel` with the same three-branch algebra: a survive operator
``l0`` on source |0>, a survive-with-copy operator ``l1`` on source |1>,
and a loss operator ``la`` that records the photon's disappearance in an
environment register while the atoms keep the telltale
source-kept/target-empty configuration. A local channel copies between
two atoms sharing one cavity; a link channel copies between atoms in
different cavities over a lossy transmission line.

The "bath" backend runs the real pulse sequence: arm the target, emit with
an exact transfer pulse at rate PULSE_RATE, let the photon dwell in the
cavity for DWELL while coupled to explicit hard-core modes, reabsorb with
a second exact pulse, restore the source. Confining leakage to the dwell
window keeps both transfers exact, so a tuned single resonant mode loses
the photon with probability sin^2(G * DWELL) and nothing else: couplings
come from a closed form, not a fit. A link splits the photon into its
link register instead of dwelling. Each sequence is compiled once into
operators on fixed registers: basis states pushed through them give the
branch operators, matrices over the environment registers, and a use
applies them folded into one unitary, then repumps the source.

The "analytic" backend replaces the environment with c-numbers and
per-use flag registers; it is the twin of the bath backend on a vacuum
environment and is the only backend that carries the systematic drive
offsets (detuning, pulse-area error) as pure phases and amplitudes.

A channel names its own registers. Its constructor takes one name per
use slot, and ``CopyChannel.registers`` lists the (label, kind) pairs a
state needs for every slot. On the analytic backend each slot name is a
flag register. On the bath backend each slot gets fresh modes of the
loss bath: a one-mode bath names slot ``s``'s mode ``s`` itself, an
n-mode bath names them ``{s}m0`` to ``{s}m{n-1}``; a link's slot name is
its link register.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .dynamics import (
    BathSpec,
    bath_hamiltonian,
    cached_propagator,
    finite_float,
    optical_pump_r_to_1,
    propagator,
    single_atom_operator,
    transfer_op,
)
from .hilbert import (
    LinearOp,
    StateVector,
    SubsystemSpec,
    apply,
    fold,
    from_labels_first,
    labels_first,
    make_state,
)

BACKENDS = ("analytic", "bath")

# the transfer pulse rate and the local dwell window of every channel
PULSE_RATE = 1.0
DWELL = 1.0
# The scalar noise knobs of a NoiseConfig, in config order.
NOISE_SCALARS = (
    "eta_local",
    "eta_trans",
    "delta",
    "pulse_area_error",
    "phase_offset",
    "p_therm",
)
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
        for name in NOISE_SCALARS:
            object.__setattr__(self, name, finite_float(getattr(self, name), name))
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
class CopyChannel:
    """One lossy copy, within a cavity or over a link, in either backend.

    ``l0`` acts when the source holds |0>, ``l1`` scales the successful
    copy, ``la`` scales the loss branch (source restored to |1>, target
    left in |0>, environment excited). Analytic channels hold complex
    scalars and no ``env_labels``; bath channels hold ``2^n x 2^n``
    matrices on the row-major product basis of their ``n`` environment
    registers ``env_labels``, cavity first. ``registers`` lists every
    (label, kind) pair the channel acts on over all its slots, in
    register order. ``link`` marks an inter-cavity channel, ``duration``
    is the dwell window (zero for a link), and ``metadata`` carries the
    per-slot registers under ``"slots"``; a bath channel also carries
    each slot's environment registers in `_copy_ops` order under
    ``"supports"`` and its compiled copy's key under ``"recipe"``.
    """

    backend: str
    link: bool
    l0: complex | np.ndarray
    l1: complex | np.ndarray
    la: complex | np.ndarray
    env_labels: tuple
    registers: tuple
    duration: float
    metadata: dict

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        labels = tuple(self.env_labels)
        if self.backend == "analytic":
            if labels:
                raise ValueError("analytic channels have no environment registers")
            l0, l1, la = (complex(x) for x in (self.l0, self.l1, self.la))
            if max(abs(l0), abs(l1), abs(la)) > 1.0 + 1e-12:
                raise ValueError("environment scalars cannot exceed unit modulus")
            if not (la.imag == 0.0 and la.real >= 0.0):
                raise ValueError("loss scalars are real and nonnegative")
            if abs(l1) ** 2 + abs(la) ** 2 > 1.0 + 1e-12:
                raise ValueError("copy channel would increase the trace")
        else:
            d = 2 ** len(labels)
            l0, l1, la = (
                np.asarray(x, dtype=np.complex128) for x in (self.l0, self.l1, self.la)
            )
            if any(m.shape != (d, d) for m in (l0, l1, la)):
                raise ValueError(f"environment matrix must be {d}x{d}")
        if self.duration < 0.0:
            raise ValueError("dwell duration must be nonnegative")
        for name, value in (("env_labels", labels), ("l0", l0), ("l1", l1), ("la", la)):
            object.__setattr__(self, name, value)


def default_loss_bath(eta, p_therm=0.0) -> BathSpec:
    """Single resonant mode tuned so one dwell window loses probability eta.

    The photon exchanges with the mode at rate G for the dwell window, so
    the leaked weight is sin^2(G * DWELL) exactly and G = arcsin(sqrt(eta))
    / DWELL inverts it in closed form.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    return BathSpec((float(np.arcsin(np.sqrt(eta)) / DWELL),), (0.0,), p_therm)


def loss_bath(noise: NoiseConfig) -> BathSpec:
    """The modes one bath-backend dwell window leaks into.

    The explicit bath at the configured occupation when one is given,
    else a single resonant mode tuned to lose eta_local per window.
    """
    if noise.bath is not None:
        return replace(noise.bath, p_therm=noise.p_therm)
    return default_loss_bath(noise.eta_local, noise.p_therm)


def _checked_slots(slots) -> tuple:
    slots = tuple(slots)
    if not slots:
        raise ValueError("copy channels need at least one slot: a flag or mode set")
    return slots


def _flag_channel(link, l0, l1, la, duration, slots) -> CopyChannel:
    """An analytic channel with one flag register per slot."""
    slots = _checked_slots(slots)
    registers = tuple((s, "bathmode") for s in slots)
    meta = {"slots": slots}
    return CopyChannel("analytic", link, l0, l1, la, (), registers, duration, meta)


def _analytic_channel(noise: NoiseConfig, slots, eta, link, duration):
    """c-number copy for one two-pulse transfer losing probability eta.

    The target spends one full pulse window parked in the transfer level,
    giving the survive branch the detuning phase exp(-i delta pi / g) at
    g = PULSE_RATE; the copy branch collects the same phase from its two
    transfer halves plus the area-error amplitude per pulse. The drive
    phase offset cancels between emission and absorption and never
    appears.
    """
    survive = np.exp(-1j * noise.delta * (np.pi / PULSE_RATE))
    area = np.cos(np.pi * noise.pulse_area_error / 2.0) ** 2
    copy = area * survive * np.sqrt(1.0 - eta)
    loss = np.sqrt(max(0.0, 1.0 - abs(copy) ** 2))
    return _flag_channel(link, survive, copy, loss, duration, slots)


_ATOMS = [("_src", "atom"), ("_tgt", "atom")]


def _local_env(cavity, modes) -> list:
    return [(cavity, "cavity")] + [(m, "bathmode") for m in modes]


def _copy_ops(recipe) -> list:
    """One bath copy's pulse sequence as operators on fixed registers:
    ``_src``, ``_tgt``, then cavity ``c`` and modes ``m0``... for a local
    recipe ("local", couplings, detunings, phase_offset, dwell), cavities
    ``cs``, ``ct`` and link ``l`` for a link recipe ("link", eta,
    phase_offset). Arm the target, emit, carry the photon (dwell, or split
    it into the link and swap the rest into the target cavity), reabsorb,
    restore the source; callers then run the non-unitary source repump.
    """
    kind, *params = recipe
    if kind == "local":
        couplings, detunings, phase_offset, dwell = params
        modes = tuple(f"m{k}" for k in range(len(couplings)))
        spec = SubsystemSpec(_ATOMS + _local_env("c", modes))
        emit = absorb = "c"
        carry = []
        if dwell > 0.0:
            h = bath_hamiltonian(spec, BathSpec(couplings, detunings), "c", modes)
            carry.append(cached_propagator(spec, h, dwell))
    else:
        eta, phase_offset = params
        spec = SubsystemSpec(
            _ATOMS + [("cs", "cavity"), ("ct", "cavity"), ("l", "bathmode")]
        )
        emit, absorb = "cs", "ct"
        c, s = np.sqrt(1.0 - eta), np.sqrt(eta)
        # the occupied-occupied completion picks up a sign so the split
        # stays unitary on the full hard-core space; no protocol reaches it
        split = [[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, -1]]
        swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        carry = [LinearOp(spec, ("cs", "l"), split)]
        carry.append(LinearOp(spec, ("cs", "ct"), swap))
    arm = single_atom_operator(spec, "_tgt", "exchange_0r")
    return [
        arm,
        transfer_op(spec, "_src", emit, PULSE_RATE, phase_offset),
        *carry,
        transfer_op(spec, "_tgt", absorb, PULSE_RATE, phase_offset),
        single_atom_operator(spec, "_src", "exchange_1r"),
        arm,
    ]


def _env_blocks(ops):
    """Column-by-column environment blocks (l0, l1, la) of a copy, read-only.

    Pushes source levels 0 and 1 with an empty target and every
    environment basis state through ``ops`` and the source repump, one
    `apply` per step, and reads the amplitudes that stay in each atomic
    block: (0,0) for survive_0, (1,1) for survive_1, (1,0) for loss.
    """
    spec = ops[0].spec
    env_labels = spec.labels[2:]
    d = 2 ** len(env_labels)

    def run(src, levels):
        s = make_state(spec, {"_src": src, "_tgt": 0, **levels})
        for op in ops:
            s = apply(op, s)
        return optical_pump_r_to_1(s, "_src").tensor().reshape(3, 3, d)

    l0, l1, la = (np.zeros((d, d), dtype=complex) for _ in range(3))
    for col, occ in enumerate(itertools.product((0, 1), repeat=len(env_labels))):
        levels = dict(zip(env_labels, occ))
        out0, out1 = (run(src, levels) for src in (0, 1))
        l0[:, col] = out0[0, 0]
        l1[:, col] = out1[1, 1]
        la[:, col] = out1[1, 0]
        if not any(occ):
            # vacuum environment: the copy must terminate in exactly the
            # two advertised atomic branches
            stray0 = np.abs(out0).sum() - np.abs(out0[0, 0]).sum()
            stray1 = (
                np.abs(out1).sum()
                - np.abs(out1[1, 1]).sum()
                - np.abs(out1[1, 0]).sum()
            )
            if stray0 > CHANNEL_DOMAIN_TOL or stray1 > CHANNEL_DOMAIN_TOL:
                raise AssertionError("copy wrapper left stray atomic amplitude")
    for block in (l0, l1, la):
        block.setflags(write=False)
    return l0, l1, la


class _Compiled:
    """A recipe's operators (see `_copy_ops`), environment blocks and, from
    first use, folded unitary. `_compiled` builds one per recipe, which
    holds no register name and no p_therm, so such channels share it."""

    def __init__(self, recipe):
        self.ops = _copy_ops(recipe)
        self.blocks = _env_blocks(self.ops)

    @cached_property
    def unitary(self) -> np.ndarray:
        return fold(self.ops)


_compiled = lru_cache(maxsize=8)(_Compiled)


def make_local_channel(noise: NoiseConfig, cavity, slots) -> CopyChannel:
    """Build a same-cavity copy channel from a noise configuration.

    ``cavity`` is the cavity the two atoms share and ``slots`` holds one
    name per use. On the analytic backend each slot name is a flag
    register. On the bath backend each slot dwells against fresh modes of
    `loss_bath`, so a photon lost in one slot is never recaptured in a
    later one: a one-mode bath names slot ``s``'s mode ``s``, an n-mode
    bath names them ``{s}m0`` to ``{s}m{n-1}``.
    """
    if noise.backend == "analytic":
        return _analytic_channel(noise, slots, noise.eta_local, False, DWELL)

    bath = loss_bath(noise)
    n = bath.n_modes
    slot_modes = tuple(
        (s,) if n == 1 else tuple(f"{s}m{k}" for k in range(n))
        for s in _checked_slots(slots)
    )
    recipe = ("local", bath.couplings, bath.detunings, noise.phase_offset, DWELL)
    l0, l1, la = _compiled(recipe).blocks
    vac_copy = l1[0, 0]
    if noise.bath is None and abs(vac_copy - np.sqrt(1.0 - noise.eta_local)) > 1e-12:
        raise AssertionError(
            "tuned bath disagrees with its closed-form survival amplitude"
        )
    meta = {
        "slots": slot_modes,
        "supports": tuple((cavity,) + modes for modes in slot_modes),
        "recipe": recipe,
        "bath": bath,
        "vacuum_survival": complex(vac_copy),
    }
    registers = tuple(_local_env(cavity, sum(slot_modes, ())))
    return CopyChannel(
        "bath", False, l0, l1, la, meta["supports"][0], registers, DWELL, meta
    )


def make_transmission_channel(noise: NoiseConfig, cavities, slots) -> CopyChannel:
    """Build an inter-cavity copy channel from a noise configuration.

    ``cavities`` is the (source, target) cavity pair and ``slots`` holds
    one name per use. On the analytic backend each slot name is a flag
    register; on the bath backend it is the link register that slot's
    lost photon ends up in.
    """
    if isinstance(cavities, str) or len(cavities) != 2 or cavities[0] == cavities[1]:
        raise ValueError(
            f"cavities must be two distinct cavity labels, got {cavities!r}"
        )
    eta = noise.eta_trans
    if noise.backend == "analytic":
        return _analytic_channel(noise, slots, eta, True, 0.0)

    slots = _checked_slots(slots)
    source, target = cavities
    cavity_env = [(source, "cavity"), (target, "cavity")]
    recipe = ("link", eta, noise.phase_offset)
    l0, l1, la = _compiled(recipe).blocks
    if abs(l1[0, 0] - np.sqrt(1.0 - eta)) > 1e-12:
        raise AssertionError(
            "link transmission disagrees with its closed-form survival amplitude"
        )
    supports = tuple((source, target, s) for s in slots)
    meta = {"slots": slots, "supports": supports, "recipe": recipe}
    registers = tuple(cavity_env + [(s, "bathmode") for s in slots])
    return CopyChannel("bath", True, l0, l1, la, supports[0], registers, 0.0, meta)


def _loss_norm(ch: CopyChannel) -> float:
    """Largest loss amplification over environment states."""
    if ch.backend == "analytic":
        return abs(ch.la)
    return float(np.linalg.norm(ch.la, 2))


def validate_channel_pair(local: CopyChannel, trans: CopyChannel):
    """Loss hierarchy sanity check: the link must lose more than the cavity.

    Skipped for lossless local channels, where both norms vanish.
    """
    la = _loss_norm(local)
    ta = _loss_norm(trans)
    if la > 1e-15 and ta <= la:
        raise ValueError(
            "transmission loss must dominate local channel loss; "
            f"got ||Ta|| = {ta:.6g} <= ||La|| = {la:.6g}"
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


def _copy_apply(s: StateVector, ch: CopyChannel, atoms, slot):
    """Domain check, slot lookup and backend step of either apply.

    Analytic channels burn one flag per slot; bath channels act on that
    slot's fresh mode set or link register, so a photon lost in an
    earlier window can never be recaptured by a later one. A bath copy is
    its recipe's folded unitary on the atoms and the slot's registers,
    then the source repump.
    """
    src, tgt = atoms
    analytic = ch.backend == "analytic"
    _assert_channel_domain(s, src, tgt, scalar_map=analytic)
    m = ch.metadata
    if not 0 <= slot < len(m["slots"]):
        raise ValueError(f"{ch.backend} channel has no register for slot {slot}")
    if not analytic:
        support = m["supports"][slot]
        kinds = dict(ch.registers)
        for label in support:
            if s.spec.kind(label) != kinds[label]:
                raise ValueError(f"{label!r} is not a {kinds[label]}")
        u = _compiled(m["recipe"]).unitary
        s = apply(LinearOp(s.spec, (src, tgt) + support, u), s)
        return optical_pump_r_to_1(s, src)
    reg = m["slots"][slot]
    # amplitude surgery: source |0> components scale by the survive
    # c-number whether the target is fresh or parked; source |1>
    # components split into the copy branch and the flagged loss branch
    if s.spec.kind(reg) != "bathmode":
        raise ValueError(f"{reg!r} is not a flag register")
    moved = labels_first(s, (src, tgt, reg))
    if np.abs(moved[:, :, 1]).max(initial=0.0) > CHANNEL_DOMAIN_TOL:
        raise ValueError(f"loss flag {reg!r} is already set")
    out = np.zeros_like(moved)
    out[0, 0, 0] = ch.l0 * moved[0, 0, 0]
    out[0, 2, 0] = ch.l0 * moved[0, 2, 0]
    out[1, 1, 0] = ch.l1 * moved[1, 0, 0]
    out[1, 0, 1] = ch.la * moved[1, 0, 0]
    return from_labels_first(s.spec, (src, tgt, reg), out)


def local_channel_apply(s: StateVector, ch: CopyChannel, atoms, slot=0):
    """Send one qubit through a local copy channel.

    ``atoms`` is (source, target); ``slot`` picks the loss register for
    this use.
    """
    return _copy_apply(s, ch, atoms, slot)


def transmission_apply(s: StateVector, ch: CopyChannel, atoms, slot=0):
    """Send one qubit through an inter-cavity transmission channel."""
    return _copy_apply(s, ch, atoms, slot)


def analytic_from_bath(ch: CopyChannel, slots) -> CopyChannel:
    """Analytic twin of a bath channel, read off its vacuum columns.

    The survive amplitudes come straight from the vacuum-to-vacuum matrix
    elements; the loss scalar is the norm of the loss branch's vacuum
    column, which lands on a flag register per slot instead of the
    explicit modes.
    """
    if ch.backend != "bath":
        raise ValueError("expected a bath-backend channel")
    copy = complex(ch.l1[0, 0])
    lost = float(np.linalg.norm(ch.la[:, 0]))
    if abs(abs(copy) ** 2 + lost**2 - 1.0) > 1e-12:
        raise AssertionError("vacuum columns do not close the trace")
    return _flag_channel(
        ch.link, complex(ch.l0[0, 0]), copy, lost, ch.duration, slots
    )


def _finite_pair(values, name) -> tuple:
    """Two values that `finite_float` accepts, as floats."""
    try:
        pair = tuple(finite_float(v, name) for v in values)
    except TypeError:
        pair = ()
    if len(pair) != 2:
        raise ValueError(f"{name} must hold two finite values")
    return pair


def check_stationarity(ch, durations=None, start_times=None):
    """Deviation from slot-order independence of the environment couplings.

    Applies the survive and copy environment operators in both orders
    (optionally with different slot durations and free environment
    evolution across the gap set by ``start_times``) and returns the RMS
    difference over the thermal occupation ensemble of the modes, at the
    occupation the channel's own bath carries. Exactly zero for c-number
    environments and for any vacuum bath with equal durations; thermal
    occupation breaks it. Both timing pairs are validated on every
    backend: finite, nonnegative durations and slots that do not overlap.
    A link channel has no dwell window, so it takes no timing at all.
    """
    if not isinstance(ch, CopyChannel):
        raise TypeError("expected a CopyChannel")
    if ch.link and (durations is not None or start_times is not None):
        raise ValueError("slot timing does not apply to a link channel")
    d1, d2 = (
        (ch.duration, ch.duration)
        if durations is None
        else _finite_pair(durations, "durations")
    )
    if d1 < 0.0 or d2 < 0.0:
        raise ValueError("durations must be nonnegative")
    gap = 0.0
    if start_times is not None:
        t1, t2 = _finite_pair(start_times, "start_times")
        gap = t2 - t1 - d1
        if gap < 0.0:
            raise ValueError("slots overlap: second start precedes first end")
    if ch.backend == "analytic":
        return float(abs(ch.l1 * ch.l0 - ch.l0 * ch.l1))

    m = ch.metadata
    gap_u = np.eye(ch.l0.shape[0])
    n, p = 0, 0.0
    if not ch.link:
        cavity, modes = ch.env_labels[0], ch.env_labels[1:]
        bath = m["bath"]
        n, p = bath.n_modes, bath.p_therm
        if gap > 0.0:
            env_spec = SubsystemSpec(_local_env(cavity, modes))
            h = bath_hamiltonian(env_spec, bath, cavity, modes)
            gap_u = propagator(env_spec, h, gap).dense()
    # (l0, l1) of the first and the second slot
    first, second = (
        (ch.l0, ch.l1)
        if d == ch.duration
        else _compiled(m["recipe"][:-1] + (d,)).blocks[:2]
        for d in (d1, d2)
    )
    forward = second[1] @ gap_u @ first[0]
    backward = second[0] @ gap_u @ first[1]
    diff = forward - backward
    total = 0.0
    for occ in itertools.product((0, 1), repeat=n):
        weight = 1.0
        for o in occ:
            weight *= p if o else 1.0 - p
        if weight == 0.0:
            continue
        col = int(np.ravel_multi_index((0,) + occ, (2,) * (n + 1)))
        total += weight * float(np.linalg.norm(diff[:, col]) ** 2)
    return float(np.sqrt(total))
