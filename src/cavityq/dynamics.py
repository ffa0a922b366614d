"""Hamiltonians and exact time evolution for pulsed atom-cavity registers.

The only drive in the model is a cavity-assisted two-photon pulse: it swaps
an atom's |1> against |r> while toggling one photon in the atom's cavity.
A resonant pulse of duration pi/g maps |1, empty> to -i |r, occupied> and
back. The |0> level never couples to anything, and a pulse on an atom whose
cavity is already occupied does nothing (the hard-core mode has nowhere to
put a second photon).

Cavity photons may additionally leak into explicit hard-core bath modes
while pulses run; `bath_hamiltonian` builds that coupling and `run_pulses`
keeps it on concurrently.

Idealized local operations on single atoms (state exchanges, a 0-1 Hadamard,
a phase flip, incoherent-free repumping of |r> into |1>) are provided as
exact matrices; protocols treat them as free and noiseless.

Heralded protocols replay the same pulse sequence on every trial, so each
Hamiltonian, propagator and single-atom operator is built once per process
and then reused. The caches are bounded ``lru_cache`` tables keyed on the
hashable inputs that fully determine the object (spec, coupling, bath
couplings and detunings, labels, duration), never on object identity or
array contents. A cached object is exactly what a fresh build would
return, and every state-level step and guard still runs on every use, so
results are bit for bit those of an uncached run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    LEVEL_1,
    LEVEL_R,
    LinearOp,
    StateVector,
    SubsystemSpec,
    apply,
    from_labels_first,
    labels_first,
    op_sum,
)

# Pumping refuses to merge coherent amplitudes above this size.
PUMP_COEXISTENCE_TOL = 1e-12
# Thermal initialization keeps at most one excitation; the weight it drops
# must stay below this fraction.
THERMAL_DROP_TOL = 1e-3


@dataclass(frozen=True)
class RamanCoupling:
    """Drive parameters for one atom's cavity-assisted 1-r transfer.

    Parameters
    ----------
    g : float
        Effective transfer rate; a resonant pulse lasting pi/g is a full
        swap.
    phase : float
        Drive phase. Transfer amplitudes pick up exp(+-i phase); survival
        amplitudes are phase independent.
    detuning : float
        Energy offset of |r> while this drive is on. Nonzero detuning slows
        the transfer and leaves residual population behind.
    """

    g: float
    phase: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if self.g < 0.0:
            raise ValueError("coupling rate g must be nonnegative")
        if not all(map(math.isfinite, (self.g, self.phase, self.detuning))):
            raise ValueError("coupling parameters must be finite")

    @property
    def pi_duration(self) -> float:
        if self.g == 0.0:
            raise ValueError("pi time undefined for g = 0")
        return float(np.pi / self.g)


@dataclass(frozen=True)
class Pulse:
    """One timed drive on one atom.

    ``duration=None`` means the full pi time of the coupling. ``cavity``
    may stay ``None`` when the spec has a single cavity.
    """

    atom: str
    coupling: RamanCoupling
    duration: float | None = None
    cavity: str | None = None

    @property
    def resolved_duration(self) -> float:
        if self.duration is not None:
            return self.duration
        return self.coupling.pi_duration


def pi_pulse(atom, g=1.0, phase=0.0, detuning=0.0, cavity=None) -> Pulse:
    """Full-transfer pulse: duration pinned to pi/g."""
    return Pulse(atom, RamanCoupling(g, phase, detuning), None, cavity)


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulse sequence with a fixed idle gap between neighbours."""

    pulses: tuple
    idle: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        for p in self.pulses:
            if not isinstance(p, Pulse):
                raise TypeError("schedule entries must be Pulse instances")
            if p.resolved_duration <= 0.0:
                raise ValueError("pulse durations must be positive")
        if self.idle < 0.0:
            raise ValueError("idle gap must be nonnegative")


@dataclass(frozen=True)
class BathSpec:
    """Explicit leakage environment: hard-core modes coupled to a cavity.

    Parameters
    ----------
    couplings : tuple of float
        Exchange rate of each mode with the cavity photon.
    detunings : tuple of float
        Energy offset of each mode relative to the cavity.
    p_therm : float
        Probability that a mode starts excited instead of empty.
    """

    couplings: tuple
    detunings: tuple
    p_therm: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(c) for c in self.couplings))
        object.__setattr__(self, "detunings", tuple(float(d) for d in self.detunings))
        if len(self.couplings) != len(self.detunings):
            raise ValueError("couplings and detunings lengths differ")
        if not 0 <= len(self.couplings) <= 6:
            raise ValueError("bath size must be between 0 and 6 modes")
        if not 0.0 <= self.p_therm < 1.0:
            raise ValueError("p_therm must lie in [0, 1)")

    @property
    def n_modes(self) -> int:
        return len(self.couplings)


def thermal_configurations(bath: BathSpec):
    """Initial bath occupation branches, truncated to one excitation.

    Each mode starts excited independently with probability p_therm; the
    kept branches are the vacuum and the single-excitation patterns, with
    weights renormalized over what is kept. Returns (configs, weights,
    dropped) where configs are occupation tuples and dropped is the
    multi-excitation weight that was cut; it must stay below
    THERMAL_DROP_TOL or the truncation is refused.
    """
    p = bath.p_therm
    k = bath.n_modes
    configs = [(0,) * k]
    weights = [(1.0 - p) ** k]
    for i in range(k):
        occ = [0] * k
        occ[i] = 1
        configs.append(tuple(occ))
        weights.append(p * (1.0 - p) ** (k - 1))
    kept = sum(weights)
    dropped = 1.0 - kept
    if dropped >= THERMAL_DROP_TOL:
        raise ValueError(
            f"thermal truncation would drop weight {dropped:.3g}; "
            "lower p_therm or the mode count"
        )
    weights = [w / kept for w in weights]
    return configs, weights, float(dropped)


def _resolve_cavity(spec: SubsystemSpec, cavity) -> str:
    if cavity is not None:
        if spec.kind(cavity) != "cavity":
            raise ValueError(f"{cavity!r} is not a cavity")
        return cavity
    cavities = [s.label for s in spec.subsystems if s.kind == "cavity"]
    if len(cavities) != 1:
        raise ValueError(
            f"spec has {len(cavities)} cavities; pass cavity= explicitly"
        )
    return cavities[0]


@lru_cache(maxsize=128)
def raman_hamiltonian(
    spec: SubsystemSpec, atom: str, coupling: RamanCoupling, cavity=None
) -> LinearOp:
    """Drive Hamiltonian on (atom, cavity).

    (g/2) e^{i phase} |1><r| (x) annihilate + h.c. + detuning |r><r| (x)
    identity. The photon-absorbing element carries e^{+i phase}, so the
    emission amplitude |1, empty> -> |r, occupied> goes as e^{-i phase}.
    The detuning term acts whenever this drive is on, including on the
    photon-free |r> configuration. Built once per (spec, atom, coupling,
    cavity) and shared.
    """
    if spec.kind(atom) != "atom":
        raise ValueError(f"{atom!r} is not an atom")
    cavity = _resolve_cavity(spec, cavity)
    half = 0.5 * coupling.g * np.exp(1j * coupling.phase)
    # support (atom, cavity), dims (3, 2), row-major: index = 2*level + photon
    h = np.zeros((6, 6), dtype=complex)
    h[2 * LEVEL_1 + 0, 2 * LEVEL_R + 1] = half
    h[2 * LEVEL_R + 1, 2 * LEVEL_1 + 0] = np.conj(half)
    h[2 * LEVEL_R + 0, 2 * LEVEL_R + 0] = coupling.detuning
    h[2 * LEVEL_R + 1, 2 * LEVEL_R + 1] = coupling.detuning
    key = ("raman", spec, atom, coupling, cavity)
    return LinearOp(spec, (atom, cavity), h, key)


def bath_hamiltonian(
    spec: SubsystemSpec, bath: BathSpec, cavity=None, bath_labels=None
) -> LinearOp:
    """Photon-exchange coupling of one cavity to its bath modes.

    sum_k G_k (raise_k (x) lower_cav + h.c.) + sum_k Delta_k count_k.
    Both sides are hard-core, so a photon cannot leak into an occupied mode
    and an excited mode cannot emit into an occupied cavity. Built once per
    (spec, couplings, detunings, cavity, labels) and shared; the thermal
    occupation of the bath does not enter the Hamiltonian.
    """
    cavity = _resolve_cavity(spec, cavity)
    if bath_labels is None:
        bath_labels = [s.label for s in spec.subsystems if s.kind == "bathmode"]
    return _bath_hamiltonian(
        spec, bath.couplings, bath.detunings, cavity, tuple(bath_labels)
    )


@lru_cache(maxsize=128)
def _bath_hamiltonian(spec, couplings, detunings, cavity, bath_labels) -> LinearOp:
    for l in bath_labels:
        if spec.kind(l) != "bathmode":
            raise ValueError(f"{l!r} is not a bath mode")
    n_modes = len(couplings)
    if len(bath_labels) != n_modes:
        raise ValueError(
            f"bath has {n_modes} modes but {len(bath_labels)} labels given"
        )
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    raise_ = lower.T.conj()
    count = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    support = (cavity,) + bath_labels
    n = len(support)
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)

    def chain(mats):
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    for k in range(n_modes):
        mats = [lower] + [raise_ if j == k else eye for j in range(n_modes)]
        term = couplings[k] * chain(mats)
        h += term + term.T.conj()
        mats = [eye] + [count if j == k else eye for j in range(n_modes)]
        h += detunings[k] * chain(mats)
    key = ("bath", spec, couplings, detunings, cavity, bath_labels)
    return LinearOp(spec, support, h, key)


def propagator(spec: SubsystemSpec, hamiltonian: LinearOp, duration: float) -> LinearOp:
    """exp(-i H t) on the Hamiltonian's support, by exact diagonalization."""
    if not hamiltonian.is_hermitian():
        raise ValueError("Hamiltonian is not Hermitian")
    h = hamiltonian.dense()
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * duration)) @ v.conj().T
    return LinearOp(spec, hamiltonian.support, u)


class _ByRecipe:
    """Hashable stand-in for a keyed operator, equal when the keys are.

    It lets the propagator cache key on the recipe that built a
    Hamiltonian rather than on the operator object.
    """

    __slots__ = ("op",)

    def __init__(self, op: LinearOp):
        self.op = op

    def __hash__(self):
        return hash(self.op.key)

    def __eq__(self, other):
        return self.op.key == other.op.key


@lru_cache(maxsize=256)
def _cached_propagator(spec, recipe: _ByRecipe, duration) -> LinearOp:
    return propagator(spec, recipe.op, duration)


def evolve(state: StateVector, hamiltonian: LinearOp, duration: float) -> StateVector:
    """Evolve a state under a time-independent Hamiltonian.

    The propagator of a Hamiltonian built by `raman_hamiltonian`,
    `bath_hamiltonian` or `op_sum` of them is diagonalized once per
    (spec, Hamiltonian recipe, duration) and reused; a hand-built operator
    has no recipe to key on and is diagonalized on every call.
    """
    if hamiltonian.key is None:
        u = propagator(state.spec, hamiltonian, duration)
    else:
        u = _cached_propagator(state.spec, _ByRecipe(hamiltonian), duration)
    return apply(u, state)


def run_pulses(
    state, pulses, background=None, idle=0.0, bath=None, cavity=None, concurrent=True
) -> StateVector:
    """Evolve through a pulse sequence.

    ``pulses`` is a PulseSchedule or an iterable of Pulse (then ``idle``
    sets the gap). ``background`` is a Hamiltonian that stays on during
    every pulse and during the idle gaps between consecutive pulses;
    passing ``bath`` builds it from a BathSpec on ``cavity`` instead.
    With ``concurrent=False`` the background acts only during the idle
    gaps, so each pulse is an exact bare transfer and leakage is confined
    to the dwell windows between pulses.
    """
    if isinstance(pulses, PulseSchedule):
        idle = pulses.idle
        pulses = pulses.pulses
    if bath is not None:
        if background is not None:
            raise ValueError("pass either background or bath, not both")
        background = bath_hamiltonian(state.spec, bath, cavity)
    for i, pulse in enumerate(pulses):
        if i and idle > 0.0 and background is not None:
            state = evolve(state, background, idle)
        h = raman_hamiltonian(state.spec, pulse.atom, pulse.coupling, pulse.cavity)
        if background is not None and concurrent:
            h = op_sum([h, background])
        state = evolve(state, h, pulse.resolved_duration)
    return state


_SQ2 = 1.0 / np.sqrt(2.0)

# Column k holds the image of level k.
_SINGLE_ATOM_MATRICES = {
    "exchange_1r": np.array([[1, 0, 0], [0, 0, -1], [0, -1, 0]], dtype=complex),
    "exchange_0r": np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex),
    "not_01": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
    "hadamard_01": np.array(
        [[_SQ2, _SQ2, 0], [_SQ2, -_SQ2, 0], [0, 0, 1]], dtype=complex
    ),
    "phase_z": np.diag([1.0, -1.0, 1.0]).astype(complex),
}


@lru_cache(maxsize=128)
def single_atom_operator(spec: SubsystemSpec, atom: str, name: str) -> LinearOp:
    """Named idealized local unitary on one atom, as an operator.

    exchange_1r swaps |1> and |r> with a minus sign on both, exchange_0r
    swaps |0> and |r> with no sign, not_01 and hadamard_01 act on the 0-1
    qubit and leave |r> alone, phase_z flips the sign of |1>. Built once
    per (spec, atom, name) and shared.
    """
    if spec.kind(atom) != "atom":
        raise ValueError(f"{atom!r} is not an atom")
    try:
        m = _SINGLE_ATOM_MATRICES[name]
    except KeyError:
        raise ValueError(
            f"unknown single-atom op {name!r}; choose from "
            f"{tuple(sorted(_SINGLE_ATOM_MATRICES))}"
        ) from None
    return LinearOp(spec, (atom,), m)


def single_atom_op(state: StateVector, atom: str, kind: str) -> StateVector:
    """Apply a named idealized local operation to a state.

    Accepts every unitary kind of `single_atom_operator` plus the
    non-unitary relabeling kind ``optical_pump_r_to_1``.
    """
    if kind == "optical_pump_r_to_1":
        return optical_pump_r_to_1(state, atom)
    return apply(single_atom_operator(state.spec, atom, kind), state)


def optical_pump_r_to_1(state: StateVector, atom: str) -> StateVector:
    """Relabel an atom's |r> amplitude as |1>.

    Valid only when no configuration of the remaining subsystems carries
    both a |1> and an |r> amplitude on this atom: the pump is a relabeling
    of orthogonal branches, never a merge of coherent ones. That condition
    holds by construction in the protocols (the resolved branches differ in
    their environment records) and is asserted here.
    """
    spec = state.spec
    if spec.kind(atom) != "atom":
        raise ValueError(f"{atom!r} is not an atom")
    moved = labels_first(state, (atom,)).copy()
    clash = (np.abs(moved[LEVEL_1]) > PUMP_COEXISTENCE_TOL) & (
        np.abs(moved[LEVEL_R]) > PUMP_COEXISTENCE_TOL
    )
    if np.any(clash):
        raise ValueError(
            "optical pump would merge coherent |1> and |r> amplitudes"
        )
    moved[LEVEL_1] += moved[LEVEL_R]
    moved[LEVEL_R] = 0.0
    return from_labels_first(spec, (atom,), moved)


def excitation_number(spec: SubsystemSpec) -> LinearOp:
    """Conserved charge of the pulsed dynamics.

    Counts photons, bath excitations, and atoms sitting in |1>. Every drive
    and bath coupling commutes with it; the idealized single-atom ops do
    not (they relabel levels for free).
    """
    terms = []
    for s in spec.subsystems:
        if s.kind == "atom":
            m = np.diag([0.0, 1.0, 0.0])
        else:
            m = np.diag([0.0, 1.0])
        terms.append(LinearOp(spec, (s.label,), m))
    return op_sum(terms)
