"""Hamiltonians and exact time evolution for pulsed atom-cavity registers.

The only drive in the model is a cavity-assisted two-photon pulse: it swaps
an atom's |1> against |r> while toggling one photon in the atom's cavity.
A resonant pulse of duration pi/g maps |1, empty> to -i |r, occupied> and
back. The |0> level never couples to anything, and a pulse on an atom whose
cavity is already occupied does nothing (the hard-core mode has nowhere to
put a second photon).

Every protocol is built from one step, `transfer`: a resonant pi pulse on
one atom. Cavity photons leak into explicit hard-core bath modes only while
they wait in the cavity between two transfers; `bath_hamiltonian` builds
that coupling, and a dwell window is `evolve` under it.

Idealized local operations on single atoms (state exchanges, a 0-1 Hadamard,
a phase flip, incoherent-free repumping of |r> into |1>) are provided as
exact matrices; protocols treat them as free and noiseless.

Heralded protocols replay the same pulse sequence on every trial, so each
Hamiltonian, propagator and single-atom operator is built once per process
and then reused. The builders' caches are bounded ``lru_cache`` tables keyed
on the hashable inputs that fully determine the operator, so one recipe
yields one object, and the propagator cache is keyed on that object (see
`evolve`). A cached object is exactly what a fresh build would return, so
a cache changes no result: a step applied to a state, or a sequence
folded from these operators, is bit for bit what an uncached build gives.
"""

from __future__ import annotations

import math
import numbers
import sys
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
)

# Pumping refuses to merge coherent amplitudes above this size.
PUMP_COEXISTENCE_TOL = 1e-12
# Thermal initialization keeps at most one excitation; the weight it drops
# must stay below this fraction.
THERMAL_DROP_TOL = 1e-3


def finite_float(value, name) -> float:
    """``value`` as a float; ValueError unless it is a finite real number,
    which a bool, a string or an integer too large for a float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number")
    if not abs(value) <= sys.float_info.max:  # also false for NaN
        raise ValueError(f"{name} must be finite")
    return float(value)


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
        for name in ("couplings", "detunings"):
            values = tuple(finite_float(v, f"bath {name}") for v in getattr(self, name))
            object.__setattr__(self, name, values)
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
    weights renormalized over what is kept. Returns (configs, weights)
    where configs are occupation tuples. The multi-excitation weight that
    is cut must stay below THERMAL_DROP_TOL or the truncation is refused.
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
    return configs, [w / kept for w in weights]


@lru_cache(maxsize=128)
def raman_hamiltonian(
    spec: SubsystemSpec, atom: str, cavity: str, g: float, phase: float = 0.0
) -> LinearOp:
    """Drive Hamiltonian on (atom, cavity) at rate g and drive phase phase.

    (g/2) e^{i phase} |1><r| (x) annihilate + h.c. The photon-absorbing
    element carries e^{+i phase}, so the emission amplitude
    |1, empty> -> |r, occupied> goes as e^{-i phase}; survival amplitudes
    are phase independent. Built once per (spec, atom, cavity, g, phase)
    and shared.
    """
    if spec.kind(atom) != "atom":
        raise ValueError(f"{atom!r} is not an atom")
    if spec.kind(cavity) != "cavity":
        raise ValueError(f"{cavity!r} is not a cavity")
    if g < 0.0:
        raise ValueError("coupling rate g must be nonnegative")
    if not (math.isfinite(g) and math.isfinite(phase)):
        raise ValueError("coupling parameters must be finite")
    half = 0.5 * g * np.exp(1j * phase)
    # support (atom, cavity), dims (3, 2), row-major: index = 2*level + photon
    h = np.zeros((6, 6), dtype=complex)
    h[2 * LEVEL_1 + 0, 2 * LEVEL_R + 1] = half
    h[2 * LEVEL_R + 1, 2 * LEVEL_1 + 0] = np.conj(half)
    return LinearOp(spec, (atom, cavity), h)


def bath_hamiltonian(
    spec: SubsystemSpec, bath: BathSpec, cavity: str, modes
) -> LinearOp:
    """Photon-exchange coupling of one cavity to its bath modes.

    sum_k G_k (raise_k (x) lower_cav + h.c.) + sum_k Delta_k count_k, with
    mode k of ``bath`` on label ``modes[k]``. Both sides are hard-core, so
    a photon cannot leak into an occupied mode and an excited mode cannot
    emit into an occupied cavity. Built once per (spec, couplings,
    detunings, cavity, modes) and shared; the thermal occupation of the
    bath does not enter the Hamiltonian.
    """
    return _bath_hamiltonian(
        spec, bath.couplings, bath.detunings, cavity, tuple(modes)
    )


@lru_cache(maxsize=128)
def _bath_hamiltonian(spec, couplings, detunings, cavity, modes) -> LinearOp:
    if spec.kind(cavity) != "cavity":
        raise ValueError(f"{cavity!r} is not a cavity")
    for l in modes:
        if spec.kind(l) != "bathmode":
            raise ValueError(f"{l!r} is not a bath mode")
    n_modes = len(couplings)
    if len(modes) != n_modes:
        raise ValueError(
            f"bath has {n_modes} modes but {len(modes)} labels given"
        )
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    raise_ = lower.T.conj()
    count = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    support = (cavity,) + modes
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
    return LinearOp(spec, support, h)


def propagator(spec: SubsystemSpec, hamiltonian: LinearOp, duration: float) -> LinearOp:
    """exp(-i H t) on the Hamiltonian's support, by exact diagonalization."""
    if not hamiltonian.is_hermitian():
        raise ValueError("Hamiltonian is not Hermitian")
    h = hamiltonian.dense()
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * duration)) @ v.conj().T
    return LinearOp(spec, hamiltonian.support, u)


@lru_cache(maxsize=256)
def cached_propagator(spec, hamiltonian: LinearOp, duration) -> LinearOp:
    """`propagator`, built once per (spec, Hamiltonian, duration) and shared
    (see `evolve`)."""
    return propagator(spec, hamiltonian, duration)


def evolve(state: StateVector, hamiltonian: LinearOp, duration: float) -> StateVector:
    """Evolve a state under a time-independent Hamiltonian.

    Each (spec, Hamiltonian, duration) is diagonalized once and reused. The
    key is the operator object itself: operators are read-only, the
    builders return one object per recipe, and the cache keeps the object
    alive, so a key never stands for two different Hamiltonians.
    """
    return apply(cached_propagator(state.spec, hamiltonian, duration), state)


def transfer_op(spec, atom, cavity, g, phase=0.0) -> LinearOp:
    """`transfer` as a shared operator (see `evolve`), for operator
    sequences that `cavityq.hilbert.fold` turns into one unitary."""
    if g <= 0.0:
        raise ValueError(f"pi time undefined for g = {g}")
    h = raman_hamiltonian(spec, atom, cavity, g, phase)
    return cached_propagator(spec, h, float(np.pi / g))


def transfer(state: StateVector, atom: str, cavity, g: float, phase=0.0) -> StateVector:
    """Resonant pi pulse on one atom: one full cavity-assisted transfer.

    Maps |1, empty> to -i e^{-i phase} |r, occupied> and |r, occupied> to
    -i e^{+i phase} |1, empty>; every other configuration of the atom and
    its cavity is left alone. The pulse lasts pi/g and is exact: no bath
    acts during it.
    """
    return apply(transfer_op(state.spec, atom, cavity, g, phase), state)


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
    """Apply a named idealized local unitary (see `single_atom_operator`)."""
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
    """Conserved charge of the pulsed dynamics, diagonal on the whole spec.

    Counts photons, bath excitations, and atoms sitting in |1>. Every drive
    and bath coupling commutes with it; the idealized single-atom ops do
    not (they relabel levels for free). The matrix spans the full product
    space, so it suits small registers only.
    """
    counts = np.zeros(1)
    for s in spec.subsystems:
        level = [0.0, 1.0, 0.0] if s.kind == "atom" else [0.0, 1.0]
        counts = np.add.outer(counts, level).reshape(-1)
    return LinearOp(spec, spec.labels, np.diag(counts))
