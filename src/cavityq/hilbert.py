"""Labeled tensor-product state spaces and exact linear-algebra primitives.

Everything downstream (pulse dynamics, noise channels, protocols) runs on a
:class:`SubsystemSpec`: an ordered list of labeled subsystems, each one an
atom (three levels |0>, |1>, |r>), a cavity mode, or a bath mode (both
hard-core two-level). States are dense complex vectors over the full product
space. Subnormalized states are first class because the branch algebra keeps
loss branches around until they are measured away. Operators are dense
matrices on their support labels. This module alone knows how a state's
amplitudes are laid out as a tensor; other modules reach the amplitudes of
chosen labels through `labels_first` and `from_labels_first`, and append
registers to a state through `extend`.

Tolerance constants for the whole package live here so every module pins the
same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Exactness assertions (unitarity, golden amplitudes, conservation laws).
TOL_EXACT = 1e-12
# Hard cap on the total product dimension: this is a desk-scale simulator.
DIM_CAP = 65536

ATOM_DIM = 3
MODE_DIM = 2

# Atomic level indices. LEVEL_R is the transfer level addressed by the
# cavity-assisted pulses; LEVEL_0 never couples to anything.
LEVEL_0 = 0
LEVEL_1 = 1
LEVEL_R = 2

_KIND_DIMS = {"atom": ATOM_DIM, "cavity": MODE_DIM, "bathmode": MODE_DIM}


@dataclass(frozen=True)
class Subsystem:
    """One labeled register: an atom, a cavity mode, or a bath mode."""

    label: str
    kind: str

    def __post_init__(self):
        if self.kind not in _KIND_DIMS:
            raise ValueError(f"unknown subsystem kind {self.kind!r}")
        if not self.label or not isinstance(self.label, str):
            raise ValueError("subsystem label must be a non-empty string")

    @property
    def dim(self) -> int:
        return _KIND_DIMS[self.kind]


class SubsystemSpec:
    """Ordered collection of subsystems defining a product space.

    Parameters
    ----------
    entries : iterable of (label, kind) pairs or Subsystem objects
        Order fixes the tensor-factor order of state vectors.
    cap : int, optional
        Total-dimension budget; defaults to ``DIM_CAP``. Callers that know
        their register count statically may raise it.

    Raises
    ------
    ValueError
        On duplicate labels, unknown kinds, or a total dimension above
        the cap.
    """

    def __init__(self, entries, cap=DIM_CAP):
        subs = []
        for e in entries:
            if isinstance(e, Subsystem):
                subs.append(e)
            else:
                label, kind = e
                subs.append(Subsystem(label, kind))
        self._subs = tuple(subs)
        self._labels = tuple(s.label for s in self._subs)
        if len(set(self._labels)) != len(self._labels):
            raise ValueError("duplicate subsystem labels")
        self._dims = tuple(s.dim for s in self._subs)
        self._axis = {label: i for i, label in enumerate(self._labels)}
        total = 1
        for d in self._dims:
            total *= d
        if total > cap:
            raise ValueError(f"total dimension {total} exceeds cap {cap}")
        self._total = total
        # (label, kind) pairs decide equality; specs key every operator cache
        self._key = tuple((s.label, s.kind) for s in self._subs)
        self._hash = hash(self._key)

    @property
    def subsystems(self) -> tuple[Subsystem, ...]:
        return self._subs

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def total_dim(self) -> int:
        return self._total

    def axis(self, label: str) -> int:
        """Tensor-factor position of a label."""
        try:
            return self._axis[label]
        except KeyError:
            raise KeyError(f"no subsystem labeled {label!r}") from None

    def kind(self, label: str) -> str:
        return self._subs[self.axis(label)].kind

    def dim_of(self, label: str) -> int:
        return self._subs[self.axis(label)].dim

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SubsystemSpec) and self._key == other._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{s.label}:{s.kind}" for s in self._subs)
        return f"SubsystemSpec({inner})"


@dataclass(eq=False)
class StateVector:
    """Dense complex amplitudes over a spec's product space.

    The squared norm may be anywhere in [0, 1 + 1e-12]: branch algebra keeps
    subnormalized pieces. Anything above that, or non-finite entries, is a
    construction error. Two states are equal when their specs and
    amplitudes are.
    """

    spec: SubsystemSpec
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.spec.total_dim:
            raise ValueError(
                f"amplitude length {amps.size} does not match spec dimension "
                f"{self.spec.total_dim}"
            )
        n2 = float(np.vdot(amps, amps).real)
        # a NaN or infinite amplitude makes n2 NaN or inf, so finite states
        # never pay for the element-wise scan
        if not n2 <= 1.0 + 1e-12:
            if not np.all(np.isfinite(amps.view(np.float64))):
                raise ValueError("non-finite amplitude")
            raise ValueError(f"squared norm {n2} above 1 + 1e-12")
        self.amplitudes = amps

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.spec == other.spec and bool(
            np.array_equal(self.amplitudes, other.amplitudes)
        )

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (a view)."""
        return self.amplitudes.reshape(self.spec.dims)


def make_state(spec: SubsystemSpec, assignments: dict[str, int]) -> StateVector:
    """Computational basis state with every label assigned a level.

    Parameters
    ----------
    spec : SubsystemSpec
    assignments : dict
        Level index for every label in the spec. Atoms take 0, 1, 2
        (2 is |r>); modes take 0 or 1.
    """
    missing = set(spec.labels) - set(assignments)
    if missing:
        raise ValueError(f"assignments missing labels {sorted(missing)}")
    extra = set(assignments) - set(spec.labels)
    if extra:
        raise ValueError(f"assignments for unknown labels {sorted(extra)}")
    idx = []
    for s in spec.subsystems:
        level = assignments[s.label]
        if not 0 <= level < s.dim:
            raise ValueError(
                f"level {level} out of range for {s.label!r} (dim {s.dim})"
            )
        idx.append(level)
    amps = np.zeros(spec.total_dim, dtype=np.complex128)
    amps[int(np.ravel_multi_index(idx, spec.dims))] = 1.0
    return StateVector(spec, amps)


def superpose(terms) -> StateVector:
    """Linear combination of same-spec states: sum of coeff * state."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty superposition")
    spec = terms[0][1].spec
    amps = np.zeros(spec.total_dim, dtype=np.complex128)
    for coeff, state in terms:
        if state.spec != spec:
            raise ValueError("superpose requires a common spec")
        amps += complex(coeff) * state.amplitudes
    return StateVector(spec, amps)


class LinearOp:
    """Dense operator supported on a subset of subsystems.

    ``matrix`` is square over the support labels' dimensions in the listed
    order, row-major, and is stored read-only: a read-only array that owns
    its memory, such as a `fold`, is bound without a copy, and any other
    matrix is copied, so no operator aliases memory a caller can write.
    An operator is bound to its spec, so the axis permutation that brings
    its support together in a state tensor is worked out once, here.
    Operators are shared once cached, and `cavityq.dynamics` keys its
    propagator cache on the operator object, so nothing may change one
    in place.
    """

    def __init__(self, spec, support, matrix):
        self.spec = spec
        self.support = tuple(support)
        if len(set(self.support)) != len(self.support):
            raise ValueError("duplicate support labels")
        axes = [spec.axis(l) for l in self.support]
        dim = math.prod(spec.dims[a] for a in axes)
        self.support_dim = dim
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.flags.writeable or mat.base is not None:
            mat = mat.copy()
        if mat.shape != (dim, dim):
            raise ValueError(
                f"operator on {self.support} needs a {dim}x{dim} matrix, "
                f"got shape {mat.shape}"
            )
        mat.setflags(write=False)
        self._mat = mat
        # Move the support axes, in support order, to the first one's place:
        # a state tensor then reads as a (batch, support_dim, rest) block,
        # with no copy when the support is already adjacent and in order.
        first = min(axes)
        after = [a for a in range(first, len(spec.dims)) if a not in axes]
        self._perm = tuple(range(first)) + tuple(axes) + tuple(after)
        self._moves = self._perm != tuple(range(len(spec.dims)))
        self._block = (
            math.prod(spec.dims[:first]),
            dim,
            math.prod(spec.dims[a] for a in after),
        )

    def dense(self) -> np.ndarray:
        """The support matrix (read-only)."""
        return self._mat

    def is_hermitian(self, tol: float = TOL_EXACT) -> bool:
        return float(np.abs(self._mat - self._mat.conj().T).max()) <= tol


def apply(op: LinearOp, state: StateVector) -> StateVector:
    """Apply an operator to a state, acting as identity off its support."""
    if op.spec != state.spec:
        raise ValueError("operator and state specs differ")
    block = state.tensor().transpose(op._perm).reshape(op._block)
    out = op._mat @ block
    if op._moves:
        # every dimension is at least 2, so a moved support cannot merge
        # into one axis of a view: block is a private copy, and the result
        # goes back into it in spec order
        back = block.reshape(state.spec.dims).transpose(op._perm)
        back[...] = out.reshape(back.shape)
        out = block
    return StateVector(state.spec, out)


def fold(ops) -> np.ndarray:
    """Operators on one spec, first applied first, as one read-only
    matrix over its whole space, asserted unitary within TOL_EXACT: the
    identity pushed through each as `apply` pushes a state, its columns
    riding along as a last batch axis."""
    ops = list(ops)
    spec = ops[0].spec
    if any(op.spec != spec for op in ops):
        raise ValueError("folded operators must share one spec")
    n = spec.total_dim
    eye = np.eye(n, dtype=np.complex128)
    out = eye
    for op in ops:
        perm = op._perm + (len(spec.dims),)
        batch, dim, rest = op._block
        block = out.reshape(spec.dims + (n,)).transpose(perm)
        out = op._mat @ block.reshape(batch, dim, rest * n)
        out = out.reshape(block.shape).transpose(np.argsort(perm)).reshape(n, n)
    if np.abs(out.conj().T @ out - eye).max() > TOL_EXACT:
        raise AssertionError("folded operator sequence is not unitary")
    out = out.copy()
    out.setflags(write=False)
    return out


def norm_squared(state: StateVector) -> float:
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def extend(state: StateVector, spec: SubsystemSpec, levels: dict) -> StateVector:
    """The state tensored with basis levels on the registers ``spec`` appends.

    ``spec`` must list the state's subsystems first, in the same order;
    ``levels`` assigns a level to every label it appends and to no other
    label. Every amplitude is copied exactly into its place and the rest
    are exact zeros.
    """
    old = state.spec
    n = len(old.subsystems)
    if spec.subsystems[:n] != old.subsystems:
        raise ValueError(f"{spec!r} does not extend {old!r}")
    tail = spec.subsystems[n:]
    labels = [s.label for s in tail]
    missing = set(labels) - set(levels)
    if missing:
        raise ValueError(f"levels missing labels {sorted(missing)}")
    extra = set(levels) - set(labels)
    if extra:
        raise ValueError(f"levels for labels not appended {sorted(extra)}")
    idx = []
    for s in tail:
        level = levels[s.label]
        if not 0 <= level < s.dim:
            raise ValueError(
                f"level {level} out of range for {s.label!r} (dim {s.dim})"
            )
        idx.append(level)
    rest = spec.total_dim // old.total_dim
    amps = np.zeros((old.total_dim, rest), dtype=np.complex128)
    amps[:, int(np.ravel_multi_index(idx, spec.dims[n:]))] = state.amplitudes
    return StateVector(spec, amps)


@lru_cache(maxsize=256)
def _layout(spec: SubsystemSpec, labels: tuple):
    """How `labels_first` lays out a state of ``spec``: the axis permutation
    that brings the labels first, its inverse, the shape with every other
    subsystem merged into one last axis, and the shape with them apart."""
    axes = tuple(spec.axis(l) for l in labels)
    if len(set(axes)) != len(axes):
        raise ValueError(f"repeated labels {labels}")
    perm = axes + tuple(a for a in range(len(spec.dims)) if a not in axes)
    inverse = tuple(perm.index(a) for a in range(len(perm)))
    split = tuple(spec.dims[a] for a in perm)
    return perm, inverse, split[: len(axes)] + (-1,), split


def labels_first(state: StateVector, labels) -> np.ndarray:
    """Amplitudes with the labels' axes first, in the given order.

    The result has one axis per label and one last axis for every other
    subsystem together, in spec order. It is a view where no copy is
    needed, so copy it before writing to it.
    """
    perm, _, merged, _ = _layout(state.spec, tuple(labels))
    return state.tensor().transpose(perm).reshape(merged)


def from_labels_first(spec: SubsystemSpec, labels, array) -> StateVector:
    """The state whose `labels_first` layout is ``array``."""
    _, inverse, _, split = _layout(spec, tuple(labels))
    return StateVector(spec, np.reshape(array, split).transpose(inverse))


@lru_cache(maxsize=64)
def _check_groups(groups: tuple, d: int) -> tuple:
    groups = tuple(tuple(int(l) for l in g) for g in groups)
    seen = [l for g in groups for l in g]
    if sorted(seen) != list(range(d)):
        raise ValueError(f"groups must partition the {d} levels exactly once")
    return groups


def project_subspaces(state: StateVector, label: str, groups, pick):
    """Coarse projective measurement on one subsystem, keeping one outcome.

    ``groups`` is a partition of the subsystem's levels into tuples; each
    group is one outcome and its projector keeps every level in the group,
    so coherence inside a group survives the collapse. ``pick`` receives
    the outcome weights, one per group and summing to the squared norm of
    the input, and returns the index of the outcome to keep. Returns that
    index and the collapsed unit state; no other outcome's state is built.
    """
    spec = state.spec
    groups = _check_groups(tuple(map(tuple, groups)), spec.dim_of(label))
    moved = labels_first(state, (label,))
    # one zero-padded buffer serves every group, and then the kept one
    comp = np.zeros_like(moved)
    weights = []
    for group in groups:
        for level in group:
            comp[level] = moved[level]
        weights.append(float(np.vdot(comp, comp).real))
        for level in group:
            comp[level] = 0.0
    idx = pick(weights)
    if weights[idx] <= 0.0:
        raise ValueError(f"outcome {idx} of {label!r} has zero weight")
    for level in groups[idx]:
        comp[level] = moved[level]
    comp /= np.sqrt(weights[idx])
    return idx, from_labels_first(spec, (label,), comp)


def fidelity(state: StateVector, target: StateVector) -> float:
    """Squared overlap with a pure target, both sides normalized.

    When the target lives on a subset of the state's labels, this returns
    the reduced-density fidelity ||(<target| (x) I_rest)|state>||^2 / ||state||^2,
    which reduces to the plain squared overlap when the remaining labels
    factor out.
    """
    sn = norm_squared(state)
    tn = norm_squared(target)
    if sn <= 0.0 or tn <= 0.0:
        raise ValueError("fidelity of a zero state is undefined")
    if target.spec == state.spec:
        ov = np.vdot(target.amplitudes, state.amplitudes)
        return float(abs(ov) ** 2 / (sn * tn))
    t_labels = target.spec.labels
    missing = set(t_labels) - set(state.spec.labels)
    if missing:
        raise ValueError(f"target labels {sorted(missing)} not in state spec")
    for l in t_labels:
        if state.spec.kind(l) != target.spec.kind(l):
            raise ValueError(f"kind mismatch for label {l!r}")
    flat = labels_first(state, t_labels).reshape(target.spec.total_dim, -1)
    v = target.amplitudes.conj() @ flat
    return float(np.vdot(v, v).real / (sn * tn))
