"""Labeled tensor-product state spaces and exact linear-algebra primitives.

Everything downstream (pulse dynamics, noise channels, protocols) runs on a
:class:`SubsystemSpec`: an ordered list of labeled subsystems, each one an
atom (three levels |0>, |1>, |r>), a cavity mode, or a bath mode (both
hard-core two-level). States are dense complex vectors over the full product
space. Subnormalized states are first class because the branch algebra keeps
loss branches around until they are measured away.

Tolerance constants for the whole package live here so every module pins the
same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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


@dataclass
class StateVector:
    """Dense complex amplitudes over a spec's product space.

    The squared norm may be anywhere in [0, 1 + 1e-12]: branch algebra keeps
    subnormalized pieces. Anything above that, or non-finite entries, is a
    construction error.
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
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("non-finite amplitude")
        n2 = float(np.vdot(amps, amps).real)
        if n2 > 1.0 + 1e-12:
            raise ValueError(f"squared norm {n2} above 1 + 1e-12")
        self.amplitudes = amps

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (a view)."""
        return self.amplitudes.reshape(self.spec.dims)

    def copy(self) -> "StateVector":
        return StateVector(self.spec, self.amplitudes.copy())


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
    """Sparse operator supported on a subset of subsystems.

    The matrix indices run over the support labels' dimensions in the listed
    order, row-major. Stored sparsely as (row, col, value) triples.

    ``key`` is an optional hashable recipe that fully determines the
    operator, such as a Hamiltonian constructor's arguments. Operators
    with equal keys are interchangeable, which is what lets
    `cavityq.dynamics` build each propagator once per process. Operators
    are shared once cached, so nothing may change one in place.
    """

    def __init__(self, spec, support, rows, cols, values, key=None):
        self.spec = spec
        self.key = key
        self.support = tuple(support)
        if len(set(self.support)) != len(self.support):
            raise ValueError("duplicate support labels")
        dim = 1
        for label in self.support:
            dim *= spec.dim_of(label)
        self.support_dim = dim
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        if rows.size and (rows.max() >= dim or cols.max() >= dim):
            raise ValueError("triple index outside support dimension")
        self._mat = sp.csr_matrix((values, (rows, cols)), shape=(dim, dim))

    @classmethod
    def from_matrix(cls, spec, support, matrix, key=None) -> "LinearOp":
        m = np.asarray(matrix, dtype=np.complex128)
        rows, cols = np.nonzero(m)
        return cls(spec, support, rows, cols, m[rows, cols], key)

    def dense(self) -> np.ndarray:
        return self._mat.toarray()

    def is_hermitian(self, tol: float = TOL_EXACT) -> bool:
        d = self._mat - self._mat.getH()
        if d.nnz == 0:
            return True
        return float(abs(d).max()) <= tol

    def __add__(self, other: "LinearOp") -> "LinearOp":
        if self.spec != other.spec:
            raise ValueError("operator specs differ")
        if self.support != other.support:
            raise ValueError(
                "adding operators with different supports; embed them on a "
                "common support first"
            )
        m = (self._mat + other._mat).tocoo()
        return LinearOp(self.spec, self.support, m.row, m.col, m.data)

    def embedded(self, support) -> "LinearOp":
        """Same operator viewed on a larger support (identity elsewhere)."""
        support = tuple(support)
        if set(self.support) - set(support):
            raise ValueError("new support must contain the old one")
        if support == self.support:
            return self
        dims = [self.spec.dim_of(l) for l in support]
        own_pos = [support.index(l) for l in self.support]
        other_pos = [i for i in range(len(support)) if support[i] not in self.support]
        other_dim = 1
        for i in other_pos:
            other_dim *= dims[i]
        coo = self._mat.tocoo()
        own_dims = [self.spec.dim_of(l) for l in self.support]
        rows, cols, vals = [], [], []
        for r, c, v in zip(coo.row, coo.col, coo.data):
            r_idx = np.unravel_index(r, own_dims)
            c_idx = np.unravel_index(c, own_dims)
            for k in range(other_dim):
                k_idx = np.unravel_index(k, [dims[i] for i in other_pos]) if other_pos else ()
                full_r = [0] * len(support)
                full_c = [0] * len(support)
                for p, i in zip(own_pos, range(len(self.support))):
                    full_r[p] = r_idx[i]
                    full_c[p] = c_idx[i]
                for p, i in zip(other_pos, range(len(other_pos))):
                    full_r[p] = k_idx[i]
                    full_c[p] = k_idx[i]
                rows.append(int(np.ravel_multi_index(full_r, dims)))
                cols.append(int(np.ravel_multi_index(full_c, dims)))
                vals.append(v)
        return LinearOp(self.spec, support, rows, cols, vals)


def op_sum(ops) -> LinearOp:
    """Sum of operators, each embedded on the union of their supports."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty operator sum")
    union: list[str] = []
    for op in ops:
        for l in op.support:
            if l not in union:
                union.append(l)
    total = None
    for op in ops:
        e = op.embedded(tuple(union))
        total = e if total is None else total + e
    keys = tuple(op.key for op in ops)
    if len(ops) > 1 and None not in keys:
        total.key = ("sum",) + keys
    return total


def apply(op: LinearOp, state: StateVector) -> StateVector:
    """Apply an operator to a state, acting as identity off its support."""
    if op.spec != state.spec:
        raise ValueError("operator and state specs differ")
    spec = state.spec
    axes = [spec.axis(l) for l in op.support]
    n_sup = len(axes)
    tensor = state.tensor()
    moved = np.moveaxis(tensor, axes, range(n_sup))
    flat = np.ascontiguousarray(moved).reshape(op.support_dim, -1)
    out = op._mat @ flat
    out = np.moveaxis(out.reshape(moved.shape), range(n_sup), axes)
    return StateVector(spec, np.ascontiguousarray(out).reshape(-1))


def norm_squared(state: StateVector) -> float:
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def _branch_states(state, label, basis):
    """Split a state along one subsystem's measurement basis.

    Returns a list of (outcome_index, weight, unit_state_or_None). Weights are
    absolute: they sum to the squared norm of the input.
    """
    spec = state.spec
    ax = spec.axis(label)
    d = spec.dim_of(label)
    tensor = state.tensor()
    moved = np.moveaxis(tensor, ax, 0).reshape(d, -1)
    if basis is not None:
        basis = np.asarray(basis, dtype=np.complex128)
        if basis.shape != (d, d):
            raise ValueError(f"basis must be {d}x{d} (columns are outcomes)")
        if not np.allclose(basis.conj().T @ basis, np.eye(d), atol=1e-10):
            raise ValueError("measurement basis is not unitary")
        moved = basis.conj().T @ moved
    branches = []
    for k in range(d):
        w = float(np.vdot(moved[k], moved[k]).real)
        if w <= 0.0:
            branches.append((k, 0.0, None))
            continue
        comp = np.zeros_like(moved)
        comp[k] = moved[k]
        if basis is not None:
            comp = basis @ comp
        back = np.moveaxis(
            comp.reshape((d,) + tuple(np.delete(spec.dims, ax))), 0, ax
        )
        unit = StateVector(spec, back.reshape(-1) / np.sqrt(w))
        branches.append((k, w, unit))
    return branches


def project_branch(state: StateVector, label: str, basis=None):
    """All measurement branches of one subsystem, without sampling.

    Each entry is (outcome_index, weight, collapsed_unit_state). Zero-weight
    branches carry ``None`` for the state. Weights sum to the squared norm of
    the input.
    """
    return _branch_states(state, label, basis)


def measure_projective(state, label, rng, basis=None):
    """Sample one measurement outcome and collapse.

    Parameters
    ----------
    state : StateVector
    label : str
        Subsystem to measure.
    rng : numpy.random.Generator
        Outcome sampling stream.
    basis : ndarray, optional
        Unitary whose columns are the measurement vectors; computational
        basis when omitted.

    Returns
    -------
    (outcome_index, probability, collapsed_state)
        Probability is conditional on the input state (weights renormalized
        by its squared norm); the collapsed state has unit norm.
    """
    branches = _branch_states(state, label, basis)
    total = sum(w for _, w, _ in branches)
    if total <= 0.0:
        raise ValueError("cannot measure a zero state")
    probs = np.array([w / total for _, w, _ in branches])
    k = int(rng.choice(len(branches), p=probs))
    _, w, collapsed = branches[k]
    return k, w / total, collapsed


def _check_groups(groups, d):
    groups = tuple(tuple(int(l) for l in g) for g in groups)
    seen = [l for g in groups for l in g]
    if sorted(seen) != list(range(d)):
        raise ValueError(f"groups must partition the {d} levels exactly once")
    return groups


def project_subspaces(state: StateVector, label: str, groups):
    """Branches of a coarse projective measurement on one subsystem.

    ``groups`` is a partition of the subsystem's levels into tuples; each
    group is one outcome and its projector keeps every level in the group,
    so coherence inside a group survives the collapse. Returns a list of
    (group_index, weight, collapsed_unit_state_or_None) with weights summing
    to the squared norm of the input.
    """
    spec = state.spec
    ax = spec.axis(label)
    d = spec.dim_of(label)
    groups = _check_groups(groups, d)
    moved = np.moveaxis(state.tensor(), ax, 0).reshape(d, -1)
    branches = []
    for k, group in enumerate(groups):
        comp = np.zeros_like(moved)
        for level in group:
            comp[level] = moved[level]
        w = float(np.vdot(comp, comp).real)
        if w <= 0.0:
            branches.append((k, 0.0, None))
            continue
        back = np.moveaxis(
            comp.reshape((d,) + tuple(np.delete(spec.dims, ax))), 0, ax
        )
        branches.append((k, w, StateVector(spec, back.reshape(-1) / np.sqrt(w))))
    return branches


def measure_subspaces(state, label, groups, rng):
    """Sample a coarse projective measurement and collapse.

    Same contract as `measure_projective` but outcomes are the level groups
    of `project_subspaces` instead of single levels.
    """
    branches = project_subspaces(state, label, groups)
    total = sum(w for _, w, _ in branches)
    if total <= 0.0:
        raise ValueError("cannot measure a zero state")
    probs = np.array([w / total for _, w, _ in branches])
    k = int(rng.choice(len(branches), p=probs))
    _, w, collapsed = branches[k]
    return k, w / total, collapsed


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
    axes = [state.spec.axis(l) for l in t_labels]
    moved = np.moveaxis(state.tensor(), axes, range(len(axes)))
    flat = np.ascontiguousarray(moved).reshape(target.spec.total_dim, -1)
    v = target.amplitudes.conj() @ flat
    return float(np.vdot(v, v).real / (sn * tn))
