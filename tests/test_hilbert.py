"""State-space primitives: construction, application, branching, fidelity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityq.hilbert import (
    DIM_CAP,
    LEVEL_0,
    LEVEL_1,
    LEVEL_R,
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
    norm_squared,
    project_subspaces,
    superpose,
)
from cavityq.protocols import ATOM_LEVELS, SampleChooser, measure_via

TOL = 1e-12


def two_atom_spec():
    return SubsystemSpec([("a1", "atom"), ("a2", "atom")])


def atom_cavity_spec():
    return SubsystemSpec([("a1", "atom"), ("c", "cavity")])


def bell(spec):
    return superpose(
        [
            (1 / np.sqrt(2), make_state(spec, {"a1": 0, "a2": 0})),
            (1 / np.sqrt(2), make_state(spec, {"a1": 1, "a2": 1})),
        ]
    )


class TestSpec:
    def test_dims_by_kind(self):
        spec = SubsystemSpec([("a", "atom"), ("c", "cavity"), ("b", "bathmode")])
        assert spec.dims == (3, 2, 2)
        assert spec.total_dim == 12
        assert spec.axis("c") == 1
        assert spec.kind("b") == "bathmode"

    def test_equality_and_hash_follow_labels_and_kinds(self):
        # specs key every operator cache, so equal specs must hash equal
        entries = [("a", "atom"), ("c", "cavity")]
        spec, twin = SubsystemSpec(entries), SubsystemSpec(entries, cap=10**6)
        assert spec == twin and hash(spec) == hash(twin)
        assert spec != SubsystemSpec([("a", "atom"), ("c", "bathmode")])
        assert spec != SubsystemSpec(entries[::-1])
        assert spec.labels == ("a", "c")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsystemSpec([("a", "atom"), ("a", "cavity")])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SubsystemSpec([("a", "qutrit")])

    def test_dimension_cap(self):
        # 3^4 * 2^10 = 82944 > 65536
        entries = [(f"a{i}", "atom") for i in range(4)]
        entries += [(f"b{i}", "bathmode") for i in range(10)]
        with pytest.raises(ValueError, match="cap"):
            SubsystemSpec(entries)
        assert SubsystemSpec(entries[:-1]).total_dim <= DIM_CAP


class TestStates:
    def test_make_state_places_single_amplitude(self):
        spec = atom_cavity_spec()
        s = make_state(spec, {"a1": LEVEL_R, "c": 1})
        t = s.tensor()
        assert t[LEVEL_R, 1] == 1.0
        assert norm_squared(s) == pytest.approx(1.0, abs=TOL)
        assert np.count_nonzero(s.amplitudes) == 1

    def test_make_state_requires_every_label(self):
        spec = atom_cavity_spec()
        with pytest.raises(ValueError, match="missing"):
            make_state(spec, {"a1": 0})
        with pytest.raises(ValueError, match="unknown"):
            make_state(spec, {"a1": 0, "c": 0, "x": 0})

    def test_mode_level_range(self):
        spec = atom_cavity_spec()
        with pytest.raises(ValueError, match="range"):
            make_state(spec, {"a1": 0, "c": 2})

    def test_norm_cap_enforced(self):
        spec = atom_cavity_spec()
        amps = np.zeros(spec.total_dim, dtype=complex)
        amps[0] = 1.1
        with pytest.raises(ValueError, match="norm"):
            StateVector(spec, amps)

    @pytest.mark.parametrize(
        "entries",
        [
            {1: np.nan},
            {1: complex(0.0, np.nan)},
            {1: np.inf},
            {1: -np.inf},
            {1: complex(0.0, np.inf)},
            {1: complex(0.0, -np.inf)},
            {0: 1e200, 1: np.nan},
            {0: 1e200, 1: 1e200},
            {0: np.sqrt(1.0 + 2e-12)},
        ],
    )
    def test_rejection_messages(self, entries):
        # the messages of a validator that scans every entry for
        # finiteness before it checks the norm
        spec = atom_cavity_spec()
        amps = np.zeros(spec.total_dim, dtype=complex)
        for i, v in entries.items():
            amps[i] = v
        if not np.isfinite(amps.view(float)).all():
            expected = "non-finite amplitude"
        else:
            expected = f"squared norm {float(np.vdot(amps, amps).real)} above 1 + 1e-12"
        with pytest.raises(ValueError) as err:
            StateVector(spec, amps)
        assert str(err.value) == expected

    def test_subnormalized_is_fine(self):
        spec = atom_cavity_spec()
        amps = np.zeros(spec.total_dim, dtype=complex)
        amps[0] = 0.3
        assert norm_squared(StateVector(spec, amps)) == pytest.approx(0.09)


    def test_value_equality(self):
        spec = two_atom_spec()
        s = bell(spec)
        assert s == StateVector(spec, s.amplitudes.copy())
        assert s != make_state(spec, {"a1": 0, "a2": 0})
        other = SubsystemSpec([("b1", "atom"), ("b2", "atom")])
        assert s != StateVector(other, s.amplitudes)
        assert s != "bell"
        assert (s, None) == (StateVector(spec, s.amplitudes), None)


class TestApply:
    def test_single_subsystem_op(self):
        spec = atom_cavity_spec()
        # swap |0> and |1> on the atom, leave |r> alone
        op = LinearOp(spec, ("a1",), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        s = apply(op, make_state(spec, {"a1": 0, "c": 1}))
        assert fidelity(s, make_state(spec, {"a1": 1, "c": 1})) == pytest.approx(
            1.0, abs=TOL
        )

    def test_identity_off_support(self):
        spec = two_atom_spec()
        op = LinearOp(spec, ("a1",), np.diag([1, -1, 1]))
        s = apply(op, bell(spec))
        expected = superpose(
            [
                (1 / np.sqrt(2), make_state(spec, {"a1": 0, "a2": 0})),
                (-1 / np.sqrt(2), make_state(spec, {"a1": 1, "a2": 1})),
            ]
        )
        assert fidelity(s, expected) == pytest.approx(1.0, abs=TOL)

    def test_two_subsystem_support_order(self):
        spec = two_atom_spec()
        d = spec.dim_of("a1") * spec.dim_of("a2")
        # |10><01| in (a2, a1) index order: row (1,0) -> 3, col (0,1) -> 1
        m = np.zeros((d, d))
        m[3, 1] = 1.0
        op = LinearOp(spec, ("a2", "a1"), m)
        s = apply(op, make_state(spec, {"a1": 0, "a2": 1}))
        # support listed as (a2, a1): the col (0,1) means a2=0, a1=1
        assert norm_squared(s) == pytest.approx(0.0, abs=TOL)
        s2 = apply(op, make_state(spec, {"a1": 1, "a2": 0}))
        assert fidelity(
            s2, make_state(spec, {"a1": 0, "a2": 1})
        ) == pytest.approx(1.0, abs=TOL)
        assert op.support_dim == d

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(7)
        spec = SubsystemSpec([("a1", "atom"), ("a2", "atom"), ("c", "cavity")])
        # random unitary on (a2, c) from a QR decomposition
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        q, _ = np.linalg.qr(m)
        op = LinearOp(spec, ("a2", "c"), q)
        amps = rng.normal(size=spec.total_dim) + 1j * rng.normal(size=spec.total_dim)
        amps /= np.linalg.norm(amps)
        s = StateVector(spec, amps)
        assert norm_squared(apply(op, s)) == pytest.approx(1.0, abs=TOL)

    def test_apply_is_linear(self):
        rng = np.random.default_rng(11)
        spec = atom_cavity_spec()
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = LinearOp(spec, ("a1",), m / 4)
        a = make_state(spec, {"a1": 0, "c": 0})
        b = make_state(spec, {"a1": 2, "c": 1})
        lhs = apply(op, superpose([(0.3, a), (0.4j, b)]))
        rhs = superpose([(0.3, apply(op, a)), (0.4j, apply(op, b))])
        np.testing.assert_allclose(lhs.amplitudes, rhs.amplitudes, atol=TOL)

    @pytest.mark.parametrize(
        "shape", [(2, 2), (4, 4), (3, 4), (3,), (9,), (3, 3, 1)]
    )
    def test_matrix_shape_must_match_support(self, shape):
        # a 2x2 matrix on a three-level atom was once zero-padded to 3x3
        spec = atom_cavity_spec()
        with pytest.raises(ValueError, match="3x3 matrix"):
            LinearOp(spec, ("a1",), np.ones(shape))

    def test_operators_are_read_only(self):
        spec = atom_cavity_spec()
        m = np.eye(6)
        op = LinearOp(spec, ("a1", "c"), m)
        m[0, 0] = 5.0
        assert op.dense()[0, 0] == 1.0
        with pytest.raises(ValueError):
            op.dense()[0, 0] = 5.0

    def test_read_only_matrix_is_bound_without_a_copy(self):
        # a compiled matrix is bound to every state's spec it meets
        m = np.eye(6, dtype=complex)
        m.setflags(write=False)
        other = SubsystemSpec([("x", "atom"), ("y", "cavity")])
        for spec in (atom_cavity_spec(), other):
            assert LinearOp(spec, spec.labels, m).dense() is m

    def test_caller_writable_memory_is_copied(self):
        spec = atom_cavity_spec()
        m = np.eye(6, dtype=complex)
        view = m[:]
        view.setflags(write=False)
        ops = [LinearOp(spec, ("a1", "c"), a) for a in (m, view)]
        m[0, 0] = 5.0
        for op in ops:
            assert op.dense()[0, 0] == 1.0
            assert not np.shares_memory(op.dense(), m)


class TestFold:
    def test_sequence_folds_first_applied_first(self):
        spec = atom_cavity_spec()
        rng = np.random.default_rng(3)
        q1, q2 = (
            np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            for d in (3, 6)
        )
        ops = [LinearOp(spec, ("a1",), q1), LinearOp(spec, ("c", "a1"), q2)]
        u = fold(ops)
        assert not u.flags.writeable
        s = StateVector(spec, rng.normal(size=6) / 3)
        want = apply(ops[1], apply(ops[0], s))
        np.testing.assert_allclose(u @ s.amplitudes, want.amplitudes, atol=TOL)

    def test_rejects_non_unitary_and_mixed_specs(self):
        spec = atom_cavity_spec()
        with pytest.raises(AssertionError, match="not unitary"):
            fold([LinearOp(spec, ("a1",), np.diag([1, 1, 0]))])
        other = SubsystemSpec([("a1", "atom"), ("d", "cavity")])
        with pytest.raises(ValueError, match="one spec"):
            fold([LinearOp(s, ("a1",), np.eye(3)) for s in (spec, other)])


def _full_space_matrix(spec, support, m):
    """Reference: m (x) identity in (support, rest) order, then permuted
    into spec order by an explicit permutation matrix."""
    order = list(support) + [l for l in spec.labels if l not in support]
    rest = spec.total_dim // len(m)
    in_order = np.kron(m, np.eye(rest))
    order_dims = [spec.dim_of(l) for l in order]
    perm = np.zeros((spec.total_dim, spec.total_dim))
    for idx in np.ndindex(*spec.dims):
        levels = dict(zip(spec.labels, idx))
        row = np.ravel_multi_index([levels[l] for l in order], order_dims)
        perm[row, np.ravel_multi_index(idx, spec.dims)] = 1.0
    return perm.T @ in_order @ perm


@st.composite
def _kernel_cases(draw):
    kinds = draw(
        st.lists(st.sampled_from(["atom", "cavity", "bathmode"]), min_size=2, max_size=5)
    )
    spec = SubsystemSpec([(f"r{i}", k) for i, k in enumerate(kinds)])
    n = len(kinds)
    supports = []
    for _ in range(2):
        order = draw(st.permutations(spec.labels))
        supports.append(tuple(order[: draw(st.integers(1, n))]))
    seed = draw(st.integers(0, 2**32 - 1))
    return spec, supports, np.random.default_rng(seed)


def _random_op(spec, support, rng):
    d = int(np.prod([spec.dim_of(l) for l in support]))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    # below unit operator norm, so images stay valid states
    m /= np.linalg.norm(m)
    return LinearOp(spec, support, m), m


@given(_kernel_cases())
def test_kernel_matches_full_space_reference(case):
    spec, (sup1, _), rng = case
    op, m = _random_op(spec, sup1, rng)
    ref = _full_space_matrix(spec, sup1, m)
    amps = rng.normal(size=spec.total_dim) + 1j * rng.normal(size=spec.total_dim)
    state = StateVector(spec, amps / np.linalg.norm(amps))
    before = state.amplitudes.copy()
    np.testing.assert_allclose(
        apply(op, state).amplitudes, ref @ before, rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(state.amplitudes, before)
    herm = LinearOp(spec, sup1, m + m.conj().T)
    assert herm.is_hermitian()
    assert op.is_hermitian() == np.allclose(ref, ref.conj().T, rtol=0, atol=1e-12)


class TestExtend:
    def test_amplitudes_placed_exactly(self):
        spec = atom_cavity_spec()
        longer = SubsystemSpec(
            [("a1", "atom"), ("c", "cavity"), ("b0", "bathmode"), ("a2", "atom")]
        )
        rng = np.random.default_rng(3)
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        state = StateVector(spec, amps / np.linalg.norm(amps))
        out = extend(state, longer, {"b0": 1, "a2": 2})
        assert out.spec == longer
        t = out.tensor()
        np.testing.assert_array_equal(t[:, :, 1, 2], state.tensor())
        rest = t.copy()
        rest[:, :, 1, 2] = 0.0
        assert not rest.any()
        np.testing.assert_array_equal(state.amplitudes, amps / np.linalg.norm(amps))

    def test_same_spec_is_a_copy(self):
        s = bell(two_atom_spec())
        out = extend(s, two_atom_spec(), {})
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)
        assert out.amplitudes is not s.amplitudes

    def test_rejects_spec_that_does_not_extend(self):
        s = bell(two_atom_spec())
        for entries in (
            [("a2", "atom"), ("a1", "atom"), ("b", "bathmode")],
            [("a1", "atom"), ("a2", "cavity"), ("b", "bathmode")],
            [("a1", "atom"), ("b", "bathmode"), ("a2", "atom")],
            [("a1", "atom")],
        ):
            with pytest.raises(ValueError, match="does not extend"):
                extend(s, SubsystemSpec(entries), {"b": 0})

    def test_rejects_missing_extra_and_out_of_range_levels(self):
        s = bell(two_atom_spec())
        longer = SubsystemSpec(
            [("a1", "atom"), ("a2", "atom"), ("b", "bathmode"), ("c", "cavity")]
        )
        with pytest.raises(ValueError, match="missing"):
            extend(s, longer, {"b": 0})
        with pytest.raises(ValueError, match="not appended"):
            extend(s, longer, {"b": 0, "c": 0, "a1": 0})
        with pytest.raises(ValueError, match="out of range"):
            extend(s, longer, {"b": 2, "c": 0})
        with pytest.raises(ValueError, match="out of range"):
            extend(s, longer, {"b": 0, "c": -1})


@given(_kernel_cases(), st.lists(st.sampled_from(["atom", "cavity", "bathmode"]),
                                 min_size=1, max_size=3))
def test_extend_commutes_with_apply(case, appended):
    spec, (support, _), rng = case
    longer = SubsystemSpec(
        [(s.label, s.kind) for s in spec.subsystems]
        + [(f"x{i}", k) for i, k in enumerate(appended)]
    )
    levels = {
        f"x{i}": int(rng.integers(longer.dim_of(f"x{i}")))
        for i in range(len(appended))
    }
    op, m = _random_op(spec, support, rng)
    amps = rng.normal(size=spec.total_dim) + 1j * rng.normal(size=spec.total_dim)
    state = StateVector(spec, amps / np.linalg.norm(amps))
    first = extend(apply(op, state), longer, levels)
    then = apply(LinearOp(longer, support, m), extend(state, longer, levels))
    np.testing.assert_allclose(first.amplitudes, then.amplitudes, rtol=0, atol=1e-12)


def _moveaxis_labels_first(state, labels):
    """Reference layout: the labels' axes moved first by np.moveaxis."""
    spec = state.spec
    axes = [spec.axis(l) for l in labels]
    moved = np.moveaxis(state.tensor(), axes, range(len(axes)))
    return moved.reshape([spec.dims[a] for a in axes] + [-1])


def _moveaxis_from_labels_first(spec, labels, array):
    axes = [spec.axis(l) for l in labels]
    rest = [d for i, d in enumerate(spec.dims) if i not in axes]
    lead = np.reshape(array, [spec.dims[a] for a in axes] + rest)
    return StateVector(spec, np.moveaxis(lead, range(len(axes)), axes))


@given(
    st.lists(st.sampled_from(["atom", "cavity", "bathmode"]), min_size=1, max_size=5),
    st.data(),
)
def test_layout_matches_moveaxis_reference(kinds, data):
    entries = [(f"r{i}", k) for i, k in enumerate(kinds)]
    spec = SubsystemSpec(entries)
    order = data.draw(st.permutations(spec.labels))
    labels = order[: data.draw(st.integers(0, len(kinds)))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=spec.total_dim) + 1j * rng.normal(size=spec.total_dim)
    state = StateVector(spec, amps / np.linalg.norm(amps))

    ref = _moveaxis_labels_first(state, labels)
    # a rebuilt equal spec and a list of labels share the layout
    for got in (
        labels_first(state, labels),
        labels_first(StateVector(SubsystemSpec(entries), state.amplitudes), list(labels)),
    ):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)
        assert np.shares_memory(got, state.amplitudes) == np.shares_memory(
            ref, state.amplitudes
        )
    back = from_labels_first(spec, labels, ref)
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)
    other = rng.normal(size=ref.shape) + 1j * rng.normal(size=ref.shape)
    other /= np.linalg.norm(other)
    np.testing.assert_array_equal(
        from_labels_first(spec, list(labels), other).amplitudes,
        _moveaxis_from_labels_first(spec, labels, other).amplitudes,
    )


def outcomes(state, label, groups):
    """Every outcome of a coarse measurement, each kept in turn:
    (index, weight, collapsed state or None for a zero-weight outcome)."""
    out = []
    for k in range(len(groups)):
        offered = []

        def keep(weights, k=k):
            offered.extend(weights)
            return k

        try:
            _, post = project_subspaces(state, label, groups, keep)
        except ValueError as err:
            assert "zero weight" in str(err) and offered[k] == 0.0
            post = None
        out.append((k, offered[k], post))
    return out


class TestBranching:
    # single-level groups are the fine-grained readout
    def test_weights_sum_to_norm_squared(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 1})),
                (0.8, make_state(spec, {"a1": 1, "a2": 0})),
            ]
        )
        branches = outcomes(s, "a1", ATOM_LEVELS)
        assert sum(w for _, w, _ in branches) == pytest.approx(
            norm_squared(s), abs=TOL
        )
        weights = {k: w for k, w, _ in branches}
        assert weights[0] == pytest.approx(0.36, abs=TOL)
        assert weights[1] == pytest.approx(0.64, abs=TOL)
        assert weights[2] == 0.0

    def test_collapsed_states_are_unit_and_consistent(self):
        spec = two_atom_spec()
        s = bell(spec)
        for k, w, post in outcomes(s, "a2", ATOM_LEVELS):
            if w == 0.0:
                assert post is None
                continue
            assert norm_squared(post) == pytest.approx(1.0, abs=TOL)
            assert fidelity(
                post, make_state(spec, {"a1": k, "a2": k})
            ) == pytest.approx(1.0, abs=TOL)

    # sampling goes through a chooser, as in every protocol
    def test_measure_reproducible_with_seed(self):
        spec = two_atom_spec()
        s = bell(spec)
        out1, out2 = (
            [
                measure_via(
                    SampleChooser(np.random.default_rng(123)), s, "a1", ATOM_LEVELS, "m"
                )[0]
                for _ in range(20)
            ]
            for _ in range(2)
        )
        assert out1 == out2
        assert set(out1) <= {0, 1}

    def test_measure_statistics(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 0})),
                (0.8, make_state(spec, {"a1": 1, "a2": 0})),
            ]
        )
        chooser = SampleChooser(np.random.default_rng(5))
        n = 4000
        ones = sum(measure_via(chooser, s, "a1", ATOM_LEVELS, "m")[0] for _ in range(n))
        assert abs(ones / n - 0.64) < 4 * np.sqrt(0.64 * 0.36 / n)

    def test_measure_collapses(self):
        spec = two_atom_spec()
        chooser = SampleChooser(np.random.default_rng(2))
        k, post = measure_via(chooser, bell(spec), "a1", ATOM_LEVELS, "m")
        assert chooser.trace[0].weights[k] == pytest.approx(0.5, abs=TOL)
        assert fidelity(
            post, make_state(spec, {"a1": k, "a2": k})
        ) == pytest.approx(1.0, abs=TOL)


class TestCoarseBranching:
    def test_group_projector_keeps_coherence(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 0})),
                (0.48, make_state(spec, {"a1": 1, "a2": 0})),
                (0.64, make_state(spec, {"a1": 2, "a2": 1})),
            ]
        )
        branches = outcomes(s, "a1", [(0, 1), (2,)])
        assert branches[0][1] == pytest.approx(0.36 + 0.2304, abs=TOL)
        assert branches[1][1] == pytest.approx(0.4096, abs=TOL)
        kept = branches[0][2]
        # the 0-1 superposition survives intact, renormalized
        expect = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 0})),
                (0.48, make_state(spec, {"a1": 1, "a2": 0})),
            ]
        )
        scale = np.sqrt(0.36 + 0.2304)
        np.testing.assert_allclose(
            kept.amplitudes, expect.amplitudes / scale, atol=TOL
        )

    def test_partition_validation(self):
        spec = two_atom_spec()
        s = make_state(spec, {"a1": 0, "a2": 0})
        with pytest.raises(ValueError, match="partition"):
            project_subspaces(s, "a1", [(0, 1), (1, 2)], min)
        with pytest.raises(ValueError, match="partition"):
            project_subspaces(s, "a1", [(0,), (2,)], min)

    @pytest.mark.parametrize("idx", [-1, -2, -3, 3, 4])
    def test_pick_outside_the_groups_is_rejected(self, idx):
        # a negative index used to pick a group from the end, silently,
        # and 3 raised a bare IndexError
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 0})),
                (0.8, make_state(spec, {"a1": 1, "a2": 0})),
            ]
        )
        with pytest.raises(ValueError, match=f"'a1' has no outcome {idx}"):
            project_subspaces(s, "a1", ATOM_LEVELS, lambda weights: idx)

    def test_groups_as_lists_or_tuples(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 0})),
                (0.8, make_state(spec, {"a1": 2, "a2": 1})),
            ]
        )
        for groups in ([[0, 1], [2]], ((0, 1), (2,))):
            k, post = project_subspaces(s, "a1", groups, np.argmax)
            assert k == 1
            np.testing.assert_array_equal(
                post.amplitudes, make_state(spec, {"a1": 2, "a2": 1}).amplitudes
            )

    def test_sampled_coarse_measurement(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 0})),
                (0.8, make_state(spec, {"a1": 2, "a2": 1})),
            ]
        )
        counts = [0, 0]
        chooser = SampleChooser(np.random.default_rng(11))
        for _ in range(400):
            k, collapsed = measure_via(chooser, s, "a1", [(0, 1), (2,)], "m")
            counts[k] += 1
            assert norm_squared(collapsed) == pytest.approx(1.0, abs=TOL)
            assert chooser.trace[-1].weights == pytest.approx((0.36, 0.64), abs=TOL)
        assert abs(counts[1] / 400 - 0.64) < 4 * np.sqrt(0.64 * 0.36 / 400)


class TestFidelity:
    def test_bell_vs_product(self):
        spec = two_atom_spec()
        assert fidelity(
            bell(spec), make_state(spec, {"a1": 0, "a2": 0})
        ) == pytest.approx(0.5, abs=TOL)

    def test_normalization_insensitive(self):
        spec = two_atom_spec()
        s = bell(spec)
        scaled = StateVector(spec, 0.5 * s.amplitudes)
        assert fidelity(scaled, s) == pytest.approx(1.0, abs=TOL)

    def test_subset_target_reduces(self):
        # target on a1 only: Bell state has no pure marginal, fidelity 1/2
        spec = two_atom_spec()
        sub = SubsystemSpec([("a1", "atom")])
        target = make_state(sub, {"a1": 0})
        assert fidelity(bell(spec), target) == pytest.approx(0.5, abs=TOL)
        # product state with a1 = |0> has fidelity 1 against the same target
        prod = make_state(spec, {"a1": 0, "a2": 1})
        assert fidelity(prod, target) == pytest.approx(1.0, abs=TOL)

    def test_subset_target_label_order(self):
        # target labels listed in the opposite order from the state spec
        spec = two_atom_spec()
        sub = SubsystemSpec([("a2", "atom"), ("a1", "atom")])
        target = make_state(sub, {"a1": 0, "a2": 1})
        s = make_state(spec, {"a1": 0, "a2": 1})
        assert fidelity(s, target) == pytest.approx(1.0, abs=TOL)

    def test_unknown_target_label_rejected(self):
        spec = two_atom_spec()
        sub = SubsystemSpec([("zz", "atom")])
        with pytest.raises(ValueError, match="not in state"):
            fidelity(bell(spec), make_state(sub, {"zz": 0}))


def test_level_constants():
    assert (LEVEL_0, LEVEL_1, LEVEL_R) == (0, 1, 2)
