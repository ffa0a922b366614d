"""State-space primitives: construction, application, branching, fidelity."""

import numpy as np
import pytest

from cavityq.hilbert import (
    DIM_CAP,
    LEVEL_0,
    LEVEL_1,
    LEVEL_R,
    LinearOp,
    StateVector,
    SubsystemSpec,
    apply,
    fidelity,
    make_state,
    measure_projective,
    measure_subspaces,
    norm_squared,
    project_branch,
    project_subspaces,
    superpose,
)

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

    def test_subnormalized_is_fine(self):
        spec = atom_cavity_spec()
        amps = np.zeros(spec.total_dim, dtype=complex)
        amps[0] = 0.3
        assert norm_squared(StateVector(spec, amps)) == pytest.approx(0.09)


class TestApply:
    def test_single_subsystem_op(self):
        spec = atom_cavity_spec()
        # swap |0> and |1> on the atom, leave |r> alone
        op = LinearOp.from_matrix(
            spec, ("a1",), [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )
        s = apply(op, make_state(spec, {"a1": 0, "c": 1}))
        assert fidelity(s, make_state(spec, {"a1": 1, "c": 1})) == pytest.approx(
            1.0, abs=TOL
        )

    def test_identity_off_support(self):
        spec = two_atom_spec()
        op = LinearOp.from_matrix(spec, ("a1",), np.diag([1, -1, 1]))
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
        op = LinearOp(spec, ("a2", "a1"), [3], [1], [1.0])
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
        op = LinearOp.from_matrix(spec, ("a2", "c"), q)
        amps = rng.normal(size=spec.total_dim) + 1j * rng.normal(size=spec.total_dim)
        amps /= np.linalg.norm(amps)
        s = StateVector(spec, amps)
        assert norm_squared(apply(op, s)) == pytest.approx(1.0, abs=TOL)

    def test_apply_is_linear(self):
        rng = np.random.default_rng(11)
        spec = atom_cavity_spec()
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = LinearOp.from_matrix(spec, ("a1",), m / 4)
        a = make_state(spec, {"a1": 0, "c": 0})
        b = make_state(spec, {"a1": 2, "c": 1})
        lhs = apply(op, superpose([(0.3, a), (0.4j, b)]))
        rhs = superpose([(0.3, apply(op, a)), (0.4j, apply(op, b))])
        np.testing.assert_allclose(lhs.amplitudes, rhs.amplitudes, atol=TOL)

    def test_embedded_matches_direct(self):
        spec = two_atom_spec()
        op = LinearOp.from_matrix(spec, ("a1",), np.diag([1, -1, 1j]))
        emb = op.embedded(("a1", "a2"))
        s = bell(spec)
        np.testing.assert_allclose(
            apply(op, s).amplitudes, apply(emb, s).amplitudes, atol=TOL
        )


class TestBranching:
    def test_weights_sum_to_norm_squared(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 1})),
                (0.8, make_state(spec, {"a1": 1, "a2": 0})),
            ]
        )
        branches = project_branch(s, "a1")
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
        for k, w, post in project_branch(s, "a2"):
            if w == 0.0:
                assert post is None
                continue
            assert norm_squared(post) == pytest.approx(1.0, abs=TOL)
            assert fidelity(
                post, make_state(spec, {"a1": k, "a2": k})
            ) == pytest.approx(1.0, abs=TOL)

    def test_rotated_basis_branching(self):
        spec = two_atom_spec()
        s = make_state(spec, {"a1": 0, "a2": 0})
        h = np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
        branches = project_branch(s, "a1", basis=h)
        weights = {k: w for k, w, _ in branches}
        assert weights[0] == pytest.approx(0.5, abs=TOL)
        assert weights[1] == pytest.approx(0.5, abs=TOL)
        assert weights[2] == 0.0
        # collapsed branch must lie along the basis column, not |0>
        _, _, plus = branches[0]
        t = plus.tensor()
        assert t[0, 0] == pytest.approx(t[1, 0], abs=TOL)

    def test_nonunitary_basis_rejected(self):
        spec = two_atom_spec()
        s = make_state(spec, {"a1": 0, "a2": 0})
        with pytest.raises(ValueError, match="unitary"):
            project_branch(s, "a1", basis=np.ones((3, 3)))

    def test_measure_reproducible_with_seed(self):
        spec = two_atom_spec()
        s = bell(spec)
        out1 = [
            measure_projective(s, "a1", np.random.default_rng(123))[0]
            for _ in range(20)
        ]
        out2 = [
            measure_projective(s, "a1", np.random.default_rng(123))[0]
            for _ in range(20)
        ]
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
        rng = np.random.default_rng(5)
        n = 4000
        ones = sum(measure_projective(s, "a1", rng)[0] for _ in range(n))
        assert abs(ones / n - 0.64) < 4 * np.sqrt(0.64 * 0.36 / n)

    def test_measure_collapses(self):
        spec = two_atom_spec()
        rng = np.random.default_rng(2)
        k, p, post = measure_projective(bell(spec), "a1", rng)
        assert p == pytest.approx(0.5, abs=TOL)
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
        branches = project_subspaces(s, "a1", [(0, 1), (2,)])
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
            project_subspaces(s, "a1", [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="partition"):
            project_subspaces(s, "a1", [(0,), (2,)])

    def test_sampled_coarse_measurement(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"a1": 0, "a2": 0})),
                (0.8, make_state(spec, {"a1": 2, "a2": 1})),
            ]
        )
        counts = [0, 0]
        rng = np.random.default_rng(11)
        for _ in range(400):
            k, p, collapsed = measure_subspaces(s, "a1", [(0, 1), (2,)], rng)
            counts[k] += 1
            assert norm_squared(collapsed) == pytest.approx(1.0, abs=TOL)
            assert p == pytest.approx(0.36 if k == 0 else 0.64, abs=TOL)
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
