"""Drive and bath dynamics against closed-form oracles and frozen golden amplitudes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityq.dynamics import (
    BathSpec,
    bath_hamiltonian,
    evolve,
    excitation_number,
    optical_pump_r_to_1,
    propagator,
    raman_hamiltonian,
    single_atom_op,
    single_atom_operator,
    transfer,
)
from cavityq.hilbert import (
    LinearOp,
    StateVector,
    SubsystemSpec,
    apply,
    fidelity,
    make_state,
    norm_squared,
    superpose,
)

TOL = 1e-12


def block_oracle(g, phase, t):
    """Independent 2x2 closed form for the driven {|1,empty>, |r,occupied>} block.

    Rotation at rate g with the drive phase on the transfer elements only:
    emission carries e^{-i phase}, absorption e^{+i phase}.
    """
    c = np.cos(g * t / 2)
    s = np.sin(g * t / 2)
    u21 = -1j * s * np.exp(-1j * phase)
    u12 = -1j * s * np.exp(1j * phase)
    return np.array([[c, u12], [u21, c]])


def drive(state, atom, g, phase, t):
    """Evolve under one atom's drive (cavity "c") for an arbitrary duration."""
    return evolve(state, raman_hamiltonian(state.spec, atom, "c", g, phase), t)


def one_atom_spec():
    return SubsystemSpec([("q", "atom"), ("c", "cavity")])


def two_atom_spec():
    return SubsystemSpec([("q1", "atom"), ("q2", "atom"), ("c", "cavity")])


class TestRamanBlock:
    def test_resonant_pi_transfer(self):
        spec = one_atom_spec()
        out = transfer(make_state(spec, {"q": 1, "c": 0}), "q", "c", 1.0)
        expect = superpose([(-1j, make_state(spec, {"q": 2, "c": 1}))])
        np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=TOL)

    def test_resonant_pi_reverse(self):
        spec = one_atom_spec()
        out = transfer(make_state(spec, {"q": 2, "c": 1}), "q", "c", 1.0)
        expect = superpose([(-1j, make_state(spec, {"q": 1, "c": 0}))])
        np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=TOL)

    def test_pi_phase_flips_transfer_sign(self):
        spec = one_atom_spec()
        out = transfer(make_state(spec, {"q": 1, "c": 0}), "q", "c", 1.0, np.pi)
        expect = superpose([(1j, make_state(spec, {"q": 2, "c": 1}))])
        np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=TOL)

    def test_level_0_is_dark(self):
        spec = one_atom_spec()
        for photon in (0, 1):
            init = make_state(spec, {"q": 0, "c": photon})
            out = drive(init, "q", 1.0, 0.3, np.pi)
            np.testing.assert_allclose(out.amplitudes, init.amplitudes, atol=TOL)

    def test_occupied_cavity_blocks_transfer(self):
        # |1, occupied> has no second photon slot to emit into
        spec = one_atom_spec()
        init = make_state(spec, {"q": 1, "c": 1})
        out = transfer(init, "q", "c", 1.0)
        np.testing.assert_allclose(out.amplitudes, init.amplitudes, atol=TOL)

    def test_block_matches_closed_form(self):
        spec = one_atom_spec()
        rng = np.random.default_rng(42)
        basis = [
            make_state(spec, {"q": 1, "c": 0}),
            make_state(spec, {"q": 2, "c": 1}),
        ]
        for _ in range(12):
            g = rng.uniform(0.5, 2.0)
            phase = rng.uniform(-np.pi, np.pi)
            t = rng.uniform(0.2, 6.0)
            expect = block_oracle(g, phase, t)
            got = np.empty((2, 2), dtype=complex)
            for col, b in enumerate(basis):
                out = drive(b, "q", g, phase, t)
                for row, b2 in enumerate(basis):
                    got[row, col] = np.vdot(b2.amplitudes, out.amplitudes)
            np.testing.assert_allclose(got, expect, atol=1e-11)

    def test_survival_is_phase_independent(self):
        spec = one_atom_spec()
        init = make_state(spec, {"q": 1, "c": 0})
        t = 1.7
        amps = []
        for phase in (0.0, 1.1, np.pi, -2.0):
            out = drive(init, "q", 1.0, phase, t)
            amps.append(np.vdot(init.amplitudes, out.amplitudes))
        for a in amps[1:]:
            assert a == pytest.approx(amps[0], abs=TOL)

    def test_cavity_resolution(self):
        spec = SubsystemSpec([("q", "atom"), ("c1", "cavity"), ("c2", "cavity")])
        h = raman_hamiltonian(spec, "q", "c2", 1.0)
        assert h.support == ("q", "c2")
        with pytest.raises(ValueError, match="not an atom"):
            raman_hamiltonian(spec, "c1", "c2", 1.0)
        with pytest.raises(ValueError, match="not a cavity"):
            raman_hamiltonian(spec, "q", "q", 1.0)
        with pytest.raises(ValueError, match="not a cavity"):
            bath_hamiltonian(spec, BathSpec((), ()), "q", ())

    @pytest.mark.parametrize(
        "args",
        [(np.nan,), (np.inf,), (1.0, np.nan), (1.0, -np.inf)],
    )
    def test_coupling_parameters_must_be_finite(self, args):
        with pytest.raises(ValueError, match="finite"):
            raman_hamiltonian(one_atom_spec(), "q", "c", *args)


class TestIdealJointMap:
    """Two full pulses, first atom then second, through a shared cavity."""

    def golden_cases(self):
        return [
            ({"q1": 0, "q2": 0, "c": 0}, {"q1": 0, "q2": 0, "c": 0}, 1.0),
            ({"q1": 0, "q2": 2, "c": 0}, {"q1": 0, "q2": 2, "c": 0}, 1.0),
            ({"q1": 1, "q2": 0, "c": 0}, {"q1": 2, "q2": 0, "c": 1}, -1j),
            ({"q1": 1, "q2": 2, "c": 0}, {"q1": 2, "q2": 1, "c": 0}, -1.0),
        ]

    def test_golden_amplitudes(self):
        spec = two_atom_spec()
        for init, final, amp in self.golden_cases():
            out = transfer(make_state(spec, init), "q1", "c", 1.0)
            out = transfer(out, "q2", "c", 1.0)
            expect = superpose([(amp, make_state(spec, final))])
            np.testing.assert_allclose(
                out.amplitudes, expect.amplitudes, atol=TOL, err_msg=str(init)
            )


class TestBathCoupling:
    def test_single_mode_survival_frozen(self):
        # survival amplitude of the photon is cos(G t): G=0.3, t=2.0
        spec = SubsystemSpec([("c", "cavity"), ("b0", "bathmode")])
        bath = BathSpec(couplings=(0.3,), detunings=(0.0,))
        h = bath_hamiltonian(spec, bath, "c", ("b0",))
        out = evolve(make_state(spec, {"c": 1, "b0": 0}), h, 2.0)
        t = out.tensor()
        assert t[1, 0] == pytest.approx(0.8253356149096783, abs=TOL)
        assert t[0, 1] == pytest.approx(-0.5646424733950354j, abs=TOL)

    def test_occupied_mode_blocks_leak(self):
        # hard-core bath: photon cannot leak into an already-excited mode
        spec = SubsystemSpec([("c", "cavity"), ("b0", "bathmode")])
        bath = BathSpec(couplings=(0.7,), detunings=(0.0,))
        h = bath_hamiltonian(spec, bath, "c", ("b0",))
        init = make_state(spec, {"c": 1, "b0": 1})
        out = evolve(init, h, 3.0)
        assert fidelity(out, init) == pytest.approx(1.0, abs=TOL)

    def test_multimode_norm_and_weights(self):
        spec = SubsystemSpec(
            [("c", "cavity"), ("b0", "bathmode"), ("b1", "bathmode")]
        )
        bath = BathSpec(couplings=(0.3, 0.5), detunings=(0.0, 1.2))
        h = bath_hamiltonian(spec, bath, "c", ("b0", "b1"))
        out = evolve(make_state(spec, {"c": 1, "b0": 0, "b1": 0}), h, 1.5)
        assert norm_squared(out) == pytest.approx(1.0, abs=TOL)
        # single-excitation sector only
        t = out.tensor()
        occupied = np.abs(t) > 0
        assert not occupied[0, 0, 0]
        assert not occupied[1, 1, 0] and not occupied[1, 0, 1]

    def test_bathspec_validation(self):
        with pytest.raises(ValueError, match="lengths"):
            BathSpec((0.1, 0.2), (0.0,))
        with pytest.raises(ValueError, match="between 0 and 6"):
            BathSpec((0.1,) * 7, (0.0,) * 7)
        with pytest.raises(ValueError, match="p_therm"):
            BathSpec((0.1,), (0.0,), p_therm=1.0)
        for value in (float("nan"), float("inf"), 10**400):
            with pytest.raises(ValueError, match="couplings must be finite"):
                BathSpec((0.1, value), (0.0, 0.0))
            with pytest.raises(ValueError, match="detunings must be finite"):
                BathSpec((0.1, 0.2), (value, 0.0))
        for value in ("0.1", True):
            with pytest.raises(ValueError, match="couplings must be a number"):
                BathSpec((value,), (0.0,))
            with pytest.raises(ValueError, match="detunings must be a number"):
                BathSpec((0.1,), (value,))

    def test_empty_bath_is_free(self):
        spec = SubsystemSpec([("c", "cavity")])
        h = bath_hamiltonian(spec, BathSpec((), ()), "c", ())
        init = make_state(spec, {"c": 1})
        out = evolve(init, h, 4.0)
        np.testing.assert_allclose(out.amplitudes, init.amplitudes, atol=TOL)

    def test_label_checks(self):
        spec = SubsystemSpec([("c", "cavity"), ("b0", "bathmode")])
        bath = BathSpec(couplings=(0.3, 0.4), detunings=(0.0, 0.0))
        with pytest.raises(ValueError, match="labels"):
            bath_hamiltonian(spec, bath, "c", ("b0",))


def commutator_norm(h):
    """||[H, N]||, with N the excitation number of H's own support."""
    own = SubsystemSpec([(l, h.spec.kind(l)) for l in h.support])
    hd, nd = h.dense(), excitation_number(own).dense()
    return np.linalg.norm(hd @ nd - nd @ hd, 2)


@st.composite
def _hamiltonians(draw):
    """A random drive Hamiltonian or a random bath Hamiltonian."""
    if draw(st.booleans()):
        g = draw(st.floats(0.0, 2.0))
        phase = draw(st.floats(-np.pi, np.pi))
        return raman_hamiltonian(one_atom_spec(), "q", "c", g, phase)
    modes = draw(
        st.lists(st.tuples(st.floats(0.0, 0.6), st.floats(-1.0, 1.0)), max_size=3)
    )
    spec = SubsystemSpec(
        [("c", "cavity")] + [(f"b{k}", "bathmode") for k in range(len(modes))]
    )
    bath = BathSpec(tuple(c for c, _ in modes), tuple(d for _, d in modes))
    labels = [f"b{k}" for k in range(len(modes))]
    return bath_hamiltonian(spec, bath, "c", labels)


@given(_hamiltonians())
def test_hamiltonians_conserve_excitation_number(h):
    assert h.is_hermitian()
    assert commutator_norm(h) <= 1e-12


class TestConservation:
    def test_drive_plus_bath_commutes_with_excitation_number(self):
        spec = SubsystemSpec(
            [("q", "atom"), ("c", "cavity"), ("b0", "bathmode"), ("b1", "bathmode")]
        )
        bath = BathSpec(couplings=(0.2, 0.4), detunings=(0.1, -0.3))
        for h in (
            raman_hamiltonian(spec, "q", "c", 1.0, 0.5),
            bath_hamiltonian(spec, bath, "c", ("b0", "b1")),
        ):
            assert commutator_norm(h) < TOL

    def test_sector_preserved_under_evolution(self):
        spec = SubsystemSpec([("q", "atom"), ("c", "cavity"), ("b0", "bathmode")])
        bath = BathSpec(couplings=(0.4,), detunings=(0.2,))
        background = bath_hamiltonian(spec, bath, "c", ("b0",))
        out = drive(make_state(spec, {"q": 1, "c": 0, "b0": 0}), "q", 1.0, 0.0, np.pi)
        out = evolve(out, background, 0.5)
        out = transfer(out, "q", "c", 1.0, 1.0)
        out = evolve(out, background, 0.5)
        # the state is a charge-1 eigenvector, and every occupied
        # configuration carries exactly one excitation
        n = excitation_number(spec)
        np.testing.assert_allclose(
            apply(n, out).amplitudes, out.amplitudes, atol=TOL
        )
        t = out.tensor()
        for idx in np.argwhere(np.abs(t) > TOL):
            q, c, b = idx
            charge = (1 if q == 1 else 0) + c + b
            assert charge == 1


class TestEvolveMechanics:
    def test_semigroup(self):
        spec = one_atom_spec()
        h = raman_hamiltonian(spec, "q", "c", 1.1, 0.4)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=spec.total_dim) + 1j * rng.normal(size=spec.total_dim)
        amps /= np.linalg.norm(amps)
        s = evolve(evolve(StateVector(spec, amps), h, 0.7), h, 1.9)
        s2 = evolve(StateVector(spec, amps), h, 2.6)
        np.testing.assert_allclose(s.amplitudes, s2.amplitudes, atol=1e-11)

    def test_propagator_is_unitary(self):
        spec = one_atom_spec()
        h = raman_hamiltonian(spec, "q", "c", 0.9, -0.2)
        u = propagator(spec, h, 1.3).dense()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=TOL)

    def test_non_hermitian_rejected(self):
        spec = one_atom_spec()
        bad = LinearOp(spec, ("q",), np.eye(3, k=1))
        with pytest.raises(ValueError, match="Hermitian"):
            propagator(spec, bad, 1.0)

    def test_gated_background_only_leaks_during_idle(self):
        # the transfers are exact and the photon sees the bath only in the
        # single dwell window between them
        spec = SubsystemSpec([("q", "atom"), ("c", "cavity"), ("b0", "bathmode")])
        g_bath, dwell = 0.31, 1.4
        bath = BathSpec(couplings=(g_bath,), detunings=(0.0,))
        out = transfer(make_state(spec, {"q": 1, "c": 0, "b0": 0}), "q", "c", 1.0)
        out = evolve(out, bath_hamiltonian(spec, bath, "c", ("b0",)), dwell)
        out = transfer(out, "q", "c", 1.0)
        # emit (-i), dwell survival cos(G dwell), reabsorb (-i)
        survived = out.tensor()[1, 0, 0]
        assert survived == pytest.approx(-np.cos(g_bath * dwell), abs=TOL)
        leaked = out.tensor()[2, 0, 1]
        assert abs(leaked) == pytest.approx(abs(np.sin(g_bath * dwell)), abs=TOL)

    def test_zero_coupling(self):
        spec = one_atom_spec()
        with pytest.raises(ValueError, match="pi time"):
            transfer(make_state(spec, {"q": 1, "c": 0}), "q", "c", 0.0)
        h = raman_hamiltonian(spec, "q", "c", 0.0)
        assert np.max(np.abs(h.dense())) == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            raman_hamiltonian(spec, "q", "c", -1.0)


class TestSingleAtomOps:
    @pytest.mark.parametrize(
        "name,images",
        [
            ("exchange_1r", {0: (0, 1.0), 1: (2, -1.0), 2: (1, -1.0)}),
            ("exchange_0r", {0: (2, 1.0), 1: (1, 1.0), 2: (0, 1.0)}),
            ("not_01", {0: (1, 1.0), 1: (0, 1.0), 2: (2, 1.0)}),
            ("phase_z", {0: (0, 1.0), 1: (1, -1.0), 2: (2, 1.0)}),
        ],
    )
    def test_action_tables(self, name, images):
        spec = one_atom_spec()
        op = single_atom_operator(spec, "q", name)
        for level, (target, amp) in images.items():
            out = apply(op, make_state(spec, {"q": level, "c": 0}))
            expect = superpose([(amp, make_state(spec, {"q": target, "c": 0}))])
            np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=TOL)

    def test_hadamard(self):
        spec = one_atom_spec()
        op = single_atom_operator(spec, "q", "hadamard_01")
        plus = apply(op, make_state(spec, {"q": 0, "c": 0}))
        t = plus.tensor()
        assert t[0, 0] == pytest.approx(1 / np.sqrt(2), abs=TOL)
        assert t[1, 0] == pytest.approx(1 / np.sqrt(2), abs=TOL)
        minus = apply(op, make_state(spec, {"q": 1, "c": 0}))
        t = minus.tensor()
        assert t[1, 0] == pytest.approx(-1 / np.sqrt(2), abs=TOL)
        r = apply(op, make_state(spec, {"q": 2, "c": 1}))
        assert fidelity(r, make_state(spec, {"q": 2, "c": 1})) == pytest.approx(
            1.0, abs=TOL
        )

    def test_unitary_kinds(self):
        spec = one_atom_spec()
        for name in ("exchange_1r", "exchange_0r", "not_01", "hadamard_01", "phase_z"):
            u = single_atom_operator(spec, "q", name).dense()
            np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=TOL)

    def test_state_level_dispatch(self):
        spec = one_atom_spec()
        s = make_state(spec, {"q": 1, "c": 0})
        out = single_atom_op(s, "q", "exchange_1r")
        expect = superpose([(-1.0, make_state(spec, {"q": 2, "c": 0}))])
        np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=TOL)
        pumped = optical_pump_r_to_1(out, "q")
        expect = superpose([(-1.0, make_state(spec, {"q": 1, "c": 0}))])
        np.testing.assert_allclose(pumped.amplitudes, expect.amplitudes, atol=TOL)

    def test_unknown_name(self):
        spec = one_atom_spec()
        with pytest.raises(ValueError, match="unknown single-atom op"):
            single_atom_operator(spec, "q", "teleport")


class TestOpticalPump:
    def test_relabels_r_as_1(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"q1": 2, "q2": 0, "c": 0})),
                (0.8, make_state(spec, {"q1": 0, "q2": 1, "c": 1})),
            ]
        )
        out = optical_pump_r_to_1(s, "q1")
        expect = superpose(
            [
                (0.6, make_state(spec, {"q1": 1, "q2": 0, "c": 0})),
                (0.8, make_state(spec, {"q1": 0, "q2": 1, "c": 1})),
            ]
        )
        np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=TOL)
        assert norm_squared(out) == pytest.approx(norm_squared(s), abs=TOL)

    def test_disjoint_rest_configs_allowed(self):
        # |1> on one branch and |r> on another branch may coexist as long as
        # the rest of the register distinguishes them
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"q1": 1, "q2": 0, "c": 0})),
                (0.8, make_state(spec, {"q1": 2, "q2": 0, "c": 1})),
            ]
        )
        out = optical_pump_r_to_1(s, "q1")
        expect = superpose(
            [
                (0.6, make_state(spec, {"q1": 1, "q2": 0, "c": 0})),
                (0.8, make_state(spec, {"q1": 1, "q2": 0, "c": 1})),
            ]
        )
        np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=TOL)

    def test_coherent_merge_refused(self):
        spec = two_atom_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"q1": 1, "q2": 0, "c": 0})),
                (0.8, make_state(spec, {"q1": 2, "q2": 0, "c": 0})),
            ]
        )
        with pytest.raises(ValueError, match="merge"):
            optical_pump_r_to_1(s, "q1")
