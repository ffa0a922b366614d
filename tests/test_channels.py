"""Copy channels: branch structure, closed-form loss, backend agreement."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityq.channels import (
    DWELL,
    NoiseConfig,
    analytic_from_bath,
    check_stationarity,
    default_loss_bath,
    local_channel_apply,
    make_local_channel,
    make_transmission_channel,
    transmission_apply,
    validate_channel_pair,
)
from cavityq.dynamics import BathSpec, single_atom_op
from cavityq.hilbert import (
    SubsystemSpec,
    make_state,
    norm_squared,
    superpose,
)

TOL = 1e-12
CROSS_TOL = 1e-10

# default thermal preset for the stationarity scan: two modes, one detuned
SCAN_BATH = BathSpec(couplings=(0.25, 0.35), detunings=(0.0, 0.9))


def bath_pair_spec():
    return SubsystemSpec(
        [("i", "atom"), ("j", "atom"), ("c", "cavity"), ("b0", "bathmode")]
    )


def analytic_pair_spec():
    return SubsystemSpec(
        [("i", "atom"), ("j", "atom"), ("f0", "bathmode"), ("f1", "bathmode")]
    )


def bath_local(eta, p_therm=0.0, bath=None):
    noise = NoiseConfig(
        backend="bath", eta_local=eta, p_therm=p_therm, bath=bath
    )
    return make_local_channel(noise, "c", ("b0",))


class TestNoiseConfig:
    def test_defaults(self):
        n = NoiseConfig()
        assert n.backend == "analytic"
        assert n.eta_local == 0.0

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            NoiseConfig(backend="exact")

    def test_eta_range(self):
        with pytest.raises(ValueError, match="eta_local"):
            NoiseConfig(eta_local=1.0)
        with pytest.raises(ValueError, match="eta_trans"):
            NoiseConfig(eta_trans=-0.1)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0.1", "number"),
            (True, "number"),
            (None, "number"),
            (float("nan"), "finite"),
            (10**400, "finite"),
        ],
        ids=["string", "bool", "none", "nan", "huge_int"],
    )
    def test_scalars_are_finite_numbers(self, value, message):
        for name in ("eta_local", "delta", "phase_offset"):
            with pytest.raises(ValueError, match=f"{name} must be .*{message}"):
                NoiseConfig(**{name: value})

    def test_scalars_stored_as_floats(self):
        n = NoiseConfig(eta_local=0, phase_offset=np.float64(0.5))
        assert type(n.eta_local) is float and type(n.phase_offset) is float

    def test_thermal_needs_bath_backend(self):
        with pytest.raises(ValueError, match="thermal"):
            NoiseConfig(p_therm=0.1)

    def test_explicit_bath_needs_bath_backend(self):
        with pytest.raises(ValueError, match="explicit bath"):
            NoiseConfig(bath=BathSpec((0.1,), (0.0,)))

    def test_bath_backend_rejects_drive_offsets(self):
        with pytest.raises(ValueError, match="analytic-backend"):
            NoiseConfig(backend="bath", delta=0.1)
        with pytest.raises(ValueError, match="analytic-backend"):
            NoiseConfig(backend="bath", pulse_area_error=0.05)
        # the drive phase offset cancels exactly, both backends carry it
        NoiseConfig(backend="bath", phase_offset=0.4)


class TestLocalChannelBath:
    def test_two_branch_amplitudes_frozen(self):
        # eta = 0.2: survive sqrt(0.8), loss sqrt(0.2) with the mode excited
        ch = bath_local(0.2)
        s = make_state(bath_pair_spec(), {"i": 1, "j": 0, "c": 0, "b0": 0})
        t = local_channel_apply(s, ch, ("i", "j")).tensor()
        assert t[1, 1, 0, 0] == pytest.approx(0.8944271909999159, abs=TOL)
        assert t[1, 0, 0, 1] == pytest.approx(0.4472135954999579, abs=TOL)

    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.2])
    def test_preset_etas_two_branches_only(self, eta):
        ch = bath_local(eta)
        s = make_state(bath_pair_spec(), {"i": 1, "j": 0, "c": 0, "b0": 0})
        out = local_channel_apply(s, ch, ("i", "j"))
        t = out.tensor()
        assert abs(t[1, 1, 0, 0]) ** 2 == pytest.approx(1 - eta, abs=TOL)
        assert abs(t[1, 0, 0, 1]) ** 2 == pytest.approx(eta, abs=TOL)
        # no stray atomic configuration anywhere
        stray = np.abs(t).sum() - abs(t[1, 1, 0, 0]) - abs(t[1, 0, 0, 1])
        assert stray < TOL
        assert norm_squared(out) == pytest.approx(1.0, abs=TOL)

    def test_empty_source_is_untouched(self):
        ch = bath_local(0.2)
        s = make_state(bath_pair_spec(), {"i": 0, "j": 0, "c": 0, "b0": 0})
        t = local_channel_apply(s, ch, ("i", "j")).tensor()
        assert t[0, 0, 0, 0] == pytest.approx(1.0, abs=TOL)

    def test_parked_target_passthrough(self):
        # a target parked in |r> is disarmed for the whole window
        ch = bath_local(0.2)
        s = make_state(bath_pair_spec(), {"i": 0, "j": 2, "c": 0, "b0": 0})
        t = local_channel_apply(s, ch, ("i", "j")).tensor()
        assert t[0, 2, 0, 0] == pytest.approx(1.0, abs=TOL)

    def test_superposition_branches(self):
        ch = bath_local(0.2)
        spec = bath_pair_spec()
        s = superpose(
            [
                (0.6, make_state(spec, {"i": 0, "j": 0, "c": 0, "b0": 0})),
                (0.8, make_state(spec, {"i": 1, "j": 0, "c": 0, "b0": 0})),
            ]
        )
        t = local_channel_apply(s, ch, ("i", "j")).tensor()
        assert t[0, 0, 0, 0] == pytest.approx(0.6, abs=TOL)
        assert t[1, 1, 0, 0] == pytest.approx(0.8 * np.sqrt(0.8), abs=TOL)
        assert t[1, 0, 0, 1] == pytest.approx(0.8 * np.sqrt(0.2), abs=TOL)

    def test_tuning_matches_closed_form(self):
        for eta in (0.01, 0.05, 0.2):
            ch = bath_local(eta)
            assert ch.metadata["vacuum_survival"] == pytest.approx(
                np.sqrt(1 - eta), abs=TOL
            )

    def test_per_slot_modes_isolate_losses(self):
        # two back-to-back copies onto a shared target: the photon lost in
        # slot 0 must stay in slot 0's mode, otherwise it re-enters the
        # cavity during slot 1 and the armed target absorbs it
        noise = NoiseConfig(backend="bath", eta_local=0.2)
        ch = make_local_channel(noise, "c", ("b0", "b1"))
        spec = SubsystemSpec(
            [
                ("i", "atom"),
                ("j", "atom"),
                ("t", "atom"),
                ("c", "cavity"),
                ("b0", "bathmode"),
                ("b1", "bathmode"),
            ]
        )
        s = make_state(spec, {"i": 1, "j": 0, "t": 0, "c": 0, "b0": 0, "b1": 0})
        s = local_channel_apply(s, ch, ("i", "t"), slot=0)
        s = single_atom_op(s, "t", "exchange_1r")
        s = local_channel_apply(s, ch, ("j", "t"), slot=1)
        t = s.tensor()
        # parked copy rides through slot 1 exactly; the slot-0 loss photon
        # stays in b0 instead of turning into a false copy on the target
        assert abs(t[1, 0, 2, 0, 0, 0]) == pytest.approx(np.sqrt(0.8), abs=TOL)
        assert abs(t[1, 0, 0, 0, 1, 0]) == pytest.approx(np.sqrt(0.2), abs=TOL)
        assert abs(t).sum() == pytest.approx(
            np.sqrt(0.8) + np.sqrt(0.2), abs=TOL
        )
        with pytest.raises(ValueError, match="slot 1"):
            local_channel_apply(
                make_state(
                    bath_pair_spec(), {"i": 1, "j": 0, "c": 0, "b0": 0}
                ),
                bath_local(0.2),
                ("i", "j"),
                slot=1,
            )

    def test_domain_violations(self):
        ch = bath_local(0.1)
        spec = bath_pair_spec()
        with pytest.raises(ValueError, match=r"\|r>"):
            local_channel_apply(
                make_state(spec, {"i": 2, "j": 0, "c": 0, "b0": 0}), ch, ("i", "j")
            )
        with pytest.raises(ValueError, match="park"):
            local_channel_apply(
                make_state(spec, {"i": 0, "j": 1, "c": 0, "b0": 0}), ch, ("i", "j")
            )
        with pytest.raises(ValueError, match="differ"):
            local_channel_apply(
                make_state(spec, {"i": 0, "j": 0, "c": 0, "b0": 0}), ch, ("i", "i")
            )


class TestLocalChannelAnalytic:
    def test_systematic_scalars_frozen(self):
        # delta=0.3, area error 0.1, eta=0.05, unit pulse rate:
        # survive exp(-0.3 i pi), copy sqrt(0.95) cos^2(pi/20) exp(-0.3 i pi)
        ch = make_local_channel(
            NoiseConfig(delta=0.3, pulse_area_error=0.1, eta_local=0.05),
            "c",
            ("f0", "f1"),
        )
        assert ch.l0 == pytest.approx(
            0.5877852522924731 - 0.8090169943749475j, abs=TOL
        )
        assert ch.l1 == pytest.approx(
            0.5588822826216114 - 0.7692354694720468j, abs=TOL
        )
        assert ch.la == pytest.approx(0.3097214662850751, abs=TOL)
        assert ch.la.imag == 0.0 and ch.la.real >= 0.0
        assert abs(ch.l1) ** 2 + ch.la.real**2 == pytest.approx(
            1.0, abs=TOL
        )

    def test_flag_slots(self):
        ch = make_local_channel(
            NoiseConfig(eta_local=0.2), "c", ("f0", "f1")
        )
        spec = analytic_pair_spec()
        s = make_state(spec, {"i": 1, "j": 0, "f0": 0, "f1": 0})
        first = local_channel_apply(s, ch, ("i", "j"), slot=0)
        t = first.tensor()
        assert abs(t[1, 0, 1, 0]) ** 2 == pytest.approx(0.2, abs=TOL)
        stale = make_state(spec, {"i": 1, "j": 0, "f0": 1, "f1": 0})
        with pytest.raises(ValueError, match="already set"):
            local_channel_apply(stale, ch, ("i", "j"), slot=0)
        with pytest.raises(ValueError, match="slot"):
            local_channel_apply(s, ch, ("i", "j"), slot=2)

    def test_phase_offset_drops_out(self):
        a = make_local_channel(NoiseConfig(eta_local=0.1), "c", ("f0",))
        b = make_local_channel(
            NoiseConfig(eta_local=0.1, phase_offset=0.7), "c", ("f0",)
        )
        assert a.l1 == pytest.approx(b.l1, abs=TOL)
        assert a.l0 == pytest.approx(b.l0, abs=TOL)

    def test_needs_flags(self):
        with pytest.raises(ValueError, match="flag"):
            make_local_channel(NoiseConfig(eta_local=0.1), "c", ())

    def test_parked_emission_unrepresentable(self):
        # the scalar surgery has no rule for an occupied source feeding a
        # parked target; the bath wrapper, a plain unitary, allows it
        ch = make_local_channel(
            NoiseConfig(eta_local=0.1), "c", ("f0", "f1")
        )
        s = make_state(
            analytic_pair_spec(), {"i": 1, "j": 2, "f0": 0, "f1": 0}
        )
        with pytest.raises(ValueError, match="occupied source"):
            local_channel_apply(s, ch, ("i", "j"))


class TestTransmission:
    def test_bath_link_amplitudes(self):
        noise = NoiseConfig(backend="bath", eta_trans=0.2)
        ch = make_transmission_channel(
            noise, ("c1", "c2"), ("lnk0",)
        )
        spec = SubsystemSpec(
            [
                ("i", "atom"),
                ("j", "atom"),
                ("c1", "cavity"),
                ("c2", "cavity"),
                ("lnk0", "bathmode"),
            ]
        )
        s = make_state(spec, {"i": 1, "j": 0, "c1": 0, "c2": 0, "lnk0": 0})
        out = transmission_apply(s, ch, ("i", "j"))
        t = out.tensor()
        # copy lands with both cavities empty; loss sits in the link register
        assert t[1, 1, 0, 0, 0] == pytest.approx(np.sqrt(0.8), abs=TOL)
        assert abs(t[1, 0, 0, 0, 1]) == pytest.approx(np.sqrt(0.2), abs=TOL)
        stray = np.abs(t).sum() - abs(t[1, 1, 0, 0, 0]) - abs(t[1, 0, 0, 0, 1])
        assert stray < TOL

    def test_analytic_scalars(self):
        ch = make_transmission_channel(
            NoiseConfig(eta_trans=0.2), ("c1", "c2"), ("ft0",)
        )
        assert ch.l1 == pytest.approx(np.sqrt(0.8), abs=TOL)
        assert ch.la == pytest.approx(np.sqrt(0.2), abs=TOL)
        assert ch.l0 == pytest.approx(1.0, abs=TOL)

    def test_loss_hierarchy(self):
        trans = make_transmission_channel(
            NoiseConfig(eta_trans=0.2), ("c1", "c2"), ("ft",)
        )
        validate_channel_pair(
            make_local_channel(NoiseConfig(eta_local=0.05), "c", ("fl",)),
            trans,
        )
        with pytest.raises(ValueError, match="dominate"):
            validate_channel_pair(
                make_local_channel(
                    NoiseConfig(eta_local=0.3), "c", ("fl",)
                ),
                trans,
            )
        # lossless pair is fine: nothing to dominate
        validate_channel_pair(
            make_local_channel(NoiseConfig(), "c", ("fl",)),
            make_transmission_channel(NoiseConfig(), ("c1", "c2"), ("ft",)),
        )

    @pytest.mark.parametrize("backend", ["analytic", "bath"])
    @pytest.mark.parametrize("cavities", ["c", ("c",), ("c", "c"), ("a", "b", "c")])
    def test_cavities_must_be_a_distinct_pair(self, backend, cavities):
        noise = NoiseConfig(backend=backend, eta_trans=0.2)
        with pytest.raises(ValueError, match="cavities"):
            make_transmission_channel(noise, cavities, ("f0",))


class TestCrossBackend:
    def test_twin_matches_bath_local(self):
        ch = bath_local(0.2)
        twin = analytic_from_bath(ch, ("f0",))
        spec_b = bath_pair_spec()
        spec_a = SubsystemSpec([("i", "atom"), ("j", "atom"), ("f0", "bathmode")])
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            sb = superpose(
                [
                    (a[0], make_state(spec_b, {"i": 0, "j": 0, "c": 0, "b0": 0})),
                    (a[1], make_state(spec_b, {"i": 1, "j": 0, "c": 0, "b0": 0})),
                ]
            )
            sa = superpose(
                [
                    (a[0], make_state(spec_a, {"i": 0, "j": 0, "f0": 0})),
                    (a[1], make_state(spec_a, {"i": 1, "j": 0, "f0": 0})),
                ]
            )
            tb = local_channel_apply(sb, ch, ("i", "j")).tensor()
            ta = local_channel_apply(sa, twin, ("i", "j")).tensor()
            # survive amplitudes agree including phase
            assert ta[0, 0, 0] == pytest.approx(tb[0, 0, 0, 0], abs=CROSS_TOL)
            assert ta[1, 1, 0] == pytest.approx(tb[1, 1, 0, 0], abs=CROSS_TOL)
            # loss branches agree in weight per atomic configuration
            assert abs(ta[1, 0, 1]) == pytest.approx(
                abs(tb[1, 0, 0, 1]), abs=CROSS_TOL
            )

    def test_twin_matches_bath_transmission(self):
        noise = NoiseConfig(backend="bath", eta_trans=0.35)
        ch = make_transmission_channel(
            noise, ("c1", "c2"), ("lnk0",)
        )
        twin = analytic_from_bath(ch, ("f0",))
        assert twin.l1 == pytest.approx(np.sqrt(0.65), abs=CROSS_TOL)
        assert twin.la == pytest.approx(np.sqrt(0.35), abs=CROSS_TOL)

    def test_twin_closes_trace_for_custom_bath(self):
        ch = bath_local(0.0, bath=SCAN_BATH)
        twin = analytic_from_bath(ch, ("f0",))
        # detuned second mode drags the copy amplitude off the real axis
        assert abs(twin.l1.imag) > 1e-3
        assert abs(twin.l1) ** 2 + twin.la.real**2 == pytest.approx(
            1.0, abs=TOL
        )


def _vacuum_amplitudes(apply_fn, ch, env):
    """Survive and copy amplitudes of 0.6|0> + 0.8|1> sent from i to j,
    read where every ``env`` register is back in vacuum."""
    spec = SubsystemSpec([("i", "atom"), ("j", "atom")] + env)
    vac = {label: 0 for label, _ in env}
    s = superpose(
        [
            (0.6, make_state(spec, {"i": 0, "j": 0, **vac})),
            (0.8, make_state(spec, {"i": 1, "j": 0, **vac})),
        ]
    )
    t = apply_fn(s, ch, ("i", "j")).tensor()
    return t[0, 0].flat[0], t[1, 1].flat[0]


@given(
    modes=st.lists(
        st.tuples(st.floats(0.0, 0.6), st.floats(-1.0, 1.0)),
        min_size=1,
        max_size=3,
    ),
    eta_local=st.floats(0.0, 0.9),
    eta_trans=st.floats(0.0, 0.9),
    phase_offset=st.floats(-np.pi, np.pi),
)
def test_vacuum_trace_closure(modes, eta_local, eta_trans, phase_offset):
    noise = NoiseConfig(
        backend="bath",
        eta_local=eta_local,
        eta_trans=eta_trans,
        phase_offset=phase_offset,
    )
    explicit = make_local_channel(
        replace(noise, bath=BathSpec(*zip(*modes))), "c", ("b",)
    )
    tuned = make_local_channel(noise, "c", ("b0",))
    link = make_transmission_channel(
        noise, ("c1", "c2"), ("lnk0",)
    )
    cases = zip(
        (explicit, tuned, link),
        (local_channel_apply, local_channel_apply, transmission_apply),
    )
    for ch, apply_fn in cases:
        l0, l1, la = ch.l0, ch.l1, ch.la
        vacuum = np.zeros(l0.shape[0], dtype=complex)
        vacuum[0] = 1.0
        # the loss branch takes exactly the weight the copy misses
        closure = np.linalg.norm(l1[:, 0]) ** 2 + np.linalg.norm(la[:, 0]) ** 2
        assert closure == pytest.approx(1.0, abs=TOL)
        # an empty source leaves the environment in vacuum, untouched
        np.testing.assert_array_equal(l0[:, 0], vacuum)
        twin = analytic_from_bath(ch, ("f0",))
        bath_amps = _vacuum_amplitudes(apply_fn, ch, list(ch.registers))
        twin_amps = _vacuum_amplitudes(apply_fn, twin, [("f0", "bathmode")])
        assert twin_amps == pytest.approx(bath_amps, abs=CROSS_TOL)


class TestStationarity:
    def test_vacuum_presets_vanish(self):
        for eta in (0.01, 0.05, 0.2):
            assert check_stationarity(bath_local(eta)) < 1e-14
        trans = make_transmission_channel(
            NoiseConfig(backend="bath", eta_trans=0.2),
            ("c1", "c2"),
            ("lnk0",),
        )
        assert check_stationarity(trans) < 1e-14

    def test_scalar_presets_vanish(self):
        ch = make_local_channel(
            NoiseConfig(delta=0.3, pulse_area_error=0.1, eta_local=0.05),
            "c",
            ("f0",),
        )
        assert check_stationarity(ch) == 0.0

    def test_single_resonant_mode_commutes_even_thermally(self):
        # one mode cannot move an excitation anywhere: both environment
        # operators are diagonal in its occupation basis, so thermal
        # occupation alone does not break slot-order independence
        ch = bath_local(0.05, p_therm=0.1)
        assert check_stationarity(ch) < 1e-14

    def test_default_thermal_preset_frozen(self):
        ch = bath_local(0.0, p_therm=0.1, bath=SCAN_BATH)
        dev = check_stationarity(ch)
        assert dev == pytest.approx(0.0056339854047570397, rel=1e-9)
        assert dev > 1e-4

    def test_deviation_monotone_in_occupation(self):
        devs = [
            check_stationarity(bath_local(0.0, p_therm=p, bath=SCAN_BATH))
            for p in (0.0, 0.02, 0.05, 0.1)
        ]
        assert devs[0] < 1e-14
        assert devs[1] == pytest.approx(0.0026291931888866183, rel=1e-9)
        assert devs[2] == pytest.approx(0.0040929955047865063, rel=1e-9)
        for lo, hi in zip(devs, devs[1:]):
            assert hi >= lo

    def test_unequal_durations_closed_form(self):
        # vacuum, one resonant mode: the deviation is exactly the survival
        # amplitude mismatch |cos(G d2) - cos(G d1)|
        eta = 0.2
        ch = bath_local(eta)
        g = np.arcsin(np.sqrt(eta))
        d1, d2 = 1.0, 1.7
        dev = check_stationarity(ch, durations=(d1, d2))
        assert dev == pytest.approx(abs(np.cos(g * d2) - np.cos(g * d1)), abs=1e-11)

    def test_gap_shifts_thermal_deviation(self):
        ch = bath_local(0.0, p_therm=0.1, bath=SCAN_BATH)
        gapped = check_stationarity(ch, start_times=(0.0, 1.9))
        assert gapped == pytest.approx(0.10980463540870745, rel=1e-9)
        with pytest.raises(ValueError, match="overlap"):
            check_stationarity(ch, start_times=(0.0, 0.5))

    def test_nan_gap_rejected(self):
        # NaN fails both gap comparisons; unchecked, it would read as no gap
        bath = bath_local(0.0, p_therm=0.1, bath=SCAN_BATH)
        analytic = make_local_channel(NoiseConfig(), "c", ("f0",))
        for ch in (bath, analytic):
            with pytest.raises(ValueError, match="finite"):
                check_stationarity(ch, start_times=(0.0, np.nan))

    @pytest.mark.parametrize(
        "durations",
        ["12", (True, 2), (1.0, 10**400)],
        ids=["string", "bool", "huge_int"],
    )
    def test_timing_values_are_finite_numbers(self, durations):
        # a string or a bool once read as (1.0, 2.0)
        ch = bath_local(0.2)
        with pytest.raises(ValueError, match="durations must be"):
            check_stationarity(ch, durations=durations)
        with pytest.raises(ValueError, match="start_times must be"):
            check_stationarity(ch, start_times=durations)

    def test_link_rejects_timing(self):
        # a link has no dwell window, so no timing can change its answer
        link = make_transmission_channel(
            NoiseConfig(backend="bath", eta_trans=0.2),
            ("c1", "c2"),
            ("lnk0",),
        )
        for timing in (
            {"durations": (1.0, 5.0)},
            {"start_times": (0.0, 7.0)},
            {"durations": (0.0, 0.0), "start_times": (0.0, 0.0)},
        ):
            with pytest.raises(ValueError, match="link"):
                check_stationarity(link, **timing)
        assert check_stationarity(link) < 1e-14

    def test_requires_channel_type(self):
        with pytest.raises(TypeError, match="Channel"):
            check_stationarity("not a channel")


def test_local_blocks_shared_across_occupations():
    # the dwell does not depend on p_therm: one read-only build serves
    # every occupation, and each channel keeps its own bath
    chans = [bath_local(0.0, p_therm=p, bath=SCAN_BATH) for p in (0.0, 0.05)]
    for name in ("l0", "l1", "la"):
        first, second = (getattr(ch, name) for ch in chans)
        assert first is second
        assert not first.flags.writeable
    assert [ch.metadata["bath"].p_therm for ch in chans] == [0.0, 0.05]


@pytest.mark.parametrize(
    "link, wrong",
    [
        (False, ("c", "bathmode")),
        (False, ("b0", "cavity")),
        (True, ("c1", "bathmode")),
        (True, ("c2", "bathmode")),
        (True, ("l0", "cavity")),
    ],
)
def test_bath_apply_checks_register_kinds(link, wrong):
    # cavities and bath modes are both two-level, so a copy bound to its
    # registers by label alone would run on either; each slot register
    # must have the kind the channel lists for it
    noise = NoiseConfig(backend="bath", eta_local=0.1, eta_trans=0.2)
    if link:
        ch = make_transmission_channel(noise, ("c1", "c2"), ("l0",))
        apply_copy = transmission_apply
    else:
        ch = make_local_channel(noise, "c", ("b0",))
        apply_copy = local_channel_apply
    registers = dict(ch.registers)
    label, kind = wrong
    assert registers[label] != kind
    registers[label] = kind
    spec = SubsystemSpec([("i", "atom"), ("j", "atom")] + list(registers.items()))
    s = make_state(spec, {"i": 1, "j": 0, **{r: 0 for r in registers}})
    with pytest.raises(ValueError, match=f"{label!r} is not a"):
        apply_copy(s, ch, ("i", "j"))


class TestDefaultLossBath:
    def test_closed_form_coupling(self):
        b = default_loss_bath(0.2)
        assert b.couplings[0] == pytest.approx(
            np.arcsin(np.sqrt(0.2)) / DWELL, abs=TOL
        )
        assert b.detunings == (0.0,)

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            default_loss_bath(1.0)
