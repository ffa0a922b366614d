"""Bath copies as one folded unitary against their pulse steps.

On the bath backend a copy channel applies its recipe's pulse sequence
folded into one unitary on the atoms and the slot's registers, then
repumps the source. These tests keep the step-by-step sequence on the
full state as the reference and hold both channel kinds to it over
drawn losses, baths, phase offsets, slots, environment levels and
inputs, an occupied source with a parked target among them.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cavityq import channels
from cavityq.channels import (
    DWELL,
    PULSE_RATE,
    NoiseConfig,
    local_channel_apply,
    loss_bath,
    make_local_channel,
    make_transmission_channel,
    transmission_apply,
)
from cavityq.dynamics import (
    BathSpec,
    bath_hamiltonian,
    evolve,
    optical_pump_r_to_1,
    single_atom_op,
    transfer,
)
from cavityq.hilbert import LinearOp, SubsystemSpec, apply, make_state, superpose

# spectator atom between the two copy atoms, so the support is not adjacent
ATOMS = [("i", "atom"), ("x", "atom"), ("j", "atom")]
# (source, target) levels of the input: the target fresh or parked
PAIRS = ((0, 0), (0, 2), (1, 0), (1, 2))


def local_steps(s, src, tgt, cavity, modes, bath, phase_offset, dwell):
    """Arm target, emit, dwell against the bath, reabsorb, restore source."""
    s = single_atom_op(s, tgt, "exchange_0r")
    s = transfer(s, src, cavity, PULSE_RATE, phase_offset)
    if dwell > 0.0:
        s = evolve(s, bath_hamiltonian(s.spec, bath, cavity, modes), dwell)
    s = transfer(s, tgt, cavity, PULSE_RATE, phase_offset)
    s = single_atom_op(s, src, "exchange_1r")
    s = single_atom_op(s, tgt, "exchange_0r")
    return optical_pump_r_to_1(s, src)


def link_steps(s, src, tgt, cav_s, cav_t, link, eta, phase_offset):
    """Emit at the source cavity, route through the lossy link, reabsorb."""
    c, r = np.sqrt(1.0 - eta), np.sqrt(eta)
    split = [[1, 0, 0, 0], [0, c, r, 0], [0, -r, c, 0], [0, 0, 0, -1]]
    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    s = single_atom_op(s, tgt, "exchange_0r")
    s = transfer(s, src, cav_s, PULSE_RATE, phase_offset)
    s = apply(LinearOp(s.spec, (cav_s, link), split), s)
    s = apply(LinearOp(s.spec, (cav_s, cav_t), swap), s)
    s = transfer(s, tgt, cav_t, PULSE_RATE, phase_offset)
    s = single_atom_op(s, src, "exchange_1r")
    s = single_atom_op(s, tgt, "exchange_0r")
    return optical_pump_r_to_1(s, src)


def input_state(ch, amps, spectator, levels):
    """``amps`` on PAIRS of (i, j), every cavity empty, the other
    registers of the channel in ``levels``."""
    spec = SubsystemSpec(ATOMS + list(ch.registers))
    env = {label: 0 for label, _ in ch.registers}
    env.update(zip((l for l, k in ch.registers if k == "bathmode"), levels))
    return superpose(
        [
            (a, make_state(spec, {"i": p, "j": q, "x": spectator, **env}))
            for a, (p, q) in zip(amps, PAIRS)
        ]
    )


def assert_close(got, want):
    assert got.spec == want.spec
    np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-12)


components = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)
inputs = st.lists(components, min_size=4, max_size=4).filter(
    lambda a: np.linalg.norm(a) > 0.1
)
phases = st.floats(-np.pi, np.pi)


@st.composite
def baths(draw):
    """None for the mode tuned to eta_local, else 1 to 3 explicit modes."""
    n = draw(st.integers(0, 3))
    if n == 0:
        return None
    couplings = draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n))
    detunings = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return BathSpec(tuple(couplings), tuple(detunings))


@given(
    eta_local=st.floats(0.0, 0.5),
    bath=baths(),
    phase_offset=phases,
    slot=st.integers(0, 1),
    amps=inputs,
    spectator=st.integers(0, 2),
    levels=st.lists(st.integers(0, 1), min_size=6, max_size=6),
)
def test_local_copy_matches_pulse_steps(
    eta_local, bath, phase_offset, slot, amps, spectator, levels
):
    noise = NoiseConfig(
        backend="bath", eta_local=eta_local, phase_offset=phase_offset, bath=bath
    )
    ch = make_local_channel(noise, "c", ("b0", "b1"))
    s = input_state(ch, np.asarray(amps) / np.linalg.norm(amps), spectator, levels)
    n = loss_bath(noise).n_modes
    modes = (f"b{slot}",) if n == 1 else tuple(f"b{slot}m{k}" for k in range(n))
    want = local_steps(
        s, "i", "j", "c", modes, loss_bath(noise), phase_offset, DWELL
    )
    assert_close(local_channel_apply(s, ch, ("i", "j"), slot=slot), want)


@given(
    eta_trans=st.floats(0.0, 0.9),
    phase_offset=phases,
    slot=st.integers(0, 1),
    amps=inputs,
    spectator=st.integers(0, 2),
    levels=st.lists(st.integers(0, 1), min_size=2, max_size=2),
)
def test_link_copy_matches_pulse_steps(
    eta_trans, phase_offset, slot, amps, spectator, levels
):
    noise = NoiseConfig(
        backend="bath", eta_trans=eta_trans, phase_offset=phase_offset
    )
    ch = make_transmission_channel(noise, ("c1", "c2"), ("l0", "l1"))
    s = input_state(ch, np.asarray(amps) / np.linalg.norm(amps), spectator, levels)
    want = link_steps(s, "i", "j", "c1", "c2", f"l{slot}", eta_trans, phase_offset)
    assert_close(transmission_apply(s, ch, ("i", "j"), slot=slot), want)


def test_one_apply_and_one_repump_per_use(monkeypatch):
    noise = NoiseConfig(backend="bath", eta_local=0.1, eta_trans=0.2)
    cases = (
        (make_local_channel(noise, "c", ("b0",)), local_channel_apply),
        (make_transmission_channel(noise, ("c1", "c2"), ("l0",)), transmission_apply),
    )
    calls = []
    for name in ("apply", "optical_pump_r_to_1"):
        original = getattr(channels, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(channels, name, counted)
    for ch, apply_copy in cases:
        s = input_state(ch, (0.6, 0.0, 0.8, 0.0), 0, (0, 0))
        calls.clear()
        apply_copy(s, ch, ("i", "j"))
        assert calls == ["apply", "optical_pump_r_to_1"]
