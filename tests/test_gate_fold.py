"""A gate application's `Sequence` against its nine steps.

One gate application is one `Sequence` of nine operators: two exchanges
on a2, four transfers and three dwell windows. On a register that is
just the application's own registers, as on a vacuum bath and in
thermal application 0, it steps through them; on a grown thermal
register it is one matmul with their fold. These tests hold both paths
against the nine steps run one by one on the same register, and check
the folded matrix.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityq.channels import DWELL, PULSE_RATE, NoiseConfig
from cavityq.dynamics import (
    BathSpec,
    bath_hamiltonian,
    evolve,
    single_atom_op,
    transfer,
)
from cavityq.hilbert import TOL_EXACT, SubsystemSpec, make_state
from cavityq.protocols import GateCircuit, _application


def nine_steps(circ, s, slot, identity_signed):
    """One application, step by step: the twin shifts both second-half
    drive phases by a half turn."""
    tail = np.pi if identity_signed else 0.0
    windows = circ.windows[slot]
    s = single_atom_op(s, "a2", "exchange_1r")
    pulses = (("a1", 0.0), ("a2", 0.0), ("a2", tail), ("a1", tail))
    for k, (atom, phase) in enumerate(pulses):
        if k:
            h = bath_hamiltonian(s.spec, circ.bath, "cav", windows[k - 1])
            s = evolve(s, h, DWELL)
        s = transfer(s, atom, "cav", PULSE_RATE, phase)
    return single_atom_op(s, "a2", "exchange_1r")


components = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def gate_noise(draw):
    """A thermal bath on the mode tuned to eta_local, or a vacuum bath on
    that mode or on one or two explicit modes."""
    eta_local = draw(st.floats(0.0, 0.3))
    if draw(st.booleans()):
        p_therm = draw(st.floats(0.01, 0.15))
        return NoiseConfig(backend="bath", eta_local=eta_local, p_therm=p_therm)
    n = draw(st.integers(0, 2))
    bath = None
    if n:
        couplings = draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n))
        detunings = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        bath = BathSpec(tuple(couplings), tuple(detunings))
    return NoiseConfig(backend="bath", eta_local=eta_local, bath=bath)


@given(
    noise=gate_noise(),
    amps=st.lists(components, min_size=4, max_size=4).filter(
        lambda a: np.linalg.norm(a) > 0.1
    ),
    levels=st.lists(st.integers(0, 1), min_size=12, max_size=12),
    slot=st.integers(0, 3),
    identity_signed=st.booleans(),
)
def test_application_matches_nine_steps(
    noise, amps, levels, slot, identity_signed
):
    circ = GateCircuit(noise, applications=4)
    # a vacuum run reuses one set of window modes; levels land on them
    modes = dict.fromkeys(m for app in circ.windows for w in app for m in w)
    levels = dict(zip(modes, levels))
    s = circ.initial_state(amps, levels)
    # earlier applications leave the cavity and earlier windows entangled
    for k in range(slot):
        s = circ.apply(circ.grow(s, k, levels), slot=k)
    s = circ.grow(s, slot, levels)
    assert s.spec == circ.specs[slot]
    whole = s.spec.labels == ("a1", "a2", "cav") + sum(circ.windows[slot], ())
    assert whole == (noise.p_therm == 0.0 or slot == 0)
    # the other sign first, so a fold cached under it would be reused
    for signed in (not identity_signed, identity_signed):
        got = circ.apply(s, slot=slot, identity_signed=signed)
        steps = nine_steps(circ, s, slot, signed)
        assert got.spec == steps.spec == s.spec
        if whole:
            assert np.array_equal(got.amplitudes, steps.amplitudes)
        else:
            np.testing.assert_allclose(
                got.amplitudes, steps.amplitudes, rtol=0, atol=1e-12
            )
    if not whole:
        fold = _application(
            circ.bath.couplings, circ.bath.detunings, identity_signed
        ).fold
        assert fold.shape == (144, 144)
        assert not fold.flags.writeable
        eye = np.eye(144)
        assert np.abs(fold.conj().T @ fold - eye).max() <= TOL_EXACT


def test_window_register_of_another_kind_is_rejected():
    # a cavity and a bath mode are both two-level, so an application
    # bound by label alone would run on either
    circ = GateCircuit(NoiseConfig(backend="bath", eta_local=0.1))
    entries = [
        (sub.label, "cavity" if sub.label == "w1m0" else sub.kind)
        for sub in circ.spec.subsystems
    ]
    spec = SubsystemSpec(entries)
    s = make_state(spec, dict.fromkeys(spec.labels, 0))
    with pytest.raises(ValueError, match="'w1m0' is not a bathmode"):
        circ.apply(s)
