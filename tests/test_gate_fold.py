"""The folded gate application against its nine steps.

On a grown thermal register, one gate application is one matmul with a
matrix folded from its nine steps: two exchanges on a2, four transfers
and three dwell windows. These tests hold the fold against those steps,
run one by one on the same register, and check the folded matrix.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cavityq.channels import DWELL, PULSE_RATE, NoiseConfig
from cavityq.dynamics import bath_hamiltonian, evolve, single_atom_op, transfer
from cavityq.hilbert import TOL_EXACT
from cavityq.protocols import GateCircuit, _folded_application


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


@given(
    eta_local=st.floats(0.0, 0.3),
    p_therm=st.floats(0.01, 0.15),
    amps=st.lists(components, min_size=4, max_size=4).filter(
        lambda a: np.linalg.norm(a) > 0.1
    ),
    levels=st.lists(st.integers(0, 1), min_size=12, max_size=12),
    slot=st.integers(1, 3),
    identity_signed=st.booleans(),
)
def test_fold_matches_nine_steps_on_grown_registers(
    eta_local, p_therm, amps, levels, slot, identity_signed
):
    noise = NoiseConfig(backend="bath", eta_local=eta_local, p_therm=p_therm)
    circ = GateCircuit(noise, applications=4)
    modes = [m for app in circ.windows for w in app for m in w]
    levels = dict(zip(modes, levels))
    s = circ.initial_state(amps, levels)
    # earlier applications leave the cavity and earlier windows entangled
    for k in range(slot):
        s = circ.apply(circ.grow(s, k, levels), slot=k)
    s = circ.grow(s, slot, levels)
    assert s.spec == circ.specs[slot]
    # the other sign first, so a fold cached under it would be reused
    for signed in (not identity_signed, identity_signed):
        folded = circ.apply(s, slot=slot, identity_signed=signed)
        steps = nine_steps(circ, s, slot, signed)
        assert folded.spec == steps.spec == s.spec
        np.testing.assert_allclose(
            folded.amplitudes, steps.amplitudes, rtol=0, atol=1e-12
        )
    fold = _folded_application(
        circ.bath.couplings, circ.bath.detunings, identity_signed
    )
    assert fold.shape == (144, 144)
    assert not fold.flags.writeable
    eye = np.eye(144)
    assert np.abs(fold.conj().T @ fold - eye).max() <= TOL_EXACT
