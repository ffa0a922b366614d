"""The thermal purified gate's growing register against a full one.

Thermal runs give each gate application three fresh window modes, and
each application's modes join the register only when it starts. These
tests hold that against the full-register run it replaced, which puts
all twelve window modes in the register before the first pulse, and
check the register size during every application.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cavityq.channels import NoiseConfig
from cavityq.dynamics import single_atom_op
from cavityq.hilbert import fidelity, make_state, superpose
from cavityq.protocols import (
    GATE_FRAME_ATOMS,
    QUBIT_VS_PARKED,
    GateCircuit,
    SampleChooser,
    _thermal_assignments,
    measure_via,
    run_gate,
)


def full_register_run_gate(noise, chooser, amps):
    """The purified gate with every window mode in the register from the
    start: (ok, fidelity, state)."""
    circ = GateCircuit(noise, applications=4)
    amps = np.asarray(amps, dtype=complex)
    amps = amps / np.linalg.norm(amps)
    base = {label: 0 for label in circ.spec.labels}
    groups = [w for app in circ.windows for w in app]
    base.update(_thermal_assignments(chooser, circ.bath, groups, "gate"))
    s = superpose(
        [
            (amps[k], make_state(circ.spec, {**base, "a1": v1, "a2": v2}))
            for k, (v1, v2) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1)))
            if abs(amps[k]) > 0.0
        ]
    )
    for k in range(4):
        s = circ.apply(s, slot=k, identity_signed=(k == 3))
        idx, s = measure_via(chooser, s, "a1", QUBIT_VS_PARKED, f"cp{k}")
        if idx == 1:
            return False, None, s
        s = single_atom_op(s, GATE_FRAME_ATOMS[k], "not_01")
    s = single_atom_op(s, "a1", "phase_z")
    return True, fidelity(s, circ.ideal_target(amps)), s


def recorded_run_gate(noise, chooser, amps):
    """`run_gate`, recording (slot, register size) for every application."""
    sizes = []
    original = GateCircuit.apply

    def recording(self, s, **kwargs):
        sizes.append((kwargs["slot"], s.amplitudes.size))
        return original(self, s, **kwargs)

    with patch.object(GateCircuit, "apply", recording):
        rec = run_gate(noise, chooser, amps=amps)
    return rec, sizes


components = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@given(
    eta_local=st.floats(0.0, 0.3),
    p_therm=st.floats(0.01, 0.15),
    amps=st.lists(components, min_size=4, max_size=4).filter(
        lambda a: np.linalg.norm(a) > 0.1
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_growing_register_matches_full_register(eta_local, p_therm, amps, seed):
    noise = NoiseConfig(backend="bath", eta_local=eta_local, p_therm=p_therm)
    chooser = SampleChooser(np.random.default_rng(seed))
    rec, sizes = recorded_run_gate(noise, chooser, amps)
    ref_chooser = SampleChooser(np.random.default_rng(seed))
    ok, fid, state = full_register_run_gate(noise, ref_chooser, amps)

    assert rec.ok == ok
    assert [(c.name, c.index) for c in chooser.trace] == [
        (c.name, c.index) for c in ref_chooser.trace
    ]
    assert rec.state.spec == state.spec == GateCircuit(noise, applications=4).spec
    np.testing.assert_allclose(
        rec.state.amplitudes, state.amplitudes, rtol=0, atol=1e-12
    )
    if ok:
        assert abs(rec.fidelity - fid) <= 1e-12
    else:
        assert rec.fidelity is None
    # application k runs on the atoms, the cavity and 3(k+1) window modes
    assert sizes == [(k, 144 * 8**k) for k in range(len(sizes))]
    # one checkpoint per application; a failed run stops at the one that
    # caught it
    cps = [c.index for c in chooser.trace if c.name.startswith("cp")]
    assert cps == ([0] * 4 if ok else [0] * (len(cps) - 1) + [1])
    assert len(sizes) == len(cps)


def test_vacuum_bath_keeps_one_register():
    noise = NoiseConfig(backend="bath", eta_local=0.05)
    circ = GateCircuit(noise, applications=4)
    assert len(set(circ.specs)) == 1 and circ.specs[0] is circ.spec
    assert circ.draw_levels(None) == {}
    rec, sizes = recorded_run_gate(
        noise, SampleChooser(np.random.default_rng(1)), (0.5, 0.5, 0.5, 0.5)
    )
    assert sizes == [(k, circ.spec.total_dim) for k in range(len(sizes))]


def test_thermal_registers_are_prefixes():
    noise = NoiseConfig(backend="bath", eta_local=0.05, p_therm=0.05)
    circ = GateCircuit(noise, applications=4)
    assert [spec.total_dim for spec in circ.specs] == [144 * 8**k for k in range(4)]
    for shorter, longer in zip(circ.specs, circ.specs[1:]):
        assert longer.subsystems[: len(shorter.subsystems)] == shorter.subsystems
    assert circ.spec is circ.specs[-1]
