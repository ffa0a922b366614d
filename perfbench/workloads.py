"""Seeded workload generators for the cavityq benchmark.

Standard library only: the orchestrator imports this module without
numpy or the package. Every workload is a closed loop over one client.
The warm-up operation (index 0) always has the workload's first kind, so
set-up time measures the same kind of operation for every seed. After it,
operations come in rotations: each rotation holds one operation of every
kind, in a seeded order. The seed also fixes every config seed and every
noise draw, so the same seed gives the same inputs.
"""

import json
import random
from dataclasses import dataclass

JM_AMPS = [[0.6, 0.0], [0.0, 0.8]]
GATE_AMPS = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]

# bath of the shipped stationarity preset: two modes, one detuned
SCAN_BATH = {"couplings": [0.25, 0.35], "detunings": [0.0, 0.9]}


@dataclass(frozen=True)
class Kind:
    """One kind of operation: a CLI command on a config, or an exact query.

    ``grid`` lists the noise settings Monte Carlo kinds draw from, so
    configs recur; exact kinds draw fresh continuous values instead.
    """

    name: str
    protocol: str
    command: str  # "run", "sweep", "enumerate" or "process_fidelity"
    backend: str
    trials: int = 1
    check: bool = True
    max_attempts: int = 25
    grid: tuple = ()


@dataclass(frozen=True)
class Op:
    index: int
    rotation: int  # -1 for the warm-up operation
    kind: Kind
    doc: dict  # the config document written for the program

    @property
    def noise_key(self):
        """What repeat_share compares: protocol, noise block and sweep grid."""
        doc = self.doc
        return json.dumps([doc["protocol"], doc["noise"], doc.get("sweep")], sort_keys=True)


def _epr_grid(backend):
    # validate_channel_pair needs eta_trans > eta_local
    pairs = ((0.1, 0.02), (0.2, 0.05), (0.3, 0.05), (0.3, 0.1))
    return tuple({"backend": backend, "eta_trans": t, "eta_local": l} for t, l in pairs)


def _eta_grid(backend, etas):
    return tuple({"backend": backend, "eta_local": e} for e in etas)


MC_ANALYTIC = (
    Kind("jm", "joint_measure", "run", "analytic", trials=40,
         grid=_eta_grid("analytic", (0.02, 0.05, 0.1, 0.2))),
    Kind("epr", "epr", "run", "analytic", trials=16, grid=_epr_grid("analytic")),
    Kind("gate", "gate_purified", "run", "analytic", trials=20,
         grid=_eta_grid("analytic", (0.02, 0.05, 0.1))
         + ({"backend": "analytic", "eta_local": 0.05, "delta": 0.03},
            {"backend": "analytic", "eta_local": 0.05, "pulse_area_error": 0.02})),
)

# jm and the gate herald once per trial, and --check fails a run with no
# heralded trial: eta and trial counts keep that below 1e-5 per operation
MC_BATH = (
    Kind("jm", "joint_measure", "run", "bath", trials=3,
         grid=_eta_grid("bath", (0.005, 0.01, 0.02))),
    Kind("epr", "epr", "run", "bath", trials=2, grid=_epr_grid("bath")),
    Kind("gate", "gate_purified", "run", "bath", trials=4,
         grid=_eta_grid("bath", (0.002, 0.005, 0.01))
         + ({"backend": "bath", "eta_local": 0.01, "phase_offset": 0.3},)),
)

_P_THERM = (0.02, 0.05, 0.1)

# trial counts put jm, epr and the gate near one operation cost, so the
# median latency sits inside one cluster, not on the edge between two
THERMAL = (
    Kind("jm", "joint_measure", "run", "bath", trials=3, check=False,
         grid=tuple({"backend": "bath", "eta_local": e, "p_therm": p}
                    for e in (0.05, 0.1) for p in _P_THERM)),
    Kind("epr", "epr", "run", "bath", trials=4, check=False,
         grid=tuple({"backend": "bath", "eta_trans": 0.2, "eta_local": 0.05, "p_therm": p}
                    for p in _P_THERM)),
    Kind("gate", "gate_purified", "run", "bath", trials=1, check=False,
         grid=tuple({"backend": "bath", "eta_local": 0.05, "p_therm": p} for p in _P_THERM)),
    Kind("scan", "stationarity_scan", "sweep", "bath"),
)

EXACT = (
    Kind("gate_fidelity_analytic", "gate_purified", "process_fidelity", "analytic"),
    Kind("epr_analytic", "epr", "enumerate", "analytic", max_attempts=25),
    Kind("epr_bath", "epr", "enumerate", "bath", max_attempts=2),
    Kind("jm_thermal", "joint_measure", "enumerate", "bath"),
    Kind("gate_fidelity_bath", "gate_purified", "process_fidelity", "bath"),
)

WORKLOADS = {
    "mc_analytic": MC_ANALYTIC,
    "mc_bath": MC_BATH,
    "exact": EXACT,
    "thermal": THERMAL,
}


def _fresh_noise(kind, rng):
    """Continuous noise draws for exact queries: no config repeats."""
    if kind.protocol == "epr":
        eta_trans = rng.uniform(0.1, 0.4)
        return {"backend": kind.backend, "eta_trans": eta_trans,
                "eta_local": rng.uniform(0.01, 0.08)}
    if kind.protocol == "joint_measure":
        return {"backend": kind.backend, "eta_local": rng.uniform(0.02, 0.2),
                "p_therm": rng.uniform(0.01, 0.1)}
    noise = {"backend": kind.backend, "eta_local": rng.uniform(0.01, 0.2)}
    if kind.backend == "analytic":
        noise["delta"] = rng.uniform(-0.05, 0.05)
    return noise


def _scan_doc(rng, seed):
    # nondecreasing p_therm grid from vacuum: --check requires both
    grid = [0.0] + sorted(round(rng.uniform(0.005, 0.1), 6) for _ in range(3))
    return {
        "protocol": "stationarity_scan",
        "trials": 1,
        "seed": seed,
        "noise": {"backend": "bath", "eta_local": 0.2, "bath": SCAN_BATH},
        "protocol_params": {},
        "sweep": {"parameter": "p_therm", "values": grid},
    }


def _doc(kind, rng):
    seed = rng.randrange(2**63)
    if kind.protocol == "stationarity_scan":
        return _scan_doc(rng, seed)
    if kind.grid:
        noise = dict(rng.choice(kind.grid))
    else:
        noise = _fresh_noise(kind, rng)
    doc = {
        "protocol": kind.protocol,
        "trials": kind.trials,
        "seed": seed,
        "max_attempts": kind.max_attempts,
        "noise": noise,
        "protocol_params": {},
    }
    if kind.protocol == "joint_measure":
        doc["protocol_params"]["amps"] = JM_AMPS
    elif kind.protocol == "gate_purified":
        doc["protocol_params"]["amps"] = GATE_AMPS
    return doc


def plan(workload, seed):
    """Endless operation stream: warm-up, then seeded rotations."""
    kinds = WORKLOADS[workload]
    rng = random.Random(f"cavityq-bench:{workload}:{seed}")
    yield Op(0, -1, kinds[0], _doc(kinds[0], rng))
    index = 1
    rotation = 0
    while True:
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            yield Op(index, rotation, kind, _doc(kind, rng))
            index += 1
        rotation += 1


def repeat_share(ops):
    """Share of ops after the warm-up whose noise config appeared before."""
    seen = {ops[0].noise_key}
    repeats = 0
    for op in ops[1:]:
        repeats += op.noise_key in seen
        seen.add(op.noise_key)
    return repeats / max(len(ops) - 1, 1)

