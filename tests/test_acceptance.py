"""Release gate: one test per acceptance criterion, each with a time budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Tolerances and budgets are pinned module constants;
loosening any of them is a release decision, not a test fix.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cavityq.channels import (
    NoiseConfig,
    analytic_from_bath,
    check_stationarity,
    local_channel_apply,
    make_local_channel,
    make_transmission_channel,
    transmission_apply,
)
from cavityq.dynamics import BathSpec, transfer
from cavityq.experiments import (
    ExperimentConfig,
    attempt_statistics,
    enumerate_branches,
    estimate_process_fidelity,
    run_trials,
)
from cavityq.hilbert import SubsystemSpec, make_state, superpose
from cavityq.protocols import GateCircuit

TOL_EXACT = 1e-12
TOL_PURITY = 1e-9
TOL_CROSS = 1e-10

ETA_PRESETS = (0.01, 0.05, 0.2)
SCAN_BATH = BathSpec(couplings=(0.25, 0.35), detunings=(0.0, 0.9))
THERM_GRID = (0.0, 0.02, 0.05, 0.1)
MC_SEED = 20260816
MC_TRIALS = 10**4

LOSSY_LINK = NoiseConfig(eta_trans=0.2, eta_local=0.05)


@contextmanager
def budget(seconds):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def local_bath_channel(eta, bath=None, p_therm=0.0):
    noise = NoiseConfig(backend="bath", eta_local=eta, bath=bath, p_therm=p_therm)
    # slot "b0" names one tuned mode b0; slot "b" names n modes bm0, bm1, ...
    return make_local_channel(noise, "c", ("b0",) if bath is None else ("b",))


def random_pair_amps(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return a / np.linalg.norm(a)


def test_01_ideal_copy_map_amplitudes():
    """Two sequential transfer pulses act on the four basis inputs exactly."""
    with budget(1.0):
        spec = SubsystemSpec([("q1", "atom"), ("q2", "atom"), ("c", "cavity")])
        lines = [
            ({"q1": 0, "q2": 0, "c": 0}, {"q1": 0, "q2": 0, "c": 0}, 1.0),
            ({"q1": 0, "q2": 2, "c": 0}, {"q1": 0, "q2": 2, "c": 0}, 1.0),
            ({"q1": 1, "q2": 0, "c": 0}, {"q1": 2, "q2": 0, "c": 1}, -1j),
            ({"q1": 1, "q2": 2, "c": 0}, {"q1": 2, "q2": 1, "c": 0}, -1.0),
        ]
        for init, final, amp in lines:
            out = transfer(make_state(spec, init), "q1", "c", 1.0)
            out = transfer(out, "q2", "c", 1.0)
            expect = superpose([(amp, make_state(spec, final))])
            err = np.abs(out.amplitudes - expect.amplitudes).max()
            assert err < TOL_EXACT, f"input {init}: amplitude error {err}"


def test_02_loss_channel_two_branch_structure():
    """A tuned bath window leaves exactly survive + one-loss branches."""
    with budget(5.0):
        spec = SubsystemSpec(
            [("i", "atom"), ("j", "atom"), ("c", "cavity"), ("b0", "bathmode")]
        )
        for eta in ETA_PRESETS:
            ch = local_bath_channel(eta)
            s = make_state(spec, {"i": 1, "j": 0, "c": 0, "b0": 0})
            t = local_channel_apply(s, ch, ("i", "j")).tensor()
            survive = abs(t[1, 1, 0, 0]) ** 2
            lost = abs(t[1, 0, 0, 1]) ** 2
            assert survive == pytest.approx(1 - eta, abs=TOL_EXACT)
            assert lost == pytest.approx(eta, abs=TOL_EXACT)
            stray = np.abs(t).sum() - abs(t[1, 1, 0, 0]) - abs(t[1, 0, 0, 1])
            assert stray < TOL_EXACT, f"eta {eta}: stray weight {stray}"


def test_03_stationarity_vacuum_vs_thermal():
    """Deviation vanishes for vacuum baths and c-number offsets, not heat."""
    with budget(10.0):
        for eta in ETA_PRESETS:
            assert check_stationarity(local_bath_channel(eta)) < TOL_EXACT
        trans = make_transmission_channel(
            NoiseConfig(backend="bath", eta_trans=0.2),
            ("c1", "c2"),
            ("lnk0",),
        )
        assert check_stationarity(trans) < TOL_EXACT
        for scalars in (
            {"delta": 0.1 / np.pi},
            {"pulse_area_error": 0.05},
            {"phase_offset": 0.7},
            {"delta": 0.2, "pulse_area_error": -0.03, "phase_offset": 1.1},
        ):
            ch = make_local_channel(NoiseConfig(**scalars), "c", ("fl0",))
            assert check_stationarity(ch) < TOL_EXACT, scalars
        devs = [
            check_stationarity(local_bath_channel(0.2, SCAN_BATH, p))
            for p in THERM_GRID
        ]
        assert devs[0] < TOL_EXACT
        assert devs[-1] > 1e-4, f"thermal deviation {devs[-1]} too small"
        assert all(a <= b + TOL_EXACT for a, b in zip(devs, devs[1:])), devs


def test_04_joint_measurement_purifies_every_passing_branch():
    """Loss during the flagged joint measurement never corrupts survivors."""
    with budget(30.0):
        rng = np.random.default_rng(41)
        inputs = [random_pair_amps(rng) for _ in range(20)]
        for backend in ("analytic", "bath"):
            for eta in (0.05, 0.2):
                noise = NoiseConfig(backend=backend, eta_local=eta)
                for amps in inputs:
                    cfg = ExperimentConfig(
                        protocol="joint_measure",
                        noise=noise,
                        protocol_params={"amps": tuple(amps)},
                    )
                    wins = [
                        b for b in enumerate_branches(cfg) if b.success
                    ]
                    assert wins, (backend, eta)
                    low = min(b.fidelity for b in wins)
                    assert low >= 1 - TOL_PURITY, (backend, eta, low)


def test_05_epr_link_heralds_perfect_pairs():
    """Repeat-until-success pair creation: purity, rate, retry law, heat."""
    with budget(120.0):
        # every successful branch of the full retry tree is a perfect pair
        full = ExperimentConfig(
            protocol="epr", noise=LOSSY_LINK, max_attempts=25
        )
        wins = [b for b in enumerate_branches(full) if b.success]
        assert wins
        assert min(b.fidelity for b in wins) >= 1 - TOL_PURITY
        bath_cfg = ExperimentConfig(
            protocol="epr",
            noise=NoiseConfig(backend="bath", eta_trans=0.2, eta_local=0.05),
            max_attempts=2,
        )
        bath_wins = [b for b in enumerate_branches(bath_cfg) if b.success]
        assert bath_wins
        assert min(b.fidelity for b in bath_wins) >= 1 - TOL_PURITY

        # Monte Carlo success frequency vs the enumerated per-attempt rate
        single = ExperimentConfig(
            protocol="epr", noise=LOSSY_LINK, max_attempts=1
        )
        p_attempt = sum(
            b.weight for b in enumerate_branches(single) if b.success
        )
        mc_one = ExperimentConfig(
            protocol="epr",
            noise=LOSSY_LINK,
            trials=MC_TRIALS,
            seed=MC_SEED,
            max_attempts=1,
        )
        stats_one, _ = run_trials(mc_one)
        sigma = np.sqrt(p_attempt * (1 - p_attempt) / MC_TRIALS)
        assert abs(stats_one.success_probability - p_attempt) <= 3 * sigma

        # mean attempts vs the truncated geometric law
        law = attempt_statistics(p_attempt, 25)
        mc_full = ExperimentConfig(
            protocol="epr",
            noise=LOSSY_LINK,
            trials=MC_TRIALS,
            seed=MC_SEED,
            max_attempts=25,
        )
        stats_full, results = run_trials(mc_full)
        mean_attempts = np.mean([r.attempts for r in results])
        sigma_mean = law.std_attempts / np.sqrt(MC_TRIALS)
        assert abs(mean_attempts - law.mean_attempts) <= 3 * sigma_mean
        assert stats_full.min_fidelity >= 1 - TOL_PURITY

        # a thermal link is heralded but no longer perfectly purified
        therm = ExperimentConfig(
            protocol="epr",
            noise=NoiseConfig(
                backend="bath", eta_trans=0.2, eta_local=0.05, p_therm=0.1
            ),
            max_attempts=1,
        )
        branches = [b for b in enumerate_branches(therm) if b.success]
        num = sum(b.weight * b.fidelity for b in branches)
        den = sum(b.weight for b in branches)
        conditional = num / den
        assert conditional < 1 - 1e-6, conditional
        assert conditional > 0.9


def test_06_gate_purification_and_environment_factorization():
    """Raw phase gate is exact; checkpointed version purifies noise."""
    with budget(120.0):
        # noiseless raw action: lone sign flip on |10>, exact amplitudes
        for backend in ("analytic", "bath"):
            circ = GateCircuit(NoiseConfig(backend=backend))
            out = circ.apply(circ.initial_state((0.5, 0.5, 0.5, 0.5)))
            t = out.tensor().reshape(3, 3, -1)
            signs = {(0, 0): 0.5, (0, 1): 0.5, (1, 0): -0.5, (1, 1): 0.5}
            for (v1, v2), want in signs.items():
                got = t[v1, v2, 0]
                assert abs(got - want) < TOL_EXACT, (backend, v1, v2, got)

        # purified runs stay above the process-fidelity floor
        for noise in (
            NoiseConfig(eta_local=0.05),
            NoiseConfig(delta=0.1 / np.pi),
        ):
            worst = estimate_process_fidelity(noise)
            assert worst >= 1 - TOL_PURITY, (noise, worst)

            # surviving-branch environment record is input independent:
            # the product extracted per computational input must be one
            # and the same complex number for all four inputs
            products = []
            for k in range(4):
                amps = tuple(1.0 if j == k else 0.0 for j in range(4))
                noisy = ExperimentConfig(
                    protocol="gate_purified",
                    noise=noise,
                    protocol_params={"amps": amps},
                )
                ideal = ExperimentConfig(
                    protocol="gate_purified",
                    noise=NoiseConfig(),
                    protocol_params={"amps": amps},
                )
                wins = [b for b in enumerate_branches(noisy) if b.success]
                ref = [b for b in enumerate_branches(ideal) if b.success]
                assert len(wins) == 1 and len(ref) == 1
                got = wins[0].state.tensor().ravel()
                want = ref[0].state.tensor().ravel()
                assert got.shape == want.shape
                products.append(
                    np.sqrt(wins[0].weight) * np.vdot(want, got)
                )
            spread = max(
                abs(a - b) for a in products for b in products
            )
            assert spread < TOL_CROSS, (noise, products)


def test_07_analytic_twin_reproduces_bath_amplitudes():
    """Scalars tuned from a bath reproduce its branch amplitudes."""
    with budget(30.0):
        rng = np.random.default_rng(23)
        spec_a = SubsystemSpec(
            [("i", "atom"), ("j", "atom"), ("f0", "bathmode")]
        )

        def states(spec_b, keys_b):
            a = random_pair_amps(rng)
            zero_b = dict.fromkeys(keys_b, 0)
            sb = superpose(
                [
                    (a[0], make_state(spec_b, {**zero_b, "i": 0})),
                    (a[1], make_state(spec_b, {**zero_b, "i": 1})),
                ]
            )
            sa = superpose(
                [
                    (a[0], make_state(spec_a, {"i": 0, "j": 0, "f0": 0})),
                    (a[1], make_state(spec_a, {"i": 1, "j": 0, "f0": 0})),
                ]
            )
            return sb, sa

        for eta in ETA_PRESETS:
            ch = local_bath_channel(eta)
            twin = analytic_from_bath(ch, ("f0",))
            spec_b = SubsystemSpec(
                [
                    ("i", "atom"),
                    ("j", "atom"),
                    ("c", "cavity"),
                    ("b0", "bathmode"),
                ]
            )
            for _ in range(5):
                sb, sa = states(spec_b, ("i", "j", "c", "b0"))
                tb = local_channel_apply(sb, ch, ("i", "j")).tensor()
                ta = local_channel_apply(sa, twin, ("i", "j")).tensor()
                assert abs(ta[0, 0, 0] - tb[0, 0, 0, 0]) < TOL_CROSS
                assert abs(ta[1, 1, 0] - tb[1, 1, 0, 0]) < TOL_CROSS
                assert (
                    abs(abs(ta[1, 0, 1]) - abs(tb[1, 0, 0, 1])) < TOL_CROSS
                )

        # detuned two-mode bath: survive amplitude is genuinely complex
        ch = local_bath_channel(0.0, bath=SCAN_BATH)
        twin = analytic_from_bath(ch, ("f0",))
        spec_b = SubsystemSpec(
            [
                ("i", "atom"),
                ("j", "atom"),
                ("c", "cavity"),
                ("bm0", "bathmode"),
                ("bm1", "bathmode"),
            ]
        )
        for _ in range(5):
            sb, sa = states(spec_b, ("i", "j", "c", "bm0", "bm1"))
            tb = local_channel_apply(sb, ch, ("i", "j")).tensor()
            ta = local_channel_apply(sa, twin, ("i", "j")).tensor()
            assert abs(ta[1, 1, 0] - tb[1, 1, 0, 0, 0]) < TOL_CROSS
            bath_loss = np.sqrt(
                abs(tb[1, 0, 0, 1, 0]) ** 2 + abs(tb[1, 0, 0, 0, 1]) ** 2
            )
            assert abs(abs(ta[1, 0, 1]) - bath_loss) < TOL_CROSS

        for eta in (0.05, 0.2, 0.35):
            ch = make_transmission_channel(
                NoiseConfig(backend="bath", eta_trans=eta),
                ("c1", "c2"),
                ("lnk0",),
            )
            twin = analytic_from_bath(ch, ("f0",))
            spec_b = SubsystemSpec(
                [
                    ("i", "atom"),
                    ("j", "atom"),
                    ("c1", "cavity"),
                    ("c2", "cavity"),
                    ("lnk0", "bathmode"),
                ]
            )
            for _ in range(5):
                sb, sa = states(spec_b, ("i", "j", "c1", "c2", "lnk0"))
                tb = transmission_apply(sb, ch, ("i", "j")).tensor()
                ta = transmission_apply(sa, twin, ("i", "j")).tensor()
                assert abs(ta[0, 0, 0] - tb[0, 0, 0, 0, 0]) < TOL_CROSS
                assert abs(ta[1, 1, 0] - tb[1, 1, 0, 0, 0]) < TOL_CROSS
                assert (
                    abs(abs(ta[1, 0, 1]) - abs(tb[1, 0, 0, 0, 1]))
                    < TOL_CROSS
                )


def test_08_cli_contract(tmp_path):
    """Shipped presets pass --check; reports are valid and byte-stable."""
    with budget(60.0):
        def invoke(*argv):
            return subprocess.run(
                [sys.executable, "-m", "cavityq", *argv],
                capture_output=True,
                text=True,
            )

        for preset in ("epr_ideal", "gate_eta05"):
            result = invoke(
                "run", "--config", preset, "--check",
                "--out", str(tmp_path / preset),
            )
            assert result.returncode == 0, (preset, result.stderr)

        broken = tmp_path / "broken.json"
        broken.write_text('{"protocol": "epr",,}', encoding="utf-8")
        result = invoke(
            "run", "--config", str(broken), "--out", str(tmp_path)
        )
        assert result.returncode == 1
        assert result.stderr.strip()

        import jsonschema

        from cavityq.cli import SCHEMA_PATH

        for d in ("r1", "r2"):
            result = invoke(
                "run", "--config", "epr_ideal", "--out", str(tmp_path / d)
            )
            assert result.returncode == 0, result.stderr
        first = (tmp_path / "r1/report.json").read_bytes()
        assert first == (tmp_path / "r2/report.json").read_bytes()
        jsonschema.validate(
            json.loads(first), json.loads(SCHEMA_PATH.read_text())
        )
