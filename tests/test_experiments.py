"""Trial runner, branch enumeration, and their mutual consistency."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cavityq.channels import BathSpec, NoiseConfig
from cavityq.experiments import (
    ExperimentConfig,
    PROBE_AMPS,
    TrialResult,
    attempt_statistics,
    enumerate_branches,
    estimate_process_fidelity,
    run_sweep,
    run_trials,
    summarize,
    sweep_point,
)

TOL = 1e-12

LOSSY = NoiseConfig(eta_trans=0.2, eta_local=0.05)
SCAN_NOISE = NoiseConfig(
    backend="bath", eta_local=0.2, bath=BathSpec((0.25, 0.35), (0.0, 0.9))
)


class TestExperimentConfig:
    def test_protocol_checked(self):
        with pytest.raises(ValueError, match="protocol"):
            ExperimentConfig(protocol="teleport")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"trials": 1.5},
            {"seed": -1},
            {"seed": 2**64},
            {"max_attempts": 0},
            # True is an int to Python but not an integer to the report
            {"trials": True},
            {"seed": True},
            {"max_attempts": True},
        ],
    )
    def test_integer_fields_checked(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="epr", **kwargs)

    @pytest.mark.parametrize(
        "protocol, kwargs",
        [
            ("stationarity_scan", {"durations": "12"}),
            ("stationarity_scan", {"durations": [True, 1]}),
            ("stationarity_scan", {"start_times": [0, 10**400]}),
            ("joint_measure", {"amps": [True, 0]}),
            ("joint_measure", {"amps": ["0.6", 0.8]}),
            ("joint_measure", {"amps": [10**400, 0]}),
            ("joint_measure", {"amps": [complex(float("nan"), 0), 0.8]}),
            ("joint_measure", {"amps": [0.6, complex(0, float("inf"))]}),
            ("gate_raw", {"amps": [complex(float("-inf"), 1), 0, 0, 1]}),
        ],
        ids=[
            "string_durations",
            "bool_duration",
            "huge_start_time",
            "bool_amp",
            "string_amp",
            "huge_amp",
            "nan_complex_amp",
            "inf_imag_amp",
            "neg_inf_real_amp",
        ],
    )
    def test_number_params_checked(self, protocol, kwargs):
        # strings, bools and integers too large for a float are no numbers
        with pytest.raises(ValueError, match="number|finite"):
            ExperimentConfig(protocol=protocol, protocol_params=kwargs)

    @pytest.mark.parametrize(
        "values",
        [["0.05", 0.1], [0.05, False], [10**400]],
        ids=["string", "bool", "huge_int"],
    )
    def test_sweep_values_checked(self, values):
        with pytest.raises(ValueError, match="sweep values must be"):
            ExperimentConfig(protocol="epr", sweep=("eta_trans", values))

    def test_unknown_protocol_params_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol_params"):
            ExperimentConfig(protocol="epr", protocol_params={"amps": (1, 0)})

    def test_amps_length_checked(self):
        with pytest.raises(ValueError, match="amps"):
            ExperimentConfig(
                protocol="joint_measure", protocol_params={"amps": (1, 0, 0)}
            )
        cfg = ExperimentConfig(
            protocol="gate_raw", protocol_params={"amps": [1, 0, 0, 1]}
        )
        assert cfg.protocol_params["amps"] == (1 + 0j, 0j, 0j, 1 + 0j)

    def test_caller_params_left_untouched(self):
        params = {"amps": [0.6, 0.8]}
        cfg = ExperimentConfig(protocol="joint_measure", protocol_params=params)
        assert params == {"amps": [0.6, 0.8]}
        assert cfg.protocol_params["amps"] == (0.6 + 0j, 0.8 + 0j)
        timing = {"durations": [1, 2], "start_times": [0, 3]}
        cfg = ExperimentConfig(protocol="stationarity_scan", protocol_params=timing)
        assert timing == {"durations": [1, 2], "start_times": [0, 3]}
        assert cfg.protocol_params["start_times"] == (0.0, 3.0)

    def test_sweep_validation(self):
        with pytest.raises(ValueError, match="sweep parameter"):
            ExperimentConfig(protocol="epr", sweep=("trials", (1, 2)))
        with pytest.raises(ValueError, match="empty"):
            ExperimentConfig(protocol="epr", sweep=("eta_trans", ()))
        # each grid value must survive noise validation up front
        with pytest.raises(ValueError, match="eta_trans"):
            ExperimentConfig(protocol="epr", sweep=("eta_trans", (0.1, 1.5)))

    def test_scan_timing_params(self):
        cfg = ExperimentConfig(
            protocol="stationarity_scan",
            noise=SCAN_NOISE,
            protocol_params={"durations": (1.0, 1.7)},
        )
        assert cfg.protocol_params["durations"] == (1.0, 1.7)
        with pytest.raises(ValueError, match="start_times"):
            ExperimentConfig(
                protocol="stationarity_scan",
                protocol_params={"start_times": (0.0, 1.0, 2.0)},
            )


class TestTrialResult:
    def test_roundoff_fidelity_clamped(self):
        r = TrialResult(True, 1, 1.0 + 1e-12, ())
        assert r.fidelity == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            TrialResult(True, 1, 1.1, ())
        with pytest.raises(ValueError, match="attempts"):
            TrialResult(True, 0, 1.0, ())


class TestAttemptStatistics:
    def test_certain_success(self):
        s = attempt_statistics(1.0, 25)
        assert s.success_probability == 1.0
        assert s.mean_attempts == 1.0 and s.std_attempts == 0.0

    def test_truncated_geometric_against_direct_sum(self):
        p, m = 0.76, 25
        s = attempt_statistics(p, m)
        pk = [(1 - p) ** (k - 1) * p for k in range(1, m + 1)]
        norm = sum(pk)
        mean = sum(k * w for k, w in enumerate(pk, 1)) / norm
        assert s.success_probability == pytest.approx(norm, abs=TOL)
        assert s.mean_attempts == pytest.approx(mean, abs=TOL)
        assert s.success_probability == pytest.approx(1 - 0.24**25, abs=TOL)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            attempt_statistics(0.0, 10)

    @pytest.mark.parametrize("max_attempts", [0, -3, 2.7, 2.0, True, "5", None])
    def test_max_attempts_must_be_a_positive_integer(self, max_attempts):
        # 0 used to give NaN statistics and 2.7 silently meant 2
        with pytest.raises(ValueError, match="max_attempts must be a positive"):
            attempt_statistics(0.5, max_attempts)


class TestRunTrials:
    def test_repeatable_and_jobs_independent(self):
        cfg = ExperimentConfig(
            protocol="joint_measure",
            noise=NoiseConfig(eta_local=0.2),
            trials=60,
            seed=9,
        )
        s1, r1 = run_trials(cfg)
        s2, r2 = run_trials(cfg)
        assert r1 == r2
        assert s1 == s2

    def test_epr_ideal_is_certain(self):
        cfg = ExperimentConfig(protocol="epr", trials=100, seed=2)
        stats, results = run_trials(cfg)
        assert stats.success_probability == 1.0
        assert stats.stderr == 0.0
        assert stats.mean_fidelity == pytest.approx(1.0, abs=TOL)
        assert stats.attempts_histogram == ((1, 100),)

    def test_sampled_frequency_tracks_enumerated_weight(self):
        cfg = ExperimentConfig(
            protocol="joint_measure",
            noise=NoiseConfig(eta_local=0.2),
            trials=500,
            seed=5,
        )
        stats, _ = run_trials(cfg)
        sigma = np.sqrt(0.8 * 0.2 / 500)
        assert abs(stats.success_probability - 0.8) < 4 * sigma

    def test_purified_gate_sampling(self):
        cfg = ExperimentConfig(
            protocol="gate_purified",
            noise=NoiseConfig(eta_local=0.05),
            trials=300,
            seed=11,
        )
        stats, results = run_trials(cfg)
        p = 0.95**5
        sigma = np.sqrt(p * (1 - p) / 300)
        assert abs(stats.success_probability - p) < 4 * sigma
        assert stats.min_fidelity >= 1.0 - 1e-9

    def test_thermal_gate_records_degradation(self):
        # hot window modes can corrupt a run that every checkpoint passes
        cfg = ExperimentConfig(
            protocol="gate_purified",
            noise=NoiseConfig(backend="bath", eta_local=0.05, p_therm=0.1),
            trials=25,
            seed=3,
        )
        stats, results = run_trials(cfg)
        assert stats.min_fidelity == pytest.approx(0.91917866430101, rel=1e-9)
        assert stats.min_fidelity < 1.0 - 1e-4
        assert stats.success_probability > 0.5

    def test_scan_carries_deviation(self):
        cfg = ExperimentConfig(
            protocol="stationarity_scan", noise=SCAN_NOISE, trials=1
        )
        stats, results = run_trials(cfg)
        assert stats.stationarity_deviation == 0.0
        assert results[0].success and results[0].outcomes == ()

    @pytest.mark.parametrize(
        "bath",
        [BathSpec((0.2, 0.3), (0.0, 0.7)), BathSpec((), ())],
        ids=["two_modes", "no_modes"],
    )
    @pytest.mark.parametrize(
        "protocol", ["joint_measure", "epr", "gate_purified", "stationarity_scan"]
    )
    def test_any_vacuum_bath_purifies(self, protocol, bath):
        # every protocol runs on an explicit bath of any size, and a vacuum
        # bath is stationary, so every heralded run is perfect
        noise = NoiseConfig(backend="bath", eta_trans=0.3, bath=bath)
        cfg = ExperimentConfig(
            protocol, noise, trials=400, seed=13, max_attempts=2
        )
        stats, _ = run_trials(cfg)
        assert stats.min_fidelity >= 1.0 - 1e-9
        if protocol == "stationarity_scan":
            # no branches to enumerate: the scan reports its deviation
            assert stats.stationarity_deviation < 1e-12
            return
        p = sum(b.weight for b in enumerate_branches(cfg) if b.success)
        sigma = np.sqrt(p * (1 - p) / cfg.trials)
        assert abs(stats.success_probability - p) <= 5 * sigma + TOL

    def test_summarize_empty(self):
        with pytest.raises(ValueError, match="no trials"):
            summarize(())


class TestEnumerateBranches:
    def test_jm_ideal_single_branch(self):
        br = enumerate_branches(ExperimentConfig(protocol="joint_measure"))
        assert len(br) == 1
        assert br[0].weight == pytest.approx(1.0, abs=TOL)
        assert br[0].success and br[0].fidelity == pytest.approx(1.0, abs=TOL)

    def test_jm_lossy_two_branches(self):
        cfg = ExperimentConfig(
            protocol="joint_measure", noise=NoiseConfig(eta_local=0.2)
        )
        br = sorted(enumerate_branches(cfg), key=lambda r: r.weight)
        assert [r.success for r in br] == [False, True]
        assert br[0].weight == pytest.approx(0.2, abs=TOL)
        assert br[1].weight == pytest.approx(0.8, abs=TOL)
        assert br[1].fidelity == pytest.approx(1.0, abs=TOL)
        assert br[0].state is not None

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(
                protocol="joint_measure",
                noise=NoiseConfig(backend="bath", eta_local=0.2, p_therm=0.1),
            ),
            ExperimentConfig(protocol="epr", noise=LOSSY),
            ExperimentConfig(
                protocol="epr",
                noise=NoiseConfig(
                    backend="bath", eta_trans=0.2, eta_local=0.05, p_therm=0.1
                ),
                max_attempts=1,
            ),
            ExperimentConfig(
                protocol="gate_purified", noise=NoiseConfig(eta_local=0.05)
            ),
        ],
    )
    def test_weights_sum_to_one(self, cfg):
        br = enumerate_branches(cfg)
        assert abs(sum(r.weight for r in br) - 1.0) < 1e-10

    def test_epr_full_process_tree(self):
        br = enumerate_branches(ExperimentConfig(protocol="epr", noise=LOSSY))
        assert len(br) == 51
        ok = [r for r in br if r.success]
        assert sum(r.weight for r in ok) == pytest.approx(
            1 - 0.24**25, abs=TOL
        )
        assert min(r.fidelity for r in ok) >= 1.0 - 1e-9
        for k in (1, 2, 3):
            w = sum(r.weight for r in ok if r.attempts == k)
            assert w == pytest.approx(0.24 ** (k - 1) * 0.76, abs=TOL)

    def test_epr_single_attempt(self):
        cfg = ExperimentConfig(protocol="epr", noise=LOSSY, max_attempts=1)
        br = enumerate_branches(cfg)
        weights = sorted(round(r.weight, 12) for r in br)
        assert weights == [0.24, 0.38, 0.38]
        assert all(r.fidelity >= 1 - 1e-9 for r in br if r.success)

    def test_thermal_epr_conditional_fidelity(self):
        cfg = ExperimentConfig(
            protocol="epr",
            noise=NoiseConfig(
                backend="bath", eta_trans=0.2, eta_local=0.05, p_therm=0.1
            ),
            max_attempts=1,
        )
        br = enumerate_branches(cfg)
        ok = [r for r in br if r.success]
        cond = sum(r.weight * r.fidelity for r in ok) / sum(
            r.weight for r in ok
        )
        assert cond == pytest.approx(0.9953192808431489, rel=1e-9)
        assert cond < 1.0 - 1e-4
        assert min(r.fidelity for r in ok) == pytest.approx(
            0.9577486272117146, rel=1e-9
        )

    def test_purified_gate_tree(self):
        cfg = ExperimentConfig(
            protocol="gate_purified", noise=NoiseConfig(eta_local=0.05)
        )
        br = enumerate_branches(cfg)
        assert len(br) == 5
        ok = [r for r in br if r.success]
        assert len(ok) == 1
        assert ok[0].weight == pytest.approx(0.95**5, abs=TOL)
        assert ok[0].fidelity >= 1.0 - 1e-9

    def test_branch_cap(self):
        cfg = ExperimentConfig(protocol="epr", noise=LOSSY)
        with pytest.raises(ValueError, match="branches"):
            enumerate_branches(cfg, max_branches=3)

    def test_scan_has_no_branches(self):
        cfg = ExperimentConfig(protocol="stationarity_scan", noise=SCAN_NOISE)
        with pytest.raises(ValueError, match="branches"):
            enumerate_branches(cfg)


def _leaf_record(leaf):
    """A branch leaf with its state as raw amplitude bytes."""
    state = None if leaf.state is None else leaf.state.amplitudes.tobytes()
    return (
        leaf.weight, leaf.success, leaf.attempts, leaf.fidelity, leaf.outcomes, state
    )


@pytest.mark.parametrize("protocol", ["joint_measure", "epr", "gate_purified"])
def test_zero_mode_thermal_bath_matches_vacuum(protocol):
    # a bath without modes has nothing to occupy, so its occupation makes
    # no draw: trials and branch trees are those of the vacuum config
    empty = NoiseConfig(backend="bath", bath=BathSpec((), ()), eta_trans=0.2)
    runs = []
    for p_therm in (0.1, 0.0):
        noise = replace(empty, p_therm=p_therm)
        cfg = ExperimentConfig(protocol, noise, trials=4, seed=3, max_attempts=2)
        leaves = [_leaf_record(leaf) for leaf in enumerate_branches(cfg)]
        runs.append((run_trials(cfg), leaves))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "protocol, noise",
    [
        ("joint_measure", NoiseConfig(eta_local=0.2)),
        ("gate_purified", NoiseConfig(backend="bath", eta_local=0.05)),
    ],
)
def test_enumerations_compare_by_value(protocol, noise):
    # leaves hold states, which compare by spec and amplitudes
    cfg = ExperimentConfig(protocol, noise)
    first, again = enumerate_branches(cfg), enumerate_branches(cfg)
    assert first[0].state is not again[0].state
    assert first == again
    assert first[0].state != first[1].state
    assert replace(first[0], state=first[1].state) != again[0]


@given(
    eta_local=st.floats(0.0, 0.3),
    extra=st.floats(0.01, 0.5),
    phase_offset=st.floats(-np.pi, np.pi),
)
@example(eta_local=1e-14, extra=0.5, phase_offset=0.0)
def test_analytic_and_vacuum_bath_trees_agree(eta_local, extra, phase_offset):
    # the link must lose more than the cavity, so eta_trans lies above
    # eta_local; delta and pulse_area_error exist only on the analytic
    # backend. Leaves are matched by their outcomes: the ancilla's equal
    # split lets roundoff pick which branch a backend walks first. A
    # branch that weighs about WEIGHT_FLOOR may be cut on one backend and
    # kept on the other, so a leaf missing on one side counts as weight 0
    noises = [
        NoiseConfig(
            backend=backend,
            eta_local=eta_local,
            eta_trans=eta_local + extra,
            phase_offset=phase_offset,
        )
        for backend in ("analytic", "bath")
    ]
    for protocol in ("joint_measure", "epr", "gate_raw", "gate_purified"):
        analytic, bath = (
            {
                leaf.outcomes: leaf
                for leaf in enumerate_branches(
                    ExperimentConfig(protocol, noise, max_attempts=3)
                )
            }
            for noise in noises
        )
        for outcomes in analytic.keys() ^ bath.keys():
            leaf = analytic.get(outcomes) or bath[outcomes]
            assert leaf.weight <= 1e-10, (protocol, outcomes)
        for outcomes in analytic.keys() & bath.keys():
            a, b = analytic[outcomes], bath[outcomes]
            assert (a.success, a.attempts) == (b.success, b.attempts)
            assert abs(a.weight - b.weight) <= 1e-10, outcomes
            if a.fidelity is None:
                assert b.fidelity is None
            else:
                assert abs(a.fidelity - b.fidelity) <= 1e-10, outcomes


class TestProcessFidelity:
    def test_ideal_is_exact(self):
        assert estimate_process_fidelity(NoiseConfig()) == pytest.approx(
            1.0, abs=TOL
        )
        assert estimate_process_fidelity(
            NoiseConfig(), purified=False
        ) == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseConfig(eta_local=0.05),
            NoiseConfig(delta=0.1 / np.pi),
            NoiseConfig(backend="bath", eta_local=0.05),
        ],
    )
    def test_stationary_noise_purifies(self, noise):
        assert estimate_process_fidelity(noise) >= 1.0 - 1e-9

    def test_raw_gate_keeps_losses(self):
        f = estimate_process_fidelity(
            NoiseConfig(eta_local=0.05), purified=False
        )
        # worst probe is |10>, whose raw survival weight is (1-eta)^3
        assert f == pytest.approx(0.95**3, abs=TOL)

    def test_probe_set_shape(self):
        assert len(PROBE_AMPS) == 10
        for amps in PROBE_AMPS:
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=TOL)


class TestSweep:
    def test_stationarity_scan_sweep(self):
        cfg = ExperimentConfig(
            protocol="stationarity_scan",
            noise=SCAN_NOISE,
            sweep=("p_therm", (0.0, 0.02, 0.05, 0.1)),
        )
        rows = run_sweep(cfg)
        devs = [stats.stationarity_deviation for _, stats, _ in rows]
        assert devs[0] < 1e-12
        assert devs[3] == pytest.approx(0.0056339854047570397, rel=1e-9)
        assert all(b >= a for a, b in zip(devs, devs[1:]))

    def test_sweep_point_mechanics(self):
        cfg = ExperimentConfig(
            protocol="epr", noise=LOSSY, sweep=("eta_trans", (0.0, 0.3))
        )
        point = sweep_point(cfg, 0.3)
        assert point.noise.eta_trans == 0.3
        assert point.noise.eta_local == 0.05
        assert point.sweep is None

    def test_sweep_requires_axis(self):
        with pytest.raises(ValueError, match="sweep"):
            run_sweep(ExperimentConfig(protocol="epr"))
